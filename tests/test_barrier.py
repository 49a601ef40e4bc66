import math
import re

import numpy as np
import pytest

from homotopt.barrier import (BarrierDivergedError, BarrierSchedule, BoxConstraints,
                              DualPair, NonInteriorError, ObjectiveOracle, box_barrier_problem,
                              geometric_rule, pd_residual_box, run_pd_barrier)
from homotopt.homotopy import NewtonConfig
from homotopt.io_cli import mu_sequence_rule, quartic_oracle
from homotopt.sparse import solve_direct

QUARTIC_BOX = BoxConstraints(np.array([-0.5]), np.array([1.0]))
REFERENCE_MINIMIZERS = {2.9: 0.2008, 1.1: 0.0315, 0.4: -0.2456, 0.1: -0.41}


def quartic_f(x):
    return x ** 4 - x ** 3 - x ** 2 + x + 0.25


def quartic_fprime(x):
    return 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0


def quartic_barrier(x, mu):
    return quartic_f(x) - mu * (np.log(x + 0.5) + np.log(1.0 - x))


def golden_section_min(fun, lo, hi, tol=1e-12):
    """Golden-section minimization seeded by a coarse grid scan (the barrier
    can be bimodal for small mu; the scan brackets the global minimum)."""
    grid = np.linspace(lo, hi, 4001)
    vals = np.array([fun(g) for g in grid])
    k = int(np.argmin(vals))
    a = grid[max(k - 1, 0)]
    b = grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    while abs(b - a) > tol:
        if fun(c) < fun(d):
            b, d = d, c
            c = b - invphi * (b - a)
        else:
            a, c = c, d
            d = a + invphi * (b - a)
    return 0.5 * (a + b)


# --- schedule -----------------------------------------------------------------

def test_schedule_endpoints_and_monotonicity():
    s = BarrierSchedule(50.0, 1e-3)
    assert s.mu(0.0) == 50.0
    assert s.mu(1.0) == 1e-3
    ts = np.linspace(0, 1, 11)
    mus = [s.mu(t) for t in ts]
    assert all(m1 < m0 for m0, m1 in zip(mus, mus[1:]))
    assert s.dmu_dt(0.3) == pytest.approx(1e-3 - 50.0)
    g = BarrierSchedule(50.0, 1e-3, schedule="geometric")
    assert g.mu(0.0) == pytest.approx(50.0)
    assert g.mu(1.0) == pytest.approx(1e-3)
    with pytest.raises(ValueError):
        BarrierSchedule(1e-3, 50.0)
    with pytest.raises(ValueError):
        BarrierSchedule(50.0, 1e-3, schedule="cubic")


def test_box_validation():
    with pytest.raises(ValueError):
        BoxConstraints(np.array([0.0, 1.0]), np.array([1.0, 1.0]))
    box = BoxConstraints(np.zeros(2), np.ones(2))
    assert box.analytic_center() == pytest.approx([0.5, 0.5])
    assert box.interior(np.array([0.1, 0.9]))
    assert not box.interior(np.array([0.0, 0.5]))


# --- primal-dual residual -----------------------------------------------------

def test_residual_at_analytic_center():
    box = BoxConstraints(np.array([-1.0, 0.0]), np.array([3.0, 2.0]))
    x = box.analytic_center()
    mu = 0.7
    z = mu / box.lower_gap(x)
    duals = DualPair(z, mu / box.upper_gap(x))
    grad = np.array([1.3, -0.4])
    r = pd_residual_box(grad, x, box, duals, mu)
    n = box.n
    assert r[n:] == pytest.approx(np.zeros(2 * n), abs=1e-15)
    assert r[:n] == pytest.approx(grad)  # z_a = z_b at the center


def test_residual_at_reference_minimizer():
    # frozen reference minimizer of B(.; 0.4)
    x = np.array([-0.2456])
    mu = 0.4
    duals = DualPair(mu / QUARTIC_BOX.lower_gap(x), mu / QUARTIC_BOX.upper_gap(x))
    r = pd_residual_box(quartic_fprime(x), x, QUARTIC_BOX, duals, mu)
    assert abs(r[0]) <= 1e-3
    assert r[1] == pytest.approx(0.0, abs=1e-15)
    assert r[2] == pytest.approx(0.0, abs=1e-15)


def test_residual_zero_at_exact_kkt_point():
    # linear objective with positive slope: KKT holds at x = a with z_a = slope
    box = BoxConstraints(np.array([0.0]), np.array([1.0]))
    duals = DualPair(np.array([2.0]), np.array([0.0]))
    r = pd_residual_box(np.array([2.0]), np.array([0.0]), box, duals, 0.0)
    assert np.all(r == 0.0)


# --- newton step --------------------------------------------------------------

def newton_step(oracle, x, box, duals, mu):
    """One full primal-dual Newton step from the box problem's residual and
    Jacobian, the system ``run_pd_barrier`` corrects with; returns
    ``(dx, dz_a, dz_b)``."""
    problem = box_barrier_problem(oracle, box)
    v = np.concatenate([x, duals.z_a, duals.z_b])
    d = solve_direct(problem.jacobian_x(v, mu), -problem.residual(v, mu))
    n = box.n
    return d[:n], d[n:2 * n], d[2 * n:]


def test_newton_step_small_at_reference_minimizer():
    x = np.array([0.2008])
    mu = 2.9
    duals = DualPair(mu / QUARTIC_BOX.lower_gap(x), mu / QUARTIC_BOX.upper_gap(x))
    dx, dza, dzb = newton_step(quartic_oracle(), x, QUARTIC_BOX, duals, mu)
    assert np.linalg.norm(np.concatenate([dx, dza, dzb])) < 1e-2


def test_newton_step_matches_hand_solve(rng):
    # n=1: compare against a dense solve of the hand-assembled 3x3 system
    x = np.array([0.3])
    mu = 0.9
    za, zb = np.array([1.7]), np.array([0.6])
    h = 4.2
    grad = np.array([0.37])
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    oracle = ObjectiveOracle(gradient=lambda y: grad, hessian=lambda y: np.array([[h]]))
    dx, dza, dzb = newton_step(oracle, x, box, DualPair(za, zb), mu)
    mat = np.array([[h, -1.0, 1.0],
                    [za[0], x[0] + 0.5, 0.0],
                    [-zb[0], 0.0, 1.0 - x[0]]])
    rhs = -pd_residual_box(grad, x, box, DualPair(za, zb), mu)
    ref = np.linalg.solve(mat, rhs)
    assert np.concatenate([dx, dza, dzb]) == pytest.approx(ref, abs=1e-12)


def test_dense_hessian_through_exact_zero_keeps_one_layout():
    # the Hessian is 0 at the first point and nonzero at the second: its
    # zero entries stay in the Jacobian, which keeps one layout and values
    box = BoxConstraints(np.full(2, -1.0), np.full(2, 1.0))
    oracle = ObjectiveOracle(gradient=lambda y: y ** 3, hessian=lambda y: np.outer(y, y))
    problem = box_barrier_problem(oracle, box)
    za, zb = np.array([0.3, 0.4]), np.array([0.2, 0.6])
    eye, zero = np.eye(2), np.zeros((2, 2))
    jacs = []
    for x in (np.zeros(2), np.array([0.5, -0.25])):
        jac = problem.jacobian_x(np.concatenate([x, za, zb]), 0.1).csr
        want = np.block([[np.outer(x, x), -eye, eye],
                         [np.diag(za), np.diag(x + 1.0), zero],
                         [-np.diag(zb), zero, np.diag(1.0 - x)]])
        assert np.array_equal(jac.toarray(), want)
        jacs.append(jac)
    assert np.array_equal(jacs[0].indptr, jacs[1].indptr)
    assert np.array_equal(jacs[0].indices, jacs[1].indices)


def test_repeated_steps_converge_on_quadratic():
    box = BoxConstraints(np.array([-1.0]), np.array([1.0]))
    mu = 0.05
    x = np.array([0.6])
    duals = DualPair(mu / box.lower_gap(x), mu / box.upper_gap(x))
    quadratic = ObjectiveOracle(gradient=lambda y: 2.0 * y, hessian=lambda y: np.array([[2.0]]))
    for _ in range(50):
        dx, dza, dzb = newton_step(quadratic, x, box, duals, mu)
        x = x + dx
        duals = DualPair(duals.z_a + dza, duals.z_b + dzb)
    assert x[0] == pytest.approx(0.0, abs=1e-8)
    assert duals.z_a == pytest.approx(mu / box.lower_gap(x), abs=1e-8)
    assert duals.z_b == pytest.approx(mu / box.upper_gap(x), abs=1e-8)


# --- the driver ---------------------------------------------------------------

def test_quartic_minimizer_path():
    mus = sorted(REFERENCE_MINIMIZERS, reverse=True)
    seen = {}

    def capture(mu, x, duals):
        seen[round(mu, 12)] = float(x[0])

    x, duals = run_pd_barrier(quartic_oracle(), QUARTIC_BOX.analytic_center(),
                              QUARTIC_BOX, mu0=mus[0], mu_inf=0.2,
                              theta=mu_sequence_rule(mus), on_subproblem=capture)
    for mu, expected in REFERENCE_MINIMIZERS.items():
        got = seen[round(mu, 12)]
        # reference values at 1e-3, independent golden-section oracle tighter
        assert got == pytest.approx(expected, abs=1e-3)
        oracle_x = golden_section_min(lambda y: quartic_barrier(y, mu), -0.4999, 0.9999)
        assert got == pytest.approx(oracle_x, abs=1e-7)
    # path moves monotonically toward the active bound
    path = [seen[round(m, 12)] for m in mus]
    assert all(b < a for a, b in zip(path, path[1:]))
    assert x[0] == pytest.approx(REFERENCE_MINIMIZERS[0.1], abs=1e-3)


def test_quartic_continued_to_constrained_minimizer():
    x, duals = run_pd_barrier(quartic_oracle(), QUARTIC_BOX.analytic_center(),
                              QUARTIC_BOX, mu0=2.9, mu_inf=1e-6)
    assert x[0] == pytest.approx(-0.5, abs=1e-3)
    assert float(duals.z_a[0]) > 0 and float(duals.z_b[0]) > 0


def test_linear_objective_pushes_to_lower_bound():
    oracle = ObjectiveOracle(
        gradient=lambda x: np.array([3.0]),
        hessian=lambda x: np.array([[0.0]]),
    )
    box = BoxConstraints(np.array([0.0]), np.array([2.0]))
    # the method wants mu0 well above the objective scale; from a small mu0
    # the first full-Newton subproblem jumps out of the interior
    x, _ = run_pd_barrier(oracle, box.analytic_center(), box, mu0=10.0, mu_inf=1e-8)
    assert x[0] == pytest.approx(0.0, abs=1e-4)


def test_subproblem_solutions_satisfy_invariants():
    records = []

    def capture(mu, x, duals):
        records.append((mu, x.copy(), duals))

    run_pd_barrier(quartic_oracle(), QUARTIC_BOX.analytic_center(), QUARTIC_BOX,
                   mu0=2.9, mu_inf=1e-4, cfg=NewtonConfig(tol=1e-10),
                   on_subproblem=capture)
    for mu, x, duals in records:
        ca = QUARTIC_BOX.lower_gap(x)
        cb = QUARTIC_BOX.upper_gap(x)
        assert min(ca.min(), cb.min(), duals.z_a.min(), duals.z_b.min()) > 0
        assert np.max(np.abs(duals.z_a * ca - mu)) <= 1e-10
        assert np.max(np.abs(duals.z_b * cb - mu)) <= 1e-10
        # dual consistency: the primal-dual fixed point recovers z = mu / c
        assert duals.z_a == pytest.approx(mu / ca, rel=1e-6)
        assert duals.z_b == pytest.approx(mu / cb, rel=1e-6)


def test_interior_guard_declares_divergence():
    # an absurdly large mu jump throws Newton out of the interior
    oracle = quartic_oracle()
    problem = box_barrier_problem(oracle, QUARTIC_BOX)
    from homotopt.homotopy import newton_corrector
    v = np.concatenate([np.array([0.999]), np.array([1e-6]), np.array([1e3])])
    result = newton_corrector(problem, v, 1e4, NewtonConfig(max_iter=50))
    assert not result.converged or result.converged  # smoke: must not raise
    with pytest.raises(NonInteriorError):
        run_pd_barrier(oracle, np.array([2.0]), QUARTIC_BOX, mu0=1.0, mu_inf=0.5)


def test_diverged_subproblem_names_mu_and_reason():
    # one Newton step from the duals of mu = 2.9 straight to mu = 1e-6 leaves the interior
    with pytest.raises(BarrierDivergedError,
                       match=re.escape("barrier subproblem at mu=1e-06 diverged (invalid_iterate)")):
        run_pd_barrier(quartic_oracle(), QUARTIC_BOX.analytic_center(), QUARTIC_BOX,
                       mu0=2.9, mu_inf=1e-6, theta=lambda mu: 1e-6,
                       cfg=NewtonConfig(max_iter=1))


def test_geometric_rule_validation():
    with pytest.raises(ValueError):
        geometric_rule(1.5)
    rule = geometric_rule(0.25)
    assert rule(8.0) == pytest.approx(2.0)
