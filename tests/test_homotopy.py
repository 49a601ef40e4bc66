import logging
import math
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.optimize import brentq

from homotopt.barrier import BoxConstraints, box_barrier_problem, run_pd_barrier
from homotopt.homotopy import (Factor, NewtonConfig, StepController, StepUnderflowError,
                               HomotopyProblem, _tangent_direction, global_homotopy,
                               newton_corrector, pivoted_lu, trace)
from homotopt.io_cli import quartic_oracle
from homotopt.sparse import SingularMatrixError

ROOT = (-1.0 - math.sqrt(17.0)) / 8.0  # root of 4x^2 + x - 1 reached by the path


def cubic(x):
    return 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0


def cubic_prime(x):
    return 12.0 * x ** 2 - 6.0 * x - 2.0


def lu_of(jacobian):
    """A problem's ``factor``: the pivoted LU of ``jacobian(x, t)``."""
    return lambda x, t: pivoted_lu(jacobian(x, t))


def cubic_problem():
    return global_homotopy(lambda x: cubic(x), lambda x: np.diag(cubic_prime(x)),
                           np.array([-1.2]))


def zero_curve_x(t):
    """Independent oracle: solve F(x) = (1 - t) F(-1.2) by bracketing."""
    target = (1.0 - t) * cubic(-1.2)
    return brentq(lambda x: cubic(x) - target, -2.0, -0.55, xtol=1e-13)


def test_global_homotopy_construction():
    problem = cubic_problem()
    x0 = np.array([-1.2])
    assert problem.dh_dt(x0, 0.3) == pytest.approx([-7.832], abs=1e-12)
    assert problem.residual(x0, 0.0) == pytest.approx([0.0], abs=1e-12)
    x = np.array([0.37])
    assert problem.residual(x, 1.0) == pytest.approx(cubic(x), abs=1e-14)


def test_newton_corrector_finds_nearby_root():
    problem = cubic_problem()
    result = newton_corrector(problem, np.array([-0.7]), 1.0, NewtonConfig(tol=1e-12))
    assert result.converged
    assert result.x[0] == pytest.approx(ROOT, abs=1e-10)


def test_newton_corrector_zero_iterations_at_start():
    problem = cubic_problem()
    result = newton_corrector(problem, np.array([-1.2]), 0.0, NewtonConfig())
    assert result.converged
    assert result.iters == 0


def test_plain_newton_at_t1_reaches_some_root():
    # basin observation: without the homotopy, plain Newton from the start
    # point is at the mercy of the cubic's three roots
    problem = cubic_problem()
    result = newton_corrector(problem, np.array([-1.2]), 1.0, NewtonConfig(max_iter=100))
    roots = [1.0, (-1.0 + math.sqrt(17.0)) / 8.0, ROOT]
    if result.converged:
        assert min(abs(result.x[0] - r) for r in roots) < 1e-6


def arctan_problem(step_limit=None):
    # Newton on arctan diverges from |x0| > 1.3917 with a bounded residual, so
    # only the monotonicity test can end it before the budget
    return HomotopyProblem(
        residual=lambda x, t: np.arctan(x),
        factor=lu_of(lambda x, t: np.array([[1.0 / (1.0 + x[0] ** 2)]])),
        dh_dt=lambda x, t: np.zeros(1),
        step_limit=step_limit,
    )


@pytest.mark.parametrize("step_limit", [None, lambda x, dx: 2.0])
def test_full_step_that_raises_the_residual_ends_the_attempt(step_limit):
    # x: 1.5 -> -1.694 -> 2.321; |r| 0.983 -> 1.037 -> 1.164.  The first
    # rise is allowed, the second ends the attempt; a cap above 1 does not bind
    result = newton_corrector(arctan_problem(step_limit), np.array([1.5]), 1.0, NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, "no_decrease", 2)
    assert result.x[0] == pytest.approx(2.32112696, abs=1e-8)
    assert result.residual_norm == pytest.approx(np.arctan(result.x[0]), rel=1e-15)


def test_capped_step_that_raises_the_residual_goes_on():
    result = newton_corrector(arctan_problem(lambda x, dx: 0.99), np.array([1.5]), 1.0,
                              NewtonConfig(max_iter=5))
    assert (result.converged, result.reason, result.iters) == (False, "max_iter", 5)
    assert result.residual_norm > np.arctan(2.32112696)


def test_first_step_that_raises_the_residual_goes_on():
    # x^2 - 1 from 0.1: the first step lands at 5.05 (|r| 0.99 -> 24.5), then
    # Newton converges monotonically to 1
    problem = HomotopyProblem(
        residual=lambda x, t: x ** 2 - 1.0,
        factor=lu_of(lambda x, t: np.array([[2.0 * x[0]]])),
        dh_dt=lambda x, t: np.zeros(1),
    )
    first = newton_corrector(problem, np.array([0.1]), 1.0, NewtonConfig(max_iter=1))
    assert first.x[0] == pytest.approx(5.05) and first.residual_norm > 0.99
    result = newton_corrector(problem, np.array([0.1]), 1.0, NewtonConfig(tol=1e-12))
    assert (result.converged, result.reason, result.iters) == (True, "", 8)
    assert result.x[0] == pytest.approx(1.0, abs=1e-12)


def line_problem(jacobian=1.0, residual=lambda x, t: x - 1.0, step_limit=None):
    return HomotopyProblem(residual, lu_of(lambda x, t: np.array([[jacobian]])),
                           step_limit=step_limit)


@pytest.mark.parametrize("problem, reason, iters", [
    (line_problem(jacobian=0.0), "singular", 0),
    # x: 0 -> -1e4, |r|: 1 -> 10001, above divergence_growth times the best
    (line_problem(jacobian=-1e-4), "residual_growth", 1),
    (line_problem(residual=lambda x, t: x - 1.0 if x[0] == 0.0 else np.array([np.inf])),
     "residual_growth", 1),
    (line_problem(step_limit=lambda x, dx: 0.0), "invalid_iterate", 0),
    (line_problem(step_limit=lambda x, dx: math.nan), "invalid_iterate", 0),
], ids=["zero-jacobian", "growth", "non-finite", "zero-step-limit", "nan-step-limit"])
def test_corrector_stop_reasons(problem, reason, iters):
    result = newton_corrector(problem, np.zeros(1), 1.0, NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, reason, iters)
    if iters == 0:
        assert result.x[0] == 0.0 and result.residual_norm == 1.0


def test_trailing_residual_rows_count_in_the_norm_only():
    # the second row is the first negated, as the KKT system's state rows
    # are its adjoint rows: the Jacobian covers the first row, the norm both
    def residual(x, t):
        r = x ** 2 - (1.0 + 3.0 * t)
        return np.concatenate([r, -r])

    problem = HomotopyProblem(residual, lu_of(lambda x, t: np.array([[2.0 * x[0]]])),
                              dh_dt=lambda x, t: np.array([-3.0, 3.0]))
    # x: 1 -> 2.5, r = 2.25 in each row
    one = newton_corrector(problem, np.array([1.0]), 1.0, NewtonConfig(max_iter=1))
    assert one.x[0] == 2.5
    assert one.residual_norm == pytest.approx(2.25 * math.sqrt(2.0), rel=1e-15)
    # from x at the cap; from the tangent while dt grows from 0.1 to it
    for controller in (StepController(), StepController(dt_init=0.1)):
        x, tr = trace(problem, np.array([1.0]), controller, NewtonConfig(tol=1e-12))
        assert tr.accepted()[-1].t == 1.0
        assert x == pytest.approx([2.0], abs=1e-12)


def test_tangent_and_corrector_solve_through_the_factor():
    # each tangent and Newton system factors once and solves with the
    # leading rows of its right-hand side; the trailing copy of each row
    # counts only in the norm
    calls = []
    base = cubic_problem()

    def factor(x, t):
        calls.append((x.copy(), t))

        def solve(b):
            assert b.shape == x.shape
            return b / cubic_prime(x)
        return Factor(solve)

    problem = HomotopyProblem(lambda x, t: np.tile(base.residual(x, t), 2), factor,
                              lambda x, t: np.tile(base.dh_dt(x, t), 2))
    assert _tangent_direction(problem, np.array([-0.7]), 0.5) == \
        pytest.approx([-cubic(-1.2) / cubic_prime(-0.7)])
    # growth 1 keeps every step below the cap: each attempt solves a tangent
    controller = StepController(dt_init=0.2, dt_max=0.25, growth=1.0)
    x, tr = trace(problem, np.array([-1.2]), controller, NewtonConfig(tol=1e-12))
    assert x == pytest.approx([ROOT], abs=1e-10)
    assert len(calls) == 1 + sum(r.newton_iters for r in tr.records) + tr.n_attempts


def scripted_inertia_problem(negatives):
    """x - 1 = 0 corrected by half Newton steps (|r| halves, never reaching
    the default tolerance in 20 steps); the k-th factorization reports
    ``negatives[k]`` negative eigenvalues of the reduced Hessian."""
    calls = iter(negatives)
    return HomotopyProblem(lambda x, t: x - 1.0,
                           lambda x, t: Factor(lambda b: 0.5 * b, next(calls)))


@pytest.mark.parametrize("negatives, iters", [
    ([0, 3, 2], 2),
    # an isolated indefinite iterate, then a run of two
    ([0, 1, 0, 2, 3, 0], 4),
], ids=["second-and-third", "isolated-then-run"])
def test_corrector_below_t1_stops_at_the_second_indefinite_iterate(negatives, iters):
    result = newton_corrector(scripted_inertia_problem(negatives), np.zeros(1), 0.5,
                              NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, "left_branch", iters)
    # stopped before the last factorization's solve: iters half steps taken
    assert result.x[0] == 1.0 - 0.5 ** iters
    assert result.residual_norm == 0.5 ** iters


@pytest.mark.parametrize("negatives", [[1, 0] * 10, [1, None] * 10],
                         ids=["alternating", "no-inertia-resets"])
def test_isolated_indefinite_iterates_do_not_stop_the_corrector(negatives):
    # an iterate whose factor reports no inertia (a `pivoted_lu` problem's)
    # ends the run of indefinite iterates as a definite one does
    result = newton_corrector(scripted_inertia_problem(negatives), np.zeros(1), 0.5,
                              NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, "max_iter", 20)


def test_corrector_at_t1_runs_on_through_indefinite_iterates():
    result = newton_corrector(scripted_inertia_problem([5] * 20), np.zeros(1), 1.0,
                              NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, "max_iter", 20)


def test_pivoted_lu_problems_report_no_inertia():
    # half Newton steps run to the budget at t < 1
    line = HomotopyProblem(lambda x, t: x - 1.0, lu_of(lambda x, t: np.array([[2.0]])))
    assert line.factor(np.zeros(1), 0.5).negative is None
    result = newton_corrector(line, np.zeros(1), 0.5, NewtonConfig())
    assert (result.reason, result.iters) == ("max_iter", 20)
    # run_pd_barrier passes mu in the t slot; its problem reports no inertia
    # even where the quartic's Hessian is negative (-2.75 at x = 0.25)
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    barrier = box_barrier_problem(quartic_oracle(), box)
    assert barrier.factor(np.array([0.25, 1.0, 1.0]), 0.5).negative is None
    x, _ = run_pd_barrier(quartic_oracle(), box.analytic_center(), box, mu0=2.9, mu_inf=1e-6)
    assert x[0] == pytest.approx(-0.5, abs=1e-3)


def test_corrector_frees_each_factorization_before_the_next():
    # two live factorizations of a large KKT matrix raise a run's peak memory
    previous = []

    def factor(x, t):
        assert all(ref() is None for ref in previous)
        result = Factor(lambda b: 0.5 * b, 1)
        previous.append(weakref.ref(result))
        return result

    problem = HomotopyProblem(lambda x, t: x - 1.0, factor)
    result = newton_corrector(problem, np.zeros(1), 1.0, NewtonConfig(max_iter=5))
    assert (result.reason, len(previous)) == ("max_iter", 5)


def test_converging_corrector_matches_plain_newton():
    x, iters, tol = -0.7, 0, 1e-12
    while abs(cubic(x)) > tol:
        x -= cubic(x) / cubic_prime(x)
        iters += 1
    result = newton_corrector(cubic_problem(), np.array([-0.7]), 1.0, NewtonConfig(tol=tol))
    assert (result.converged, result.reason, result.iters) == (True, "", iters)
    assert result.x[0] == pytest.approx(x, rel=1e-14)


def test_tangent_predictor_direction():
    problem = cubic_problem()
    slope = _tangent_direction(problem, np.array([-1.2]), 0.0)[0]
    assert slope == pytest.approx(7.832 / 22.48, rel=1e-12)
    assert slope == pytest.approx(0.34840, abs=5e-6)


def test_tangent_predictor_singular_fallback(caplog):
    # x = t is the zero curve; H_x is singular only at t = 0, so the first
    # predictor falls back to x while every corrector converges; the log
    # marks the step that fell back
    problem = HomotopyProblem(
        residual=lambda x, t: x - t,
        factor=lu_of(lambda x, t: np.array([[0.0 if t == 0.0 else 1.0]])),
        dh_dt=lambda x, t: np.array([-1.0]),
    )
    assert _tangent_direction(problem, np.array([0.0]), 0.0) is None
    controller = StepController(dt_init=0.5, dt_max=1.0)
    caplog.set_level(logging.INFO, logger="homotopt.homotopy")
    x, tr = trace(problem, np.array([0.0]), controller, NewtonConfig())
    assert [r.t for r in tr.records] == [0.5, 1.0]
    assert [r.predictor_fallback for r in tr.records] == [True, False]
    steps = [m for m in caplog.messages if m.startswith("step ")]
    assert len(steps) == 2
    assert steps[0].startswith("step 1 accepted (predictor fallback): t=0.5 ")
    assert steps[1].startswith("step 2 accepted: t=1 ")
    assert all(r.accepted for r in tr.records)
    assert x == pytest.approx([1.0], abs=1e-12)


def test_tangent_is_solved_once_per_accepted_point():
    # x = t is the zero curve, but the correctors at t = 0.5, 0.25 and 0.625
    # fail.  H_x is singular only at t = 0: its tangent is factored once and
    # all three attempts from t = 0 fall back to x.  The tangent at 0.125 is
    # solved afresh there and is exact, so the retry at 0.375 takes no
    # Newton step; the step at the cap to 1.0 reads no tangent.
    factor_ts, dh_dt_ts = [], []

    def factor(x, t):
        factor_ts.append(t)
        return pivoted_lu(np.array([[0.0 if t == 0.0 else 1.0]]))

    def dh_dt(x, t):
        dh_dt_ts.append(t)
        return np.array([-1.0])

    problem = HomotopyProblem(
        residual=lambda x, t: np.array([1.0]) if t in (0.5, 0.25, 0.625) else x - t,
        factor=factor,
        dh_dt=dh_dt,
    )
    controller = StepController(dt_init=0.5, dt_max=1.0, growth=4.0)
    x, tr = trace(problem, np.array([0.0]), controller, NewtonConfig(max_iter=3))
    assert [r.t for r in tr.records] == [0.5, 0.25, 0.125, 0.625, 0.375, 1.0]
    assert [r.accepted for r in tr.records] == [False, False, True, False, True, True]
    assert [r.predictor_fallback for r in tr.records] == [True] * 3 + [False] * 3
    assert [r.newton_iters for r in tr.records] == [3, 3, 1, 3, 0, 1]
    assert dh_dt_ts == [0.0, 0.125]
    # the tangent factorizations are the first 0.0 and the second 0.125;
    # the rest are the correctors' own
    assert factor_ts == [0.0] + [0.5] * 3 + [0.25] * 3 + [0.125, 0.125] \
        + [0.625] * 3 + [1.0]
    assert x == pytest.approx([1.0], abs=1e-12)


def test_linear_problem_predictor_exact():
    a = np.array([0.3, -1.7])
    problem = global_homotopy(lambda x: x - a, lambda x: np.eye(2), np.zeros(2))
    assert _tangent_direction(problem, np.zeros(2), 0.0) == pytest.approx(a, abs=1e-12)
    controller = StepController(dt_init=1.0, dt_max=2.0)
    x, tr = trace(problem, np.zeros(2), controller, NewtonConfig())
    assert x == pytest.approx(a, abs=1e-10)
    assert tr.n_attempts == 1
    assert tr.records[0].newton_iters <= 1


def test_trace_cubic_hits_reference_path_points():
    problem = cubic_problem()
    targets = (0.4, 0.65, 0.9)
    controller = StepController(dt_init=0.25, dt_max=0.25)
    seen = {}

    def on_accept(t, x):
        seen[round(t, 12)] = float(x[0])

    x, tr = trace(problem, np.array([-1.2]), controller, NewtonConfig(), on_accept=on_accept,
                  checkpoints=targets)
    # frozen reference path values, 4 decimals
    assert seen[0.4] == pytest.approx(-1.0420, abs=1e-3)
    assert seen[0.65] == pytest.approx(-0.9147, abs=1e-3)
    assert seen[0.9] == pytest.approx(-0.7399, abs=1e-3)
    # independent bracketing oracle at tight tolerance
    for t in targets:
        assert seen[t] == pytest.approx(zero_curve_x(t), abs=1e-7)
    assert x[0] == pytest.approx(ROOT, abs=1e-6)
    accepted_t = [r.t for r in tr.accepted()]
    assert accepted_t == sorted(accepted_t)
    assert accepted_t[-1] == 1.0


def test_trace_invariants_from_records():
    problem = cubic_problem()
    controller = StepController(dt_init=0.25, dt_max=0.25)
    cfg = NewtonConfig()
    _, tr = trace(problem, np.array([-1.2]), controller, cfg)
    accepted = tr.accepted()
    assert all(r.residual_norm <= cfg.tol for r in accepted)
    ts = [r.t for r in accepted]
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))
    assert ts[-1] == 1.0
    assert not any(r.endpoint_jump for r in tr.records)


def test_trace_trivial_when_target_already_solved():
    # F(x0) = 0 already: the anchored problem equals the target problem
    root = np.array([ROOT])
    problem = global_homotopy(lambda x: cubic(x), lambda x: np.diag(cubic_prime(x)), root)
    controller = StepController(dt_init=1.0, dt_max=1.0)
    x, tr = trace(problem, root, controller, NewtonConfig())
    assert tr.n_attempts == 1
    assert tr.records[0].newton_iters == 0
    assert x == pytest.approx(root)


def test_predictor_orders_agree_on_final_point():
    # the same steps of 0.25, every one at the cap (from x) or below it
    # (from the tangent)
    results = []
    for dt_max in (0.25, 0.5):
        controller = StepController(dt_init=0.25, dt_max=dt_max, growth=1.0)
        x, _ = trace(cubic_problem(), np.array([-1.2]), controller, NewtonConfig())
        results.append(x[0])
    assert abs(results[0] - results[1]) <= 1e-8


def test_rejection_halves_step_exactly():
    problem = cubic_problem()
    # a two-iteration budget forces rejections until the step is small
    controller = StepController(dt_init=0.25, dt_max=0.25)
    _, tr = trace(problem, np.array([-1.2]), controller, NewtonConfig(max_iter=2))
    rejected = [r for r in tr.records if not r.accepted]
    assert rejected, "expected at least one rejection with a one-iteration budget"
    for rec in tr.records:
        assert rec.t <= 1.0
    # after each rejection the next attempt from the same base t halves the increment
    base_t = 0.0
    prev_attempt = None
    for rec in tr.records:
        attempt_dt = rec.t - base_t
        if prev_attempt is not None:
            assert attempt_dt == pytest.approx(0.5 * prev_attempt, rel=1e-12)
        if rec.accepted:
            base_t = rec.t
            prev_attempt = None
        else:
            prev_attempt = attempt_dt


def test_dt_never_exceeds_dt_max():
    problem = cubic_problem()
    controller = StepController(dt_init=0.1, dt_max=0.3)
    _, tr = trace(problem, np.array([-1.2]), controller, NewtonConfig())
    base_t = 0.0
    for rec in tr.records:
        assert rec.t - base_t <= 0.3 + 1e-12
        if rec.accepted:
            base_t = rec.t


def test_step_underflow_raises_with_trace():
    # corrector can never converge: residual is constantly 1
    problem = HomotopyProblem(
        residual=lambda x, t: np.array([1.0]) if t > 0 else np.array([0.0]),
        factor=lu_of(lambda x, t: np.array([[1.0]])),
        dh_dt=lambda x, t: np.array([0.0]),
    )
    controller = StepController(dt_init=0.25, dt_max=0.25, dt_min=1e-3)
    with pytest.raises(StepUnderflowError) as err:
        trace(problem, np.array([0.0]), controller, NewtonConfig(max_iter=3))
    assert err.value.trace.n_attempts >= 1
    assert all(not r.accepted for r in err.value.trace.records)


def test_repeated_rejected_proposal_is_replayed_not_rerun(caplog):
    # x = t solves every t < 1 in one Newton step; t = 1 has no root, so each
    # corrector there spends its whole budget.  Proposals clamped to 1 repeat
    # from the same accepted point until a shorter step is accepted.  The
    # log gives each rejection's Newton count, a replay's 0 included.
    factor_ts = []

    def factor(x, t):
        factor_ts.append(t)
        return pivoted_lu(np.array([[1.0]]))

    problem = HomotopyProblem(
        residual=lambda x, t: np.array([1.0]) if t == 1.0 else x - t,
        factor=factor,
        dh_dt=lambda x, t: np.array([-1.0]),
    )
    controller = StepController(dt_init=0.5, dt_max=4.0, growth=4.0, dt_min=0.1)
    caplog.set_level(logging.INFO, logger="homotopt.homotopy")
    with pytest.raises(StepUnderflowError) as err:
        trace(problem, np.array([0.0]), controller, NewtonConfig(max_iter=3))
    records = err.value.trace.records
    assert [r.t for r in records] == [0.5, 1.0, 1.0, 1.0, 0.75, 1.0, 1.0, 1.0,
                                      0.875, 1.0, 1.0, 1.0, 1.0]
    steps = [m for m in caplog.messages if m.startswith("step ")]
    assert steps[1].startswith("step 2 rejected (max_iter): t=1 newton=3 res=")
    assert steps[2].startswith("step 3 rejected (repeat): t=1 newton=0 res=")
    assert [r.reason for r in records] == ["", "max_iter", "repeat", "repeat"] * 3 \
        + ["max_iter"]
    # every step is below the cap, and the tangent of x = t is exact
    assert [r.newton_iters for r in records] == [0, 3, 0, 0] * 3 + [15]
    assert [r.endpoint_jump for r in records] == [False] * 12 + [True]
    for i, rec in enumerate(records):
        if rec.reason == "repeat":
            assert not rec.accepted
            assert rec.residual_norm == records[i - 1].residual_norm
    # three correctors at t = 1 run (3 factorizations each) plus the endpoint
    # jump (15); the six repeats add none, and each of the four accepted
    # points factors once for its tangent, which every corrector from it reuses
    assert factor_ts.count(1.0) == 3 * 3 + 15
    assert [t for t in factor_ts if t < 1.0] == [0.0, 0.5, 0.75, 0.875]


def test_endpoint_jump_is_marked_and_accepted():
    # every corrector for 0 < t < 1 fails; the problem at t = 1 is x = 1
    problem = HomotopyProblem(
        residual=lambda x, t: np.array([1.0]) if 0.0 < t < 1.0 else x - t,
        factor=lu_of(lambda x, t: np.array([[1.0]])),
        dh_dt=lambda x, t: np.array([-1.0]),
        mu_of_t=lambda t: 2.0 - t,
    )
    accepted_at = []
    controller = StepController(dt_init=0.25, dt_max=0.25, dt_min=0.1)
    x, tr = trace(problem, np.array([0.0]), controller, NewtonConfig(max_iter=3),
                  on_accept=lambda t, x: accepted_at.append(t))
    assert [r.t for r in tr.records] == [0.25, 0.125, 1.0]
    assert [r.index for r in tr.records] == [1, 2, 3]
    assert [r.endpoint_jump for r in tr.records] == [False, False, True]
    assert [r.accepted for r in tr.records] == [False, False, True]
    assert [r.mu for r in tr.records] == [1.75, 1.875, 1.0]
    assert accepted_at == [0.0, 1.0]
    assert x == pytest.approx([1.0], abs=1e-12)


def test_dt_min_matters_only_after_a_rejection():
    # dt_min above dt_init is a legal config; the jump still waits for a rejection
    runs = [trace(cubic_problem(), np.array([-1.2]),
                  StepController(dt_init=0.25, dt_max=0.25, dt_min=dt_min), NewtonConfig())[1]
            for dt_min in (1e-8, 0.5)]
    assert runs[0].records == runs[1].records


def test_trace_rejects_bad_start():
    problem = cubic_problem()
    with pytest.raises(ValueError):
        trace(problem, np.array([0.5]), StepController(), NewtonConfig())


def test_problem_without_dh_dt_starts_from_x_below_the_cap():
    f = cubic_problem()
    controller = StepController(dt_init=0.1)
    x, tr = trace(HomotopyProblem(f.residual, f.factor), np.array([-1.2]), controller,
                  NewtonConfig())
    assert x[0] == pytest.approx(ROOT, abs=1e-6)
    assert not any(r.predictor_fallback for r in tr.records)
    # the first step, below the cap, corrects from x itself
    first = newton_corrector(f, np.array([-1.2]), 0.1, NewtonConfig())
    assert tr.records[0].newton_iters == first.iters


def test_step_size_picks_the_predictor():
    # x = t solves every t < 1 and t = 1 has no root.  The tangent is read
    # once per accepted point that proposes a step below the cap (at t = 0,
    # 0.75 and 0.875), never at the cap (0.75 from 0.25, the first 1.0), by
    # a repeat or by the jump.  The second 1.0 from 0.75 starts from the
    # tangent, not from x as the rejected first did, so it runs its corrector;
    # the second 1.0 from 0.875 starts where the first did and is a repeat.
    dh_dt_ts = []

    def dh_dt(x, t):
        dh_dt_ts.append(t)
        return np.array([-1.0])

    problem = HomotopyProblem(
        residual=lambda x, t: np.array([1.0]) if t == 1.0 else x - t,
        factor=lu_of(lambda x, t: np.array([[1.0]])),
        dh_dt=dh_dt,
    )
    controller = StepController(dt_init=0.25, dt_max=0.5, growth=2.0, dt_min=0.1)
    with pytest.raises(StepUnderflowError) as err:
        trace(problem, np.array([0.0]), controller, NewtonConfig(max_iter=3))
    records = err.value.trace.records
    assert [r.t for r in records] == [0.25, 0.75, 1.0, 1.0, 0.875, 1.0, 1.0, 1.0]
    assert [r.reason for r in records] == ["", "", "max_iter", "max_iter", "",
                                           "max_iter", "repeat", "max_iter"]
    assert records[-1].endpoint_jump
    assert dh_dt_ts == [0.0, 0.75, 0.875]
    # the exact tangent lands on the curve; x at the cap needs one step
    assert [r.newton_iters for r in records[:2]] == [0, 1]
    assert records[3].newton_iters == 3
    assert records[4].newton_iters == 0


def test_controller_validation():
    with pytest.raises(ValueError):
        StepController(dt_init=0.5, dt_max=0.25)
    with pytest.raises(ValueError):
        StepController(shrink=1.5)
    with pytest.raises(ValueError):
        trace(cubic_problem(), np.array([-1.2]), StepController(), NewtonConfig(),
              checkpoints=(0.0,))


def test_newton_config_validation():
    for growth in (0.0, -1.0):
        with pytest.raises(ValueError, match="divergence_growth must be positive"):
            NewtonConfig(divergence_growth=growth)
    # at or below 1 every iterate must shrink the best residual so far: strict, but legal
    for growth in (0.5, 1.0):
        assert NewtonConfig(divergence_growth=growth).divergence_growth == growth


def test_pivoted_lu_solves_dense_and_sparse_alike():
    dense = np.array([[4.0, 1.0, 0.0],
                      [2.0, 0.0, 3.0],
                      [0.0, 5.0, 1.0]])  # a zero diagonal entry needs a row swap
    b = np.array([1.0, -2.0, 0.5])
    sparse = sp.csr_matrix(dense)
    solves = [pivoted_lu(jac) for jac in (dense, sparse)]
    assert [f.negative for f in solves] == [None, None]
    x = np.linalg.solve(dense, b)
    for f in solves:
        assert f.solve(b) == pytest.approx(x, rel=1e-14, abs=1e-14)
    with pytest.raises(SingularMatrixError):
        pivoted_lu(np.array([[1.0, 2.0], [2.0, 4.0]])).solve(np.ones(2))
