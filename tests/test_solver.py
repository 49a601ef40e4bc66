import numpy as np
import pytest
import scipy.sparse as sp

from homotopt import solver, sparse
from homotopt.barrier import BarrierSchedule
from homotopt.homotopy import StepController
from homotopt.io_cli import MeshConfig, NewtonSettings, SolverConfig
from homotopt.solver import KktPoint


def rel_err(approx, exact):
    return np.linalg.norm(np.asarray(approx) - np.asarray(exact)) \
        / max(np.linalg.norm(exact), 1e-30)


def small_config(**overrides):
    base = dict(mesh=MeshConfig(nx=20, ny=8, diagonal="mirrored"))
    base.update(overrides)
    return SolverConfig(**base)


def random_point(system, rng):
    return KktPoint(rho=rng.uniform(0.2, 0.8, system.n),
                    u=rng.standard_normal(system.l),
                    p_adj=rng.standard_normal(system.l),
                    z_a=rng.uniform(0.5, 2.0, system.n),
                    z_b=rng.uniform(0.5, 2.0, system.n))


def kkt_block(system, jac, row, col):
    """Block (row, col) of the assembled KKT matrix, as a dense array."""
    offsets = np.concatenate([[0], np.cumsum(system.sizes)])
    i, j = system.BLOCK_NAMES.index(row), system.BLOCK_NAMES.index(col)
    return jac.csr[offsets[i]:offsets[i + 1], offsets[j]:offsets[j + 1]].toarray()


def kkt_diagonal(system, jac, row, col):
    """Diagonal of a KKT block that must be diagonal."""
    block = kkt_block(system, jac, row, col)
    assert np.count_nonzero(block - np.diag(np.diag(block))) == 0
    return np.diag(block)


@pytest.fixture(scope="module")
def small_system():
    system, schedule = solver.build_system(small_config())
    return system, schedule


@pytest.fixture(scope="module")
def small_run():
    accepted = []

    def on_accept(t, point):
        accepted.append((t, point))

    point, trace = solver.run(small_config(), on_accept=on_accept)
    return point, trace, accepted


# --- initialization -----------------------------------------------------------

def test_initialize_duals_and_adjoint(small_system):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    assert np.all(point.z_a == 100.0)
    assert np.all(point.z_b == 100.0)
    assert np.linalg.norm(point.p_adj + point.u) <= 1e-10 * np.linalg.norm(point.u)
    assert anchor.shape == (system.n,)
    with pytest.raises(ValueError):
        system.initialize(50.0, rho0=1.5)


def test_anchor_is_read_only(small_system):
    system, _ = small_system
    _, anchor = system.initialize(50.0)
    before = anchor.copy()
    with pytest.raises(ValueError):
        anchor[0] = 1.0
    with pytest.raises(ValueError):
        anchor += 1.0
    assert np.array_equal(anchor, before)


def test_residual_zero_at_start(small_system):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    r = system.residual(point, anchor, 0.0, schedule)
    assert np.linalg.norm(r) <= 1e-10


def test_residual_at_t1_equals_unanchored_system(small_system, rng):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    # also at a random perturbed point, anchored and unanchored must agree at t=1
    for pt in (point, KktPoint(rho=rng.uniform(0.2, 0.8, system.n),
                               u=rng.standard_normal(system.l),
                               p_adj=rng.standard_normal(system.l),
                               z_a=rng.uniform(0.5, 2.0, system.n),
                               z_b=rng.uniform(0.5, 2.0, system.n))):
        r_hom = system.residual(pt, anchor, 1.0, schedule)
        r_box = system.f_box(pt, schedule.mu(1.0))
        assert np.max(np.abs(r_hom - r_box)) <= 1e-14


def test_residual_is_f_box_minus_anchor_term(small_system, rng):
    system, schedule = small_system
    _, anchor = system.initialize(50.0)
    pt = random_point(system, rng)
    n = system.n
    for t in (0.0, 0.5, 1.0):
        r_box = system.f_box(pt, schedule.mu(t))
        expected = np.concatenate([r_box[:n] - (1.0 - t) * anchor, r_box[n:]])
        assert np.array_equal(system.residual(pt, anchor, t, schedule), expected)


def test_h_t_values_and_t_independence(small_system):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    ht1 = system.h_t(anchor, 0.2, schedule)
    ht2 = system.h_t(anchor, 0.7, schedule)
    assert np.array_equal(ht1, ht2)  # affine schedule
    n, l = system.n, system.l
    assert ht1[:n] == pytest.approx(anchor)
    assert np.all(ht1[n:n + 2 * l] == 0.0)
    # d(mu)/dt = mu_inf - mu0 = -49.999, so the complementarity rows carry +49.999
    assert np.all(ht1[n + 2 * l:] == pytest.approx(49.999))


def test_h_t_matches_fd_in_t(small_system, rng):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    pt = KktPoint(rho=rng.uniform(0.2, 0.8, system.n),
                  u=rng.standard_normal(system.l),
                  p_adj=rng.standard_normal(system.l),
                  z_a=rng.uniform(0.5, 2.0, system.n),
                  z_b=rng.uniform(0.5, 2.0, system.n))
    h = 1e-6
    for t in (0.25, 0.8):
        fd = (system.residual(pt, anchor, t + h, schedule)
              - system.residual(pt, anchor, t - h, schedule)) / (2 * h)
        assert rel_err(fd, system.h_t(anchor, t, schedule)) <= 1e-8


def test_jacobian_matches_fd_of_residual(small_system, rng):
    system, schedule = small_system
    point, anchor = system.initialize(50.0)
    pt = KktPoint(rho=rng.uniform(0.3, 0.7, system.n),
                  u=rng.standard_normal(system.l),
                  p_adj=rng.standard_normal(system.l),
                  z_a=rng.uniform(0.5, 2.0, system.n),
                  z_b=rng.uniform(0.5, 2.0, system.n))
    jac = system.jacobian(pt)
    v = pt.pack()
    h = 1e-6
    t = 0.6
    for _ in range(5):
        direction = rng.standard_normal(v.size)
        direction /= np.linalg.norm(direction)
        rp = system.residual(system.unpack(v + h * direction), anchor, t, schedule)
        rm = system.residual(system.unpack(v - h * direction), anchor, t, schedule)
        assert rel_err((rp - rm) / (2 * h), jac.matvec(direction)) <= 1e-5


def test_jacobian_coupling_blocks_vanish_at_zero_fields(small_system):
    system, schedule = small_system
    pt = KktPoint(rho=np.full(system.n, 0.4),
                  u=np.zeros(system.l),
                  p_adj=np.zeros(system.l),
                  z_a=np.ones(system.n),
                  z_b=np.ones(system.n))
    jac = system.jacobian(pt)
    assert np.max(np.abs(kkt_block(system, jac, "rho", "u"))) == 0.0
    assert np.max(np.abs(kkt_block(system, jac, "rho", "p"))) == 0.0


def test_jacobian_barrier_rows(small_system):
    system, schedule = small_system
    pt = KktPoint(rho=np.full(system.n, 0.3),
                  u=np.zeros(system.l),
                  p_adj=np.zeros(system.l),
                  z_a=np.full(system.n, 2.0),
                  z_b=np.full(system.n, 5.0))
    jac = system.jacobian(pt)
    assert np.all(kkt_diagonal(system, jac, "z_a", "rho") == 2.0)
    assert np.all(kkt_diagonal(system, jac, "z_a", "z_a") == pytest.approx(0.3))
    assert np.all(kkt_diagonal(system, jac, "z_b", "rho") == -5.0)
    assert np.all(kkt_diagonal(system, jac, "z_b", "z_b") == pytest.approx(0.7))
    assert np.all(kkt_diagonal(system, jac, "rho", "z_a") == -1.0)
    assert np.all(kkt_diagonal(system, jac, "rho", "z_b") == 1.0)


def test_jacobian_bit_identical_to_block_assembly(small_system, rng):
    # independent reference: scipy's bmat of the 13 blocks
    system, _ = small_system
    eye = sp.identity(system.n, format="csr")
    for _ in range(3):
        pt = random_point(system, rng)
        h = system.lagr.hessian(pt.rho, pt.u, pt.p_adj)
        rr, ru, rp, up = h.rr.csr, h.ru.csr, h.rp.csr, h.up.csr
        want = sp.bmat([
            [rr, ru, rp, -eye, eye],
            [ru.T, None, up, None, None],
            [rp.T, up, None, None, None],
            [sp.diags(pt.z_a), None, None, sp.diags(system.box.lower_gap(pt.rho)), None],
            [sp.diags(-pt.z_b), None, None, None, sp.diags(system.box.upper_gap(pt.rho))],
        ], format="csr")
        want.sort_indices()
        got = system.jacobian(pt).csr
        assert got.shape == want.shape
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


def test_one_solve_sorts_the_kkt_layout_once(monkeypatch):
    # every Jacobian after the first refills the KKT pattern built at the first
    system, _ = solver.build_system(small_config())
    kkt_patterns = []

    class CountingPattern(sparse.SparsityPattern):
        def __init__(self, nrows, ncols, *args, **kwargs):
            super().__init__(nrows, ncols, *args, **kwargs)
            if (nrows, ncols) == (system.dim, system.dim):
                kkt_patterns.append(self)

    jacobians = []
    jacobian = solver.KktSystem.jacobian

    def counted_jacobian(self, point):
        jacobians.append(point)
        return jacobian(self, point)

    monkeypatch.setattr(sparse, "SparsityPattern", CountingPattern)
    monkeypatch.setattr(solver.KktSystem, "jacobian", counted_jacobian)
    _, trace = solver.run(small_config())
    assert trace.accepted()[-1].t == 1.0
    assert len(jacobians) >= 10
    assert len(kkt_patterns) == 1


def test_pack_unpack_roundtrip(small_system, rng):
    system, _ = small_system
    v = rng.standard_normal(system.dim)
    assert np.array_equal(system.unpack(v).pack(), v)


# --- end-to-end on the small mesh ----------------------------------------------

def test_run_terminates_at_t1(small_run):
    point, trace, accepted = small_run
    assert trace.accepted()[-1].t == 1.0
    assert accepted[0][0] == 0.0
    assert accepted[-1][0] == 1.0


def test_run_final_point_properties(small_run, small_system):
    point, trace, _ = small_run
    system, schedule = small_system
    assert np.all(point.rho > 0.0) and np.all(point.rho < 1.0)
    assert np.all(point.z_a > 0.0) and np.all(point.z_b > 0.0)
    mu_inf = schedule.mu(1.0)
    tol = 1e-8 * np.sqrt(system.dim)
    assert np.max(np.abs(point.z_a * point.rho - mu_inf)) <= 10 * tol
    assert np.max(np.abs(point.z_b * (1.0 - point.rho) - mu_inf)) <= 10 * tol
    assert np.linalg.norm(system.f_box(point, mu_inf)) <= tol


def test_run_complementarity_tracks_schedule(small_run, small_system):
    _, trace, accepted = small_run
    system, schedule = small_system
    tol = 1e-8 * np.sqrt(system.dim)
    for t, point in accepted[1:]:
        mu = schedule.mu(t)
        assert np.max(np.abs(point.z_a * point.rho - mu)) <= tol
        assert np.max(np.abs(point.z_b * (1.0 - point.rho) - mu)) <= tol


def test_run_adjoint_consistency_along_path(small_run):
    _, _, accepted = small_run
    for t, point in accepted:
        scale = max(1.0, np.linalg.norm(point.u))
        assert np.linalg.norm(point.p_adj + point.u) <= 1e-6 * scale


def test_run_objective_decreases(small_run, small_system):
    point, _, accepted = small_run
    system, _ = small_system
    j0 = system.lagr.objective(accepted[0][1].rho, accepted[0][1].u)
    j1 = system.lagr.objective(point.rho, point.u)
    assert j1 < j0


def test_run_density_symmetric(small_run, small_system):
    point, _, _ = small_run
    system, _ = small_system
    msh = system.lagr.mesh
    index = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(msh.vertices)}
    defect = 0.0
    for i, (x, y) in enumerate(msh.vertices):
        j = index[(round(2.4 - x, 9), round(y, 9))]
        defect = max(defect, abs(point.rho[i] - point.rho[j]))
    assert defect <= 1e-3


def test_large_first_step_forces_rejection_and_halving():
    # plain full-step corrector (no step damping); mu_inf is kept above the
    # branch fold so the run can finish on the principal branch
    cfg = small_config(stepping=StepController(dt_init=0.9, dt_max=0.9),
                       barrier=BarrierSchedule(mu0=50.0, mu_inf=0.05),
                       newton=NewtonSettings(damping=0.0))
    point, trace = solver.run(cfg)
    rejected = [r for r in trace.records if not r.accepted]
    assert rejected, "expected the oversized step to force a rejection"
    assert any(r.reason == "invalid_iterate" for r in rejected)
    # the increment halves exactly after each rejection; visible in the t
    # column once proposals stop clamping at 1
    base_t = 0.0
    prev_dt = None
    seen_halving = False
    for rec in trace.records:
        dt = rec.t - base_t
        if prev_dt is not None and rec.t < 1.0:
            assert dt == pytest.approx(0.5 * prev_dt, rel=1e-12)
            seen_halving = True
        if rec.accepted:
            base_t = rec.t
            prev_dt = None
        else:
            prev_dt = dt if rec.t < 1.0 else None
    assert seen_halving
    assert trace.accepted()[-1].t == 1.0


def test_fold_run_ends_non_decreasing_correctors_early():
    # the 40x12 curve folds near t = 0.9995; correctors past it whose full
    # steps raise the residual stop there instead of spending max_iter
    point, trace = solver.run(SolverConfig(mesh=MeshConfig(nx=40, ny=12)))
    assert (trace.n_accepted, trace.n_attempts) == (18, 51)
    assert sum(r.newton_iters for r in trace.records) == 373
    assert sum(r.reason == "no_decrease" for r in trace.records) == 18
    assert [r.endpoint_jump for r in trace.records] == [False] * 50 + [True]
    system, _ = solver.build_system(SolverConfig(mesh=MeshConfig(nx=40, ny=12)))
    assert system.lagr.objective(point.rho, point.u) == 8.659454211573301


def test_one_config_runs_twice_to_the_same_trace():
    # the config's step controller is shared by both runs and carries no
    # state; these settings make the step both grow and shrink within a run
    cfg = small_config(stepping=StepController(dt_init=0.1, dt_max=0.5))
    _, first = solver.run(cfg)
    _, second = solver.run(cfg)
    assert first.records == second.records
    assert any(not r.accepted for r in first.records)


def test_first_order_predictor_completes():
    _, tr = solver.run(small_config(predictor_order=1))
    assert tr.accepted()[-1].t == 1.0


def test_geometric_schedule_completes():
    cfg = small_config(barrier=BarrierSchedule(schedule="geometric"))
    point, tr = solver.run(cfg)
    assert tr.accepted()[-1].t == 1.0
    assert np.all(point.rho > 0) and np.all(point.rho < 1)


def test_param_history_first_row_values(small_run):
    _, trace, _ = small_run
    first = trace.records[0]
    assert first.t == pytest.approx(0.25)
    assert first.mu == pytest.approx(0.25 * 1e-3 + 0.75 * 50.0)
    ts = [r.t for r in trace.accepted()]
    assert all(t1 > t0 for t0, t1 in zip(ts, ts[1:]))
