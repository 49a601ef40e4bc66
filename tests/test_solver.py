from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from homotopt import homotopy, solver, sparse
from homotopt.barrier import BarrierSchedule
from homotopt.homotopy import NewtonConfig, StepController
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


def mirror_map(system):
    """The reflection x -> 2.4 - x on M's (drho, w) coordinates, found from
    the vertex coordinates: ``(T v)[i] = sign[i] * v[image[i]]``."""
    msh, disp = system.lagr.mesh, system.lagr.dofmap.disp_index
    index = {(round(x, 9), round(y, 9)): i for i, (x, y) in enumerate(msh.vertices)}
    mirror = np.array([index[round(2.4 - x, 9), round(y, 9)] for x, y in msh.vertices])
    n, l = system.n, system.l
    image, sign = np.concatenate([mirror, np.zeros(l, dtype=np.int64)]), np.ones(n + l)
    for v, d in zip(*np.nonzero(disp >= 0)):
        image[n + disp[v, d]] = n + disp[mirror[v], d]
        sign[n + disp[v, d]] = -1.0 if d == 0 else 1.0
    return image, sign


def dense_basis(q):
    """The subspace basis ``q`` as a dense matrix."""
    dense = np.zeros((q.dim, q.size))
    rows = np.flatnonzero(q.column >= 0)
    dense[rows, q.column[rows]] = q.weight[rows]
    return dense


def kept_order(system):
    """The order M_s's first factorization kept, read from its permuted
    basis: position in the permuted M_s -> index in M_s."""
    basis = system._symmetric
    permuted = system._blocks._kept[basis][0]
    rows = basis.column >= 0
    order = np.empty(basis.size, dtype=np.int64)
    order[permuted.column[rows]] = basis.column[rows]
    return order


def recorded_splu(monkeypatch):
    """Every matrix handed to SuperLU from now on, and its permc_spec."""
    calls = []
    splu = sparse.spla.splu

    def record(a, **kwargs):
        calls.append((a, kwargs.get("permc_spec")))
        return splu(a, **kwargs)

    monkeypatch.setattr(sparse, "spla", type("spla", (), {"splu": staticmethod(record)}))
    return calls


def m_block(system, m, row, col):
    """Block (row, col) of M in (drho, w), "rho" or "u", as a dense array."""
    cut = {"rho": slice(0, system.n), "u": slice(system.n, system.n + system.l)}
    return m[cut[row], cut[col]].toarray()


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
    assert np.array_equal(point.p_adj, -point.u)
    assert anchor.shape == (system.n,)


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
    # rows: rho, adjoint (u), z_a, z_b, state
    assert ht1.shape == (system.dim,)
    assert ht1[:n] == pytest.approx(anchor)
    assert np.all(ht1[n:n + l] == 0.0)
    # d(mu)/dt = mu_inf - mu0 = -49.999, so the complementarity rows carry +49.999
    assert np.all(ht1[n + l:3 * n + l] == pytest.approx(49.999))
    assert np.all(ht1[3 * n + l:] == 0.0)


def test_h_t_matches_fd_in_t(small_system, rng):
    system, linear = small_system
    point, anchor = system.initialize(50.0)
    pt = KktPoint(rho=rng.uniform(0.2, 0.8, system.n),
                  u=rng.standard_normal(system.l),
                  p_adj=rng.standard_normal(system.l),
                  z_a=rng.uniform(0.5, 2.0, system.n),
                  z_b=rng.uniform(0.5, 2.0, system.n))
    h = 1e-6
    # the geometric schedule's dmu_dt is read by the tangent of a geometric run
    for schedule in (linear, replace(linear, schedule="geometric")):
        for t in (0.25, 0.8):
            fd = (system.residual(pt, anchor, t + h, schedule)
                  - system.residual(pt, anchor, t - h, schedule)) / (2 * h)
            assert rel_err(fd, system.h_t(anchor, t, schedule)) <= 1e-8


def test_jacobian_matches_fd_of_residual(small_system, rng):
    # M y, y = (drho, w), is the residual's derivative on the rho and u rows
    # along the condensed step (drho, w/2, -w/2, -z_a drho/gap_a, z_b drho/gap_b)
    # in (rho, u, p, z_a, z_b) at a point with p = -u; the step keeps the
    # complementarity rows fixed to first order
    system, schedule = small_system
    n, l = system.n, system.l
    point, anchor = system.initialize(50.0)
    u = rng.standard_normal(l)
    pt = KktPoint(rho=rng.uniform(0.3, 0.7, n), u=u, p_adj=-u,
                  z_a=rng.uniform(0.5, 2.0, n), z_b=rng.uniform(0.5, 2.0, n))
    m = system.jacobian(pt)
    assert m.shape == (n + l,) * 2
    gap_a, gap_b = system.box.lower_gap(pt.rho), system.box.upper_gap(pt.rho)
    h = 1e-6
    t = 0.6
    for _ in range(5):
        y = rng.standard_normal(n + l)
        y /= np.linalg.norm(y)
        d_rho, w = y[:n], y[n:]
        d = KktPoint(d_rho, w / 2, -w / 2, -pt.z_a * d_rho / gap_a, pt.z_b * d_rho / gap_b)
        moved = [KktPoint(*(x + s * dx for x, dx in zip(vars(pt).values(), vars(d).values())))
                 for s in (h, -h)]
        assert all(np.array_equal(x.p_adj, -x.u) for x in moved)
        rp, rm = (system.residual(x, anchor, t, schedule) for x in moved)
        fd = (rp - rm) / (2 * h)
        assert rel_err(fd[:n + l], m @ y) <= 1e-5
        assert np.linalg.norm(fd[n + l:3 * n + l]) <= 1e-8


def test_jacobian_coupling_blocks_vanish_at_zero_fields(small_system):
    system, schedule = small_system
    pt = KktPoint(rho=np.full(system.n, 0.4),
                  u=np.zeros(system.l),
                  p_adj=np.zeros(system.l),
                  z_a=np.ones(system.n),
                  z_b=np.ones(system.n))
    m = system.jacobian(pt)
    assert m.shape == (system.n + system.l,) * 2
    assert np.max(np.abs(m_block(system, m, "rho", "u"))) == 0.0
    assert np.max(np.abs(m_block(system, m, "u", "rho"))) == 0.0
    assert np.max(np.abs(m_block(system, m, "u", "u"))) > 0.0


def test_jacobian_barrier_rows(small_system):
    # M's rho block is rr with Sigma = z_a/gap_a + z_b/gap_b on its
    # diagonal, by hand 2/0.3 + 5/0.7 here; its u block is -K/2
    system, schedule = small_system
    pt = KktPoint(rho=np.full(system.n, 0.3),
                  u=np.zeros(system.l),
                  p_adj=np.zeros(system.l),
                  z_a=np.full(system.n, 2.0),
                  z_b=np.full(system.n, 5.0))
    m = system.jacobian(pt)
    h = system.lagr.hessian(pt.rho, pt.u, pt.p_adj)
    shift = m_block(system, m, "rho", "rho") - h.rr.toarray()
    assert np.count_nonzero(shift - np.diag(np.diag(shift))) == 0
    assert np.diag(shift) == pytest.approx(np.full(system.n, 2.0 / 0.3 + 5.0 / 0.7),
                                           rel=1e-14)
    assert np.array_equal(m_block(system, m, "u", "u"), -0.5 * h.up.toarray())


def test_density_pattern_without_its_diagonal_is_refused(small_system):
    # Sigma goes onto rr's diagonal, so the pattern rr is refilled on must hold it
    system, _ = small_system
    n = system.n
    ring = sparse.SparsityPattern(n, n, np.arange(n), np.roll(np.arange(n), 1))
    lagr = SimpleNamespace(n_density=n, n_disp=system.l,
                           dofmap=SimpleNamespace(geometry=SimpleNamespace(pattern=ring)))
    with pytest.raises(ValueError, match="lacks diagonal"):
        solver.KktSystem(lagr, system.box)


def test_reduced_matrix_bit_identical_to_bmat(small_system, rng):
    # M is refilled on the layout its first call fixed; scipy's bmat of its
    # four blocks, built afresh, is the independent reference
    system, _ = small_system
    for _ in range(3):
        pt = random_point(system, rng)
        pt.p_adj = -pt.u
        h = system.lagr.hessian(pt.rho, pt.u, pt.p_adj)
        rr, ru, up = h.rr, h.ru, h.up
        sigma = pt.z_a / system.box.lower_gap(pt.rho) + pt.z_b / system.box.upper_gap(pt.rho)
        want = sp.bmat([[rr + sp.diags(sigma), ru], [ru.T, -up / 2]], format="csr")
        want.sort_indices()
        want.data += 0.0  # M stores K's exact zeros as +0.0, as the sums of M_s do
        got = system.jacobian(pt)
        assert got.shape == want.shape == (system.n + system.l,) * 2
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()


@pytest.mark.parametrize("diagonal", ["mirrored", "right"])
def test_source_operator_bit_identical_to_bmat(diagonal):
    # the operator from z = [rr's element values, 1, Sigma, ru's element
    # values, K's data] to the blocks' data, against scipy's bmat of its blocks
    system, _ = solver.build_system(small_config(mesh=MeshConfig(nx=20, ny=8, diagonal=diagonal)))
    lagr, n = system.lagr, system.n
    rr = lagr.dofmap.geometry.pattern.summation
    sigma = sp.csr_matrix((np.ones(n), (system._rr_diagonal, np.arange(n))),
                          shape=(rr.shape[0], n))
    k = sp.diags(np.full(lagr.dofmap.state_pattern.indices.size, -0.5))
    want = sp.bmat([[rr, sp.csr_matrix(lagr.rr_const[:, None]), sigma, None, None],
                    [None, None, None, lagr.cross_pattern.summation, None],
                    [None, None, None, None, k]], format="csr")
    got = system._source()
    for m in (got, want):
        m.sort_indices()
    assert got.shape == want.shape
    assert np.array_equal(got.indptr, want.indptr)
    assert np.array_equal(got.indices, want.indices)
    assert got.data.tobytes() == want.data.tobytes()


def test_one_solve_sorts_the_kkt_layout_once(monkeypatch):
    # one solve sorts three layouts, each once: density and the symmetric
    # and antisymmetric blocks of the reduced (rho, u) matrix M; K(rho)'s
    # and the coupling's are expanded from the density layout, and M itself
    # is never assembled, so its layout is not sorted
    system, _ = solver.build_system(small_config())
    patterns = []
    init = sparse.SparsityPattern.__init__

    def counted_init(self, nrows, ncols, *args, **kwargs):
        init(self, nrows, ncols, *args, **kwargs)
        patterns.append((nrows, ncols))

    matrices = []
    jacobian = solver.KktSystem.jacobian

    def counted_jacobian(self, point):
        matrices.append(point)
        return jacobian(self, point)

    monkeypatch.setattr(sparse.SparsityPattern, "__init__", counted_init)
    monkeypatch.setattr(solver.KktSystem, "jacobian", counted_jacobian)
    _, trace = solver.run(small_config())
    assert trace.accepted()[-1].t == 1.0
    assert matrices == []
    n, l = system.n, system.l
    (q_s, _), (q_a, _) = solver.mirror_subspaces(system.lagr.dofmap)
    k_s, k_a = q_s.size, q_a.size
    assert k_s + k_a == n + l
    # M_s's layout, and M_a's for the one factorization at the final point
    assert sorted(patterns) == sorted([(n, n), (k_s, k_s), (k_a, k_a)])


def test_newton_loop_builds_no_hessian_or_kkt_matrix(monkeypatch):
    # a 20x8 solve fills every M_s, and M_a at the final point, from
    # element values: it builds no rr, ru or M matrix
    calls = []
    for owner, name in ((solver.Lagrangian, "hessian"), (sparse.BlockSystem, "assemble"),
                        (solver.KktSystem, "jacobian")):
        def counted(*args, name=name, method=getattr(owner, name)):
            calls.append(name)
            return method(*args)

        monkeypatch.setattr(owner, name, counted)
    point, trace = solver.run(small_config())
    assert sum(r.newton_iters for r in trace.records) == 25
    assert trace.final_negative == (8, 8)
    assert calls == []


def test_operator_fills_m_s_as_the_congruence_of_m(rng, monkeypatch):
    # at the initial point and at random mirror-symmetric 20x8 points, the
    # M_s that the run's operator fills from element values is Q_s^T M Q_s,
    # permuted on the order of the first factorization after it
    system, _ = solver.build_system(small_config())
    (q_s, _), _ = solver.mirror_subspaces(system.lagr.dofmap)
    qs = dense_basis(q_s)
    mirror = system.lagr.mesh.mirror
    factored = recorded_splu(monkeypatch)
    points = [system.initialize(50.0)[0]]
    for _ in range(3):
        point = random_point(system, rng)
        point.p_adj = -point.u
        for name in ("rho", "z_a", "z_b"):
            v = getattr(point, name)
            setattr(point, name, 0.5 * (v + v[mirror]))
        points.append(point)
    for i, point in enumerate(points):
        system.factor(point)
        want = qs.T @ system.jacobian(point).toarray() @ qs
        if i > 0:
            want = want[np.ix_(kept_order(system), kept_order(system))]
        got = factored[-1][0].toarray()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    # the initial state solve, then M_s ordered once and refilled three times
    assert [spec for _, spec in factored] == [None, "MMD_AT_PLUS_A"] + ["NATURAL"] * 3


def test_final_m_a_is_the_congruence_of_m(small_run, monkeypatch):
    # the M_a that the final point's class count factors is Q_a^T M Q_a
    point, _, _ = small_run
    system, _ = solver.build_system(small_config())
    _, (q_a, _) = solver.mirror_subspaces(system.lagr.dofmap)
    qa = dense_basis(q_a)
    factored = recorded_splu(monkeypatch)
    assert system.negative_by_class(point) == (8, 8)
    assert [spec for _, spec in factored] == ["MMD_AT_PLUS_A"] * 2  # M_s ordered, then M_a
    m = system.jacobian(point).toarray()
    got = factored[-1][0].toarray()
    assert got.shape == (q_a.size,) * 2
    assert np.abs(got - qa.T @ m @ qa).max() <= 1e-14 * np.abs(m).max()


def test_final_m_a_order_is_kept(small_run, monkeypatch):
    # a second class count at the final point refills M_a on the order its
    # first one kept, as M_s is refilled
    point, _, _ = small_run
    system, _ = solver.build_system(small_config())
    assert system.negative_by_class(point) == (8, 8)
    factored = recorded_splu(monkeypatch)
    assert system.negative_by_class(point) == (8, 8)
    assert [spec for _, spec in factored] == ["NATURAL", "NATURAL"]


def lexsorted_layout(blocks, basis):
    """The CSC layout of the permuted Q^T M Q that ``blocks`` keeps for
    ``basis``, and its operator, sorted by column, then row, from the
    entries' permuted coordinates."""
    permuted = blocks._kept[basis][0]
    rows = basis.column >= 0
    perm_c = np.empty(basis.size, dtype=np.int64)
    perm_c[basis.column[rows]] = permuted.column[rows]
    pattern, operator = blocks._restricted(basis)
    row = perm_c[np.repeat(np.arange(basis.size), np.diff(pattern.indptr))]
    col = perm_c[pattern.indices]
    entries = np.lexsort((row, col))
    indptr = np.concatenate([[0], np.cumsum(np.bincount(col, minlength=basis.size))])
    return row[entries], indptr, operator[entries]


@pytest.mark.parametrize("nx, ny, diagonal", [(20, 8, "mirrored"), (40, 12, "mirrored"),
                                              (40, 12, "right")])
def test_kept_csc_layouts_equal_the_lexsorted_ones(nx, ny, diagonal):
    # the kept CSC order of M_s, and of M_a where the mesh has a mirror, is
    # the one sorted by column, then row, from the permuted coordinates
    system, _ = solver.build_system(small_config(mesh=MeshConfig(nx=nx, ny=ny,
                                                                 diagonal=diagonal)))
    point, _ = system.initialize(50.0)
    bases = [system._symmetric]
    if system._antisymmetric is not None:
        bases.append(system._antisymmetric[0])
        assert system.negative_by_class(point) is not None
    else:
        system.factor(point)
    for basis in bases:
        _, operator, indices, indptr = system._blocks._kept[basis]
        want_indices, want_indptr, want = lexsorted_layout(system._blocks, basis)
        assert np.array_equal(indices, want_indices)
        assert np.array_equal(indptr, want_indptr)
        for name in ("indptr", "indices", "data"):
            assert getattr(operator, name).tobytes() == getattr(want, name).tobytes()


def test_one_solve_transposes_no_matrix(monkeypatch):
    # the KKT block system places ru^T from ru's own values
    calls = []
    transpose = sp.csr_matrix.transpose

    def counted_transpose(self, *args, **kwargs):
        calls.append(self.shape)
        return transpose(self, *args, **kwargs)

    monkeypatch.setattr(sp.csr_matrix, "transpose", counted_transpose)
    _, trace = solver.run(small_config())
    assert trace.accepted()[-1].t == 1.0
    assert calls == []


def test_one_hessian_builds_one_coupling_block(monkeypatch):
    # the rho-p block is ru at swapped fields, so the Hessian's element
    # values hold ru's only
    calls = {"elements": 0, "coupling": 0}
    elements = solver.Lagrangian.hessian_elements
    coupling = solver.Lagrangian._coupling_cross

    def counted_elements(self, *args):
        calls["elements"] += 1
        return elements(self, *args)

    def counted_coupling(self, *args):
        calls["coupling"] += 1
        return coupling(self, *args)

    monkeypatch.setattr(solver.Lagrangian, "hessian_elements", counted_elements)
    monkeypatch.setattr(solver.Lagrangian, "_coupling_cross", counted_coupling)
    _, trace = solver.run(small_config())
    assert trace.accepted()[-1].t == 1.0
    assert calls["elements"] > 0
    assert calls["coupling"] == calls["elements"]


def test_pack_unpack_roundtrip(small_system, rng):
    system, _ = small_system
    v = rng.standard_normal(system.dim - system.l)
    point = system.unpack(v)
    assert np.array_equal(point.pack(), v)
    for block in (point.rho, point.u, point.z_a, point.z_b):
        assert np.shares_memory(block, v)
    assert np.array_equal(point.p_adj, -point.u)
    assert not np.shares_memory(point.p_adj, v)


def test_residual_length_vector_is_not_a_point(small_system, small_run):
    # the traced unknown has dim - l entries, the residual dim
    system, _ = small_system
    expected = f"length {system.dim - system.l}"
    with pytest.raises(ValueError, match=expected):
        system.unpack(np.ones(system.dim))
    factor = system.factor(small_run[0])
    with pytest.raises(ValueError, match=expected):
        factor.solve(np.ones(system.dim))


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


def test_run_keeps_adjoint_bitwise_minus_state(small_run):
    # the condensed Newton step relies on p == -u; every accepted point keeps it
    _, _, accepted = small_run
    assert len(accepted) == 5
    for _, point in accepted:
        assert np.array_equal(point.p_adj, -point.u)


def test_condensed_step_equals_full_kkt_solve(small_run, small_system):
    # at accepted points, the Newton and tangent steps are the (rho, u, z_a,
    # z_b) blocks of the 5-block KKT solution (scipy bmat and spsolve), rows
    # and columns in the residual's order, of the right-hand side less its
    # antisymmetric part, and its p block is -du; the part dropped is
    # rounding (1.7e-5 of the converged residual's norm 1.5e-9 at t = 1)
    _, _, accepted = small_run
    system, schedule = small_system
    _, anchor = system.initialize(schedule.mu0)
    problem = system.homotopy_problem(anchor, schedule, damping=0.995)
    eye = sp.identity(system.n, format="csr")
    n, l = system.n, system.l
    image, sign = mirror_map(system)
    # the mirror on the residual's rows (rho, u, z_a, z_b, p)
    full_image = np.concatenate([image, image[:n] + n + l, image[:n] + 2 * n + l,
                                 image[n:] + 2 * n + l])
    full_sign = np.concatenate([sign, np.ones(2 * n), sign[n:]])
    for t, point in accepted:
        h = system.lagr.hessian(point.rho, point.u, point.p_adj)
        rp = system.lagr.hessian(point.rho, point.p_adj, point.u).ru  # d2L/drho dp
        rr, ru, up = h.rr, h.ru, h.up
        full = sp.bmat([
            [rr, ru, -eye, eye, rp],
            [ru.T, None, None, None, up],
            [sp.diags(point.z_a), None, sp.diags(system.box.lower_gap(point.rho)), None, None],
            [sp.diags(-point.z_b), None, None, sp.diags(system.box.upper_gap(point.rho)), None],
            [rp.T, up, None, None, None],
        ], format="csc")
        v = point.pack()
        m = system.dim - system.l
        t_next = min(t + 0.25, 1.0)
        for rhs in (-system.residual(point, anchor, t_next, schedule),
                    -system.h_t(anchor, t, schedule)):
            step = problem.factor(v, t_next).solve(rhs[:m])
            symmetric = 0.5 * (rhs + full_sign * rhs[full_image])
            assert np.linalg.norm(rhs - symmetric) <= 1e-4 * np.linalg.norm(rhs)
            reference = spla.spsolve(full, symmetric)
            assert rel_err(step, reference[:m]) <= 1e-10
            assert rel_err(reference[m:], -system.unpack(step).u) <= 1e-10


def test_negative_pivots_count_the_reduced_hessian_inertia(small_run):
    # M_s's inertia is the symmetric class of the reduced Hessian's plus l_s
    # negative eigenvalues, M_a's the antisymmetric class's plus l_a: S > 0
    # on the traced points before t = 1, 8 + 8 negatives at the final saddle
    point, trace, accepted = small_run
    system, _ = solver.build_system(small_config())  # ordered at t = 0, reused after it
    (q_s, l_s), (q_a, l_a) = solver.mirror_subspaces(system.lagr.dofmap)
    qs, qa = dense_basis(q_s), dense_basis(q_a)
    counts = []
    for t, point in accepted:
        dense = system.jacobian(point).toarray()
        assert np.abs(dense - dense.T).max() <= 1e-14 * np.abs(dense).max()
        negative = [int(np.count_nonzero(np.linalg.eigvalsh(q.T @ dense @ q) < 0.0)) - l_q
                    for q, l_q in ((qs, l_s), (qa, l_a))]
        assert system.factor(point).negative == negative[0]
        assert system.negative_by_class(point) == tuple(negative)
        counts.append((t, *negative))
    assert counts == [(0.0, 0, 0), (0.25, 0, 0), (0.5, 0, 0), (0.75, 0, 0), (1.0, 8, 8)]
    assert trace.final_negative == (8, 8)


def test_refused_symmetric_factorization_is_a_singular_jacobian(
        small_run, small_system, monkeypatch):
    # a refused diagonal pivot is a singular Jacobian: the corrector stops
    # `singular`, and the tangent is None, which the tracer records as a
    # predictor fallback
    _, _, accepted = small_run
    system, schedule = small_system
    _, anchor = system.initialize(schedule.mu0)
    problem = system.homotopy_problem(anchor, schedule, damping=0.995)
    t, point = accepted[2]
    v = point.pack()

    def refuse(self, *args, **kwargs):
        raise sparse.SingularMatrixError("a pivot left the diagonal")

    monkeypatch.setattr(sparse.BlockSystem, "factor", refuse)
    with pytest.raises(sparse.SingularMatrixError, match="left the diagonal"):
        problem.factor(v, t + 0.25)
    result = homotopy.newton_corrector(problem, v, t + 0.25, NewtonConfig())
    assert (result.converged, result.reason, result.iters) == (False, "singular", 0)
    assert np.array_equal(result.x, v)
    assert homotopy._tangent_direction(problem, v, t) is None


def test_run_orders_the_reduced_matrix_once(monkeypatch):
    # the first factorization orders M_s (MMD on A^T + A); every later one
    # reuses that order, permuted, with the NATURAL column order; the final
    # point factors M_s once more and M_a once, on its own MMD order; no
    # factorization reads M from `jacobian`
    factored = recorded_splu(monkeypatch)
    calls = []
    jacobian = solver.KktSystem.jacobian

    def counted_jacobian(self, point):
        calls.append(point)
        return jacobian(self, point)

    monkeypatch.setattr(solver.KktSystem, "jacobian", counted_jacobian)
    _, trace = solver.run(small_config())
    assert trace.accepted()[-1].t == 1.0
    specs = [spec for _, spec in factored]
    assert specs[0] is None  # the state solve of the initial point
    assert specs[1:] == ["MMD_AT_PLUS_A"] + ["NATURAL"] * (len(specs) - 3) + ["MMD_AT_PLUS_A"]
    assert len(specs) == 3 + sum(r.newton_iters for r in trace.records)
    assert calls == []


def test_run_objective_decreases(small_run, small_system):
    point, _, accepted = small_run
    system, _ = small_system
    j0 = system.lagr.objective(accepted[0][1].rho, accepted[0][1].u)
    j1 = system.lagr.objective(point.rho, point.u)
    assert j1 < j0


def test_run_density_symmetric(small_run, small_system):
    # the initial state solve and the steps lie in the mirror-symmetric
    # subspace, so rho, z_a and z_b stay symmetric bitwise at every accepted
    # point, and so does u: u_x antisymmetric, u_y symmetric
    _, _, accepted = small_run
    system, _ = small_system
    image, sign = mirror_map(system)
    n = system.n
    mirror, u_image, u_sign = image[:n], image[n:] - n, sign[n:]
    assert np.any(u_sign < 0.0) and np.any(u_sign > 0.0)
    for _, point in accepted:
        for v in (point.rho, point.z_a, point.z_b):
            assert np.array_equal(v, v[mirror])
        assert np.array_equal(point.u, u_sign * point.u[u_image])


def test_initial_state_solves_the_full_system():
    # the half-size solve gives a u that solves K(0.5) u = f on all of u's
    # space, on a mesh with a mirror and one without
    for nx, ny, diagonal in ((20, 8, "mirrored"), (40, 12, "mirrored"), (40, 12, "right")):
        system, schedule = solver.build_system(
            small_config(mesh=MeshConfig(nx=nx, ny=ny, diagonal=diagonal)))
        point, _ = system.initialize(schedule.mu0)
        k = system.lagr.state_matrix(point.rho)
        f = system.lagr.load
        assert np.linalg.norm(k @ point.u - f) <= 1e-12 * np.linalg.norm(f)


def test_initial_state_solve_has_half_the_unknowns(monkeypatch):
    # the mirrored 20x8 start factors K restricted to Q_s's l_s displacement
    # columns; the right mesh factors K itself
    factored = recorded_splu(monkeypatch)
    for diagonal in ("mirrored", "right"):
        system, schedule = solver.build_system(
            small_config(mesh=MeshConfig(nx=20, ny=8, diagonal=diagonal)))
        system.initialize(schedule.mu0)
        if diagonal == "mirrored":
            (_, l_s), (_, l_a) = solver.mirror_subspaces(system.lagr.dofmap)
            assert l_s + l_a == system.l and l_s < system.l
            assert factored[-1][0].shape == (l_s, l_s)
        else:
            k = system.lagr.state_matrix(np.full(system.n, 0.5)).tocsc()
            got = factored[-1][0]
            assert np.array_equal(got.indptr, k.indptr)
            assert np.array_equal(got.indices, k.indices)
            assert got.data.tobytes() == k.data.tobytes()


def test_asymmetric_load_is_refused_by_name(small_system):
    # a load one entry of which is moved by 1e-3 max|f| breaks the mirror
    # symmetry, which every step drops; it is refused before the run.  A
    # move within rounding, as the bridge load has on 60x20, is kept
    system, _ = small_system
    lagr = system.lagr
    free = np.flatnonzero(lagr.load != 0.0)
    for shift, refused in ((1e-3, True), (1e-14, False)):
        load = lagr.load.copy()
        load[free[0]] += shift * np.abs(load).max()
        moved = solver.Lagrangian(lagr.dofmap, lagr.material, lagr.params, load)
        if refused:
            with pytest.raises(ValueError, match="load breaks the mesh's mirror symmetry"):
                solver.KktSystem(moved, system.box)
        else:
            solver.KktSystem(moved, system.box)
    right, _ = solver.build_system(small_config(mesh=MeshConfig(nx=20, ny=8, diagonal="right")))
    load = right.lagr.load.copy()
    load[np.flatnonzero(load != 0.0)[0]] *= 2.0
    solver.KktSystem(solver.Lagrangian(right.lagr.dofmap, right.lagr.material,
                                       right.lagr.params, load), right.box)


def test_mirror_subspaces_split_the_space(small_system):
    # Q = [Q_s, Q_a] is orthogonal, T Q_s = Q_s and T Q_a = -Q_a for the
    # mirror T found from the vertex coordinates; l_s and l_a count the
    # columns on w
    system, _ = small_system
    n, l = system.n, system.l
    image, sign = mirror_map(system)
    (q_s, l_s), (q_a, l_a) = solver.mirror_subspaces(system.lagr.dofmap)
    qs, qa = dense_basis(q_s), dense_basis(q_a)
    q = np.hstack([qs, qa])
    assert q.shape == (n + l, n + l)
    assert np.abs(q.T @ q - np.eye(n + l)).max() <= 1e-15
    assert np.array_equal(sign[:, None] * qs[image], qs)
    assert np.array_equal(sign[:, None] * qa[image], -qa)
    assert (l_s, l_a) == tuple(int(np.count_nonzero(np.any(b[n:] != 0.0, axis=0)))
                               for b in (qs, qa))
    assert l_s + l_a == l


def test_kkt_matrix_splits_by_mirror_class_along_the_run(small_run, monkeypatch):
    # at every accepted point of the mirrored run T M T^T = M up to rounding,
    # and the M_s that `factor` hands to SuperLU is Q_s^T M Q_s
    _, _, accepted = small_run
    system, _ = solver.build_system(small_config())
    image, sign = mirror_map(system)
    (q_s, _), _ = solver.mirror_subspaces(system.lagr.dofmap)
    qs = dense_basis(q_s)
    factored = recorded_splu(monkeypatch)
    for i, (_, point) in enumerate(accepted):
        m = system.jacobian(point).toarray()
        mirrored = sign[:, None] * sign[None, :] * m[np.ix_(image, image)]
        assert np.abs(mirrored - m).max() <= 1e-11 * np.abs(m).max()
        system.factor(point)
        want = qs.T @ m @ qs
        if i > 0:  # permuted on the order of the first factorization
            want = want[np.ix_(kept_order(system), kept_order(system))]
        got = factored[-1][0].toarray()
        assert np.abs(got - want).max() <= 1e-14 * np.abs(want).max()
    assert len(factored) == len(accepted)


def test_right_mesh_factors_m_itself(rng, monkeypatch):
    # without a mirror, M_s is M, bitwise, and no class count is reported
    system, _ = solver.build_system(small_config(mesh=MeshConfig(nx=20, ny=8, diagonal="right")))
    assert system.lagr.mesh.mirror is None
    start, _ = system.initialize(50.0)
    other = random_point(system, rng)
    other.p_adj = -other.u
    factored = recorded_splu(monkeypatch)
    for i, point in enumerate((start, other)):
        m = system.jacobian(point)
        negative = system.factor(point).negative
        dense = m.toarray()
        assert negative == np.count_nonzero(np.linalg.eigvalsh(dense) < 0.0) - system.l
        if i > 0:
            m = m[kept_order(system)][:, kept_order(system)]
        want, got = m.tocsc(), factored[-1][0]
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.tobytes() == want.data.tobytes()
    assert system.negative_by_class(start) is None


def test_factor_refuses_a_point_off_the_mirror_symmetry(small_system, rng):
    # a random point is not symmetric; its mirror average is, and one bit
    # off in z_b is refused again
    system, _ = small_system
    mirror = system.lagr.mesh.mirror
    point = random_point(system, rng)
    point.p_adj = -point.u
    with pytest.raises(ValueError, match="mirror symmetry"):
        system.factor(point)
    for name in ("rho", "z_a", "z_b"):
        v = getattr(point, name)
        setattr(point, name, 0.5 * (v + v[mirror]))
    system.factor(point)
    point.z_b[0] = np.nextafter(point.z_b[0], np.inf)
    with pytest.raises(ValueError, match="mirror symmetry"):
        system.factor(point)


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
    # the 40x12 curve folds near t = 0.9995; correctors past it stop where
    # the reduced Hessian turns indefinite (left_branch) or a full step
    # raises the residual, instead of spending max_iter; the shrunk steps
    # start from the tangent prediction
    point, trace = solver.run(SolverConfig(mesh=MeshConfig(nx=40, ny=12)))
    assert (trace.n_accepted, trace.n_attempts) == (18, 51)
    assert sum(r.newton_iters for r in trace.records) == 118
    reasons = [r.reason for r in trace.records]
    assert (reasons.count("left_branch"), reasons.count("no_decrease"),
            reasons.count("max_iter")) == (15, 5, 1)
    assert [r.endpoint_jump for r in trace.records] == [False] * 50 + [True]
    assert np.array_equal(point.p_adj, -point.u)
    system, _ = solver.build_system(SolverConfig(mesh=MeshConfig(nx=40, ny=12)))
    assert system.lagr.objective(point.rho, point.u) == 8.659454175066887
    assert trace.final_negative == (4, 4)


def test_smooth_run_keeps_its_indefinite_step_at_t1(small_run):
    # the step from t = 0.75 to 1 ends on a saddle (16 negative eigenvalues
    # of the reduced Hessian); correctors at t = 1 are exempt from the
    # left-branch stop, so the run does not fold
    _, trace, _ = small_run
    assert [(r.t, r.accepted, r.reason) for r in trace.records] == [
        (0.25, True, ""), (0.5, True, ""), (0.75, True, ""), (1.0, True, "")]
    assert sum(r.newton_iters for r in trace.records) == 25


def test_one_config_runs_twice_to_the_same_trace():
    # the config's step controller is shared by both runs and carries no
    # state; these settings make the step both grow and shrink within a run.
    # Both hit the 20x8 fold and reach t = 1 by the endpoint jump; dt_max =
    # 0.5 no longer accepts the saddle at t = 0.99862289 its corrector
    # reached with an indefinite reduced Hessian.
    # dt_max: accepted, attempts, Newton iterations, t the jump starts from, objective
    rungs = {0.5: (19, 53, 132, 0.99925575, 9.53772751),
             0.25: (20, 53, 133, 0.99925574, 9.53772755)}
    for dt_max, (accepted, attempts, iters, jump_from, objective) in rungs.items():
        cfg = small_config(stepping=StepController(dt_init=0.1, dt_max=dt_max))
        point, first = solver.run(cfg)
        _, second = solver.run(cfg)
        assert first.records == second.records
        assert any(not r.accepted for r in first.records)
        assert (first.n_accepted, first.n_attempts) == (accepted, attempts)
        assert sum(r.newton_iters for r in first.records) == iters
        last = first.records[-1]
        assert last.accepted and last.t == 1.0 and last.endpoint_jump
        traced = [r.t for r in first.records[:-1] if r.accepted]
        assert traced[-1] == pytest.approx(jump_from, abs=1e-8)
        system, _ = solver.build_system(cfg)
        assert system.lagr.objective(point.rho, point.u) == pytest.approx(objective, abs=1e-8)


def test_fold_run_solves_one_tangent_per_accepted_point(monkeypatch):
    # the 20x8 run with shrunk steps folds near t = 0.999 and retries many
    # steps from the same accepted point; each such point's tangent is
    # solved once, on its first proposal below the cap, and reused after
    calls = []
    factor, h_t = solver.KktSystem.factor, solver.KktSystem.h_t

    def recorded_factor(self, point):
        calls.append(point.pack().tobytes())
        return factor(self, point)

    def recorded_h_t(self, anchor, t, schedule):
        calls.append("h_t")
        return h_t(self, anchor, t, schedule)

    monkeypatch.setattr(solver.KktSystem, "factor", recorded_factor)
    monkeypatch.setattr(solver.KktSystem, "h_t", recorded_h_t)
    accepted = []
    cfg = small_config(stepping=StepController(dt_init=0.1, dt_max=0.25))
    _, trace = solver.run(cfg, on_accept=lambda t, point: accepted.append(point.pack().tobytes()))
    assert (trace.n_accepted, trace.n_attempts) == (20, 53)
    # the tangent factors at x, then reads H_t
    tangent_xs = [calls[i - 1] for i, call in enumerate(calls) if call == "h_t"]
    assert len(tangent_xs) == len(set(tangent_xs)) == 18
    assert set(tangent_xs) <= set(accepted)


def test_first_order_predictor_completes():
    # dt_init below dt_max: the first steps start from the tangent
    _, tr = solver.run(small_config(stepping=StepController(dt_init=0.1)))
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
