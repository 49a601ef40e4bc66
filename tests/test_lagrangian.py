import numpy as np
import pytest

from homotopt import fem, lagrangian
from homotopt.lagrangian import Lagrangian, ProblemParams
from homotopt.sparse import solve_direct


def rel_err(approx, exact):
    return np.linalg.norm(np.asarray(approx) - np.asarray(exact)) \
        / max(np.linalg.norm(exact), 1e-30)


def random_point(lagr, rng):
    rho = rng.uniform(0.2, 0.8, lagr.n_density)
    u = rng.standard_normal(lagr.n_disp)
    p = rng.standard_normal(lagr.n_disp)
    return rho, u, p


def test_params_validation():
    with pytest.raises(ValueError):
        ProblemParams(gamma=-1.0, beta=0.5, epsilon=0.01)
    with pytest.raises(ValueError):
        ProblemParams(gamma=1.0, beta=0.0, epsilon=0.01)
    with pytest.raises(ValueError):
        ProblemParams(gamma=1.0, beta=0.5, epsilon=0.0)


# --- objective closed forms ---------------------------------------------------

def test_objective_zero_design(coarse_lagrangian):
    rho = np.zeros(coarse_lagrangian.n_density)
    u = np.zeros(coarse_lagrangian.n_disp)
    assert coarse_lagrangian.objective(rho, u) == pytest.approx(0.0, abs=1e-14)


def test_objective_full_design(coarse_lagrangian, params):
    # constant rho = 1: no gradient energy, vanishing double-well, volume 1.92
    rho = np.ones(coarse_lagrangian.n_density)
    u = np.zeros(coarse_lagrangian.n_disp)
    assert coarse_lagrangian.objective(rho, u) == pytest.approx(params.gamma * 1.92, rel=1e-12)
    assert params.gamma * 1.92 == pytest.approx(18.72)


def test_objective_half_design(coarse_lagrangian, params):
    rho = np.full(coarse_lagrangian.n_density, 0.5)
    u = np.zeros(coarse_lagrangian.n_disp)
    expected = params.gamma * 0.96 + 0.5 * params.beta / params.epsilon * (0.25 * 1.92)
    assert coarse_lagrangian.objective(rho, u) == pytest.approx(expected, rel=1e-12)


# --- gradient ------------------------------------------------------------------

def test_gradient_constant_half_design(coarse_lagrangian, params):
    # u = p = 0 and rho = 0.5: double-well term cancels, leaving gamma * c
    lagr = coarse_lagrangian
    rho = np.full(lagr.n_density, 0.5)
    zero = np.zeros(lagr.n_disp)
    g = lagr.gradient(rho, zero, zero)
    assert g.d_rho == pytest.approx(params.gamma * lagr.phi_vol, rel=1e-12)
    assert np.all(g.d_u == lagr.load)
    assert np.all(g.d_p == -lagr.load)


def test_state_residual_zero_iff_state_solved(coarse_lagrangian, rng):
    lagr = coarse_lagrangian
    rho = rng.uniform(0.3, 0.7, lagr.n_density)
    u = solve_direct(lagr.state_matrix(rho), lagr.load)
    g = lagr.gradient(rho, u, np.zeros(lagr.n_disp))
    assert np.max(np.abs(g.d_p)) <= 1e-10 * max(1.0, np.max(np.abs(lagr.load)))
    g_bad = lagr.gradient(rho, u + 1.0, np.zeros(lagr.n_disp))
    assert np.max(np.abs(g_bad.d_p)) > 1e-6


def test_gradient_matches_fd_of_lagrangian(coarse_lagrangian, rng):
    lagr = coarse_lagrangian
    h = 1e-6
    for _ in range(3):
        rho, u, p = random_point(lagr, rng)
        g = lagr.gradient(rho, u, p)
        n, l = lagr.n_density, lagr.n_disp
        fd_rho = np.empty(n)
        for i in range(n):
            e = np.zeros(n)
            e[i] = h
            fd_rho[i] = (lagr.value(rho + e, u, p) - lagr.value(rho - e, u, p)) / (2 * h)
        assert rel_err(fd_rho, g.d_rho) <= 1e-6
        fd_u = np.empty(l)
        fd_p = np.empty(l)
        for i in range(l):
            e = np.zeros(l)
            e[i] = h
            fd_u[i] = (lagr.value(rho, u + e, p) - lagr.value(rho, u - e, p)) / (2 * h)
            fd_p[i] = (lagr.value(rho, u, p + e) - lagr.value(rho, u, p - e)) / (2 * h)
        assert rel_err(fd_u, g.d_u) <= 1e-6
        assert rel_err(fd_p, g.d_p) <= 1e-6


# --- hessian -------------------------------------------------------------------

def test_hessian_at_zero_fields(coarse_lagrangian, params, rng):
    lagr = coarse_lagrangian
    rho = rng.uniform(0.2, 0.8, lagr.n_density)
    zero = np.zeros(lagr.n_disp)
    h = lagr.hessian(rho, zero, zero)
    rp = lagr.hessian(rho, zero, zero).ru  # d2L/drho dp: ru at u and p swapped
    assert h.ru.nnz == 0 or np.max(np.abs(h.ru.toarray())) == 0.0
    assert rp.nnz == 0 or np.max(np.abs(rp.toarray())) == 0.0
    expected_rr = params.beta * params.epsilon * lagr.k_rho.toarray() \
        - params.beta / params.epsilon * lagr.mass.toarray()
    assert np.max(np.abs(h.rr.toarray() - expected_rr)) <= 1e-12 * np.max(np.abs(expected_rr))


def test_hessian_matches_fd_of_gradient(coarse_lagrangian, rng):
    lagr = coarse_lagrangian
    h = 1e-6
    n, l = lagr.n_density, lagr.n_disp
    for _ in range(3):
        rho, u, p = random_point(lagr, rng)
        blocks = lagr.hessian(rho, u, p)
        rp = lagr.hessian(rho, p, u).ru  # d2L/drho dp: ru at swapped fields
        for _k in range(3):
            d_rho = rng.standard_normal(n)
            d_rho /= np.linalg.norm(d_rho)
            gp = lagr.gradient(rho + h * d_rho, u, p)
            gm = lagr.gradient(rho - h * d_rho, u, p)
            assert rel_err((gp.d_rho - gm.d_rho) / (2 * h), blocks.rr @ d_rho) <= 1e-5
            assert rel_err((gp.d_u - gm.d_u) / (2 * h),
                           blocks.ru.T @ d_rho) <= 1e-5
            assert rel_err((gp.d_p - gm.d_p) / (2 * h),
                           rp.T @ d_rho) <= 1e-5
            d_u = rng.standard_normal(l)
            d_u /= np.linalg.norm(d_u)
            gp = lagr.gradient(rho, u + h * d_u, p)
            gm = lagr.gradient(rho, u - h * d_u, p)
            assert rel_err((gp.d_rho - gm.d_rho) / (2 * h), blocks.ru @ d_u) <= 1e-5
            assert rel_err((gp.d_p - gm.d_p) / (2 * h), blocks.up @ d_u) <= 1e-5
            # u-u block is identically zero for the compliance objective
            assert np.max(np.abs((gp.d_u - gm.d_u) / (2 * h))) <= 1e-7
            d_p = rng.standard_normal(l)
            d_p /= np.linalg.norm(d_p)
            gp = lagr.gradient(rho, u, p + h * d_p)
            gm = lagr.gradient(rho, u, p - h * d_p)
            assert rel_err((gp.d_rho - gm.d_rho) / (2 * h), rp @ d_p) <= 1e-5
            assert rel_err((gp.d_u - gm.d_u) / (2 * h), blocks.up @ d_p) <= 1e-5
            assert np.max(np.abs((gp.d_p - gm.d_p) / (2 * h))) <= 1e-7


def test_quadrature_tables_match_their_einsum_definitions(coarse_lagrangian, rng):
    # gradient and Hessian integrate rho^k phi_i and rho^k phi_i phi_j by
    # (Q, 3) and (Q, 9) tables; a wrong table weight moves them far less than
    # the FD checks' 1e-5 can see, so each is held to its einsum definition
    lagr = coarse_lagrangian
    geo = lagr.dofmap.geometry
    w, b = fem.QUAD_W, fem.QUAD_BARY
    pe = lagr.material.exponent

    def assert_close(got, want):
        assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-14

    for _ in range(3):
        rho, u, p = random_point(lagr, rng)
        rho_q = rho[geo.tri] @ b.T
        for k in (pe - 1.0, pe - 2.0):
            assert_close(rho_q ** k @ lagrangian._W_PHI,
                         np.einsum("eq,q,qi->ei", rho_q ** k, w, b))
            assert_close((rho_q ** k @ lagrangian._W_PHIPHI).reshape(-1, 3, 3),
                         np.einsum("eq,q,qi,qj->eij", rho_q ** k, w, b, b))
        assert_close(lagr._element_fields(rho, u, p).m_phi,
                     geo.area[:, None] * np.einsum("eq,q,qi->ei", rho_q ** (pe - 1.0), w, b))


def test_element_fields_are_never_served_stale(coarse_dofmap, material, params, coarse_load,
                                               rng):
    # gradient and Hessian at one point share one set of element fields; a
    # density changed in place, or new u and p, must not be served the old
    # ones: each Hessian equals a fresh Lagrangian's, bitwise
    lagr = Lagrangian(coarse_dofmap, material, params, coarse_load)
    rho, u, p = random_point(lagr, rng)

    def assert_fresh(rho, u, p):
        got = lagr.hessian(rho, u, p)
        want = Lagrangian(coarse_dofmap, material, params, coarse_load).hessian(rho, u, p)
        for block in ("rr", "ru", "up"):
            assert getattr(got, block).data.tobytes() == getattr(want, block).data.tobytes()

    lagr.gradient(rho, u, p)
    assert_fresh(rho, u, p)
    rho[3] += 0.1
    assert_fresh(rho, u, p)
    lagr.gradient(rho, u, p)
    _, u_new, p_new = random_point(lagr, rng)
    assert_fresh(rho, u_new, p_new)
    lagr.gradient(rho, u_new, p_new)
    u_new[0] = -u_new[0]
    assert_fresh(rho, u_new, p_new)
    assert_fresh(rho, p_new, u_new)  # the rho-p block's swapped fields


def test_hessian_superblock_symmetry(coarse_lagrangian, rng):
    lagr = coarse_lagrangian
    rho, u, p = random_point(lagr, rng)
    h = lagr.hessian(rho, u, p)
    rp = lagr.hessian(rho, p, u).ru.toarray()  # d2L/drho dp
    n, l = lagr.n_density, lagr.n_disp
    full = np.zeros((n + 2 * l, n + 2 * l))
    full[:n, :n] = h.rr.toarray()
    full[:n, n:n + l] = h.ru.toarray()
    full[:n, n + l:] = rp
    full[n:n + l, :n] = h.ru.toarray().T
    full[n:n + l, n + l:] = h.up.toarray()
    full[n + l:, :n] = rp.T
    full[n + l:, n:n + l] = h.up.toarray().T
    assert np.max(np.abs(full - full.T)) <= 1e-11 * np.max(np.abs(full))


def test_up_block_is_state_matrix(coarse_lagrangian, rng):
    lagr = coarse_lagrangian
    rho, u, p = random_point(lagr, rng)
    h = lagr.hessian(rho, u, p)
    k = fem.assemble_state_operator(lagr.dofmap, lagr.material, rho)
    assert np.max(np.abs(h.up.toarray() - k.toarray())) == 0.0


def test_compliance_self_adjointness(coarse_lagrangian, rng):
    # solving both first-order conditions in u and p forces p = -u
    lagr = coarse_lagrangian
    rho = rng.uniform(0.3, 0.7, lagr.n_density)
    k = lagr.state_matrix(rho)
    u = solve_direct(k, lagr.load)
    p = solve_direct(k, -lagr.load)
    g = lagr.gradient(rho, u, p)
    assert np.max(np.abs(g.d_u)) <= 1e-10 * max(1.0, np.max(np.abs(lagr.load)))
    assert np.max(np.abs(g.d_p)) <= 1e-10 * max(1.0, np.max(np.abs(lagr.load)))
    assert np.linalg.norm(p + u) <= 1e-10 * np.linalg.norm(u)
