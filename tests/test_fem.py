import itertools
import math

import numpy as np
import pytest

from homotopt import fem
from homotopt.fem import (MaterialModel, assemble_gl_operators,
                          assemble_state_operator, assemble_traction_load,
                          default_material, make_dofmap)
from homotopt.lagrangian import Lagrangian, default_params
from homotopt.mesh import (BoundarySegment, DomainSpec, EdgeTag, bridge_domain,
                           build_structured_mesh, dirichlet_vertex_set)
from homotopt.sparse import SparsityPattern, solve_direct


# --- independent oracles -----------------------------------------------------

def exact_bary_moment(area, powers):
    """Exact integral over a triangle of a product of barycentric powers:
    int_T l1^a l2^b l3^c dx = 2A a! b! c! / (a+b+c+2)!"""
    a, b, c = powers
    return 2.0 * area * math.factorial(a) * math.factorial(b) * math.factorial(c) \
        / math.factorial(a + b + c + 2)


def exact_int_rho_pow(area, rho_loc, power):
    """Exact integral of (sum_i rho_i phi_i)^power over one triangle."""
    total = 0.0
    for combo in itertools.product(range(3), repeat=power):
        powers = [combo.count(i) for i in range(3)]
        coeff = np.prod([rho_loc[i] for i in combo])
        total += coeff * exact_bary_moment(area, powers)
    return total


def oracle_element_stiffness(coords, lam, mu):
    """P1 plane-strain element stiffness from the Voigt B-matrix form."""
    x, y = coords[:, 0], coords[:, 1]
    area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
    bmat = np.zeros((3, 6))
    grads = np.array([
        [y[1] - y[2], x[2] - x[1]],
        [y[2] - y[0], x[0] - x[2]],
        [y[0] - y[1], x[1] - x[0]],
    ]) / (2.0 * area)
    for k in range(3):
        gx, gy = grads[k]
        bmat[0, 2 * k] = gx
        bmat[1, 2 * k + 1] = gy
        bmat[2, 2 * k] = gy
        bmat[2, 2 * k + 1] = gx
    dmat = np.array([[lam + 2 * mu, lam, 0.0], [lam, lam + 2 * mu, 0.0], [0.0, 0.0, mu]])
    return area * bmat.T @ dmat @ bmat


def oracle_global_stiffness(msh, dofmap, mat, rho):
    """Dense stiffness with per-element moduli from the exact rho^p integral."""
    l = dofmap.n_disp
    k = np.zeros((l, l))
    for tri in msh.triangles:
        coords = msh.vertices[tri]
        x, y = coords[:, 0], coords[:, 1]
        area = 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))
        avg = exact_int_rho_pow(area, rho[tri], int(mat.exponent)) / area
        lam = mat.lambda0 + avg * (mat.lambda1 - mat.lambda0)
        mu = mat.mu0 + avg * (mat.mu1 - mat.mu0)
        ke = oracle_element_stiffness(coords, lam, mu)
        gdof = dofmap.disp_index[tri].reshape(6)
        for a in range(6):
            for b in range(6):
                if gdof[a] >= 0 and gdof[b] >= 0:
                    k[gdof[a], gdof[b]] += ke[a, b]
    return k


# --- material model ----------------------------------------------------------

def test_material_validation():
    with pytest.raises(ValueError):
        MaterialModel(lambda0=-1.0, lambda1=1.0, mu0=0.1, mu1=0.2)
    with pytest.raises(ValueError):
        MaterialModel(lambda0=1.0, lambda1=0.5, mu0=0.1, mu1=0.2)
    with pytest.raises(ValueError):
        MaterialModel(lambda0=0.1, lambda1=1.0, mu0=0.1, mu1=0.2, exponent=0.5)


def test_dofmap_excludes_dirichlet(coarse_mesh, coarse_dofmap):
    fixed = dirichlet_vertex_set(coarse_mesh)
    assert coarse_dofmap.n_disp == 2 * (coarse_mesh.n_vertices - len(fixed))
    used = coarse_dofmap.disp_index[coarse_dofmap.disp_index >= 0]
    assert sorted(used) == list(range(coarse_dofmap.n_disp))
    for v in fixed:
        assert np.all(coarse_dofmap.disp_index[v] == -1)


def test_dofmap_carries_its_mesh(coarse_mesh, coarse_dofmap, coarse_lagrangian):
    # the load and the Lagrangian read the mesh from the DofMap, so no
    # mismatched mesh can be passed next to it
    assert coarse_dofmap.mesh is coarse_mesh
    assert coarse_lagrangian.mesh is coarse_mesh


# --- state operator ----------------------------------------------------------

def test_quadrature_matches_exact_integrals_single_element(rng):
    # single triangle: the 6-point rule must reproduce the closed-form
    # integrals of rho^3, rho^2 phi_i and rho phi_i phi_j exactly
    area = 0.37
    rho_loc = rng.uniform(0.1, 0.9, size=3)
    rho_q = rho_loc @ fem.QUAD_BARY.T
    got3 = area * np.sum(fem.QUAD_W * rho_q ** 3)
    assert got3 == pytest.approx(exact_int_rho_pow(area, rho_loc, 3), rel=1e-12)
    for i in range(3):
        got = area * np.sum(fem.QUAD_W * rho_q ** 2 * fem.QUAD_BARY[:, i])
        exact = sum(rho_loc[a] * rho_loc[b]
                    * exact_bary_moment(area, np.bincount([a, b, i], minlength=3))
                    for a in range(3) for b in range(3))
        assert got == pytest.approx(exact, rel=1e-12)
        for j in range(3):
            got = area * np.sum(fem.QUAD_W * rho_q * fem.QUAD_BARY[:, i] * fem.QUAD_BARY[:, j])
            exact = sum(rho_loc[a]
                        * exact_bary_moment(area, np.bincount([a, i, j], minlength=3))
                        for a in range(3))
            assert got == pytest.approx(exact, rel=1e-12)


def test_stiffness_matches_independent_oracle(material, rng):
    spec = DomainSpec(1.0, 1.0, dirichlet_segments=(
        BoundarySegment((0.0, 0.0), (1.0, 0.0)),))
    msh = build_structured_mesh(spec, nx=3, ny=2)
    dofmap = make_dofmap(msh)
    for rho in (np.ones(msh.n_vertices), rng.uniform(0.05, 0.95, msh.n_vertices)):
        k = assemble_state_operator(dofmap, material, rho).toarray()
        k_ref = oracle_global_stiffness(msh, dofmap, material, rho)
        assert np.max(np.abs(k - k_ref)) <= 1e-12 * np.max(np.abs(k_ref))


def test_stiffness_endpoints_and_coercivity(coarse_mesh, coarse_dofmap, material, rng):
    k1 = assemble_state_operator(coarse_dofmap, material, np.ones(coarse_mesh.n_vertices))
    for _ in range(3):
        u = rng.standard_normal(coarse_dofmap.n_disp)
        assert u @ (k1 @ u) > 0


def test_stiffness_ratio_between_phases(material):
    spec = DomainSpec(1.0, 1.0, dirichlet_segments=(
        BoundarySegment((0.0, 0.0), (1.0, 0.0)),))
    msh = build_structured_mesh(spec, nx=4, ny=4)
    dofmap = make_dofmap(msh)
    n = msh.n_vertices
    k1 = assemble_state_operator(dofmap, material, np.ones(n)).toarray()
    k0 = assemble_state_operator(dofmap, material, np.zeros(n)).toarray()
    mask = np.abs(k0) > 1e-12 * np.max(np.abs(k0))
    ratios = k1[mask] / k0[mask]
    lam_ratio = material.lambda1 / material.lambda0  # about 1.0003e4
    mu_ratio = material.mu1 / material.mu0           # exactly 1e4
    assert lam_ratio == pytest.approx(1.0003e4, rel=1e-4)
    assert np.min(ratios) >= mu_ratio * (1 - 1e-9)
    assert np.max(ratios) <= lam_ratio * (1 + 1e-9)
    assert np.max(ratios) == pytest.approx(lam_ratio, rel=1e-6)


def test_rigid_rotation_in_kernel(material):
    # no clamped vertices: an infinitesimal rotation produces zero strain
    spec = DomainSpec(1.0, 1.0)
    msh = build_structured_mesh(spec, nx=3, ny=3)
    dofmap = make_dofmap(msh)
    v = np.zeros(dofmap.n_disp)
    for vert in range(msh.n_vertices):
        x, y = msh.vertices[vert]
        v[dofmap.disp_index[vert, 0]] = -y
        v[dofmap.disp_index[vert, 1]] = x
    k = assemble_state_operator(dofmap, material, np.full(msh.n_vertices, 0.7))
    scale = np.max(np.abs(k.toarray())) * np.max(np.abs(v))
    assert np.max(np.abs(k @ v)) <= 1e-10 * scale


def test_stiffness_symmetry(coarse_mesh, coarse_dofmap, material, rng):
    rho = rng.uniform(0.1, 0.9, coarse_mesh.n_vertices)
    k = assemble_state_operator(coarse_dofmap, material, rho).toarray()
    assert np.max(np.abs(k - k.T)) <= 1e-12 * np.max(np.abs(k))


# --- traction load -----------------------------------------------------------

def test_traction_load_total(bridge, coarse_mesh, coarse_dofmap):
    f = assemble_traction_load(coarse_dofmap, bridge)
    y_sum = f[coarse_dofmap.disp_index[:, 1][coarse_dofmap.disp_index[:, 1] >= 0]].sum()
    assert abs(y_sum - (-0.24)) <= 1e-12
    x_ids = coarse_dofmap.disp_index[:, 0][coarse_dofmap.disp_index[:, 0] >= 0]
    assert np.all(f[x_ids] == 0.0)


def test_zero_traction_gives_zero_vector(coarse_mesh, coarse_dofmap):
    spec = DomainSpec(2.4, 0.8, traction=(0.0, 0.0))
    f = assemble_traction_load(coarse_dofmap, spec)
    assert np.all(f == 0.0)


def test_single_edge_endpoint_loads():
    spec = DomainSpec(1.0, 1.0,
                      neumann_traction_segments=(BoundarySegment((0.0, 0.0), (0.5, 0.0)),),
                      traction=(0.0, -1.0))
    msh = build_structured_mesh(spec, nx=2, ny=1)
    dofmap = make_dofmap(msh)
    f = assemble_traction_load(dofmap, spec)
    h = 0.5
    loaded = {v for v, (x, y) in enumerate(msh.vertices) if abs(y) < 1e-12 and x <= 0.5 + 1e-12}
    for v in range(msh.n_vertices):
        fy = f[dofmap.disp_index[v, 1]]
        if v in loaded:
            assert fy == pytest.approx(-h / 2)
        else:
            assert fy == 0.0


def test_cantilever_on_vertical_segments():
    # clamped along x = 0 and loaded on part of x = 2: every segment vertical
    clamp = BoundarySegment((0.0, 0.0), (0.0, 1.0))
    spec = DomainSpec(2.0, 1.0, dirichlet_segments=(clamp,),
                      neumann_traction_segments=(BoundarySegment((2.0, 0.25), (2.0, 0.75)),),
                      traction=(0.0, -1.0))
    msh = build_structured_mesh(spec, nx=4, ny=4)
    fixed = dirichlet_vertex_set(msh)
    assert sorted(msh.vertices[v][1] for v in fixed) == [0.0, 0.25, 0.5, 0.75, 1.0]
    assert all(msh.vertices[v][0] == 0.0 for v in fixed)
    dofmap = make_dofmap(msh)
    f = assemble_traction_load(dofmap, spec)
    assert f[dofmap.disp_index[:, 1][dofmap.disp_index[:, 1] >= 0]].sum() == \
        pytest.approx(-0.5, abs=1e-14)
    x_ids = dofmap.disp_index[:, 0][dofmap.disp_index[:, 0] >= 0]
    assert np.all(f[x_ids] == 0.0)
    with pytest.raises(ValueError, match="overlapping"):
        DomainSpec(2.0, 1.0, dirichlet_segments=(
            clamp, BoundarySegment((0.0, 0.5), (0.0, 0.75))))
    for off in (BoundarySegment((1.0, 0.0), (1.0, 1.0)),   # interior
                BoundarySegment((2.0, 0.5), (2.0, 1.5))):  # overhangs the top
        with pytest.raises(ValueError, match="does not lie on the domain boundary"):
            DomainSpec(2.0, 1.0, neumann_traction_segments=(off,))


def test_load_supported_only_on_traction_vertices(bridge, coarse_mesh, coarse_dofmap):
    f = assemble_traction_load(coarse_dofmap, bridge)
    seg = bridge.neumann_traction_segments[0]
    for v in range(coarse_mesh.n_vertices):
        for d in range(2):
            k = coarse_dofmap.disp_index[v, d]
            if k >= 0 and f[k] != 0.0:
                assert seg.contains(coarse_mesh.vertices[v])


def loop_disp_index(msh):
    """Free vertices numbered two at a time in vertex order, -1 on clamped ones."""
    fixed = dirichlet_vertex_set(msh)
    disp = np.full((msh.n_vertices, 2), -1, dtype=np.int64)
    k = 0
    for v in range(msh.n_vertices):
        if v not in fixed:
            disp[v] = (k, k + 1)
            k += 2
    return disp, k


def loop_traction_load(msh, disp, spec):
    """The traction load summed one loaded edge, end and direction at a time."""
    f = np.zeros(disp.max() + 1)
    g = np.asarray(spec.traction, dtype=np.float64)
    for (a, b), tag in zip(msh.boundary_edges, msh.boundary_tags):
        if tag != int(EdgeTag.NEUMANN_TRACTION):
            continue
        h = float(np.linalg.norm(msh.vertices[b] - msh.vertices[a]))
        for v in (a, b):
            for d in range(2):
                if disp[v, d] >= 0:
                    f[disp[v, d]] += 0.5 * h * g[d]
    return f


@pytest.mark.parametrize("diagonal", ["right", "mirrored"])
@pytest.mark.parametrize("nx, ny", [(20, 8), (40, 12), (60, 20), (80, 28)])
def test_array_built_dofs_and_load_equal_the_loops(bridge, nx, ny, diagonal):
    msh = build_structured_mesh(bridge, nx, ny, diagonal)
    dofmap = make_dofmap(msh)
    disp, n_disp = loop_disp_index(msh)
    assert np.array_equal(dofmap.disp_index, disp) and dofmap.n_disp == n_disp
    load = assemble_traction_load(dofmap, bridge)
    assert load.tobytes() == loop_traction_load(msh, disp, bridge).tobytes()


def assert_same_pattern(got, want):
    assert got.shape == want.shape
    for name in ("indices", "indptr"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    assert got.summation.shape == want.summation.shape
    for name in ("indices", "indptr", "data"):
        assert getattr(got.summation, name).tobytes() == getattr(want.summation, name).tobytes()


def unclamped_bridge():
    """The bridge's domain and load, with no clamped vertex."""
    bridge = bridge_domain()
    return DomainSpec(bridge.width, bridge.height,
                      neumann_traction_segments=bridge.neumann_traction_segments,
                      traction=bridge.traction)


def wall_clamped_cantilever():
    """A 2 x 1 cantilever clamped along the wall x = 0."""
    return DomainSpec(2.0, 1.0, dirichlet_segments=(BoundarySegment((0.0, 0.0), (0.0, 1.0)),),
                      neumann_traction_segments=(BoundarySegment((2.0, 0.25), (2.0, 0.75)),),
                      traction=(0.0, -1.0))


@pytest.mark.parametrize("diagonal", ["right", "mirrored"])
@pytest.mark.parametrize("domain, nx, ny", [
    pytest.param(bridge_domain, 20, 8, id="20-8"),
    pytest.param(bridge_domain, 40, 12, id="40-12"),
    pytest.param(bridge_domain, 60, 20, id="60-20"),
    pytest.param(unclamped_bridge, 20, 8, id="unclamped-20-8"),
    pytest.param(wall_clamped_cantilever, 8, 4, id="cantilever-8-4"),
    pytest.param(wall_clamped_cantilever, 10, 10, id="cantilever-10-10")])
def test_expanded_layouts_equal_the_sorted_ones(material, domain, nx, ny, diagonal):
    # K(rho)'s and ru's layouts, expanded from the density pattern, are
    # bitwise the layouts and summations sorted from their element triplets
    dofmap = make_dofmap(build_structured_mesh(domain(), nx, ny, diagonal))
    lagr = Lagrangian(dofmap, material, default_params(), np.zeros(dofmap.n_disp))
    n, l, tri, dofs = dofmap.n_density, dofmap.n_disp, dofmap.geometry.tri, dofmap.element_dofs
    assert_same_pattern(dofmap.state_pattern, fem.element_pattern(l, l, dofs, dofs))
    assert_same_pattern(lagr.cross_pattern, fem.element_pattern(n, l, tri, dofs))


def test_expansion_refuses_bad_numberings(coarse_dofmap):
    # the expansion keeps the density pattern's order and sizes the matrix
    # by the free dofs, so their numbers must be 0, 1, ..., k - 1 in vertex,
    # then component order: y before x, or a numbering with gaps, is refused
    disp = coarse_dofmap.disp_index
    density = coarse_dofmap.geometry.pattern
    swapped = np.where(disp >= 0, disp ^ 1, -1)  # y before x at every vertex
    gapped = np.where(disp >= 0, 2 * disp, -1)
    for dofs in (swapped, gapped):
        with pytest.raises(ValueError, match="numbered 0, 1, ..., k - 1"):
            SparsityPattern.expanded(density, (3, 3), dofs, dofs)
        with pytest.raises(ValueError, match="numbered 0, 1, ..., k - 1"):
            SparsityPattern.expanded(density, (3, 3), np.arange(disp.shape[0])[:, None], dofs)


def test_element_tables_equal_their_einsums(coarse_mesh):
    geo = fem._element_tables(coarse_mesh)
    ne = geo.tri.shape[0]
    assert geo.gg.tobytes() == np.einsum("eik,ejk->eij", geo.grads, geo.grads).tobytes()
    gmat6 = np.zeros((ne, 6, 6))
    gmat6[:, 0::2, 0::2] = geo.gg
    gmat6[:, 1::2, 1::2] = geo.gg
    gmat6 += np.einsum("eib,eja->eiajb", geo.grads, geo.grads).reshape(ne, 6, 6)
    assert geo.gmat6.tobytes() == gmat6.tobytes()


# --- phase-field operators ---------------------------------------------------

def test_gl_operators(coarse_mesh, coarse_dofmap):
    k_rho, mass, phi_vol = assemble_gl_operators(coarse_dofmap)
    area = 2.4 * 0.8
    assert phi_vol.sum() == pytest.approx(area, rel=1e-12)
    const = np.ones(coarse_mesh.n_vertices)
    assert np.max(np.abs(k_rho @ const)) <= 1e-12
    assert const @ (mass @ const) == pytest.approx(area, rel=1e-12)
    # row sums of the mass matrix are the hat integrals
    assert mass @ const == pytest.approx(phi_vol, rel=1e-12)


def test_gl_spd_properties(coarse_mesh, coarse_dofmap, rng):
    k_rho, mass, _ = assemble_gl_operators(coarse_dofmap)
    for _ in range(3):
        v = rng.standard_normal(coarse_mesh.n_vertices)
        assert v @ (mass @ v) > 0
        v -= v.mean()
        if np.linalg.norm(v) > 0:
            assert v @ (k_rho @ v) > 0


# --- state solve -------------------------------------------------------------

def solve_state(mesh, dofmap, material, rho, f):
    """Displacement solving K(rho) u = f."""
    return solve_direct(assemble_state_operator(dofmap, material, rho), f)


def test_solve_state_zero_load(coarse_mesh, coarse_dofmap, material):
    u = solve_state(coarse_mesh, coarse_dofmap, material,
                    np.full(coarse_mesh.n_vertices, 0.5), np.zeros(coarse_dofmap.n_disp))
    assert np.all(u == 0.0)


def test_compliance_positive_and_monotone(bridge, coarse_mesh, coarse_dofmap, material, coarse_load):
    n = coarse_mesh.n_vertices
    u_half = solve_state(coarse_mesh, coarse_dofmap, material, np.full(n, 0.5), coarse_load)
    u_full = solve_state(coarse_mesh, coarse_dofmap, material, np.ones(n), coarse_load)
    c_half = coarse_load @ u_half
    c_full = coarse_load @ u_full
    assert c_half > 0
    assert c_full > 0
    assert c_full < c_half  # stiffer structure, lower compliance
