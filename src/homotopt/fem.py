"""P1 finite element operators for density-dependent plane elasticity.

State operator: the stiffness matrix of the elasticity form with Lame moduli
interpolated as ``m0 + rho^p (m1 - m0)`` from the vertex density field.
Also assembles the traction load and the density-space mass/stiffness pair
used by the phase-field regularization.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .mesh import EdgeTag, TriMesh, DomainSpec, dirichlet_vertex_set
# solve_direct is unused here; perfbench/tracer.py wraps it in this module.
from .sparse import SparsityPattern, solve_direct

__all__ = [
    "MaterialModel",
    "DofMap",
    "default_material",
    "make_dofmap",
    "element_pattern",
    "assemble_state_operator",
    "assemble_traction_load",
    "assemble_gl_operators",
    "QUAD_BARY",
    "QUAD_W",
]

# Six-point symmetric triangle rule, exact through polynomial degree 4.
# The density is P1, so with the default interpolation exponent 3 every
# density-dependent volume term (rho^3, rho^2 phi_i, rho phi_i phi_j) is
# integrated exactly.  The identical rule is applied in all derivative
# assemblies; residual and Jacobian therefore discretize the same function.
_QA = 0.445948490915965
_QB = 0.091576213509771
QUAD_BARY = np.array(
    [
        [1.0 - 2.0 * _QA, _QA, _QA],
        [_QA, 1.0 - 2.0 * _QA, _QA],
        [_QA, _QA, 1.0 - 2.0 * _QA],
        [1.0 - 2.0 * _QB, _QB, _QB],
        [_QB, 1.0 - 2.0 * _QB, _QB],
        [_QB, _QB, 1.0 - 2.0 * _QB],
    ]
)
QUAD_W = np.array([0.223381589678011] * 3 + [0.109951743655322] * 3)

# Exact P1 mass matrix on the reference triangle, scaled by area later.
_MASS3 = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class MaterialModel:
    """Two-phase Lame moduli with power-law interpolation in the density."""

    lambda0: float
    lambda1: float
    mu0: float
    mu1: float
    exponent: float = 3.0

    def __post_init__(self):
        if min(self.lambda0, self.lambda1, self.mu0, self.mu1) <= 0:
            raise ValueError("material: all moduli must be positive")
        if self.lambda1 <= self.lambda0 or self.mu1 <= self.mu0:
            raise ValueError("material: phase-1 moduli must exceed phase-0 moduli")
        if self.exponent < 1:
            raise ValueError("material: exponent must be at least 1")


def default_material() -> MaterialModel:
    """Stiff phase and near-void ersatz phase, four orders of magnitude apart."""
    return MaterialModel(lambda0=7.498e-5, lambda1=0.750, mu0=3.750e-5, mu1=0.375)


@dataclass(frozen=True, eq=False)
class _ElementTables:
    tri: np.ndarray    # (E, 3)
    area: np.ndarray   # (E,)
    grads: np.ndarray  # (E, 3, 2) hat-function gradients
    div6: np.ndarray   # (E, 6) divergence of the six local displacement modes
    dmat6: np.ndarray  # (E, 6, 6) div outer div
    gmat6: np.ndarray  # (E, 6, 6) 2 E(psi_a):E(psi_b)
    gg: np.ndarray     # (E, 3, 3) hat-gradient inner products
    pattern: SparsityPattern  # density-space layout of the (E, 3, 3) element blocks


@dataclass(frozen=True, eq=False)
class DofMap:
    """Vertex density DOFs plus reduced displacement DOFs on ``mesh``, with
    the element layouts they fix.

    Clamped vertices carry no displacement index (entry -1); the remaining
    vertices get two consecutive indices in vertex order.  ``element_dofs``
    lists each element's six local displacement modes in that numbering, and
    ``state_pattern`` is the layout of K(rho) from its (E, 6, 6) element
    blocks.
    """

    mesh: TriMesh
    n_density: int
    disp_index: np.ndarray  # (n_v, 2), -1 on clamped vertices
    n_disp: int
    geometry: _ElementTables
    element_dofs: np.ndarray  # (E, 6), -1 on clamped modes
    state_pattern: SparsityPattern

    def __post_init__(self):
        self.disp_index.setflags(write=False)
        self.element_dofs.setflags(write=False)


def make_dofmap(mesh: TriMesh) -> DofMap:
    """Number the free displacement DOFs and derive the element layouts of
    ``mesh`` once; every assembly on this map reads them.

    The free dofs are numbered 0, 1, ..., k - 1 in vertex, then component
    order, so K(rho)'s layout is expanded from the density pattern
    (``SparsityPattern.expanded``), the one element layout of a mesh that is
    sorted."""
    free = np.ones(mesh.n_vertices, dtype=bool)
    free[list(dirichlet_vertex_set(mesh))] = False
    disp = np.full((mesh.n_vertices, 2), -1, dtype=np.int64)
    k = 2 * int(np.count_nonzero(free))
    disp[free] = np.arange(k, dtype=np.int64).reshape(-1, 2)
    geo = _element_tables(mesh)
    return DofMap(mesh=mesh, n_density=mesh.n_vertices, disp_index=disp, n_disp=k, geometry=geo,
                  element_dofs=disp[geo.tri].reshape(-1, 6),
                  state_pattern=SparsityPattern.expanded(geo.pattern, (3, 3), disp, disp))


def element_pattern(nrows: int, ncols: int, row_dofs: np.ndarray,
                    col_dofs: np.ndarray) -> SparsityPattern:
    """Layout of (E, a, b) element blocks: entry (e, i, j) goes to
    ``(row_dofs[e, i], col_dofs[e, j])``, and entries with a negative
    (clamped) index are dropped.  Duplicates sum in (element, row, column)
    order, so a refill is bit-identical to assembling the same triplets."""
    shape = (row_dofs.shape[0], row_dofs.shape[1], col_dofs.shape[1])
    rows = np.broadcast_to(row_dofs[:, :, None], shape)
    cols = np.broadcast_to(col_dofs[:, None, :], shape)
    keep = (rows >= 0) & (cols >= 0)
    return SparsityPattern(nrows, ncols, rows, cols, keep=keep)


def _element_tables(mesh: TriMesh) -> _ElementTables:
    """Per-element geometry of ``mesh`` and its density-space pattern."""
    tri = np.asarray(mesh.triangles, dtype=np.int64)
    v0 = mesh.vertices[tri[:, 0]]
    v1 = mesh.vertices[tri[:, 1]]
    v2 = mesh.vertices[tri[:, 2]]
    d1 = v1 - v0
    d2 = v2 - v0
    det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
    area = 0.5 * det
    ne = tri.shape[0]
    grads = np.empty((ne, 3, 2))
    grads[:, 0, 0] = v1[:, 1] - v2[:, 1]
    grads[:, 0, 1] = v2[:, 0] - v1[:, 0]
    grads[:, 1, 0] = v2[:, 1] - v0[:, 1]
    grads[:, 1, 1] = v0[:, 0] - v2[:, 0]
    grads[:, 2, 0] = v0[:, 1] - v1[:, 1]
    grads[:, 2, 1] = v1[:, 0] - v0[:, 0]
    grads /= det[:, None, None]
    div6 = grads.reshape(ne, 6)
    dmat6 = np.einsum("ea,eb->eab", div6, div6)
    gg = np.einsum("eik,ejk->eij", grads, grads)
    gmat6 = np.zeros((ne, 6, 6))
    gmat6[:, 0::2, 0::2] = gg
    gmat6[:, 1::2, 1::2] = gg
    # (e, i, a, j, b) = grads[e, i, b] * grads[e, j, a]
    gmat6 += (grads[:, :, None, None, :] * grads.transpose(0, 2, 1)[:, None, :, :, None]
              ).reshape(ne, 6, 6)
    pattern = element_pattern(mesh.n_vertices, mesh.n_vertices, tri, tri)
    return _ElementTables(tri, area, grads, div6, dmat6, gmat6, gg, pattern)


def local_displacements(dofmap: DofMap, vec: np.ndarray) -> np.ndarray:
    """Gather a reduced displacement vector to (E, 6) local values, zero where clamped."""
    idx = dofmap.element_dofs
    out = vec[np.maximum(idx, 0)]
    out[idx < 0] = 0.0
    return out


def _effective_weights(geo: _ElementTables, material: MaterialModel, rho: np.ndarray):
    """Per-element integrals of the interpolated moduli: int_T lambda(rho), int_T mu(rho)."""
    rho_q = rho[geo.tri] @ QUAD_BARY.T  # (E, Q)
    int_rho_p = geo.area * ((rho_q ** material.exponent) @ QUAD_W)
    lam_w = material.lambda0 * geo.area + (material.lambda1 - material.lambda0) * int_rho_p
    mu_w = material.mu0 * geo.area + (material.mu1 - material.mu0) * int_rho_p
    return lam_w, mu_w


def assemble_state_operator(dofmap: DofMap, material: MaterialModel,
                            rho: np.ndarray) -> sp.csr_matrix:
    """Reduced elasticity stiffness K(rho) on the free displacement DOFs."""
    geo = dofmap.geometry
    rho = np.asarray(rho, dtype=np.float64)
    lam_w, mu_w = _effective_weights(geo, material, rho)
    ke = lam_w[:, None, None] * geo.dmat6 + mu_w[:, None, None] * geo.gmat6
    return dofmap.state_pattern.fill(ke)


def assemble_traction_load(dofmap: DofMap, spec: DomainSpec) -> np.ndarray:
    """Edge-wise P1 trace integral of the traction over the loaded boundary
    of the dofmap's mesh."""
    mesh = dofmap.mesh
    g = np.asarray(spec.traction, dtype=np.float64)
    edges = mesh.boundary_edges[mesh.boundary_tags == int(EdgeTag.NEUMANN_TRACTION)]
    h = np.linalg.norm(mesh.vertices[edges[:, 1]] - mesh.vertices[edges[:, 0]], axis=1)
    # each edge's terms for (end, direction), in edge order: every entry sums
    # its terms left to right from +0.0, as a loop over the edges would
    dofs = dofmap.disp_index[edges]
    terms = np.broadcast_to((0.5 * h)[:, None, None] * g, dofs.shape)
    keep = dofs >= 0
    return np.bincount(dofs[keep], weights=terms[keep], minlength=dofmap.n_disp)


def assemble_gl_operators(dofmap: DofMap):
    """Density-space stiffness, mass, and hat-function volume vector.

    Returns ``(k_rho, mass, phi_vol)`` with ``phi_vol[i]`` the integral of the
    i-th hat function; entries sum to the domain area.
    """
    geo = dofmap.geometry
    n = dofmap.n_density
    k_rho = geo.pattern.fill(geo.area[:, None, None] * geo.gg)
    mass = geo.pattern.fill(geo.area[:, None, None] * _MASS3)
    phi_vol = np.bincount(geo.tri.ravel(), weights=np.repeat(geo.area / 3.0, 3), minlength=n)
    return k_rho, mass, phi_vol
