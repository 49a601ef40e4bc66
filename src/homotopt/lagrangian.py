"""Discretized Lagrangian of the regularized compliance problem.

Objective: traction compliance plus a weighted volume term plus a phase-field
regularization (gradient energy and double-well, weights beta and 1/epsilon).
The Lagrangian adds the state equation paired with the adjoint variable.
This module evaluates L and every first and second derivative block the KKT
Newton system needs.

The derivative formulas are validated against finite-difference oracles in
the test suite; they are not trusted by derivation alone.  Note the
double-well contributes a negative-curvature term -(beta/epsilon) M to the
density Hessian: the problem is genuinely nonconvex and no convexification is
applied.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fem
from .fem import DofMap, MaterialModel, local_displacements
from .mesh import TriMesh
from .sparse import SparseMatrix

__all__ = [
    "ProblemParams",
    "GradientBlocks",
    "HessianBlocks",
    "Lagrangian",
    "default_params",
]


@dataclass(frozen=True)
class ProblemParams:
    """Objective weights: volume penalty, phase-field weight, interface width."""

    gamma: float
    beta: float
    epsilon: float

    def __post_init__(self):
        if self.gamma <= 0:
            raise ValueError("params: gamma must be positive")
        if self.beta <= 0:
            raise ValueError("params: beta must be positive")
        if self.epsilon <= 0:
            raise ValueError("params: epsilon must be positive")


def default_params() -> ProblemParams:
    return ProblemParams(gamma=9.75, beta=0.5, epsilon=0.0075)


@dataclass
class GradientBlocks:
    d_rho: np.ndarray
    d_u: np.ndarray
    d_p: np.ndarray


@dataclass
class HessianBlocks:
    """Second-derivative blocks; the u-u block vanishes for compliance and is
    not stored."""

    rr: SparseMatrix  # n x n
    ru: SparseMatrix  # n x l
    rp: SparseMatrix  # n x l
    up: SparseMatrix  # l x l, equals K(rho)


class Lagrangian:
    """Evaluates L(rho, u, p) = J(rho, u) + p . (K(rho) u - f) and its blocks.

    Density-independent operators (density stiffness/mass, hat volumes) are
    assembled once.  The state matrix K(rho) is cached for the last density
    seen, since residual and Jacobian evaluations share it.  The Hessian
    blocks are refilled on sparsity patterns fixed by the mesh: ``rr`` on the
    element pattern of ``k_rho`` and ``mass``, ``ru`` and ``rp`` on one
    density-displacement pattern built at the first Hessian.
    """

    def __init__(self, dofmap: DofMap, material: MaterialModel, params, load: np.ndarray):
        self.dofmap = dofmap
        self.material = material
        self.params = params
        self.load = np.asarray(load, dtype=np.float64)
        if self.load.shape != (dofmap.n_disp,):
            raise ValueError("load vector does not match the displacement DOF count")
        self.k_rho, self.mass, self.phi_vol = fem.assemble_gl_operators(dofmap)
        self._k_cache = (None, None)
        # beta*eps*K_rho - (beta/eps)*M on the element pattern, the constant
        # part of the density Hessian (same operation order as the sparse sum)
        self._rr_const = (params.beta * params.epsilon) * self.k_rho.csr.data \
            - (params.beta / params.epsilon) * self.mass.csr.data
        self._cross_pattern = None

    @property
    def mesh(self) -> TriMesh:
        return self.dofmap.mesh

    @property
    def n_density(self) -> int:
        return self.dofmap.n_density

    @property
    def n_disp(self) -> int:
        return self.dofmap.n_disp

    def state_matrix(self, rho: np.ndarray) -> SparseMatrix:
        cached_rho, cached_k = self._k_cache
        if cached_rho is not None and np.array_equal(cached_rho, rho):
            return cached_k
        k = fem.assemble_state_operator(self.dofmap, self.material, rho)
        self._k_cache = (np.array(rho, copy=True), k)
        return k

    def objective(self, rho: np.ndarray, u: np.ndarray) -> float:
        """Compliance + gamma * volume + (beta/2) * phase-field energy."""
        p = self.params
        grad_energy = rho @ self.k_rho.matvec(rho)
        double_well = self.phi_vol @ rho - rho @ self.mass.matvec(rho)
        return float(
            self.load @ u
            + p.gamma * (self.phi_vol @ rho)
            + 0.5 * p.beta * (p.epsilon * grad_energy + double_well / p.epsilon)
        )

    def value(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> float:
        """Full Lagrangian; element-wise evaluation, cheap enough for FD oracles."""
        geo = self.dofmap.geometry
        rho = np.asarray(rho, float)
        lam_w, mu_w = fem._effective_weights(geo, self.material, rho)
        u_loc, p_loc, div_u, div_p, _, _ = self._element_fields(rho, u, p_adj)
        gup = np.einsum("ea,eab,eb->e", u_loc, geo.gmat6, p_loc)
        p_k_u = float(np.sum(lam_w * div_u * div_p + mu_w * gup))
        return self.objective(rho, u) + p_k_u - float(np.asarray(p_adj) @ self.load)

    def gradient(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> GradientBlocks:
        rho = np.asarray(rho, dtype=np.float64)
        prm = self.params
        k = self.state_matrix(rho)
        d_rho = prm.gamma * self.phi_vol + prm.beta * (
            prm.epsilon * self.k_rho.matvec(rho)
            + (0.5 / prm.epsilon) * (self.phi_vol - 2.0 * self.mass.matvec(rho))
        )
        d_rho += self._coupling_gradient(rho, u, p_adj)
        d_u = self.load + k.matvec(p_adj)
        d_p = k.matvec(u) - self.load
        return GradientBlocks(d_rho, d_u, d_p)

    def hessian(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> HessianBlocks:
        rho = np.asarray(rho, dtype=np.float64)
        geo = self.dofmap.geometry
        pe = self.material.exponent
        dlam = self.material.lambda1 - self.material.lambda0
        dmu = self.material.mu1 - self.material.mu0

        u_loc, p_loc, div_u, div_p, rho_q, m_phi = self._element_fields(rho, u, p_adj)
        g_u = np.einsum("eab,eb->ea", geo.gmat6, u_loc)
        g_p = np.einsum("eab,eb->ea", geo.gmat6, p_loc)
        w = dlam * div_u * div_p + dmu * np.einsum("ea,ea->e", u_loc, g_p)

        # int_T rho^(p-2) phi_i phi_j
        m_phiphi = geo.area[:, None, None] * np.einsum(
            "eq,q,qi,qj->eij", rho_q ** (pe - 2.0), fem.QUAD_W, fem.QUAD_BARY, fem.QUAD_BARY)

        s_vals = (pe * (pe - 1.0)) * m_phiphi * w[:, None, None]
        rr = geo.pattern.matrix(self._rr_const + geo.pattern.reduce(s_vals))

        ru = self._coupling_cross(geo, pe, m_phi, dlam, dmu, div_p, g_p)
        rp = self._coupling_cross(geo, pe, m_phi, dlam, dmu, div_u, g_u)
        return HessianBlocks(rr=rr, ru=ru, rp=rp, up=self.state_matrix(rho))

    def _element_fields(self, rho, u, p_adj):
        """Per element: local u and p, their divergences, rho at the
        quadrature points and int_T rho^(p-1) phi_i."""
        geo = self.dofmap.geometry
        u_loc = local_displacements(self.dofmap, np.asarray(u, dtype=np.float64))
        p_loc = local_displacements(self.dofmap, np.asarray(p_adj, dtype=np.float64))
        div_u = np.einsum("ea,ea->e", geo.div6, u_loc)
        div_p = np.einsum("ea,ea->e", geo.div6, p_loc)
        rho_q = rho[geo.tri] @ fem.QUAD_BARY.T
        m_phi = geo.area[:, None] * np.einsum(
            "eq,q,qi->ei", rho_q ** (self.material.exponent - 1.0), fem.QUAD_W, fem.QUAD_BARY)
        return u_loc, p_loc, div_u, div_p, rho_q, m_phi

    def _coupling_gradient(self, rho, u, p_adj) -> np.ndarray:
        geo = self.dofmap.geometry
        pe = self.material.exponent
        dlam = self.material.lambda1 - self.material.lambda0
        dmu = self.material.mu1 - self.material.mu0
        u_loc, p_loc, div_u, div_p, _, m_phi = self._element_fields(rho, u, p_adj)
        gup = np.einsum("ea,eab,eb->e", u_loc, geo.gmat6, p_loc)
        w = dlam * div_u * div_p + dmu * gup
        out = np.zeros(self.n_density)
        np.add.at(out, geo.tri.ravel(), (pe * m_phi * w[:, None]).ravel())
        return out

    def _coupling_cross(self, geo, pe, m_phi, dlam, dmu, div_other, g_other) -> SparseMatrix:
        """Mixed density-displacement block: rows are density DOFs, columns the
        displacement modes, with the other adjoint/state field held fixed."""
        bracket = dlam * geo.div6 * div_other[:, None] + dmu * g_other  # (E, 6)
        vals = pe * m_phi[:, :, None] * bracket[:, None, :]             # (E, 3, 6)
        if self._cross_pattern is None:
            self._cross_pattern = fem.element_pattern(
                self.n_density, self.n_disp, geo.tri, self.dofmap.element_dofs)
        return self._cross_pattern.fill(vals)
