"""Discretized Lagrangian of the regularized compliance problem.

Objective: traction compliance plus a weighted volume term plus a phase-field
regularization (gradient energy and double-well, weights beta and 1/epsilon).
The Lagrangian adds the state equation paired with the adjoint variable.
This module evaluates L and its first and second derivative blocks.  The
objective is linear in u and K(rho) is symmetric, so d2L/drho dp at (rho, u,
p) is d2L/drho du at (rho, p, u), bitwise: only the latter, ``ru``, is built.

The derivative formulas are validated against finite-difference oracles in
the test suite; they are not trusted by derivation alone.  Note the
double-well contributes a negative-curvature term -(beta/epsilon) M to the
density Hessian: the problem is genuinely nonconvex and no convexification is
applied.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from . import fem
from .fem import DofMap, MaterialModel, local_displacements
from .mesh import TriMesh
from .sparse import SparsityPattern

__all__ = [
    "ProblemParams",
    "GradientBlocks",
    "HessianBlocks",
    "Lagrangian",
    "default_params",
]

# Quadrature tables: row q holds W_q B_qi, and W_q B_qi B_qj flattened over
# (i, j), so int_T rho^k phi_i = area * (rho_q^k @ _W_PHI) and
# int_T rho^k phi_i phi_j = area * (rho_q^k @ _W_PHIPHI), for rho_q the
# density at the quadrature points of T.
_W_PHI = fem.QUAD_W[:, None] * fem.QUAD_BARY  # (Q, 3)
_W_PHIPHI = (_W_PHI[:, :, None] * fem.QUAD_BARY[:, None, :]).reshape(-1, 9)  # (Q, 9)


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
    """Second-derivative blocks.  The u-u block vanishes for compliance.  The
    rho-p block is ``hessian(rho, p, u).ru``, since the objective is linear in
    u and K(rho) is symmetric.  Neither is stored."""

    rr: sp.csr_matrix  # n x n
    ru: sp.csr_matrix  # n x l
    up: sp.csr_matrix  # l x l, equals K(rho)


class Lagrangian:
    """Evaluates L(rho, u, p) = J(rho, u) + p . (K(rho) u - f) and its blocks.

    Density-independent operators (density stiffness/mass, hat volumes) are
    assembled once.  The state matrix K(rho) is cached for the last density,
    and the element fields for the last (rho, u, p), so the gradient and the
    Hessian at one point share them; each key is a copy, compared by value.
    ``rr`` is refilled on the element pattern of ``k_rho`` and ``mass``,
    ``ru`` on :attr:`cross_pattern`, both from :meth:`hessian_elements`.
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
        self._field_cache = (None, None)
        # beta*eps*K_rho - (beta/eps)*M on the element pattern, the constant
        # part of the density Hessian (same operation order as the sparse sum)
        self.rr_const = (params.beta * params.epsilon) * self.k_rho.data \
            - (params.beta / params.epsilon) * self.mass.data
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

    def state_matrix(self, rho: np.ndarray) -> sp.csr_matrix:
        cached_rho, cached_k = self._k_cache
        if cached_rho is not None and np.array_equal(cached_rho, rho):
            return cached_k
        k = fem.assemble_state_operator(self.dofmap, self.material, rho)
        self._k_cache = (np.array(rho, copy=True), k)
        return k

    def objective(self, rho: np.ndarray, u: np.ndarray) -> float:
        """Compliance + gamma * volume + (beta/2) * phase-field energy."""
        p = self.params
        grad_energy = rho @ (self.k_rho @ rho)
        double_well = self.phi_vol @ rho - rho @ (self.mass @ rho)
        return float(
            self.load @ u
            + p.gamma * (self.phi_vol @ rho)
            + 0.5 * p.beta * (p.epsilon * grad_energy + double_well / p.epsilon)
        )

    def value(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> float:
        """Full Lagrangian; element-wise evaluation, cheap enough for FD oracles."""
        rho = np.asarray(rho, float)
        lam_w, mu_w = fem._effective_weights(self.dofmap.geometry, self.material, rho)
        f = self._element_fields(rho, u, p_adj)
        p_k_u = float(np.sum(lam_w * f.div_u * f.div_p + mu_w * f.gup))
        return self.objective(rho, u) + p_k_u - float(np.asarray(p_adj) @ self.load)

    def gradient(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> GradientBlocks:
        rho = np.asarray(rho, dtype=np.float64)
        prm = self.params
        k = self.state_matrix(rho)
        d_rho = prm.gamma * self.phi_vol + prm.beta * (
            prm.epsilon * (self.k_rho @ rho)
            + (0.5 / prm.epsilon) * (self.phi_vol - 2.0 * (self.mass @ rho))
        )
        f = self._element_fields(rho, u, p_adj)
        d_rho += np.bincount(self.dofmap.geometry.tri.ravel(),
                             weights=(self.material.exponent * f.m_phi * f.w[:, None]).ravel(),
                             minlength=self.n_density)
        d_u = self.load + k @ p_adj
        d_p = k @ u - self.load
        return GradientBlocks(d_rho, d_u, d_p)

    def hessian(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray) -> HessianBlocks:
        rr, ru = self.hessian_elements(rho, u, p_adj)
        pattern = self.dofmap.geometry.pattern
        return HessianBlocks(rr=pattern.matrix(self.rr_const + pattern.reduce(rr)),
                             ru=self.cross_pattern.fill(ru), up=self.state_matrix(rho))

    def hessian_elements(self, rho: np.ndarray, u: np.ndarray, p_adj: np.ndarray):
        """Element values of the Hessian's rr and ru blocks: ``(E, 3, 3)``
        values whose sum on the density pattern, plus :attr:`rr_const`
        (``beta*eps*k_rho - (beta/eps)*mass``), is rr, and ``(E, 3, 6)``
        values whose sum on :attr:`cross_pattern` is ru."""
        rho = np.asarray(rho, dtype=np.float64)
        geo = self.dofmap.geometry
        pe = self.material.exponent
        f = self._element_fields(rho, u, p_adj)
        # int_T rho^(p-2) phi_i phi_j
        m_phiphi = geo.area[:, None, None] * (f.rho_q ** (pe - 2.0) @ _W_PHIPHI).reshape(-1, 3, 3)
        rr = (pe * (pe - 1.0)) * m_phiphi * f.w[:, None, None]
        return rr, self._coupling_cross(f)

    @property
    def cross_pattern(self) -> SparsityPattern:
        """Layout of ru from its (E, 3, 6) element values: rows are density
        DOFs, columns displacement DOFs; expanded from the density pattern at
        first use."""
        if self._cross_pattern is None:
            self._cross_pattern = SparsityPattern.expanded(
                self.dofmap.geometry.pattern, (3, 3), np.arange(self.n_density)[:, None],
                self.dofmap.disp_index)
        return self._cross_pattern

    def _element_fields(self, rho, u, p_adj) -> "_ElementFields":
        """The element fields at (rho, u, p), kept for the last point asked."""
        key, fields = self._field_cache
        if key is not None and all(np.array_equal(k, v) for k, v in zip(key, (rho, u, p_adj))):
            return fields
        geo = self.dofmap.geometry
        u = np.asarray(u, dtype=np.float64)
        p_adj = np.asarray(p_adj, dtype=np.float64)
        u_loc = local_displacements(self.dofmap, u)
        p_loc = local_displacements(self.dofmap, p_adj)
        div_u = np.einsum("ea,ea->e", geo.div6, u_loc)
        div_p = np.einsum("ea,ea->e", geo.div6, p_loc)
        g_p = np.einsum("eab,eb->ea", geo.gmat6, p_loc)
        gup = np.einsum("ea,ea->e", u_loc, g_p)
        dlam = self.material.lambda1 - self.material.lambda0
        dmu = self.material.mu1 - self.material.mu0
        rho_q = rho[geo.tri] @ fem.QUAD_BARY.T
        m_phi = geo.area[:, None] * (rho_q ** (self.material.exponent - 1.0) @ _W_PHI)
        fields = _ElementFields(div_u, div_p, g_p, gup, dlam * div_u * div_p + dmu * gup,
                                rho_q, m_phi)
        for v in fields:
            v.setflags(write=False)
        self._field_cache = (tuple(np.array(v, dtype=np.float64) for v in (rho, u, p_adj)), fields)
        return fields

    def _coupling_cross(self, f: "_ElementFields") -> np.ndarray:
        """Element values of the mixed density-displacement block ``ru``,
        with the adjoint field held fixed."""
        dlam = self.material.lambda1 - self.material.lambda0
        dmu = self.material.mu1 - self.material.mu0
        bracket = dlam * self.dofmap.geometry.div6 * f.div_p[:, None] + dmu * f.g_p  # (E, 6)
        return self.material.exponent * f.m_phi[:, :, None] * bracket[:, None, :]  # (E, 3, 6)


class _ElementFields(NamedTuple):
    """Per element at one (rho, u, p): the divergences of u and p, G p and
    u . G p (G the element's ``gmat6``), their weight ``w`` in the coupling
    terms, rho at the quadrature points and int_T rho^(p-1) phi_i."""

    div_u: np.ndarray
    div_p: np.ndarray
    g_p: np.ndarray
    gup: np.ndarray
    w: np.ndarray
    rho_q: np.ndarray
    m_phi: np.ndarray
