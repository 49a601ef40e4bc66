"""Combined barrier-homotopy driver for the discretized compliance problem.

The unknown is the stacked tuple (rho, u, p, z_a, z_b).  The target problem
is the primal-dual optimality system of the box-constrained design problem
with the state and adjoint rows inlined.  The traced map anchors the
design-stationarity row at the initial point, weighted by (1 - t), while the
barrier weight follows the continuation parameter through the schedule; the
state, adjoint and complementarity rows need no anchor because the
initialization zeroes them by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from . import fem, homotopy
from .barrier import (BarrierSchedule, BoxConstraints, DualPair, fraction_to_boundary,
                      pd_residual_box, set_box_duals)
from .homotopy import HomotopyProblem, SolveTrace
from .lagrangian import Lagrangian
from .mesh import bridge_domain, build_structured_mesh
from .sparse import BlockSystem, SparseMatrix, solve_direct

if TYPE_CHECKING:  # pragma: no cover
    from .io_cli import SolverConfig

__all__ = ["KktPoint", "KktSystem", "build_system", "run"]


@dataclass
class KktPoint:
    """Full unknown of the barrier-homotopy system."""

    rho: np.ndarray
    u: np.ndarray
    p_adj: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate([self.rho, self.u, self.p_adj, self.z_a, self.z_b])


class KktSystem:
    """Residual and Jacobian of the 5-block perturbed optimality system."""

    BLOCK_NAMES = ("rho", "u", "p", "z_a", "z_b")

    def __init__(self, lagr: Lagrangian, box: BoxConstraints):
        if box.n != lagr.n_density:
            raise ValueError("box constraint dimension must match the density DOFs")
        self.lagr = lagr
        self.box = box
        self.n = lagr.n_density
        self.l = lagr.n_disp
        self.sizes = (self.n, self.l, self.l, self.n, self.n)
        self.dim = sum(self.sizes)
        self._splits = np.cumsum(self.sizes)[:-1]
        self._blocks = BlockSystem(self.BLOCK_NAMES, self.sizes)

    def unpack(self, v: np.ndarray) -> KktPoint:
        """The blocks of ``v`` as a point; its arrays are views into ``v``."""
        return KktPoint(*np.split(np.asarray(v, dtype=np.float64), self._splits))

    def initialize(self, mu0: float) -> Tuple[KktPoint, np.ndarray]:
        """State/adjoint solves at the uniform density 0.5, duals from
        mu0 / gaps; returns the point and, as the anchor, its design-row
        residual, read-only.

        For the compliance objective the adjoint solve returns p = -u; that
        identity is checked by the test suite, not assumed here.
        """
        rho = np.full(self.n, 0.5)
        k = self.lagr.state_matrix(rho)
        u, p = solve_direct(k, np.column_stack([self.lagr.load, -self.lagr.load])).T.copy()
        z_a = mu0 / self.box.lower_gap(rho)
        z_b = mu0 / self.box.upper_gap(rho)
        point = KktPoint(rho, u, p, z_a, z_b)
        g = self.lagr.gradient(rho, u, p)
        anchor = g.d_rho - z_a + z_b
        anchor.setflags(write=False)
        return point, anchor

    def f_box(self, point: KktPoint, mu: float) -> np.ndarray:
        """Unanchored optimality residual at barrier weight mu."""
        g = self.lagr.gradient(point.rho, point.u, point.p_adj)
        r = pd_residual_box(g.d_rho, point.rho, self.box, DualPair(point.z_a, point.z_b), mu)
        r_stat, r_low, r_up = np.split(r, 3)
        return KktPoint(r_stat, g.d_u, g.d_p, r_low, r_up).pack()

    def residual(self, point: KktPoint, anchor: np.ndarray, t: float,
                 schedule: BarrierSchedule) -> np.ndarray:
        """``f_box`` at mu(t), with the design row anchored by ``(1 - t) * anchor``."""
        r = self.f_box(point, schedule.mu(t))
        self.unpack(r).rho -= (1.0 - t) * anchor
        return r

    def jacobian(self, point: KktPoint) -> SparseMatrix:
        """Assembled 5x5 block Jacobian, blocks ordered as ``BLOCK_NAMES``;
        independent of t, which only shifts the residual.

        Row blocks: [rr, ru, rp, -I, I], [ru^T, 0, up, 0, 0],
        [rp^T, up, 0, 0, 0], [diag z_a, 0, 0, diag gap_a, 0] and
        [-diag z_b, 0, 0, 0, diag gap_b] (``up`` = K(rho) is symmetric).
        The layout is fixed, so the block system sorts it once.
        """
        h = self.lagr.hessian(point.rho, point.u, point.p_adj)
        blocks = self._blocks
        blocks.set("rho", "rho", h.rr)
        blocks.set("rho", "u", h.ru, mirror=True)
        blocks.set("rho", "p", h.rp, mirror=True)
        blocks.set("u", "p", h.up, mirror=True)
        set_box_duals(blocks, "rho", point.rho, self.box, DualPair(point.z_a, point.z_b))
        return blocks.assemble()

    def h_t(self, anchor: np.ndarray, t: float, schedule: BarrierSchedule) -> np.ndarray:
        """Derivative of the traced map in t: anchor row plus the mu(t) chain rule."""
        dz = np.full(self.n, -schedule.dmu_dt(t))
        zeros = np.zeros(self.l)
        return KktPoint(anchor, zeros, zeros, dz, dz).pack()

    def is_interior(self, point: KktPoint) -> bool:
        return self.box.interior(point.rho) and bool(
            np.all(point.z_a > 0) and np.all(point.z_b > 0))

    def homotopy_problem(self, anchor: np.ndarray, schedule: BarrierSchedule,
                         damping: float) -> HomotopyProblem:
        """Traced map as a generic homotopy problem.

        A positive ``damping`` enables the fraction-to-boundary step cap on
        the density gaps and duals.  Plain full Newton steps (0) cannot pass the
        fold the discretized optimality system develops at a mesh-dependent
        barrier weight; the cap lets the corrector land on the post-fold
        branch instead of leaving the interior.
        """
        def residual(v, t):
            return self.residual(self.unpack(v), anchor, t, schedule)

        def jacobian_x(v, t):
            return self.jacobian(self.unpack(v))

        def dh_dt(v, t):
            return self.h_t(anchor, t, schedule)

        def valid(v):
            return self.is_interior(self.unpack(v))

        step_limit = None
        if damping > 0:
            def step_limit(v, dv):
                x, dx = self.unpack(v), self.unpack(dv)
                return fraction_to_boundary(
                    (self.box.lower_gap(x.rho), self.box.upper_gap(x.rho), x.z_a, x.z_b),
                    (dx.rho, -dx.rho, dx.z_a, dx.z_b), damping)

        return HomotopyProblem(residual, jacobian_x, dh_dt,
                               iterate_valid=valid, mu_of_t=schedule.mu,
                               step_limit=step_limit)


def build_system(config: "SolverConfig") -> Tuple[KktSystem, BarrierSchedule]:
    """Assemble mesh, operators and schedule for a solver configuration."""
    domain = bridge_domain()
    msh = build_structured_mesh(domain, config.mesh.nx, config.mesh.ny,
                                diagonal=config.mesh.diagonal)
    dofmap = fem.make_dofmap(msh)
    load = fem.assemble_traction_load(dofmap, domain)
    lagr = Lagrangian(dofmap, config.material, config.params, load)
    box = BoxConstraints(np.zeros(dofmap.n_density), np.ones(dofmap.n_density))
    return KktSystem(lagr, box), config.barrier


def run(config: "SolverConfig",
        on_accept: Optional[Callable[[float, KktPoint], None]] = None
        ) -> Tuple[KktPoint, SolveTrace]:
    """Trace the barrier homotopy from t = 0 to 1 for the given configuration.

    ``on_accept(t, point)`` fires at the initial point and after every
    accepted step.  Returns the final point and the per-attempt trace.
    """
    system, schedule = build_system(config)
    point0, anchor = system.initialize(schedule.mu0)
    problem = system.homotopy_problem(anchor, schedule, damping=config.newton.damping)
    # Dimension-independent stopping: scale the residual tolerance with the
    # square root of the system size.
    cfg = replace(config.newton, tol=config.newton.tol * math.sqrt(system.dim))
    callback = None
    if on_accept is not None:
        callback = lambda t, v: on_accept(t, system.unpack(v))
    x, trace = homotopy.trace(problem, point0.pack(), config.stepping, cfg,
                              predictor_order=config.predictor_order,
                              on_accept=callback)
    return system.unpack(x), trace
