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
from dataclasses import asdict, dataclass
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np

from . import fem, homotopy
from .barrier import BarrierSchedule, BoxConstraints, fraction_to_boundary
from .homotopy import HomotopyProblem, NewtonConfig, SolveTrace, StepController
from .lagrangian import HessianBlocks, Lagrangian
from .mesh import bridge_domain, build_structured_mesh
from .sparse import SparseMatrix, SparsityPattern, solve_direct

if TYPE_CHECKING:  # pragma: no cover
    from .io_cli import SolverConfig

__all__ = ["KktPoint", "HomotopyAnchor", "KktSystem", "build_system", "run"]


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


@dataclass(frozen=True)
class HomotopyAnchor:
    """Frozen design-stationarity residual at the initial point.

    The state, adjoint and complementarity components of the anchored
    residual vanish by construction of the initialization, so only the
    density block is stored.
    """

    r_rho: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "r_rho", np.asarray(self.r_rho, dtype=np.float64).copy())
        self.r_rho.setflags(write=False)


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
        self.dim = 3 * self.n + 2 * self.l
        self._kkt_pattern = None  # built at the first Jacobian

    def unpack(self, v: np.ndarray) -> KktPoint:
        n, l = self.n, self.l
        v = np.asarray(v, dtype=np.float64)
        return KktPoint(
            rho=v[:n].copy(),
            u=v[n:n + l].copy(),
            p_adj=v[n + l:n + 2 * l].copy(),
            z_a=v[n + 2 * l:2 * n + 2 * l].copy(),
            z_b=v[2 * n + 2 * l:].copy(),
        )

    def initialize(self, mu0: float, rho0=0.5) -> Tuple[KktPoint, HomotopyAnchor]:
        """State/adjoint solves at the initial density, duals from mu0 / gaps.

        For the compliance objective the adjoint solve returns p = -u; that
        identity is checked by the test suite, not assumed here.
        """
        rho = np.full(self.n, float(rho0)) if np.isscalar(rho0) \
            else np.asarray(rho0, dtype=np.float64).copy()
        if not self.box.interior(rho):
            raise ValueError("initial density must be strictly interior to the box")
        k = self.lagr.state_matrix(rho)
        u = solve_direct(k, self.lagr.load)
        p = solve_direct(k, -self.lagr.load)
        z_a = mu0 / self.box.lower_gap(rho)
        z_b = mu0 / self.box.upper_gap(rho)
        point = KktPoint(rho, u, p, z_a, z_b)
        g = self.lagr.gradient(rho, u, p)
        anchor = HomotopyAnchor(g.d_rho - z_a + z_b)
        return point, anchor

    def f_box(self, point: KktPoint, mu: float) -> np.ndarray:
        """Unanchored optimality residual at barrier weight mu."""
        g = self.lagr.gradient(point.rho, point.u, point.p_adj)
        r_stat = g.d_rho - point.z_a + point.z_b
        r_low = point.z_a * self.box.lower_gap(point.rho) - mu
        r_up = point.z_b * self.box.upper_gap(point.rho) - mu
        return np.concatenate([r_stat, g.d_u, g.d_p, r_low, r_up])

    def residual(self, point: KktPoint, anchor: HomotopyAnchor, t: float,
                 schedule: BarrierSchedule) -> np.ndarray:
        """``f_box`` at mu(t), with the design row anchored by ``(1 - t) * r_rho``."""
        r = self.f_box(point, schedule.mu(t))
        r[:self.n] -= (1.0 - t) * anchor.r_rho
        return r

    def jacobian(self, point: KktPoint) -> SparseMatrix:
        """Assembled 5x5 block Jacobian, blocks ordered as ``BLOCK_NAMES``;
        independent of t, which only shifts the residual.

        Row blocks: [rr, ru, rp, -I, I], [ru^T, 0, up, 0, 0],
        [rp^T, up, 0, 0, 0], [diag z_a, 0, 0, diag gap_a, 0] and
        [-diag z_b, 0, 0, 0, diag gap_b].  The layout is fixed, so every call
        after the first is one gather from the values ``_kkt_values`` lists.
        """
        h = self.lagr.hessian(point.rho, point.u, point.p_adj)
        if self._kkt_pattern is None:
            self._kkt_pattern = _kkt_pattern(h, self.n, self.l)
        return self._kkt_pattern.fill(_kkt_values(h, point, self.box))

    def h_t(self, anchor: HomotopyAnchor, t: float, schedule: BarrierSchedule) -> np.ndarray:
        """Derivative of the traced map in t: anchor row plus the mu(t) chain rule."""
        dmu = schedule.dmu_dt(t)
        ones = np.ones(self.n)
        return np.concatenate([
            anchor.r_rho,
            np.zeros(self.l),
            np.zeros(self.l),
            -dmu * ones,
            -dmu * ones,
        ])

    def is_interior(self, point: KktPoint) -> bool:
        return self.box.interior(point.rho) and bool(
            np.all(point.z_a > 0) and np.all(point.z_b > 0))

    def homotopy_problem(self, anchor: HomotopyAnchor, schedule: BarrierSchedule,
                         damping: Optional[float] = None) -> HomotopyProblem:
        """Traced map as a generic homotopy problem.

        ``damping`` enables the fraction-to-boundary step cap on the density
        gaps and duals.  Plain full Newton steps (None) cannot pass the
        fold the discretized optimality system develops at a mesh-dependent
        barrier weight; the cap lets the corrector land on the post-fold
        branch instead of leaving the interior.
        """
        n, l = self.n, self.l

        def residual(v, t):
            return self.residual(self.unpack(v), anchor, t, schedule)

        def jacobian_x(v, t):
            return self.jacobian(self.unpack(v))

        def dh_dt(v, t):
            return self.h_t(anchor, t, schedule)

        def valid(v):
            return self.is_interior(self.unpack(v))

        step_limit = None
        if damping is not None:
            def step_limit(v, dv):
                rho = v[:n]
                z = v[n + 2 * l:]
                d_rho = dv[:n]
                dz = dv[n + 2 * l:]
                return fraction_to_boundary(
                    (self.box.lower_gap(rho), self.box.upper_gap(rho), z),
                    (d_rho, -d_rho, dz), damping)

        return HomotopyProblem(residual, jacobian_x, dh_dt, dim=self.dim,
                               iterate_valid=valid, mu_of_t=schedule.mu,
                               step_limit=step_limit)


_SIGNS = np.array([-1.0, 1.0])


def _kkt_values(h: HessianBlocks, point: KktPoint, box: BoxConstraints) -> np.ndarray:
    """Every value the KKT matrix gathers from, in the order ``_kkt_pattern`` indexes."""
    return np.concatenate([h.rr.csr.data, h.ru.csr.data, h.rp.csr.data, h.up.csr.data,
                           point.z_a, box.lower_gap(point.rho), -point.z_b,
                           box.upper_gap(point.rho), _SIGNS])


def _kkt_pattern(h: HessianBlocks, n: int, l: int) -> SparsityPattern:
    """KKT layout over the values of ``_kkt_values``.

    The blocks do not overlap, so every KKT entry gathers exactly one value,
    and the entries land where sorting the block triplets puts them.
    """
    pos = 0

    def stored(m: SparseMatrix):  # row, column and value position of each entry
        nonlocal pos
        rows = np.repeat(np.arange(m.nrows), np.diff(m.csr.indptr))
        at = pos + np.arange(m.nnz)
        pos += m.nnz
        return rows, m.csr.indices, at

    def diagonal():  # value positions of one length-n vector
        nonlocal pos
        pos += n
        return pos - n + np.arange(n)

    rr, ru, rp, up = stored(h.rr), stored(h.ru), stored(h.rp), stored(h.up)
    z_a, gap_a, minus_z_b, gap_b = diagonal(), diagonal(), diagonal(), diagonal()
    minus_one, one = np.full(n, pos), np.full(n, pos + 1)
    i = np.arange(n)
    u0, p0, za0, zb0 = n, n + l, n + 2 * l, 2 * n + 2 * l
    blocks = [  # (rows, cols, value positions)
        rr,
        (ru[0], ru[1] + u0, ru[2]), (ru[1] + u0, ru[0], ru[2]),
        (rp[0], rp[1] + p0, rp[2]), (rp[1] + p0, rp[0], rp[2]),
        (up[0] + u0, up[1] + p0, up[2]), (up[0] + p0, up[1] + u0, up[2]),
        (i, i + za0, minus_one), (i, i + zb0, one),
        (i + za0, i, z_a), (i + za0, i + za0, gap_a),
        (i + zb0, i, minus_z_b), (i + zb0, i + zb0, gap_b),
    ]
    rows, cols, source = (np.concatenate(part) for part in zip(*blocks))
    dim = 3 * n + 2 * l
    return SparsityPattern(dim, dim, rows, cols, source=source)


def build_system(config: "SolverConfig") -> Tuple[KktSystem, BarrierSchedule]:
    """Assemble mesh, operators and schedule for a solver configuration."""
    domain = bridge_domain()
    msh = build_structured_mesh(domain, config.mesh.nx, config.mesh.ny,
                                diagonal=config.mesh.diagonal)
    dofmap = fem.make_dofmap(msh)
    load = fem.assemble_traction_load(msh, dofmap, domain)
    lagr = Lagrangian(msh, dofmap, config.material, config.params, load)
    box = BoxConstraints(np.zeros(dofmap.n_density), np.ones(dofmap.n_density))
    schedule = BarrierSchedule(config.barrier.mu0, config.barrier.mu_inf,
                               kind=config.barrier.schedule)
    return KktSystem(lagr, box), schedule


def run(config: "SolverConfig",
        on_accept: Optional[Callable[[float, KktPoint], None]] = None
        ) -> Tuple[KktPoint, SolveTrace]:
    """Trace the barrier homotopy from t = 0 to 1 for the given configuration.

    ``on_accept(t, point)`` fires at the initial point and after every
    accepted step.  Returns the final point and the per-attempt trace.
    """
    system, schedule = build_system(config)
    point0, anchor = system.initialize(config.barrier.mu0)
    damping = config.newton.damping if config.newton.damping > 0 else None
    problem = system.homotopy_problem(anchor, schedule, damping=damping)
    controller = StepController(**asdict(config.stepping))
    # Dimension-independent stopping: scale the residual tolerance with the
    # square root of the system size.
    cfg = NewtonConfig(
        tol=config.newton.tol * math.sqrt(system.dim),
        max_iter=config.newton.max_iter,
        divergence_growth=config.newton.divergence_growth,
    )
    callback = None
    if on_accept is not None:
        callback = lambda t, v: on_accept(t, system.unpack(v))
    x, trace = homotopy.trace(problem, point0.pack(), controller, cfg,
                              predictor_order=config.predictor_order,
                              on_accept=callback)
    return system.unpack(x), trace
