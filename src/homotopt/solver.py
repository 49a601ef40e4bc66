"""Combined barrier-homotopy driver for the discretized compliance problem.

The target problem is the primal-dual optimality system of the
box-constrained design problem with the state and adjoint rows inlined.  The
traced map anchors the design-stationarity row at the initial point, weighted
by (1 - t), while the barrier weight follows the continuation parameter
through the schedule; the state, adjoint and complementarity rows need no
anchor because the initialization zeroes them by construction.

The compliance objective is self-adjoint, so the adjoint p = -u solves the
adjoint equation wherever u solves the state equation.  The traced unknown is
therefore (rho, u, z_a, z_b), and a point unpacked from it has p = -u.  The
residual stacks the rho, adjoint (u), z_a and z_b rows first and the state
rows last; with p = -u the state rows are the adjoint rows negated, bitwise,
so every Newton and tangent system is the leading square block of the
residual's Jacobian.

That block is never built.  With p = -u its (rho, u) block is
``ru - rp = 2 ru``; eliminating z_a and z_b and taking w = 2 du as the
unknown leaves the condensed Jacobian, the symmetric quasi-definite matrix
``M = [[rr + Sigma, ru], [ru^T, -K/2]]`` of dimension n + l, with
``Sigma = z_a / gap_a + z_b / gap_b`` (Nocedal & Wright, *Numerical
Optimization*, ch. 19).  M's inertia is that of the reduced Hessian
``S = rr + Sigma + 2 ru K^-1 ru^T`` plus l negative eigenvalues.

The bridge problem is symmetric under the mirror x -> width - x of the
``mirrored`` mesh, which maps rho to rho o mirror, u_x to -u_x o mirror and
u_y to u_y o mirror.  In an orthonormal basis [Q_s, Q_a] of the symmetric
and antisymmetric vectors, M splits into ``M_s = Q_s^T M Q_s`` and
``M_a = Q_a^T M Q_a`` up to rounding (Werner & Spence, SIAM J. Numer. Anal.
21, 1984), and at a symmetric point every Newton and tangent step lies in
the range of Q_s.  So every step factors only M_s, of about half M's
dimension, by diagonal pivoting on one fill-reducing order for the run,
solves ``Q_s M_s^-1 Q_s^T``, and recovers dz_a and dz_b from drho by two
diagonal scalings; rho, z_a and z_b stay symmetric bitwise along the run.
Each factorization reports S's negative count in the symmetric class, which
the corrector reads to notice that it left the minimizer branch, and the run
factors M_a once, at its final point, to report the antisymmetric class too.
A mesh without a mirror takes Q_s = I: M_s is M.

One :class:`~homotopt.sparse.BlockSystem` per system, built at the first
factorization from the layouts of rr, ru and K and the operator from
z = [rr's element values, 1, Sigma, ru's element values, K's data] to
their data, gives M and every factored M_s and M_a as one product of an
operator with z: no rr, ru or M matrix is built along a run.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from . import fem, homotopy
from .barrier import (BarrierSchedule, BoxConstraints, DualPair, fraction_to_boundary,
                      pd_residual_box)
from .fem import DofMap
from .homotopy import Factor, HomotopyProblem, SolveTrace
from .lagrangian import Lagrangian
from .mesh import TriMesh, bridge_domain, build_structured_mesh
from .sparse import BlockSystem, SingularMatrixError, Subspace, solve_direct

if TYPE_CHECKING:  # pragma: no cover
    from .io_cli import SolverConfig

__all__ = ["KktPoint", "KktSystem", "build_system", "mirror_subspaces", "run"]


@dataclass
class KktPoint:
    """A point of the barrier-homotopy system; the traced unknown leaves out
    ``p_adj``."""

    rho: np.ndarray
    u: np.ndarray
    p_adj: np.ndarray
    z_a: np.ndarray
    z_b: np.ndarray

    def pack(self) -> np.ndarray:
        return np.concatenate([self.rho, self.u, self.z_a, self.z_b])


class KktSystem:
    """Perturbed optimality system in the unknown (rho, u, z_a, z_b): its
    residual, with the state rows last, and the solve of the other rows
    through their condensed Jacobian M."""

    def __init__(self, lagr: Lagrangian, box: BoxConstraints):
        if box.n != lagr.n_density:
            raise ValueError("box constraint dimension must match the density DOFs")
        self.lagr = lagr
        self.box = box
        self.n = lagr.n_density
        self.l = lagr.n_disp
        self.dim = 3 * self.n + 2 * self.l  # residual length
        # every Hessian's rr is refilled on the density pattern: the positions
        # of its diagonal in the CSR data are fixed for the run
        pattern = lagr.dofmap.geometry.pattern
        rows = np.repeat(np.arange(self.n), np.diff(pattern.indptr))
        self._rr_diagonal = np.flatnonzero(pattern.indices == rows)
        if self._rr_diagonal.size != self.n:
            raise ValueError("the density Hessian's pattern lacks diagonal entries")
        self._mirror = lagr.dofmap.mesh.mirror
        (self._symmetric, self._l_s), self._antisymmetric = mirror_subspaces(lagr.dofmap)
        self._q_w = None  # Q_w and Q_w^T, on a mesh with a mirror
        if self._mirror is not None:
            _check_load_symmetry(lagr.dofmap, lagr.load)
            # Q_s's displacement rows and last l_s (w) columns
            column = self._symmetric.column[self.n:]
            rows = np.flatnonzero(column >= 0)
            cols = column[rows] - (self._symmetric.size - self._l_s)
            weight = self._symmetric.weight[self.n:][rows]
            self._q_w = (sp.csr_matrix((weight, (rows, cols)), shape=(self.l, self._l_s)),
                         sp.csr_matrix((weight, (cols, rows)), shape=(self._l_s, self.l)))
        self._blocks = None  # M's block system, built at first use

    def _split(self, v: np.ndarray):
        """Views of ``v``'s rho, u, z_a and z_b blocks; ``v`` has dim - l entries."""
        v = np.asarray(v, dtype=np.float64)
        if v.shape != (self.dim - self.l,):
            raise ValueError(f"vector of length {self.dim - self.l} (rho, u, z_a, z_b) "
                             f"expected, got shape {v.shape}")
        n, l = self.n, self.l
        return v[:n], v[n:n + l], v[n + l:2 * n + l], v[2 * n + l:]

    def unpack(self, v: np.ndarray) -> KktPoint:
        """The point of ``v`` = (rho, u, z_a, z_b): views into ``v``, and
        ``p_adj = -u``."""
        rho, u, z_a, z_b = self._split(v)
        return KktPoint(rho, u, -u, z_a, z_b)

    def initialize(self, mu0: float) -> Tuple[KktPoint, np.ndarray]:
        """State solve at the uniform density 0.5, adjoint p = -u, duals
        from mu0 / gaps; returns the point and, as the anchor, its
        design-row residual, read-only.

        At a uniform density K and the load are mirror-symmetric, so u lies
        in the range of Q_w, the displacement part of Q_s: the solve is
        ``Q_w^T K Q_w y = Q_w^T f``, of dimension l_s, and ``u = Q_w y`` is
        mirror-symmetric bitwise.  Without a mirror it is ``K u = f``."""
        rho = np.full(self.n, 0.5)
        k, f = self.lagr.state_matrix(rho), self.lagr.load
        if self._q_w is None:
            u = solve_direct(k, f)
        else:
            q_w, q_wt = self._q_w
            u = q_w @ solve_direct(q_wt @ k @ q_w, q_wt @ f)
        z_a = mu0 / self.box.lower_gap(rho)
        z_b = mu0 / self.box.upper_gap(rho)
        point = KktPoint(rho, u, -u, z_a, z_b)
        g = self.lagr.gradient(rho, u, point.p_adj)
        anchor = g.d_rho - z_a + z_b
        anchor.setflags(write=False)
        return point, anchor

    def f_box(self, point: KktPoint, mu: float) -> np.ndarray:
        """Unanchored optimality residual at barrier weight mu: the rho,
        adjoint (u), z_a, z_b and state rows."""
        g = self.lagr.gradient(point.rho, point.u, point.p_adj)
        r = pd_residual_box(g.d_rho, point.rho, self.box, DualPair(point.z_a, point.z_b), mu)
        return np.concatenate([r[:self.n], g.d_u, r[self.n:], g.d_p])

    def residual(self, point: KktPoint, anchor: np.ndarray, t: float,
                 schedule: BarrierSchedule) -> np.ndarray:
        """``f_box`` at mu(t), with the design row anchored by ``(1 - t) * anchor``."""
        r = self.f_box(point, schedule.mu(t))
        r[:self.n] -= (1.0 - t) * anchor
        return r

    def jacobian(self, point: KktPoint) -> sp.csr_matrix:
        """The condensed Jacobian ``M = [[rr + Sigma, ru], [ru^T, -K/2]]`` in
        (drho, w = 2 du), with ``Sigma = z_a / gap_a + z_b / gap_b``;
        symmetric once p = -u.

        ``M (drho, w)`` is the derivative of the residual's rho and u rows
        along the step ``(drho, w/2, -w/2, -z_a drho / gap_a, z_b drho /
        gap_b)`` in (rho, u, p, z_a, z_b), whose dz_a and dz_b keep the
        linearized complementarity rows fixed.  It is independent of t,
        which only shifts the residual.  M is the product of the run's
        block system with :meth:`_values`, as every matrix :meth:`factor`
        factors is; K's exact zeros are stored as +0.0.
        """
        return self._system().assemble(self._values(point))

    def _values(self, point: KktPoint) -> np.ndarray:
        """z = [rr's and ru's element values from
        :meth:`Lagrangian.hessian_elements`, 1, Sigma, K's cached data] at
        ``point``, in :meth:`_source`'s order."""
        lagr, box = self.lagr, self.box
        rr, ru = lagr.hessian_elements(point.rho, point.u, point.p_adj)
        sigma = point.z_a / box.lower_gap(point.rho) + point.z_b / box.upper_gap(point.rho)
        return np.concatenate([rr.ravel(), [1.0], sigma, ru.ravel(),
                               lagr.state_matrix(point.rho).data])

    def _system(self) -> BlockSystem:
        """The run's block system of M on the density, cross and state
        patterns, built at the first call."""
        if self._blocks is None:
            lagr = self.lagr
            self._blocks = BlockSystem(lagr.dofmap.geometry.pattern, lagr.cross_pattern,
                                       lagr.dofmap.state_pattern, self._source())
        return self._blocks

    def _source(self) -> sp.csr_matrix:
        """The operator from z = [rr's element values, 1, Sigma, ru's
        element values, K's data] to the CSR data of rr + Sigma, ru and
        -K/2.  Its column order sums each entry of rr + Sigma as rr is
        summed, element values first, then the constant part, then Sigma."""
        lagr = self.lagr
        rr = lagr.dofmap.geometry.pattern.summation.tocoo()
        ru = lagr.cross_pattern.summation.tocoo()
        n_k = lagr.dofmap.state_pattern.indices.size
        # where each segment of z starts: rr's element values, 1, Sigma,
        # ru's element values, K's data; the last offset is z's length
        at = np.cumsum([0, rr.shape[1], 1, self.n, ru.shape[1], n_k])
        const = np.flatnonzero(lagr.rr_const)  # the stored entries of the constant column
        # (row, column, value) of each block at its offset in the operator
        blocks = [(rr.row, at[0] + rr.col, rr.data),
                  (const, np.full(const.size, at[1]), lagr.rr_const[const]),
                  (self._rr_diagonal, at[2] + np.arange(self.n), np.ones(self.n)),
                  (rr.shape[0] + ru.row, at[3] + ru.col, ru.data),
                  (rr.shape[0] + ru.shape[0] + np.arange(n_k), at[4] + np.arange(n_k),
                   np.full(n_k, -0.5))]
        rows, cols, data = (np.concatenate(part) for part in zip(*blocks))
        return sp.csr_matrix((data, (rows, cols)),
                             shape=(rr.shape[0] + ru.shape[0] + n_k, at[5]))

    def factor(self, point: KktPoint) -> Factor:
        """The solve for the step ``d`` in (rho, u, z_a, z_b) of the
        residual's leading rows, ``b`` of length dim - l on the right, and
        the number of negative eigenvalues of the reduced Hessian
        ``rr + Sigma + 2 ru K^-1 ru^T`` in the mirror-symmetric class
        (M_s's negative pivots less l_s, its number of w columns).

        Fills the permuted ``M_s = Q_s^T M Q_s`` by one product of the run's
        operator with :meth:`_values` and factors it on the run's symmetric
        order, which the first call takes (Q_s is the identity on a mesh
        without a mirror, where M_s is M, bitwise).  Then ``(drho, w) = Q_s
        M_s^-1 Q_s^T (b_rho + b_a / gap_a - b_b / gap_b, b_u)``, ``du = w /
        2``, ``dz_a = (b_a - z_a drho) / gap_a`` and ``dz_b = (b_b + z_b
        drho) / gap_b``.  At a
        mirror-symmetric point M commutes with the mirror up to rounding and
        the residual is symmetric up to rounding, so the step lies in the
        range of Q_s; the dropped antisymmetric part of ``b`` is rounding,
        and the step keeps rho, z_a and z_b symmetric bitwise.  A point
        whose rho, z_a or z_b differs from its mirror image raises
        ``ValueError``.  One step of iterative refinement on M_s brings the
        error of the diagonal pivots past the fold, where ``rr + Sigma`` is
        indefinite, back to that of a pivoted LU.  A refused symmetric
        factorization raises :class:`~homotopt.sparse.SingularMatrixError`,
        as a singular Jacobian does.  The traced problem of
        :meth:`homotopy_problem` solves only through this method.
        """
        if self._mirror is not None and not all(
                np.array_equal(v, v[self._mirror]) for v in (point.rho, point.z_a, point.z_b)):
            raise ValueError("the point breaks the mesh's mirror symmetry: rho, z_a and z_b "
                             "must equal their mirror images")
        lu = self._system().factor(self._values(point), self._symmetric)
        gap_a, gap_b = self.box.lower_gap(point.rho), self.box.upper_gap(point.rho)

        def solve(b):
            b_rho, b_u, b_a, b_b = self._split(b)
            y = lu.solve(np.concatenate([b_rho + b_a / gap_a - b_b / gap_b, b_u]))
            d_rho, w = y[:self.n], y[self.n:]
            return np.concatenate([d_rho, 0.5 * w, (b_a - point.z_a * d_rho) / gap_a,
                                   (b_b + point.z_b * d_rho) / gap_b])

        return Factor(solve, lu.negative_pivots - self._l_s)

    def negative_by_class(self, point: KktPoint) -> Optional[Tuple[int, int]]:
        """The reduced Hessian's negative eigenvalues at ``point`` in the
        mirror-symmetric and the antisymmetric class: :meth:`factor`'s count
        and M_a's negative pivots less l_a, from one factorization of each
        of M_s and ``M_a = Q_a^T M Q_a``, both filled from :meth:`_values`.
        None on a mesh without a mirror, or if either factorization is
        refused."""
        if self._antisymmetric is None:
            return None
        basis, l_a = self._antisymmetric
        try:
            return (self.factor(point).negative,
                    self._system().factor(self._values(point), basis).negative_pivots - l_a)
        except SingularMatrixError:
            return None

    def h_t(self, anchor: np.ndarray, t: float, schedule: BarrierSchedule) -> np.ndarray:
        """Derivative of the traced map in t: anchor row plus the mu(t) chain rule."""
        dz = np.full(self.n, -schedule.dmu_dt(t))
        zeros = np.zeros(self.l)
        return np.concatenate([anchor, zeros, dz, dz, zeros])

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

        def factor(v, t):
            return self.factor(self.unpack(v))

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

        return HomotopyProblem(residual, factor, dh_dt, iterate_valid=valid,
                               mu_of_t=schedule.mu, step_limit=step_limit)


def mirror_subspaces(dofmap: DofMap):
    """Orthonormal bases of the mirror-symmetric and antisymmetric subspaces
    of M's (drho, w) coordinates, each with its number of w columns:
    ``((Q_s, l_s), (Q_a, l_a))``, or ``((I, l), None)`` on a mesh without a
    vertex mirror.

    The mirror T maps rho to rho o mirror, u_x to -u_x o mirror and u_y to
    u_y o mirror.  A coordinate i and its image j = T(i) != i share one
    column of each basis, with the weights 1/sqrt(2) and +-1/sqrt(2); a
    coordinate T maps to itself (up to sign) is one column of weight 1 in
    the class its sign names.  Columns follow their first coordinate, so
    rho's come first.  The clamps must be mirror-symmetric; the box, which
    the bridge problem also keeps symmetric, is not checked (the load is, by
    :class:`KktSystem`).
    """
    n, l = dofmap.n_density, dofmap.n_disp
    mirror = dofmap.mesh.mirror
    if mirror is None:
        return (Subspace.identity(n + l), l), None
    disp = dofmap.disp_index
    free = disp[:, 0] >= 0
    if not np.array_equal(free, free[mirror]):
        raise ValueError("the clamps break the mesh's mirror symmetry")
    image = np.concatenate([mirror, np.empty(l, dtype=np.int64)])
    image[n + disp[free]] = n + disp[mirror[free]]
    sign = np.ones(n + l)
    sign[n + disp[free, 0]] = -1.0
    index = np.arange(n + l)

    def basis(parity):
        lead = np.flatnonzero((index < image) | ((index == image) & (sign == parity)))
        weight = np.where(image[lead] == lead, 1.0, np.sqrt(0.5))
        columns, weights = np.full(n + l, -1), np.zeros(n + l)
        columns[lead] = columns[image[lead]] = np.arange(lead.size)
        weights[lead] = weight
        weights[image[lead]] = parity * sign[lead] * weight
        return Subspace(columns, weights), int(np.count_nonzero(lead >= n))

    return basis(1.0), basis(-1.0)


def _check_load_symmetry(dofmap: DofMap, load: np.ndarray) -> None:
    """Raise ``ValueError`` unless the load's x components equal minus
    their mirror images and its y components their mirror images, up to
    1e-12 times its largest entry."""
    disp = dofmap.disp_index
    free = np.flatnonzero(disp[:, 0] >= 0)
    own, image = load[disp[free]], load[disp[dofmap.mesh.mirror[free]]]
    defect = np.abs(own - image * np.array([-1.0, 1.0])).max(initial=0.0)
    if defect > 1e-12 * np.abs(load).max(initial=0.0):
        raise ValueError(f"the load breaks the mesh's mirror symmetry: a component differs "
                         f"from its mirror image by {defect:.3e}")


def build_system(config: "SolverConfig", mesh: Optional[TriMesh] = None
                 ) -> Tuple[KktSystem, BarrierSchedule]:
    """Assemble operators and schedule for a solver configuration on
    ``mesh``, which must be the bridge mesh of ``config.mesh``; without one,
    that mesh is built here."""
    domain = bridge_domain()
    if mesh is None:
        mesh = build_structured_mesh(domain, config.mesh.nx, config.mesh.ny,
                                     diagonal=config.mesh.diagonal)
    dofmap = fem.make_dofmap(mesh)
    load = fem.assemble_traction_load(dofmap, domain)
    lagr = Lagrangian(dofmap, config.material, config.params, load)
    box = BoxConstraints(np.zeros(dofmap.n_density), np.ones(dofmap.n_density))
    return KktSystem(lagr, box), config.barrier


def run(config: "SolverConfig",
        on_accept: Optional[Callable[[float, KktPoint], None]] = None,
        mesh: Optional[TriMesh] = None) -> Tuple[KktPoint, SolveTrace]:
    """Trace the barrier homotopy from t = 0 to 1 for the given configuration,
    on ``mesh`` if given (see :func:`build_system`).

    ``on_accept(t, point)`` fires at the initial point and after every
    accepted step.  Returns the final point and the per-attempt trace, whose
    ``final_negative`` is :meth:`KktSystem.negative_by_class` at the final
    point.
    """
    system, schedule = build_system(config, mesh)
    point0, anchor = system.initialize(schedule.mu0)
    problem = system.homotopy_problem(anchor, schedule, damping=config.newton.damping)
    # Dimension-independent stopping: scale the residual tolerance with the
    # square root of the system size.
    cfg = replace(config.newton, tol=config.newton.tol * math.sqrt(system.dim))
    callback = None
    if on_accept is not None:
        callback = lambda t, v: on_accept(t, system.unpack(v))
    x, trace = homotopy.trace(problem, point0.pack(), config.stepping, cfg, on_accept=callback)
    final = system.unpack(x)
    trace.final_negative = system.negative_by_class(final)
    return final, trace
