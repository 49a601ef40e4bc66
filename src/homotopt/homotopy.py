"""Predictor-corrector tracing of a homotopy zero curve.

The global homotopy H(x, t) = F(x) - (1 - t) F(x0) connects the trivially
solved problem at t = 0 with the target F(x) = 0 at t = 1.  The corrector is
plain full-step Newton (no line search); divergence is a value, not a fault,
and makes the step controller halve the increment and retry from the last
accepted point.  A corrector whose full step raises the residual norm from
its second iteration on stops there (reason ``"no_decrease"``) instead of
spending its budget; steps capped by ``step_limit`` are exempt.  Newton and
tangent systems both solve through the problem's ``factor`` (the KKT problem
factors a smaller symmetric matrix; :func:`pivoted_lu` serves a problem that
has its Jacobian).  A problem's factor may report the number of negative
eigenvalues of its reduced Hessian.  A change of that index along the curve
marks a change of branch (Allgower & Georg, *Introduction to Numerical
Continuation Methods*, ch. 8-9), so a corrector at t < 1 whose factor shows
an indefinite reduced Hessian at two consecutive iterates stops there
(reason ``"left_branch"``): it has left the minimizer branch.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
import scipy.sparse as sp

from .sparse import SingularMatrixError, solve_direct

__all__ = [
    "Factor",
    "HomotopyProblem",
    "NewtonConfig",
    "NewtonResult",
    "StepController",
    "TraceRecord",
    "SolveTrace",
    "StepUnderflowError",
    "global_homotopy",
    "newton_corrector",
    "pivoted_lu",
    "trace",
]

log = logging.getLogger(__name__)

# Consecutive iterates with an indefinite reduced Hessian that end a corrector
# at t < 1 as having left the minimizer branch.
LEFT_BRANCH_ITERATES = 2


@dataclass(frozen=True)
class Factor:
    """A factored ``H_x(x, t)``: ``solve(b)`` gives ``dx`` with
    ``H_x dx = b`` for ``b`` of length ``len(x)``; ``negative`` is the number
    of negative eigenvalues of the problem's reduced Hessian (on the
    subspace its steps lie in), or None if the factorization does not
    report it."""

    solve: Callable[[np.ndarray], np.ndarray]
    negative: Optional[int] = None


def pivoted_lu(jac: Union[sp.spmatrix, np.ndarray]) -> Factor:
    """The square ``jac``, a scipy sparse matrix or a dense array, factored
    by sparse LU with partial pivoting; reports no inertia.  Its solve
    raises :class:`SingularMatrixError`."""
    if not sp.issparse(jac):
        jac = sp.csc_matrix(np.atleast_2d(np.asarray(jac, dtype=np.float64)))
    return Factor(lambda b: solve_direct(jac, b))


@dataclass
class HomotopyProblem:
    """Residual map with the factorization of its state Jacobian.

    The corrector and the tangent predictor solve ``H_x(x, t) dx = rhs``
    through ``factor(x, t)``, which returns ``H_x`` factored as a
    :class:`Factor` (e.g. :func:`pivoted_lu` of the Jacobian) and raises
    :class:`SingularMatrixError` here or in its solve.  Its ``negative``
    (the reduced Hessian's negative eigenvalues, or None) feeds the
    corrector's left-branch test.
    The residual may be longer than ``x``: the Jacobian covers its leading
    ``len(x)`` rows, and the rows past them count only in the residual norm,
    so they must follow from the leading rows (be zero wherever those are).
    ``dh_dt`` gives the tracer its tangent predictor on steps below the cap.
    The tracer solves the tangent once per accepted point and reuses it on
    every retry from there, so ``factor`` and ``dh_dt`` must depend only on
    ``(x, t)``.
    ``iterate_valid`` lets problems declare Newton iterates inadmissible
    (e.g. a barrier iterate leaving the strict interior); such an iterate
    counts as divergence.  ``mu_of_t`` is optional bookkeeping for traces.
    """

    residual: Callable[[np.ndarray, float], np.ndarray]
    factor: Callable[[np.ndarray, float], Factor]
    dh_dt: Optional[Callable[[np.ndarray, float], np.ndarray]] = None
    iterate_valid: Optional[Callable[[np.ndarray], bool]] = None
    mu_of_t: Optional[Callable[[float], float]] = None
    # Optional per-step cap on the Newton update, e.g. a fraction-to-boundary
    # rule; maps (x, dx) to the admitted fraction of dx (capped at 1).
    step_limit: Optional[Callable[[np.ndarray, np.ndarray], float]] = None


def global_homotopy(f, jac_f, x0) -> HomotopyProblem:
    """Build H(x, t) = F(x) - (1 - t) F(x0); the t-derivative is the constant F(x0)."""
    x0 = np.asarray(x0, dtype=np.float64).copy()
    f0 = np.asarray(f(x0), dtype=np.float64).copy()

    def residual(x, t):
        return np.asarray(f(x), dtype=np.float64) - (1.0 - t) * f0

    def factor(x, t):
        return pivoted_lu(jac_f(x))

    def dh_dt(x, t):
        return f0

    return HomotopyProblem(residual, factor, dh_dt)


@dataclass(frozen=True)
class NewtonConfig:
    tol: float = 1e-8
    max_iter: int = 20
    divergence_growth: float = 1e3

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("newton: tol must be positive")
        if self.max_iter < 1:
            raise ValueError("newton: max_iter must be at least 1")
        if not self.divergence_growth > 0:
            raise ValueError("newton: divergence_growth must be positive")


@dataclass
class NewtonResult:
    x: np.ndarray
    iters: int
    converged: bool
    reason: str = ""
    residual_norm: float = np.inf


def newton_corrector(problem: HomotopyProblem, x: np.ndarray, t: float,
                     cfg: NewtonConfig) -> NewtonResult:
    """Full-step Newton on H(., t) = 0 from x.

    Divergence is reported in the result's ``reason``: ``"max_iter"``
    (iteration budget), ``"singular"`` (Jacobian), ``"invalid_iterate"``,
    ``"residual_growth"`` (norm above ``divergence_growth`` times the best
    seen) or ``"no_decrease"``: from the second iteration on, a full step
    (``alpha = 1``: no ``step_limit``, or a cap that did not bind) raised
    the residual norm, the residual form of Deuflhard's monotonicity test.
    Capped steps (``alpha < 1``) are exempt, since a damped corrector may
    climb before it converges.

    At ``t < 1`` it also stops with ``"left_branch"`` when the factor of the
    ``LEFT_BRANCH_ITERATES``-th consecutive unconverged iterate reports a
    reduced Hessian with a negative eigenvalue, before that iterate's solve;
    ``iters`` counts the steps taken.  A factor that reports no inertia
    (``negative`` None) ends the run of indefinite iterates.  At ``t = 1``,
    the endpoint jump included, the corrector solves the target problem
    itself and runs on.
    """
    x = np.asarray(x, dtype=np.float64).copy()
    r = problem.residual(x, t)
    norm = float(np.linalg.norm(r))
    best = norm
    indefinite = 0  # consecutive iterates whose reduced Hessian is indefinite
    for it in range(cfg.max_iter):
        if norm <= cfg.tol:
            return NewtonResult(x, it, True, "", norm)
        try:
            factor = problem.factor(x, t)
            indefinite = indefinite + 1 if factor.negative else 0
            if t < 1.0 and indefinite >= LEFT_BRANCH_ITERATES:
                return NewtonResult(x, it, False, "left_branch", norm)
            dx = factor.solve(-r[:x.size])
            # freed before the next iterate's factorization: keeping two
            # alive raised peak RSS by ~10 MB on 40x12
            del factor
        except SingularMatrixError:
            return NewtonResult(x, it, False, "singular", norm)
        alpha = 1.0
        if problem.step_limit is not None:
            alpha = problem.step_limit(x, dx)
            if not alpha > 0.0:  # NaN included
                return NewtonResult(x, it, False, "invalid_iterate", norm)
            alpha = min(1.0, alpha)
            dx = alpha * dx
        x = x + dx
        if problem.iterate_valid is not None and not problem.iterate_valid(x):
            return NewtonResult(x, it + 1, False, "invalid_iterate", norm)
        r = problem.residual(x, t)
        norm, previous = float(np.linalg.norm(r)), norm
        if not np.isfinite(norm) or norm > cfg.divergence_growth * best:
            return NewtonResult(x, it + 1, False, "residual_growth", norm)
        if alpha == 1.0 and it >= 1 and norm > previous:
            return NewtonResult(x, it + 1, False, "no_decrease", norm)
        best = min(best, norm)
    if norm <= cfg.tol:
        return NewtonResult(x, cfg.max_iter, True, "", norm)
    return NewtonResult(x, cfg.max_iter, False, "max_iter", norm)


def _tangent_direction(problem: HomotopyProblem, x: np.ndarray, t: float) -> Optional[np.ndarray]:
    """Tangent x'(t) of the zero curve from H_x x' = -H_t; None if H_x is singular."""
    try:
        return problem.factor(x, t).solve(-np.asarray(problem.dh_dt(x, t), float)[:x.size])
    except SingularMatrixError:
        return None


@dataclass(frozen=True)
class StepController:
    """Adaptive step rule in t: grow by ``growth`` on success (capped at
    ``dt_max``), multiply by ``shrink`` on failure; below ``dt_min`` the
    tracer makes its endpoint jump."""

    dt_init: float = 0.25
    dt_max: float = 0.25
    growth: float = 1.5
    shrink: float = 0.5
    dt_min: float = 1e-8

    def __post_init__(self):
        if not 0.0 < self.dt_init <= self.dt_max:
            raise ValueError("controller: need 0 < dt_init <= dt_max")
        if self.growth < 1.0 or not 0.0 < self.shrink < 1.0:
            raise ValueError("controller: need growth >= 1 and 0 < shrink < 1")
        if self.dt_min <= 0:
            raise ValueError("controller: dt_min must be positive")


@dataclass
class TraceRecord:
    index: int
    t: Optional[float]
    mu: Optional[float]
    newton_iters: int
    residual_norm: float
    accepted: bool
    predictor_fallback: bool = False
    reason: str = ""  # divergence cause for rejected steps
    endpoint_jump: bool = False  # the attempt at t = 1 made after dt underflowed


@dataclass
class SolveTrace:
    records: List[TraceRecord] = field(default_factory=list)
    # negative eigenvalues of the reduced Hessian at the final point by
    # symmetry class (symmetric, antisymmetric), where the caller reads them
    final_negative: Optional[Tuple[int, int]] = None

    def accepted(self) -> List[TraceRecord]:
        return [r for r in self.records if r.accepted]

    @property
    def n_accepted(self) -> int:
        return sum(1 for r in self.records if r.accepted)

    @property
    def n_attempts(self) -> int:
        return len(self.records)


class StepUnderflowError(RuntimeError):
    """The homotopy step shrank below the underflow floor; carries the trace."""

    def __init__(self, message: str, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


def trace(problem: HomotopyProblem, x0: np.ndarray, controller: StepController,
          cfg: NewtonConfig, on_accept: Optional[Callable[[float, np.ndarray], None]] = None,
          checkpoints: Sequence[float] = ()):
    """Trace the zero curve from (x0, 0) until t = 1 is accepted.

    Returns ``(x_final, SolveTrace)``.  Rejected steps are retried from the
    last accepted point with a shrunk increment.  A proposal with ``dt`` below
    ``controller.dt_max`` starts its corrector from the tangent prediction
    ``x + (t_try - t) x'(t)`` if the problem has ``dh_dt`` (from ``x`` if
    the tangent system is singular: ``predictor_fallback``); one at the cap
    and the endpoint jump start from ``x``.  The tangent is solved on the
    first such proposal from an accepted point, and every retry from that
    point reuses it, or its singularity, without calling ``factor`` or
    ``dh_dt`` again; the problem's maps must therefore depend only on
    ``(x, t)``.  ``checkpoints`` are t values in (0, 1) that no proposal
    steps over, so the trace lands on each.  A proposal that repeats a
    rejected ``t`` and start (``x`` or the tangent prediction) from the same
    accepted point (the proposal clamps at 1) would rerun the same
    corrector, so its rejection is recorded again without running it, with
    ``newton_iters = 0`` and reason ``"repeat"``.  Once a rejection takes
    the increment below ``controller.dt_min``, the next attempt is the
    endpoint jump: a correction at t = 1 from the last accepted point with
    five times the Newton budget (past a fold in t the endpoint problem is
    often the nearest attractor).  Its record has ``endpoint_jump`` set; if
    it fails, :class:`StepUnderflowError` is raised.
    """
    checkpoints = sorted(float(c) for c in checkpoints)
    if any(not 0.0 < c < 1.0 for c in checkpoints):
        raise ValueError("checkpoints must lie strictly inside (0, 1)")
    x = np.asarray(x0, dtype=np.float64).copy()
    r0 = float(np.linalg.norm(problem.residual(x, 0.0)))
    if r0 > cfg.tol:
        raise ValueError(f"x0 does not solve the t=0 problem to the Newton tolerance "
                         f"{cfg.tol:.3e} (residual {r0:.3e}); if x0 solves it up to "
                         f"rounding, the tolerance is too small")
    result_trace = SolveTrace()
    t = 0.0
    dt = controller.dt_init
    if on_accept is not None:
        on_accept(0.0, x)
    rejected = {}  # (t_try, from_tangent) -> its rejection since the last accepted step
    tangent = None  # (x'(t),) once solved at the accepted point; x'(t) None if singular
    jump = False  # whether this attempt is the endpoint jump
    while t < 1.0:
        if jump:
            t_try = 1.0
        else:
            t_try = min(t + dt, 1.0)
            t_try = next((c for c in checkpoints if t + 1e-12 < c < t_try), t_try)
        index = len(result_trace.records) + 1
        from_tangent = dt < controller.dt_max and problem.dh_dt is not None and not jump
        if not jump and (t_try, from_tangent) in rejected:
            record = replace(rejected[t_try, from_tangent], index=index, newton_iters=0,
                             reason="repeat")
        else:
            fallback, x_pred = False, x
            if from_tangent:
                if tangent is None:
                    tangent = (_tangent_direction(problem, x, t),)
                direction, = tangent
                fallback = direction is None
                x_pred = x if fallback else x + (t_try - t) * direction
            # a distinct settings object marks the jump's corrector call
            step_cfg = replace(cfg, max_iter=5 * cfg.max_iter) if jump else cfg
            result = newton_corrector(problem, x_pred, t_try, step_cfg)
            mu = problem.mu_of_t(t_try) if problem.mu_of_t is not None else None
            record = TraceRecord(index, t_try, mu, result.iters, result.residual_norm,
                                 result.converged, fallback, result.reason, jump)
        result_trace.records.append(record)
        fallback_mark = " (predictor fallback)" if record.predictor_fallback else ""
        if record.accepted:
            rejected.clear()
            tangent = None
            x = result.x
            t = t_try
            dt = min(dt * controller.growth, controller.dt_max)
            log.info("step %d accepted%s%s: t=%.10g newton=%d res=%.3e", index,
                     " (endpoint jump after underflow)" if jump else "", fallback_mark,
                     t, record.newton_iters, record.residual_norm)
            if on_accept is not None:
                on_accept(t, x)
        elif jump:
            raise StepUnderflowError(
                f"homotopy step underflow below {controller.dt_min:g} at t={t:.8g}",
                result_trace)
        else:
            rejected.setdefault((t_try, from_tangent), record)
            dt *= controller.shrink
            log.info("step %d rejected (%s)%s: t=%.10g newton=%d res=%.3e dt->%.3e", index,
                     record.reason, fallback_mark, t_try, record.newton_iters,
                     record.residual_norm, dt)
            jump = dt < controller.dt_min
    return x, result_trace
