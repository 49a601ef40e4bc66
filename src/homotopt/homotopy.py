"""Predictor-corrector tracing of a homotopy zero curve.

The global homotopy H(x, t) = F(x) - (1 - t) F(x0) connects the trivially
solved problem at t = 0 with the target F(x) = 0 at t = 1.  The corrector is
plain full-step Newton (no line search); divergence is a value, not a fault,
and makes the step controller halve the increment and retry from the last
accepted point.  A corrector whose full step raises the residual norm from
its second iteration on stops there (reason ``"no_decrease"``) instead of
spending its budget; steps capped by ``step_limit`` are exempt.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from .sparse import SingularMatrixError, SparseMatrix, solve_direct

__all__ = [
    "HomotopyProblem",
    "NewtonConfig",
    "NewtonResult",
    "StepController",
    "TraceRecord",
    "SolveTrace",
    "StepUnderflowError",
    "global_homotopy",
    "newton_corrector",
    "trace",
]

log = logging.getLogger(__name__)


@dataclass
class HomotopyProblem:
    """Residual map with its state Jacobian and parameter derivative.

    ``dh_dt`` is needed only by the first-order predictor.  ``iterate_valid``
    lets problems declare Newton iterates inadmissible (e.g. a barrier
    iterate leaving the strict interior); such an iterate counts as
    divergence.  ``mu_of_t`` is optional bookkeeping for traces.
    """

    residual: Callable[[np.ndarray, float], np.ndarray]
    jacobian_x: Callable[[np.ndarray, float], Union[SparseMatrix, np.ndarray]]
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

    def jacobian_x(x, t):
        return jac_f(x)

    def dh_dt(x, t):
        return f0

    return HomotopyProblem(residual, jacobian_x, dh_dt)


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


def _solve_linear(jac, rhs: np.ndarray) -> np.ndarray:
    if not isinstance(jac, SparseMatrix):
        jac = SparseMatrix.from_dense(np.atleast_2d(np.asarray(jac, dtype=np.float64)))
    return solve_direct(jac, rhs)


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
    """
    x = np.asarray(x, dtype=np.float64).copy()
    r = problem.residual(x, t)
    norm = float(np.linalg.norm(r))
    best = norm
    for it in range(cfg.max_iter):
        if norm <= cfg.tol:
            return NewtonResult(x, it, True, "", norm)
        try:
            dx = _solve_linear(problem.jacobian_x(x, t), -r)
        except SingularMatrixError:
            return NewtonResult(x, it, False, "singular", norm)
        alpha = 1.0
        if problem.step_limit is not None:
            alpha = min(1.0, problem.step_limit(x, dx))
            if not np.isfinite(alpha) or alpha <= 0.0:
                return NewtonResult(x, it, False, "invalid_iterate", norm)
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
        return _solve_linear(problem.jacobian_x(x, t), -np.asarray(problem.dh_dt(x, t), float))
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
          cfg: NewtonConfig, predictor_order: int = 0,
          on_accept: Optional[Callable[[float, np.ndarray], None]] = None,
          checkpoints: Sequence[float] = ()):
    """Trace the zero curve from (x0, 0) until t = 1 is accepted.

    Returns ``(x_final, SolveTrace)``.  Rejected steps are retried from the
    last accepted point with a shrunk increment.  ``checkpoints`` are t values
    in (0, 1) that no proposal steps over, so the trace lands on each.  A
    proposal that repeats a rejected ``t`` from the same accepted point (the
    proposal clamps at 1) would rerun the same corrector, so its rejection
    is recorded again without running it, with ``newton_iters = 0`` and
    reason ``"repeat"``.  Once a rejection takes the increment below
    ``controller.dt_min``, the next attempt is the endpoint jump: a
    correction at t = 1 from the last accepted point with five times the
    Newton budget (past a fold in t the endpoint problem is often the
    nearest attractor).  Its record has ``endpoint_jump`` set; if it fails,
    :class:`StepUnderflowError` is raised.
    """
    if predictor_order not in (0, 1):
        raise ValueError("predictor_order must be 0 or 1")
    if predictor_order == 1 and problem.dh_dt is None:
        raise ValueError("predictor_order 1 needs the problem's dh_dt")
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
    rejected = {}  # t_try -> record of its rejection since the last accepted step
    jump = False  # whether this attempt is the endpoint jump
    while t < 1.0:
        if jump:
            t_try = 1.0
        else:
            t_try = min(t + dt, 1.0)
            t_try = next((c for c in checkpoints if t + 1e-12 < c < t_try), t_try)
        index = len(result_trace.records) + 1
        if not jump and t_try in rejected:
            record = replace(rejected[t_try], index=index, newton_iters=0, reason="repeat")
        else:
            fallback, x_pred = False, x
            if predictor_order == 1 and not jump:
                direction = _tangent_direction(problem, x, t)
                fallback = direction is None
                x_pred = x if fallback else x + (t_try - t) * direction
            # a distinct settings object marks the jump's corrector call
            step_cfg = replace(cfg, max_iter=5 * cfg.max_iter) if jump else cfg
            result = newton_corrector(problem, x_pred, t_try, step_cfg)
            mu = problem.mu_of_t(t_try) if problem.mu_of_t is not None else None
            record = TraceRecord(index, t_try, mu, result.iters, result.residual_norm,
                                 result.converged, fallback, result.reason, jump)
        result_trace.records.append(record)
        if record.accepted:
            rejected.clear()
            x = result.x
            t = t_try
            dt = min(dt * controller.growth, controller.dt_max)
            log.info("step %d accepted%s: t=%.10g newton=%d res=%.3e", index,
                     " (endpoint jump after underflow)" if jump else "",
                     t, record.newton_iters, record.residual_norm)
            if on_accept is not None:
                on_accept(t, x)
        elif jump:
            raise StepUnderflowError(
                f"homotopy step underflow below {controller.dt_min:g} at t={t:.8g}",
                result_trace)
        else:
            rejected.setdefault(t_try, record)
            dt *= controller.shrink
            log.info("step %d rejected (%s): t=%.10g res=%.3e dt->%.3e",
                     index, record.reason, t_try, record.residual_norm, dt)
            jump = dt < controller.dt_min
    return x, result_trace
