"""Predictor-corrector tracing of a homotopy zero curve.

The global homotopy H(x, t) = F(x) - (1 - t) F(x0) connects the trivially
solved problem at t = 0 with the target F(x) = 0 at t = 1.  The corrector is
plain full-step Newton (no line search); divergence is a value, not a fault,
and makes the step controller halve the increment and retry from the last
accepted point.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from typing import Callable, List, Optional, Union

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
    "tangent_predictor",
    "trace",
]

log = logging.getLogger(__name__)


@dataclass
class HomotopyProblem:
    """Residual map with its state Jacobian and parameter derivative.

    ``iterate_valid`` lets problems declare Newton iterates inadmissible
    (e.g. a barrier iterate leaving the strict interior); such an iterate
    counts as divergence.  ``mu_of_t`` is optional bookkeeping for traces.
    """

    residual: Callable[[np.ndarray, float], np.ndarray]
    jacobian_x: Callable[[np.ndarray, float], Union[SparseMatrix, np.ndarray]]
    dh_dt: Callable[[np.ndarray, float], np.ndarray]
    dim: int
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

    return HomotopyProblem(residual, jacobian_x, dh_dt, dim=x0.size)


@dataclass
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

    Divergence (iteration budget, singular Jacobian, residual growth over the
    best norm seen, or an invalid iterate) is reported in the result.
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
        if problem.step_limit is not None:
            alpha = min(1.0, problem.step_limit(x, dx))
            if not np.isfinite(alpha) or alpha <= 0.0:
                return NewtonResult(x, it, False, "invalid_iterate", norm)
            dx = alpha * dx
        x = x + dx
        if problem.iterate_valid is not None and not problem.iterate_valid(x):
            return NewtonResult(x, it + 1, False, "invalid_iterate", norm)
        r = problem.residual(x, t)
        norm = float(np.linalg.norm(r))
        if not np.isfinite(norm) or norm > cfg.divergence_growth * best:
            return NewtonResult(x, it + 1, False, "residual_growth", norm)
        best = min(best, norm)
    if norm <= cfg.tol:
        return NewtonResult(x, cfg.max_iter, True, "", norm)
    return NewtonResult(x, cfg.max_iter, False, "max_iter", norm)


def _tangent_direction(problem: HomotopyProblem, x: np.ndarray, t: float) -> Optional[np.ndarray]:
    try:
        return _solve_linear(problem.jacobian_x(x, t), -np.asarray(problem.dh_dt(x, t), float))
    except SingularMatrixError:
        return None


def tangent_predictor(problem: HomotopyProblem, x: np.ndarray, t: float, dt: float) -> np.ndarray:
    """First-order predictor x + dt * x'(t) with H_x x' = -H_t.

    Falls back to the zero-order predictor (x unchanged) if H_x is singular.
    """
    xp = _tangent_direction(problem, x, t)
    x = np.asarray(x, dtype=np.float64)
    if xp is None:
        return x.copy()
    return x + dt * xp


@dataclass
class StepController:
    """Adaptive step in t: grow 50% on success (capped), halve on failure.

    ``checkpoints`` are t values the proposal never steps over, so a run can
    be forced to land on them exactly.
    """

    dt_init: float = 0.25
    dt_max: float = 0.25
    growth: float = 1.5
    shrink: float = 0.5
    dt_min: float = 1e-8
    checkpoints: tuple = ()
    dt: float = field(init=False)

    def __post_init__(self):
        if not 0.0 < self.dt_init <= self.dt_max:
            raise ValueError("controller: need 0 < dt_init <= dt_max")
        if self.growth < 1.0 or not 0.0 < self.shrink < 1.0:
            raise ValueError("controller: need growth >= 1 and 0 < shrink < 1")
        if self.dt_min <= 0:
            raise ValueError("controller: dt_min must be positive")
        self.checkpoints = tuple(sorted(float(c) for c in self.checkpoints))
        if any(not 0.0 < c < 1.0 for c in self.checkpoints):
            raise ValueError("controller: checkpoints must lie strictly inside (0, 1)")
        self.dt = self.dt_init

    def propose(self, t: float) -> float:
        t_next = min(t + self.dt, 1.0)
        for c in self.checkpoints:
            if t + 1e-12 < c < t_next:
                return c
        return t_next

    def accept(self) -> None:
        self.dt = min(self.dt * self.growth, self.dt_max)

    def reject(self) -> None:
        self.dt *= self.shrink


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

    def __iter__(self):
        return iter(self.records)

    def __len__(self):
        return len(self.records)


class StepUnderflowError(RuntimeError):
    """The homotopy step shrank below the underflow floor; carries the trace."""

    def __init__(self, message: str, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


def trace(problem: HomotopyProblem, x0: np.ndarray, controller: StepController,
          cfg: NewtonConfig, predictor_order: int = 0,
          on_accept: Optional[Callable[[float, np.ndarray], None]] = None):
    """Trace the zero curve from (x0, 0) until t = 1 is accepted.

    Returns ``(x_final, SolveTrace)``.  Rejected steps are retried from the
    last accepted point with half the increment.  A proposal that repeats a
    rejected ``t`` from the same accepted point (the proposal clamps at 1)
    would rerun the same corrector, so its rejection is recorded again
    without running it, with ``newton_iters = 0`` and reason ``"repeat"``.
    Once the increment falls
    below ``controller.dt_min`` a single full-budget correction at t = 1 is
    attempted (the proposal rule tops out at exactly 1 for large steps; when
    the curve folds in t, the endpoint problem is often the nearest
    attractor).  If that also fails the run aborts with
    :class:`StepUnderflowError`.
    """
    if predictor_order not in (0, 1):
        raise ValueError("predictor_order must be 0 or 1")
    x = np.asarray(x0, dtype=np.float64).copy()
    r0 = float(np.linalg.norm(problem.residual(x, 0.0)))
    if r0 > cfg.tol:
        raise ValueError(f"x0 does not solve the t=0 problem (residual {r0:.3e})")
    result_trace = SolveTrace()
    t = 0.0
    if on_accept is not None:
        on_accept(0.0, x)
    index = 0
    rejected = {}  # t_try -> record of its rejection since the last accepted step
    while t < 1.0:
        t_try = controller.propose(t)
        index += 1
        if t_try in rejected:
            record = replace(rejected[t_try], index=index, newton_iters=0, reason="repeat")
        else:
            fallback = False
            if predictor_order == 1:
                direction = _tangent_direction(problem, x, t)
                fallback = direction is None
                x_pred = x if fallback else x + (t_try - t) * direction
            else:
                x_pred = x
            result = newton_corrector(problem, x_pred, t_try, cfg)
            mu = problem.mu_of_t(t_try) if problem.mu_of_t is not None else None
            record = TraceRecord(index, t_try, mu, result.iters, result.residual_norm,
                                 result.converged, fallback, result.reason)
        result_trace.records.append(record)
        if record.accepted:
            rejected.clear()
            x = result.x
            t = t_try
            controller.accept()
            log.info("step %d accepted: t=%.10g newton=%d res=%.3e",
                     index, t, record.newton_iters, record.residual_norm)
            if on_accept is not None:
                on_accept(t, x)
        else:
            rejected.setdefault(t_try, record)
            controller.reject()
            log.info("step %d rejected (%s): t=%.10g res=%.3e dt->%.3e",
                     index, record.reason, t_try, record.residual_norm, controller.dt)
            if controller.dt < controller.dt_min:
                final_cfg = NewtonConfig(tol=cfg.tol, max_iter=5 * cfg.max_iter,
                                         divergence_growth=cfg.divergence_growth)
                result = newton_corrector(problem, x, 1.0, final_cfg)
                index += 1
                mu = problem.mu_of_t(1.0) if problem.mu_of_t is not None else None
                result_trace.records.append(TraceRecord(
                    index, 1.0, mu, result.iters, result.residual_norm,
                    result.converged, False, result.reason))
                if not result.converged:
                    raise StepUnderflowError(
                        f"homotopy step underflow below {controller.dt_min:g} at t={t:.8g}",
                        result_trace)
                x = result.x
                t = 1.0
                log.info("step %d accepted (endpoint jump after underflow): newton=%d res=%.3e",
                         index, result.iters, result.residual_norm)
                if on_accept is not None:
                    on_accept(t, x)
    return x, result_trace
