"""Primal-dual logarithmic barrier machinery for box constraints.

The perturbed optimality system couples stationarity with the complementarity
rows z .* c(x) = mu.  Solving it by Newton for a decreasing sequence of mu
values is the standalone barrier method; the combined solver reuses the same
blocks with mu driven by the continuation parameter.

Full Newton steps are taken (no line search).  An iterate leaving the strict
interior, in x or in the duals, is declared divergent; an optional
fraction-to-boundary damping is available but off by default.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .homotopy import HomotopyProblem, NewtonConfig, SolveTrace, \
    TraceRecord, newton_corrector
from .sparse import BlockSystem, SparseMatrix, solve_direct

__all__ = [
    "BoxConstraints",
    "DualPair",
    "BarrierSchedule",
    "ObjectiveOracle",
    "NonInteriorError",
    "BarrierDivergedError",
    "barrier_value",
    "pd_residual_box",
    "pd_newton_step_box",
    "set_box_duals",
    "box_barrier_problem",
    "fraction_to_boundary",
    "geometric_rule",
    "run_pd_barrier",
]


class NonInteriorError(ValueError):
    """A point violates strict feasibility where the barrier needs it."""


class BarrierDivergedError(RuntimeError):
    """A barrier subproblem diverged; carries the trace up to that point."""

    def __init__(self, message: str, trace: SolveTrace):
        super().__init__(message)
        self.trace = trace


@dataclass(frozen=True, eq=False)
class BoxConstraints:
    """Componentwise bounds a < x < b with gap functions x - a and b - x."""

    a: np.ndarray
    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "a", np.asarray(self.a, dtype=np.float64).copy())
        object.__setattr__(self, "b", np.asarray(self.b, dtype=np.float64).copy())
        if self.a.shape != self.b.shape or self.a.ndim != 1:
            raise ValueError("bounds must be 1-D vectors of equal length")
        if not np.all(self.a < self.b):
            raise ValueError("lower bounds must be strictly below upper bounds")
        self.a.setflags(write=False)
        self.b.setflags(write=False)

    @property
    def n(self) -> int:
        return self.a.size

    def lower_gap(self, x: np.ndarray) -> np.ndarray:
        return np.asarray(x, dtype=np.float64) - self.a

    def upper_gap(self, x: np.ndarray) -> np.ndarray:
        return self.b - np.asarray(x, dtype=np.float64)

    def gaps(self, x: np.ndarray) -> np.ndarray:
        return np.concatenate([self.lower_gap(x), self.upper_gap(x)])

    def interior(self, x: np.ndarray) -> bool:
        return bool(np.all(self.lower_gap(x) > 0) and np.all(self.upper_gap(x) > 0))

    def analytic_center(self) -> np.ndarray:
        return 0.5 * (self.a + self.b)


@dataclass
class DualPair:
    """Multipliers for the lower and upper bound constraints."""

    z_a: np.ndarray
    z_b: np.ndarray


@dataclass(frozen=True)
class BarrierSchedule:
    """Barrier weight as a function of the continuation parameter t in [0, 1]."""

    mu0: float
    mu_inf: float
    kind: str = "linear"

    def __post_init__(self):
        if not self.mu0 > self.mu_inf > 0:
            raise ValueError("schedule: need mu0 > mu_inf > 0")
        if self.kind not in ("linear", "geometric"):
            raise ValueError(f"schedule: unknown kind {self.kind!r}")

    def mu(self, t: float) -> float:
        if self.kind == "linear":
            return t * self.mu_inf + (1.0 - t) * self.mu0
        return self.mu0 * (self.mu_inf / self.mu0) ** t

    def dmu_dt(self, t: float) -> float:
        if self.kind == "linear":
            return self.mu_inf - self.mu0
        return np.log(self.mu_inf / self.mu0) * self.mu(t)


@dataclass(frozen=True)
class ObjectiveOracle:
    """Objective bundle: value, gradient and Hessian callables on x."""

    value: Callable[[np.ndarray], float]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def barrier_value(f, constraints, x, mu: float) -> float:
    """B(x; mu) = f(x) - mu * sum_i log(c_i(x)).

    ``constraints`` is either a callable returning the constraint values or a
    :class:`BoxConstraints`.  Raises :class:`NonInteriorError` off the strict
    interior.
    """
    x = np.asarray(x, dtype=np.float64)
    if isinstance(constraints, BoxConstraints):
        c = constraints.gaps(x)
    else:
        c = np.asarray(constraints(x), dtype=np.float64)
    if np.any(c <= 0):
        raise NonInteriorError("barrier evaluated at a non-interior point")
    return float(f(x) - mu * np.log(c).sum())


def pd_residual_box(grad: np.ndarray, x: np.ndarray, box: BoxConstraints,
                    duals: DualPair, mu: float) -> np.ndarray:
    """Stacked [stationarity; lower complementarity; upper complementarity]."""
    grad = np.asarray(grad, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    r_stat = grad - duals.z_a + duals.z_b
    r_low = duals.z_a * box.lower_gap(x) - mu
    r_up = duals.z_b * box.upper_gap(x) - mu
    return np.concatenate([r_stat, r_low, r_up])


def set_box_duals(blocks: BlockSystem, primal: str, x, box: BoxConstraints,
                  duals: DualPair) -> None:
    """Set the six box-dual blocks of the primal-dual Newton matrix around
    the primal block ``primal``: ``[., -I, I; Z_a, G_a, 0; -Z_b, 0, G_b]``,
    with the dual blocks named ``z_a`` and ``z_b``."""
    n = box.n
    blocks.set(primal, "z_a", -np.ones(n))
    blocks.set(primal, "z_b", np.ones(n))
    blocks.set("z_a", primal, np.asarray(duals.z_a, dtype=np.float64))
    blocks.set("z_a", "z_a", box.lower_gap(x))
    blocks.set("z_b", primal, -np.asarray(duals.z_b, dtype=np.float64))
    blocks.set("z_b", "z_b", box.upper_gap(x))


def _box_newton_matrix(blocks: BlockSystem, hess, x, box: BoxConstraints,
                       duals: DualPair) -> SparseMatrix:
    """Newton matrix of the box problem on ``blocks`` (named x, z_a, z_b);
    a dense ``hess`` is converted by ``blocks.set``."""
    blocks.set("x", "x", hess)
    set_box_duals(blocks, "x", x, box, duals)
    return blocks.assemble()


def pd_newton_step_box(hess, grad, x, box: BoxConstraints, duals: DualPair, mu: float):
    """One full primal-dual Newton step; returns (dx, dz_a, dz_b)."""
    n = box.n
    blocks = BlockSystem(("x", "z_a", "z_b"), (n, n, n))
    matrix = _box_newton_matrix(blocks, hess, x, box, duals)
    rhs = -pd_residual_box(grad, x, box, duals, mu)
    d = solve_direct(matrix, rhs)
    return d[:n], d[n:2 * n], d[2 * n:]


def fraction_to_boundary(values, steps, factor: float) -> float:
    """Largest admissible fraction of a step keeping positive quantities positive.

    ``values``/``steps`` are matching sequences of vectors; entries that are
    already non-positive are ignored (the validity guard judges those).
    """
    alpha = 1.0
    for val, dval in zip(values, steps):
        mask = (dval < 0) & (val > 0)
        if np.any(mask):
            alpha = min(alpha, factor * float(np.min(val[mask] / -dval[mask])))
    return alpha


def box_barrier_problem(oracle: ObjectiveOracle, box: BoxConstraints,
                        damping: Optional[float] = None) -> HomotopyProblem:
    """Primal-dual optimality system of the box problem, parametrized by mu.

    The system is shaped like a homotopy problem whose parameter slot carries
    the barrier weight, so the same Newton corrector drives both methods.
    ``damping`` enables a fraction-to-boundary step cap (plain full steps
    when None).
    """
    n = box.n
    blocks = BlockSystem(("x", "z_a", "z_b"), (n, n, n))

    def split(v):
        return v[:n], v[n:2 * n], v[2 * n:]

    def residual(v, mu):
        x, z_a, z_b = split(v)
        return pd_residual_box(oracle.gradient(x), x, box, DualPair(z_a, z_b), mu)

    def jacobian(v, mu):
        x, z_a, z_b = split(v)
        return _box_newton_matrix(blocks, oracle.hessian(x), x, box, DualPair(z_a, z_b))

    def dh_dmu(v, mu):
        return np.concatenate([np.zeros(n), -np.ones(n), -np.ones(n)])

    def valid(v):
        x, z_a, z_b = split(v)
        return box.interior(x) and bool(np.all(z_a > 0) and np.all(z_b > 0))

    step_limit = None
    if damping is not None:
        def step_limit(v, dv):
            x, z_a, z_b = split(v)
            dx, dza, dzb = split(dv)
            return fraction_to_boundary(
                (box.lower_gap(x), box.upper_gap(x), z_a, z_b),
                (dx, -dx, dza, dzb), damping)

    return HomotopyProblem(residual, jacobian, dh_dmu, dim=3 * n,
                           iterate_valid=valid, mu_of_t=lambda mu: mu,
                           step_limit=step_limit)


def geometric_rule(factor: float = 0.5) -> Callable[[float], float]:
    """Simple contraction update mu -> factor * mu."""
    if not 0.0 < factor < 1.0:
        raise ValueError("contraction factor must lie in (0, 1)")
    return lambda mu: factor * mu


def run_pd_barrier(oracle: ObjectiveOracle, x0: np.ndarray, box: BoxConstraints,
                   mu0: float, mu_inf: float,
                   theta: Optional[Callable[[float], float]] = None,
                   cfg: Optional[NewtonConfig] = None,
                   damping: Optional[float] = None,
                   on_subproblem: Optional[Callable] = None):
    """Standalone primal-dual barrier method on a box-constrained problem.

    Starts from a strictly interior ``x0`` with duals mu0 / c(x0), walks the
    barrier weight with ``theta`` (default: halve it) while it stays at or
    above ``mu_inf``, and Newton-solves each subproblem from the previous
    solution.  Returns ``(x, DualPair)``; a diverged subproblem raises
    :class:`BarrierDivergedError` with the trace collected so far.
    """
    theta = theta if theta is not None else geometric_rule(0.5)
    cfg = cfg if cfg is not None else NewtonConfig()
    x = np.asarray(x0, dtype=np.float64).copy()
    if not box.interior(x):
        raise NonInteriorError("x0 must be strictly interior")
    n = box.n
    v = np.concatenate([x, mu0 / box.lower_gap(x), mu0 / box.upper_gap(x)])
    problem = box_barrier_problem(oracle, box, damping=damping)
    trace = SolveTrace()
    mu = float(mu0)
    index = 0
    while mu >= mu_inf:
        if index >= 100_000:
            raise RuntimeError("barrier schedule did not reach mu_inf; theta must decrease mu")
        mu = float(theta(mu))
        result = newton_corrector(problem, v, mu, cfg)
        index += 1
        trace.records.append(TraceRecord(index, None, mu, result.iters,
                                         result.residual_norm, result.converged,
                                         reason=result.reason))
        if not result.converged:
            raise BarrierDivergedError(
                f"barrier subproblem at mu={mu:.6g} diverged ({result.reason})", trace)
        v = result.x
        if on_subproblem is not None:
            on_subproblem(mu, v[:n].copy(), DualPair(v[n:2 * n].copy(), v[2 * n:].copy()))
    return v[:n], DualPair(v[n:2 * n], v[2 * n:])
