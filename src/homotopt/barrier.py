"""Primal-dual logarithmic barrier machinery for box constraints.

The perturbed optimality system couples stationarity with the complementarity
rows z .* c(x) = mu.  Solving it by Newton for a decreasing sequence of mu
values is the standalone barrier method, which builds each Newton matrix
``[[H, -I, I], [Z_a, G_a, 0], [-Z_b, 0, G_b]]`` with ``scipy.sparse.bmat`` and
factors it by pivoted LU; the combined solver reuses the residual rows
(:func:`pd_residual_box`) with mu driven by the continuation parameter.

Full Newton steps are taken (no line search).  An iterate leaving the strict
interior, in x or in the duals, is declared divergent.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp

from .homotopy import HomotopyProblem, NewtonConfig, newton_corrector, pivoted_lu
from .sparse import SparseMatrix, solve_direct  # solve_direct unused: perfbench/tracer.py wraps it

__all__ = [
    "BoxConstraints",
    "DualPair",
    "BarrierSchedule",
    "ObjectiveOracle",
    "NonInteriorError",
    "BarrierDivergedError",
    "pd_residual_box",
    "box_barrier_problem",
    "fraction_to_boundary",
    "geometric_rule",
    "run_pd_barrier",
]


class NonInteriorError(ValueError):
    """A point violates strict feasibility where the barrier needs it."""


class BarrierDivergedError(RuntimeError):
    """A barrier subproblem diverged."""


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

    mu0: float = 50.0
    mu_inf: float = 1e-3
    schedule: str = "linear"  # or "geometric"

    def __post_init__(self):
        if not self.mu0 > self.mu_inf > 0:
            raise ValueError("schedule: need mu0 > mu_inf > 0")
        if self.schedule not in ("linear", "geometric"):
            raise ValueError(f"schedule: unknown kind {self.schedule!r}")

    def mu(self, t: float) -> float:
        if self.schedule == "linear":
            return t * self.mu_inf + (1.0 - t) * self.mu0
        return self.mu0 * (self.mu_inf / self.mu0) ** t

    def dmu_dt(self, t: float) -> float:
        if self.schedule == "linear":
            return self.mu_inf - self.mu0
        return np.log(self.mu_inf / self.mu0) * self.mu(t)


@dataclass(frozen=True)
class ObjectiveOracle:
    """Objective bundle: gradient and Hessian callables on x."""

    gradient: Callable[[np.ndarray], np.ndarray]
    hessian: Callable[[np.ndarray], np.ndarray]


def pd_residual_box(grad: np.ndarray, x: np.ndarray, box: BoxConstraints,
                    duals: DualPair, mu: float) -> np.ndarray:
    """Stacked [stationarity; lower complementarity; upper complementarity]."""
    grad = np.asarray(grad, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    r_stat = grad - duals.z_a + duals.z_b
    r_low = duals.z_a * box.lower_gap(x) - mu
    r_up = duals.z_b * box.upper_gap(x) - mu
    return np.concatenate([r_stat, r_low, r_up])


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


def box_barrier_problem(oracle: ObjectiveOracle, box: BoxConstraints) -> HomotopyProblem:
    """Primal-dual optimality system of the box problem, parametrized by mu.

    The system is shaped like a homotopy problem whose parameter slot carries
    the barrier weight, so the same Newton corrector drives both methods.
    """
    n = box.n
    eye = sp.identity(n, format="csr")

    def split(v):
        return np.split(v, (n, 2 * n))

    def residual(v, mu):
        x, z_a, z_b = split(v)
        return pd_residual_box(oracle.gradient(x), x, box, DualPair(z_a, z_b), mu)

    def factor(v, mu):
        x, z_a, z_b = split(v)
        return pivoted_lu(SparseMatrix(sp.bmat([
            [oracle.hessian(x), -eye, eye],
            [sp.diags(z_a), sp.diags(box.lower_gap(x)), None],
            [sp.diags(-z_b), None, sp.diags(box.upper_gap(x))],
        ], format="csr")))

    def valid(v):
        x, z_a, z_b = split(v)
        return box.interior(x) and bool(np.all(z_a > 0) and np.all(z_b > 0))

    return HomotopyProblem(residual, factor, iterate_valid=valid)


def geometric_rule(factor: float = 0.5) -> Callable[[float], float]:
    """Simple contraction update mu -> factor * mu."""
    if not 0.0 < factor < 1.0:
        raise ValueError("contraction factor must lie in (0, 1)")
    return lambda mu: factor * mu


def run_pd_barrier(oracle: ObjectiveOracle, x0: np.ndarray, box: BoxConstraints,
                   mu0: float, mu_inf: float,
                   theta: Optional[Callable[[float], float]] = None,
                   cfg: Optional[NewtonConfig] = None,
                   on_subproblem: Optional[Callable] = None):
    """Standalone primal-dual barrier method on a box-constrained problem.

    Starts from a strictly interior ``x0`` with duals mu0 / c(x0), walks the
    barrier weight with ``theta`` (default: halve it) while it stays at or
    above ``mu_inf``, and Newton-solves each subproblem from the previous
    solution.  Returns ``(x, DualPair)``; a diverged subproblem raises
    :class:`BarrierDivergedError` naming its mu and the Newton reason.
    """
    theta = theta if theta is not None else geometric_rule(0.5)
    cfg = cfg if cfg is not None else NewtonConfig()
    x = np.asarray(x0, dtype=np.float64).copy()
    if not box.interior(x):
        raise NonInteriorError("x0 must be strictly interior")
    n = box.n
    v = np.concatenate([x, mu0 / box.lower_gap(x), mu0 / box.upper_gap(x)])
    problem = box_barrier_problem(oracle, box)
    mu = float(mu0)
    index = 0
    while mu >= mu_inf:
        if index >= 100_000:
            raise RuntimeError("barrier schedule did not reach mu_inf; theta must decrease mu")
        mu = float(theta(mu))
        result = newton_corrector(problem, v, mu, cfg)
        index += 1
        if not result.converged:
            raise BarrierDivergedError(
                f"barrier subproblem at mu={mu:.6g} diverged ({result.reason})")
        v = result.x
        if on_subproblem is not None:
            x, z_a, z_b = (w.copy() for w in np.split(v, (n, 2 * n)))
            on_subproblem(mu, x, DualPair(z_a, z_b))
    x, z_a, z_b = np.split(v, (n, 2 * n))
    return x, DualPair(z_a, z_b)
