"""Configuration parsing, result serialization, and the batch CLI.

Config files are flat ``key = value`` text with dotted section prefixes
(``mesh.nx = 60``).  An empty file yields the full default configuration.
Outputs are a ``param_history.csv`` with one row per attempted continuation
step and legacy-VTK ASCII density fields; identical configurations produce
byte-identical files.
"""
from __future__ import annotations

import argparse
import hashlib
import math
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import solver
from .barrier import (BoxConstraints, ObjectiveOracle, geometric_rule,
                      run_pd_barrier)
from .fem import MaterialModel, default_material
from .homotopy import NewtonConfig, SolveTrace, StepController, global_homotopy, trace
from .lagrangian import ProblemParams, default_params
from .mesh import TriMesh, bridge_domain, build_structured_mesh

__all__ = [
    "SolverConfig",
    "MeshConfig",
    "BarrierConfig",
    "SteppingConfig",
    "NewtonSettings",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_digest",
    "write_param_history",
    "write_density_vtk",
    "read_density_vtk",
    "run_cli",
    "main",
]

DEFAULT_SNAPSHOTS = (0.0, 0.5, 0.9375, 0.999931, 0.999946, 0.999956,
                     0.999974, 0.999988, 1.0)


class ConfigError(ValueError):
    """Configuration file could not be parsed or validated."""


@dataclass(frozen=True)
class MeshConfig:
    nx: int = 60
    ny: int = 20
    # "mirrored" keeps the triangulation left-right symmetric, matching the
    # symmetry of the physical problem; "right" splits every cell the same way.
    diagonal: str = "mirrored"


@dataclass(frozen=True)
class BarrierConfig:
    mu0: float = 50.0
    mu_inf: float = 1e-3
    schedule: str = "linear"


@dataclass(frozen=True)
class SteppingConfig:
    dt_init: float = 0.25
    dt_max: float = 0.25
    growth: float = 1.5
    shrink: float = 0.5
    dt_min: float = 1e-8


@dataclass(frozen=True)
class NewtonSettings:
    tol: float = 1e-8
    max_iter: int = 20
    divergence_growth: float = 1e3
    # Fraction-to-boundary step cap for the combined solver's corrector;
    # 0 disables it (plain full Newton steps).  Kept on by default: the
    # discrete optimality system loses its intermediate-design branch at a
    # mesh-dependent barrier weight, and plain steps cannot cross over.
    damping: float = 0.995


@dataclass(frozen=True)
class SolverConfig:
    """Full run configuration; the defaults reproduce the reference setup."""

    mesh: MeshConfig = field(default_factory=MeshConfig)
    material: MaterialModel = field(default_factory=default_material)
    params: ProblemParams = field(default_factory=default_params)
    barrier: BarrierConfig = field(default_factory=BarrierConfig)
    stepping: SteppingConfig = field(default_factory=SteppingConfig)
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    predictor_order: int = 0
    out_dir: str = "out"
    snapshots: tuple = DEFAULT_SNAPSHOTS


_INT = ("int", int)
_FLOAT = ("float", float)
_STR = ("str", str)


def _parse_snapshots(text: str) -> tuple:
    values = tuple(float(v) for v in text.split(",") if v.strip())
    return values


_SCHEMA = {
    "mesh.nx": _INT,
    "mesh.ny": _INT,
    "mesh.diagonal": _STR,
    "material.lambda0": _FLOAT,
    "material.lambda1": _FLOAT,
    "material.mu0": _FLOAT,
    "material.mu1": _FLOAT,
    "material.exponent": _FLOAT,
    "params.gamma": _FLOAT,
    "params.beta": _FLOAT,
    "params.epsilon": _FLOAT,
    "barrier.mu0": _FLOAT,
    "barrier.mu_inf": _FLOAT,
    "barrier.schedule": _STR,
    "stepping.dt_init": _FLOAT,
    "stepping.dt_max": _FLOAT,
    "stepping.growth": _FLOAT,
    "stepping.shrink": _FLOAT,
    "stepping.dt_min": _FLOAT,
    "newton.tol": _FLOAT,
    "newton.max_iter": _INT,
    "newton.divergence_growth": _FLOAT,
    "newton.damping": _FLOAT,
    "predictor_order": _INT,
    "out_dir": _STR,
    "snapshots": ("floats", _parse_snapshots),
}


def parse_config_text(text: str) -> SolverConfig:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _SCHEMA:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        typename, caster = _SCHEMA[key]
        try:
            values[key] = caster(value)
        except ValueError:
            raise ConfigError(
                f"line {lineno}: value for {key} must be {typename}, got {value!r}"
            ) from None
    return _build_config(values)


def parse_config(path) -> SolverConfig:
    return parse_config_text(Path(path).read_text(encoding="utf-8"))


def _build_config(values: dict) -> SolverConfig:
    def pick(key, default):
        return values.get(key, default)

    defaults = SolverConfig()
    try:
        material = MaterialModel(
            lambda0=pick("material.lambda0", defaults.material.lambda0),
            lambda1=pick("material.lambda1", defaults.material.lambda1),
            mu0=pick("material.mu0", defaults.material.mu0),
            mu1=pick("material.mu1", defaults.material.mu1),
            exponent=pick("material.exponent", defaults.material.exponent),
        )
        params = ProblemParams(
            gamma=pick("params.gamma", defaults.params.gamma),
            beta=pick("params.beta", defaults.params.beta),
            epsilon=pick("params.epsilon", defaults.params.epsilon),
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    cfg = SolverConfig(
        mesh=MeshConfig(
            nx=pick("mesh.nx", defaults.mesh.nx),
            ny=pick("mesh.ny", defaults.mesh.ny),
            diagonal=pick("mesh.diagonal", defaults.mesh.diagonal),
        ),
        material=material,
        params=params,
        barrier=BarrierConfig(
            mu0=pick("barrier.mu0", defaults.barrier.mu0),
            mu_inf=pick("barrier.mu_inf", defaults.barrier.mu_inf),
            schedule=pick("barrier.schedule", defaults.barrier.schedule),
        ),
        stepping=SteppingConfig(
            dt_init=pick("stepping.dt_init", defaults.stepping.dt_init),
            dt_max=pick("stepping.dt_max", defaults.stepping.dt_max),
            growth=pick("stepping.growth", defaults.stepping.growth),
            shrink=pick("stepping.shrink", defaults.stepping.shrink),
            dt_min=pick("stepping.dt_min", defaults.stepping.dt_min),
        ),
        newton=NewtonSettings(
            tol=pick("newton.tol", defaults.newton.tol),
            max_iter=pick("newton.max_iter", defaults.newton.max_iter),
            divergence_growth=pick("newton.divergence_growth", defaults.newton.divergence_growth),
            damping=pick("newton.damping", defaults.newton.damping),
        ),
        predictor_order=pick("predictor_order", defaults.predictor_order),
        out_dir=pick("out_dir", defaults.out_dir),
        snapshots=tuple(pick("snapshots", defaults.snapshots)),
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: SolverConfig) -> None:
    if cfg.mesh.nx < 1 or cfg.mesh.ny < 1:
        raise ConfigError("mesh.nx and mesh.ny must be at least 1")
    if cfg.mesh.diagonal not in ("right", "mirrored"):
        raise ConfigError(f"mesh.diagonal must be 'right' or 'mirrored', got {cfg.mesh.diagonal!r}")
    if cfg.barrier.mu_inf <= 0 or cfg.barrier.mu0 <= 0:
        raise ConfigError("barrier.mu0 and barrier.mu_inf must be positive")
    if cfg.barrier.mu_inf >= cfg.barrier.mu0:
        raise ConfigError("barrier.mu_inf must be below barrier.mu0 (schedule must decrease)")
    if cfg.barrier.schedule not in ("linear", "geometric"):
        raise ConfigError(f"barrier.schedule must be 'linear' or 'geometric', got {cfg.barrier.schedule!r}")
    st = cfg.stepping
    if not 0 < st.dt_init <= st.dt_max:
        raise ConfigError("stepping requires 0 < dt_init <= dt_max")
    if st.growth < 1.0 or not 0 < st.shrink < 1:
        raise ConfigError("stepping requires growth >= 1 and 0 < shrink < 1")
    if st.dt_min <= 0:
        raise ConfigError("stepping.dt_min must be positive")
    if cfg.newton.tol <= 0 or cfg.newton.max_iter < 1:
        raise ConfigError("newton requires tol > 0 and max_iter >= 1")
    if not 0.0 <= cfg.newton.damping < 1.0:
        raise ConfigError("newton.damping must lie in [0, 1); 0 disables it")
    if cfg.predictor_order not in (0, 1):
        raise ConfigError("predictor_order must be 0 or 1")
    if any(not 0.0 <= s <= 1.0 for s in cfg.snapshots):
        raise ConfigError("snapshots must lie in [0, 1]")


def serialize_config(cfg: SolverConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    items = {
        "mesh.nx": cfg.mesh.nx,
        "mesh.ny": cfg.mesh.ny,
        "mesh.diagonal": cfg.mesh.diagonal,
        "material.lambda0": cfg.material.lambda0,
        "material.lambda1": cfg.material.lambda1,
        "material.mu0": cfg.material.mu0,
        "material.mu1": cfg.material.mu1,
        "material.exponent": cfg.material.exponent,
        "params.gamma": cfg.params.gamma,
        "params.beta": cfg.params.beta,
        "params.epsilon": cfg.params.epsilon,
        "barrier.mu0": cfg.barrier.mu0,
        "barrier.mu_inf": cfg.barrier.mu_inf,
        "barrier.schedule": cfg.barrier.schedule,
        "stepping.dt_init": cfg.stepping.dt_init,
        "stepping.dt_max": cfg.stepping.dt_max,
        "stepping.growth": cfg.stepping.growth,
        "stepping.shrink": cfg.stepping.shrink,
        "stepping.dt_min": cfg.stepping.dt_min,
        "newton.tol": cfg.newton.tol,
        "newton.max_iter": cfg.newton.max_iter,
        "newton.divergence_growth": cfg.newton.divergence_growth,
        "newton.damping": cfg.newton.damping,
        "predictor_order": cfg.predictor_order,
        "out_dir": cfg.out_dir,
        "snapshots": ",".join(repr(float(s)) for s in cfg.snapshots),
    }
    lines = []
    for key, value in items.items():
        if isinstance(value, float):
            lines.append(f"{key} = {value!r}")
        else:
            lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def config_digest(cfg: SolverConfig) -> str:
    """Digest of the solution-relevant configuration.

    Output locations and snapshot requests do not change the computed fields,
    so they are excluded; identical problems yield identical digests.
    """
    lines = [line for line in serialize_config(cfg).splitlines()
             if not line.startswith(("out_dir", "snapshots"))]
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()[:12]


def write_param_history(trace_result: SolveTrace, path) -> None:
    """CSV with header ``it,t,mu`` and one row per attempted step."""
    if not trace_result.records:
        raise ValueError("cannot write an empty trace")
    lines = ["it,t,mu"]
    for i, rec in enumerate(trace_result.records, start=1):
        if rec.t is None or rec.mu is None:
            raise ValueError("trace records need both t and mu for param history output")
        lines.append(f"{i},{float(rec.t)!r},{float(rec.mu)!r}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def write_density_vtk(mesh: TriMesh, rho: np.ndarray, path, title: str = "density") -> None:
    """Legacy-VTK ASCII unstructured grid with a point scalar field ``rho``."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (mesh.n_vertices,):
        raise ValueError("rho must have one value per mesh vertex")
    out = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID"]
    out.append(f"POINTS {mesh.n_vertices} double")
    for x, y in mesh.vertices:
        out.append(f"{float(x)!r} {float(y)!r} 0.0")
    out.append(f"CELLS {mesh.n_triangles} {4 * mesh.n_triangles}")
    for a, b, c in mesh.triangles:
        out.append(f"3 {a} {b} {c}")
    out.append(f"CELL_TYPES {mesh.n_triangles}")
    out.extend(["5"] * mesh.n_triangles)
    out.append(f"POINT_DATA {mesh.n_vertices}")
    out.append("SCALARS rho double 1")
    out.append("LOOKUP_TABLE default")
    for v in rho:
        out.append(f"{float(v)!r}")
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


def read_density_vtk(path):
    """Read back a file written by :func:`write_density_vtk`.

    Returns ``(points, triangles, rho)``; used for round-trip checks.
    """
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    idx = 0

    def expect_prefix(prefix):
        nonlocal idx
        while idx < len(lines) and not lines[idx].startswith(prefix):
            idx += 1
        if idx == len(lines):
            raise ValueError(f"missing {prefix!r} section in {path}")
        return lines[idx]

    header = expect_prefix("POINTS")
    n_points = int(header.split()[1])
    points = np.array([[float(v) for v in lines[idx + 1 + i].split()[:2]]
                       for i in range(n_points)])
    idx += n_points
    header = expect_prefix("CELLS")
    n_cells = int(header.split()[1])
    tris = np.array([[int(v) for v in lines[idx + 1 + i].split()[1:]]
                     for i in range(n_cells)], dtype=np.int64)
    idx += n_cells
    expect_prefix("LOOKUP_TABLE")
    rho = np.array([float(lines[idx + 1 + i]) for i in range(n_points)])
    return points, tris, rho


# ---------------------------------------------------------------------------
# reference scalar problems (used by the `scalar-demos` subcommand)

CUBIC_ROOT = (-1.0 - math.sqrt(17.0)) / 8.0
CUBIC_PATH_POINTS = {0.4: -1.0420, 0.65: -0.9147, 0.9: -0.7399}
QUARTIC_MINIMIZERS = {2.9: 0.2008, 1.1: 0.0315, 0.4: -0.2456, 0.1: -0.41}


def _cubic(x: np.ndarray) -> np.ndarray:
    return 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0


def _cubic_jac(x: np.ndarray) -> np.ndarray:
    return np.diag(12.0 * x ** 2 - 6.0 * x - 2.0)


def quartic_oracle() -> ObjectiveOracle:
    return ObjectiveOracle(
        value=lambda x: float(x[0] ** 4 - x[0] ** 3 - x[0] ** 2 + x[0] + 0.25),
        gradient=lambda x: 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0,
        hessian=lambda x: np.diag(12.0 * x ** 2 - 6.0 * x - 2.0),
    )


def run_cubic_demo(predictor_order: int = 0):
    """Trace the cubic test problem, landing on the reference t values.

    Returns ``(path_values, x_final, trace)`` where ``path_values`` maps each
    landed t to the accepted x.
    """
    targets = tuple(sorted(CUBIC_PATH_POINTS))
    problem = global_homotopy(_cubic, _cubic_jac, np.array([-1.2]))
    controller = StepController(dt_init=0.25, dt_max=0.25, checkpoints=targets)
    captured = {}

    def on_accept(t, x):
        for target in targets:
            if abs(t - target) < 1e-12:
                captured[target] = float(x[0])

    x, tr = trace(problem, np.array([-1.2]), controller, NewtonConfig(),
                  predictor_order=predictor_order, on_accept=on_accept)
    return captured, float(x[0]), tr


def mu_sequence_rule(values: Sequence[float], fallback: float = 0.5):
    """Schedule that walks an explicit list of mu values, then contracts."""
    remaining = list(values)

    def theta(mu: float) -> float:
        if remaining:
            return remaining.pop(0)
        return fallback * mu

    return theta


def run_quartic_demo(mu_stop: float = 0.2):
    """Barrier method on the quartic box problem, visiting the reference mus.

    Returns ``(minimizers, x_final)``; ``minimizers`` maps mu to the
    subproblem solution.
    """
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    mus = sorted(QUARTIC_MINIMIZERS, reverse=True)
    minimizers = {}

    def capture(mu, x, duals):
        minimizers[round(mu, 12)] = float(x[0])

    x, _ = run_pd_barrier(quartic_oracle(), box.analytic_center(), box,
                          mu0=mus[0], mu_inf=mu_stop,
                          theta=mu_sequence_rule(mus),
                          on_subproblem=capture)
    return minimizers, float(x[0])


# ---------------------------------------------------------------------------
# CLI

def _print_err(*args) -> None:
    print(*args, file=sys.stderr)


def _cmd_solve(args) -> int:
    path = args.config_opt or args.config
    try:
        cfg = parse_config(path) if path else SolverConfig()
    except (ConfigError, OSError) as exc:
        _print_err(f"error: {exc}")
        return 1
    if args.out_dir:
        cfg = replace(cfg, out_dir=args.out_dir)
    if args.snapshots:
        cfg = replace(cfg, snapshots=_parse_snapshots(args.snapshots))
    if args.predictor is not None:
        cfg = replace(cfg, predictor_order=args.predictor)
    if args.verbose:
        import logging
        logging.basicConfig(level=logging.INFO, format="%(message)s")

    try:
        msh = build_structured_mesh(bridge_domain(), cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.diagonal)
    except ValueError as exc:
        _print_err(f"error: {exc}")
        return 1
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_digest(cfg)
    title = f"rho nx={cfg.mesh.nx} ny={cfg.mesh.ny} config={digest}"
    pending = sorted(set(cfg.snapshots))

    def on_accept(t, point):
        nonlocal pending
        if pending and t >= pending[0] - 1e-12:
            write_density_vtk(msh, point.rho, out_dir / f"density_t{t:.6f}.vtk", title=title)
            pending = [s for s in pending if s > t + 1e-12]

    try:
        point, tr = solver.run(cfg, on_accept=on_accept)
    except Exception as exc:
        _print_err(f"error: solve failed: {exc}")
        return 1
    write_density_vtk(msh, point.rho, out_dir / "density_final.vtk", title=title)
    write_param_history(tr, out_dir / "param_history.csv")
    final = tr.accepted()[-1]
    print(f"solve finished: {tr.n_accepted} accepted / {tr.n_attempts} total steps, "
          f"final residual {final.residual_norm:.3e}")
    print(f"outputs in {out_dir}")
    return 0


def _cmd_scalar_demos(_args) -> int:
    ok = True
    captured, x_final, _ = run_cubic_demo()
    for t in sorted(CUBIC_PATH_POINTS):
        expected = CUBIC_PATH_POINTS[t]
        got = captured.get(t)
        passed = got is not None and abs(got - expected) < 1e-3
        ok &= passed
        print(f"cubic x({t:.2f}) = {got:+.6f} (reference {expected:+.4f})  "
              f"{'PASS' if passed else 'FAIL'}")
    passed = abs(x_final - CUBIC_ROOT) < 1e-6
    ok &= passed
    print(f"cubic x(1.00) = {x_final:+.8f} (root {CUBIC_ROOT:+.8f})  "
          f"{'PASS' if passed else 'FAIL'}")

    minimizers, _ = run_quartic_demo()
    for mu in sorted(QUARTIC_MINIMIZERS, reverse=True):
        expected = QUARTIC_MINIMIZERS[mu]
        got = minimizers.get(round(mu, 12))
        passed = got is not None and abs(got - expected) < 1e-3
        ok &= passed
        print(f"quartic argmin B(x;{mu}) = {got:+.6f} (reference {expected:+.4f})  "
              f"{'PASS' if passed else 'FAIL'}")
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    x_lim, _ = run_pd_barrier(quartic_oracle(), box.analytic_center(), box,
                              mu0=2.9, mu_inf=1e-6, theta=geometric_rule(0.5))
    passed = abs(float(x_lim[0]) - (-0.5)) < 1e-3
    ok &= passed
    print(f"quartic x(mu->0) = {float(x_lim[0]):+.6f} (bound -0.5)  "
          f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), 1e-30)
    return float(np.linalg.norm(approx - exact)) / scale


def _cmd_check_derivatives(args) -> int:
    path = args.config_opt or args.config
    try:
        cfg = parse_config(path) if path else SolverConfig()
    except (ConfigError, OSError) as exc:
        _print_err(f"error: {exc}")
        return 1
    try:
        system, schedule = solver.build_system(cfg)
    except ValueError as exc:
        _print_err(f"error: {exc}")
        return 1
    lagr = system.lagr
    rng = np.random.default_rng(0)
    n, l = system.n, system.l
    h = 1e-6
    worst_grad = 0.0
    worst_hess = 0.0
    worst_jac = 0.0
    worst_ht = 0.0
    for _ in range(args.points):
        rho = rng.uniform(0.2, 0.8, size=n)
        u = rng.standard_normal(l)
        p = rng.standard_normal(l)
        g = lagr.gradient(rho, u, p)

        # gradient vs directional central differences of L
        for grad_block, make_args in (
            (g.d_rho, lambda d: (rho + d, u, p)),
            (g.d_u, lambda d: (rho, u + d, p)),
            (g.d_p, lambda d: (rho, u, p + d)),
        ):
            size = grad_block.size
            for _k in range(3):
                direction = rng.standard_normal(size)
                direction /= np.linalg.norm(direction)
                fd = (lagr.value(*make_args(h * direction))
                      - lagr.value(*make_args(-h * direction))) / (2.0 * h)
                worst_grad = max(worst_grad, abs(fd - float(grad_block @ direction))
                                 / max(abs(float(grad_block @ direction)), 1.0))

        # hessian blocks vs directional central differences of the gradient
        hess = lagr.hessian(rho, u, p)
        d_rho = rng.standard_normal(n)
        d_rho /= np.linalg.norm(d_rho)
        gp = lagr.gradient(rho + h * d_rho, u, p)
        gm = lagr.gradient(rho - h * d_rho, u, p)
        worst_hess = max(worst_hess,
                         _rel_err((gp.d_rho - gm.d_rho) / (2 * h), hess.rr.matvec(d_rho)),
                         _rel_err((gp.d_u - gm.d_u) / (2 * h),
                                  hess.ru.transpose().matvec(d_rho)),
                         _rel_err((gp.d_p - gm.d_p) / (2 * h),
                                  hess.rp.transpose().matvec(d_rho)))
        d_u = rng.standard_normal(l)
        d_u /= np.linalg.norm(d_u)
        gp = lagr.gradient(rho, u + h * d_u, p)
        gm = lagr.gradient(rho, u - h * d_u, p)
        worst_hess = max(worst_hess,
                         _rel_err((gp.d_rho - gm.d_rho) / (2 * h), hess.ru.matvec(d_u)),
                         _rel_err((gp.d_p - gm.d_p) / (2 * h), hess.up.matvec(d_u)))

        # full residual Jacobian and t-derivative of the traced map
        point0, anchor = system.initialize(cfg.barrier.mu0)
        z_a = rng.uniform(0.5, 2.0, size=n)
        z_b = rng.uniform(0.5, 2.0, size=n)
        point = solver.KktPoint(rho, u, p, z_a, z_b)
        t = 0.5
        v = point.pack()
        direction = rng.standard_normal(v.size)
        direction /= np.linalg.norm(direction)
        rp = system.residual(system.unpack(v + h * direction), anchor, t, schedule)
        rm = system.residual(system.unpack(v - h * direction), anchor, t, schedule)
        jac_dir = system.jacobian(point).matvec(direction)
        worst_jac = max(worst_jac, _rel_err((rp - rm) / (2 * h), jac_dir))
        ht = system.h_t(anchor, t, schedule)
        fd_t = (system.residual(point, anchor, t + h, schedule)
                - system.residual(point, anchor, t - h, schedule)) / (2 * h)
        worst_ht = max(worst_ht, _rel_err(fd_t, ht))

    checks = (
        ("gradient vs FD(L)", worst_grad, 1e-6),
        ("hessian vs FD(gradient)", worst_hess, 1e-5),
        ("jacobian vs FD(residual)", worst_jac, 1e-5),
        ("h_t vs FD in t", worst_ht, 1e-6),
    )
    ok = True
    for name, err, tol in checks:
        passed = err <= tol
        ok &= passed
        print(f"{name}: max relative error {err:.3e} (tol {tol:.0e})  "
              f"{'PASS' if passed else 'FAIL'}")
    return 0 if ok else 1


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homotopt",
        description="Barrier-homotopy solver for density-based topology optimization.",
    )
    sub = parser.add_subparsers(dest="command")
    p_solve = sub.add_parser("solve", help="run the full continuation solve")
    p_solve.add_argument("config", nargs="?", default=None, help="config file path")
    p_solve.add_argument("--config", dest="config_opt", default=None)
    p_solve.add_argument("--out-dir", default=None)
    p_solve.add_argument("--snapshots", default=None,
                         help="comma-separated t values for density snapshots")
    p_solve.add_argument("--predictor", type=int, choices=(0, 1), default=None)
    p_solve.add_argument("--verbose", action="store_true")
    sub.add_parser("scalar-demos", help="run the scalar reference problems")
    p_chk = sub.add_parser("check-derivatives",
                           help="finite-difference verification of all derivative blocks")
    p_chk.add_argument("config", nargs="?", default=None)
    p_chk.add_argument("--config", dest="config_opt", default=None)
    p_chk.add_argument("--points", type=int, default=3)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 2
    if args.command == "solve":
        return _cmd_solve(args)
    if args.command == "scalar-demos":
        return _cmd_scalar_demos(args)
    if args.command == "check-derivatives":
        return _cmd_check_derivatives(args)
    parser.print_usage(sys.stderr)
    return 2


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
