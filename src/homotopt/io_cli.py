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
import weakref
from dataclasses import dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import solver
from .barrier import (BarrierSchedule, BoxConstraints, ObjectiveOracle,
                      geometric_rule, run_pd_barrier)
from .fem import MaterialModel, default_material
from .homotopy import (NewtonConfig, SolveTrace, StepController, StepUnderflowError,
                       global_homotopy, trace)
from .lagrangian import ProblemParams, default_params
from .mesh import TriMesh, bridge_domain, build_structured_mesh
from .sparse import SingularMatrixError

__all__ = [
    "SolverConfig",
    "MeshConfig",
    "NewtonSettings",
    "ConfigError",
    "parse_config",
    "parse_config_text",
    "serialize_config",
    "config_digest",
    "write_param_history",
    "write_density_vtk",
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

    def __post_init__(self):
        if self.nx < 1 or self.ny < 1:
            raise ValueError("mesh.nx and mesh.ny must be at least 1")
        if self.diagonal not in ("right", "mirrored"):
            raise ValueError(f"mesh.diagonal must be 'right' or 'mirrored', got {self.diagonal!r}")


@dataclass(frozen=True)
class NewtonSettings(NewtonConfig):
    # Fraction-to-boundary step cap for the combined solver's corrector;
    # 0 disables it (plain full Newton steps).  Kept on by default: the
    # discrete optimality system loses its intermediate-design branch at a
    # mesh-dependent barrier weight, and plain steps cannot cross over.
    damping: float = 0.995

    def __post_init__(self):
        super().__post_init__()
        if not 0.0 <= self.damping < 1.0:
            raise ValueError("newton.damping must lie in [0, 1); 0 disables it")


@dataclass(frozen=True)
class SolverConfig:
    """Full run configuration; the defaults reproduce the reference setup.

    Each section is the object its layer runs with, and checks its own
    fields when built: ``barrier`` is the solver's ``BarrierSchedule``,
    ``stepping`` the tracer's ``StepController`` and ``newton`` the
    corrector's ``NewtonConfig`` plus the step ``damping``.
    """

    mesh: MeshConfig = field(default_factory=MeshConfig)
    material: MaterialModel = field(default_factory=default_material)
    params: ProblemParams = field(default_factory=default_params)
    barrier: BarrierSchedule = field(default_factory=BarrierSchedule)
    stepping: StepController = field(default_factory=StepController)
    newton: NewtonSettings = field(default_factory=NewtonSettings)
    out_dir: str = "out"
    snapshots: tuple = DEFAULT_SNAPSHOTS

    def __post_init__(self):
        if any(not 0.0 <= s <= 1.0 for s in self.snapshots):
            raise ValueError("snapshots must lie in [0, 1]")
        if not self.out_dir:
            raise ConfigError("out_dir must not be empty")


def _finite_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _parse_snapshots(text: str) -> tuple:
    return tuple(_finite_float(v) for v in text.split(",") if v.strip())


# Type of a field's default value -> (name in error messages, caster).
_CASTERS = {
    int: ("int", int),
    float: ("a finite float", _finite_float),
    str: ("str", str),
    tuple: ("comma-separated finite floats", _parse_snapshots),
}


def _config_table() -> dict:
    """``dotted key -> (section or None, field, _CASTERS entry)``, in
    serialization order."""
    table = {}
    defaults = SolverConfig()
    for top in fields(SolverConfig):
        value = getattr(defaults, top.name)
        if is_dataclass(value):
            for f in fields(value):
                caster = _CASTERS[type(getattr(value, f.name))]
                table[f"{top.name}.{f.name}"] = (top.name, f.name, caster)
        else:
            table[top.name] = (None, top.name, _CASTERS[type(value)])
    return table


_TABLE = _config_table()


def _cast(key: str, text: str, where: str):
    if key not in _TABLE:
        raise ConfigError(f"{where}: unknown key {key!r}")
    typename, caster = _TABLE[key][2]
    try:
        return caster(text)
    except ValueError:
        raise ConfigError(f"{where}: value for {key} must be {typename}, got {text!r}") from None


def parse_config_text(text: str) -> SolverConfig:
    values: dict = {}
    first_line: dict = {}  # key -> line that set it; a repeated key is an error
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if first_line.setdefault(key, lineno) != lineno:
            raise ConfigError(f"line {lineno}: key {key!r} already set on line {first_line[key]}")
        values[key] = _cast(key, value.strip(), f"line {lineno}")
    return _build_config(values, SolverConfig())


def parse_config(path) -> SolverConfig:
    try:  # one leading byte-order mark is dropped after decoding, so offsets count it
        text = Path(path).read_bytes().decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not valid UTF-8 at byte {exc.start}") from None
    return parse_config_text(text)


def _build_config(values: dict, base: SolverConfig) -> SolverConfig:
    """``base`` with ``values`` (dotted key -> cast value) applied; each
    rebuilt section checks itself."""
    changes: dict = {}
    for key, value in values.items():
        section, name, _ = _TABLE[key]
        changes.setdefault(section, {})[name] = value
    top = changes.pop(None, {})
    try:
        for section, section_changes in changes.items():
            top[section] = replace(getattr(base, section), **section_changes)
        cfg = replace(base, **top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return cfg


def serialize_config(cfg: SolverConfig) -> str:
    """Canonical text form; parsing it reproduces the configuration."""
    lines = []
    for key, (section, name, (_, cast)) in _TABLE.items():
        value = getattr(getattr(cfg, section) if section else cfg, name)
        if cast is _parse_snapshots:
            value = ",".join(repr(float(s)) for s in value)
        lines.append(f"{key} = {value!r}" if isinstance(value, float) else f"{key} = {value}")
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


# Each mesh's POINTS, CELLS, CELL_TYPES and POINT_DATA text, rendered at its
# first write; a mesh's arrays are read-only, so the text cannot go stale, and
# the weak keys let it die with its mesh.
_VTK_MESH_BLOCKS = weakref.WeakKeyDictionary()


def _vtk_mesh_block(mesh: TriMesh) -> str:
    block = _VTK_MESH_BLOCKS.get(mesh)
    if block is None:
        n_v, n_t = mesh.n_vertices, mesh.n_triangles
        block = "\n".join([
            f"POINTS {n_v} double",
            *(f"{x!r} {y!r} 0.0" for x, y in mesh.vertices.tolist()),
            f"CELLS {n_t} {4 * n_t}",
            *(f"3 {a} {b} {c}" for a, b, c in mesh.triangles.tolist()),
            f"CELL_TYPES {n_t}",
            *["5"] * n_t,
            f"POINT_DATA {n_v}",
            "SCALARS rho double 1",
            "LOOKUP_TABLE default"])
        _VTK_MESH_BLOCKS[mesh] = block
    return block


def write_density_vtk(mesh: TriMesh, rho: np.ndarray, path, title: str = "density") -> None:
    """Legacy-VTK ASCII unstructured grid with a point scalar field ``rho``.

    The mesh's part of the file is rendered once per mesh, at its first
    write, and reused by every later write of that mesh."""
    rho = np.asarray(rho, dtype=np.float64)
    if rho.shape != (mesh.n_vertices,):
        raise ValueError("rho must have one value per mesh vertex")
    out = ["# vtk DataFile Version 2.0", title, "ASCII", "DATASET UNSTRUCTURED_GRID",
           _vtk_mesh_block(mesh), *map(repr, rho.tolist())]
    Path(path).write_text("\n".join(out) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# reference scalar problems (used by the `scalar-demos` subcommand)

CUBIC_ROOT = (-1.0 - math.sqrt(17.0)) / 8.0
CUBIC_PATH_POINTS = {0.4: -1.0420, 0.65: -0.9147, 0.9: -0.7399}
QUARTIC_MINIMIZERS = {2.9: 0.2008, 1.1: 0.0315, 0.4: -0.2456, 0.1: -0.41}


def quartic_oracle() -> ObjectiveOracle:
    """The quartic x^4 - x^3 - x^2 + x + 1/4; its gradient is the cubic test
    problem 4x^3 - 3x^2 - 2x + 1."""
    return ObjectiveOracle(
        gradient=lambda x: 4.0 * x ** 3 - 3.0 * x ** 2 - 2.0 * x + 1.0,
        hessian=lambda x: np.diag(12.0 * x ** 2 - 6.0 * x - 2.0),
    )


def run_cubic_demo():
    """Trace the cubic test problem, landing on the reference t values.

    Returns ``(path_values, x_final)`` where ``path_values`` maps each
    landed t to the accepted x.
    """
    targets = tuple(sorted(CUBIC_PATH_POINTS))
    cubic = quartic_oracle()
    problem = global_homotopy(cubic.gradient, cubic.hessian, np.array([-1.2]))
    controller = StepController(dt_init=0.25, dt_max=0.25)
    captured = {}

    def on_accept(t, x):
        for target in targets:
            if abs(t - target) < 1e-12:
                captured[target] = float(x[0])

    x, _ = trace(problem, np.array([-1.2]), controller, NewtonConfig(), on_accept=on_accept,
                 checkpoints=targets)
    return captured, float(x[0])


def mu_sequence_rule(values: Sequence[float], fallback: float = 0.5):
    """Schedule that walks an explicit list of mu values, then contracts."""
    remaining = list(values)

    def theta(mu: float) -> float:
        if remaining:
            return remaining.pop(0)
        return fallback * mu

    return theta


def run_quartic_demo():
    """Barrier method on the quartic box problem, visiting the reference mus
    down to mu = 0.2.

    Returns ``minimizers``, which maps mu to the subproblem solution.
    """
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    mus = sorted(QUARTIC_MINIMIZERS, reverse=True)
    minimizers = {}

    def capture(mu, x, duals):
        minimizers[round(mu, 12)] = float(x[0])

    run_pd_barrier(quartic_oracle(), box.analytic_center(), box, mu0=mus[0], mu_inf=0.2,
                   theta=mu_sequence_rule(mus), on_subproblem=capture)
    return minimizers


# ---------------------------------------------------------------------------
# CLI

def _print_err(*args) -> None:
    print(*args, file=sys.stderr)


def _report(line: str, passed: bool) -> bool:
    """Print one self-check line with its verdict; returns ``passed``."""
    print(f"{line}  {'PASS' if passed else 'FAIL'}")
    return passed


def _load_config(args, **overrides) -> Optional[SolverConfig]:
    """The config file (or the defaults) with the set command-line overrides
    applied and validated like file values; None after printing the error,
    also when a config path is given both as the argument and by ``--config``."""
    if args.config and args.config_opt:
        _print_err(f"error: two config files given: {args.config} and --config {args.config_opt}")
        return None
    path = args.config_opt or args.config
    try:
        cfg = parse_config(path) if path else SolverConfig()
        values = {key: _cast(key, str(text), "command line")
                  for key, text in overrides.items() if text is not None}
        return _build_config(values, cfg)
    except (ConfigError, OSError) as exc:
        _print_err(f"error: {exc}")
        return None


def _cmd_solve(args) -> int:
    cfg = _load_config(args, out_dir=args.out_dir, snapshots=args.snapshots)
    if cfg is None:
        return 1
    if args.verbose:
        import logging
        logging.basicConfig(level=logging.INFO, format="%(message)s")

    try:
        msh = build_structured_mesh(bridge_domain(), cfg.mesh.nx, cfg.mesh.ny, cfg.mesh.diagonal)
        return _solve_and_write(cfg, msh)
    except (ValueError, OSError) as exc:  # a bad mesh or an unwritable output
        _print_err(f"error: {exc}")
        return 1


def _solve_and_write(cfg: SolverConfig, msh: TriMesh) -> int:
    out_dir = Path(cfg.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    digest = config_digest(cfg)
    title = f"rho nx={cfg.mesh.nx} ny={cfg.mesh.ny} config={digest}"
    pending = sorted(set(cfg.snapshots))
    last = None  # (t, point) of the last accepted step

    def snapshot(t, point):
        write_density_vtk(msh, point.rho, out_dir / f"density_t{t:.6f}.vtk", title=title)

    def on_accept(t, point):
        nonlocal pending, last
        last = (t, point)
        if pending and t >= pending[0] - 1e-12:
            snapshot(t, point)
            pending = [s for s in pending if s > t + 1e-12]

    try:
        point, tr = solver.run(cfg, on_accept=on_accept, mesh=msh)
    except StepUnderflowError as exc:
        # Keep what was traced: the history up to the failed endpoint jump
        # and the last accepted density.
        write_param_history(exc.trace, out_dir / "param_history.csv")
        snapshot(*last)
        _print_err(f"error: solve failed: {exc}")
        _print_err(f"partial outputs in {out_dir}")
        return 1
    except (SingularMatrixError, ValueError) as exc:
        _print_err(f"error: solve failed: {exc}")
        return 1
    write_density_vtk(msh, point.rho, out_dir / "density_final.vtk", title=title)
    write_param_history(tr, out_dir / "param_history.csv")
    final = tr.records[-1]
    t_traced = max([r.t for r in tr.accepted() if not r.endpoint_jump], default=0.0)
    how = f"; t = 1 reached by endpoint jump from t = {t_traced:.8g}" if final.endpoint_jump else ""
    print(f"solve finished: {tr.n_accepted} accepted / {tr.n_attempts} total steps, "
          f"final residual {final.residual_norm:.3e}{how}")
    if tr.final_negative is not None:
        print("negative eigenvalues of the final reduced Hessian: {} mirror-symmetric, "
              "{} antisymmetric".format(*tr.final_negative))
    print(f"outputs in {out_dir}")
    return 0


def _cmd_scalar_demos(_args) -> int:
    def near(label, got, ref):
        return _report(f"{label} = {got:+.6f} (reference {ref:+.4f})", abs(got - ref) < 1e-3)

    captured, x_final = run_cubic_demo()
    results = [near(f"cubic x({t:.2f})", captured.get(t, math.nan), ref)
               for t, ref in sorted(CUBIC_PATH_POINTS.items())]
    results.append(_report(f"cubic x(1.00) = {x_final:+.8f} (root {CUBIC_ROOT:+.8f})",
                           abs(x_final - CUBIC_ROOT) < 1e-6))
    minimizers = run_quartic_demo()
    results += [near(f"quartic argmin B(x;{mu})", minimizers.get(round(mu, 12), math.nan), ref)
                for mu, ref in sorted(QUARTIC_MINIMIZERS.items(), reverse=True)]
    box = BoxConstraints(np.array([-0.5]), np.array([1.0]))
    x_lim, _ = run_pd_barrier(quartic_oracle(), box.analytic_center(), box,
                              mu0=2.9, mu_inf=1e-6, theta=geometric_rule(0.5))
    x_lim = float(x_lim[0])
    results.append(_report(f"quartic x(mu->0) = {x_lim:+.6f} (bound -0.5)",
                           abs(x_lim - (-0.5)) < 1e-3))
    return 0 if all(results) else 1


def _rel_err(approx: np.ndarray, exact: np.ndarray) -> float:
    scale = max(float(np.linalg.norm(exact)), 1e-30)
    return float(np.linalg.norm(approx - exact)) / scale


def _fd_errors(system, schedule, anchor, index: int, h: float = 1e-6):
    """Central-difference errors of the derivatives at the ``index``-th set
    of random points: ``(gradient, hessian, jacobian, h_t)``, each the
    largest relative error over the directions tried.  Each check draws its
    point and directions from its own generator, seeded by ``(0, index,
    check)``, so a change to one check's draws moves no other check."""
    lagr = system.lagr
    n, l = system.n, system.l

    def draws(check):
        rng = np.random.default_rng((0, index, check))

        def unit(size):
            d = rng.standard_normal(size)
            return d / np.linalg.norm(d)

        rho, u, p = rng.uniform(0.2, 0.8, size=n), rng.standard_normal(l), rng.standard_normal(l)
        return rng, unit, rho, u, p

    # gradient vs directional central differences of L
    _, unit, rho, u, p = draws(0)
    g = lagr.gradient(rho, u, p)
    err_grad = 0.0
    for block, at in ((g.d_rho, lambda d: (rho + d, u, p)),
                      (g.d_u, lambda d: (rho, u + d, p)),
                      (g.d_p, lambda d: (rho, u, p + d))):
        for _ in range(3):
            d = unit(block.size)
            fd = (lagr.value(*at(h * d)) - lagr.value(*at(-h * d))) / (2.0 * h)
            exact = float(block @ d)
            err_grad = max(err_grad, abs(fd - exact) / max(abs(exact), 1.0))

    # hessian blocks vs directional central differences of the gradient
    _, unit, rho, u, p = draws(1)
    hess = lagr.hessian(rho, u, p)
    hess_rp = lagr.hessian(rho, p, u).ru  # d2L/drho dp: ru at swapped fields
    d_rho = unit(n)
    gp = lagr.gradient(rho + h * d_rho, u, p)
    gm = lagr.gradient(rho - h * d_rho, u, p)
    err_hess = max(_rel_err((gp.d_rho - gm.d_rho) / (2 * h), hess.rr.matvec(d_rho)),
                   _rel_err((gp.d_u - gm.d_u) / (2 * h), hess.ru.transpose().matvec(d_rho)),
                   _rel_err((gp.d_p - gm.d_p) / (2 * h), hess_rp.transpose().matvec(d_rho)))
    d_u = unit(l)
    gp = lagr.gradient(rho, u + h * d_u, p)
    gm = lagr.gradient(rho, u - h * d_u, p)
    err_hess = max(err_hess,
                   _rel_err((gp.d_rho - gm.d_rho) / (2 * h), hess.ru.matvec(d_u)),
                   _rel_err((gp.d_p - gm.d_p) / (2 * h), hess.up.matvec(d_u)))

    # M along a direction y = (drho, w) vs the residual's central difference
    # on the rho and u rows along the condensed step (p = -u, as at every
    # point the solver builds)
    rng, unit, rho, u, _ = draws(2)
    z_a, z_b = rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
    point = solver.KktPoint(rho, u, -u, z_a, z_b)
    t = 0.5
    y = unit(n + l)
    d_rho, w = y[:n], y[n:]
    step = solver.KktPoint(d_rho, w / 2, -w / 2, -z_a * d_rho / system.box.lower_gap(rho),
                           z_b * d_rho / system.box.upper_gap(rho))
    blocks = list(zip(vars(point).values(), vars(step).values()))

    def moved(s):
        return solver.KktPoint(*(x + s * dx for x, dx in blocks))

    rp = system.residual(moved(h), anchor, t, schedule)
    rm = system.residual(moved(-h), anchor, t, schedule)
    err_jac = _rel_err((rp - rm)[:n + l] / (2 * h), system.jacobian(point).matvec(y))

    # the t-derivative of the traced map
    rng, _, rho, u, _ = draws(3)
    z_a, z_b = rng.uniform(0.5, 2.0, size=n), rng.uniform(0.5, 2.0, size=n)
    point = solver.KktPoint(rho, u, -u, z_a, z_b)
    fd_t = (system.residual(point, anchor, t + h, schedule)
            - system.residual(point, anchor, t - h, schedule)) / (2 * h)
    err_ht = _rel_err(fd_t, system.h_t(anchor, t, schedule))
    return err_grad, err_hess, err_jac, err_ht


def _cmd_check_derivatives(args) -> int:
    cfg = _load_config(args)
    if cfg is None:
        return 1
    try:
        system, schedule = solver.build_system(cfg)
    except ValueError as exc:
        _print_err(f"error: {exc}")
        return 1
    _, anchor = system.initialize(cfg.barrier.mu0)
    worst = [0.0] * 4
    for index in range(args.points):
        worst = [max(w, e) for w, e in zip(worst, _fd_errors(system, schedule, anchor, index))]
    checks = (("gradient vs FD(L)", 1e-6), ("hessian vs FD(gradient)", 1e-5),
              ("jacobian vs FD(residual)", 1e-5), ("h_t vs FD in t", 1e-6))
    results = [_report(f"{name}: max relative error {err:.3e} (tol {tol:.0e})", err <= tol)
               for (name, tol), err in zip(checks, worst)]
    return 0 if all(results) else 1


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="homotopt",
        description="Barrier-homotopy solver for density-based topology optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    p_solve = sub.add_parser("solve", help="run the full continuation solve")
    p_solve.add_argument("config", nargs="?", default=None, help="config file path")
    p_solve.add_argument("--config", dest="config_opt", default=None)
    p_solve.add_argument("--out-dir", default=None)
    p_solve.add_argument("--snapshots", default=None,
                         help="comma-separated t values for density snapshots")
    p_solve.add_argument("--verbose", action="store_true")
    p_solve.set_defaults(func=_cmd_solve)
    sub.add_parser("scalar-demos", help="run the scalar reference problems").set_defaults(
        func=_cmd_scalar_demos)
    p_chk = sub.add_parser("check-derivatives",
                           help="finite-difference verification of all derivative blocks")
    p_chk.add_argument("config", nargs="?", default=None)
    p_chk.add_argument("--config", dest="config_opt", default=None)
    p_chk.add_argument("--points", type=_positive_int, default=3,
                       help="number of random points to check (at least 1)")
    p_chk.set_defaults(func=_cmd_check_derivatives)
    return parser


def run_cli(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_arg_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 2
    return args.func(args)


def main() -> None:
    sys.exit(run_cli(sys.argv[1:]))
