"""Bridge workloads, the per-job correctness gate and the job loops.

A job is one ``homotopt solve`` through the public entry point
``io_cli.run_cli``: the config is parsed, the curve is traced to t = 1 and
the VTK and CSV outputs are written.  Jobs run one after another in this
process (a closed loop with one client).
"""
from __future__ import annotations

import hashlib
import io
import math
import shutil
import sys
import traceback
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np
from homotopt import io_cli, solver

import tracer as tr

# name -> (mesh.nx, mesh.ny); every other config key keeps its built-in default.
WORKLOADS = {
    "smooth-20x8": (20, 8),
    "fold-40x12": (40, 12),
    "default-60x20": (60, 20),
}

# An untraced run times at least this many set-ups and reports their median.
SETUP_REPS = 31

# Densities strictly inside this band count as grey (neither void nor solid).
GREY_BAND = (0.05, 0.95)


@dataclass
class Job:
    wall_s: float
    failures: list = field(default_factory=list)
    objective: float = math.nan
    grey_frac: float = math.nan
    grey_level: float = math.nan
    layers: dict = None  # per-layer metrics, traced jobs only


class Bench:
    """Runs and checks the jobs of one workload inside ``work_dir``.

    Use as a context manager: leaving it restores ``solver.run``, which is
    wrapped to capture each job's final point, and deletes ``work_dir``.
    """

    def __init__(self, workload: str, work_dir):
        nx, ny = WORKLOADS[workload]
        self.work_dir = Path(work_dir)
        self.work_dir.mkdir(parents=True, exist_ok=True)
        self.config_path = self.work_dir / "bridge.cfg"
        self.config_path.write_text(f"mesh.nx = {nx}\nmesh.ny = {ny}\n", encoding="utf-8")
        self.out_dir = self.work_dir / "out"
        self.tracer = tr.Tracer()
        self._reference = None  # output file digests of the first job
        self._final = None
        self._patches = tr.Patches()
        run = vars(solver)["run"]

        def capture(config, *args, **kwargs):
            point, trace = run(config, *args, **kwargs)
            self._final = (config, point)
            return point, trace

        self._patches.replace(solver, "run", capture)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self._patches.restore()
        shutil.rmtree(self.work_dir, ignore_errors=True)

    def setup_time(self) -> float:
        """Seconds from config file to the initial KKT point."""
        start = perf_counter()
        cfg = io_cli.parse_config(self.config_path)
        system, _ = solver.build_system(cfg)
        system.initialize(cfg.barrier.mu0)
        return perf_counter() - start

    def run_job(self, traced: bool) -> Job:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        self._final = None
        argv = ["solve", str(self.config_path), "--out-dir", str(self.out_dir)]
        call, patches = io_cli.run_cli, tr.Patches()
        if traced:
            self.tracer.begin_job()
            tr.instrument(self.tracer, patches)
            call = self.tracer.wrap(tr.ROOT, io_cli.run_cli)
        start = perf_counter()
        try:
            with redirect_stdout(io.StringIO()):
                rc = call(argv)
        except Exception:  # a job that raises counts as failed; the run goes on
            traceback.print_exc(file=sys.stderr)
            rc = "exception"
        finally:
            wall = perf_counter() - start
            patches.restore()
        job = Job(wall)
        self._check(job, rc)
        if traced:
            job.layers = tr.job_metrics(self.tracer, wall, self._bytes_written())
        return job

    def _check(self, job: Job, rc) -> None:
        """Correctness gate; every failed check is appended to ``job.failures``."""
        fail = job.failures.append
        if rc != 0:
            fail(f"run_cli returned {rc}")
        try:
            last = (self.out_dir / "param_history.csv").read_text().splitlines()[-1]
            if float(last.split(",")[1]) != 1.0:
                fail(f"last param_history row is not at t = 1: {last}")
        except (OSError, IndexError, ValueError) as exc:
            fail(f"unreadable param_history.csv: {exc}")
        if self._final is None:
            fail("solver.run returned no final point")
        else:
            cfg, point = self._final
            system, _ = solver.build_system(cfg)
            norm = float(np.linalg.norm(system.f_box(point, cfg.barrier.mu_inf)))
            tol = cfg.newton.tol * math.sqrt(system.dim)
            if not norm <= tol:
                fail(f"final residual {norm:.3e} above {tol:.3e}")
            if not (np.all((point.rho > 0.0) & (point.rho < 1.0))
                    and np.all(point.z_a > 0.0) and np.all(point.z_b > 0.0)):
                fail("final point is not strictly interior")
            job.objective = system.lagr.objective(point.rho, point.u)
            lo, hi = GREY_BAND
            job.grey_frac = float(np.mean((point.rho > lo) & (point.rho < hi)))
            # Mean of 4 rho (1 - rho): 1 for an all-grey design, 0 only for a
            # pure 0/1 one, which the interior check above rules out.
            job.grey_level = float(np.mean(4.0 * point.rho * (1.0 - point.rho)))
        digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                   for p in sorted(self.out_dir.glob("*"))}
        if self._reference is None:
            self._reference = digests
        elif digests != self._reference:
            fail("output files differ from the first job's")

    def _bytes_written(self) -> int:
        return sum(p.stat().st_size for p in self.out_dir.glob("*"))


def _fits(start: float, seconds: float, last: float) -> bool:
    """Whether one more step as long as the last one ends within the window."""
    return perf_counter() - start + last <= seconds


def run_untraced(bench: Bench, seconds: float):
    """Jobs back to back while the next one fits in ``seconds``; at least one.

    One set-up is timed before each job, so that the set-up times sample the
    whole run, and more after the last job up to ``SETUP_REPS``.  Returns the
    jobs and the set-up times.
    """
    jobs, setups, start = [], [], perf_counter()
    while not jobs or _fits(start, seconds, jobs[-1].wall_s + setups[-1]):
        setups.append(bench.setup_time())
        jobs.append(bench.run_job(traced=False))
    setups += [bench.setup_time() for _ in range(SETUP_REPS - len(setups))]
    return jobs, setups


def run_traced(bench: Bench, seconds: float):
    """Pairs of an untraced and a traced job while the next pair fits in
    ``seconds``; at least one pair.  Returns both lists."""
    plain, traced, start = [], [], perf_counter()
    while not traced or _fits(start, seconds, plain[-1].wall_s + traced[-1].wall_s):
        plain.append(bench.run_job(traced=False))
        traced.append(bench.run_job(traced=True))
    return plain, traced
