#!/usr/bin/env python3
"""Alternating in-process A/B timing of ``homotopt solve`` jobs, or of
their set-up: another revision's ``src/`` against this checkout's.

    python3 tools/ab_solve.py REV [--mesh 40x12] [--pairs 20] [--setup]

REV's ``src/`` is exported with ``git archive`` into a temporary directory,
and both trees are imported into this one process, each keeping its own
``homotopt`` modules, so a pair compares the two trees in one machine state
rather than two processes minutes apart.  A job is what a perfbench job
is: one ``io_cli.run_cli(["solve", CONFIG, "--out-dir", DIR])`` of the
default config on the given mesh, stdout captured, so it includes parsing
the config, building the mesh and writing the VTK and CSV outputs.  After
one untimed job of each tree, every pair times one job per tree, and the
side that runs first alternates from pair to pair.

With ``--setup`` the timed work is perfbench's set-up instead:
``io_cli.parse_config`` of that config, ``solver.build_system`` and
``KktSystem.initialize``, a few milliseconds, so a few hundred pairs are
cheap, and the pairs are not printed one by one.

Prints each side's median and quartiles of the job's wall time and of its
CPU time (``time.process_time``), and for each the number of pairs the
checkout won: CPU time drifts less than the wall clock on a shared
machine.  Exits 1 if a job fails, or if the two trees' steps attempted,
steps accepted or Newton iterations differ on any job; the counts come
from the trace of each job's ``solver.run``, which is wrapped as perfbench
wraps it (a set-up has no counts).  BLAS threads are pinned to 1 unless
the environment sets them, as perfbench pins them.
"""
from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import os
import re
import shutil
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402  (after the thread pins)

ROOT = Path(__file__).resolve().parents[1]


def load_tree(src: Path) -> dict:
    """Import ``homotopt`` from ``src`` and return its modules, taken out of
    ``sys.modules`` so that the other tree can be imported next.  The tree's
    ``solver.run`` is wrapped to keep each job's trace as ``last_trace``."""
    sys.path.insert(0, str(src))
    try:
        importlib.invalidate_caches()
        for name in ("homotopt.solver", "homotopt.io_cli"):
            importlib.import_module(name)
    finally:
        sys.path.remove(str(src))
    modules = {name: sys.modules.pop(name) for name in list(sys.modules)
               if name == "homotopt" or name.startswith("homotopt.")}
    solver = modules["homotopt.solver"]
    run = vars(solver)["run"]

    def capture(config, *args, **kwargs):
        point, trace = run(config, *args, **kwargs)
        solver.last_trace = trace
        return point, trace

    solver.run = capture
    return modules


def solve(modules: dict, config: Path, out_dir: Path):
    """One timed ``homotopt solve`` job with ``modules`` as the live
    ``homotopt``; returns the wall and CPU seconds taken and (steps
    attempted, accepted, iterations)."""
    sys.modules.update(modules)
    solver = modules["homotopt.solver"]
    solver.last_trace = None
    shutil.rmtree(out_dir, ignore_errors=True)
    start, cpu = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = modules["homotopt.io_cli"].run_cli(["solve", str(config), "--out-dir", str(out_dir)])
    seconds = (time.perf_counter() - start, time.process_time() - cpu)
    trace = solver.last_trace
    if rc != 0 or trace is None:
        sys.exit(f"error: a solve job of {modules['homotopt'].__file__} failed (exit {rc})")
    return seconds, (trace.n_attempts, trace.n_accepted,
                     sum(r.newton_iters for r in trace.records))


def set_up(modules: dict, config: Path, out_dir: Path):
    """One timed set-up, as perfbench times it, with ``modules`` as the live
    ``homotopt``; returns the wall and CPU seconds taken, and no counts."""
    sys.modules.update(modules)
    io_cli, solver = modules["homotopt.io_cli"], modules["homotopt.solver"]
    start, cpu = time.perf_counter(), time.process_time()
    cfg = io_cli.parse_config(config)
    system, _ = solver.build_system(cfg)
    system.initialize(cfg.barrier.mu0)
    return (time.perf_counter() - start, time.process_time() - cpu), None


def summary(times) -> str:
    q1, med, q3 = np.percentile(times, [25, 50, 75])
    return f"median {med * 1e3:.3f} ms (quartiles {q1 * 1e3:.3f}-{q3 * 1e3:.3f} ms)"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("rev", help="git revision to compare against, e.g. HEAD~1")
    parser.add_argument("--mesh", default="40x12", help="NXxNY of the bridge mesh (default 40x12)")
    parser.add_argument("--pairs", type=int, default=20, help="timed pairs (default 20)")
    parser.add_argument("--setup", action="store_true",
                        help="time the set-up (config, system, initial point), not the job")
    args = parser.parse_args(argv)
    size = re.fullmatch(r"(\d+)x(\d+)", args.mesh)
    if size is None or args.pairs < 1:
        parser.error("--mesh must read NXxNY and --pairs must be at least 1")
    nx, ny = map(int, size.groups())

    with tempfile.TemporaryDirectory(prefix="ab_solve-") as tmp:
        archive = subprocess.run(
            ["git", "-C", str(ROOT), "archive", "--format=tar", args.rev, "src"],
            check=True, capture_output=True).stdout
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        trees = {"base": load_tree(Path(tmp) / "src"), "checkout": load_tree(ROOT / "src")}
        config, out_dir = Path(tmp) / "bridge.cfg", Path(tmp) / "out"
        config.write_text(f"mesh.nx = {nx}\nmesh.ny = {ny}\n", encoding="utf-8")

        timed = set_up if args.setup else solve
        counts = {name: {timed(modules, config, out_dir)[1]} for name, modules in trees.items()}
        times = {name: [] for name in trees}  # (wall, CPU) seconds of each run
        for pair in range(args.pairs):
            order = ("base", "checkout") if pair % 2 == 0 else ("checkout", "base")
            for name in order:
                seconds, count = timed(trees[name], config, out_dir)
                times[name].append(seconds)
                counts[name].add(count)
            if not args.setup:
                base, checkout = (" ".join(f"{t * 1e3:.3f}" for t in times[name][-1])
                                  for name in ("base", "checkout"))
                print(f"pair {pair + 1:2d}: wall and CPU ms: base {base}, checkout {checkout}",
                      flush=True)

    print(f"mesh {nx}x{ny}, {args.pairs} pairs of {'set-ups' if args.setup else 'jobs'}, "
          f"base = {args.rev}")
    for clock, column in (("wall", 0), ("CPU", 1)):
        side = {name: [t[column] for t in times[name]] for name in trees}
        wins = sum(c < b for b, c in zip(side["base"], side["checkout"]))
        for name in trees:
            print(f"{name:>8} {clock:>4}: {summary(side[name])}")
        print(f"{clock}: checkout faster in {wins} of {args.pairs} pairs; median ratio "
              f"{np.median(side['checkout']) / np.median(side['base']):.3f}")
    if args.setup:
        return 0
    for name, seen in counts.items():
        print(f"{name:>8}: (steps attempted, accepted, Newton iterations) {sorted(seen)}")
    if counts["base"] != counts["checkout"]:
        print("error: the two trees' step or iteration counts differ", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
