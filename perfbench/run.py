"""Benchmark of the homotopt bridge solve.

    python3 perfbench/run.py --workload smooth-20x8 --seed 1 --seconds 60 --trace 0

Runs one workload in this process, from the sources under ``src/``, with
OpenBLAS/OMP threads pinned to 1.  With ``--trace 0`` it times set-up and
untraced jobs for ``--seconds`` and reports the end-to-end metrics; with
``--trace 1`` it alternates untraced and traced jobs and reports the
per-layer metrics and the tracing overhead.  Every job passes through the
correctness gate in ``harness.py``.

Output: a readable report, then as the last line one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  A run record
(versions, thread pins, per-job figures) and the spans of traced jobs are
written to ``.perfbench_runs/``.

The bridge workloads are deterministic: ``--seed`` is recorded in the run
record but does not change the inputs.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
from pathlib import Path

import tracer as tr

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".perfbench_runs"
WORK_DIR = ROOT / ".perfbench_work"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def load_sources() -> None:
    """Put ``src/`` first on the path and check that homotopt comes from there."""
    if not (SRC / "homotopt" / "__init__.py").is_file():
        raise ImportError(f"no homotopt sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import homotopt
    if SRC.resolve() not in Path(homotopt.__file__).resolve().parents:
        raise ImportError(f"homotopt was imported from {homotopt.__file__}, not {SRC}")


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "homotopt").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def run_record(args) -> dict:
    import numpy
    import scipy

    def blas(module):
        deps = module.show_config(mode="dicts").get("Build Dependencies", {})
        return deps.get("blas", {}).get("version")

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "src_digest": source_digest(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas_numpy": blas(numpy),
        "openblas_scipy": blas(scipy), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def high_percentile(values):
    """Highest percentile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def finite_median(values):
    values = [v for v in values if not math.isnan(v)]
    return statistics.median(values) if values else None


def end_to_end(jobs, setup_times, report) -> dict:
    import harness
    walls = [j.wall_s for j in jobs]
    q1, q3 = quartiles(walls)
    line = (f"time_to_solution_s: median {statistics.median(walls):.4f} s, "
            f"q1 {q1:.4f}, q3 {q3:.4f}, jobs {len(walls)}")
    high = high_percentile(walls)
    if high is not None:
        line += f", p{high[0]:.0f} {high[1]:.4f}"
    report.append(line)
    failed = sum(1 for j in jobs if j.failures)
    report.append(f"failed_frac: {failed / len(jobs)} ratio ({failed} of {len(jobs)} jobs)")
    lo, hi = harness.GREY_BAND
    report.append(f"grey_frac: {finite_median([j.grey_frac for j in jobs])} ratio "
                  f"(share of density DOFs with {lo} < rho < {hi})")
    report.append(f"setup_s: {len(setup_times)} set-ups, "
                  f"min {min(setup_times):.5f} max {max(setup_times):.5f}")
    return {
        "time_to_solution_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "final_objective": (finite_median([j.objective for j in jobs]), "1"),
        "grey_level": (finite_median([j.grey_level for j in jobs]), "ratio"),
    }


def per_layer(plain, traced, report) -> dict:
    first = traced[0].layers
    for job in traced[1:]:
        changed = [n for n in tr.EXACT_COUNTS if job.layers[n] != first[n]]
        if changed:
            job.failures.append(f"exact counts differ from the first traced job: {changed}")
    metrics = {name: (statistics.median(j.layers[name] for j in traced), unit)
               for name, unit in tr.PER_LAYER}
    traced_s = statistics.median(j.wall_s for j in traced)
    plain_s = statistics.median(j.wall_s for j in plain)
    metrics["trace.job_s"] = (traced_s, "s")
    metrics["trace.untraced_job_s"] = (plain_s, "s")
    metrics["trace.overhead_s"] = (traced_s - plain_s, "s")
    report.append(f"per-layer metrics: median of {len(traced)} traced jobs; "
                  f"tracing overhead {traced_s - plain_s:+.4f} s per job "
                  f"({len(plain)} untraced jobs)")
    return metrics


def write_records(args, record, tracer) -> None:
    RUNS_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RUNS_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        with open(RUNS_DIR / f"{stem}-spans.jsonl", "w", encoding="utf-8") as out:
            for job, name, start, end, parent in tracer.spans:
                out.write(json.dumps({"job": job, "name": name, "start": start,
                                      "end": end, "parent": parent}) + "\n")


def main(argv=None) -> int:
    args = parse_args(argv)
    for var in THREAD_VARS:
        os.environ[var] = "1"
    try:
        load_sources()
    except ImportError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    import harness
    if args.workload not in harness.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    record = run_record(args)
    report = [f"workload {args.workload}, seed {args.seed} (inputs do not depend on it), "
              f"trace {args.trace}"]
    work = WORK_DIR / f"{args.workload}-{os.getpid()}"
    try:
        with harness.Bench(args.workload, work) as bench:
            if args.trace:
                plain, traced = harness.run_traced(bench, args.seconds)
                jobs = plain + traced
                metrics = per_layer(plain, traced, report)
            else:
                jobs, setup_times = harness.run_untraced(bench, args.seconds)
                metrics = end_to_end(jobs, setup_times, report)
            tracer = bench.tracer
    finally:
        if WORK_DIR.is_dir() and not any(WORK_DIR.iterdir()):
            WORK_DIR.rmdir()

    failed = [j for j in jobs if j.failures]
    for i, job in enumerate(jobs):
        for reason in job.failures:
            report.append(f"job {i} failed: {reason}")
    record["jobs"] = [{"wall_s": j.wall_s, "failures": j.failures,
                       "objective": j.objective, "grey_frac": j.grey_frac,
                       "grey_level": j.grey_level} for j in jobs]
    values = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}
    record["metrics"] = values
    write_records(args, record, tracer)

    width = max(len(name) for name in metrics)
    for name, (value, unit) in metrics.items():
        report.append(f"  {name:<{width}}  {value!r} {unit}")
    report.append("record: " + json.dumps({k: v for k, v in record.items()
                                           if k not in ("jobs", "metrics")}))
    print("\n".join(report))
    print(json.dumps({
        "correct": not failed and all(v is not None for v, _ in metrics.values()),
        "attempted": len(jobs),
        "failed": len(failed),
        "metrics": values,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
