"""Checks of the benchmark harness on its smallest workload.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""
from homotopt import barrier, fem, homotopy, io_cli, lagrangian, solver, sparse

import harness
import tracer as tr

PATCHED_OWNERS = (io_cli, solver, fem, barrier, homotopy, sparse, lagrangian.Lagrangian,
                  solver.KktSystem, sparse.BlockSystem, sparse.SparseMatrix)


def _attributes():
    return {(owner.__name__, name): value
            for owner in PATCHED_OWNERS for name, value in vars(owner).items()}


def test_exact_counts_repeat_and_patches_are_restored(tmp_path):
    before = _attributes()
    runs = []
    for i in range(2):
        with harness.Bench("smooth-20x8", tmp_path / f"run{i}") as bench:
            runs.append([bench.run_job(traced=True), bench.run_job(traced=False)])
    after = _attributes()
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())

    traced = [run[0] for run in runs]
    assert all(job.failures == [] for run in runs for job in run)
    counts = [{name: job.layers[name] for name in tr.EXACT_COUNTS} for job in traced]
    assert counts[0] == counts[1]
    assert counts[0]["homotopy.steps_accepted"] >= 1
    assert counts[0]["sparse.factorizations"] >= counts[0]["homotopy.newton_iters"]
    assert runs[0][0].objective == runs[1][1].objective


def test_gate_counts_a_failed_solve(tmp_path):
    with harness.Bench("smooth-20x8", tmp_path / "run") as bench:
        bench.config_path.write_text("mesh.nx = 0\n", encoding="utf-8")
        job = bench.run_job(traced=False)
    assert any("run_cli returned 1" in reason for reason in job.failures)
    assert any("no final point" in reason for reason in job.failures)
