"""Span tracing of homotopt from outside the package.

Each traced function is replaced, at the place where the solve path looks it
up, by a wrapper that records a span (name, start, end, parent) and a call
count.  A span's self time is its duration minus the time its direct children
cover.  Names bound with ``from .x import y`` are patched in the importing
module; methods and the ``SparseMatrix.from_triplets`` classmethod are
patched on their class.  ``Patches.restore`` puts every original back.

The span names below are the per-layer metric stems listed in
``perfbench/README.md``: ``<span>_s`` is its self time summed over a job and
``<span>_calls`` its call count.
"""
from __future__ import annotations

import functools
import inspect
from collections import defaultdict
from time import perf_counter

# Span that wraps one whole job; its self time is the only unattributed time.
ROOT = "job"


class Patches:
    """Attribute replacements, undone in reverse order by ``restore``."""

    def __init__(self):
        self._saved = []

    def replace(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


class _ModuleProxy:
    """Stands in for a module, overriding some attributes and forwarding the rest."""

    def __init__(self, module, **overrides):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    """Collects spans in memory; per-job aggregates are reset by ``begin_job``."""

    def __init__(self):
        self.spans = []  # (job, name, start, end, parent span index or -1)
        self.job = -1
        self._stack = []  # [span index, time covered by direct children]
        self.begin_job()

    def begin_job(self) -> None:
        self.job += 1
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.errors = defaultdict(int)
        self.counts = defaultdict(float)

    def wrap(self, name: str, fn, on_return=None):
        """``fn`` recorded as span ``name``; ``on_return(args, kwargs, result)``
        runs after the span closes."""
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[name, type(exc).__name__] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                spans[index] = (self.job, name, start, end, stack[-1][0] if stack else -1)
                self.self_s[name] += duration - frame[1]
                self.total_s[name] += duration
                self.calls[name] += 1
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return wrapper


def instrument(tracer: Tracer, patches: Patches) -> None:
    """Wrap the public functions on the solve path of every homotopt layer.

    Call once per traced job, after ``tracer.begin_job``.
    """
    from homotopt import barrier, fem, homotopy, io_cli, lagrangian, solver, sparse

    counts = tracer.counts
    corrector_cfgs = []  # Newton settings of each corrector call, in order

    def wrap(owner, attr, name, on_return=None):
        patches.replace(owner, attr, tracer.wrap(name, vars(owner)[attr], on_return))

    def mesh_size(args, kwargs, msh):
        counts["mesh.vertices"] = msh.n_vertices
        counts["mesh.triangles"] = msh.n_triangles

    from_triplets = vars(sparse.SparseMatrix)["from_triplets"].__func__
    from_triplets_sig = inspect.signature(from_triplets)

    def triplets_in(args, kwargs, result):
        values = from_triplets_sig.bind(*args, **kwargs).arguments["values"]
        counts["sparse.triplets_in"] += len(values)

    def lu_fill(args, kwargs, lu):
        counts["sparse.lu_fill_nnz_sum"] += lu.nnz

    def kkt_size(args, kwargs, x):
        a = args[0]
        counts["sparse.kkt_dim"] = a.nrows
        counts["sparse.kkt_nnz"] = a.nnz

    corrector_sig = inspect.signature(homotopy.newton_corrector)
    trace_sig = inspect.signature(homotopy.trace)

    def corrector_cfg(args, kwargs, result):
        corrector_cfgs.append(corrector_sig.bind(*args, **kwargs).arguments["cfg"])

    def trace_summary(args, kwargs, result):
        cfg = trace_sig.bind(*args, **kwargs).arguments["cfg"]
        _summarize_trace(counts, result[1].records,
                         [c is not cfg for c in corrector_cfgs])

    wrap(io_cli, "parse_config", "io_cli.parse_config")
    wrap(io_cli, "write_density_vtk", "io_cli.write_vtk")
    wrap(io_cli, "write_param_history", "io_cli.write_history")
    wrap(io_cli, "build_structured_mesh", "mesh.build", mesh_size)
    wrap(solver, "build_structured_mesh", "mesh.build", mesh_size)
    wrap(fem, "make_dofmap", "fem.dofmap")
    wrap(fem, "assemble_gl_operators", "fem.gl_operators")
    wrap(fem, "assemble_traction_load", "fem.traction_load")
    wrap(fem, "assemble_state_operator", "fem.state_operator")
    wrap(lagrangian.Lagrangian, "gradient", "lagrangian.gradient")
    wrap(lagrangian.Lagrangian, "hessian", "lagrangian.hessian")
    wrap(lagrangian.Lagrangian, "state_matrix", "lagrangian.state_matrix")
    wrap(solver, "run", "solver.run")
    wrap(solver, "build_system", "solver.build_system")
    wrap(solver.KktSystem, "initialize", "solver.initialize")
    wrap(solver.KktSystem, "residual", "solver.residual")
    wrap(solver.KktSystem, "jacobian", "solver.jacobian")
    wrap(solver, "fraction_to_boundary", "barrier.fraction_to_boundary")
    wrap(homotopy, "trace", "homotopy.trace", trace_summary)
    wrap(homotopy, "newton_corrector", "homotopy.corrector", corrector_cfg)
    wrap(homotopy, "solve_direct", "sparse.solve", kkt_size)
    for owner in (solver, fem, barrier):
        wrap(owner, "solve_direct", "sparse.solve")
    wrap(sparse.BlockSystem, "assemble", "sparse.block_assemble")
    patches.replace(sparse.SparseMatrix, "from_triplets", classmethod(
        tracer.wrap("sparse.from_triplets", from_triplets, triplets_in)))
    patches.replace(sparse, "spla", _ModuleProxy(
        sparse.spla, splu=tracer.wrap("sparse.factor", sparse.spla.splu, lu_fill)))


def _summarize_trace(counts, records, is_endpoint_call) -> None:
    """Step and iteration counts of one traced curve.

    ``is_endpoint_call[i]`` tells whether the i-th corrector call was the
    endpoint jump, which runs with its own Newton settings; each corrector
    call adds exactly one record.
    """
    accepted = [r for r in records if r.accepted]
    iters = sum(r.newton_iters for r in records)
    rejected_iters = sum(r.newton_iters for r in records if not r.accepted)
    jumps = [i for i, jump in enumerate(is_endpoint_call) if jump]
    traced = records[:jumps[0]] if jumps else records
    counts["homotopy.steps_attempted"] = len(records)
    counts["homotopy.steps_accepted"] = len(accepted)
    counts["homotopy.newton_iters"] = iters
    counts["homotopy.newton_iters_rejected"] = rejected_iters
    counts["homotopy.max_iter_hits"] = sum(1 for r in records if r.reason == "max_iter")
    counts["homotopy.endpoint_jumps"] = len(jumps)
    counts["homotopy.t_traced"] = max([r.t for r in traced if r.accepted], default=0.0)


# Per-layer metrics from one traced job: (name, unit).
PER_LAYER = [
    ("mesh.build_s", "s"), ("mesh.vertices", "count"), ("mesh.triangles", "count"),
    ("fem.dofmap_s", "s"), ("fem.gl_operators_s", "s"), ("fem.traction_load_s", "s"),
    ("fem.state_operator_s", "s"), ("fem.state_operator_calls", "count"),
    ("lagrangian.gradient_s", "s"), ("lagrangian.gradient_calls", "count"),
    ("lagrangian.hessian_s", "s"), ("lagrangian.hessian_calls", "count"),
    ("lagrangian.state_matrix_s", "s"), ("lagrangian.state_matrix_calls", "count"),
    ("lagrangian.state_cache_hit_ratio", "ratio"),
    ("solver.build_system_s", "s"), ("solver.initialize_s", "s"), ("solver.run_s", "s"),
    ("solver.residual_s", "s"), ("solver.residual_calls", "count"),
    ("solver.jacobian_s", "s"), ("solver.jacobian_calls", "count"),
    ("barrier.fraction_to_boundary_s", "s"), ("barrier.fraction_to_boundary_calls", "count"),
    ("sparse.from_triplets_s", "s"), ("sparse.from_triplets_calls", "count"),
    ("sparse.triplets_in", "count"), ("sparse.block_assemble_s", "s"),
    ("sparse.factor_s", "s"), ("sparse.factorizations", "count"), ("sparse.solve_s", "s"),
    ("sparse.kkt_dim", "count"), ("sparse.kkt_nnz", "count"), ("sparse.lu_fill_nnz", "count"),
    ("sparse.singular", "count"),
    ("homotopy.trace_s", "s"), ("homotopy.steps_attempted", "count"),
    ("homotopy.steps_accepted", "count"), ("homotopy.newton_iters", "count"),
    ("homotopy.newton_iters_rejected", "count"), ("homotopy.useful_iter_ratio", "ratio"),
    ("homotopy.max_iter_hits", "count"), ("homotopy.iter_s", "s"),
    ("homotopy.endpoint_jumps", "count"), ("homotopy.t_traced", "1"),
    ("io_cli.parse_config_s", "s"), ("io_cli.write_vtk_s", "s"),
    ("io_cli.write_vtk_calls", "count"), ("io_cli.write_history_s", "s"),
    ("io_cli.bytes_written", "B"),
    ("job.root_self_frac", "ratio"),
]

# Metrics that must repeat exactly from job to job and run to run.
EXACT_COUNTS = [
    "homotopy.steps_attempted", "homotopy.steps_accepted", "homotopy.newton_iters",
    "homotopy.newton_iters_rejected", "homotopy.max_iter_hits", "homotopy.endpoint_jumps",
    "homotopy.t_traced", "sparse.factorizations", "sparse.from_triplets_calls",
    "sparse.triplets_in", "sparse.lu_fill_nnz", "sparse.kkt_dim", "sparse.kkt_nnz",
    "fem.state_operator_calls", "lagrangian.state_matrix_calls",
]


def job_metrics(tracer: Tracer, wall_s: float, bytes_written: int) -> dict:
    """Per-layer values of the job traced since the last ``begin_job``."""
    s, calls, counts = tracer.self_s, tracer.calls, tracer.counts
    out = {f"{span}_s": t for span, t in s.items()}
    out.update({f"{span}_calls": n for span, n in calls.items()})
    out.update(counts)
    out["homotopy.trace_s"] = s["homotopy.trace"] + s["homotopy.corrector"]
    out["sparse.factorizations"] = calls["sparse.factor"]
    out["sparse.lu_fill_nnz"] = counts["sparse.lu_fill_nnz_sum"] / max(calls["sparse.factor"], 1)
    out["sparse.singular"] = tracer.errors["sparse.solve", "SingularMatrixError"]
    out["lagrangian.state_cache_hit_ratio"] = (
        1.0 - calls["fem.state_operator"] / max(calls["lagrangian.state_matrix"], 1))
    iters = counts["homotopy.newton_iters"]
    out["homotopy.useful_iter_ratio"] = (
        (iters - counts["homotopy.newton_iters_rejected"]) / iters if iters else 1.0)
    out["homotopy.iter_s"] = tracer.total_s["homotopy.corrector"] / iters if iters else 0.0
    out["io_cli.bytes_written"] = bytes_written
    out["job.root_self_frac"] = s[ROOT] / wall_s
    return {name: float(out.get(name, 0.0)) for name, _ in PER_LAYER}
