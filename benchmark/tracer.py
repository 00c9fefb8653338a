"""In-memory spans and counters recorded around the package's layer boundaries.

Spans are recorded from outside the program: :func:`install` replaces the
public functions each module calls with timing wrappers.  A name imported
with ``from .x import y`` is bound once per importing module, so every
wrapper is installed in the module that makes the call (``decompose.flatten``
and ``model_select.flatten`` are two wrappers around one function).

Each span holds its name, start, end, parent, run id and thread id.  Spans
and counters are kept in memory and written once, by :meth:`Tracer.dump`.
A span opened by a thread that has no open span of its own (a worker of
the benchmark thread pool) takes as parent the innermost span open in the
thread that created the tracer.

Self time: at every instant the wall time is split evenly among the open
spans that have no open child.  In a single thread this is a span's
duration minus the part its children cover; with worker threads it keeps
the sum of all self times equal to the wall time the spans cover.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import Counter
from contextlib import contextmanager


class Tracer:
    def __init__(self, run_id: str, root_parent: str | None = None):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._root_parent = root_parent
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owner = threading.get_ident()
        self._owner_stack: list[str] = []
        self._local.stack = self._owner_stack
        self._next = 0
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _parent(self, stack):
        if stack:
            return stack[-1]
        if threading.get_ident() != self._owner and self._owner_stack:
            return self._owner_stack[-1]
        return self._root_parent

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = self._parent(stack)
        with self._lock:
            self._next += 1
            span_id = f"{os.getpid()}:{self._next}"
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield span_id
        finally:
            end = time.perf_counter()
            stack.pop()
            record = {
                "id": span_id,
                "name": name,
                "start": start,
                "end": end,
                "parent": parent,
                "run": self.run_id,
                "thread": threading.get_ident(),
            }
            with self._lock:
                self.spans.append(record)

    def count(self, name: str, amount=1) -> None:
        with self._lock:
            self.counts[name] += amount

    def wrap(self, module, attr: str, span_name: str, after=None, failed=None):
        """Replace ``module.attr`` with a wrapper recording ``span_name``.

        ``after(result, args, kwargs)`` runs after a successful call and
        ``failed(exc, args, kwargs)`` after a call that raised; both run
        outside the span.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            try:
                with self.span(span_name):
                    result = original(*args, **kwargs)
            except Exception as exc:
                if failed is not None:
                    failed(exc, args, kwargs)
                raise
            if after is not None:
                after(result, args, kwargs)
            return result

        setattr(module, attr, wrapper)
        self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, fh)

    def merge(self, path) -> None:
        """Add the spans and counts a child process dumped to ``path``."""
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
        with self._lock:
            self.spans.extend(data["spans"])
            self.counts.update(data["counts"])


def self_times(spans) -> dict[str, float]:
    """Self time per span id (see the module docstring)."""
    by_id = {s["id"]: s for s in spans}
    depth = {}

    def depth_of(sid):
        if sid not in depth:
            parent = by_id[sid]["parent"]
            depth[sid] = 0 if parent not in by_id else depth_of(parent) + 1
        return depth[sid]

    events = []
    for s in spans:
        d = depth_of(s["id"])
        events.append((s["start"], 1, d, s["id"]))
        events.append((s["end"], 0, -d, s["id"]))
    events.sort()
    active: set[str] = set()
    open_children: Counter = Counter()
    leaves: set[str] = set()
    result = {s["id"]: 0.0 for s in spans}
    previous = None
    for t, kind, _, sid in events:
        if previous is not None and leaves and t > previous:
            share = (t - previous) / len(leaves)
            for leaf in leaves:
                result[leaf] += share
        previous = t
        parent = by_id[sid]["parent"]
        if kind == 1:
            active.add(sid)
            leaves.add(sid)
            if parent in active:
                open_children[parent] += 1
                leaves.discard(parent)
        else:
            active.discard(sid)
            leaves.discard(sid)
            if parent in active:
                open_children[parent] -= 1
                if open_children[parent] == 0:
                    leaves.add(parent)
    return result


def self_time_by_name(spans) -> Counter:
    own = self_times(spans)
    totals: Counter = Counter()
    for s in spans:
        totals[s["name"]] += own[s["id"]]
    return totals


# --- wrappers around the package's layer boundaries -------------------------


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary of the mcpca package."""
    from mcpca import cli, decompose, ingest, model_select, synth_bench
    from mcpca.exceptions import McpcaError

    count = tracer.count

    def counted(name):
        return lambda *_: count(name)

    def loaded_dataset(ds, args, kwargs):
        count("ingest.cells", sum(x.size for _, x in ds.contexts))

    def loaded_matrix(x, args, kwargs):
        count("ingest.cells", x.size)

    def parsed(result, args, kwargs):
        count("ingest.bytes_read", os.path.getsize(args[0]))

    def fitted(result, args, kwargs):
        model, report = result
        cfg = args[2] if len(args) > 2 else kwargs.get("cfg", decompose.FitConfig())
        count("decompose.fit_calls")
        count("decompose.iterations", sum(report.iterations))
        count("decompose.trace_steps", sum(len(t) for t in report.objective_trace))
        count(
            "decompose.degenerate_restarts",
            sum(cfg.restarts_per_component - used for used in report.restarts_used),
        )
        count("decompose.unconverged_components", sum(not c for c in model.converged))

    def fit_failed(exc, args, kwargs):
        count("decompose.fit_calls")
        count("decompose.fit_failures")

    def stability(score, args, kwargs):
        if score == 0.0:
            count("model_select.zero_stability_candidates")

    def diagnosed(diag, args, kwargs):
        count("diagnostics.non_pd_contexts", sum(v is None for v in diag.kl_loss))

    def written(result, args, kwargs):
        count("model_io.bytes_written", os.path.getsize(args[0]))

    def baseline_failed(exc, args, kwargs):
        if isinstance(exc, McpcaError):
            count("baselines.failures")

    def trials_run(records, args, kwargs):
        count("synth_bench.trials", args[0].n_trials)
        count("synth_bench.records", len(records))
        count("synth_bench.unconverged_records", sum(not r.converged for r in records))
        count(
            "synth_bench.recorded_fit_s",
            sum(r.runtime_seconds for r in records if r.method == "mcpca"),
        )

    wrap = tracer.wrap
    wrap(cli, "load_contexts", "ingest.load", after=loaded_dataset)
    wrap(cli, "load_matrix", "ingest.load", after=loaded_matrix)
    wrap(ingest, "parse_delimited", "ingest.parse", after=parsed)
    for module in (cli, synth_bench):
        wrap(module, "build_tensor", "ingest.build_tensor")
    wrap(ingest, "stack_covariances", "tensor_core.stack")
    svd = counted("tensor_core.svd_calls")
    for module in (decompose, model_select):
        wrap(module, "flatten", "tensor_core.flatten", after=svd)
    # The SVD runs before the rank check can raise, so failed calls count too.
    wrap(decompose, "extract_subspace", "decompose.subspace", after=svd, failed=svd)
    wrap(decompose, "solve_nnls", "decompose.nnls", after=counted("decompose.nnls_calls"))
    for module in (decompose, cli):
        wrap(module, "reconstruction_error", "decompose.recon")
    for module in (decompose, cli, synth_bench):
        wrap(module, "fit_mcpca", "decompose.fit", after=fitted, failed=fit_failed)

    def select_fitted(result, args, kwargs):
        count("model_select.fits")
        fitted(result, args, kwargs)

    def select_fit_failed(exc, args, kwargs):
        count("model_select.fits")
        fit_failed(exc, args, kwargs)

    wrap(model_select, "fit_mcpca", "decompose.fit", after=select_fitted, failed=select_fit_failed)
    for module in (model_select, cli):
        wrap(module, "select_rank", "model_select.select_rank")
    wrap(model_select, "stability_score", "model_select.stability", after=stability)
    for module in (model_select, synth_bench):
        wrap(module, "ascore", "model_select.ascore")
    wrap(cli, "compute_diagnostics", "diagnostics.compute", after=diagnosed)
    wrap(cli, "score_samples", "diagnostics.score")
    for attr in ("save_model", "save_report"):
        wrap(cli, attr, "model_io.save", after=written)
    wrap(cli, "load_model", "model_io.load")
    for attr in ("pca_stack", "jennrich"):
        wrap(synth_bench, attr, f"baselines.{attr}", failed=baseline_failed)
    wrap(cli, "run_accuracy_trials", "synth_bench.run_trials", after=trials_run)
    for attr in ("generate_planted", "sample_dataset"):
        wrap(synth_bench, attr, "synth_bench.gen")
    wrap(cli, "write_records", "synth_bench.write_records")


# Per-layer metrics: (name, unit, better).  Every *_s metric is a self time.
PER_LAYER = (
    ("ingest.load_s", "s", "lower"),
    ("ingest.parse_s", "s", "lower"),
    ("ingest.cells", "count", "lower"),
    ("ingest.bytes_read", "bytes", "lower"),
    ("ingest.mcells_per_s", "Mcells/s", "higher"),
    ("ingest.covariance_s", "s", "lower"),
    ("tensor_core.svd_calls", "count", "lower"),
    ("tensor_core.flatten_s", "s", "lower"),
    ("tensor_core.stack_s", "s", "lower"),
    ("decompose.fit_calls", "count", "lower"),
    ("decompose.fit_failures", "count", "lower"),
    ("decompose.subspace_s", "s", "lower"),
    ("decompose.power_self_s", "s", "lower"),
    ("decompose.nnls_s", "s", "lower"),
    ("decompose.nnls_calls", "count", "lower"),
    ("decompose.recon_s", "s", "lower"),
    ("decompose.iterations", "count", "lower"),
    ("decompose.trace_steps", "count", "lower"),
    ("decompose.degenerate_restarts", "count", "lower"),
    ("decompose.unconverged_components", "count", "lower"),
    ("model_select.fits", "count", "lower"),
    ("model_select.ascore_s", "s", "lower"),
    ("model_select.self_s", "s", "lower"),
    ("model_select.zero_stability_candidates", "count", "lower"),
    ("diagnostics.compute_s", "s", "lower"),
    ("diagnostics.score_s", "s", "lower"),
    ("diagnostics.non_pd_contexts", "count", "lower"),
    ("model_io.save_s", "s", "lower"),
    ("model_io.load_s", "s", "lower"),
    ("model_io.bytes_written", "bytes", "lower"),
    ("baselines.pca_stack_s", "s", "lower"),
    ("baselines.jennrich_s", "s", "lower"),
    ("baselines.failures", "count", "lower"),
    ("synth_bench.trials", "count", "lower"),
    ("synth_bench.records", "count", "lower"),
    ("synth_bench.unconverged_records", "count", "lower"),
    ("synth_bench.gen_s", "s", "lower"),
    ("synth_bench.recorded_fit_s", "s", "lower"),
    ("cli.self_s", "s", "lower"),
    ("trace.wall_s", "s", "lower"),
    ("trace.untraced_wall_s", "s", "lower"),
    ("trace.overhead", "ratio", "lower"),
    ("trace.spans", "count", "lower"),
)

# Span names whose self time makes up each *_s metric.
_SELF_TIME = {
    "ingest.load_s": ("ingest.load",),
    "ingest.parse_s": ("ingest.parse",),
    "ingest.covariance_s": ("ingest.build_tensor",),
    "tensor_core.flatten_s": ("tensor_core.flatten",),
    "tensor_core.stack_s": ("tensor_core.stack",),
    "decompose.subspace_s": ("decompose.subspace",),
    "decompose.power_self_s": ("decompose.fit",),
    "decompose.nnls_s": ("decompose.nnls",),
    "decompose.recon_s": ("decompose.recon",),
    "model_select.ascore_s": ("model_select.ascore",),
    "model_select.self_s": ("model_select.select_rank", "model_select.stability"),
    "diagnostics.compute_s": ("diagnostics.compute",),
    "diagnostics.score_s": ("diagnostics.score",),
    "model_io.save_s": ("model_io.save",),
    "model_io.load_s": ("model_io.load",),
    "baselines.pca_stack_s": ("baselines.pca_stack",),
    "baselines.jennrich_s": ("baselines.jennrich",),
    "synth_bench.gen_s": ("synth_bench.gen",),
    "cli.self_s": ("cli.process", "cli.main"),
}


def layer_metrics(spans, counts) -> dict[str, float]:
    """Per-layer values from one traced run, except the trace.* entries."""
    by_name = self_time_by_name(spans)
    values = {name: 0 for name, _, _ in PER_LAYER if not name.startswith("trace.")}
    values.update({k: v for k, v in counts.items() if k in values})
    for metric, names in _SELF_TIME.items():
        values[metric] = sum(by_name[n] for n in names)
    ingest_s = values["ingest.load_s"] + values["ingest.parse_s"]
    values["ingest.mcells_per_s"] = values["ingest.cells"] / ingest_s / 1e6 if ingest_s else 0.0
    return values
