"""Spans recorded from outside the package, and the per-layer metrics they give.

A :class:`Tracer` replaces each listed module attribute with a pass-through
wrapper that records one span per call: ``(id, parent, name, start, end,
info, error)``. Spans sit on thread-local stacks; a span opened on a pool
worker thread with an empty stack becomes a child of the open
``predict_batch`` span. All spans stay in memory until the run ends.

A span's self time is its duration minus the part of its interval that
its child spans cover (children on two worker threads can overlap, so the
covered part is the union of their intervals).
"""
import functools
import itertools
import os
import threading
from collections import defaultdict
from time import perf_counter

BATCH = "runner.predict_batch"


def _file_size(path):
    return os.path.getsize(path)


def _batch_note(args, kwargs, result):
    results = result[0] if isinstance(result, tuple) else result
    return [len(results), sum(r.attempts for r in results), sum(1 for r in results if r.fallback)]


# Module -> {attribute: note}. A note maps (args, kwargs, result) to the
# number (or list) stored in the span's ``info`` field; None stores nothing.
WRAPPED = {
    "runner": {
        "load_edge_list_csv": None,
        "load_coordinates_csv": None,
        "knn_graph": None,
        "laplacian": None,
        "gft": None,
        "load_signal_csv": lambda a, k, r: _file_size(a[0]),
        "observe": None,
        "denoise": None,
        "train_filter": lambda a, k, r: int(r.mae_trace.size),
        "build_task": None,
        "predict_batch": _batch_note,
        "mae": None,
        "rmse": None,
        "emit_report": lambda a, k, r: _file_size(a[2]),
        "save_filter_json": lambda a, k, r: _file_size(a[0]),
    },
    "spectral": {
        "observe": None,
        "graph_convolve": lambda a, k, r: 16 * a[0].n_nodes ** 2,  # U^T x and U y: 2 * n^2 * 8 bytes
    },
    "prompts": {"neighbors": None},
    "baselines": {
        "neighbors": None,
        "bandlimit_for_energy": None,
        "glms_init": None,
        "gnlms_init": None,
        "glms_step": None,
        "gnlms_step": None,
        "last_value_step": None,
        "neighbor_mean_step": None,
    },
    "predictors": {
        "build_prompt": lambda a, k, r: len(r.system_text) + len(r.user_text),
        "parse_completion": None,
        "mock_predict": None,
        "remote_complete": None,
    },
}


class Tracer:
    """Records a span for every call through the wrapped module attributes."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._open_batch = None

    def install(self, package):
        """Wrap every attribute in :data:`WRAPPED` on ``package``'s modules."""
        for module_name, attrs in WRAPPED.items():
            module = getattr(package, module_name)
            for attr, note in attrs.items():
                name = f"{module_name}.{attr}"
                setattr(module, attr, self._wrap(getattr(module, attr), name, note))

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, note):
        is_batch = name == BATCH

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = next(self._ids)
            stack = self._stack()
            parent = stack[-1] if stack else self._open_batch
            stack.append(sid)
            if is_batch:
                self._open_batch = sid
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.spans.append((sid, parent, name, start, perf_counter(), None, type(exc).__name__))
                raise
            finally:
                stack.pop()
                if is_batch:
                    self._open_batch = None
            end = perf_counter()
            info = note(args, kwargs, result) if note is not None else None
            self.spans.append((sid, parent, name, start, end, info, None))
            return result

        return wrapper


def covered(intervals, start, end):
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""
    total = 0.0
    cur_start = cur_end = None
    for a, b in sorted((max(a, start), min(b, end)) for a, b in intervals):
        if b <= a:
            continue
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = defaultdict(list)
    for sid, parent, _, start, end, *_ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {
        sid: (end - start) - covered(children.get(sid, ()), start, end)
        for sid, _, _, start, end, *_ in spans
    }


def _totals(spans):
    """Per span name: calls, self time, inclusive time, summed info and errors."""
    own = self_times(spans)
    calls, self_s, inclusive_s = defaultdict(int), defaultdict(float), defaultdict(float)
    info_sum, errors = defaultdict(float), defaultdict(int)
    batch = [0, 0, 0]  # tasks, attempts, fallbacks
    root_s = 0.0
    for sid, parent, name, start, end, info, err in spans:
        calls[name] += 1
        self_s[name] += own[sid]
        inclusive_s[name] += end - start
        if err is not None:
            errors[name] += 1
        if name == BATCH and info is not None:
            batch = [x + y for x, y in zip(batch, info)]
        elif info is not None:
            info_sum[name] += info
        if parent is None:
            root_s += end - start
    return calls, self_s, inclusive_s, info_sum, errors, batch, root_s


def layer_metrics(spans, run_s):
    """Per-layer metrics of one traced run (``run_s``: wall time of ``cli.main``).

    Every ``_s`` metric is summed self time, except ``predictors.batch_s``:
    the inclusive time of ``predict_batch``, i.e. how long the loop waits on
    the predictor layer. ``predictors.dispatch_overhead_s`` is that span's
    self time, the part with no render, backend or parse span open on any
    thread.
    """
    calls, self_s, inclusive_s, info, errors, (tasks, attempts, fallbacks), root_s = _totals(spans)

    def total(table, *names):
        return sum(table[n] for n in names)

    neighbors = ("prompts.neighbors", "baselines.neighbors")
    observe = ("runner.observe", "spectral.observe")
    backend = ("predictors.mock_predict", "predictors.remote_complete")
    emit = ("runner.emit_report", "runner.save_filter_json")
    steps = ("baselines.glms_step", "baselines.gnlms_step", "baselines.last_value_step",
             "baselines.neighbor_mean_step")
    backend_calls = total(calls, *backend)
    return {
        "graphs.build_s": total(self_s, "runner.load_edge_list_csv", "runner.load_coordinates_csv",
                                "runner.knn_graph", "runner.laplacian"),
        "graphs.gft_s": self_s["runner.gft"],
        "graphs.neighbors_calls": total(calls, *neighbors),
        "graphs.neighbors_s": total(self_s, *neighbors),
        "signals.load_s": self_s["runner.load_signal_csv"],
        "signals.load_bytes": info["runner.load_signal_csv"],
        "signals.observe_calls": total(calls, *observe),
        "signals.observe_s": total(self_s, *observe),
        "spectral.train_s": self_s["runner.train_filter"],
        "spectral.train_iters": info["runner.train_filter"],
        "spectral.convolve_calls": calls["spectral.graph_convolve"],
        "spectral.convolve_s": self_s["spectral.graph_convolve"],
        "spectral.convolve_bytes": info["spectral.graph_convolve"],
        "spectral.denoise_s": self_s["runner.denoise"],
        "prompts.build_task_calls": calls["runner.build_task"],
        "prompts.build_task_s": self_s["runner.build_task"],
        "prompts.render_calls": calls["predictors.build_prompt"],
        "prompts.render_s": self_s["predictors.build_prompt"],
        "prompts.prompt_chars": info["predictors.build_prompt"],
        "prompts.parse_calls": calls["predictors.parse_completion"],
        "prompts.parse_s": self_s["predictors.parse_completion"],
        "prompts.parse_failures": errors["predictors.parse_completion"],
        "predictors.batch_calls": calls[BATCH],
        "predictors.batch_s": inclusive_s[BATCH],
        "predictors.tasks": tasks,
        "predictors.attempts": attempts,
        "predictors.fallbacks": fallbacks,
        "predictors.backend_calls": backend_calls,
        "predictors.backend_s": total(self_s, *backend),
        "predictors.transport_failures": errors["predictors.remote_complete"],
        "predictors.useful_ratio": (tasks - fallbacks) / backend_calls if backend_calls else 0.0,
        "predictors.dispatch_overhead_s": self_s[BATCH],
        "baselines.init_s": total(self_s, "baselines.bandlimit_for_energy", "baselines.glms_init",
                                  "baselines.gnlms_init"),
        "baselines.glms_s": self_s["baselines.glms_step"],
        "baselines.gnlms_s": self_s["baselines.gnlms_step"],
        "baselines.last_value_s": self_s["baselines.last_value_step"],
        "baselines.neighbor_mean_s": self_s["baselines.neighbor_mean_step"],
        "baselines.steps": total(calls, *steps),
        "metrics.score_s": total(self_s, "runner.mae", "runner.rmse"),
        "metrics.emit_s": total(self_s, *emit),
        "metrics.bytes_written": total(info, *emit),
        "runner.self_s": run_s - root_s,
    }
