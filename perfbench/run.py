"""Benchmark for graphfill: the online loop end to end, and layer by layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload knn-n500 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30
    python3 -m pytest perfbench/tests          # the benchmark's own tests

One invocation generates the workload's inputs from ``--seed`` (outside
any timed region), then runs ``graphfill.cli.main(["run", "--config",
...])`` in fresh child processes, one run per process, until ``--seconds``
have been spent (at least ``MIN_RUNS`` runs). Every run passes
the correctness gate or counts as failed. With ``--trace 0`` all runs are
untraced and the end-to-end metrics are reported; with ``--trace 1``
untraced and traced runs alternate, and the per-layer metrics of the
traced runs are reported together with the tracing overhead. The line
before the last holds the run metadata (fingerprint, ``src/graphfill``
line count, platform, and the step p95). The last line of standard output
is one JSON object: ``correct``, ``attempted`` and ``failed`` (predictor
tasks; a failed run fails all of its tasks) and ``metrics``.
``--workload all`` runs every workload both ways and prints the tables.

The loop is closed (one snapshot in flight at a time) and runs in one
process with ``predictor.max_concurrency`` 2.
"""
import argparse
import contextlib
import hashlib
import itertools
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass
from time import perf_counter

import gen
import stub as chat_stub
from tracing import layer_metrics

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

T_SPLIT = 100
TEST_STEPS = 210  # > 200 so each run's p95 has at least 10 step samples beyond it
KNN_K = 8
ER_P = 0.25
NOISE_VARIANCE = 0.2
MAX_CONCURRENCY = 2  # nproc of the reference machine
MAX_RETRIES = 2
# Runs per invocation at least: two untraced (set-up is measured twice), or
# with --trace 1 one untraced and one traced.
MIN_RUNS = 2
CHILD_TIMEOUT_S = 150
TRAIN = {"learning_rate": 0.2, "max_iters": 2000, "patience": 50, "tol": 0.0, "augment_copies": 10,
         "window": 50}
ALL_BASELINES = ("glms", "gnlms", "last_value", "neighbor_mean")
REPORT_FILES = ("report.json", "report.csv", "report.md", "filter_repeat0.json")


@dataclass(frozen=True)
class Workload:
    why: str
    graph: str  # "knn" (station coordinates) or "edges" (Erdos-Renyi edge list)
    n: int
    ratio: float
    band: int
    backend: str = "mock"
    baselines: tuple = ()
    transcript: bool = False


WORKLOADS = {
    "knn-n500": Workload(
        "per-step path: neighbor scans, task build, prompts, mock dispatch and four baselines",
        "knn", 500, 0.7, band=10, baselines=ALL_BASELINES,
    ),
    "setup-n2000": Workload(
        "set-up dominates: pure-Python kNN, dense eigh and filter training at n = 2000",
        "knn", 2000, 0.9, band=10,
    ),
    "remote-n100": Workload(
        "I/O-bound remote path: HTTP round trips to a localhost stub with faults, retry and fallback",
        "edges", 100, 0.7, band=8, backend="remote", transcript=True,
    ),
}

END_TO_END = {
    "run_s": "s",
    "setup_s": "s",
    "step_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "tokens_per_step": "tokens/step",
    "ok_frac": "ratio",
}

ACCURACY_LAYER = ("metrics.primary_mae", "metrics.missing_mae")
STUB_LAYER = ("stub.requests", "stub.connections", "stub.service_s")
RUN_LAYER = ("runner.checkpoint_files", "runner.checkpoint_bytes", "trace.overhead_frac")
PER_LAYER = (*layer_metrics([], 0.0), *ACCURACY_LAYER, *STUB_LAYER, *RUN_LAYER)


def per_layer_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes") or name.endswith("bytes_written"):
        return "bytes"
    if name.endswith("_mae"):
        return "signal"
    if name.endswith("_chars"):
        return "chars"
    if name.endswith("_ratio") or name.endswith("_frac"):
        return "ratio"
    return "count"


def percentile(samples, q):
    """Nearest-rank ``q``-th percentile; needs at least 10 samples beyond it.

    Raises:
        ValueError: if fewer than 10 samples lie above the percentile's rank.
    """
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    if len(ordered) - rank < 10:
        raise ValueError(f"p{q} of {len(ordered)} samples has only {len(ordered) - rank} beyond it")
    return ordered[rank - 1]


def step_gaps_ms(starts):
    """Per-step latencies: gaps between the starts of consecutive steps, in ms."""
    return [(b - a) * 1000.0 for a, b in zip(starts, starts[1:])]


def fingerprint(report):
    """sha256 of the report's per-step errors and method aggregates."""
    keys = ("per_t_mae", "per_t_rmse", "method_aggregates")
    return hashlib.sha256(json.dumps({k: report[k] for k in keys}, sort_keys=True).encode()).hexdigest()


def _finite(node):
    if isinstance(node, dict):
        return all(_finite(v) for v in node.values())
    if isinstance(node, list):
        return all(_finite(v) for v in node)
    return not isinstance(node, float) or math.isfinite(node)


def write_inputs(wl, seed, work):
    """Generate the workload's input files; returns the config's graph and signal sections."""
    t_steps = T_SPLIT + TEST_STEPS
    if wl.graph == "knn":
        paths = gen.write_knn_inputs(work, seed, wl.n, KNN_K, wl.band, t_steps)
        graph = {"source": "knn", "coordinates": paths["coordinates"], "k": KNN_K}
    else:
        paths = gen.write_er_inputs(work, seed, wl.n, ER_P, wl.band, t_steps)
        graph = {"source": "edges", "edge_list": paths["edge_list"], "n_nodes": wl.n}
    return graph, {"path": paths["signal"], "layout": "nodes-as-rows"}, gen.digest(paths)


def run_config(wl, seed, graph, signal_cfg, out_dir, endpoint):
    predictor = {"backend": wl.backend, "max_concurrency": MAX_CONCURRENCY, "max_retries": MAX_RETRIES}
    if wl.backend == "remote":
        predictor.update(endpoint_url=endpoint, model_name="stub")
    return {
        "graph": graph,
        "signal": signal_cfg,
        "t_split": T_SPLIT,
        "observation": {"ratio": wl.ratio, "seed": seed, "noise_variance": NOISE_VARIANCE},
        "train": TRAIN,
        "predictor": predictor,
        "baselines": list(wl.baselines),
        "repeats": 1,
        "output_dir": out_dir,
        "precision": 1,
        "transcript": wl.transcript,
    }


def child_env():
    env = dict(os.environ)
    env["OPENAI_API_KEY"] = "bench-dummy-key"
    env["NO_PROXY"] = env["no_proxy"] = "127.0.0.1,localhost"
    env.pop("OPENAI_BASE_URL", None)
    # One BLAS thread: two would spin against the predictor's pool threads
    # (and the stub) on a 2-core machine and make step times unsteady.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def run_child(run_dir, cfg, traced):
    """One ``cli.main`` run in a fresh process; returns the child's result dict."""
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "config.json")
    result_path = os.path.join(run_dir, "result.json")
    with open(cfg_path, "w", encoding="utf-8") as fh:
        json.dump(cfg, fh)
    cmd = [sys.executable, os.path.join(HERE, "child.py"), SRC, cfg_path, result_path, "1" if traced else "0"]
    with open(os.path.join(run_dir, "child.log"), "w", encoding="utf-8") as log:
        try:
            subprocess.run(cmd, cwd=ROOT, env=child_env(), stdout=log, stderr=log, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"rc": None, "error": f"timed out after {CHILD_TIMEOUT_S} s"}
    try:
        with open(result_path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError):
        with open(os.path.join(run_dir, "child.log"), encoding="utf-8") as fh:
            return {"rc": None, "error": fh.read()[-2000:]}


def gate(wl, child, out_dir, stub_counts, traced):
    """Correctness gate of one run; returns (problems, fingerprint, report)."""
    if child.get("rc") != 0:
        return [f"cli.main returned {child.get('rc')}: {(child.get('error') or '')[-500:]}"], None, None
    problems = [f"missing {name}" for name in REPORT_FILES if not os.path.isfile(os.path.join(out_dir, name))]
    if problems:
        return problems, None, None
    with open(os.path.join(out_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    if not _finite(report):
        problems.append("report.json holds a non-finite number")
    if len(report["per_t_mae"]) != TEST_STEPS:
        problems.append(f"report has {len(report['per_t_mae'])} steps, expected {TEST_STEPS}")
    if not traced and len(child["step_starts"]) != TEST_STEPS:
        problems.append(f"step clock saw {len(child['step_starts'])} steps, expected {TEST_STEPS}")

    scheduled = 0
    if wl.transcript:
        with open(os.path.join(out_dir, "transcript.jsonl"), encoding="utf-8") as fh:
            dispatched = [e for e in map(json.loads, fh) if e["attempts"] > 0]
        scheduled = sum(chat_stub.fails_every_attempt(e["prompt"], MAX_RETRIES + 1) for e in dispatched)
        logged = sum(1 for e in dispatched if e["fallback"])
        if logged != scheduled:
            problems.append(f"transcript has {logged} fallbacks, the fault schedule forces {scheduled}")
        if stub_counts is not None and stub_counts["requests"] != sum(e["attempts"] for e in dispatched):
            problems.append(f"stub saw {stub_counts['requests']} requests, transcript attempts differ")
    if child["fallbacks"] != scheduled:
        problems.append(f"{child['fallbacks']} fallbacks, the fault schedule forces {scheduled}")
    if stub_counts is not None and stub_counts["max_open_connections"] > MAX_CONCURRENCY:
        problems.append(f"stub had {stub_counts['max_open_connections']} connections open")
    return problems, fingerprint(report), report


def _checkpoint_stats(out_dir):
    ckpt = os.path.join(out_dir, "checkpoints")
    files = [os.path.join(ckpt, f) for f in os.listdir(ckpt)] if os.path.isdir(ckpt) else []
    return len(files), sum(os.path.getsize(f) for f in files)


def measure(name, seed, seconds, trace, work):
    """Run the workload's children and gate them; returns the list of run records."""
    wl = WORKLOADS[name]
    graph, signal_cfg, inputs_digest = write_inputs(wl, seed, os.path.join(work, "inputs"))
    plan = itertools.cycle((False, True)) if trace else itertools.repeat(False)
    runs = []
    start = perf_counter()
    for i, traced in enumerate(plan):
        run_dir = os.path.join(work, f"run{i:03d}")
        out_dir = os.path.join(run_dir, "out")
        began = perf_counter()
        # A fresh stub (new port) per run: the client's TIME_WAIT sockets from
        # the previous run then never collide with this run's connections.
        with chat_stub.StubServer(MAX_CONCURRENCY) if wl.backend == "remote" else contextlib.nullcontext() as stub:
            cfg = run_config(wl, seed, graph, signal_cfg, out_dir, stub.url if stub else "")
            child = run_child(run_dir, cfg, traced)
            stub_counts = stub.counters() if stub else None
        last = perf_counter() - began
        layer = None
        if child.get("spans") is not None:
            layer = layer_metrics(child.pop("spans"), child["run_s"])
            child["tasks"], child["fallbacks"] = layer["predictors.tasks"], layer["predictors.fallbacks"]
        problems, fp, report = gate(wl, child, out_dir, stub_counts, traced)
        runs.append({"traced": traced, "child": child, "problems": problems, "fingerprint": fp,
                     "report": report, "stub": stub_counts, "layer": layer,
                     "checkpoints": _checkpoint_stats(out_dir)})
        if problems:
            break  # the invocation has failed; do not spend more time on it
        if len(runs) >= MIN_RUNS and perf_counter() - start + last > seconds:
            break
    prints = {r["fingerprint"] for r in runs if r["fingerprint"]}
    if len(prints) > 1:
        for r in runs:
            if r["fingerprint"]:
                r["problems"].append("fingerprint differs between runs of one workload")
    return runs, inputs_digest


def nominal_tasks(wl):
    return (wl.n - round(wl.ratio * wl.n)) * TEST_STEPS


def _med(runs, value):
    return statistics.median(value(r) for r in runs)


def summarize(name, runs, trace):
    """Final JSON object (correct, attempted, failed, metrics) for one invocation."""
    wl = WORKLOADS[name]
    attempted = failed = fallbacks = 0
    for r in runs:
        tasks = r["child"].get("tasks") or nominal_tasks(wl)
        attempted += tasks
        if r["problems"]:
            failed += tasks
        else:
            fallbacks += r["child"]["fallbacks"]
    metrics = {}
    # Runs that failed the gate still give numbers when they wrote a report;
    # ``correct`` is false then.
    untraced = [r for r in runs if r["report"] is not None and not r["traced"]]
    traced = [r for r in runs if r["report"] is not None and r["layer"] is not None]
    if trace and traced and untraced:
        values = {key: _med(traced, lambda r, k=key: r["layer"][k]) for key in traced[0]["layer"]}
        values["metrics.primary_mae"] = traced[0]["report"]["aggregate_mae"][0]
        values["metrics.missing_mae"] = traced[0]["report"]["aggregate_mae_missing"][0]
        for key in STUB_LAYER:
            values[key] = _med(traced, lambda r, k=key.split(".", 1)[1]: (r["stub"] or {}).get(k, 0))
        values["runner.checkpoint_files"] = _med(traced, lambda r: r["checkpoints"][0])
        values["runner.checkpoint_bytes"] = _med(traced, lambda r: r["checkpoints"][1])
        run_s = lambda r: r["child"]["run_s"]  # noqa: E731
        values["trace.overhead_frac"] = _med(traced, run_s) / _med(untraced, run_s) - 1.0
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    elif not trace and untraced:
        gaps = [step_gaps_ms(r["child"]["step_starts"]) for r in untraced]
        values = {
            "run_s": _med(untraced, lambda r: r["child"]["run_s"]),
            "setup_s": _med(untraced, lambda r: r["child"]["step_starts"][0]),
            "step_ms_p50": statistics.median(percentile(g, 50) for g in gaps),
            "peak_rss_mb": _med(untraced, lambda r: r["child"]["peak_rss_kb"] / 1024.0),
            "tokens_per_step": untraced[0]["report"]["token_estimate"] / TEST_STEPS,
            "ok_frac": (attempted - failed - fallbacks) / attempted,
        }
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    correct = bool(runs) and not any(r["problems"] for r in runs) and bool(metrics)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_metadata(runs, inputs_digest):
    """Facts recorded next to each result: fingerprint, code size and platform."""
    import numpy

    gaps = [step_gaps_ms(r["child"]["step_starts"]) for r in runs if not r["traced"] and r["report"] is not None]

    lines = 0
    pkg = os.path.join(SRC, "graphfill")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), encoding="utf-8") as fh:
                lines += sum(1 for _ in fh)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        openblas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        openblas = "unknown"
    commit = None
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
                                    timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "fingerprint": next((r["fingerprint"] for r in runs if r["fingerprint"]), None),
        "inputs_sha256": inputs_digest,
        "src_lines": lines,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": openblas,
        "commit": commit,
        "runs": len(runs),
        "run_s_each": [round(r["child"].get("run_s", float("nan")), 3) for r in runs],
        "traced_runs": sum(1 for r in runs if r["traced"]),
        "step_samples": [len(g) for g in gaps],
        # Printed here, not registered as a bounded metric: on a shared 2-core
        # machine its spread over seeds exceeds the largest bound allowed.
        "step_ms_p95": statistics.median(percentile(g, 95) for g in gaps) if gaps else None,
    }


def run_workload(name, seed, seconds, trace):
    """Measure one workload; prints run problems and metadata, returns the result."""
    work = os.path.join(WORK_ROOT, f"{name}-s{seed}-t{int(trace)}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        runs, inputs_digest = measure(name, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(WORK_ROOT)  # only if no other invocation is using it
    for i, r in enumerate(runs):
        for problem in r["problems"]:
            print(f"{name} run {i} ({'traced' if r['traced'] else 'untraced'}): {problem}", file=sys.stderr)
    meta = run_metadata(runs, inputs_digest)
    print(json.dumps({"workload": name, "seed": seed, "trace": int(trace), "meta": meta}))
    return summarize(name, runs, trace), meta


def _print_table(title, metrics):
    print(title)
    for key, m in metrics.items():
        print(f"  {key:34s} {m['value']:>16.6g} {m['unit']}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # Turn SIGTERM into SystemExit, so a running child is killed and waited for.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "graphfill", "__init__.py")):
        print(f"error: no graphfill sources under {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, args.trace)[0]))
        return 0
    results, p95 = {}, {}
    for name in WORKLOADS:
        (untraced, meta), (traced, _) = (run_workload(name, args.seed, args.seconds, t) for t in (0, 1))
        results[name] = {"trace0": untraced, "trace1": traced}
        p95[name] = {"step_ms_p95": {"value": meta["step_ms_p95"] or float("nan"), "unit": "ms"}}
    for name, by_trace in results.items():
        ok = all(r["correct"] for r in by_trace.values())
        _print_table(f"{name} end-to-end ({'correct' if ok else 'GATE FAILED'})",
                     {**by_trace["trace0"]["metrics"], **p95[name]})
        _print_table(f"{name} per-layer (traced)", by_trace["trace1"]["metrics"])
    correct = all(r["correct"] for by_trace in results.values() for r in by_trace.values())
    print(json.dumps({"correct": correct, "workloads": results}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
