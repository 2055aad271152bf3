"""One benchmark run in a fresh process: ``graphfill.cli.main(["run", ...])``.

Usage: ``python3 child.py <src_dir> <config.json> <result.json> <trace 0|1>``

The package is imported from ``src_dir``. An untraced run installs two
pass-through hooks: the step clock on ``graphfill.runner.observe``, which
stamps ``perf_counter()`` at the first call for each time index (the
start of that online step), and a task counter on
``graphfill.runner.predict_batch``, which tallies dispatched tasks and
fallbacks. A traced run wraps every attribute in ``tracing.WRAPPED``
instead and writes all spans with the result.
"""
import json
import os
import resource
import sys
import traceback
from time import perf_counter


def _step_clock(runner, stamps):
    observe = runner.observe

    def clocked(x_g, model, t):
        if t not in stamps:
            stamps[t] = perf_counter()
        return observe(x_g, model, t)

    runner.observe = clocked


def _task_counter(runner, counts):
    predict_batch = runner.predict_batch

    def counted(*args, **kwargs):
        out = predict_batch(*args, **kwargs)
        results = out[0] if isinstance(out, tuple) else out
        counts[0] += len(results)
        counts[1] += sum(1 for r in results if r.fallback)
        return out

    runner.predict_batch = counted


def _peak_rss_kb():
    """Peak resident set of this process image in KiB.

    ``VmHWM`` starts afresh at exec; ``ru_maxrss`` does not, so it would
    report the benchmark parent's footprint when that is the larger one.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    src_dir, config_path, result_path, trace = argv[1], argv[2], argv[3], argv[4] == "1"
    sys.path.insert(0, src_dir)
    import graphfill
    from graphfill import cli, runner

    if not os.path.abspath(graphfill.__file__).startswith(os.path.abspath(src_dir) + os.sep):
        raise SystemExit(f"graphfill imported from {graphfill.__file__}, not from {src_dir}")

    stamps, counts, tracer = {}, [0, 0], None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install(graphfill)
    else:
        _step_clock(runner, stamps)
        _task_counter(runner, counts)

    rc, error = None, None
    entry = perf_counter()
    try:
        rc = cli.main(["run", "--config", config_path])
    except Exception:  # the benchmark records the crash and fails the run's gate
        error = traceback.format_exc()
    run_s = perf_counter() - entry

    result = {
        "rc": rc,
        "error": error,
        "run_s": run_s,
        "step_starts": [stamps[t] - entry for t in sorted(stamps)],
        "tasks": counts[0],
        "fallbacks": counts[1],
        "peak_rss_kb": _peak_rss_kb(),
        "spans": tracer.spans if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0 if rc == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
