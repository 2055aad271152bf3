"""The benchmark's traced runs still work against the package.

``perfbench/tracing.py`` installs its wrappers with ``getattr`` on the names in its ``WRAPPED`` table, and
``perfbench/child.py`` replaces ``runner.observe`` and ``runner.predict_batch``. Removing or renaming one
of them makes every traced benchmark run fail with an AttributeError; the first test makes it fail here
first. The tracer's notes also read arguments and results (a path in ``emit_report``'s third argument,
``train_filter(...).mae_trace.size``, ``build_prompt(...).system_text``); the second test runs one traced
child on a small mock run, so a change to a wrapped function's argument order or result type fails here too.
The third runs one untraced child: its step clock stamps the first ``runner.observe`` call of each time index,
and ``step_ms_p50`` is read from those stamps, so a walk that batches or skips that call fails here.
"""
import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import write_run_fixture

import graphfill
from graphfill import runner

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CHILD_HOOKS = [("runner", "observe"), ("runner", "predict_batch")]


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", PERFBENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # defines the table, classes and functions only
    return tracing


def wrapped_names():
    return [(module, attr) for module, attrs in load_tracing().WRAPPED.items() for attr in attrs]


@pytest.mark.parametrize("module, attr", wrapped_names() + CHILD_HOOKS)
def test_name_resolves_on_the_package(module, attr):
    importlib.import_module(f"graphfill.{module}")
    assert callable(getattr(getattr(graphfill, module), attr))


def run_child(tmp_path, traced, transcript):
    """One ``perfbench/child.py`` run of a 20-step mock run on the small fixture; returns its result."""
    edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=12, t_steps=40)
    cfg_path, result_path = tmp_path / "config.json", tmp_path / "result.json"
    cfg_path.write_text(json.dumps({
        "graph": {"source": "edges", "edge_list": edge_path},
        "signal": {"path": signal_path},
        "t_split": 20,
        "observation": {"ratio": 0.7, "seed": 3, "noise_variance": 0.1},
        "baselines": list(runner.BASELINES),
        "transcript": transcript,
        "output_dir": str(tmp_path / "run"),
    }))
    src_dir = Path(graphfill.__file__).resolve().parent.parent
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    proc = subprocess.run([sys.executable, str(PERFBENCH / "child.py"), str(src_dir), str(cfg_path),
                           str(result_path), "1" if traced else "0"], env=env, capture_output=True, text=True,
                          timeout=120)
    assert result_path.exists(), proc.stderr
    result = json.loads(result_path.read_text())
    assert (proc.returncode, result["error"]) == (0, None), result["error"]
    return result


def test_traced_child_run_records_every_layer(tmp_path):
    result = run_child(tmp_path, traced=True, transcript=True)
    layer = load_tracing().layer_metrics(result["spans"], result["run_s"])
    for name in ("graphs.build_s", "graphs.gft_s", "signals.observe_calls", "spectral.convolve_calls",
                 "prompts.render_calls", "predictors.tasks", "baselines.steps"):
        assert layer[name] > 0, name
    # prepare_run builds the Laplacian itself and hands it to gft, so both set-up spans are recorded.
    assert {"runner.laplacian", "runner.gft"} <= {span[2] for span in result["spans"]}


def test_untraced_child_run_stamps_one_start_per_step(tmp_path):
    # The mock array path, as the benchmark runs it: 20 test steps, each stamped once, in order, within the run.
    result = run_child(tmp_path, traced=False, transcript=False)
    starts = result["step_starts"]
    assert len(starts) == 20
    assert all(0.0 < a < b < result["run_s"] for a, b in zip(starts, starts[1:]))
    assert result["spans"] is None
