"""The benchmark's run configs load through ``RunConfig.from_dict``.

``perfbench/run.py`` writes one config per workload with ``run_config`` and hands it to ``graphfill run``.
A config schema change that rejects it would fail every benchmark run; this test makes it fail here first.
The inputs are generated at n = 30 (the config's layout does not depend on n), so the test stays cheap.
"""
import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from graphfill.runner import RunConfig

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def load_bench():
    """``perfbench/run.py`` as a module; its own imports (gen, stub, tracing) resolve from its directory."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)  # defines constants, tables and functions only
    finally:
        sys.path.remove(str(PERFBENCH))
    return module


BENCH = load_bench()


@pytest.mark.parametrize("name", sorted(BENCH.WORKLOADS))
def test_workload_config_loads(name, tmp_path):
    wl = dataclasses.replace(BENCH.WORKLOADS[name], n=30)
    graph, signal_cfg, _ = BENCH.write_inputs(wl, 23, str(tmp_path / "inputs"))
    payload = BENCH.run_config(wl, 23, graph, signal_cfg, str(tmp_path / "out"), "http://127.0.0.1:9")
    cfg = RunConfig.from_dict(payload)
    assert cfg.to_dict()["train"] == payload["train"]
    assert (cfg.predictor.backend, cfg.baselines, cfg.transcript) == (wl.backend, wl.baselines, wl.transcript)
