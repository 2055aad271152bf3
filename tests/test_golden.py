"""A run's numbers, pinned: fixed small runs must reproduce the fingerprints in ``data/run_golden.json``.

The fingerprint is the benchmark's rule (``perfbench/run.py``'s ``fingerprint``): the sha256 of the report's
``per_t_mae``, ``per_t_rmse`` and ``method_aggregates`` as sorted JSON. Each run also pins its ``token_estimate``.
The runs use the n = 200 Erdos-Renyi fixture with all four baselines and 2 repeats, on the mock array path, on
the text path with the transcript on, and with ``multi_task_prompt`` on. A run's bits depend on numpy and the
BLAS, so a mismatch names the environment the file was recorded under and the current one.

A change that moves a number on purpose records the file again in the same commit:
``PYTHONPATH=src python tests/test_golden.py``.
"""
import hashlib
import json
import sys
from pathlib import Path

import pytest
from helpers import write_run_fixture

from graphfill import runner
from graphfill.runner import RunConfig, execute_run

GOLDEN = Path(__file__).resolve().parent / "data" / "run_golden.json"
RUNS = {
    "mock_array": {},
    "text_transcript": {"transcript": True},
    "multi_task_prompt": {"predictor": {"backend": "mock", "multi_task_prompt": True}},
}


def fingerprint(report: dict) -> str:
    keys = ("per_t_mae", "per_t_rmse", "method_aggregates")
    return hashlib.sha256(json.dumps({k: report[k] for k in keys}, sort_keys=True).encode()).hexdigest()


def golden_run(tmp_path, name: str) -> dict:
    """Run ``name`` of :data:`RUNS` on the n = 200 fixture; returns its fingerprint and token estimate."""
    edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=200, t_steps=120)
    payload = {
        "graph": {"source": "edges", "edge_list": edge_path},
        "signal": {"path": signal_path},
        "t_split": 80,
        "observation": {"ratio": 0.7, "seed": 23, "noise_variance": 0.1},
        "baselines": list(runner.BASELINES),
        "repeats": 2,
        **RUNS[name],
    }
    report = json.loads(json.dumps(execute_run(RunConfig.from_dict(payload)).report.to_dict()))
    return {"fingerprint": fingerprint(report), "token_estimate": report["token_estimate"]}


@pytest.mark.parametrize("name", list(RUNS))
def test_run_reproduces_its_golden_fingerprint(tmp_path, name):
    golden = json.loads(GOLDEN.read_text())
    got = golden_run(tmp_path, name)
    assert got == golden["runs"][name], (
        f"run {name!r} differs from {GOLDEN.name}: recorded under {golden['environment']}, "
        f"now {runner._environment()}"
    )


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        runs = {name: golden_run(Path(tmp), name) for name in RUNS}
    env = runner._environment()
    GOLDEN.write_text(json.dumps({"environment": {"numpy": env["numpy"], "blas": env["blas"]}, "runs": runs},
                                 indent=2) + "\n")
    sys.stdout.write(f"wrote {GOLDEN}\n")
