"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The headline accuracy numbers of the hosted-model experiments are not
reproducible at desk scale, so acceptance is property-based on the mock
and stub paths, plus one optional live smoke test gated behind
credentials (set GRAPHFILL_LIVE_SMOKE=1, OPENAI_API_KEY, and an endpoint).
"""
import json
import os
import time
from contextlib import contextmanager

import numpy as np
import pytest
from helpers import random_connected_graph, spectral_fixture, write_run_fixture

from graphfill import baselines, runner
from graphfill.baselines import glms_init, glms_step, gnlms_init, gnlms_step
from graphfill.graphs import gft, laplacian
from graphfill.predictors import PredictorConfig, predict_batch
from graphfill.prompts import NodeTask, render_system_prompt, render_user_prompt
from graphfill.runner import RunConfig, execute_run, replay_from_checkpoint
from graphfill.signals import ObservationModel, TimeVaryingSignal, observe, sample_mask
from graphfill.spectral import SpectralFilter, filter_operator, graph_convolve, mae, train_filter


@contextmanager
def criterion(num: int, desc: str):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {desc}")
        raise
    print(f"ACCEPTANCE {num}: PASS — {desc} ({time.perf_counter() - start:.2f}s)")


@pytest.fixture(scope="module")
def run_fixture(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("acceptance")
    edge_path, signal_path, _, _ = write_run_fixture(tmp, n=30, band=5, t_steps=200, seed=6)
    return tmp, edge_path, signal_path


def ordering_config(edge_path, signal_path, **overrides) -> RunConfig:
    payload = {
        "graph": {"source": "edges", "edge_list": edge_path, "n_nodes": 30},
        "signal": {"path": signal_path, "layout": "nodes-as-rows"},
        "t_split": 100,
        "observation": {"ratio": 0.7, "seed": 11, "noise_variance": 0.2},
        "train": {
            "learning_rate": 0.2,
            "max_iters": 2000,
            "patience": 50,
            "tol": 0.0,
            "augment_copies": 10,
            "window": 50,
        },
        "predictor": {"backend": "mock"},
        "baselines": ["last_value", "neighbor_mean"],
        "repeats": 1,
        "precision": 1,
    }
    payload.update(overrides)
    return RunConfig.from_dict(payload)


def test_criterion_1_spectral_core():
    with criterion(1, "GFT orthonormality, Laplacian row sums, identity convolution"):
        start = time.perf_counter()
        rng = np.random.default_rng(100)
        for _ in range(50):
            n = int(rng.integers(2, 51))
            g = random_connected_graph(n, rng)
            lap = laplacian(g)
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
            basis = gft(laplacian(g))
            assert np.max(np.abs(basis.eigenvectors.T @ basis.eigenvectors - np.eye(n))) < 1e-8
            x = rng.normal(size=n)
            identity = filter_operator(SpectralFilter(np.ones(n), basis.ref()), basis)
            assert np.max(np.abs(graph_convolve(identity, x) - x)) < 1e-9
        assert time.perf_counter() - start < 10.0


def test_criterion_3_denoising_efficacy():
    with criterion(3, "trained filter beats identity by >= 40% held-out MAE"):
        start = time.perf_counter()
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        held = signal.values[:, 300:]
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        trained_gains = train_filter(basis, train_sig, model).filter.gains
        fill = train_sig.values.mean(axis=1)

        def harness(gains):
            op = filter_operator(SpectralFilter(gains, basis.ref()), basis)
            total = 0.0
            for k in range(held.shape[1]):
                obs = observe(held[:, k], model, 10_000 + k)
                x_in = np.where(obs.observed, obs.values, fill)
                total += mae(held[:, k], graph_convolve(op, x_in))
            return total / held.shape[1]

        trained_mae = harness(trained_gains)
        identity_mae = harness(np.ones(30))
        assert trained_mae <= 0.6 * identity_mae
        assert time.perf_counter() - start < 30.0


def test_criterion_4_prompt_fidelity():
    with criterion(4, "system and user prompts reproduce the quoted strings byte-exactly"):
        assert render_system_prompt() == (
            "The spatiotemporal task is to predict the current number on a graph "
            "based on its previous value and the value of its neighbors."
        )
        task = NodeTask(node=322, t=1439, previous=61.5, neighbor_values=(63.9, 57.4), precision=1)
        assert render_user_prompt([task]) == (
            "Each indexed content is independent. Make 1 numeric prediction per "
            "indexed context. Precision round to 1 decimal point. Do not output "
            "text. Do not recall memories. Time 1439, Entity index: 322. "
            "Previous: 61.5, Neighbors: [63.9, 57.4]."
        )


def test_criterion_5_retry_semantics():
    with criterion(5, "bounded retry with flagged fallback"):
        task = NodeTask(node=0, t=0, previous=3.5, neighbor_values=(1.0,), precision=1)

        calls = {"n": 0}

        def fail_fail_succeed(system_text, user_text, tasks):
            calls["n"] += 1
            return "58.9" if calls["n"] >= 3 else "NaN"

        cfg = PredictorConfig(backend="mock", max_retries=3, max_concurrency=1)
        (result,) = predict_batch([task], cfg, backend=fail_fail_succeed)
        assert result.value == 58.9
        assert result.attempts == 3
        assert not result.fallback

        always = {"n": 0}

        def always_invalid(system_text, user_text, tasks):
            always["n"] += 1
            return "no numbers"

        cfg = PredictorConfig(backend="mock", max_retries=2, max_concurrency=1)
        (result,) = predict_batch([task], cfg, backend=always_invalid)
        assert result.fallback
        assert result.attempts == 3
        assert always["n"] == 3
        assert result.value == task.previous


def test_criterion_6_end_to_end_ordering(run_fixture):
    with criterion(6, "mock pipeline RMSE below naive baselines under identical seeds"):
        start = time.perf_counter()
        _, edge_path, signal_path = run_fixture
        report = execute_run(ordering_config(edge_path, signal_path)).report
        primary = report.method_aggregates["graphfill"]["rmse"][0]
        assert primary < report.method_aggregates["last_value"]["rmse"][0]
        assert primary < report.method_aggregates["neighbor_mean"]["rmse"][0]
        assert time.perf_counter() - start < 60.0


def test_criterion_7_determinism_and_replay(run_fixture, tmp_path, monkeypatch):
    with criterion(7, "bit-identical reports and checkpoint replay"):
        _, edge_path, signal_path = run_fixture
        cfg = ordering_config(edge_path, signal_path)
        a = execute_run(cfg).report.to_dict()
        b = execute_run(cfg).report.to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

        cfg_ckpt = ordering_config(edge_path, signal_path, baselines=["neighbor_mean"],
                                   output_dir=str(tmp_path / "ckpt-run"), checkpoint_every=40)
        execution = execute_run(cfg_ckpt)
        final = tmp_path / "ckpt-run" / "checkpoints" / "repeat0.json"
        # The same run, aborted by its baseline at step 90, resumes from its state file to the same final state.
        aborting = ordering_config(edge_path, signal_path, baselines=["neighbor_mean"],
                                   output_dir=str(tmp_path / "aborted-run"), checkpoint_every=40)
        step = baselines.neighbor_mean_step

        def raising_at_step_90(estimate, obs, layout):
            if obs.t == 100 + 90:
                raise KeyError("baseline fell over")
            return step(estimate, obs, layout)

        with monkeypatch.context() as patch:
            patch.setattr(baselines, "neighbor_mean_step", raising_at_step_90)
            with pytest.raises(KeyError):
                execute_run(aborting)
        state = tmp_path / "aborted-run" / "checkpoints" / "repeat0.json"
        assert json.loads(state.read_text())["k_next"] == 90
        resumed = replay_from_checkpoint(aborting, str(state))
        assert resumed.scores["graphfill"].tobytes() == execution.repeats[0].scores["graphfill"].tobytes()
        assert state.read_bytes() == final.read_bytes()


def test_criterion_8_baseline_convergence():
    with criterion(8, "GLMS convergence within 500 steps, GNLMS no slower"):
        rng = np.random.default_rng(800)
        g = random_connected_graph(20, rng)
        basis = gft(laplacian(g))
        x_g = basis.eigenvectors[:, :4] @ rng.normal(0.0, 2.0, size=4)
        model = ObservationModel(observed=np.ones(20, dtype=bool), noise_variance=0.0, seed=0)

        def iterations(step_fn, filt):
            estimate = np.zeros(20)
            for k in range(1, 501):
                estimate = step_fn(filt, estimate, observe(x_g, model, t=k))
                if np.max(np.abs(estimate - x_g)) < 1e-3:
                    return k
            return np.inf

        glms_iters = iterations(glms_step, glms_init(basis, 4, 0.5))
        gnlms_iters = iterations(gnlms_step, gnlms_init(basis, 4, 0.5, model.observed))
        assert glms_iters <= 500
        assert gnlms_iters <= glms_iters


def test_criterion_9_degenerate_correctness(run_fixture, monkeypatch):
    with criterion(9, "zero noise, full observation, identity filter reconstructs exactly"):
        _, edge_path, signal_path = run_fixture
        cfg = ordering_config(
            edge_path,
            signal_path,
            observation={"ratio": 1.0, "seed": 1, "noise_variance": 0.0},
            train={"learning_rate": 0.0, "max_iters": 1},
            baselines=[],
        )
        settled, settle = [], runner._Block.settle

        def recording(block, k_next):  # keeps the primary's estimate after each step
            settled.extend(block.estimates[0, 1:1 + k_next - block.k_next].copy())
            return settle(block, k_next)

        monkeypatch.setattr(runner._Block, "settle", recording)
        execution = execute_run(cfg)
        truth = execution.context.test_signal.values
        assert np.max(np.abs(np.array(settled).T - truth)) < 1e-9


LIVE_SMOKE_READY = bool(
    os.environ.get("GRAPHFILL_LIVE_SMOKE")
    and os.environ.get("OPENAI_API_KEY")
    and (os.environ.get("OPENAI_BASE_URL") or os.environ.get("GRAPHFILL_SMOKE_ENDPOINT"))
)


@pytest.mark.skipif(not LIVE_SMOKE_READY, reason="live smoke needs credentials and an endpoint")
def test_criterion_10_optional_live_smoke(tmp_path):
    with criterion(10, "5-step live run: wire format, retries, finite metrics"):
        edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=10, band=3, t_steps=25, seed=10)
        endpoint = os.environ.get("GRAPHFILL_SMOKE_ENDPOINT", "")
        cfg = RunConfig.from_dict(
            {
                "graph": {"source": "edges", "edge_list": edge_path, "n_nodes": 10},
                "signal": {"path": signal_path, "layout": "nodes-as-rows"},
                "t_split": 20,
                "observation": {"ratio": 0.7, "seed": 2, "noise_variance": 0.1},
                "train": {"learning_rate": 0.1, "max_iters": 200, "tol": 0.0, "patience": 30,
                          "window": 20, "augment_copies": 10},
                "predictor": {
                    "backend": "remote",
                    "endpoint_url": endpoint,
                    "model_name": os.environ.get("GRAPHFILL_SMOKE_MODEL", "gpt-4o-mini"),
                    "max_retries": 3,
                },
                "transcript": True,
                "precision": 1,
            }
        )
        execution = execute_run(cfg)
        entries = execution.repeats[0].transcript
        assert sum(1 for e in entries if e["fallback"]) == 0
        assert np.all(np.isfinite(execution.report.per_t_rmse))


def test_criterion_11_adaptive_baselines_fill_missing_nodes(tmp_path):
    with criterion(11, "GLMS and GNLMS missing-node MAE within 2x their observed-node MAE at n = 200"):
        edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=200, band=10, t_steps=300, seed=31)
        cfg = ordering_config(edge_path, signal_path, graph={"source": "edges", "edge_list": edge_path},
                              baselines=["glms", "gnlms"])
        execution = execute_run(cfg, with_primary=False)
        n, m = 200, int(np.sum(~execution.repeats[0].model.observed))
        for name, scores in execution.repeats[0].scores.items():
            missing = float(scores[2].mean())
            observed = float(((n * scores[0] - m * scores[2]) / (n - m)).mean())
            print(f"{name}: MAE observed {observed:.4f}, missing {missing:.4f}")
            assert missing <= 2.0 * observed, name
