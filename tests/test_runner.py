"""Tests for the online loop, run configuration, checkpoints, and repeats."""
import dataclasses
import glob
import json
import os
import re
import types

import numpy as np
import pytest
from helpers import write_run_fixture

from graphfill import baselines as bl
from graphfill import files, runner
from graphfill.metrics import rmse
from graphfill.graphs import build_graph, gft, laplacian
from graphfill.predictors import PredictorConfig, estimate_tokens
from graphfill.runner import (
    RunConfig,
    execute_run,
    init_estimate,
    prepare_run,
    replay_from_checkpoint,
    run_online,
)
from graphfill.signals import Observation, ObservationModel, TimeVaryingSignal, observe, sample_mask
from graphfill.spectral import denoise, identity_filter, mae


def base_config(edge_path, signal_path, **overrides):
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


@pytest.fixture(scope="module")
def fixture_paths(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("runfix")
    edge_path, signal_path, _, _ = write_run_fixture(tmp)
    return edge_path, signal_path


class TestInitEstimate:
    def test_all_observed_takes_last_train_column(self):
        rng = np.random.default_rng(0)
        train = TimeVaryingSignal(rng.normal(size=(5, 8)))
        model = ObservationModel(observed=np.ones(5, dtype=bool), noise_variance=0.0, seed=0)
        assert np.array_equal(init_estimate(train, model), train.values[:, -1])

    def test_constant_signal(self):
        train = TimeVaryingSignal(np.full((4, 6), 3.25))
        model = ObservationModel(
            observed=np.array([True, False, True, False]), noise_variance=0.0, seed=0
        )
        assert np.array_equal(init_estimate(train, model), np.full(4, 3.25))

    def test_p3_missing_middle_gets_mean_of_observed(self):
        train = TimeVaryingSignal(np.array([[1.0, 2.0], [5.0, 9.0], [3.0, 4.0]]))
        model = ObservationModel(
            observed=np.array([True, False, True]), noise_variance=0.0, seed=0
        )
        x0 = init_estimate(train, model)
        assert np.array_equal(x0, [2.0, 3.0, 4.0])


class TestDegenerateLosslessRun:
    def test_perfect_reconstruction(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path,
            signal_path,
            observation={"ratio": 1.0, "seed": 1, "noise_variance": 0.0},
            train={"learning_rate": 0.0, "max_iters": 1},
            baselines=[],
        )
        execution = execute_run(cfg)
        trajectory = execution.repeats[0].trajectory
        truth = execution.context.test_signal.values
        assert np.max(np.abs(trajectory - truth)) < 1e-9


class TestOnlineLoopInvariants:
    def test_observed_node_passthrough(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        execution = execute_run(cfg)
        ctx = execution.context
        rep = execution.repeats[0]
        model = rep.model
        filt = rep.train_result.filter
        x_prev = init_estimate(ctx.train_signal, model)
        for k in range(ctx.test_signal.n_steps):
            t_abs = ctx.test_signal.t0 + k
            obs = observe(ctx.test_signal.values[:, k], model, t_abs)
            o_tilde = denoise(filt, ctx.basis, obs, x_prev)
            x_hat = rep.trajectory[:, k]
            assert np.array_equal(x_hat[model.observed], o_tilde[model.observed])
            x_prev = x_hat

    def test_aggregate_ordering_against_naive_baselines(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        report = execute_run(cfg).report
        primary = report.method_aggregates["graphfill"]["rmse"][0]
        assert primary < report.method_aggregates["last_value"]["rmse"][0]
        assert primary < report.method_aggregates["neighbor_mean"]["rmse"][0]

    def test_adopt_raw_observed_toggle_changes_estimates(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg_denoised = base_config(edge_path, signal_path, baselines=[])
        cfg_raw = base_config(edge_path, signal_path, baselines=[], adopt_raw_observed=True)
        a = execute_run(cfg_denoised).repeats[0].trajectory
        b = execute_run(cfg_raw).repeats[0].trajectory
        assert not np.array_equal(a, b)


class TestDeterminismAndRepeats:
    def test_identical_configs_give_identical_reports(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        a = execute_run(cfg).report.to_dict()
        b = execute_run(cfg).report.to_dict()
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_different_seed_gives_different_report(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg_a = base_config(edge_path, signal_path)
        cfg_b = base_config(
            edge_path, signal_path, observation={"ratio": 0.7, "seed": 12, "noise_variance": 0.2}
        )
        a = execute_run(cfg_a).report
        b = execute_run(cfg_b).report
        assert not np.array_equal(a.per_t_rmse, b.per_t_rmse)

    def test_repeats_use_distinct_seeds_and_spread(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, repeats=3, baselines=[])
        execution = execute_run(cfg)
        seeds = [rep.seed for rep in execution.repeats]
        assert seeds == [11, 12, 13]
        assert execution.report.aggregate_rmse[1] > 0.0


class TestAbortPersistence:
    def test_module_error_persists_partial_trace(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "aborting")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out)
        calls = {"n": 0}

        def exploding_backend(system_text, user_text, tasks):
            calls["n"] += 1
            if calls["n"] > 30:
                raise KeyError("backend fell over")
            return f"{tasks[0].previous:.1f}"

        with pytest.raises(KeyError):
            execute_run(cfg, backend=exploding_backend)
        aborted = glob.glob(os.path.join(out, "checkpoints", "*aborted.json"))
        assert len(aborted) == 1
        with open(aborted[0], encoding="utf-8") as fh:
            payload = json.load(fh)
        assert payload["k_next"] >= 1
        assert len(payload["per_t_mae"]) == payload["k_next"]
        # The persisted state is a valid resume point.
        k_next, tail = replay_from_checkpoint(cfg, aborted[0])
        assert tail.shape[1] == 100 - k_next


class TestCheckpointReplay:
    def test_replay_matches_original_trajectory(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "run")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out, checkpoint_every=25)
        execution = execute_run(cfg)
        original = execution.repeats[0].trajectory
        ckpts = sorted(glob.glob(os.path.join(out, "checkpoints", "*.json")))
        assert len(ckpts) == 3  # steps 25, 50, 75 of a 100-step horizon
        k_next, tail = replay_from_checkpoint(cfg, ckpts[1])
        assert k_next == 50
        assert np.array_equal(tail, original[:, 50:])

    def test_failed_write_leaves_earlier_checkpoint_intact(self, fixture_paths, tmp_path, monkeypatch):
        edge_path, signal_path = fixture_paths
        clean = str(tmp_path / "clean")
        execute_run(base_config(edge_path, signal_path, baselines=[], output_dir=clean, checkpoint_every=25))
        out = str(tmp_path / "crashed")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out, checkpoint_every=25)
        real_dump = json.dump
        calls = {"n": 0}

        def dump_failing_second_write(obj, fh, **kwargs):
            calls["n"] += 1
            if calls["n"] == 2:
                fh.write('{"repeat": 0, "se')
                raise OSError("disk full")
            return real_dump(obj, fh, **kwargs)

        monkeypatch.setattr(runner.json, "dump", dump_failing_second_write)
        with pytest.raises(OSError, match="disk full"):
            execute_run(cfg)
        ckpt_dir = os.path.join(out, "checkpoints")
        assert sorted(os.listdir(ckpt_dir)) == ["repeat0_aborted.json", "repeat0_step000025.json"]
        name = "repeat0_step000025.json"
        with open(os.path.join(ckpt_dir, name), "rb") as fh, open(os.path.join(clean, "checkpoints", name), "rb") as ref:
            assert fh.read() == ref.read()
        with open(os.path.join(ckpt_dir, "repeat0_aborted.json"), encoding="utf-8") as fh:
            assert json.load(fh)["k_next"] == 50


class TestArtifacts:
    def test_run_directory_layout(self, fixture_paths, tmp_path):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "artifacts")
        cfg = base_config(edge_path, signal_path, output_dir=out, transcript=True)
        report = run_online(cfg)
        assert os.path.exists(os.path.join(out, "config.json"))
        assert os.path.exists(os.path.join(out, "filter_repeat0.json"))
        assert os.path.exists(os.path.join(out, "report.json"))
        assert os.path.exists(os.path.join(out, "report.csv"))
        assert os.path.exists(os.path.join(out, "report.md"))
        assert report.transcript_path == os.path.join(out, "transcript.jsonl")
        with open(report.transcript_path, encoding="utf-8") as fh:
            entries = [json.loads(line) for line in fh]
        assert entries, "transcript should not be empty"
        sample = entries[0]
        assert {"t", "node", "prompt", "completion", "parsed", "attempts", "latency_ms"} <= set(sample)

    @pytest.mark.parametrize(
        "name", ["config.json", "filter_repeat0.json", "transcript.jsonl", "report.json", "report.csv", "report.md"]
    )
    def test_failed_write_leaves_earlier_artifact_intact(self, fixture_paths, tmp_path, monkeypatch, name):
        edge_path, signal_path = fixture_paths
        out = str(tmp_path / "artifacts")
        cfg = base_config(edge_path, signal_path, baselines=[], output_dir=out, transcript=True)
        execution = execute_run(cfg)
        runner._write_artifacts(cfg, execution)
        path = os.path.join(out, name)
        with open(path, "rb") as fh:
            before = fh.read()
        real_open = open

        class HalfWrite:
            """The target's text file: its first write stores half of the text, then fails."""

            def __init__(self, fh):
                self.fh = fh

            def write(self, text):
                self.fh.write(text[: len(text) // 2])
                raise OSError("disk full")

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

        def open_failing_target(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            return HalfWrite(fh) if os.path.basename(file) == name + ".tmp" else fh

        monkeypatch.setattr(files, "open", open_failing_target, raising=False)
        with pytest.raises(OSError, match="disk full"):
            runner._write_artifacts(cfg, execution)
        with open(path, "rb") as fh:
            assert fh.read() == before
        assert not glob.glob(os.path.join(out, "*.tmp"))

    def test_config_snapshot_embedded(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        report = execute_run(cfg).report
        assert report.config_snapshot["t_split"] == 100
        assert report.config_snapshot["observation"]["ratio"] == 0.7
        assert "basis_ref" in report.config_snapshot["derived"]


class TestTokenEstimate:
    # The transcript of a logged run gives the exchanges; an unlogged run takes the array path.
    @pytest.mark.parametrize("multi_task_prompt, transcript", [
        pytest.param(False, True, id="False"),
        pytest.param(True, True, id="True"),
        pytest.param(False, False, id="False-array"),
        pytest.param(True, False, id="True-array"),
    ])
    def test_each_group_prompt_and_completion_count_once(self, fixture_paths, multi_task_prompt, transcript):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[], transcript=True,
                          predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
        logged = execute_run(cfg)
        execution = logged if transcript else execute_run(dataclasses.replace(cfg, transcript=False))
        entries = [e for e in logged.repeats[0].transcript if e["prompt"] is not None]
        exchanges = {(e["t"], e["prompt"], e["completion"]) for e in entries}
        per_exchange = {x: estimate_tokens(x[1]) + estimate_tokens(x[2] or "") for x in exchanges}
        assert execution.report.token_estimate == sum(per_exchange.values())
        per_entry = sum(per_exchange[e["t"], e["prompt"], e["completion"]] for e in entries)
        if multi_task_prompt:
            # One exchange per step, however many tasks it covers.
            assert len(exchanges) == len({e["t"] for e in entries}) < len(entries)
            assert execution.report.token_estimate < per_entry
        else:
            assert len(exchanges) == len(entries)
            assert execution.report.token_estimate == per_entry


class TestArrayPath:
    @pytest.mark.parametrize("multi_task_prompt", [False, True])
    def test_text_and_array_paths_agree(self, fixture_paths, multi_task_prompt):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "gnlms", "last_value", "neighbor_mean"],
                          repeats=2, predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
        text = execute_run(dataclasses.replace(cfg, transcript=True))
        array = execute_run(cfg)
        assert array.report.token_estimate == text.report.token_estimate > 0
        for a, t in zip(array.repeats, text.repeats, strict=True):
            assert a.trajectory.tobytes() == t.trajectory.tobytes()
            assert a.token_estimate == t.token_estimate
            assert a.scores.keys() == t.scores.keys()
            for name in a.scores:
                assert a.scores[name].tobytes() == t.scores[name].tobytes(), name

    def test_array_path_sends_no_text(self, fixture_paths, monkeypatch):
        edge_path, signal_path = fixture_paths
        monkeypatch.setattr(runner, "predict_batch", None)
        monkeypatch.setattr(runner, "build_task", None)
        execute_run(base_config(edge_path, signal_path))

    def test_non_finite_mock_value_takes_the_text_path(self):
        # Node 1's two observed neighbors sum past the largest float: "inf" does not parse, so it falls back.
        g = build_graph(3, [(0, 1), (1, 2)])
        basis = gft(laplacian(g))
        model = ObservationModel(np.array([True, False, True]), 0.0, 0)
        obs = Observation(5, np.array([1.5e308, np.nan, 1.5e308]), model.observed)
        ctx = types.SimpleNamespace(graph=g, basis=basis)
        cfg = RunConfig(predictor=PredictorConfig(max_retries=0))
        x_prev = np.full(3, 0.25)
        x_hat, tokens = runner._step_estimate(ctx, cfg, model, identity_filter(basis), x_prev, obs, None, None)
        assert x_hat[1] == 0.25
        assert tokens > 0  # the text path sent the prompt


class TestStepScores:
    @pytest.mark.parametrize("n", [1, 7, 129, 1000])  # past numpy's 8-wide and 128-element summation blocks
    @pytest.mark.parametrize("methods", [1, 2, 3, 4, 5])
    def test_one_pass_rows_equal_per_method_scores(self, n, methods):
        rng = np.random.default_rng(n * 10 + methods)
        col = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4, size=n)  # mixed magnitudes show a changed sum order
        est = col + rng.normal(size=(methods, n)) * 10.0 ** rng.integers(-3, 4, size=(methods, n))
        for missing in (np.flatnonzero(rng.random(n) < 0.4), np.arange(n), np.zeros(0, dtype=np.int64)):
            rows = runner._step_scores(col, est, missing)
            assert rows.shape == (4, methods)
            for j, e in enumerate(est):
                m = missing  # an empty missing set scores 0
                on_missing = (mae(col[m], e[m]), rmse(col[m], e[m])) if m.size else (0.0, 0.0)
                expected = [mae(col, e), rmse(col, e), *on_missing]
                assert [float(v).hex() for v in rows[:, j]] == [float(v).hex() for v in expected]


class TestBaselinesOnly:
    def test_baseline_only_execution(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "gnlms", "last_value"])
        execution = execute_run(cfg, with_primary=False)
        assert set(execution.report.method_aggregates) == {"glms", "gnlms", "last_value"}
        assert execution.report.method == "glms"

    def test_report_carries_lead_baseline_missing_errors(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=["glms", "last_value"])
        report = execute_run(cfg, with_primary=False).report

        ctx = prepare_run(cfg)
        model = sample_mask(ctx.graph.n_nodes, 0.7, 11, 0.2)
        band = bl.bandlimit_for_energy(ctx.basis, ctx.train_signal.values, cfg.baseline_band_energy)
        state = bl.glms_init(ctx.basis, band, cfg.baseline_step_size, init_estimate(ctx.train_signal, model))
        missing = model.missing_indices
        maes, rmses = [], []
        for k in range(ctx.test_signal.n_steps):
            col = ctx.test_signal.values[:, k]
            state = bl.glms_step(state, observe(col, model, ctx.test_signal.t0 + k))
            maes.append(mae(col[missing], state.estimate[missing]))
            rmses.append(rmse(col[missing], state.estimate[missing]))
        assert report.aggregate_mae_missing == (float(np.mean(maes)), 0.0)
        assert report.aggregate_rmse_missing == (float(np.mean(rmses)), 0.0)
        assert report.aggregate_mae_missing[0] > 0.0

    def test_aggregates_equal_full_run_baselines(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path, signal_path, baselines=["glms", "gnlms", "last_value", "neighbor_mean"], repeats=2
        )
        full = execute_run(cfg).report.method_aggregates
        only = execute_run(cfg, with_primary=False).report.method_aggregates
        assert only == {name: full[name] for name in cfg.baselines}

    def test_baseline_only_never_trains_or_dispatches(self, fixture_paths, tmp_path, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("a baseline-only run must not train or dispatch")

        monkeypatch.setattr(runner, "train_filter", forbidden)
        monkeypatch.setattr(runner, "predict_batch", forbidden)
        edge_path, signal_path = fixture_paths
        out = tmp_path / "out"
        cfg = base_config(edge_path, signal_path, baselines=["glms"], output_dir=str(out), checkpoint_every=10)
        execution = execute_run(cfg, with_primary=False)
        assert execution.repeats[0].train_result is None
        assert not (out / "checkpoints").exists()

    def test_baseline_only_requires_selection(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path, baselines=[])
        with pytest.raises(ValueError, match="baselines"):
            execute_run(cfg, with_primary=False)


class TestConfigValidation:
    def test_unknown_baseline_rejected(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match="unknown baselines"):
            base_config(edge_path, signal_path, baselines=["gcn"])

    def test_signal_graph_size_mismatch(self, tmp_path):
        edge_path, _, _, _ = write_run_fixture(tmp_path, n=10, t_steps=20)
        bad_signal = tmp_path / "bad.csv"
        bad_signal.write_text("1,2\n3,4\n")
        cfg = base_config(
            str(edge_path),
            str(bad_signal),
            graph={"source": "edges", "edge_list": str(edge_path), "n_nodes": 10},
            t_split=1,
        )
        with pytest.raises(ValueError, match="nodes"):
            prepare_run(cfg)

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"observaton": {"ratio": 0.5}}, "observaton"),
            ({"train": {"learnig_rate": 0.1}}, "train.learnig_rate"),
            ({"graph": {"source": "edges", "edgelist": "x.csv"}}, "graph.edgelist"),
            ({"predictor": {"backend": "mock", "retries": 3}}, "predictor.retries"),
            ({"history_depth": 2}, "history_depth"),
            ({"signal": {"path": "x.csv", "step_label": "h"}}, "signal.step_label"),
        ],
    )
    def test_unknown_key_named_by_dotted_path(self, fixture_paths, overrides, path):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match=f"unknown config key '{path}'"):
            base_config(edge_path, signal_path, **overrides)

    def test_section_must_be_an_object(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match="config key 'train' must be an object"):
            base_config(edge_path, signal_path, train=[0.1])
        with pytest.raises(ValueError, match="config must be an object"):
            RunConfig.from_dict([["t_split", 2]])

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"train": {"learning_rate": "0.1"}}, "'train.learning_rate' must be a number, got '0.1'"),
            ({"train": {"learning_rate": True}}, "'train.learning_rate' must be a number, got True"),
            ({"repeats": "2"}, "'repeats' must be an integer, got '2'"),
            ({"repeats": 2.0}, "'repeats' must be an integer, got 2.0"),
            ({"observation": {"seed": False}}, "'observation.seed' must be an integer, got False"),
            ({"graph": {"source": "edges", "n_nodes": "30"}}, "'graph.n_nodes' must be an integer or null"),
            ({"adopt_raw_observed": 1}, "'adopt_raw_observed' must be a boolean, got 1"),
            ({"predictor": {"backend": None}}, "'predictor.backend' must be a string, got None"),
            ({"baselines": "glms"}, "'baselines' must be a list of strings, got 'glms'"),
            ({"baselines": ["glms", 3]}, "'baselines' must be a list of strings"),
        ],
    )
    def test_wrong_value_type_named_by_dotted_path(self, fixture_paths, overrides, message):
        edge_path, signal_path = fixture_paths
        with pytest.raises(ValueError, match=re.escape(f"config key {message}")):
            base_config(edge_path, signal_path, **overrides)

    def test_int_for_float_and_null_for_optional_accepted(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(
            edge_path,
            signal_path,
            graph={"source": "edges", "edge_list": edge_path, "n_nodes": None, "bandwidth": None},
            observation={"ratio": 1, "seed": 11, "noise_variance": 0},
            output_dir=None,
        )
        assert cfg.observation.ratio == 1 and cfg.graph.n_nodes is None

    def test_config_round_trip(self, fixture_paths):
        edge_path, signal_path = fixture_paths
        cfg = base_config(edge_path, signal_path)
        again = RunConfig.from_dict(cfg.to_dict())
        assert again == cfg


class TestKnnGraphSource:
    def test_run_with_knn_weighted_graph(self, tmp_path):
        rng = np.random.default_rng(77)
        n = 12
        coords = rng.uniform(-5, 5, size=(n, 2))
        coord_path = tmp_path / "coords.csv"
        with open(coord_path, "w", encoding="utf-8") as fh:
            fh.write("node_id,lat,lon\n")
            for i, (lat, lon) in enumerate(coords):
                fh.write(f"{i},{float(lat)!r},{float(lon)!r}\n")
        from graphfill.graphs import gft, knn_graph, laplacian

        g = knn_graph([tuple(map(float, c)) for c in coords], k=3)
        basis = gft(laplacian(g))
        from helpers import bandlimited_signal

        signal = bandlimited_signal(basis, 3, 96, rng)
        signal_path = tmp_path / "signal.csv"
        with open(signal_path, "w", encoding="utf-8") as fh:
            for row in signal.values:
                fh.write(",".join(repr(float(v)) for v in row) + "\n")
        cfg = RunConfig.from_dict(
            {
                "graph": {"source": "knn", "coordinates": str(coord_path), "k": 3},
                "signal": {"path": str(signal_path), "layout": "nodes-as-rows"},
                "t_split": 24,
                "observation": {"ratio": 0.7, "seed": 4, "noise_variance": 0.2},
                "train": {"learning_rate": 0.1, "max_iters": 300, "tol": 0.0, "patience": 30,
                          "window": 30, "augment_copies": 10},
                "predictor": {"backend": "mock"},
                "baselines": ["glms"],
                "precision": 1,
            }
        )
        execution = execute_run(cfg)
        assert execution.context.graph.n_nodes == n
        assert execution.report.config_snapshot["derived"]["graph_weighted"] is True
        assert np.all(np.isfinite(execution.report.per_t_rmse))


class TestMissingNodeWithoutObservedNeighbors:
    def test_isolated_missing_node_persists(self, tmp_path, monkeypatch):
        # Path graph 0-1, plus node 2 connected only to missing node 1.
        edge_path = tmp_path / "edges.csv"
        edge_path.write_text("0,1\n1,2\n")
        signal_path = tmp_path / "signal.csv"
        signal_path.write_text("1.0,1.0,1.0,1.0\n2.0,2.0,2.0,2.0\n3.0,3.0,3.0,3.0\n")
        cfg = RunConfig.from_dict(
            {
                "graph": {"source": "edges", "edge_list": str(edge_path), "n_nodes": 3},
                "signal": {"path": str(signal_path), "layout": "nodes-as-rows"},
                "t_split": 2,
                "observation": {"ratio": 0.34, "seed": 0, "noise_variance": 0.0},
                "train": {"learning_rate": 0.0, "max_iters": 1},
                "predictor": {"backend": "mock"},
                "precision": 1,
            }
        )
        model = sample_mask(3, 0.34, 0, 0.0)
        assert model.observed.tolist() == [False, False, True]  # node 0's only neighbor is missing
        logged = execute_run(dataclasses.replace(cfg, transcript=True))
        monkeypatch.setattr(runner, "predict_batch", None)  # the array path sends no text
        execution = execute_run(cfg)
        assert np.all(np.isfinite(execution.repeats[0].trajectory))
        assert np.all(execution.repeats[0].trajectory[0] == init_estimate(execution.context.train_signal, model)[0])
        assert np.array_equal(execution.repeats[0].trajectory, logged.repeats[0].trajectory)
