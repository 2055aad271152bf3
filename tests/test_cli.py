"""Tests for the command-line interface."""
import json
import os
import re
from pathlib import Path

import pytest
from helpers import write_run_fixture

from graphfill import runner, spectral
from graphfill.cli import OVERRIDES, main
from graphfill.prompts import render_system_prompt

DATA = Path(__file__).parent / "data"
P3_CONFIG = str(DATA / "p3" / "config.json")
KNN = {"source": "knn", "coordinates": "coordinates.csv"}  # never read: the config check fails first


def run_config_file(tmp_path, **overrides) -> str:
    edge_path, signal_path, _, _ = write_run_fixture(tmp_path, n=20, band=4, t_steps=80, seed=8)
    payload = {
        "graph": {"source": "edges", "edge_list": edge_path, "n_nodes": 20},
        "signal": {"path": signal_path, "layout": "nodes-as-rows"},
        "t_split": 40,
        "observation": {"ratio": 0.7, "seed": 3, "noise_variance": 0.1},
        "train": {"learning_rate": 0.1, "max_iters": 400, "patience": 30, "tol": 0.0, "window": 30,
                  "augment_copies": 5},
        "predictor": {"backend": "mock"},
        "baselines": ["last_value"],
        "repeats": 1,
        "precision": 1,
    }
    payload.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


class TestRenderPrompts:
    def test_p3_golden_file(self, tmp_path, capsys):
        out = tmp_path / "prompts.txt"
        rc = main(["render-prompts", "--config", P3_CONFIG, "--out", str(out)])
        assert rc == 0
        golden = (DATA / "p3" / "prompts_golden.txt").read_text(encoding="utf-8")
        assert out.read_text(encoding="utf-8") == golden

    def test_stdout_mode(self, capsys):
        rc = main(["render-prompts", "--config", P3_CONFIG])
        assert rc == 0
        captured = capsys.readouterr().out
        assert captured.startswith("The spatiotemporal task")

    def test_node_without_observed_neighbor_has_no_prompt(self, tmp_path, capsys):
        # Path graph 0-1-2; mask seed 0 observes node 2 only, so node 0 has no observed neighbor.
        (tmp_path / "edges.csv").write_text("0,1\n1,2\n")
        (tmp_path / "signal.csv").write_text("1.0,1.0,1.0,1.0\n2.0,2.0,2.0,2.0\n3.0,3.0,3.0,3.0\n")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps({
            "graph": {"source": "edges", "edge_list": str(tmp_path / "edges.csv"), "n_nodes": 3},
            "signal": {"path": str(tmp_path / "signal.csv"), "layout": "nodes-as-rows"},
            "t_split": 2,
            "observation": {"ratio": 0.34, "seed": 0, "noise_variance": 0.0},
            "train": {"learning_rate": 0.0, "max_iters": 1},
        }))
        assert main(["render-prompts", "--config", str(cfg_path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 2
        assert "Entity index: 1." in lines[1]
        assert "Entity index: 0." not in lines[1]

    @pytest.mark.parametrize("multi_task_prompt", [False, True])
    def test_prints_the_first_step_prompts_a_run_sends(self, tmp_path, capsys, multi_task_prompt):
        out = tmp_path / "out"
        cfg_path = run_config_file(tmp_path, predictor={"backend": "mock", "multi_task_prompt": multi_task_prompt})
        assert main(["run", "--config", cfg_path, "--transcript", "--output-dir", str(out)]) == 0
        capsys.readouterr()  # the run's own summary
        assert main(["render-prompts", "--config", cfg_path]) == 0
        rendered = capsys.readouterr().out.splitlines()
        assert rendered[0] == render_system_prompt()
        assert rendered[1:] == first_step_prompts(out)
        if multi_task_prompt:
            assert len(rendered) == 2 and rendered[1].count("Entity index:") > 1


    def test_remote_config_renders_as_mock_without_a_call_or_a_file(self, tmp_path, capsys, monkeypatch):
        from graphfill import predictors

        def no_call(*args, **kwargs):
            raise AssertionError("render-prompts called the remote backend")

        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.setattr(predictors, "remote_complete", no_call)
        out = tmp_path / "out"
        cfg_path = run_config_file(tmp_path, output_dir=str(out), transcript=False,
                                   predictor={"backend": "remote", "endpoint_url": "http://127.0.0.1:9"})
        files = sorted(tmp_path.rglob("*"))
        assert main(["render-prompts", "--config", cfg_path, "--backend", "mock"]) == 0
        mock = capsys.readouterr().out
        assert main(["render-prompts", "--config", cfg_path, "--backend", "remote"]) == 0
        assert capsys.readouterr().out == mock
        assert mock.startswith(render_system_prompt() + "\n") and mock.count("\n") > 1
        assert sorted(tmp_path.rglob("*")) == files


    def test_writes_nothing_to_the_output_dir_even_when_the_step_raises(self, tmp_path, capsys, monkeypatch):
        import graphfill.runner as runner

        def failing_task(*args, **kwargs):
            raise ValueError("task build failed")

        out = tmp_path / "out"
        cfg_path = run_config_file(tmp_path, output_dir=str(out), checkpoint_every=1)
        assert main(["render-prompts", "--config", cfg_path]) == 0
        monkeypatch.setattr(runner, "build_task", failing_task)
        assert main(["render-prompts", "--config", cfg_path, "--output-dir", str(out)]) == 2
        assert "error: task build failed" in capsys.readouterr().err
        assert not out.exists()


def first_step_prompts(out_dir) -> list:
    """The distinct user prompts a run's transcript sent at its first test step, in order."""
    with open(out_dir / "transcript.jsonl", encoding="utf-8") as fh:
        entries = [json.loads(line) for line in fh]
    first = min(e["t"] for e in entries)
    return list(dict.fromkeys(e["prompt"] for e in entries if e["t"] == first and e["prompt"] is not None))


class TestRun:
    def test_mock_run_exit_zero(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path)
        rc = main(["run", "--config", cfg_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "graphfill: RMSE" in out
        assert "last_value: RMSE" in out

    def test_remote_without_credentials_fails_before_network(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        monkeypatch.delenv("OPENAI_BASE_URL", raising=False)
        cfg_path = run_config_file(tmp_path)
        rc = main(["run", "--config", cfg_path, "--backend", "remote"])
        assert rc != 0
        assert "remote backend needs" in capsys.readouterr().err

    def test_remote_with_endpoint_but_no_key_fails_fast(self, tmp_path, capsys, monkeypatch):
        monkeypatch.delenv("OPENAI_API_KEY", raising=False)
        cfg_path = run_config_file(
            tmp_path, predictor={"backend": "remote", "endpoint_url": "http://127.0.0.1:9"}
        )
        rc = main(["run", "--config", cfg_path])
        assert rc != 0
        assert "credentials" in capsys.readouterr().err

    @pytest.mark.parametrize("endpoint, key, named", [
        ("http://127.0.0.1:9/v 1", "sk-secret", "(endpoint_url)"),
        ("http://127.0.0.1:9/v1", "sk-secret\nX-Injected: 1", "$OPENAI_API_KEY"),
    ])
    def test_remote_endpoint_or_key_that_cannot_be_sent_fails_before_set_up(self, tmp_path, capsys, monkeypatch,
                                                                            endpoint, key, named):
        import graphfill.runner as runner

        def no_set_up(*args, **kwargs):
            raise AssertionError("set-up ran")

        monkeypatch.setenv("OPENAI_API_KEY", key)
        monkeypatch.setattr(runner, "prepare_run", no_set_up)
        cfg_path = run_config_file(tmp_path, predictor={"backend": "remote", "endpoint_url": endpoint})
        assert main(["run", "--config", cfg_path]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and named in err
        assert "sk-secret" not in err and "Traceback" not in err

    def test_malformed_edge_list_cell_named_error(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path)
        edge_path = json.loads(Path(cfg_path).read_text())["graph"]["edge_list"]
        rows = Path(edge_path).read_text().splitlines()
        rows[2] = "2.5," + rows[2].split(",", 1)[1]
        Path(edge_path).write_text("\n".join(rows) + "\n")
        rc = main(["run", "--config", cfg_path])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert f"{edge_path}: row 3, column 1: cannot parse '2.5' as a node index" in err
        assert "Traceback" not in err

    def test_output_dir_artifacts(self, tmp_path, capsys):
        out_dir = str(tmp_path / "out")
        cfg_path = run_config_file(tmp_path, output_dir=out_dir)
        rc = main(["run", "--config", cfg_path])
        assert rc == 0
        assert os.path.exists(os.path.join(out_dir, "report.json"))

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path)
        rc = main(["run", "--config", cfg_path, "--repeats", "2", "--seed", "9"])
        assert rc == 0

    def test_unknown_flag_usage_error(self, tmp_path):
        cfg_path = run_config_file(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(["run", "--config", cfg_path, "--frobnicate"])
        assert err.value.code == 2

    def test_invalid_config_value_nonzero_exit(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path, t_split=0)
        rc = main(["run", "--config", cfg_path])
        assert rc != 0
        assert "error:" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "text, message",
        [('{"t_split": ', "Expecting value: line 1 column 13 (char 12)"), ("[]", "config must be an object")],
        ids=["truncated", "not-an-object"],
    )
    def test_malformed_config_file_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["run", "--config", str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: {message}\n"

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"observaton": {"ratio": 0.5}}, "unknown config key 'observaton'"),
            ({"train": {"learnig_rate": 0.1}}, "unknown config key 'train.learnig_rate'"),
            ({"train": {"learning_rate": "0.1"}}, "config key 'train.learning_rate' must be a number"),
        ],
        ids=["overrides0-observaton", "overrides1-train.learnig_rate", "overrides2-train.learning_rate"],
    )
    def test_config_typo_named_error(self, tmp_path, capsys, overrides, message):
        cfg_path = run_config_file(tmp_path, **overrides)
        rc = main(["run", "--config", cfg_path])
        assert rc == 2
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("baseline_step_size", -0.1, "baseline_step_size must be >= 0"),
            ("baseline_band_energy", 0.0, "baseline_band_energy must be in (0, 1]"),
            ("baseline_band_energy", 1.5, "baseline_band_energy must be in (0, 1]"),
        ],
    )
    def test_baseline_value_out_of_range_named_before_setup(self, tmp_path, capsys, monkeypatch, key, value,
                                                           message):
        import graphfill.runner as runner

        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        monkeypatch.setattr(runner, "prepare_run", no_setup)
        monkeypatch.setattr(runner, "train_filter", no_setup)
        cfg_path = run_config_file(tmp_path, baselines=["glms"], **{key: value})
        rc = main(["run", "--config", cfg_path])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "overrides, flags, message",
        [
            ({}, ["--ratio", "1.5"], "observation.ratio must be in (0, 1]"),
            ({}, ["--ratio", "0"], "observation.ratio must be in (0, 1]"),
            ({}, ["--ratio", "nan"], "observation.ratio must be in (0, 1]"),
            ({}, ["--noise-variance", "-0.1"], "observation.noise_variance must be >= 0"),
            ({}, ["--noise-variance", "nan"], "observation.noise_variance must be >= 0"),
            ({"train": {"learning_rate": float("nan")}}, [], "train.learning_rate must be >= 0"),
            ({"train": {"tol": float("nan")}}, [], "train.tol must be >= 0"),
            ({"predictor": {"temperature": float("nan")}}, [], "predictor.temperature must be >= 0"),
            ({"predictor": {"request_timeout": float("nan")}}, [], "predictor.request_timeout must be positive"),
            ({"graph": {**KNN, "k": 0}}, [], "graph.k must be >= 1"),
            ({"graph": {**KNN, "bandwidth": float("nan")}}, [], "graph.bandwidth must be positive or null"),
            ({"graph": {**KNN, "bandwidth": -1}}, [], "graph.bandwidth must be positive or null"),
            ({"graph": {**KNN, "bandwidth": 0.0}}, [], "graph.bandwidth must be positive or null"),
            ({}, ["--noise-variance", "inf"], "observation.noise_variance must be finite, got inf"),
            ({}, ["--ratio=-inf"], "observation.ratio must be finite, got -inf"),
            ({"predictor": {"request_timeout": float("inf")}}, [], "predictor.request_timeout must be finite, got inf"),
            ({"train": {"learning_rate": float("inf")}}, [], "train.learning_rate must be finite, got inf"),
            ({"baseline_step_size": float("inf")}, [], "baseline_step_size must be finite, got inf"),
            ({"graph": {**KNN, "bandwidth": float("inf")}}, [], "graph.bandwidth must be finite, got inf"),
            ({}, ["--seed", "-5"], "observation.seed must be >= 0, got -5"),
            ({}, ["--baselines", "last_value,glms,last_value"], "baselines listed more than once: ['last_value']"),
        ],
        ids=["ratio-above-1", "ratio-0", "ratio-nan", "noise-negative", "noise-nan", "learning_rate-nan", "tol-nan",
             "temperature-nan", "request_timeout-nan", "k-0", "bandwidth-nan", "bandwidth-negative", "bandwidth-0",
             "noise-inf", "ratio-minus-inf", "request_timeout-inf", "learning_rate-inf", "baseline_step_size-inf",
             "bandwidth-inf", "seed-negative", "baselines-repeated"],
    )
    def test_config_value_out_of_range_named_before_setup(self, tmp_path, capsys, monkeypatch, overrides, flags,
                                                         message):
        import graphfill.runner as runner

        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        monkeypatch.setattr(runner, "prepare_run", no_setup)
        cfg_path = run_config_file(tmp_path, **overrides)
        rc = main(["run", "--config", cfg_path, *flags])
        err = capsys.readouterr().err
        assert rc == 2
        assert f"error: {message}" in err
        assert "Traceback" not in err

    def test_request_timeout_of_1e400_named_before_setup(self, tmp_path, capsys, monkeypatch):
        import graphfill.runner as runner

        def no_setup(*args, **kwargs):
            raise AssertionError("set-up ran before the config was checked")

        monkeypatch.setattr(runner, "prepare_run", no_setup)
        cfg_path = Path(run_config_file(tmp_path, predictor={"backend": "remote", "request_timeout": 12345.5}))
        cfg_path.write_text(cfg_path.read_text().replace("12345.5", "1e400"))
        assert main(["run", "--config", str(cfg_path)]) == 2
        assert "error: predictor.request_timeout must be finite, got inf" in capsys.readouterr().err

    def test_n_nodes_other_than_the_signal_exits_2_before_any_graph(self, tmp_path, capsys, monkeypatch):
        from graphfill import graphs

        def no_graph(*args, **kwargs):
            raise AssertionError("a graph was built before graph.n_nodes was checked")

        monkeypatch.setattr(graphs, "Graph", no_graph)
        payload = json.loads(Path(P3_CONFIG).read_text())
        payload["graph"].update(edge_list=str(DATA / "p3" / "edges.csv"), n_nodes=10**6)
        payload["signal"]["path"] = str(DATA / "p3" / "signal.csv")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error: graph.n_nodes is 1000000 but the signal has 3 nodes" in err and "Traceback" not in err

    def test_degree_overflow_exits_2_naming_the_node(self, tmp_path, capsys):
        payload = json.loads(Path(P3_CONFIG).read_text())
        (tmp_path / "edges.csv").write_text("0,1,1e308\n1,2,1e308\n")
        payload["graph"]["edge_list"] = str(tmp_path / "edges.csv")
        payload["signal"]["path"] = str(DATA / "p3" / "signal.csv")
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(payload))
        assert main(["run", "--config", str(cfg_path)]) == 2
        err = capsys.readouterr().err
        assert "error: node 1 has degree inf: the sum of its edge weights overflows" in err and "Traceback" not in err

    def test_readme_lists_every_override_flag(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        listed = dict(re.findall(r"^\| `(--[a-z-]+)` \| `([a-z_.]+)` \|", readme, flags=re.M))
        assert listed == {flag: path for flag, (path, _) in OVERRIDES.items()}

    @pytest.mark.parametrize("command", ["run", "baseline", "train-filter", "render-prompts"])
    def test_override_into_non_object_section_named_error(self, tmp_path, capsys, command):
        cfg_path = run_config_file(tmp_path, observation=[0.5])
        rc = main([command, "--config", cfg_path, "--seed", "3"])
        err = capsys.readouterr().err
        assert rc == 2
        assert "error: config key 'observation' must be an object" in err
        assert "Traceback" not in err

    def test_flags_reach_their_config_keys(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path)
        out_dir = tmp_path / "flags"
        rc = main(
            [
                "run", "--config", cfg_path, "--seed", "5", "--ratio", "0.6", "--noise-variance", "0.3",
                "--t-split", "30", "--repeats", "2", "--precision", "2", "--output-dir", str(out_dir),
                "--transcript", "--baselines", "glms,,gnlms", "--backend", "mock",
            ]
        )
        assert rc == 0
        written = json.loads((out_dir / "config.json").read_text())
        assert written["observation"] == {"ratio": 0.6, "seed": 5, "noise_variance": 0.3}
        assert (written["t_split"], written["repeats"], written["precision"]) == (30, 2, 2)
        assert written["output_dir"] == str(out_dir) and written["transcript"] is True
        assert written["baselines"] == ["glms", "gnlms"]
        assert written["predictor"]["backend"] == "mock"


class TestTrainFilter:
    def test_exports_filter_json(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path)
        out = tmp_path / "filter.json"
        rc = main(["train-filter", "--config", cfg_path, "--out", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["gains"]) == 20
        assert payload["basis_ref"]
        assert (payload["stop_reason"], "train_config" in payload) == ("closed-form", False)
        assert f"training MAE {payload['final_mae']:.6f}" in capsys.readouterr().out

    def test_does_not_build_the_filter_operator(self, tmp_path, monkeypatch):
        def no_operator(*args):
            raise AssertionError("train-filter only fits and exports the gains")

        monkeypatch.setattr(spectral, "filter_operator", no_operator)
        monkeypatch.setattr(runner, "filter_operator", no_operator)
        assert main(["train-filter", "--config", run_config_file(tmp_path), "--out", str(tmp_path / "f.json")]) == 0


class TestBaselineCommand:
    def test_baseline_only(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path, baselines=["glms", "last_value"])
        rc = main(["baseline", "--config", cfg_path])
        assert rc == 0
        out = capsys.readouterr().out
        assert "glms: RMSE" in out
        assert "graphfill" not in out

    def test_no_baselines_selected_errors(self, tmp_path, capsys):
        cfg_path = run_config_file(tmp_path, baselines=[])
        rc = main(["baseline", "--config", cfg_path])
        assert rc != 0

    def test_output_dir_gets_the_lead_baseline_report(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg_path = run_config_file(tmp_path, baselines=["glms", "last_value"], checkpoint_every=10)
        rc = main(["baseline", "--config", cfg_path, "--output-dir", str(out_dir)])
        assert rc == 0
        assert sorted(os.listdir(out_dir)) == ["checkpoints", "config.json", "report.csv", "report.json", "report.md"]
        checkpoints = sorted((out_dir / "checkpoints").iterdir())
        assert checkpoints
        for path in checkpoints:
            assert list(json.loads(path.read_text())["estimates"]) == ["glms", "last_value"]
        report = json.loads((out_dir / "report.json").read_text())
        assert report["method"] == "glms"
        assert set(report["method_aggregates"]) == {"glms", "last_value"}
        assert json.loads((out_dir / "config.json").read_text())["output_dir"] == str(out_dir)


class TestReportCommand:
    def test_merges_reports(self, tmp_path, capsys):
        cfg_a = run_config_file(tmp_path, output_dir=str(tmp_path / "a"))
        assert main(["run", "--config", cfg_a]) == 0
        cfg_b = run_config_file(
            tmp_path,
            output_dir=str(tmp_path / "b"),
            observation={"ratio": 0.7, "seed": 3, "noise_variance": 0.5},
        )
        assert main(["run", "--config", cfg_b]) == 0
        merged = tmp_path / "merged.md"
        rc = main(
            [
                "report",
                "--inputs",
                str(tmp_path / "a" / "report.json"),
                str(tmp_path / "b" / "report.json"),
                "--out",
                str(merged),
            ]
        )
        assert rc == 0
        text = merged.read_text()
        assert "0.1" in text.splitlines()[0] and "0.5" in text.splitlines()[0]
        assert "| graphfill |" in text


class TestReportCommandErrors:
    @pytest.mark.parametrize(
        "text, message",
        [
            ("{}", "report has no key 'method'"),
            ("[]", "a report must be a JSON object, not list"),
            ("{not json", "Expecting property name enclosed in double quotes"),
        ],
    )
    def test_malformed_report_exits_2_naming_the_file(self, tmp_path, capsys, text, message):
        path = tmp_path / "report.json"
        path.write_text(text)
        assert main(["report", "--inputs", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: {message}")

    def test_report_without_aggregate_mae_exits_2(self, tmp_path, capsys):
        good = Path(__file__).parent / "data" / "report_golden.json"
        payload = json.loads(good.read_text())
        del payload["aggregate_mae"]
        path = tmp_path / "cut.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--inputs", str(good), str(path)]) == 2
        assert capsys.readouterr().err == f"error: {path}: report has no key 'aggregate_mae'\n"

    @pytest.mark.parametrize(
        "snapshot, key", [(["observation"], "config_snapshot"), ({"observation": [0.1]}, "config_snapshot.observation")]
    )
    def test_report_with_a_non_object_snapshot_exits_2(self, tmp_path, capsys, snapshot, key):
        good = Path(__file__).parent / "data" / "report_golden.json"
        payload = json.loads(good.read_text())
        payload["config_snapshot"] = snapshot
        path = tmp_path / "bad_snapshot.json"
        path.write_text(json.dumps(payload))
        assert main(["report", "--inputs", str(good), str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: {path}: malformed report: key '{key}' must be an object")
        assert "Traceback" not in captured.err and captured.out == ""
