"""Tests for the command-line interface."""
import json
import os
from pathlib import Path

import pytest
from helpers import write_run_fixture

from graphfill.cli import main
from graphfill.prompts import render_system_prompt

DATA = Path(__file__).parent / "data"
P3_CONFIG = str(DATA / "p3" / "config.json")


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
        assert payload["train_config"]["learning_rate"] == 0.1


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
