"""Tests for error metrics, aggregation, and report emission."""
import dataclasses
import json
import math
import re
from pathlib import Path

import numpy as np
import pytest

from graphfill.metrics import RunReport, aggregate, emit_report, render_markdown_table, rmse
from graphfill.spectral import mae

DATA = Path(__file__).parent / "data"


def golden_report() -> RunReport:
    return RunReport(
        method="graphfill",
        per_t_mae=np.array([0.5, 0.25, 0.125]),
        per_t_rmse=np.array([0.75, 0.5, 0.25]),
        aggregate_mae=(0.2917, 0.01),
        aggregate_rmse=(0.5, 0.02),
        aggregate_mae_missing=(0.4, 0.0),
        aggregate_rmse_missing=(0.6, 0.0),
        method_aggregates={
            "graphfill": {"mae": (0.2917, 0.01), "rmse": (0.5, 0.02)},
            "last_value": {"mae": (0.9, 0.1), "rmse": (1.2, 0.15)},
        },
        config_snapshot={"observation": {"noise_variance": 1.0, "ratio": 0.7, "seed": 1}},
        transcript_path=None,
        token_estimate=123,
    )


class TestRmse:
    def test_identical_is_zero(self):
        assert rmse(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_case(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) == pytest.approx(math.sqrt(12.5))

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=25), rng.normal(size=25)
        oracle = math.sqrt(sum((x - y) ** 2 for x, y in zip(a, b)) / 25)
        assert rmse(a, b) == pytest.approx(oracle, abs=1e-14)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            rmse(np.zeros(2), np.zeros(3))

    def test_mae_never_exceeds_rmse(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            a, b = rng.normal(size=n), rng.normal(size=n)
            assert mae(a, b) <= rmse(a, b) + 1e-12


class TestAggregate:
    def test_equal_repeats(self):
        assert aggregate([4.0, 4.0]) == (4.0, 0.0)

    def test_hand_case(self):
        mean, std = aggregate([3.0, 5.0])
        assert mean == 4.0
        assert std == pytest.approx(math.sqrt(2.0), abs=1e-12)

    def test_single_repeat_zero_std(self):
        assert aggregate([7.5]) == (7.5, 0.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(2)
        values = list(rng.normal(size=10))
        mean, std = aggregate(values)
        oracle_mean = sum(values) / len(values)
        oracle_std = math.sqrt(sum((v - oracle_mean) ** 2 for v in values) / (len(values) - 1))
        assert mean == pytest.approx(oracle_mean, abs=1e-12)
        assert std == pytest.approx(oracle_std, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate([])


class TestEmitReport:
    def test_json_matches_golden(self, tmp_path):
        out = tmp_path / "report.json"
        emit_report(golden_report(), "json", out)
        assert out.read_text() == (DATA / "report_golden.json").read_text()

    def test_csv_matches_golden(self, tmp_path):
        out = tmp_path / "report.csv"
        emit_report(golden_report(), "csv", out)
        assert out.read_text() == (DATA / "report_golden.csv").read_text()

    def test_markdown_matches_golden(self, tmp_path):
        out = tmp_path / "report.md"
        emit_report(golden_report(), "markdown-table", out)
        assert out.read_text() == (DATA / "report_golden.md").read_text()

    def test_unknown_format_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(golden_report(), "xml", tmp_path / "x")

    def test_json_round_trip(self, tmp_path):
        out = tmp_path / "report.json"
        emit_report(golden_report(), "json", out)
        loaded = RunReport.from_dict(json.loads(out.read_text()))
        assert loaded.method == "graphfill"
        assert np.array_equal(loaded.per_t_mae, golden_report().per_t_mae)
        assert loaded.method_aggregates["last_value"]["rmse"] == (1.2, 0.15)

    def test_markdown_merges_variance_columns(self):
        a = golden_report()
        b_payload = a.to_dict()
        b_payload["config_snapshot"] = {"observation": {"noise_variance": 1.5}}
        b = RunReport.from_dict(b_payload)
        table = render_markdown_table([a, b], "rmse")
        header = table.splitlines()[0]
        assert "1.0" in header and "1.5" in header


    def test_markdown_orders_variance_columns_by_value(self):
        a = golden_report()
        reports = []
        for variance in [0.1, 0.2, 1.0, 0.05, 10.0, 1e-05, None]:
            payload = a.to_dict()
            payload["config_snapshot"] = {"observation": {} if variance is None else {"noise_variance": variance}}
            reports.append(RunReport.from_dict(payload))
        header = render_markdown_table(reports, "rmse").splitlines()[0]
        assert header == "| Method (RMSE) | 1e-05 | 0.05 | 0.1 | 0.2 | 1.0 | 10.0 | ? |"


def test_to_dict_keys_are_the_field_names_in_order():
    assert list(golden_report().to_dict()) == [f.name for f in dataclasses.fields(RunReport)]


class TestReportFromDict:
    @pytest.mark.parametrize("payload, kind", [([], "list"), ("report", "str"), (None, "NoneType")])
    def test_non_object_rejected(self, payload, kind):
        with pytest.raises(ValueError, match=f"a report must be a JSON object, not {kind}"):
            RunReport.from_dict(payload)

    @pytest.mark.parametrize("key", ["method", "per_t_mae", "aggregate_mae", "method_aggregates", "config_snapshot"])
    def test_missing_key_named(self, key):
        payload = golden_report().to_dict()
        del payload[key]
        with pytest.raises(ValueError, match=f"report has no key '{key}'"):
            RunReport.from_dict(payload)

    def test_empty_object_names_the_first_key(self):
        with pytest.raises(ValueError, match="report has no key 'method'"):
            RunReport.from_dict({})

    @pytest.mark.parametrize(
        "key, value", [("aggregate_mae", 0.5), ("method_aggregates", []), ("aggregate_rmse", ["a", "b"]),
                       ("config_snapshot", 3), ("token_estimate", None)],
    )
    def test_malformed_field_rejected(self, key, value):
        payload = golden_report().to_dict()
        payload[key] = value
        with pytest.raises(ValueError, match="malformed report"):
            RunReport.from_dict(payload)

    @pytest.mark.parametrize(
        "snapshot, message",
        [([["observation", {}]], "key 'config_snapshot' must be an object, not list"),
         ("abc", "key 'config_snapshot' must be an object, not str"),
         ({"observation": ["noise_variance", 0.1]}, "key 'config_snapshot.observation' must be an object"),
         ({"observation": None}, "key 'config_snapshot.observation' must be an object")],
    )
    def test_snapshot_and_its_observation_must_be_objects(self, snapshot, message):
        payload = golden_report().to_dict()
        payload["config_snapshot"] = snapshot
        with pytest.raises(ValueError, match=f"^malformed report: {re.escape(message)}$"):
            RunReport.from_dict(payload)

    def test_snapshot_without_observation_loads(self):
        payload = golden_report().to_dict()
        payload["config_snapshot"] = {}
        assert render_markdown_table([RunReport.from_dict(payload)]).splitlines()[0].endswith("| ? |")
