"""Tests for signal ingestion, splitting, masks, and the observation model."""
import csv
import re
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill import signals
from graphfill.signals import (
    Observation,
    ObservationModel,
    TimeVaryingSignal,
    load_signal_csv,
    observe,
    sample_mask,
    signal_shape,
    split,
)


class TestLoadSignalCsv:
    def test_nodes_as_rows(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n4,5,6\n")
        sig = load_signal_csv(path, "nodes-as-rows")
        assert sig.n_nodes == 2 and sig.n_steps == 3
        assert np.array_equal(sig.values, [[1, 2, 3], [4, 5, 6]])

    def test_nodes_as_columns(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n4,5,6\n")
        sig = load_signal_csv(path, "nodes-as-columns")
        assert sig.n_nodes == 3 and sig.n_steps == 2
        assert np.array_equal(sig.values, [[1, 4], [2, 5], [3, 6]])

    def test_bad_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2\n3,abc\n")
        with pytest.raises(ValueError, match="row 2, column 2"):
            load_signal_csv(path, "nodes-as-rows")

    @pytest.mark.parametrize("cell", ["nan", "-inf", "1e309"])
    @pytest.mark.parametrize("layout, where", [("nodes-as-rows", "node 1, step 2"),
                                               ("nodes-as-columns", "node 2, step 1")])
    def test_non_finite_cell_names_node_and_step(self, tmp_path, cell, layout, where):
        # float() parses each of these cells, so the error comes from the check of the loaded values.
        path = tmp_path / "sig.csv"
        path.write_text(f"1,2,3\n4,5,{cell}\n")
        with pytest.raises(ValueError, match=f"sig.csv: non-finite value at {where}$"):
            load_signal_csv(path, layout)

    def test_ragged_rows_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2,3\n4,5\n")
        with pytest.raises(ValueError, match="columns"):
            load_signal_csv(path, "nodes-as-rows")

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="empty"):
            load_signal_csv(path, "nodes-as-rows")

    def test_unknown_layout_rejected(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1\n")
        with pytest.raises(ValueError, match="layout"):
            load_signal_csv(path, "sideways")


def seed_load_signal_csv(path, layout):
    """Reference: the ``csv``-reader-only loader that the one-pass read must match."""
    if layout not in ("nodes-as-rows", "nodes-as-columns"):
        raise ValueError(f"unknown layout {layout!r}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        for r, row in enumerate(csv.reader(fh)):
            if not row or all(c.strip() == "" for c in row):
                continue
            parsed = []
            for c, cell in enumerate(row):
                try:
                    parsed.append(float(cell))
                except ValueError:
                    raise ValueError(
                        f"{path}: row {r + 1}, column {c + 1}: cannot parse {cell.strip()!r} as a number"
                    ) from None
            if rows and len(parsed) != len(rows[0]):
                raise ValueError(f"{path}: row {r + 1} has {len(parsed)} columns, expected {len(rows[0])}")
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: empty signal file")
    values = np.array(rows, dtype=np.float64)
    if layout == "nodes-as-columns":
        values = values.T
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: non-finite value at node {bad[0]}, step {bad[1]}")
    return signals.TimeVaryingSignal(values=values)


def outcome(load, path, layout):
    """The loaded values' bytes and shape, or the error's type and message."""
    try:
        v = load(path, layout).values
    except ValueError as exc:
        return type(exc).__name__, str(exc)
    return v.tobytes(), v.shape


NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(-1e3, 1e3).map(repr),
    st.floats(0.0, 2.2250738585072014e-308).map(repr),  # subnormals
    st.sampled_from(["-0.0", "0", "5e-324", "1e308", "-1e308", "+1.", ".5", "7"]),
)
ODD_CELLS = st.sampled_from(['"1.5"', '" 2"', "1_0", "", " ", "abc", "0x10", "1e", "--1", '"', "1#2", "1e309", "nan", "-inf"])
PADDING = st.sampled_from(["", "", " ", "  ", "\t", " \t", "\x0c", "\xa0"])


RARELY = st.sampled_from([False] * 9 + [True])


@st.composite
def csv_texts(draw):
    """CSV text that is mostly numeric and well formed; in half the files, a tenth of the cells, row ends and
    file starts are odd (a quoted or unparsable cell, a trailing comma, a BOM)."""
    n_cols = draw(st.integers(1, 5))
    odd = draw(st.booleans())
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["row"] * 20 + ["blank-cells", "empty", "ragged"]))
        if kind == "empty":
            lines.append("")
            continue
        width = n_cols + (draw(st.sampled_from([-1, 1])) if kind == "ragged" else 0)
        cells = []
        for _ in range(max(width, 1)):
            cell = "" if kind == "blank-cells" else draw(ODD_CELLS if odd and draw(RARELY) else NUMBERS)
            cells.append(draw(PADDING) + cell + draw(PADDING))
        lines.append(",".join(cells) + ("," if odd and draw(RARELY) else ""))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(lines) + (newline if lines and draw(st.booleans()) else "")
    return ("\ufeff" if odd and draw(RARELY) else "") + text


class TestOnePassRead:
    """``load_signal_csv`` against the csv-reader-only loader it replaced."""

    @settings(max_examples=400, deadline=None)
    @given(csv_texts(), st.sampled_from(["nodes-as-rows", "nodes-as-columns"]))
    def test_same_array_or_same_error(self, text, layout):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sig.csv"
            path.write_bytes(text.encode("utf-8"))
            assert outcome(load_signal_csv, path, layout) == outcome(seed_load_signal_csv, path, layout)

    def test_plain_file_needs_no_csv_reader(self, tmp_path, monkeypatch):
        path = tmp_path / "sig.csv"
        path.write_text("0.1,-0.0,5e-324\r\n1e308, 2 ,3\r\n\n")
        monkeypatch.setattr(signals, "_read_csv_cells", None)
        assert np.array_equal(load_signal_csv(path, "nodes-as-rows").values, [[0.1, -0.0, 5e-324], [1e308, 2, 3]])

    @pytest.mark.parametrize(
        "text, expected",
        [
            ('"1.5",2\n3,"4"\n', [[1.5, 2.0], [3.0, 4.0]]),  # quoted cells
            ("1,2\n , \n,\n3,4\n", [[1.0, 2.0], [3.0, 4.0]]),  # rows of blank cells are skipped
            ("1_0,2\n", [[10.0, 2.0]]),  # what float() takes
        ],
        ids=["quoted-cells", "blank-cell-rows", "underscore-digits"],
    )
    def test_csv_reader_accepts(self, tmp_path, text, expected):
        path = tmp_path / "sig.csv"
        path.write_text(text)
        assert np.array_equal(load_signal_csv(path, "nodes-as-rows").values, expected)

    def test_errors_count_rows_and_columns_from_one(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2\n3,4\n5,x\n")
        with pytest.raises(ValueError, match=r"sig\.csv: row 3, column 2: cannot parse 'x' as a number$"):
            load_signal_csv(path, "nodes-as-rows")

    def test_hash_is_a_bad_cell_not_a_comment(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text("1,2#3\n")
        with pytest.raises(ValueError, match="row 1, column 2: cannot parse '2#3'"):
            load_signal_csv(path, "nodes-as-rows")

    def test_missing_file_raises_the_open_error(self, tmp_path):
        with pytest.raises(FileNotFoundError, match="No such file"):
            load_signal_csv(tmp_path / "absent.csv", "nodes-as-rows")


class TestSignalShape:
    """``signal_shape``: the shape ``load_signal_csv`` gives, from the lines alone."""

    @settings(max_examples=400, deadline=None)
    @given(csv_texts(), st.sampled_from(["nodes-as-rows", "nodes-as-columns"]))
    def test_scan_gives_the_loaded_shape(self, text, layout):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "sig.csv"
            path.write_bytes(text.encode("utf-8"))
            loaded = outcome(load_signal_csv, path, layout)
            if loaded[0] == "ValueError" and "empty signal file" in loaded[1]:
                assert outcome(signal_shape, path, layout) == loaded
            elif loaded[0] != "ValueError":
                assert signal_shape(path, layout) == loaded[1]

    @pytest.mark.parametrize(
        "text, shape",
        [
            ("1,2,3\r4,5,6\r", (2, 3)),  # \r ends a line, as for the csv reader and loadtxt
            ("1,2\r\n\r\n3,4\r\n", (2, 2)),
            ('1,2\n , \n,\n""\n\xa0,\u2003\n3,4\n', (2, 2)),  # blank cells, quotes and Unicode spaces
            ("\xa01,2\n3,4", (2, 2)),  # a row that starts with a Unicode space
        ],
        ids=["cr", "crlf", "blank-lines", "unicode-space-row"],
    )
    def test_rows_and_cells(self, tmp_path, text, shape):
        path = tmp_path / "sig.csv"
        path.write_bytes(text.encode("utf-8"))
        assert signal_shape(path, "nodes-as-rows") == load_signal_csv(path, "nodes-as-rows").values.shape == shape
        assert signal_shape(path, "nodes-as-columns") == shape[::-1]

    def test_empty_and_missing_files_fail_as_the_loader_does(self, tmp_path):
        path = tmp_path / "sig.csv"
        path.write_text(" ,\n\n")
        with pytest.raises(ValueError, match=f"{re.escape(str(path))}: empty signal file$"):
            signal_shape(path, "nodes-as-rows")
        with pytest.raises(FileNotFoundError, match="No such file"):
            signal_shape(tmp_path / "absent.csv", "nodes-as-rows")
        with pytest.raises(ValueError, match="unknown layout 'sideways'"):
            signal_shape(path, "sideways")


class TestSplit:
    def test_split_week_of_five_minute_steps(self):
        sig = TimeVaryingSignal(np.zeros((3, 2016)))
        train, test = split(sig, 576)
        assert train.n_steps == 576 and test.n_steps == 1440
        assert test.t0 == 576

    def test_split_short_hourly_series(self):
        sig = TimeVaryingSignal(np.zeros((2, 96)))
        train, test = split(sig, 24)
        assert train.n_steps == 24 and test.n_steps == 72

    def test_split_at_end_rejected(self):
        sig = TimeVaryingSignal(np.zeros((2, 10)))
        with pytest.raises(ValueError):
            split(sig, 10)

    def test_concatenation_restores_original(self):
        rng = np.random.default_rng(0)
        sig = TimeVaryingSignal(rng.normal(size=(4, 12)))
        train, test = split(sig, 5)
        assert np.array_equal(np.hstack([train.values, test.values]), sig.values)


class TestSampleMask:
    def test_seventy_percent_of_323(self):
        model = sample_mask(323, 0.7, seed=5)
        assert int(model.observed.sum()) == 226

    def test_full_observation(self):
        model = sample_mask(10, 1.0, seed=0)
        assert model.observed.all()

    def test_deterministic(self):
        a = sample_mask(50, 0.7, seed=9)
        b = sample_mask(50, 0.7, seed=9)
        assert np.array_equal(a.observed, b.observed)

    def test_different_seeds_differ(self):
        a = sample_mask(50, 0.5, seed=1)
        b = sample_mask(50, 0.5, seed=2)
        assert not np.array_equal(a.observed, b.observed)

    def test_zero_observed_rejected(self):
        with pytest.raises(ValueError, match="zero observed"):
            sample_mask(10, 0.01, seed=0)


class TestObserve:
    def test_zero_noise_equals_ground_truth(self):
        model = ObservationModel(observed=np.array([True, True, False]), noise_variance=0.0, seed=1)
        obs = observe(np.array([1.0, 2.0, 3.0]), model, t=4)
        assert obs.values[0] == 1.0 and obs.values[1] == 2.0
        assert np.isnan(obs.values[2])

    def test_all_observed_zero_noise_identity(self):
        model = ObservationModel(observed=np.ones(4, dtype=bool), noise_variance=0.0, seed=1)
        x = np.array([5.0, -1.0, 0.25, 9.0])
        assert np.array_equal(observe(x, model, t=0).values, x)

    def test_noise_variance_monte_carlo(self):
        n = 100
        model = ObservationModel(observed=np.ones(n, dtype=bool), noise_variance=1.0, seed=17)
        draws = []
        for t in range(1000):
            draws.append(observe(np.zeros(n), model, t).values)
        draws = np.concatenate(draws)
        assert draws.size == 100_000
        assert abs(draws.var() - 1.0) < 0.05

    def test_deterministic_per_time_index(self):
        model = ObservationModel(observed=np.ones(5, dtype=bool), noise_variance=2.0, seed=8)
        x = np.arange(5, dtype=float)
        a = observe(x, model, t=3)
        b = observe(x, model, t=3)
        c = observe(x, model, t=4)
        assert np.array_equal(a.values, b.values)
        assert not np.array_equal(a.values, c.values)

    def test_missing_positions_match_mask(self):
        rng = np.random.default_rng(6)
        for _ in range(10):
            model = sample_mask(12, 0.5, seed=int(rng.integers(1000)), noise_variance=0.3)
            obs = observe(rng.normal(size=12), model, t=int(rng.integers(100)))
            assert np.array_equal(np.isnan(obs.values), ~model.observed)
            assert np.array_equal(obs.observed, model.observed)

    def test_observation_adopts_the_frozen_mask_and_its_fresh_values(self):
        model = sample_mask(12, 0.5, seed=3, noise_variance=0.3)
        obs = observe(np.arange(12.0), model, t=5)
        assert obs.observed is model.observed
        assert obs.values.flags.owndata and not obs.values.flags.writeable
        assert obs.values.tobytes() == observe(np.arange(12.0), model, t=5).values.tobytes()


class TestInvariants:
    def test_signal_rejects_nan(self):
        with pytest.raises(ValueError, match="finite"):
            TimeVaryingSignal(np.array([[1.0, np.nan]]))

    def test_model_requires_observed_node(self):
        with pytest.raises(ValueError, match="observed"):
            ObservationModel(observed=np.zeros(3, dtype=bool), noise_variance=0.0, seed=0)

    def test_observation_shape_mismatch(self):
        with pytest.raises(ValueError):
            Observation(t=0, values=np.zeros(3), observed=np.ones(2, dtype=bool))

    def test_signal_adopts_the_loaders_array_and_copies_a_callers(self, tmp_path, monkeypatch):
        values = np.arange(6.0).reshape(2, 3)
        signal = TimeVaryingSignal(values)
        assert not np.shares_memory(signal.values, values) and not signal.values.flags.writeable
        path = tmp_path / "sig.csv"
        path.write_text("0,1,2\n3,4,5\n")
        parsed = np.arange(6.0).reshape(2, 3).copy()  # owns its memory, as loadtxt's result does
        monkeypatch.setattr(np, "loadtxt", lambda *args, **kwargs: parsed)
        assert load_signal_csv(path, "nodes-as-rows").values is parsed
        assert not parsed.flags.writeable

    def test_observation_copies_what_it_cannot_adopt(self):
        # A writeable array, a view and a list are copied read-only; a read-only array that owns its memory is kept.
        values, mask = np.arange(4.0), np.array([True, False, True, True])
        inputs = ((values, mask), (np.repeat(values, 2)[::2], mask[:]), (values.tolist(), mask.tolist()))
        for given_values, given_mask in inputs:
            obs = Observation(t=0, values=given_values, observed=given_mask)
            assert not np.shares_memory(obs.values, values) and not np.shares_memory(obs.observed, mask)
            assert not obs.values.flags.writeable and not obs.observed.flags.writeable
            assert obs.values.tolist() == [0.0, 1.0, 2.0, 3.0] and obs.observed.tolist() == mask.tolist()
        frozen = np.arange(4.0)
        frozen.setflags(write=False)
        assert Observation(t=0, values=frozen, observed=mask).values is frozen
