"""Tests for signal ingestion, splitting, masks, and the observation model."""
import numpy as np
import pytest

from graphfill.signals import (
    Observation,
    ObservationModel,
    TimeVaryingSignal,
    augment_by_concatenation,
    load_signal_csv,
    observe,
    sample_mask,
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


class TestAugment:
    def test_identity(self):
        sig = TimeVaryingSignal(np.arange(6, dtype=float).reshape(2, 3))
        out = augment_by_concatenation(sig, 1)
        assert np.array_equal(out.values, sig.values)

    def test_modular_indexing(self):
        rng = np.random.default_rng(1)
        sig = TimeVaryingSignal(rng.normal(size=(3, 10)))
        out = augment_by_concatenation(sig, 3)
        assert out.n_steps == 30
        assert np.array_equal(out.values[:, 17], sig.values[:, 7])

    def test_doubling_week_train_split(self):
        sig = TimeVaryingSignal(np.zeros((2, 2016)))
        train, _ = split(sig, 576)
        assert augment_by_concatenation(train, 2).n_steps == 1152

    def test_zero_copies_rejected(self):
        sig = TimeVaryingSignal(np.zeros((1, 1)))
        with pytest.raises(ValueError):
            augment_by_concatenation(sig, 0)

    def test_round_trip_with_split(self):
        rng = np.random.default_rng(2)
        sig = TimeVaryingSignal(rng.normal(size=(3, 9)))
        train, _ = split(sig, 4)
        again = augment_by_concatenation(train, 1)
        assert np.array_equal(again.values, sig.values[:, :4])


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
