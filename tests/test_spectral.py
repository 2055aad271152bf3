"""Tests for graph convolution, MAE loss, training, and denoising."""
import json

import numpy as np
import pytest
from helpers import random_connected_graph, seed_graph_convolve, spectral_fixture

from graphfill import signals, spectral
from graphfill.graphs import gft, laplacian
from graphfill.signals import TimeVaryingSignal, observe, sample_mask
from graphfill.spectral import (
    BandOperator,
    FilterDivergenceError,
    SpectralFilter,
    TrainConfig,
    denoise,
    filter_operator,
    gain_truncation,
    graph_convolve,
    mae,
    save_filter_json,
    train_filter,
)

def corrupted_input(col, model, t, fill):
    obs = observe(col, model, t)
    return np.where(obs.observed, obs.values, fill)


def identity_filter(basis):
    """All-ones gains: the convolution is the identity map."""
    return SpectralFilter(np.ones(basis.n_nodes), basis.ref())


def convolve(basis, gains, x):
    """``graph_convolve`` with the operator of ``gains`` on ``basis``."""
    return graph_convolve(filter_operator(SpectralFilter(gains, basis.ref()), basis), x)


def harness_mae(basis, gains, cols, model, fill, t_offset=10_000):
    """Mean MAE of the filtered corrupted inputs against ground truth."""
    op = filter_operator(SpectralFilter(gains, basis.ref()), basis)
    total = 0.0
    for k in range(cols.shape[1]):
        x_in = corrupted_input(cols[:, k], model, t_offset + k, fill)
        total += mae(cols[:, k], graph_convolve(op, x_in))
    return total / cols.shape[1]


class TestGraphConvolve:
    def test_identity_gains(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(12, rng)
        basis = gft(laplacian(g))
        x = rng.normal(size=12)
        assert np.max(np.abs(convolve(basis, np.ones(12), x) - x)) < 1e-9

    def test_dc_only_gain_gives_mean(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(9, rng)
        basis = gft(laplacian(g))
        h = np.zeros(9)
        h[0] = 1.0
        x = rng.normal(size=9)
        assert np.max(np.abs(convolve(basis, h, x) - x.mean())) < 1e-9

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(15, rng)
        basis = gft(laplacian(g))
        h = rng.normal(size=15)
        x = rng.normal(size=15)
        oracle = basis.eigenvectors @ np.diag(h) @ basis.eigenvectors.T @ x
        assert np.max(np.abs(convolve(basis, h, x) - oracle)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(10, rng)
        basis = gft(laplacian(g))
        h = rng.normal(size=10)
        x, y = rng.normal(size=10), rng.normal(size=10)
        a, b = 1.7, -0.4
        lhs = convolve(basis, h, a * x + b * y)
        rhs = a * convolve(basis, h, x) + b * convolve(basis, h, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(5, rng)
        basis = gft(laplacian(g))
        with pytest.raises(ValueError):
            convolve(basis, np.ones(5), np.ones(6))
        with pytest.raises(ValueError, match="expected 5 gains, got 6"):
            filter_operator(SpectralFilter(np.ones(6), basis.ref()), basis)

    @pytest.mark.parametrize("n", [12, 200])
    def test_operator_matches_the_two_product_reference(self, n):
        # Mixed-sign gains of very different sizes, all kept, and a zero gain, which drops out.
        rng = np.random.default_rng(n)
        basis = gft(laplacian(random_connected_graph(n, rng, p=0.1)))
        h = rng.normal(size=n) * 10.0 ** rng.integers(-3, 2, size=n)
        h[n // 2] = 0.0
        op = filter_operator(SpectralFilter(h, basis.ref()), basis)
        for _ in range(5):
            x = rng.normal(size=n) * 10.0 ** rng.integers(-2, 3)
            want = seed_graph_convolve(basis, h, x)
            assert np.linalg.norm(graph_convolve(op, x) - want) <= 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("sign", [1.0, -1.0, 0.0])
    def test_single_signed_gains(self, sign):
        # All-zero gains keep no frequency: the operator has rank 0 and maps every signal to zeros.
        _, basis, _ = spectral_fixture(n=15, band=3, t_steps=2, seed=18)
        h = sign * np.linspace(0.5, 2.0, 15)
        op = filter_operator(SpectralFilter(h, basis.ref()), basis)
        assert op.vectors.shape == (15, 15 if sign else 0) and np.array_equal(op.scale, h[h != 0.0])
        x = np.random.default_rng(18).normal(size=15)
        out, want = graph_convolve(op, x), seed_graph_convolve(basis, h, x)
        assert out.shape == (15,) and np.linalg.norm(out - want) <= 1e-12 * np.linalg.norm(want)

    def test_mixed_sign_full_rank_gains_keep_every_frequency(self):
        rng = np.random.default_rng(19)
        basis = gft(laplacian(random_connected_graph(40, rng, p=0.1)))
        h = rng.choice([-1.0, 1.0], size=40) * rng.uniform(0.1, 3.0, size=40)
        op = filter_operator(SpectralFilter(h, basis.ref()), basis)
        assert np.array_equal(op.vectors, basis.eigenvectors) and np.array_equal(op.scale, h)
        for _ in range(5):
            x = rng.normal(size=40)
            want = seed_graph_convolve(basis, h, x)
            assert np.linalg.norm(graph_convolve(op, x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_rounding_tail_is_dropped_within_its_stated_bound(self):
        rng = np.random.default_rng(20)
        basis = gft(laplacian(random_connected_graph(40, rng, p=0.1)))
        h = rng.uniform(-1e-14, 1e-14, size=40)  # below 40 * eps * 2 = 1.8e-14, so every tail gain drops
        h[:4] = [2.0, -1.5, 0.9, 1e-3]
        keep, truncation_error, max_abs_gain = gain_truncation(h)
        assert np.flatnonzero(keep).tolist() == [0, 1, 2, 3]
        assert (truncation_error, max_abs_gain) == (np.abs(h[4:]).max(), 2.0)
        op = filter_operator(SpectralFilter(h, basis.ref()), basis)
        assert op.vectors.shape == (40, 4)
        for _ in range(5):
            x = rng.normal(size=40) * 10.0 ** rng.integers(-2, 3)
            want = seed_graph_convolve(basis, h, x)
            err = np.linalg.norm(graph_convolve(op, x) - want)
            assert err <= truncation_error * np.linalg.norm(x) + 1e-12 * np.linalg.norm(want)

    @pytest.mark.parametrize("seed", [11, 12, 13])
    def test_band_limited_training_keeps_its_band(self, seed):
        # Out of band the training targets are rounding, so are the fitted gains, and the operator keeps the band.
        _, basis, signal = spectral_fixture(n=30, band=4, t_steps=80, seed=seed)
        filt = train_filter(basis, signal, sample_mask(30, 0.7, seed=seed, noise_variance=0.3)).filter
        op = filter_operator(filt, basis)
        assert op.vectors.shape == (30, 4) and np.array_equal(op.vectors, basis.eigenvectors[:, :4])
        x = signal.values[:, -1] + np.random.default_rng(seed).normal(size=30)
        want = seed_graph_convolve(basis, filt.gains, x)
        assert np.linalg.norm(graph_convolve(op, x) - want) <= 1e-12 * np.linalg.norm(want)

    def test_operator_is_symmetric_read_only_and_sized(self):
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        filt = train_filter(basis, signal, sample_mask(20, 0.7, seed=3, noise_variance=0.3)).filter
        op = filter_operator(filt, basis)
        assert op.n_nodes == 20 and op.vectors.shape == (20, 4) and op.scale.shape == (4,)
        x, y = np.random.default_rng(11).normal(size=(2, 20))
        assert abs(y @ graph_convolve(op, x) - graph_convolve(op, y) @ x) < 1e-12
        with pytest.raises(ValueError, match="read-only"):
            op.vectors[0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            op.scale[0] = 1.0

    def test_band_operator_takes_signed_finite_scales_one_per_vector(self):
        assert np.array_equal(BandOperator(np.eye(2), np.array([0.5, -0.1])).scale, [0.5, -0.1])
        for scale in ([0.5, np.nan], [0.5, np.inf]):
            with pytest.raises(ValueError, match="scale must be finite"):
                BandOperator(np.eye(2), np.array(scale))
        with pytest.raises(ValueError, match="one scale per vector"):
            BandOperator(np.eye(2), np.array([0.5]))


class TestMae:
    def test_identical_is_zero(self):
        assert mae(np.array([1.0, 2.0]), np.array([1.0, 2.0])) == 0.0

    def test_hand_case(self):
        assert mae(np.array([1.0, 1.0]), np.array([0.0, 2.0])) == 1.0

    def test_matches_loop_oracle(self):
        rng = np.random.default_rng(5)
        a, b = rng.normal(size=40), rng.normal(size=40)
        oracle = sum(abs(x - y) for x, y in zip(a, b)) / 40
        assert mae(a, b) == pytest.approx(oracle, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            mae(np.zeros(2), np.zeros(3))


def monte_carlo_gains(basis, train_signal, model, draws, seed):
    """Per-frequency least squares over ``draws`` seeded noise draws per training column, the fill as in training."""
    x = train_signal.values
    fill = np.hstack([x.mean(axis=1, keepdims=True), x[:, :-1]])
    x_in = np.where(model.observed[:, None], x, fill)
    u = basis.eigenvectors
    y = u.T @ x
    rng = np.random.default_rng(seed)
    num, den = np.zeros(basis.n_nodes), np.zeros(basis.n_nodes)
    for _ in range(draws):
        noise = rng.normal(0.0, np.sqrt(model.noise_variance), size=x.shape) * model.observed[:, None]
        a = u.T @ (x_in + noise)
        num += (a * y).sum(axis=1)
        den += (a * a).sum(axis=1)
    return num / den


class TestTrainFilter:
    def test_denoising_beats_identity_on_held_out(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        held = signal.values[:, 300:]
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        result = train_filter(basis, train_sig, model)
        fill = train_sig.values.mean(axis=1)
        trained = harness_mae(basis, result.filter.gains, held, model, fill)
        identity = harness_mae(basis, np.ones(30), held, model, fill)
        assert trained <= 0.6 * identity

    def test_low_frequency_gains_dominate_after_training(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        gains = train_filter(basis, train_sig, model).filter.gains
        quarter = int(np.ceil(30 / 4))
        assert gains[:quarter].mean() > gains[-quarter:].mean()

    def test_gains_match_a_monte_carlo_least_squares_fit(self):
        # 4000 draws x 40 columns per frequency: the sampled fit sits within 0.01 of the expectation.
        _, basis, signal = spectral_fixture(n=12, band=4, t_steps=40, seed=21)
        model = sample_mask(12, 0.75, seed=4, noise_variance=0.3)
        gains = train_filter(basis, signal, model).filter.gains
        sampled = monte_carlo_gains(basis, signal, model, draws=4000, seed=99)
        assert np.max(np.abs(gains - sampled)) < 0.01
        assert np.max(np.abs(gains - 1.0)) > 0.1  # the noise term matters on these inputs

    def test_draws_no_noise(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("training must not draw an observation")

        monkeypatch.setattr(signals, "observe", forbidden)
        monkeypatch.setattr(spectral, "observe", forbidden)
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        model = sample_mask(20, 0.7, seed=3, noise_variance=0.3)
        assert train_filter(basis, signal, model).stop_reason == "closed-form"

    def test_noiseless_full_observation_gains_are_one(self):
        _, basis, signal = spectral_fixture(n=15, band=4, t_steps=30, seed=10)
        model = sample_mask(15, 1.0, seed=1, noise_variance=0.0)
        gains = train_filter(basis, signal, model).filter.gains
        assert np.max(np.abs(gains[:4] - 1.0)) < 1e-12  # the 4 in-band frequencies carry the energy

    def test_frequency_with_a_zero_denominator_keeps_gain_one(self):
        _, basis, _ = spectral_fixture(n=10, band=2, t_steps=1, seed=12)
        model = sample_mask(10, 1.0, seed=2, noise_variance=0.0)
        gains = train_filter(basis, TimeVaryingSignal(np.zeros((10, 5))), model).filter.gains
        assert np.array_equal(gains, np.ones(10))

    def test_trace_is_the_fitted_filters_training_mae(self):
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        model = sample_mask(20, 0.7, seed=3, noise_variance=0.3)
        result = train_filter(basis, signal, model)
        x = signal.values
        previous = x.mean(axis=1)
        total = 0.0
        for t in range(x.shape[1]):
            x_in = np.where(model.observed, x[:, t], previous)
            total += mae(x[:, t], seed_graph_convolve(basis, result.filter.gains, x_in))
            previous = x[:, t]
        assert result.mae_trace.shape == (1,)
        assert result.mae_trace[0] == pytest.approx(total / x.shape[1], rel=1e-12)

    def test_deterministic(self):
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        model = sample_mask(20, 0.7, seed=3, noise_variance=0.3)
        a = train_filter(basis, signal, model)
        b = train_filter(basis, signal, model)
        assert np.array_equal(a.filter.gains, b.filter.gains)
        assert np.array_equal(a.mae_trace, b.mae_trace)

    def test_zero_augment_copies_rejected(self):
        with pytest.raises(ValueError, match="augment_copies must be >= 1"):
            TrainConfig(augment_copies=0)

    def test_overflowing_inputs_raise_divergence(self):
        _, basis, _ = spectral_fixture(n=15, band=3, t_steps=1, seed=12)
        model = sample_mask(15, 0.8, seed=4, noise_variance=0.5)
        huge = TimeVaryingSignal(np.full((15, 50), 1e200))
        with pytest.raises(FilterDivergenceError, match="not finite"):
            train_filter(basis, huge, model)


class TestDenoise:
    def test_identity_gains_full_observation_pass_through(self):
        _, basis, signal = spectral_fixture(n=10, band=3, t_steps=5, seed=13)
        model = sample_mask(10, 1.0, seed=5, noise_variance=0.0)
        col = signal.values[:, 0]
        obs = observe(col, model, t=0)
        out = denoise(filter_operator(identity_filter(basis), basis), obs, fill=np.zeros(10))
        assert np.max(np.abs(out - col)) < 1e-9

    def test_single_observed_node_returns_finite_vector(self):
        rng = np.random.default_rng(14)
        g = random_connected_graph(8, rng)
        basis = gft(laplacian(g))
        from graphfill.signals import ObservationModel

        observed = np.zeros(8, dtype=bool)
        observed[3] = True
        model = ObservationModel(observed=observed, noise_variance=0.2, seed=6)
        obs = observe(rng.normal(size=8), model, t=1)
        out = denoise(filter_operator(identity_filter(basis), basis), obs, fill=np.full(8, 2.0))
        assert out.shape == (8,) and np.all(np.isfinite(out))

    def test_trained_filter_beats_unfiltered_on_average(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        held = signal.values[:, 300:400]
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        op = filter_operator(train_filter(basis, train_sig, model).filter, basis)
        fill = train_sig.values.mean(axis=1)
        filtered, unfiltered = 0.0, 0.0
        for k in range(100):
            col = held[:, k]
            obs = observe(col, model, 20_000 + k)
            x_in = np.where(obs.observed, obs.values, fill)
            filtered += mae(col, denoise(op, obs, fill))
            unfiltered += mae(col, x_in)
        assert filtered / 100 < unfiltered / 100

    def test_basis_mismatch_rejected(self):
        _, basis_a, _ = spectral_fixture(n=8, band=2, t_steps=2, seed=15)
        _, basis_b, _ = spectral_fixture(n=8, band=2, t_steps=2, seed=16)
        with pytest.raises(ValueError, match="basis"):
            filter_operator(identity_filter(basis_a), basis_b)

    def test_equals_the_reference_filter_of_the_filled_input(self):
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        model = sample_mask(20, 0.7, seed=3, noise_variance=0.3)
        filt = train_filter(basis, signal, model).filter
        op = filter_operator(filt, basis)
        fill = signal.values[:, 0]
        for t in range(1, 20):
            obs = observe(signal.values[:, t], model, t)
            want = seed_graph_convolve(basis, filt.gains, np.where(obs.observed, obs.values, fill))
            assert np.linalg.norm(denoise(op, obs, fill) - want) <= 1e-12 * np.linalg.norm(want)


class TestFilterSerialization:
    def test_round_trip(self, tmp_path):
        _, basis, signal = spectral_fixture(n=12, band=3, t_steps=30, seed=17)
        model = sample_mask(12, 0.7, seed=8, noise_variance=0.2)
        result = train_filter(basis, signal, model)
        path = tmp_path / "filter.json"
        save_filter_json(path, result)
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload) == {"basis_ref", "gains", "final_mae", "stop_reason", "rank", "truncation_error",
                                "max_abs_gain"}
        keep, truncation_error, max_abs_gain = gain_truncation(result.filter.gains)
        assert (payload["rank"], payload["truncation_error"], payload["max_abs_gain"]) == (3, truncation_error,
                                                                                           max_abs_gain)
        assert payload["max_abs_gain"] == np.abs(result.filter.gains).max() and 0.0 < truncation_error < 1e-13
        assert (payload["final_mae"], payload["stop_reason"]) == (result.mae_trace[0], "closed-form")
        loaded = SpectralFilter(gains=np.asarray(payload["gains"]), basis_ref=payload["basis_ref"])
        assert loaded.basis_ref == result.filter.basis_ref
        assert np.array_equal(loaded.gains, result.filter.gains)

    def test_non_finite_gains_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SpectralFilter(gains=np.array([1.0, np.inf]), basis_ref="x")
