"""Tests for graph convolution, MAE loss/gradient, training, and denoising."""
import json
from collections import deque

import numpy as np
import pytest
from helpers import bandlimited_signal, random_connected_graph, seed_mae_gradient, spectral_fixture

from graphfill.graphs import gft, laplacian
from graphfill.signals import TimeVaryingSignal, observe, sample_mask
from graphfill.spectral import (
    FilterDivergenceError,
    SpectralFilter,
    TrainConfig,
    denoise,
    graph_convolve,
    mae,
    save_filter_json,
    train_filter,
)

DENOISE_TRAIN_CFG = TrainConfig(
    learning_rate=0.2, max_iters=2000, patience=50, tol=0.0, augment_copies=7, window=50
)


def corrupted_input(col, model, t, fill):
    obs = observe(col, model, t)
    return np.where(obs.observed, obs.values, fill)


def identity_filter(basis):
    """All-ones gains: the convolution is the identity map."""
    return SpectralFilter(np.ones(basis.n_nodes), basis.ref())


def harness_mae(basis, gains, cols, model, fill, t_offset=10_000):
    """Mean MAE of the filtered corrupted inputs against ground truth."""
    total = 0.0
    for k in range(cols.shape[1]):
        x_in = corrupted_input(cols[:, k], model, t_offset + k, fill)
        total += mae(cols[:, k], graph_convolve(basis, gains, x_in))
    return total / cols.shape[1]


class TestGraphConvolve:
    def test_identity_gains(self):
        rng = np.random.default_rng(0)
        g = random_connected_graph(12, rng)
        basis = gft(laplacian(g))
        x = rng.normal(size=12)
        assert np.max(np.abs(graph_convolve(basis, np.ones(12), x) - x)) < 1e-9

    def test_dc_only_gain_gives_mean(self):
        rng = np.random.default_rng(1)
        g = random_connected_graph(9, rng)
        basis = gft(laplacian(g))
        h = np.zeros(9)
        h[0] = 1.0
        x = rng.normal(size=9)
        assert np.max(np.abs(graph_convolve(basis, h, x) - x.mean())) < 1e-9

    def test_matches_dense_oracle(self):
        rng = np.random.default_rng(2)
        g = random_connected_graph(15, rng)
        basis = gft(laplacian(g))
        h = rng.normal(size=15)
        x = rng.normal(size=15)
        oracle = basis.eigenvectors @ np.diag(h) @ basis.eigenvectors.T @ x
        assert np.max(np.abs(graph_convolve(basis, h, x) - oracle)) < 1e-10

    def test_linearity(self):
        rng = np.random.default_rng(3)
        g = random_connected_graph(10, rng)
        basis = gft(laplacian(g))
        h = rng.normal(size=10)
        x, y = rng.normal(size=10), rng.normal(size=10)
        a, b = 1.7, -0.4
        lhs = graph_convolve(basis, h, a * x + b * y)
        rhs = a * graph_convolve(basis, h, x) + b * graph_convolve(basis, h, y)
        assert np.max(np.abs(lhs - rhs)) < 1e-9

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(4)
        g = random_connected_graph(5, rng)
        basis = gft(laplacian(g))
        with pytest.raises(ValueError):
            graph_convolve(basis, np.ones(5), np.ones(6))


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


def finite_difference_gradient(basis, h, x, x_g, step=1e-5):
    grad = np.zeros_like(h)
    for k in range(h.size):
        hp, hm = h.copy(), h.copy()
        hp[k] += step
        hm[k] -= step
        fp = mae(x_g, graph_convolve(basis, hp, x))
        fm = mae(x_g, graph_convolve(basis, hm, x))
        grad[k] = (fp - fm) / (2.0 * step)
    return grad


class TestMaeGradient:
    def test_zero_at_exact_match(self):
        rng = np.random.default_rng(6)
        g = random_connected_graph(8, rng)
        basis = gft(laplacian(g))
        x = rng.normal(size=8)
        x_g = graph_convolve(basis, np.ones(8), x)
        grad = seed_mae_gradient(basis, np.ones(8), x, x_g)
        assert np.max(np.abs(grad)) < 1e-12

    def test_zero_input_gives_zero_gradient(self):
        rng = np.random.default_rng(7)
        g = random_connected_graph(8, rng)
        basis = gft(laplacian(g))
        grad = seed_mae_gradient(basis, rng.normal(size=8), np.zeros(8), rng.normal(size=8))
        assert np.array_equal(grad, np.zeros(8))

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(8)
        n = 10
        checked = 0
        while checked < 50:
            g = random_connected_graph(n, rng)
            basis = gft(laplacian(g))
            h = rng.normal(1.0, 0.5, size=n)
            x = rng.normal(size=n)
            x_g = rng.normal(size=n)
            x_tilde = graph_convolve(basis, h, x)
            if np.min(np.abs(x_tilde - x_g)) < 1e-3:
                continue  # too close to a kink; reroll
            analytic = seed_mae_gradient(basis, h, x, x_g)
            numeric = finite_difference_gradient(basis, h, x, x_g)
            assert np.max(np.abs(analytic - numeric)) < 1e-5
            checked += 1


class TestTrainFilter:
    def test_zero_learning_rate_is_noop(self):
        _, basis, signal = spectral_fixture(n=12, band=3, t_steps=40, seed=9)
        model = sample_mask(12, 0.75, seed=2, noise_variance=0.1)
        cfg = TrainConfig(learning_rate=0.0, max_iters=30, window=5, patience=3)
        result = train_filter(basis, signal, model, cfg)
        assert np.array_equal(result.filter.gains, np.ones(12))
        assert result.mae_trace.size >= 1

    def test_denoising_beats_identity_on_held_out(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        held = signal.values[:, 300:]
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        result = train_filter(basis, train_sig, model, DENOISE_TRAIN_CFG)
        fill = train_sig.values.mean(axis=1)
        trained = harness_mae(basis, result.filter.gains, held, model, fill)
        identity = harness_mae(basis, np.ones(30), held, model, fill)
        assert trained <= 0.6 * identity

    def test_low_frequency_gains_dominate_after_training(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        gains = train_filter(basis, train_sig, model, DENOISE_TRAIN_CFG).filter.gains
        quarter = int(np.ceil(30 / 4))
        assert gains[:quarter].mean() > gains[-quarter:].mean()

    def test_noiseless_full_observation_trace_nonincreasing(self):
        _, basis, signal = spectral_fixture(n=15, band=4, t_steps=1, seed=10)
        model = sample_mask(15, 1.0, seed=1, noise_variance=0.0)
        cfg = TrainConfig(
            learning_rate=1e-5, max_iters=200, patience=20, tol=0.0, augment_copies=200, window=20
        )
        trace = train_filter(basis, signal, model, cfg).mae_trace
        diffs = np.diff(trace[10:])
        assert np.all(diffs <= 1e-6)

    def test_deterministic(self):
        _, basis, signal = spectral_fixture(n=20, band=4, t_steps=60, seed=11)
        model = sample_mask(20, 0.7, seed=3, noise_variance=0.3)
        cfg = TrainConfig(learning_rate=0.05, max_iters=120, augment_copies=2)
        a = train_filter(basis, signal, model, cfg)
        b = train_filter(basis, signal, model, cfg)
        assert np.array_equal(a.filter.gains, b.filter.gains)
        assert np.array_equal(a.mae_trace, b.mae_trace)

    def test_final_window_not_worse_than_start(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        trace = train_filter(basis, train_sig, model, DENOISE_TRAIN_CFG).mae_trace
        assert trace[-50:].mean() <= trace[0]

    def test_zero_augment_copies_rejected(self):
        with pytest.raises(ValueError, match="augment_copies must be >= 1"):
            TrainConfig(augment_copies=0)

    def test_divergence_aborts_with_trace(self):
        rng = np.random.default_rng(12)
        g = random_connected_graph(15, rng)
        basis = gft(laplacian(g))
        signal = bandlimited_signal(basis, 3, 50, rng, scale=1e6)
        model = sample_mask(15, 0.8, seed=4, noise_variance=0.5)
        cfg = TrainConfig(learning_rate=1e304, max_iters=50, tol=0.0, patience=100, window=10)
        with np.errstate(over="ignore"), pytest.raises(FilterDivergenceError) as err:
            train_filter(basis, signal, model, cfg)
        assert err.value.trace.size >= 1


def seed_train_filter(basis, train_signal, obs_model, cfg):
    """Reference trainer: one graph_convolve for the loss, one seed_mae_gradient per step."""
    data = train_signal.values
    fill = train_signal.values.mean(axis=1)
    h = np.ones(basis.n_nodes, dtype=np.float64)
    trace = []
    window = deque(maxlen=cfg.window)
    best = np.inf
    streak = 0
    n_steps = min(cfg.max_iters, cfg.augment_copies * data.shape[1])
    stop_reason = "max-iters" if n_steps == cfg.max_iters else "samples-exhausted"
    for t in range(n_steps):
        col = data[:, t % data.shape[1]]
        x_in = corrupted_input(col, obs_model, t, fill)
        loss = mae(col, graph_convolve(basis, h, x_in))
        trace.append(loss)
        h = h - cfg.learning_rate * seed_mae_gradient(basis, h, x_in, col)
        window.append(loss)
        if len(window) < cfg.window:
            continue
        running = float(np.mean(window))
        if running < best - cfg.tol:
            best = running
            streak = 0
        else:
            streak += 1
            if streak >= cfg.patience:
                stop_reason = "early-stop"
                break
    return h, np.asarray(trace), stop_reason


class TestTrainFilterBitIdentity:
    @pytest.mark.parametrize(
        "cfg, reason",
        [
            (TrainConfig(learning_rate=0.2, max_iters=2000, patience=20, tol=0.0, augment_copies=10,
                         window=30), "early-stop"),
            (TrainConfig(learning_rate=0.2, max_iters=250, patience=1000, tol=0.0, augment_copies=2,
                         window=50), "max-iters"),
            (TrainConfig(learning_rate=0.2, max_iters=2000, patience=5000, tol=0.0, augment_copies=3,
                         window=50), "samples-exhausted"),
        ],
    )
    def test_matches_convolve_plus_gradient_reference(self, cfg, reason):
        _, basis, signal = spectral_fixture(n=200, band=10, t_steps=300, seed=31)
        model = sample_mask(200, 0.7, seed=5, noise_variance=0.2)
        gains, trace, stop_reason = seed_train_filter(basis, signal, model, cfg)
        result = train_filter(basis, signal, model, cfg)
        assert stop_reason == reason
        assert result.stop_reason == stop_reason
        assert np.array_equal(result.filter.gains, gains)
        assert np.array_equal(result.mae_trace, trace)


class TestDenoise:
    def test_identity_gains_full_observation_pass_through(self):
        _, basis, signal = spectral_fixture(n=10, band=3, t_steps=5, seed=13)
        model = sample_mask(10, 1.0, seed=5, noise_variance=0.0)
        col = signal.values[:, 0]
        obs = observe(col, model, t=0)
        out = denoise(identity_filter(basis), basis, obs, fill=np.zeros(10))
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
        out = denoise(identity_filter(basis), basis, obs, fill=np.full(8, 2.0))
        assert out.shape == (8,) and np.all(np.isfinite(out))

    def test_trained_filter_beats_unfiltered_on_average(self):
        _, basis, signal = spectral_fixture(n=30, band=5, t_steps=500, seed=123)
        train_sig = TimeVaryingSignal(signal.values[:, :300])
        held = signal.values[:, 300:400]
        model = sample_mask(30, 0.7, seed=7, noise_variance=0.5)
        filt = train_filter(basis, train_sig, model, DENOISE_TRAIN_CFG).filter
        fill = train_sig.values.mean(axis=1)
        filtered, unfiltered = 0.0, 0.0
        for k in range(100):
            col = held[:, k]
            obs = observe(col, model, 20_000 + k)
            x_in = np.where(obs.observed, obs.values, fill)
            filtered += mae(col, denoise(filt, basis, obs, fill))
            unfiltered += mae(col, x_in)
        assert filtered / 100 < unfiltered / 100

    def test_basis_mismatch_rejected(self):
        _, basis_a, _ = spectral_fixture(n=8, band=2, t_steps=2, seed=15)
        _, basis_b, _ = spectral_fixture(n=8, band=2, t_steps=2, seed=16)
        model = sample_mask(8, 1.0, seed=7, noise_variance=0.0)
        obs = observe(np.zeros(8), model, t=0)
        with pytest.raises(ValueError, match="basis"):
            denoise(identity_filter(basis_a), basis_b, obs, fill=np.zeros(8))


class TestFilterSerialization:
    def test_round_trip(self, tmp_path):
        _, basis, signal = spectral_fixture(n=12, band=3, t_steps=30, seed=17)
        model = sample_mask(12, 0.7, seed=8, noise_variance=0.2)
        cfg = TrainConfig(learning_rate=0.05, max_iters=60)
        result = train_filter(basis, signal, model, cfg)
        path = tmp_path / "filter.json"
        save_filter_json(path, result, cfg)
        payload = json.loads(path.read_text(encoding="utf-8"))
        loaded = SpectralFilter(gains=np.asarray(payload["gains"]), basis_ref=payload["basis_ref"])
        assert loaded.basis_ref == result.filter.basis_ref
        assert np.array_equal(loaded.gains, result.filter.gains)

    def test_non_finite_gains_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            SpectralFilter(gains=np.array([1.0, np.inf]), basis_ref="x")
