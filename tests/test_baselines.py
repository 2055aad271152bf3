"""Tests for adaptive-filter and naive baselines."""
import types

import numpy as np
import pytest
from helpers import random_connected_graph, spectral_fixture

from graphfill import baselines
from graphfill.baselines import (
    bandlimit_for_energy,
    glms_init,
    glms_step,
    gnlms_init,
    gnlms_step,
    last_value_step,
    neighbor_mean_step,
)
from graphfill.graphs import build_graph, gft, laplacian, neighbors, observed_layout
from graphfill.signals import Observation, ObservationModel, observe, sample_mask
from graphfill.spectral import BandOperator


def fixed_signal_fixture(n=20, band=4, seed=31):
    """Connected graph plus one constant-in-time bandlimited snapshot."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    basis = gft(laplacian(g))
    x_g = basis.eigenvectors[:, :band] @ rng.normal(0.0, 2.0, size=band)
    return g, basis, x_g


def full_observation(n, values, t=0):
    return Observation(t=t, values=values, observed=np.ones(n, dtype=bool))


def iterations_to_converge(step_fn, filt, x_g, model, tol=1e-3, cap=500):
    """Iterations from a zero estimate until the worst-node error drops below tol (inf if never)."""
    estimate = np.zeros_like(x_g)
    for k in range(1, cap + 1):
        obs = observe(x_g, model, t=k)
        estimate = step_fn(filt, estimate, obs)
        if np.max(np.abs(estimate - x_g)) < tol:
            return k
    return np.inf


class TestBandProjector:
    def test_symmetric_and_idempotent(self):
        _, basis, _ = spectral_fixture(n=18, band=4, t_steps=2, seed=1)
        filt = glms_init(basis, 6, mu=0.5)
        u_band = basis.eigenvectors[:, :6]
        assert np.array_equal(filt.vectors, u_band)  # the GLMS operator is U_B (0.5 I) U_B^T
        assert np.array_equal(filt.scale, np.full(6, 0.5))
        b = filt.vectors @ filt.vectors.T
        assert np.max(np.abs(b - b.T)) < 1e-8
        assert np.max(np.abs(b @ b - b)) < 1e-8

    def test_state_rejects_non_idempotent_projector(self):
        basis = types.SimpleNamespace(n_nodes=2, eigenvectors=np.array([[2.0, 0.0], [0.0, 2.0]]))  # U U^T = 4 I
        with pytest.raises(ValueError, match="idempotent"):
            glms_init(basis, 2, mu=0.5)
        with pytest.raises(ValueError, match="idempotent"):
            gnlms_init(basis, 2, mu=0.5, observed=np.ones(2, dtype=bool))

    def test_filter_rejects_negative_step_size(self):
        _, basis, _ = fixed_signal_fixture()
        for mu in (-0.1, np.nan):
            with pytest.raises(ValueError, match="step sizes"):
                glms_init(basis, 4, mu=mu)
            with pytest.raises(ValueError, match="step sizes"):
                gnlms_init(basis, 4, mu=mu, observed=np.ones(20, dtype=bool))

    def test_state_operators_read_only(self):
        _, basis, _ = fixed_signal_fixture()
        filters = (glms_init(basis, 4, mu=0.5), gnlms_init(basis, 4, mu=0.5, observed=np.ones(20, dtype=bool)))
        for filt in filters:
            assert filt.vectors.shape == (20, 4) and filt.scale.shape == (4,)  # no n x n operator
            with pytest.raises(ValueError, match="read-only"):
                filt.vectors[0] = 1.0
            with pytest.raises(ValueError, match="read-only"):
                filt.scale[0] = 1.0

    def test_steps_do_not_recheck_projector(self, monkeypatch):
        checks = []
        band_vectors = baselines._band_vectors
        monkeypatch.setattr(baselines, "_band_vectors", lambda *a: checks.append(1) or band_vectors(*a))
        _, basis, x_g = fixed_signal_fixture()
        model = sample_mask(20, 0.7, seed=5)
        glms_filt = glms_init(basis, 4, mu=0.5)
        gnlms_filt = gnlms_init(basis, 4, mu=0.5, observed=model.observed)
        assert len(checks) == 2
        glms_estimate = gnlms_estimate = np.zeros(20)
        for t in range(50):
            obs = observe(x_g, model, t=t)
            glms_estimate = glms_step(glms_filt, glms_estimate, obs)
            gnlms_estimate = gnlms_step(gnlms_filt, gnlms_estimate, obs)
        assert len(checks) == 2

    def test_bandlimit_for_energy(self):
        _, basis, signal = spectral_fixture(n=20, band=5, t_steps=50, seed=2)
        f = bandlimit_for_energy(basis, signal.values, 0.9)
        assert 1 <= f <= 5  # all energy sits in the lowest 5 frequencies

    def test_bandlimit_of_an_all_zero_signal_is_one(self):
        _, basis, signal = spectral_fixture(n=12, band=3, t_steps=10, seed=3)
        assert bandlimit_for_energy(basis, np.zeros_like(signal.values), 0.9) == 1

    def test_bandlimit_full_fraction_covers_all_energy(self):
        _, basis, signal = spectral_fixture(n=12, band=3, t_steps=10, seed=3)
        f = bandlimit_for_energy(basis, signal.values, 1.0)
        coeffs = basis.eigenvectors.T @ signal.values
        energy = np.sum(coeffs**2, axis=1)
        assert energy[:f].sum() >= (1.0 - 1e-9) * energy.sum()


@pytest.mark.parametrize("normalized", [False, True], ids=["glms", "gnlms"])
def test_factored_steps_match_the_dense_operator(normalized):
    # Reference: the operator formed as the dense n x n matrix U_B diag(s) U_B^T, with s = mu or mu / q.
    g, basis, x_g = fixed_signal_fixture()
    model = sample_mask(20, 0.6, seed=8, noise_variance=0.3)
    u_band = basis.eigenvectors[:, :5]
    if normalized:
        filt, step = gnlms_init(basis, 5, mu=0.4, observed=model.observed), gnlms_step
        s = 0.4 / np.maximum(np.sum(u_band[model.observed] ** 2, axis=0), baselines.NORMALIZATION_EPS)
    else:
        filt, step, s = glms_init(basis, 5, mu=0.4), glms_step, np.full(5, 0.4)
    dense = u_band @ np.diag(s) @ u_band.T
    estimate = reference = np.zeros(20)
    for t in range(50):
        obs = observe(x_g, model, t=t)
        estimate = step(filt, estimate, obs)
        reference = reference + dense @ np.where(obs.observed, obs.values - reference, 0.0)
        assert np.max(np.abs(estimate - reference)) <= 1e-12 * max(1.0, np.max(np.abs(reference)))


class TestGlmsStep:
    def test_zero_innovation_keeps_state(self):
        _, basis, x_g = fixed_signal_fixture()
        out = glms_step(glms_init(basis, 4, mu=0.5), x_g, full_observation(20, x_g))
        assert np.allclose(out, x_g, atol=1e-12)

    def test_zero_step_size_frozen(self):
        _, basis, x_g = fixed_signal_fixture()
        start = np.zeros(20)
        out = glms_step(glms_init(basis, 4, mu=0.0), start, full_observation(20, x_g))
        assert np.array_equal(out, start)

    def test_identity_operators_copy_observation(self):
        n = 6
        x_hat = np.array([1.0, 2.0, -3.0, 0.5, 4.0, -1.5])
        o = np.array([2.0, 0.0, 1.0, -0.5, 3.0, 2.5])
        out = glms_step(BandOperator(np.eye(n), np.ones(n)), x_hat, full_observation(n, o))
        assert np.array_equal(out, o)

    def test_converges_on_noiseless_bandlimited_signal(self):
        _, basis, x_g = fixed_signal_fixture()
        model = ObservationModel(observed=np.ones(20, dtype=bool), noise_variance=0.0, seed=0)
        assert iterations_to_converge(glms_step, glms_init(basis, 4, mu=0.5), x_g, model) <= 500

    def test_masked_innovation_ignores_missing_nodes(self):
        _, basis, x_g = fixed_signal_fixture()
        model = sample_mask(20, 0.7, seed=5)
        out = glms_step(glms_init(basis, 4, mu=0.5), np.zeros(20), observe(x_g, model, t=0))
        assert np.all(np.isfinite(out))


class TestGnlmsStep:
    def test_all_ones_normalization_matches_glms(self):
        _, basis, x_g = fixed_signal_fixture()
        glms_filt = glms_init(basis, 4, mu=0.5)
        gnlms_filt = gnlms_init(basis, 4, mu=0.5, observed=np.ones(20, dtype=bool))
        assert np.array_equal(gnlms_filt.vectors, glms_filt.vectors)
        assert np.allclose(gnlms_filt.scale, glms_filt.scale, atol=1e-9)
        obs = full_observation(20, x_g)
        a = glms_step(glms_filt, np.zeros(20), obs)
        b = gnlms_step(gnlms_filt, np.zeros(20), obs)
        assert np.allclose(a, b, atol=1e-12)

    def test_zero_step_size_frozen(self):
        _, basis, x_g = fixed_signal_fixture()
        filt = gnlms_init(basis, 4, mu=0.0, observed=np.ones(20, dtype=bool))
        out = gnlms_step(filt, np.zeros(20), full_observation(20, x_g))
        assert np.array_equal(out, np.zeros(20))

    def test_converges_at_least_as_fast_as_glms(self):
        _, basis, x_g = fixed_signal_fixture()
        model = ObservationModel(observed=np.ones(20, dtype=bool), noise_variance=0.0, seed=0)
        glms_iters = iterations_to_converge(glms_step, glms_init(basis, 4, mu=0.5), x_g, model)
        gnlms_filt = gnlms_init(basis, 4, mu=0.5, observed=model.observed)
        gnlms_iters = iterations_to_converge(gnlms_step, gnlms_filt, x_g, model)
        assert glms_iters <= 500
        assert gnlms_iters <= glms_iters

    def test_partial_observation_converges(self):
        _, basis, x_g = fixed_signal_fixture()
        model = sample_mask(20, 0.7, seed=9)
        filt = gnlms_init(basis, 4, mu=0.5, observed=model.observed)
        assert iterations_to_converge(gnlms_step, filt, x_g, model) <= 500


class TestNaiveBaselines:
    def test_last_value_full_observation_copies(self):
        obs = full_observation(3, np.array([1.0, 2.0, 3.0]))
        out = last_value_step(np.zeros(3), obs)
        assert np.array_equal(out, [1.0, 2.0, 3.0])

    def test_last_value_keeps_previous_at_missing(self):
        obs = Observation(t=0, values=np.array([5.0, np.nan]), observed=np.array([True, False]))
        out = last_value_step(np.array([0.0, 7.0]), obs)
        assert np.array_equal(out, [5.0, 7.0])

    def test_neighbor_mean_path_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        obs = Observation(
            t=0, values=np.array([2.0, np.nan, 4.0]), observed=np.array([True, False, True])
        )
        out = neighbor_mean_step(np.zeros(3), obs, observed_layout(g, obs.observed))
        assert out[1] == 3.0

    def test_neighbor_mean_isolated_missing_node_falls_back(self):
        g = build_graph(3, [(0, 1)])
        obs = Observation(
            t=0, values=np.array([1.0, 2.0, np.nan]), observed=np.array([True, True, False])
        )
        out = neighbor_mean_step(np.array([0.0, 0.0, 9.0]), obs, observed_layout(g, obs.observed))
        assert out[2] == 9.0

    def test_steps_are_deterministic(self):
        g = build_graph(4, [(0, 1), (1, 2), (2, 3)])
        obs = Observation(
            t=0,
            values=np.array([1.0, np.nan, 3.0, np.nan]),
            observed=np.array([True, False, True, False]),
        )
        prev = np.array([0.5, 0.6, 0.7, 0.8])
        layout = observed_layout(g, obs.observed)
        a = neighbor_mean_step(prev, obs, layout)
        b = neighbor_mean_step(prev, obs, layout)
        assert np.array_equal(a, b)

    def test_neighbor_mean_matches_list_mean_reference(self):
        # The mean sums left to right, as sum() does; np.mean sums 8 or more values pairwise.
        def reference(estimate, obs, g):
            out = np.where(obs.observed, obs.values, estimate)
            for i in np.flatnonzero(~obs.observed):
                vals = [float(obs.values[j]) for j in neighbors(g, int(i)) if obs.observed[j]]
                if vals:
                    out[i] = sum(vals) / len(vals)
            return out

        rng = np.random.default_rng(41)
        n = 60
        edges = [(0, j, 1.0) for j in range(1, 13)]  # hub 0 gets 12 observed neighbors
        edges += [(i, j, float(rng.uniform(0.1, 2.0)))
                  for i in range(1, n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.15]
        g = build_graph(n, edges)  # node n - 1 is isolated
        observed = rng.random(n) < 0.6
        observed[0] = observed[n - 1] = False
        observed[1:13] = True
        for t in range(20):
            values = np.where(observed, rng.normal(0.0, 10.0 ** rng.integers(-2, 4), size=n), np.nan)
            obs = Observation(t=t, values=values, observed=observed)
            prev = rng.normal(size=n)
            out = neighbor_mean_step(prev, obs, observed_layout(g, obs.observed))
            assert [v.hex() for v in out.tolist()] == [v.hex() for v in reference(prev, obs, g).tolist()]

    def test_neighbor_mean_sums_left_to_right_for_1_to_20_neighbors(self):
        # Missing hub c (c = 1..20) has c observed leaves of its own, so every count from 1 to 20 is a row.
        rng = np.random.default_rng(7)
        hubs = list(range(1, 21))
        edges, leaf = [], len(hubs)
        for c in hubs:
            edges += [(c - 1, leaf + i) for i in range(c)]
            leaf += c
        g = build_graph(leaf, edges)
        observed = np.arange(leaf) >= len(hubs)
        differs = set()
        for t in range(30):
            values = np.where(observed, rng.uniform(-1e3, 1e3, leaf) * 10.0 ** rng.integers(-3, 4, leaf), np.nan)
            obs = Observation(t=t, values=values, observed=observed)
            layout = observed_layout(g, obs.observed)
            assert layout.counts.tolist() == hubs
            out = neighbor_mean_step(np.zeros(leaf), obs, layout)
            for c in hubs:
                vals = [float(values[j]) for j in neighbors(g, c - 1)]
                assert out[c - 1].hex() == (sum(vals) / len(vals)).hex(), c
                if out[c - 1] != np.mean(vals):
                    differs.add(c)
        assert differs and min(differs) >= 8  # the reference is not np.mean's


@pytest.mark.parametrize("step", [
    lambda g, basis, x, obs: glms_step(glms_init(basis, 4, mu=0.5), x, obs),
    lambda g, basis, x, obs: gnlms_step(gnlms_init(basis, 4, mu=0.5, observed=obs.observed), x, obs),
    lambda g, basis, x, obs: last_value_step(x, obs),
    lambda g, basis, x, obs: neighbor_mean_step(x, obs, observed_layout(g, obs.observed)),
], ids=["glms", "gnlms", "last_value", "neighbor_mean"])
def test_step_returns_a_new_estimate_and_leaves_its_input(step):
    # The online loop starts every method from one shared array.
    g, basis, x_g = fixed_signal_fixture()
    start = np.arange(20.0)
    out = step(g, basis, start, observe(x_g, sample_mask(20, 0.7, seed=5), t=0))
    assert out is not start and not np.shares_memory(out, start)
    assert np.array_equal(start, np.arange(20.0))
