"""Online adaptive-filter baselines plus naive reference predictors.

The adaptive filters correct a running estimate with the masked
innovation projected onto a low-frequency band:

    x_hat <- x_hat + mu * B * M * (o - x_hat)

where B = U_B U_B^T projects onto the ``band_size`` lowest graph
frequencies. The normalized variant additionally scales each in-band
frequency by the inverse energy the mask leaves in that frequency
(eps-regularized), which equalizes per-frequency convergence; with every
node observed it reduces exactly to the unnormalized update.

Every baseline's estimate is a plain array: a step takes one and returns
the next. An adaptive filter's fixed part is a ``spectral.BandOperator``,
built and checked once by its init: the band vectors U_B and one step
size per in-band frequency, so that a step applies
``U_B diag(scale) U_B^T`` through U_B in O(n B) and never forms it.
"""
import numpy as np

from .graphs import ObservedLayout, neighbors, slot_sums  # noqa: F401 (``baselines.neighbors`` stays importable)
from .signals import Observation
from .spectral import BandOperator, graph_convolve  # by name: a wrapper on spectral.graph_convolve sees no LMS step

NORMALIZATION_EPS = 1e-8


def _band_vectors(basis, band_size: int, mu: float) -> np.ndarray:
    """The ``band_size`` lowest-frequency eigenvectors, checked to span an orthogonal projector; ``mu`` must be >= 0."""
    n = basis.n_nodes
    if not (1 <= band_size <= n):
        raise ValueError(f"band_size must be in [1, {n}]")
    if not mu >= 0.0:  # NaN fails too; GNLMS scales mu by positive factors, so every step size is >= 0
        raise ValueError("step sizes (mu) must be >= 0")
    u_band = basis.eigenvectors[:, :band_size]
    # U U^T is symmetric by construction, and idempotent exactly when U's columns are orthonormal.
    if np.max(np.abs(u_band.T @ u_band - np.eye(band_size)), initial=0.0) > 1e-8:
        raise ValueError("band projector must be idempotent (band eigenvectors must be orthonormal)")
    return u_band


def bandlimit_for_energy(basis, signal_values: np.ndarray, fraction: float = 0.9) -> int:
    """Smallest band size capturing ``fraction`` of the signal's spectral energy."""
    if not (0.0 < fraction <= 1.0):
        raise ValueError("fraction must be in (0, 1]")
    coeffs = basis.eigenvectors.T @ np.asarray(signal_values, dtype=np.float64)
    energy = np.sum(coeffs**2, axis=1)
    total = float(energy.sum())
    if total <= 0.0:
        return 1
    cum = np.cumsum(energy) / total
    return int(np.searchsorted(cum, fraction - 1e-12) + 1)


def glms_init(basis, band_size: int, mu: float) -> BandOperator:
    """The band projector ``U_B U_B^T`` with step size ``mu`` at every in-band frequency."""
    return BandOperator(_band_vectors(basis, band_size, mu), np.full(band_size, float(mu)))


def gnlms_init(basis, band_size: int, mu: float, observed: np.ndarray) -> BandOperator:
    """Normalized variant: the band projector with each frequency's step size ``mu`` scaled by its inverse mask energy.

    For in-band frequency k the scale is ``1 / max(q_k, eps)`` with
    ``q_k = sum over observed i of U[i, k]^2``, the energy the mask keeps
    in that frequency (1 when every node is observed).
    """
    observed = np.asarray(observed, dtype=bool)
    u_band = _band_vectors(basis, band_size, mu)
    q = np.sum(u_band[observed, :] ** 2, axis=0)
    norm = 1.0 / np.maximum(q, NORMALIZATION_EPS)
    return BandOperator(u_band, mu * norm)


def _lms_step(filt: BandOperator, estimate: np.ndarray, obs: Observation) -> np.ndarray:
    """``estimate + U_B (scale * (U_B^T masked innovation))``, as a new array."""
    return estimate + graph_convolve(filt, np.where(obs.observed, obs.values - estimate, 0.0))


# GLMS and GNLMS differ only in the step sizes their init builds. The step
# keeps two names so that each filter's calls can be told apart by name
# (a wrapper installed on ``baselines.glms_step`` sees only GLMS steps).
def glms_step(filt: BandOperator, estimate: np.ndarray, obs: Observation) -> np.ndarray:
    """One least-mean-squares correction along the band projector."""
    return _lms_step(filt, estimate, obs)


def gnlms_step(filt: BandOperator, estimate: np.ndarray, obs: Observation) -> np.ndarray:
    """Same correction with the innovation rescaled per frequency."""
    return _lms_step(filt, estimate, obs)


def last_value_step(estimate: np.ndarray, obs: Observation) -> np.ndarray:
    """Observed nodes adopt the observation; missing nodes keep the estimate."""
    return np.where(obs.observed, obs.values, np.asarray(estimate, dtype=np.float64))


def neighbor_mean_step(estimate: np.ndarray, obs: Observation, layout: ObservedLayout) -> np.ndarray:
    """Missing nodes take the mean of observed-neighbor values, ``sum(values) / len(values)`` summed left to right.

    ``layout`` is ``observed_layout(g, obs.observed)``. Falls back to the previous estimate for nodes with no
    observed neighbor; observed nodes adopt the observation.
    """
    out = np.where(obs.observed, obs.values, np.asarray(estimate, dtype=np.float64))
    out[layout.nodes] = slot_sums(layout, obs.values.take(layout.neighbors)) / layout.counts
    return out
