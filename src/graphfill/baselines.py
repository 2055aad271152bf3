"""Online adaptive-filter baselines plus naive reference predictors.

The adaptive filters correct a running estimate with the masked
innovation projected onto a low-frequency band:

    x_hat <- x_hat + mu * B * M * (o - x_hat)

where B projects onto the ``band_size`` lowest graph frequencies. The
normalized variant additionally scales each in-band frequency by the
inverse energy the mask leaves in that frequency (eps-regularized), which
equalizes per-frequency convergence; with every node observed it reduces
exactly to the unnormalized update.
"""
import copy
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, _frozen, neighbors  # noqa: F401 (``baselines.neighbors`` stays importable)
from .signals import Observation

NORMALIZATION_EPS = 1e-8


def _check_projector(b: np.ndarray) -> None:
    if np.max(np.abs(b - b.T), initial=0.0) > 1e-8:
        raise ValueError("band projector must be symmetric")
    if np.max(np.abs(b @ b - b), initial=0.0) > 1e-8:
        raise ValueError("band projector must be idempotent")


@dataclass(frozen=True, eq=False)
class AdaptiveFilterState:
    """Running estimate plus the precomputed operators of one filter.

    The operators are checked once, at construction, and stored read-only;
    the step functions derive each next state from them without checking
    again.
    """
    estimate: np.ndarray
    step_size: float
    band_projector: np.ndarray
    normalization_cache: np.ndarray | None = None
    norm_operator: np.ndarray | None = None

    def __post_init__(self):
        if self.step_size < 0.0:
            raise ValueError("step_size must be >= 0")
        for name in ("band_projector", "normalization_cache", "norm_operator"):
            op = getattr(self, name)
            if op is not None:
                object.__setattr__(self, name, _frozen(op))
        _check_projector(self.band_projector)
        object.__setattr__(self, "estimate", np.asarray(self.estimate, dtype=np.float64).copy())

    def _with_estimate(self, estimate: np.ndarray) -> "AdaptiveFilterState":
        """The next state: a new estimate sharing these validated operators."""
        nxt = copy.copy(self)
        object.__setattr__(nxt, "estimate", estimate)
        return nxt


def make_band_projector(basis, band_size: int) -> np.ndarray:
    """Projector onto the ``band_size`` lowest graph frequencies."""
    n = basis.n_nodes
    if not (1 <= band_size <= n):
        raise ValueError(f"band_size must be in [1, {n}]")
    u_band = basis.eigenvectors[:, :band_size]
    return u_band @ u_band.T


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


def glms_init(basis, band_size: int, mu: float, estimate: np.ndarray) -> AdaptiveFilterState:
    return AdaptiveFilterState(
        estimate=estimate, step_size=mu, band_projector=make_band_projector(basis, band_size)
    )


def gnlms_init(
    basis, band_size: int, mu: float, estimate: np.ndarray, observed: np.ndarray
) -> AdaptiveFilterState:
    """Normalized variant: cache per-frequency inverse mask energy.

    For in-band frequency k the cache holds ``1 / max(q_k, eps)`` with
    ``q_k = sum over observed i of U[i, k]^2``, the energy the mask keeps
    in that frequency (1 when every node is observed).
    """
    observed = np.asarray(observed, dtype=bool)
    u_band = basis.eigenvectors[:, :band_size]
    q = np.sum(u_band[observed, :] ** 2, axis=0)
    norm = 1.0 / np.maximum(q, NORMALIZATION_EPS)
    return AdaptiveFilterState(
        estimate=estimate,
        step_size=mu,
        band_projector=make_band_projector(basis, band_size),
        normalization_cache=norm,
        norm_operator=u_band @ (norm[:, None] * u_band.T),
    )


def _lms_step(state: AdaptiveFilterState, obs: Observation, operator) -> AdaptiveFilterState:
    """``x_hat + mu * operator @ (masked innovation)``, as the next state."""
    if obs.values.shape != state.estimate.shape:
        raise ValueError("observation length does not match filter state")
    innovation = np.where(obs.observed, obs.values - state.estimate, 0.0)
    return state._with_estimate(state.estimate + state.step_size * (operator @ innovation))


def glms_step(state: AdaptiveFilterState, obs: Observation) -> AdaptiveFilterState:
    """One least-mean-squares correction along the band projector."""
    return _lms_step(state, obs, state.band_projector)


def gnlms_step(state: AdaptiveFilterState, obs: Observation) -> AdaptiveFilterState:
    """Same correction with the innovation rescaled per frequency."""
    if state.norm_operator is None:
        raise ValueError("state has no normalization cache; use gnlms_init")
    return _lms_step(state, obs, state.norm_operator)


def last_value_step(estimate: np.ndarray, obs: Observation) -> np.ndarray:
    """Observed nodes adopt the observation; missing nodes keep the estimate."""
    return np.where(obs.observed, obs.values, np.asarray(estimate, dtype=np.float64))


def neighbor_mean_step(estimate: np.ndarray, obs: Observation, g: Graph) -> np.ndarray:
    """Missing nodes take the mean of observed-neighbor values.

    Falls back to the previous estimate for nodes with no observed
    neighbor; observed nodes adopt the observation.
    """
    out = np.where(obs.observed, obs.values, np.asarray(estimate, dtype=np.float64))
    # One 2-D mean per neighbor count: numpy sums each row exactly as it
    # sums a 1-D array of the same values, so every mean is bit-identical
    # to np.mean over that node's neighbor list.
    for nodes, index in g.observed_layout(obs.observed).groups:
        out[nodes] = obs.values[index].mean(axis=1)
    return out
