"""Trainable graph-spectral filter: convolution, MAE loss, training, export.

The filter is one free gain per graph frequency. Applying it is the graph
convolution ``U diag(h) U^T x``. Training runs subgradient descent on the
per-step mean absolute error against ground truth, with inputs corrupted
by the run's observation model so the filter learns the test-time noise
and masking. Gains start at all-ones (the identity filter) and are frozen
after training.
"""
import dataclasses
import json
from collections import deque
from dataclasses import dataclass

import numpy as np

from .files import atomic_write
from .graphs import GftBasis, _frozen, _reject_infinite
from .signals import ObservationModel, Observation, TimeVaryingSignal, observe


class FilterDivergenceError(RuntimeError):
    """Training produced a non-finite gain; carries the MAE trace so far."""

    def __init__(self, step: int, trace):
        super().__init__(f"filter gains diverged at training step {step}")
        self.step = step
        self.trace = np.asarray(trace, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class SpectralFilter:
    """Per-frequency gain vector pinned to the basis it was trained against."""
    gains: np.ndarray
    basis_ref: str

    def __post_init__(self):
        g = np.asarray(self.gains, dtype=np.float64)
        if g.ndim != 1:
            raise ValueError("gains must be a 1-D vector")
        if not np.all(np.isfinite(g)):
            raise ValueError("gains must be finite")
        object.__setattr__(self, "gains", _frozen(g))


@dataclass(frozen=True)
class TrainConfig:
    """Gradient-descent hyperparameters for filter training.

    ``learning_rate=0`` is allowed and leaves the gains at initialization
    (useful to run the identity filter through the same pipeline).
    ``window`` is the running-mean width used by early stopping.
    """
    learning_rate: float = 1e-3
    max_iters: int = 2000
    patience: int = 10
    tol: float = 1e-4
    augment_copies: int = 1
    window: int = 50

    def __post_init__(self):
        _reject_infinite(self)
        if not self.learning_rate >= 0.0:
            raise ValueError("learning_rate must be >= 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if not self.tol >= 0.0:
            raise ValueError("tol must be >= 0")
        if self.augment_copies < 1:
            raise ValueError("augment_copies must be >= 1")
        if self.window < 1:
            raise ValueError("window must be >= 1")


@dataclass(frozen=True, eq=False)
class TrainResult:
    filter: SpectralFilter
    mae_trace: np.ndarray
    stop_reason: str


def graph_convolve(basis: GftBasis, h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Filter a node signal in the spectral domain: ``U diag(h) U^T x``."""
    h = np.asarray(h, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    n = basis.n_nodes
    if h.shape != (n,) or x.shape != (n,):
        raise ValueError(f"expected length-{n} gains and signal, got {h.shape} and {x.shape}")
    u = basis.eigenvectors
    return u @ (h * (u.T @ x))


def mae(x_g: np.ndarray, x_tilde: np.ndarray) -> float:
    """Mean absolute error (1/N) sum |x_g - x_tilde|."""
    x_g = np.asarray(x_g, dtype=np.float64)
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    if x_g.shape != x_tilde.shape:
        raise ValueError(f"length mismatch: {x_g.shape} vs {x_tilde.shape}")
    return float(np.mean(np.abs(x_g - x_tilde)))


def train_filter(
    basis: GftBasis,
    train_signal: TimeVaryingSignal,
    obs_model: ObservationModel,
    cfg: TrainConfig,
) -> TrainResult:
    """Learn filter gains by gradient descent over corrupted training steps.

    Each step t synthesizes a noisy masked input from ground-truth column
    t % t_split of the training signal (``augment_copies`` passes over its
    t_split columns), fills missing nodes with their
    training-set mean, convolves, records the MAE against ground truth,
    and takes one gradient step. Halts on sample exhaustion, ``max_iters``,
    or when the running-window MAE stops improving by more than ``tol``
    for ``patience`` consecutive steps.

    Raises:
        FilterDivergenceError: if any gain becomes non-finite.
    """
    n = basis.n_nodes
    if train_signal.n_nodes != n:
        raise ValueError("training signal does not match basis dimension")
    if obs_model.n_nodes != n:
        raise ValueError("observation model does not match basis dimension")

    # Step t reads training column t % t_split as a row of one time-major copy.
    rows = np.ascontiguousarray(train_signal.values.T)
    fill = train_signal.values.mean(axis=1)
    h = np.ones(n, dtype=np.float64)
    trace = []
    window = deque(maxlen=cfg.window)
    best = np.inf
    streak = 0

    n_steps = min(cfg.max_iters, cfg.augment_copies * rows.shape[0])
    stop_reason = "max-iters" if n_steps == cfg.max_iters else "samples-exhausted"
    u = basis.eigenvectors
    for t in range(n_steps):
        col = rows[t % rows.shape[0]]
        obs = observe(col, obs_model, t)
        x_in = np.where(obs.observed, obs.values, fill)
        # graph_convolve and the MAE subgradient (1/N) (U^T sign(x_tilde - x_g))_k (U^T x_in)_k share U^T x_in
        z = u.T @ x_in
        x_tilde = u @ (h * z)
        loss = mae(col, x_tilde)
        trace.append(loss)

        grad = (u.T @ np.sign(x_tilde - col)) * z / n
        h = h - cfg.learning_rate * grad
        if not np.all(np.isfinite(h)):
            raise FilterDivergenceError(t, trace)

        window.append(loss)
        if len(window) < cfg.window:
            continue  # no running-window MAE until a full window exists
        running = float(np.mean(window))
        if running < best - cfg.tol:
            best = running
            streak = 0
        else:
            streak += 1
            if streak >= cfg.patience:
                stop_reason = "early-stop"
                break

    filt = SpectralFilter(gains=h, basis_ref=basis.ref())
    return TrainResult(filter=filt, mae_trace=np.asarray(trace), stop_reason=stop_reason)


def denoise(filt: SpectralFilter, basis: GftBasis, obs: Observation, fill: np.ndarray) -> np.ndarray:
    """Fill missing entries of an observation, then apply the trained filter.

    ``fill`` supplies the values used at unobserved nodes (the online loop
    passes the previous estimate). Output is defined at every node.
    """
    if filt.basis_ref != basis.ref():
        raise ValueError("filter was trained against a different basis")
    fill = np.asarray(fill, dtype=np.float64)
    if fill.shape != obs.values.shape:
        raise ValueError("fill vector length does not match observation")
    x_in = np.where(obs.observed, obs.values, fill)
    return graph_convolve(basis, filt.gains, x_in)


def save_filter_json(path, result: TrainResult, cfg: TrainConfig) -> None:
    """Export gains plus training metadata as JSON."""
    final_mae = float(result.mae_trace[-1]) if result.mae_trace.size else None
    payload = {
        "basis_ref": result.filter.basis_ref,
        "gains": [float(g) for g in result.filter.gains],
        "train_config": dataclasses.asdict(cfg),
        "final_mae": final_mae,
        "stop_reason": result.stop_reason,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
