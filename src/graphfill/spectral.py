"""Trainable graph-spectral filter: convolution, MAE loss, training, export.

The filter is one free gain per graph frequency. Applying it is the graph
convolution ``H x`` with ``H = U diag(h) U^T``. Training fits the gains in
closed form: per-frequency least squares over the training split, with the
run's observation noise integrated out exactly and missing nodes filled as
the online loop fills them. The gains are frozen after training.

A run builds the filter's :class:`BandOperator` once per repeat with
:func:`filter_operator`, which checks the filter's basis and keeps the
gains above rounding; each online step then costs two products with the
kept n x r vectors (:func:`graph_convolve`). The LMS baselines share it.
"""
import json
from dataclasses import dataclass

import numpy as np

from .files import atomic_write
from .graphs import GftBasis, _frozen, _reject_infinite
from .signals import ObservationModel, Observation, TimeVaryingSignal, observe  # noqa: F401 (observe stays importable)


class FilterDivergenceError(RuntimeError):
    """Training produced a non-finite gain."""


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
    """The config's ``train`` section. No key steers :func:`train_filter`'s closed-form fit.

    The section still loads, and its values are still checked, so that configs which set it keep working
    and a typo in it still fails naming the key.
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


@dataclass(frozen=True, eq=False)
class BandOperator:
    """The read-only operator ``V diag(scale) V^T`` kept as its factors: n x r vectors V and r signed scales."""
    vectors: np.ndarray
    scale: np.ndarray

    def __post_init__(self):
        v, scale = _frozen(self.vectors), _frozen(self.scale)
        if v.ndim != 2 or scale.shape != v.shape[1:]:
            raise ValueError(f"expected one scale per vector, got {scale.shape} for vectors {v.shape}")
        if not np.all(np.isfinite(scale)):
            raise ValueError("scale must be finite")
        object.__setattr__(self, "vectors", v)
        object.__setattr__(self, "scale", scale)

    @property
    def n_nodes(self) -> int:
        return self.vectors.shape[0]


def gain_truncation(gains: np.ndarray) -> tuple[np.ndarray, float, float]:
    """Kept gains (``|h_k| > n * eps * max |h|``, ``matrix_rank``'s tolerance), max dropped |h_k| (or 0), max |h|."""
    magnitude = np.abs(gains)
    top = float(magnitude.max(initial=0.0))
    keep = magnitude > gains.size * np.finfo(np.float64).eps * top
    return keep, float(magnitude[~keep].max(initial=0.0)), top


def filter_operator(filt: SpectralFilter, basis: GftBasis) -> BandOperator:
    """``filt`` on ``basis``, the basis it was trained against, as ``U_r diag(h_r) U_r^T`` over the kept gains.

    The frequencies whose gain is rounding-level against the largest (see :func:`gain_truncation`) drop
    out. U is orthonormal, so the dropped part has spectral norm ``||H - H_r||_2 = max over dropped k of
    |h_k| <= n * eps * max |h|``: no larger than the rounding a dense n x n product with H already carries.
    All-zero gains keep no frequency, and the operator maps every signal to zeros.

    Raises:
        ValueError: if the filter was trained against another basis, or its gains do not match the basis's size.
    """
    if filt.basis_ref != basis.ref():
        raise ValueError("filter was trained against a different basis")
    n = basis.n_nodes
    if filt.gains.shape != (n,):
        raise ValueError(f"expected {n} gains, got {filt.gains.shape[0]}")
    keep = gain_truncation(filt.gains)[0]
    return BandOperator(basis.eigenvectors[:, keep], filt.gains[keep])


def graph_convolve(op: BandOperator, x: np.ndarray) -> np.ndarray:
    """Apply ``op`` to a node signal: ``V (scale * (V^T x))``, two products with the n x r vectors."""
    return op.vectors @ (op.scale * (op.vectors.T @ x))


def mae(x_g: np.ndarray, x_tilde: np.ndarray) -> float:
    """Mean absolute error (1/N) sum |x_g - x_tilde|."""
    x_g = np.asarray(x_g, dtype=np.float64)
    x_tilde = np.asarray(x_tilde, dtype=np.float64)
    if x_g.shape != x_tilde.shape:
        raise ValueError(f"length mismatch: {x_g.shape} vs {x_tilde.shape}")
    return float(np.mean(np.abs(x_g - x_tilde)))


def train_filter(basis: GftBasis, train_signal: TimeVaryingSignal, obs_model: ObservationModel) -> TrainResult:
    """Fit each gain in closed form: least squares over the training split, the noise integrated out.

    With X the n x T training split, the input fills each missing node with its previous training value
    (column 0: the node's training mean), as the online loop fills with its previous estimate. With
    ``A = U^T where(observed, X, fill)``, ``Y = U^T X`` and ``c_k = sum over observed i of u_ik^2``, the
    gain ``h_k = sum_t A_kt Y_kt / (sum_t A_kt^2 + sigma^2 T c_k)`` minimises the expected squared error
    ``sum_t E||U diag(h) U^T (x_in_t + D e_t) - x_t||^2`` over noise e of variance sigma^2 at the observed
    nodes D, because ``E[(U^T D e)_k^2] = sigma^2 c_k``. A frequency whose denominator is 0 keeps gain 1.
    No noise is drawn. ``mae_trace`` holds one entry: the fitted filter's MAE on the noise-free inputs.

    Raises:
        FilterDivergenceError: if a gain is not finite (the inputs overflowed).
    """
    n = basis.n_nodes
    if train_signal.n_nodes != n:
        raise ValueError("training signal does not match basis dimension")
    if obs_model.n_nodes != n:
        raise ValueError("observation model does not match basis dimension")

    x = train_signal.values
    fill = np.hstack([x.mean(axis=1, keepdims=True), x[:, :-1]])
    u = basis.eigenvectors
    with np.errstate(over="ignore", invalid="ignore"):
        a = u.T @ np.where(obs_model.observed[:, None], x, fill)
        y = u.T @ x
        missing = u[~obs_model.observed]  # U's rows are orthonormal: c is 1 minus the missing rows' squares
        c = 1.0 - (missing * missing).sum(axis=0)
        den = (a * a).sum(axis=1) + obs_model.noise_variance * x.shape[1] * c
        h = np.divide((a * y).sum(axis=1), den, out=np.ones(n), where=den != 0.0)
        bad = np.count_nonzero(~np.isfinite(h))
        if bad:
            raise FilterDivergenceError(f"filter gains are not finite at {bad} of {n} frequencies")
        fitted_mae = np.mean(np.abs(u @ (h[:, None] * a) - x))
    filt = SpectralFilter(gains=h, basis_ref=basis.ref())
    return TrainResult(filter=filt, mae_trace=np.array([fitted_mae]), stop_reason="closed-form")


def denoise(op: BandOperator, obs: Observation, fill: np.ndarray) -> np.ndarray:
    """Fill missing entries of an observation, then apply the trained filter's operator ``op``.

    ``fill`` supplies the values used at unobserved nodes (the online loop
    passes the previous estimate). Output is defined at every node.
    """
    return graph_convolve(op, np.where(obs.observed, obs.values, fill))


def save_filter_json(path, result: TrainResult) -> None:
    """Export gains plus training metadata as JSON, with the operator's rank and truncation."""
    keep, truncation_error, max_abs_gain = gain_truncation(result.filter.gains)
    payload = {
        "basis_ref": result.filter.basis_ref,
        "gains": [float(g) for g in result.filter.gains],
        "final_mae": float(result.mae_trace[-1]),
        "stop_reason": result.stop_reason,
        "rank": int(np.count_nonzero(keep)),
        "truncation_error": truncation_error,
        "max_abs_gain": max_abs_gain,
    }
    with atomic_write(path) as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
