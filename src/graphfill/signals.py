"""Time-varying node signals, dataset ingestion, and the observation model.

The observation model applies i.i.d. zero-mean Gaussian noise and a fixed
node mask: an unobserved node stays unobserved for the whole run. Missing
entries are flagged out-of-band via ``Observation.observed``; the numeric
slots under the flag hold NaN purely as a tripwire against accidental use.
"""
import csv
from dataclasses import dataclass

import numpy as np

from .graphs import _frozen


@dataclass(frozen=True, eq=False)
class TimeVaryingSignal:
    """N x T matrix of node signals (node-major) with time metadata."""
    values: np.ndarray
    t0: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("signal must be a 2-D matrix with N, T >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite entries")
        object.__setattr__(self, "values", _frozen(v))

    @property
    def n_nodes(self) -> int:
        return self.values.shape[0]

    @property
    def n_steps(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True, eq=False)
class ObservationModel:
    """Fixed observed-node mask plus Gaussian noise parameters."""
    observed: np.ndarray
    noise_variance: float
    seed: int

    def __post_init__(self):
        obs = np.asarray(self.observed, dtype=bool)
        if obs.ndim != 1 or obs.shape[0] < 1:
            raise ValueError("observed must be a 1-D boolean vector")
        if not obs.any():
            raise ValueError("at least one node must be observed")
        if self.noise_variance < 0.0:
            raise ValueError("noise_variance must be >= 0")
        object.__setattr__(self, "observed", _frozen(obs, dtype=bool))

    @property
    def n_nodes(self) -> int:
        return self.observed.shape[0]

    @property
    def missing_indices(self) -> np.ndarray:
        return np.flatnonzero(~self.observed)


@dataclass(frozen=True, eq=False)
class Observation:
    """One time step of masked, noisy node values.

    ``observed`` is the authoritative missing-value flag; ``values`` holds
    NaN at unobserved positions.
    """
    t: int
    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        obs = np.asarray(self.observed, dtype=bool)
        if v.shape != obs.shape or v.ndim != 1:
            raise ValueError("values and observed must be 1-D vectors of equal length")
        object.__setattr__(self, "values", _frozen(v))
        object.__setattr__(self, "observed", _frozen(obs, dtype=bool))


def load_signal_csv(path, layout: str) -> TimeVaryingSignal:
    """Ingest a dense numeric CSV as a time-varying signal.

    Args:
        path: CSV file of numbers, no header.
        layout: ``"nodes-as-rows"`` (row per node) or ``"nodes-as-columns"``.

    Raises:
        ValueError: on an empty file, ragged rows, or any unparsable cell
            (the error names the offending row and column).
    """
    if layout not in ("nodes-as-rows", "nodes-as-columns"):
        raise ValueError(f"unknown layout {layout!r}")
    rows = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        for r, row in enumerate(reader):
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
                raise ValueError(
                    f"{path}: row {r + 1} has {len(parsed)} columns, expected {len(rows[0])}"
                )
            rows.append(parsed)
    if not rows:
        raise ValueError(f"{path}: empty signal file")
    values = np.array(rows, dtype=np.float64)
    if layout == "nodes-as-columns":
        values = values.T
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: non-finite value at node {bad[0]}, step {bad[1]}")
    return TimeVaryingSignal(values=values)


def split(signal: TimeVaryingSignal, t_split: int) -> tuple:
    """Split columns into train = [0, t_split) and test = [t_split, T)."""
    if not (1 <= t_split < signal.n_steps):
        raise ValueError(f"t_split must be in [1, {signal.n_steps - 1}], got {t_split}")
    train = TimeVaryingSignal(signal.values[:, :t_split], t0=signal.t0)
    test = TimeVaryingSignal(signal.values[:, t_split:], t0=signal.t0 + t_split)
    return train, test


def augment_by_concatenation(signal: TimeVaryingSignal, copies: int) -> TimeVaryingSignal:
    """Concatenate ``copies`` copies of the signal along time."""
    if copies < 1:
        raise ValueError("copies must be >= 1")
    return TimeVaryingSignal(np.tile(signal.values, (1, copies)), t0=signal.t0)


def sample_mask(n: int, ratio: float, seed: int, noise_variance: float = 0.0) -> ObservationModel:
    """Draw a fixed observation mask with round(ratio * n) observed nodes.

    Deterministic given (n, ratio, seed). The mask holds for the whole
    run; it is never resampled.
    """
    if not (0.0 < ratio <= 1.0):
        raise ValueError("ratio must be in (0, 1]")
    n_obs = int(round(ratio * n))
    if n_obs < 1:
        raise ValueError(f"ratio {ratio} yields zero observed nodes for n={n}")
    rng = np.random.default_rng(seed)
    chosen = rng.choice(n, size=n_obs, replace=False)
    observed = np.zeros(n, dtype=bool)
    observed[chosen] = True
    return ObservationModel(observed=observed, noise_variance=noise_variance, seed=seed)


def observe(x_g: np.ndarray, model: ObservationModel, t: int) -> Observation:
    """Apply noise then the mask to a ground-truth snapshot.

    Noise is drawn from a stream seeded by ``(model.seed, t)``, so any
    time step can be replayed independently of loop order.
    """
    x_g = np.asarray(x_g, dtype=np.float64)
    if x_g.shape != (model.n_nodes,):
        raise ValueError(f"signal length {x_g.shape} does not match model n={model.n_nodes}")
    rng = np.random.default_rng((model.seed, int(t)))
    noisy = x_g + rng.normal(0.0, np.sqrt(model.noise_variance), size=model.n_nodes)
    values = np.where(model.observed, noisy, np.nan)
    return Observation(t=int(t), values=values, observed=model.observed)
