"""Time-varying node signals, dataset ingestion, and the observation model.

The observation model applies i.i.d. zero-mean Gaussian noise and a fixed
node mask: an unobserved node stays unobserved for the whole run. Missing
entries are flagged out-of-band via ``Observation.observed``; the numeric
slots under the flag hold NaN purely as a tripwire against accidental use.
"""
import csv
import re
import warnings
from dataclasses import dataclass

import numpy as np

from .graphs import _adopted, _frozen

# A byte that is not blank in a CSV line: not a comma, a quote or ASCII whitespace (as str.strip() takes it).
_CONTENT = re.compile(rb'[^,"\t\n\x0b\x0c\r\x1c-\x1f ]')


@dataclass(frozen=True, eq=False)
class TimeVaryingSignal:
    """N x T matrix of node signals (node-major) with time metadata.

    A read-only array that owns its memory (as :func:`load_signal_csv` hands over its parse) is adopted, any
    other input copied read-only.
    """
    values: np.ndarray
    t0: int = 0

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] < 1 or v.shape[1] < 1:
            raise ValueError("signal must be a 2-D matrix with N, T >= 1")
        if not np.all(np.isfinite(v)):
            raise ValueError("signal contains non-finite entries")
        object.__setattr__(self, "values", _adopted(v))

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
        if not self.noise_variance >= 0.0:
            raise ValueError("noise_variance must be >= 0")
        object.__setattr__(self, "observed", _frozen(obs, dtype=bool))

    @property
    def n_nodes(self) -> int:
        return self.observed.shape[0]


@dataclass(frozen=True, eq=False)
class Observation:
    """One time step of masked, noisy node values.

    ``observed`` is the authoritative missing-value flag; ``values`` holds NaN at unobserved positions. A
    read-only array that owns its memory is adopted, any other input copied read-only.
    """
    t: int
    values: np.ndarray
    observed: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=np.float64)
        obs = np.asarray(self.observed, dtype=bool)
        if v.shape != obs.shape or v.ndim != 1:
            raise ValueError("values and observed must be 1-D vectors of equal length")
        object.__setattr__(self, "values", _adopted(v))
        object.__setattr__(self, "observed", _adopted(obs, dtype=bool))


def _check_layout(layout: str) -> None:
    if layout not in ("nodes-as-rows", "nodes-as-columns"):
        raise ValueError(f"unknown layout {layout!r}")


def signal_shape(path, layout: str) -> tuple:
    """``(nodes, steps)`` of a signal CSV, read from its lines without parsing a number.

    A row is a line that holds something besides commas, quotes and whitespace (the csv reader's rows of blank
    cells are not rows), and the steps are the first row's cell count; ``nodes-as-columns`` swaps the two. For
    a file that :func:`load_signal_csv` accepts this is the loaded shape, unless a quoted cell spans lines.
    The file is scanned as bytes: a line is decoded only when its first byte that is not ASCII blank is not
    ASCII, so that Unicode whitespace counts as blank, as ``str.strip()`` takes it.

    Raises:
        ValueError: on an unknown layout or a file with no row.
        OSError: if the file cannot be read.
    """
    _check_layout(layout)
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:  # line ends as the csv reader and loadtxt take them: \r\n, \r or \n
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    rows = cells = start = 0
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end
        first = _CONTENT.search(data, start, end)
        if first is not None and (first.group().isascii() or not _blank(data[start:end])):
            rows += 1
            cells = cells or data.count(b",", start, end) + 1
        start = end + 1
    if not rows:
        raise ValueError(f"{path}: empty signal file")
    return (rows, cells) if layout == "nodes-as-rows" else (cells, rows)


def _blank(line: bytes) -> bool:
    """Is a line with a non-ASCII byte only commas, quotes and (Unicode) whitespace?"""
    return line.decode("utf-8", "replace").replace(",", "").replace('"', "").isspace()


def load_signal_csv(path, layout: str) -> TimeVaryingSignal:
    """Ingest a dense numeric CSV as a time-varying signal.

    A plain numeric file is read in one C pass (``np.loadtxt``); any other goes
    through the ``csv`` reader, which also takes quoted cells, rows of blank
    cells and ``1_0`` (as ``float()`` does). Both parse with one correctly
    rounded string-to-double, so they give the same array. The signal adopts
    the parsed array, uncopied for ``nodes-as-rows``.

    Args:
        path: CSV file of numbers, no header.
        layout: ``"nodes-as-rows"`` (row per node) or ``"nodes-as-columns"``.

    Raises:
        ValueError: on an empty file, ragged rows, or any unparsable cell
            (the error names the offending row and column).
    """
    _check_layout(layout)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # loadtxt warns on a file with no data
            values = np.loadtxt(path, dtype=np.float64, delimiter=",", comments=None, ndmin=2, encoding="utf-8")
    except (ValueError, OSError):  # the csv reader below accepts the file or raises its own error
        values = np.empty((0, 0))
    if values.size == 0:
        values = _read_csv_cells(path)
    values.setflags(write=False)  # the signal adopts it
    if layout == "nodes-as-columns":
        values = values.T
    if not np.all(np.isfinite(values)):
        bad = np.argwhere(~np.isfinite(values))[0]
        raise ValueError(f"{path}: non-finite value at node {bad[0]}, step {bad[1]}")
    return TimeVaryingSignal(values=values)


def _read_csv_cells(path) -> np.ndarray:
    """Parse every cell of a CSV with ``float()``, skipping rows of blank cells."""
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
    return np.array(rows, dtype=np.float64)


def check_t_split(t_split: int, n_steps: int) -> None:
    """Raise a ValueError unless ``t_split`` leaves a train and a test step among ``n_steps``."""
    if not (1 <= t_split < n_steps):
        raise ValueError(f"t_split must be in [1, {n_steps - 1}], got {t_split}")


def split(signal: TimeVaryingSignal, t_split: int) -> tuple:
    """Split columns into train = [0, t_split) and test = [t_split, T)."""
    check_t_split(t_split, signal.n_steps)
    train = TimeVaryingSignal(signal.values[:, :t_split], t0=signal.t0)
    test = TimeVaryingSignal(signal.values[:, t_split:], t0=signal.t0 + t_split)
    return train, test


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
    values.setflags(write=False)  # the observation adopts it, and the model's frozen mask, uncopied
    return Observation(t=int(t), values=values, observed=model.observed)
