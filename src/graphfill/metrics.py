"""Error metrics, aggregation over repeats, and report emission."""
import csv
import dataclasses
import json
import math
from dataclasses import dataclass

import numpy as np

from .files import atomic_write


def rmse(x_g: np.ndarray, x_hat: np.ndarray) -> float:
    """Root mean squared error sqrt((1/N) sum (x_g - x_hat)^2)."""
    x_g = np.asarray(x_g, dtype=np.float64)
    x_hat = np.asarray(x_hat, dtype=np.float64)
    if x_g.shape != x_hat.shape:
        raise ValueError(f"length mismatch: {x_g.shape} vs {x_hat.shape}")
    return float(np.sqrt(np.mean((x_g - x_hat) ** 2)))


def aggregate(values) -> tuple:
    """Mean and unbiased sample std over repeats (std 0 for one repeat)."""
    values = np.asarray(list(values), dtype=np.float64)
    if values.size < 1:
        raise ValueError("at least one repeat is required")
    mean = float(values.mean())
    std = float(values.std(ddof=1)) if values.size > 1 else 0.0
    return mean, std


@dataclass(frozen=True, eq=False)
class RunReport:
    """Per-step error traces plus aggregates over repeats for one run.

    ``per_t_*`` vectors span the test horizon (averaged across repeats
    when there is more than one). ``method_aggregates`` holds the
    (mean, std) pairs for the primary method and any baselines run in the
    same harness; the ``*_missing`` aggregates restrict the error to
    unobserved nodes.
    """
    method: str
    per_t_mae: np.ndarray
    per_t_rmse: np.ndarray
    aggregate_mae: tuple
    aggregate_rmse: tuple
    aggregate_mae_missing: tuple
    aggregate_rmse_missing: tuple
    method_aggregates: dict
    config_snapshot: dict
    transcript_path: str | None = None
    token_estimate: int = 0

    def __post_init__(self):
        """Normalise the fields, so a report built in process and one read from JSON take one path."""
        def put(name, value):
            object.__setattr__(self, name, value)

        put("per_t_mae", np.asarray(self.per_t_mae, dtype=np.float64))
        put("per_t_rmse", np.asarray(self.per_t_rmse, dtype=np.float64))
        if self.per_t_mae.shape != self.per_t_rmse.shape or self.per_t_mae.ndim != 1:
            raise ValueError("per-step metric vectors must be 1-D and equal length")
        for name in ("aggregate_mae", "aggregate_rmse", "aggregate_mae_missing", "aggregate_rmse_missing"):
            put(name, tuple(getattr(self, name)))
            if not all(np.isfinite(v) for v in getattr(self, name)):
                raise ValueError("aggregates must be finite")
        put("method_aggregates", {name: {metric: tuple(pair) for metric, pair in metrics.items()}
                                  for name, metrics in self.method_aggregates.items()})
        put("config_snapshot", _snapshot(self.config_snapshot))
        put("token_estimate", int(self.token_estimate))

    def to_dict(self) -> dict:
        """The fields by name, in declaration order, with the per-step vectors as lists."""
        out = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        return {name: v.tolist() if isinstance(v, np.ndarray) else v for name, v in out.items()}

    @classmethod
    def from_dict(cls, payload: dict) -> "RunReport":
        """Inverse of :meth:`to_dict`. A payload of another shape raises ValueError saying what is wrong.

        Keys no field declares are ignored; a missing required key is named, the first in field order.
        """
        if not isinstance(payload, dict):
            raise ValueError(f"a report must be a JSON object, not {type(payload).__name__}")
        kwargs = {}
        for f in dataclasses.fields(cls):
            if f.name in payload:
                kwargs[f.name] = payload[f.name]
            elif f.default is dataclasses.MISSING:
                raise ValueError(f"report has no key {f.name!r}")
        try:
            return cls(**kwargs)
        except (TypeError, AttributeError) as exc:
            raise ValueError(f"malformed report: {exc}") from None


def _snapshot(snapshot) -> dict:
    """A copy of a report's config snapshot, which must be an object, as must its ``observation`` when present."""
    if not isinstance(snapshot, dict):
        raise ValueError(f"malformed report: key 'config_snapshot' must be an object, not {type(snapshot).__name__}")
    if not isinstance(snapshot.get("observation", {}), dict):
        raise ValueError("malformed report: key 'config_snapshot.observation' must be an object")
    return dict(snapshot)


def format_aggregate(pair) -> str:
    """Render (mean, std) the way result tables do, e.g. ``4.05 ± 1.6e-01``."""
    mean, std = pair
    return f"{mean:.2f} ± {std:.1e}"


def _noise_label(report: RunReport) -> str:
    obs = report.config_snapshot.get("observation", {})
    return str(obs.get("noise_variance", "?"))


def _noise_order(label: str) -> tuple:
    """Sort key of a noise column: finite numbers ascending by value, then any other label."""
    try:
        value = float(label)
    except ValueError:
        value = math.nan
    return (0, value, label) if math.isfinite(value) else (1, 0.0, label)


def render_markdown_table(reports, metric: str = "rmse") -> str:
    """Methods-by-noise-variance table over one or more reports.

    Rows are methods, columns are the noise variances found in the
    reports' config snapshots, ascending by value, with a label that is
    not a finite number (``?`` when a snapshot has none) last; cells are
    ``mean ± std``.
    """
    if metric not in ("rmse", "mae"):
        raise ValueError("metric must be 'rmse' or 'mae'")
    variances = sorted({_noise_label(r) for r in reports}, key=_noise_order)
    methods = []
    cells = {}
    for report in reports:
        label = _noise_label(report)
        for name, metrics in report.method_aggregates.items():
            if name not in methods:
                methods.append(name)
            if metric in metrics:
                cells[(name, label)] = format_aggregate(metrics[metric])
    lines = [
        f"| Method ({metric.upper()}) | " + " | ".join(variances) + " |",
        "|" + "---|" * (len(variances) + 1),
    ]
    for name in methods:
        row = [cells.get((name, v), "-") for v in variances]
        lines.append(f"| {name} | " + " | ".join(row) + " |")
    return "\n".join(lines) + "\n"


def emit_report(report: RunReport, fmt: str, path) -> None:
    """Write a report file: full JSON, per-step CSV, or a markdown table."""
    if fmt == "json":
        with atomic_write(path) as fh:
            json.dump(report.to_dict(), fh, indent=2)
            fh.write("\n")
    elif fmt == "csv":
        with atomic_write(path, newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["step", "mae", "rmse"])
            for k, (m, r) in enumerate(zip(report.per_t_mae, report.per_t_rmse)):
                writer.writerow([k, repr(float(m)), repr(float(r))])
    elif fmt == "markdown-table":
        text = render_markdown_table([report], "rmse") + "\n" + render_markdown_table([report], "mae")
        with atomic_write(path) as fh:
            fh.write(text)
    else:
        raise ValueError(f"unknown report format {fmt!r}")
