"""Online reconstruction loop, run configuration, and run management.

One run: train the spectral filter on the train split, then walk the test
horizon strictly sequentially. At each step the masked noisy observation
is denoised (missing entries pre-filled with the previous estimate), every
missing node becomes a text prediction task, the predictor fills it, and
the assembled estimate feeds the next step. Baselines consume the exact
same observation stream. Repeats rerun everything with derived seeds.
"""
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from .graphs import Graph, GftBasis, gft, knn_graph, laplacian, load_coordinates_csv, load_edge_list_csv
from .metrics import RunReport, aggregate, emit_report, rmse
from .predictors import PredictorConfig, estimate_tokens, predict_batch, validate_predictor_config
from .prompts import build_task
from .signals import ObservationModel, TimeVaryingSignal, load_signal_csv, observe, sample_mask, split
from .spectral import TrainConfig, TrainResult, denoise, mae, save_filter_json, train_filter

PRIMARY_METHOD = "graphfill"
BASELINE_NAMES = ("glms", "gnlms", "last_value", "neighbor_mean")


@dataclass(frozen=True)
class GraphConfig:
    source: str = "edges"  # "edges" | "knn"
    edge_list: str | None = None
    n_nodes: int | None = None
    coordinates: str | None = None
    k: int = 5
    bandwidth: float | None = None

    def __post_init__(self):
        if self.source not in ("edges", "knn"):
            raise ValueError(f"unknown graph source {self.source!r}")


@dataclass(frozen=True)
class SignalConfig:
    path: str = ""
    layout: str = "nodes-as-rows"
    t0: int = 0
    step_label: str = ""


@dataclass(frozen=True)
class ObservationConfig:
    ratio: float = 0.7
    seed: int = 0
    noise_variance: float = 0.0


@dataclass(frozen=True)
class RunConfig:
    graph: GraphConfig = field(default_factory=GraphConfig)
    signal: SignalConfig = field(default_factory=SignalConfig)
    t_split: int = 1
    observation: ObservationConfig = field(default_factory=ObservationConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    predictor: PredictorConfig = field(default_factory=PredictorConfig)
    baselines: tuple = ()
    baseline_step_size: float = 0.5
    baseline_band_energy: float = 0.9
    repeats: int = 1
    output_dir: str | None = None
    precision: int = 1
    adopt_raw_observed: bool = False
    history_depth: int = 1
    checkpoint_every: int = 100
    transcript: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        if self.history_depth != 1:
            raise ValueError("only history_depth=1 is supported")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        unknown = set(self.baselines) - set(BASELINE_NAMES)
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")
        object.__setattr__(self, "baselines", tuple(self.baselines))

    def to_dict(self) -> dict:
        out = dataclasses.asdict(self)
        out["baselines"] = list(self.baselines)
        return out

    @classmethod
    def from_dict(cls, payload: dict) -> "RunConfig":
        """Build a config from nested dicts, as loaded from JSON.

        Raises:
            ValueError: on a key no config section defines (named by its
                dotted path) or a section that is not an object.
        """
        payload = dict(payload)
        _check_keys(cls, payload, "")
        kwargs = {}
        for name, sub in (
            ("graph", GraphConfig),
            ("signal", SignalConfig),
            ("observation", ObservationConfig),
            ("train", TrainConfig),
            ("predictor", PredictorConfig),
        ):
            if name in payload:
                section = payload.pop(name)
                if not isinstance(section, dict):
                    raise ValueError(f"config key '{name}' must be an object")
                _check_keys(sub, section, f"{name}.")
                kwargs[name] = sub(**section)
        kwargs.update(payload)
        if "baselines" in kwargs:
            kwargs["baselines"] = tuple(kwargs["baselines"])
        return cls(**kwargs)


def _check_keys(cls, payload: dict, prefix: str) -> None:
    known = {f.name for f in dataclasses.fields(cls)}
    for key in payload:
        if key not in known:
            raise ValueError(f"unknown config key '{prefix}{key}'")


def load_config(path) -> RunConfig:
    with open(path, encoding="utf-8") as fh:
        return RunConfig.from_dict(json.load(fh))


@dataclass(frozen=True, eq=False)
class RunContext:
    """Everything derivable from the config before seeding: graph, basis, splits."""
    graph: Graph
    basis: GftBasis
    train_signal: TimeVaryingSignal
    test_signal: TimeVaryingSignal
    derived: dict


def prepare_run(cfg: RunConfig) -> RunContext:
    """Build the graph and Fourier basis, load the signal, and split it."""
    derived = {}
    if cfg.graph.source == "edges":
        if not cfg.graph.edge_list:
            raise ValueError("graph.edge_list path is required for source 'edges'")
        g = load_edge_list_csv(cfg.graph.edge_list, n=cfg.graph.n_nodes)
    else:
        if not cfg.graph.coordinates:
            raise ValueError("graph.coordinates path is required for source 'knn'")
        coords = load_coordinates_csv(cfg.graph.coordinates)
        g = knn_graph(coords, cfg.graph.k, cfg.graph.bandwidth)
    derived["graph_weighted"] = bool(np.any((g.adjacency != 0) & (g.adjacency != 1)))
    basis = gft(laplacian(g))
    derived["basis_ref"] = basis.ref()

    raw = load_signal_csv(cfg.signal.path, cfg.signal.layout)
    if raw.n_nodes != g.n_nodes:
        raise ValueError(f"signal has {raw.n_nodes} nodes but graph has {g.n_nodes}")
    signal = TimeVaryingSignal(raw.values, t0=cfg.signal.t0, step_label=cfg.signal.step_label)
    train_signal, test_signal = split(signal, cfg.t_split)
    derived["n_nodes"] = g.n_nodes
    derived["n_steps"] = signal.n_steps
    derived["test_steps"] = test_signal.n_steps
    derived["fill_policy"] = {"train": "node-train-mean", "test": "previous-estimate"}
    return RunContext(
        graph=g, basis=basis, train_signal=train_signal, test_signal=test_signal, derived=derived
    )


def init_estimate(train_signal: TimeVaryingSignal, obs_model: ObservationModel) -> np.ndarray:
    """Starting estimate for the online loop.

    Observed nodes take the final training column's value (no noise is
    added); missing nodes take the mean of the observed nodes at that
    column.
    """
    last = train_signal.values[:, -1]
    fill = float(last[obs_model.observed].mean())
    return np.where(obs_model.observed, last, fill)


@dataclass(eq=False)
class RepeatResult:
    seed: int
    model: ObservationModel
    train_result: TrainResult
    trajectory: np.ndarray
    per_t_mae: np.ndarray
    per_t_rmse: np.ndarray
    per_t_mae_missing: np.ndarray
    per_t_rmse_missing: np.ndarray
    baseline_per_t: dict
    token_estimate: int
    transcript: list


def _step_estimate(ctx, cfg, model, filt, x_prev, k, backend, transcript):
    """Advance the primary estimate by one test step; returns (x_hat, tokens)."""
    t_abs = ctx.test_signal.t0 + k
    obs = observe(ctx.test_signal.values[:, k], model, t_abs)
    o_tilde = denoise(filt, ctx.basis, obs, x_prev)
    base = obs.values if cfg.adopt_raw_observed else o_tilde
    x_hat = np.where(model.observed, base, 0.0)

    tokens = 0
    dispatch = []
    for i in model.missing_indices:
        task = build_task(int(i), t_abs, float(x_prev[i]), o_tilde, ctx.graph, model, cfg.precision)
        if task.neighbor_values:
            dispatch.append(task)
        else:
            # No observed neighbor to describe: persist without a backend call.
            x_hat[i] = x_prev[i]
            if transcript is not None:
                transcript.append(
                    {
                        "t": t_abs,
                        "node": int(i),
                        "prompt": None,
                        "completion": None,
                        "parsed": float(x_prev[i]),
                        "attempts": 0,
                        "fallback": True,
                        "latency_ms": 0.0,
                    }
                )
    if dispatch:
        results, entries = predict_batch(dispatch, cfg.predictor, backend=backend, with_transcript=True)
        for result, entry in zip(results, entries):
            x_hat[result.node] = result.value
            tokens += estimate_tokens(entry["prompt"] or "") + estimate_tokens(entry["completion"] or "")
            if transcript is not None:
                transcript.append(entry)
    return x_hat, tokens


def _init_baseline_states(ctx, cfg, model, x0):
    states = {}
    if not cfg.baselines:
        return states, None
    band = bl.bandlimit_for_energy(ctx.basis, ctx.train_signal.values, cfg.baseline_band_energy)
    for name in cfg.baselines:
        if name == "glms":
            states[name] = bl.glms_init(ctx.basis, band, cfg.baseline_step_size, x0)
        elif name == "gnlms":
            states[name] = bl.gnlms_init(ctx.basis, band, cfg.baseline_step_size, x0, model.observed)
        else:
            states[name] = np.array(x0, dtype=np.float64)
    return states, band


def _step_baselines(ctx, states, obs):
    for name, state in states.items():
        if name == "glms":
            states[name] = bl.glms_step(state, obs)
        elif name == "gnlms":
            states[name] = bl.gnlms_step(state, obs)
        elif name == "last_value":
            states[name] = bl.last_value_step(state, obs)
        elif name == "neighbor_mean":
            states[name] = bl.neighbor_mean_step(state, obs, ctx.graph)
    return states


def _baseline_estimate(state):
    return state.estimate if isinstance(state, bl.AdaptiveFilterState) else state


def run_repeat(
    ctx: RunContext,
    cfg: RunConfig,
    seed: int,
    backend=None,
    start_step: int = 0,
    start_estimate: np.ndarray | None = None,
    checkpoint_dir=None,
    repeat_index: int = 0,
) -> RepeatResult:
    """Train, then walk the test horizon from ``start_step`` sequentially."""
    model = sample_mask(
        ctx.graph.n_nodes, cfg.observation.ratio, seed, cfg.observation.noise_variance
    )
    train_result = train_filter(ctx.basis, ctx.train_signal, model, cfg.train)
    filt = train_result.filter

    x_prev = init_estimate(ctx.train_signal, model) if start_estimate is None else np.asarray(
        start_estimate, dtype=np.float64
    )
    n_steps = ctx.test_signal.n_steps
    horizon = n_steps - start_step
    trajectory = np.zeros((ctx.graph.n_nodes, horizon))
    per_t_mae = np.zeros(horizon)
    per_t_rmse = np.zeros(horizon)
    per_t_mae_missing = np.zeros(horizon)
    per_t_rmse_missing = np.zeros(horizon)
    transcript = [] if cfg.transcript else None
    tokens = 0

    baseline_states, band = _init_baseline_states(ctx, cfg, model, x_prev)
    baseline_per_t = {name: (np.zeros(horizon), np.zeros(horizon)) for name in baseline_states}
    missing = model.missing_indices

    completed = 0
    try:
        for offset, k in enumerate(range(start_step, n_steps)):
            col = ctx.test_signal.values[:, k]
            x_hat, step_tokens = _step_estimate(ctx, cfg, model, filt, x_prev, k, backend, transcript)
            tokens += step_tokens
            trajectory[:, offset] = x_hat
            per_t_mae[offset] = mae(col, x_hat)
            per_t_rmse[offset] = rmse(col, x_hat)
            if missing.size:
                per_t_mae_missing[offset] = mae(col[missing], x_hat[missing])
                per_t_rmse_missing[offset] = rmse(col[missing], x_hat[missing])

            if baseline_states:
                obs = observe(col, model, ctx.test_signal.t0 + k)
                baseline_states = _step_baselines(ctx, baseline_states, obs)
                for name, state in baseline_states.items():
                    est = _baseline_estimate(state)
                    baseline_per_t[name][0][offset] = mae(col, est)
                    baseline_per_t[name][1][offset] = rmse(col, est)

            x_prev = x_hat
            completed = offset + 1
            if checkpoint_dir is not None and (k + 1) % cfg.checkpoint_every == 0 and (k + 1) < n_steps:
                _write_checkpoint(checkpoint_dir, repeat_index, seed, k + 1, x_hat)
    except BaseException:
        # Persist the partial trace so an aborted run can be inspected or resumed.
        if checkpoint_dir is not None:
            _write_abort_state(
                checkpoint_dir, repeat_index, seed, start_step + completed, x_prev, per_t_mae[:completed]
            )
        raise

    result = RepeatResult(
        seed=seed,
        model=model,
        train_result=train_result,
        trajectory=trajectory,
        per_t_mae=per_t_mae,
        per_t_rmse=per_t_rmse,
        per_t_mae_missing=per_t_mae_missing,
        per_t_rmse_missing=per_t_rmse_missing,
        baseline_per_t=baseline_per_t,
        token_estimate=tokens,
        transcript=transcript if transcript is not None else [],
    )
    if band is not None:
        ctx.derived.setdefault("baseline_band_size", band)
    return result


def _write_checkpoint(checkpoint_dir, repeat_index, seed, k_next, estimate):
    os.makedirs(checkpoint_dir, exist_ok=True)
    payload = {
        "repeat": repeat_index,
        "seed": seed,
        "k_next": int(k_next),
        "estimate": [float(v) for v in estimate],
    }
    path = os.path.join(checkpoint_dir, f"repeat{repeat_index}_step{k_next:06d}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def _write_abort_state(checkpoint_dir, repeat_index, seed, k_next, estimate, mae_so_far):
    os.makedirs(checkpoint_dir, exist_ok=True)
    payload = {
        "repeat": repeat_index,
        "seed": seed,
        "k_next": int(k_next),
        "estimate": [float(v) for v in estimate],
        "per_t_mae": [float(v) for v in mae_so_far],
    }
    path = os.path.join(checkpoint_dir, f"repeat{repeat_index}_aborted.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)
        fh.write("\n")


def replay_from_checkpoint(cfg: RunConfig, checkpoint_path, backend=None) -> tuple:
    """Resume a run mid-horizon; returns (k_next, trajectory from there on).

    Because observations are keyed by (seed, t) and training is
    deterministic, the resumed trajectory matches the original run's tail
    exactly under the mock backend.
    """
    with open(checkpoint_path, encoding="utf-8") as fh:
        ckpt = json.load(fh)
    ctx = prepare_run(cfg)
    result = run_repeat(
        ctx,
        cfg,
        seed=int(ckpt["seed"]),
        backend=backend,
        start_step=int(ckpt["k_next"]),
        start_estimate=np.asarray(ckpt["estimate"], dtype=np.float64),
    )
    return int(ckpt["k_next"]), result.trajectory


@dataclass(eq=False)
class RunExecution:
    report: RunReport
    repeats: list
    context: RunContext


def execute_run(cfg: RunConfig, backend=None, with_primary: bool = True) -> RunExecution:
    """Run all repeats and assemble the report (no files written)."""
    if with_primary:
        validate_predictor_config(cfg.predictor)
    ctx = prepare_run(cfg)
    checkpoint_dir = os.path.join(cfg.output_dir, "checkpoints") if cfg.output_dir else None

    results = []
    for r in range(cfg.repeats):
        seed = cfg.observation.seed + r
        if with_primary:
            results.append(
                run_repeat(
                    ctx, cfg, seed, backend=backend, checkpoint_dir=checkpoint_dir, repeat_index=r
                )
            )
        else:
            results.append(_run_baselines_only(ctx, cfg, seed))

    report = _assemble_report(ctx, cfg, results, with_primary)
    return RunExecution(report=report, repeats=results, context=ctx)


def _run_baselines_only(ctx: RunContext, cfg: RunConfig, seed: int) -> RepeatResult:
    if not cfg.baselines:
        raise ValueError("no baselines selected")
    model = sample_mask(
        ctx.graph.n_nodes, cfg.observation.ratio, seed, cfg.observation.noise_variance
    )
    x0 = init_estimate(ctx.train_signal, model)
    baseline_states, band = _init_baseline_states(ctx, cfg, model, x0)
    n_steps = ctx.test_signal.n_steps
    baseline_per_t = {name: (np.zeros(n_steps), np.zeros(n_steps)) for name in baseline_states}
    for k in range(n_steps):
        col = ctx.test_signal.values[:, k]
        obs = observe(col, model, ctx.test_signal.t0 + k)
        baseline_states = _step_baselines(ctx, baseline_states, obs)
        for name, state in baseline_states.items():
            est = _baseline_estimate(state)
            baseline_per_t[name][0][k] = mae(col, est)
            baseline_per_t[name][1][k] = rmse(col, est)
    if band is not None:
        ctx.derived.setdefault("baseline_band_size", band)
    lead = cfg.baselines[0]
    zeros = np.zeros(n_steps)
    return RepeatResult(
        seed=seed,
        model=model,
        train_result=None,
        trajectory=np.zeros((0, 0)),
        per_t_mae=baseline_per_t[lead][0],
        per_t_rmse=baseline_per_t[lead][1],
        per_t_mae_missing=zeros,
        per_t_rmse_missing=zeros,
        baseline_per_t=baseline_per_t,
        token_estimate=0,
        transcript=[],
    )


def _assemble_report(ctx, cfg, results, with_primary: bool) -> RunReport:
    method = PRIMARY_METHOD if with_primary else cfg.baselines[0]
    per_t_mae = np.mean([r.per_t_mae for r in results], axis=0)
    per_t_rmse = np.mean([r.per_t_rmse for r in results], axis=0)

    method_aggregates = {}
    if with_primary:
        method_aggregates[PRIMARY_METHOD] = {
            "mae": aggregate([float(r.per_t_mae.mean()) for r in results]),
            "rmse": aggregate([float(r.per_t_rmse.mean()) for r in results]),
        }
    for name in cfg.baselines:
        method_aggregates[name] = {
            "mae": aggregate([float(r.baseline_per_t[name][0].mean()) for r in results]),
            "rmse": aggregate([float(r.baseline_per_t[name][1].mean()) for r in results]),
        }

    snapshot = cfg.to_dict()
    snapshot["derived"] = dict(ctx.derived)
    if with_primary:
        snapshot["derived"]["train_stop_reasons"] = [r.train_result.stop_reason for r in results]

    lead = method_aggregates[method]
    return RunReport(
        method=method,
        per_t_mae=per_t_mae,
        per_t_rmse=per_t_rmse,
        aggregate_mae=lead["mae"],
        aggregate_rmse=lead["rmse"],
        aggregate_mae_missing=aggregate([float(r.per_t_mae_missing.mean()) for r in results]),
        aggregate_rmse_missing=aggregate([float(r.per_t_rmse_missing.mean()) for r in results]),
        method_aggregates=method_aggregates,
        config_snapshot=snapshot,
        transcript_path=None,
        token_estimate=sum(r.token_estimate for r in results),
    )


def run_online(cfg: RunConfig, backend=None) -> RunReport:
    """Full online run; writes artifacts when an output directory is set."""
    execution = execute_run(cfg, backend=backend)
    report = execution.report
    if cfg.output_dir:
        report = _write_artifacts(cfg, execution)
    return report


def _write_artifacts(cfg: RunConfig, execution: RunExecution) -> RunReport:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w", encoding="utf-8") as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
    for r, result in enumerate(execution.repeats):
        if result.train_result is not None:
            save_filter_json(os.path.join(out, f"filter_repeat{r}.json"), result.train_result, cfg.train)

    report = execution.report
    transcript_path = None
    if cfg.transcript:
        transcript_path = os.path.join(out, "transcript.jsonl")
        with open(transcript_path, "w", encoding="utf-8") as fh:
            for r, result in enumerate(execution.repeats):
                for entry in result.transcript:
                    fh.write(json.dumps({"repeat": r, **entry}) + "\n")
        report = dataclasses.replace(report, transcript_path=transcript_path)

    emit_report(report, "json", os.path.join(out, "report.json"))
    emit_report(report, "csv", os.path.join(out, "report.csv"))
    emit_report(report, "markdown-table", os.path.join(out, "report.md"))
    return report
