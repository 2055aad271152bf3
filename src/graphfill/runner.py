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
import types
import typing
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from .files import atomic_write
from .graphs import Graph, GftBasis, gft, knn_graph, laplacian, load_coordinates_csv, load_edge_list_csv
from .metrics import RunReport, aggregate, emit_report, rmse  # noqa: F401 (runner.mae, runner.rmse stay importable)
from .predictors import PredictionResult, PredictorConfig, bind_backend, estimate_tokens, mock_step, predict_batch
from .prompts import build_task
from .signals import ObservationModel, TimeVaryingSignal, load_signal_csv, observe, sample_mask, split
from .spectral import TrainConfig, TrainResult, denoise, mae, save_filter_json, train_filter  # noqa: F401

PRIMARY_METHOD = "graphfill"


def _fresh_copy(basis, band, mu, x0, observed):
    return np.array(x0, dtype=np.float64)


# Baseline name -> (init(basis, band, mu, x0, observed), step(state, obs, graph)).
# Each entry looks ``bl.<fn>`` up at call time, so wrappers installed on the module see every call.
BASELINES = {
    "glms": (
        lambda basis, band, mu, x0, observed: bl.glms_init(basis, band, mu, x0),
        lambda state, obs, g: bl.glms_step(state, obs),
    ),
    "gnlms": (
        lambda basis, band, mu, x0, observed: bl.gnlms_init(basis, band, mu, x0, observed),
        lambda state, obs, g: bl.gnlms_step(state, obs),
    ),
    "last_value": (_fresh_copy, lambda state, obs, g: bl.last_value_step(state, obs)),
    "neighbor_mean": (_fresh_copy, lambda state, obs, g: bl.neighbor_mean_step(state, obs, g)),
}


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
    baselines: tuple[str, ...] = ()
    baseline_step_size: float = 0.5
    baseline_band_energy: float = 0.9
    repeats: int = 1
    output_dir: str | None = None
    precision: int = 1
    adopt_raw_observed: bool = False
    checkpoint_every: int = 100
    transcript: bool = False

    def __post_init__(self):
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        unknown = set(self.baselines) - set(BASELINES)
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
            ValueError: on a key no config section defines, a section that
                is not an object, or a value of the wrong type, each named
                by its dotted path.
        """
        return _from_json(cls, payload, "")


# Field type -> (name in errors, test of a JSON value). A float field takes
# an int; no numeric field takes a bool.
_VALUE_TYPES = {
    float: ("a number", lambda v: isinstance(v, (int, float)) and not isinstance(v, bool)),
    int: ("an integer", lambda v: isinstance(v, int) and not isinstance(v, bool)),
    bool: ("a boolean", lambda v: isinstance(v, bool)),
    str: ("a string", lambda v: isinstance(v, str)),
    type(None): ("null", lambda v: v is None),
    tuple[str, ...]: (
        "a list of strings",
        lambda v: isinstance(v, (list, tuple)) and all(isinstance(x, str) for x in v),
    ),
}


def _from_json(cls, payload, prefix: str):
    """Build dataclass ``cls`` from a JSON object, checking every key and value type."""
    if not isinstance(payload, dict):
        where = f"config key '{prefix[:-1]}'" if prefix else "config"
        raise ValueError(f"{where} must be an object")
    fields = {f.name: f.type for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in payload.items():
        path = prefix + key
        if key not in fields:
            raise ValueError(f"unknown config key '{path}'")
        tp = fields[key]
        if dataclasses.is_dataclass(tp):
            value = _from_json(tp, value, path + ".")
        else:
            accepted = typing.get_args(tp) if isinstance(tp, types.UnionType) else (tp,)
            if not any(_VALUE_TYPES[tp][1](value) for tp in accepted):
                expected = " or ".join(_VALUE_TYPES[tp][0] for tp in accepted)
                raise ValueError(f"config key '{path}' must be {expected}, got {value!r}")
        kwargs[key] = value
    return cls(**kwargs)


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
    signal = TimeVaryingSignal(raw.values, t0=cfg.signal.t0)
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
    """``scores``: method -> (4, horizon) per-step mae, rmse, and both over the missing nodes.

    Without the primary method, ``train_result`` is None and ``trajectory`` has no rows.
    """
    seed: int
    model: ObservationModel
    train_result: TrainResult | None
    trajectory: np.ndarray
    scores: dict
    token_estimate: int
    transcript: list


def mask_and_train(ctx: RunContext, cfg: RunConfig, seed: int, train: bool = True) -> tuple:
    """Sample the observation mask for ``seed``; returns ``(model, TrainResult or None)``."""
    model = sample_mask(ctx.graph.n_nodes, cfg.observation.ratio, seed, cfg.observation.noise_variance)
    return model, train_filter(ctx.basis, ctx.train_signal, model, cfg.train) if train else None


def observe_step(ctx: RunContext, model: ObservationModel, k: int):
    """The masked noisy observation of test step ``k``."""
    return observe(ctx.test_signal.values[:, k], model, ctx.test_signal.t0 + k)


def step_tasks(ctx: RunContext, cfg: RunConfig, model, o_tilde, x_prev, t: int) -> list:
    """The tasks one step sends: one per missing node with an observed neighbor, ascending."""
    nodes = ctx.graph.observed_layout(model.observed).nodes.tolist()
    return [build_task(i, t, float(x_prev[i]), o_tilde, ctx.graph, model, cfg.precision) for i in nodes]


def _step_estimate(ctx, cfg, model, filt, x_prev, obs, backend, transcript):
    """Advance the primary estimate by one test step; returns (x_hat, tokens).

    The step is array-shaped when no text is sent or logged (built-in mock, no transcript).
    """
    o_tilde = denoise(filt, ctx.basis, obs, x_prev)
    x_hat = np.where(model.observed, obs.values if cfg.adopt_raw_observed else o_tilde, x_prev)
    layout, p = ctx.graph.observed_layout(model.observed), cfg.predictor
    if backend is None and transcript is None and p.backend == "mock":
        answered = mock_step(layout, obs.t, x_prev[layout.nodes], o_tilde, cfg.precision, p.multi_task_prompt)
        if answered is not None:
            x_hat[layout.nodes] = answered[0]
            return x_hat, answered[1]

    # Text path. A missing node with no observed neighbor persists without a backend call.
    records = [PredictionResult(i, obs.t, float(x_prev[i]), 0, fallback=True) for i in layout.isolated.tolist()]
    tasks = step_tasks(ctx, cfg, model, o_tilde, x_prev, obs.t)
    if tasks:
        records += predict_batch(tasks, cfg.predictor, backend=backend)
    for record in records:
        x_hat[record.node] = record.value
    return x_hat, _account(records, transcript)


def _account(records, transcript) -> int:
    """Token estimate of one step's records; appends one transcript line per record when logging.

    Each group's user prompt and final completion count once: the records
    of a multi-task group are adjacent and share one prompt, and distinct
    groups cover distinct nodes, so their prompts differ.
    """
    tokens = 0
    prompt = None
    for r in records:
        if r.prompt is not None and r.prompt != prompt:
            tokens += estimate_tokens(r.prompt) + estimate_tokens(r.completion or "")
        prompt = r.prompt
        if transcript is not None:
            transcript.append({
                "t": r.t,
                "node": r.node,
                "prompt": r.prompt,
                "completion": r.completion,
                "parsed": r.value,
                "attempts": r.attempts,
                "fallback": r.fallback,
                "latency_ms": r.backend_latency,
            })
    return tokens


def _baseline_estimate(state):
    return state.estimate if isinstance(state, bl.AdaptiveFilterState) else state


def _step_scores(col, est, missing) -> np.ndarray:
    """Per row of ``est`` (methods, n): mae, rmse, and both over the missing nodes (0 when none is missing)."""
    out = np.zeros((4, est.shape[0]))
    d = col - est
    # A C-contiguous row sums as a 1-D array does (take() keeps rows so; d[:, missing] is column-major), and
    # np.mean is that sum over the count: each entry equals mae/rmse bit for bit.
    for row, part in ((0, d), (2, d.take(missing, axis=1))) if missing.size else ((0, d),):
        out[row] = np.abs(part).sum(axis=1) / part.shape[1]
        out[row + 1] = np.sqrt((part * part).sum(axis=1) / part.shape[1])
    return out


def run_repeat(
    ctx: RunContext,
    cfg: RunConfig,
    seed: int,
    backend=None,
    start_step: int = 0,
    start_estimate: np.ndarray | None = None,
    checkpoint_dir=None,
    repeat_index: int = 0,
    with_primary: bool = True,
) -> RepeatResult:
    """Train, then walk the test horizon from ``start_step`` sequentially.

    Each step's observation feeds the primary method and every selected
    baseline. Without the primary method only the baselines run: nothing
    is trained, dispatched or checkpointed.
    """
    model, train_result = mask_and_train(ctx, cfg, seed, train=with_primary)
    checkpoint_dir = checkpoint_dir if with_primary else None
    x_prev = init_estimate(ctx.train_signal, model) if start_estimate is None else np.asarray(
        start_estimate, dtype=np.float64
    )
    n_steps = ctx.test_signal.n_steps
    horizon = n_steps - start_step
    trajectory = np.zeros((ctx.graph.n_nodes if with_primary else 0, horizon))
    transcript = [] if cfg.transcript else None
    tokens = 0

    states = {}
    if cfg.baselines:
        band = bl.bandlimit_for_energy(ctx.basis, ctx.train_signal.values, cfg.baseline_band_energy)
        ctx.derived.setdefault("baseline_band_size", band)
        for name in cfg.baselines:
            init = BASELINES[name][0]
            states[name] = init(ctx.basis, band, cfg.baseline_step_size, x_prev, model.observed)
    methods = ([PRIMARY_METHOD] if with_primary else []) + list(states)
    table = np.zeros((len(methods), 4, horizon))
    scores = dict(zip(methods, table))
    missing = model.missing_indices

    completed = 0
    try:
        for offset, k in enumerate(range(start_step, n_steps)):
            col = ctx.test_signal.values[:, k]
            obs = observe_step(ctx, model, k)
            estimates = {}
            if with_primary:
                x_hat, step_tokens = _step_estimate(
                    ctx, cfg, model, train_result.filter, x_prev, obs, backend, transcript
                )
                tokens += step_tokens
                trajectory[:, offset] = x_hat
                estimates[PRIMARY_METHOD] = x_hat
            for name, state in states.items():
                states[name] = BASELINES[name][1](state, obs, ctx.graph)
                estimates[name] = _baseline_estimate(states[name])
            table[:, :, offset] = _step_scores(col, np.array(list(estimates.values())), missing).T

            completed = offset + 1
            if with_primary:
                x_prev = x_hat
            if checkpoint_dir is not None and (k + 1) % cfg.checkpoint_every == 0 and (k + 1) < n_steps:
                _write_state(checkpoint_dir, f"step{k + 1:06d}", repeat_index, seed, k + 1, x_prev)
    except BaseException:
        # Persist the partial trace so an aborted run can be inspected or resumed.
        if checkpoint_dir is not None:
            _write_state(checkpoint_dir, "aborted", repeat_index, seed, start_step + completed, x_prev,
                         per_t_mae=[float(v) for v in scores[PRIMARY_METHOD][0, :completed]])
        raise

    return RepeatResult(
        seed=seed,
        model=model,
        train_result=train_result,
        trajectory=trajectory,
        scores=scores,
        token_estimate=tokens,
        transcript=transcript if transcript is not None else [],
    )


def _write_state(checkpoint_dir, name, repeat_index, seed, k_next, estimate, **extra):
    """Write ``repeat<i>_<name>.json`` through a temporary file, so a crash never leaves it truncated."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    payload = {
        "repeat": repeat_index,
        "seed": seed,
        "k_next": int(k_next),
        "estimate": [float(v) for v in estimate],
        **extra,
    }
    with atomic_write(os.path.join(checkpoint_dir, f"repeat{repeat_index}_{name}.json")) as fh:
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
    backend = bind_backend(cfg.predictor, backend)
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
        backend = bind_backend(cfg.predictor, backend)
    elif not cfg.baselines:
        raise ValueError("no baselines selected (set 'baselines' in the config or --baselines)")
    ctx = prepare_run(cfg)
    checkpoint_dir = os.path.join(cfg.output_dir, "checkpoints") if cfg.output_dir else None
    results = [
        run_repeat(ctx, cfg, cfg.observation.seed + r, backend=backend, checkpoint_dir=checkpoint_dir,
                   repeat_index=r, with_primary=with_primary)
        for r in range(cfg.repeats)
    ]
    lead = PRIMARY_METHOD if with_primary else cfg.baselines[0]
    return RunExecution(report=_assemble_report(ctx, cfg, results, lead), repeats=results, context=ctx)


def _assemble_report(ctx, cfg, results, lead: str) -> RunReport:
    def over_repeats(name, row):
        return aggregate([float(r.scores[name][row].mean()) for r in results])

    method_aggregates = {
        name: {"mae": over_repeats(name, 0), "rmse": over_repeats(name, 1)}
        for name in results[0].scores
    }
    snapshot = cfg.to_dict()
    snapshot["derived"] = dict(ctx.derived)
    snapshot["derived"]["train_stop_reasons"] = [
        r.train_result.stop_reason for r in results if r.train_result is not None
    ]
    return RunReport(
        method=lead,
        per_t_mae=np.mean([r.scores[lead][0] for r in results], axis=0),
        per_t_rmse=np.mean([r.scores[lead][1] for r in results], axis=0),
        aggregate_mae=method_aggregates[lead]["mae"],
        aggregate_rmse=method_aggregates[lead]["rmse"],
        aggregate_mae_missing=over_repeats(lead, 2),
        aggregate_rmse_missing=over_repeats(lead, 3),
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
    with atomic_write(os.path.join(out, "config.json")) as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
    for r, result in enumerate(execution.repeats):
        save_filter_json(os.path.join(out, f"filter_repeat{r}.json"), result.train_result, cfg.train)

    report = execution.report
    if cfg.transcript:
        transcript_path = os.path.join(out, "transcript.jsonl")
        with atomic_write(transcript_path) as fh:
            for r, result in enumerate(execution.repeats):
                for entry in result.transcript:
                    fh.write(json.dumps({"repeat": r, **entry}) + "\n")
        report = dataclasses.replace(report, transcript_path=transcript_path)

    emit_report(report, "json", os.path.join(out, "report.json"))
    emit_report(report, "csv", os.path.join(out, "report.csv"))
    emit_report(report, "markdown-table", os.path.join(out, "report.md"))
    return report
