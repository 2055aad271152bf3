"""Online reconstruction loop, run configuration, and run management.

One run: train the spectral filter on the train split, then walk the test
horizon strictly sequentially. At each step the masked noisy observation
is denoised (missing entries pre-filled with the previous estimate), every
missing node becomes a text prediction task, the predictor fills it, and
the assembled estimate feeds the next step. Baselines consume the exact
same observation stream. The graph, basis and splits are built once per
run; each repeat draws its mask from a derived seed and retrains the filter.
"""
import contextlib
import dataclasses
import glob
import json
import os
import types
import typing
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import baselines as bl
from .files import atomic_write
from .graphs import Graph, GftBasis, gft, knn_graph, load_coordinates_csv, load_edge_list_csv
from .graphs import _reject_infinite, laplacian, observed_layout
from .metrics import RunReport, aggregate, emit_report, rmse  # noqa: F401 (runner.mae, runner.rmse stay importable)
from .predictors import PredictionResult, PredictorConfig, bind_backend, mock_step, mock_tokens, predict_batch
from .prompts import build_task
from .signals import ObservationModel, TimeVaryingSignal, check_t_split, load_signal_csv, observe, sample_mask
from .signals import signal_shape, split
from .spectral import TrainConfig, TrainResult, denoise, filter_operator, mae  # noqa: F401
from .spectral import save_filter_json, train_filter

PRIMARY_METHOD = "graphfill"
BASELINES = ("glms", "gnlms", "last_value", "neighbor_mean")
# Elements of a block's (methods, steps, n) estimates: the steps whose bookkeeping is settled in one pass. It bounds
# what the bookkeeping holds whatever the horizon.
BUDGET = 1 << 15
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@dataclass(frozen=True)
class GraphConfig:
    source: str = "edges"  # "edges" | "knn"
    edge_list: str | None = None
    n_nodes: int | None = None
    coordinates: str | None = None
    k: int = 5
    bandwidth: float | None = None

    def __post_init__(self):
        _reject_infinite(self)
        if self.source not in ("edges", "knn"):
            raise ValueError(f"source must be 'edges' or 'knn', got {self.source!r}")
        if self.k < 1:
            raise ValueError("k must be >= 1")
        if self.bandwidth is not None and not self.bandwidth > 0.0:
            raise ValueError("bandwidth must be positive or null")


@dataclass(frozen=True)
class SignalConfig:
    path: str = ""
    layout: str = "nodes-as-rows"


@dataclass(frozen=True)
class ObservationConfig:
    ratio: float = 0.7
    seed: int = 0
    noise_variance: float = 0.0

    def __post_init__(self):
        _reject_infinite(self)
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError("ratio must be in (0, 1]")
        if self.seed < 0:  # numpy's generators take no negative seed
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not self.noise_variance >= 0.0:
            raise ValueError("noise_variance must be >= 0")


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
    checkpoint_every: int = 100
    transcript: bool = False

    def __post_init__(self):
        _reject_infinite(self)
        if self.repeats < 1:
            raise ValueError("repeats must be >= 1")
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        if self.checkpoint_every < 1:
            raise ValueError("checkpoint_every must be >= 1")
        if not self.baseline_step_size >= 0.0:
            raise ValueError("baseline_step_size must be >= 0")
        if not 0.0 < self.baseline_band_energy <= 1.0:
            raise ValueError("baseline_band_energy must be in (0, 1]")
        unknown = set(self.baselines) - set(BASELINES)
        if unknown:
            raise ValueError(f"unknown baselines: {sorted(unknown)}")
        repeated = {name for name in self.baselines if self.baselines.count(name) > 1}
        if repeated:
            raise ValueError(f"baselines listed more than once: {sorted(repeated)}")
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
    try:
        return cls(**kwargs)
    except ValueError as exc:  # a section's check names its field: prefix the section
        raise ValueError(prefix + str(exc)) from None


@dataclass(frozen=True, eq=False)
class RunContext:
    """Everything derivable from the config before seeding: graph, basis, splits."""
    graph: Graph
    basis: GftBasis
    train_signal: TimeVaryingSignal
    test_signal: TimeVaryingSignal
    derived: dict


def prepare_run(cfg: RunConfig) -> RunContext:
    """Load and split the signal, build the graph and Fourier basis, and size GLMS and GNLMS's band.

    The signal's shape comes first, from :func:`signal_shape`'s scan of its lines: a bad ``t_split`` fails before
    the graph is built, and its node count is the graph's n, which both graph loaders read their file against.
    The Laplacian is built on this thread; one worker thread then decomposes it (``gft``: the LAPACK call and
    the sign rule, which leave the GIL free) while this thread parses the signal, so set-up uses one extra
    thread. LAPACK still follows ``OPENBLAS_NUM_THREADS``, and the basis's bits depend only on that. The worker
    is joined before this returns, also when the parse or the decomposition raises; either error propagates
    as it was raised.

    When the parse ends first (at n = 2000 the decomposition outlasts it by over a second), this thread waits
    for the worker with ``os.sched_yield()``, which frees the GIL and hands the CPU to any thread ready on it,
    instead of sleeping in ``Future.result()``. On a 2-vCPU virtual machine a thread that slept there ran the
    online steps after it about 1.5x slower in 15 of 24 runs, against 3 of 24 when it stays runnable.
    """
    path, layout = cfg.signal.path, cfg.signal.layout
    n, n_steps = signal_shape(path, layout)
    check_t_split(cfg.t_split, n_steps)
    if cfg.graph.n_nodes not in (None, n):
        raise ValueError(f"graph.n_nodes is {cfg.graph.n_nodes} but the signal has {n} nodes")
    derived = {}
    if cfg.graph.source == "edges":
        if not cfg.graph.edge_list:
            raise ValueError("graph.edge_list path is required for source 'edges'")
        g = load_edge_list_csv(cfg.graph.edge_list, n)
    else:
        if not cfg.graph.coordinates:
            raise ValueError("graph.coordinates path is required for source 'knn'")
        g = knn_graph(load_coordinates_csv(cfg.graph.coordinates, n), cfg.graph.k, cfg.graph.bandwidth)
    derived["graph_weighted"] = bool(np.any(g.weights != 1.0))
    with ThreadPoolExecutor(max_workers=1) as pool:
        decomposition = pool.submit(gft, laplacian(g))  # the worker holds L only until eigh returns
        signal = load_signal_csv(path, layout)
        if signal.values.shape != (n, n_steps):
            raise ValueError(f"{path}: parsed as {signal.n_nodes} nodes x {signal.n_steps} steps, but its lines "
                             f"hold {n} x {n_steps}: a quoted cell may not span lines")
        train_signal, test_signal = split(signal, cfg.t_split)
        del signal  # the splits hold copies
        while not decomposition.done():  # wait runnable, not asleep: see the docstring
            os.sched_yield()
        basis = decomposition.result()
    derived["basis_ref"] = basis.ref()
    derived["n_nodes"] = n
    derived["n_steps"] = train_signal.n_steps + test_signal.n_steps
    derived["test_steps"] = test_signal.n_steps
    derived["fill_policy"] = {"train": "previous-column", "test": "previous-estimate"}
    if {"glms", "gnlms"} & set(cfg.baselines):
        derived["baseline_band_size"] = bl.bandlimit_for_energy(
            basis, train_signal.values, cfg.baseline_band_energy
        )
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

    Without the primary method, ``train_result`` is None.
    """
    model: ObservationModel
    train_result: TrainResult | None
    scores: dict
    token_estimate: int
    transcript: list


def _repeat_seed(cfg: RunConfig, r: int) -> int:
    return cfg.observation.seed + r


def mask_and_train(ctx: RunContext, cfg: RunConfig, r: int, train: bool = True) -> tuple:
    """Sample repeat ``r``'s observation mask; returns ``(model, TrainResult or None)``."""
    model = sample_mask(ctx.graph.n_nodes, cfg.observation.ratio, _repeat_seed(cfg, r), cfg.observation.noise_variance)
    return model, train_filter(ctx.basis, ctx.train_signal, model) if train else None


def _start_estimates(ctx, methods, x0) -> dict:
    """Each method's estimate before step 0: ``x0``, or for GLMS and GNLMS its projection U_B U_B^T x0.

    B is ``derived["baseline_band_size"]``. An adaptive filter's update is in band, so the part of its start
    outside the band would never decay (Di Lorenzo et al. 2016; Spelta & Martins 2020 start in band).
    """
    starts = dict.fromkeys(methods, x0)
    adaptive = [name for name in methods if name in ("glms", "gnlms")]
    if adaptive:
        u_band = ctx.basis.eigenvectors[:, :ctx.derived["baseline_band_size"]]
        starts.update(dict.fromkeys(adaptive, u_band @ (u_band.T @ x0)))
    return starts


def _method_step(name, ctx, cfg, model, layout, train_result, backend, transcript, block):
    """Method ``name``'s ``step(estimate, obs) -> next estimate`` in a repeat with mask ``model``.

    Each method's fixed part is built here, once, as a ``spectral.BandOperator``: the primary's filter (checked
    against the basis) or a baseline's band. No step writes into the estimate it is given. Each step looks
    ``bl.<fn>`` (and the primary step ``denoise``, ``build_task`` and ``predict_batch``) up at call time, so
    wrappers installed on the modules see every call.
    """
    if name == PRIMARY_METHOD:
        op = filter_operator(train_result.filter, ctx.basis)
        return lambda x, obs: _step_estimate(op, cfg, layout, x, obs, backend, transcript, block)
    band, mu = ctx.derived.get("baseline_band_size"), cfg.baseline_step_size
    if name == "glms":
        filt = bl.glms_init(ctx.basis, band, mu)
        return lambda x, obs: bl.glms_step(filt, x, obs)
    if name == "gnlms":
        filt = bl.gnlms_init(ctx.basis, band, mu, model.observed)
        return lambda x, obs: bl.gnlms_step(filt, x, obs)
    if name == "last_value":
        return lambda x, obs: bl.last_value_step(x, obs)
    return lambda x, obs: bl.neighbor_mean_step(x, obs, layout)


def _step_estimate(op, cfg, layout, x_prev, obs, backend, transcript, block):
    """Advance the primary estimate by one test step with filter operator ``op``; returns x_hat.

    ``layout`` is ``observed_layout(graph, obs.observed)``, the only source of each missing node's observed
    neighbors on both paths. The step is array-shaped when no text is sent or logged (``backend`` None, the
    built-in mock, and no transcript): it takes the mock's values and flags its row of ``block``, whose
    :meth:`_Block.settle` counts those prompts from the rows. The text path writes its records' tokens in the row.
    """
    o_tilde = denoise(op, obs, x_prev)
    x_hat = np.where(obs.observed, o_tilde, x_prev)
    if backend is None and transcript is None:
        answered = mock_step(layout, x_prev[layout.nodes], o_tilde[layout.neighbors], cfg.precision)
        if answered is not None:
            x_hat[layout.nodes] = answered
            block.prompted[block.row] = True
            return x_hat

    # Text path: a task per layout row; a missing node without an observed neighbor persists without a call.
    records = [PredictionResult(i, obs.t, float(x_prev[i]), 0, fallback=True) for i in layout.isolated.tolist()]
    tasks = [build_task(layout, r, obs.t, previous, o_tilde, cfg.precision)
             for r, previous in enumerate(x_prev[layout.nodes].tolist())]
    if tasks:
        records += predict_batch(tasks, cfg.predictor, backend=backend)
    for record in records:
        x_hat[record.node] = record.value
    block.tokens[block.row] = _account(records, transcript)
    return x_hat


def _account(records, transcript) -> int:
    """One step's token estimate, the sum of its records' ``tokens``; logs a transcript line per record when asked."""
    if transcript is not None:
        transcript.extend({
            "t": r.t,
            "node": r.node,
            "prompt": r.prompt,
            "completion": r.completion,
            "parsed": r.value,
            "attempts": r.attempts,
            "fallback": r.fallback,
            "latency_ms": r.backend_latency,
        } for r in records)
    return sum(r.tokens for r in records)


def _block_scores(truth, estimates, missing) -> np.ndarray:
    """(methods, 4, steps): each method's mae, rmse, and both over the missing nodes (0 when none is missing).

    ``estimates`` is (methods, steps, n) and ``truth`` the steps' (n, steps) ground truth.
    """
    methods, steps, n = estimates.shape
    # One C-contiguous row of n per (method, step), and one of the missing nodes after take(): such a row sums as a
    # 1-D array does, and np.mean is that sum over the count, so each entry equals mae/rmse bit for bit. The rows
    # are made absolute, then squared, in place: |x| * |x| is x * x exactly.
    d = np.empty((methods * steps, n))
    np.subtract(truth.T, estimates, out=d.reshape(methods, steps, n))
    out = np.zeros((4, methods * steps))
    for row, part in ((2, d.take(missing, axis=1)), (0, d)) if missing.size else ((0, d),):
        np.abs(part, out=part)
        out[row] = part.sum(axis=1) / part.shape[1]
        np.multiply(part, part, out=part)
        out[row + 1] = np.sqrt(part.sum(axis=1) / part.shape[1])
    return out.reshape(4, methods, steps).transpose(1, 0, 2)


class _Block:
    """A repeat's state: every method's estimates, its score ``table`` and tokens.

    Steps are walked a block of up to ``size`` at a time, ``BUDGET // (methods * n)`` and at least 1. Row 0 of
    ``estimates`` holds every method's estimate after step ``k_next - 1``: the start, the resumed state or the last
    settled row. Step k reads row ``k - k_next`` and writes the next row, with the text path's ``tokens`` or the
    mock array path's ``prompted`` flag. :meth:`settle` settles the rows of the steps before its ``k_next`` in one
    pass and carries the last of them to row 0, so the row of a step that raised is never read.
    """

    def __init__(self, ctx, cfg, layout, methods, missing, state):
        n, n_steps, k_next = ctx.graph.n_nodes, ctx.test_signal.n_steps, state["k_next"]
        self.size = max(1, BUDGET // (len(methods) * n))
        self.estimates = np.empty((len(methods), 1 + self.size, n))
        self.estimates[:, 0] = [state["estimates"][name] for name in methods]
        self.prompted = np.zeros(1 + self.size, dtype=bool)
        self.tokens = np.zeros(1 + self.size, dtype=np.int64)
        self.table = np.zeros((len(methods), 4, n_steps))
        self.table[:, :, :k_next] = [state["scores"][name] for name in methods]
        self.truth, self.t0, self.layout, self.missing = ctx.test_signal.values, ctx.test_signal.t0, layout, missing
        self.precision, self.multi_task_prompt = cfg.precision, cfg.predictor.multi_task_prompt
        # settle() reads the mock's inputs from the primary's rows; a replayed checkpoint's JSON orders the methods.
        self.primary = methods.index(PRIMARY_METHOD) if PRIMARY_METHOD in methods else None
        self.k_next, self.token_total = k_next, state["tokens"]

    def begin(self, k) -> int:
        """Start step ``k``'s row; returns it."""
        self.row = k - self.k_next + 1
        self.prompted[self.row], self.tokens[self.row] = False, 0
        return self.row

    def settle(self, k_next):
        """Score the steps before ``k_next``, add their tokens and carry the last row to row 0. A prompted step's
        :func:`mock_tokens` inputs are the primary's row before and its own at ``layout.nodes``, and its own at
        ``layout.neighbors`` (observed: the filter output)."""
        k0, rows = self.k_next, k_next - self.k_next
        if not rows:
            return
        self.table[:, :, k0:k_next] = _block_scores(self.truth[:, k0:k_next], self.estimates[:, 1:1 + rows],
                                                    self.missing)
        self.token_total += int(self.tokens[1:1 + rows].sum())
        sent = 1 + np.flatnonzero(self.prompted[1:1 + rows])
        if sent.size:
            x, nodes = self.estimates[self.primary], self.layout.nodes
            self.token_total += mock_tokens(self.layout, self.t0 + k0 - 1 + sent, x[sent[:, None] - 1, nodes],
                                            x[sent[:, None], self.layout.neighbors], x[sent[:, None], nodes],
                                            self.precision, self.multi_task_prompt)
        self.estimates[:, 0] = self.estimates[:, rows]
        self.k_next = k_next


def run_repeat(ctx: RunContext, cfg: RunConfig, r: int, methods: tuple, backend=None,
               resume: dict | None = None) -> RepeatResult:
    """Walk repeat ``r``'s test horizon sequentially, feeding each step's observation to every method.

    ``backend`` is what :func:`bind_backend` yielded (None: the built-in mock). The filter is trained when
    the primary method is among ``methods``. The walk starts from ``resume``, a state read by
    :func:`replay_from_checkpoint`, or else from step 0 with every method at :func:`init_estimate`,
    projected into the band for GLMS and GNLMS.

    A step is the recurrence: it observes and writes every method's next estimate into the block (:class:`_Block`),
    the repeat's one state. Its bookkeeping (every method's scores and the step's tokens) is settled a block of
    steps at a time: when the block fills, before the state is written, and at the end. With ``output_dir`` set,
    ``checkpoints/repeat<r>.json`` always holds the state after the last settled step: it is rewritten every
    ``checkpoint_every`` steps, when the repeat aborts and when it completes, so a repeat has finished exactly
    when the file's ``k_next`` is the horizon.
    """
    model, train_result = mask_and_train(ctx, cfg, r, train=PRIMARY_METHOD in methods)
    layout = observed_layout(ctx.graph, model.observed)
    n_steps = ctx.test_signal.n_steps
    transcript = [] if cfg.transcript else None
    state = resume or {"k_next": 0, "tokens": 0, "scores": dict.fromkeys(methods, np.zeros((4, 0))),
                       "estimates": _start_estimates(ctx, methods, init_estimate(ctx.train_signal, model))}
    block = _Block(ctx, cfg, layout, methods, np.flatnonzero(~model.observed), state)
    steps = [_method_step(name, ctx, cfg, model, layout, train_result, backend, transcript, block) for name in methods]
    checkpoint_dir = os.path.join(cfg.output_dir, "checkpoints") if cfg.output_dir else None

    k_next = block.k_next
    try:
        for k in range(k_next, n_steps):
            obs = observe(ctx.test_signal.values[:, k], model, ctx.test_signal.t0 + k)
            row = block.begin(k)
            for j, step in enumerate(steps):
                block.estimates[j, row] = step(block.estimates[j, row - 1], obs)
            k_next = k + 1
            checkpoint = checkpoint_dir is not None and k_next % cfg.checkpoint_every == 0 and k_next < n_steps
            if checkpoint or row == block.size:
                block.settle(k_next)
            if checkpoint:
                _write_state(checkpoint_dir, r, model.seed, methods, block)
    finally:
        # On an abort too: the state after the last completed step, so an aborted run can be inspected or resumed.
        block.settle(k_next)
        if checkpoint_dir is not None:
            _write_state(checkpoint_dir, r, model.seed, methods, block)

    return RepeatResult(model=model, train_result=train_result, scores=dict(zip(methods, block.table)),
                        token_estimate=block.token_total, transcript=transcript if transcript is not None else [])


def _state_path(checkpoint_dir, repeat_index) -> str:
    return os.path.join(checkpoint_dir, f"repeat{repeat_index}.json")


def _write_state(checkpoint_dir, repeat_index, seed, methods, block):
    """Write settled ``block`` over ``repeat<i>.json`` through a temporary file, so a crash never truncates it."""
    os.makedirs(checkpoint_dir, exist_ok=True)
    payload = {"repeat": repeat_index, "seed": seed, "k_next": block.k_next, "tokens": block.token_total,
               "estimates": {m: x.tolist() for m, x in zip(methods, block.estimates[:, 0])},
               "scores": {m: s[:, :block.k_next].tolist() for m, s in zip(methods, block.table)}}
    with atomic_write(_state_path(checkpoint_dir, repeat_index)) as fh:
        fh.write(json.dumps(payload) + "\n")


@contextlib.contextmanager
def _naming(checkpoint_path):
    """Re-raise a malformed checkpoint's KeyError, ValueError, TypeError or AttributeError as a ValueError naming it."""
    try:
        yield
    except KeyError as exc:
        raise ValueError(f"{checkpoint_path}: checkpoint has no key {exc.args[0]!r}") from None
    except (ValueError, TypeError, AttributeError) as exc:  # also a JSONDecodeError
        raise ValueError(f"{checkpoint_path}: {exc}") from None


def replay_from_checkpoint(cfg: RunConfig, checkpoint_path, backend=None) -> RepeatResult:
    """Resume the repeat a checkpoint was written in, for every method the checkpoint holds.

    Observations are keyed by (seed, t) and training is deterministic, so the result's ``scores`` and
    ``token_estimate`` cover the whole horizon and equal the uninterrupted repeat's under the mock
    backend. A finished repeat's state walks no step. A checkpoint that is not JSON, or does not fit
    ``cfg``'s run, raises a ValueError naming ``checkpoint_path``. What the config alone can check (the
    checkpoint's keys, repeat, seed, tokens and methods, and the backend) is checked before the graph is built.
    """
    with _naming(checkpoint_path):
        with open(checkpoint_path, encoding="utf-8") as fh:
            state = json.load(fh)
        state = {key: state[key] for key in ("repeat", "seed", "k_next", "tokens", "estimates", "scores")}
        if any(type(state[key]) is not int for key in ("repeat", "seed", "k_next", "tokens")):
            raise ValueError("repeat, seed, k_next and tokens must be integers")
        if state["tokens"] < 0:
            raise ValueError(f"tokens {state['tokens']} is negative")
        repeat, seed, k_next, methods = state["repeat"], state["seed"], state["k_next"], tuple(state["estimates"])
        if not 0 <= repeat < cfg.repeats:
            raise ValueError(f"repeat {repeat} is outside [0, {cfg.repeats})")
        if seed != _repeat_seed(cfg, repeat):
            raise ValueError(f"seed {seed} is not repeat {repeat}'s seed {_repeat_seed(cfg, repeat)}")
        if not methods or not set(methods) <= {PRIMARY_METHOD, *cfg.baselines}:
            raise ValueError(f"methods {list(methods)} are not among the config's {[PRIMARY_METHOD, *cfg.baselines]}")
    primary = PRIMARY_METHOD in methods  # only the primary method calls a backend
    with bind_backend(cfg.predictor, backend) if primary else contextlib.nullcontext(backend) as bound:
        ctx = prepare_run(cfg)
        with _naming(checkpoint_path):
            if not 0 <= k_next <= ctx.test_signal.n_steps:
                raise ValueError(f"k_next {k_next} is outside [0, {ctx.test_signal.n_steps}]")
            for key, shape in (("estimates", (ctx.graph.n_nodes,)), ("scores", (4, k_next))):
                state[key] = {m: np.asarray(state[key].get(m), dtype=np.float64) for m in methods}
                if any(a.shape != shape or not np.isfinite(a).all() for a in state[key].values()):
                    raise ValueError(f"{key} must be finite numbers of shape {shape} for every method")
        return run_repeat(ctx, cfg, repeat, methods, backend=bound, resume=state)


@dataclass(eq=False)
class RunExecution:
    report: RunReport
    repeats: list
    context: RunContext


def execute_run(cfg: RunConfig, backend=None, with_primary: bool = True) -> RunExecution:
    """Run every repeat and assemble the report; with ``output_dir`` set, checkpoints and artifacts go there."""
    methods = (PRIMARY_METHOD, *cfg.baselines) if with_primary else cfg.baselines
    if not methods:
        raise ValueError("no baselines selected (set 'baselines' in the config or --baselines)")
    with bind_backend(cfg.predictor, backend) if with_primary else contextlib.nullcontext(backend) as bound:
        ctx = prepare_run(cfg)
        if cfg.output_dir:  # an earlier run's states, and the artifacts this run may not overwrite, are not this run's
            for pattern in ("checkpoints/repeat*.json", "filter_repeat*.json", "transcript.jsonl"):
                for path in glob.glob(os.path.join(glob.escape(cfg.output_dir), pattern)):
                    os.remove(path)
        results = [run_repeat(ctx, cfg, r, methods, backend=bound) for r in range(cfg.repeats)]
    execution = RunExecution(report=_assemble_report(ctx, cfg, results, methods[0]), repeats=results, context=ctx)
    if cfg.output_dir:
        _write_artifacts(cfg, execution)
    return execution


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
    snapshot["derived"]["environment"] = _environment()
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
        transcript_path=os.path.join(cfg.output_dir, "transcript.jsonl") if cfg.output_dir and cfg.transcript else None,
        token_estimate=sum(r.token_estimate for r in results),
    )


def _environment() -> dict:
    """What a run's bits depend on besides its inputs: numpy, the BLAS it was built with and the BLAS thread variables.

    A variable that is not set reads None, as does a BLAS field a numpy before 1.26 does not report.
    """
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy before 1.26 only prints its configuration
        blas = {}
    return {"numpy": np.__version__, "blas": {"name": blas.get("name"), "version": blas.get("version")},
            "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES}}


def _write_artifacts(cfg: RunConfig, execution: RunExecution) -> None:
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    with atomic_write(os.path.join(out, "config.json")) as fh:
        json.dump(cfg.to_dict(), fh, indent=2)
        fh.write("\n")
    for r, result in enumerate(execution.repeats):
        if result.train_result is not None:
            save_filter_json(os.path.join(out, f"filter_repeat{r}.json"), result.train_result)

    report = execution.report
    if report.transcript_path is not None:
        with atomic_write(report.transcript_path) as fh:
            for r, result in enumerate(execution.repeats):
                for entry in result.transcript:
                    fh.write(json.dumps({"repeat": r, **entry}) + "\n")

    emit_report(report, "json", os.path.join(out, "report.json"))
    emit_report(report, "csv", os.path.join(out, "report.csv"))
    emit_report(report, "markdown-table", os.path.join(out, "report.md"))
