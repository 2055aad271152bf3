"""Render per-node prediction tasks as text prompts and parse completions.

Instead of embedding node signals into feature vectors, each missing
node's spatiotemporal context (previous estimate plus processed observed
neighbors) is written out as plain English with fixed-point numbers. The
completion parser does the inverse: it pulls numeric literals back out of
whatever text the predictor returned.
"""
import math
import re
from dataclasses import dataclass

import numpy as np

from .graphs import Graph, neighbors
from .signals import ObservationModel

SYSTEM_PROMPT = (
    "The spatiotemporal task is to predict the current number on a graph "
    "based on its previous value and the value of its neighbors."
)

_USER_HEADER = (
    "Each indexed content is independent. Make 1 numeric prediction per "
    "indexed context. Precision round to {p} decimal point. Do not output "
    "text. Do not recall memories."
)
_CONTEXT = " Time {t}, Entity index: {node}. Previous: {previous}, Neighbors: [{neighbors}]."

# Optional sign, digits with optional decimal part, or bare decimal fraction.
# No exponents: the prompts request plain fixed-point numerals.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)")
# Exact doubles 1e1..1e15: a value's integer digits, less one, are the number of them at or below it.
_POWERS = np.array([float(10 ** m) for m in range(1, 16)])


class CompletionParseError(ValueError):
    """Completion did not contain exactly the expected numeric values."""

    def __init__(self, message: str, found: int, expected: int):
        super().__init__(message)
        self.found = found
        self.expected = expected


@dataclass(frozen=True)
class NodeTask:
    """One missing node's prediction context at a single time step."""
    node: int
    t: int
    previous: float
    neighbor_values: tuple
    precision: int = 1

    def __post_init__(self):
        if self.precision < 0:
            raise ValueError("precision must be >= 0")
        object.__setattr__(self, "neighbor_values", tuple(float(v) for v in self.neighbor_values))
        object.__setattr__(self, "previous", float(self.previous))


@dataclass(frozen=True)
class PromptPair:
    """System and user texts for one prompt."""
    system_text: str
    user_text: str


def build_task(
    node: int,
    t: int,
    prev_estimate: float,
    processed_obs: np.ndarray,
    g: Graph,
    model: ObservationModel,
    precision: int = 1,
) -> NodeTask:
    """Assemble a task from the processed observation at one time step.

    Neighbor values are the processed signals at the node's observed
    neighbors, ascending by node index. Only unobserved nodes have tasks.
    """
    if model.observed[node]:
        raise ValueError(f"node {node} is observed; tasks exist only for missing nodes")
    processed_obs = np.asarray(processed_obs, dtype=np.float64)
    if processed_obs.shape != (g.n_nodes,):
        raise ValueError(
            f"processed observation has shape {processed_obs.shape}, expected ({g.n_nodes},)"
        )
    vals = tuple(float(processed_obs[j]) for j in neighbors(g, node) if model.observed[j])
    return NodeTask(node=node, t=t, previous=prev_estimate, neighbor_values=vals, precision=precision)


def render_system_prompt() -> str:
    """The fixed system-role instruction."""
    return SYSTEM_PROMPT


def render_user_prompt(tasks) -> str:
    """Render one user-role prompt covering the given tasks.

    All tasks must share the same time index and precision. Each task
    becomes one indexed context appended to a fixed instruction header.
    """
    tasks = list(tasks)
    if not tasks:
        raise ValueError("at least one task is required")
    t = tasks[0].t
    precision = tasks[0].precision
    for task in tasks[1:]:
        if task.t != t:
            raise ValueError("all tasks in one prompt must share the same time index")
        if task.precision != precision:
            raise ValueError("all tasks in one prompt must share the same precision")

    fmt = f"{{:.{precision}f}}".format
    parts = [_USER_HEADER.format(p=precision)]
    for task in tasks:
        parts.append(_CONTEXT.format(t=task.t, node=task.node, previous=fmt(task.previous),
                                     neighbors=", ".join(map(fmt, task.neighbor_values))))
    return "".join(parts)


def prompt_groups(tasks, multi_task_prompt: bool) -> list:
    """The tasks (a list) each prompt covers: all in one prompt, or one prompt per task; none without tasks."""
    return [tasks] if multi_task_prompt and tasks else [[task] for task in tasks]


def prompt_lengths(layout, t: int, previous, processed, answers, precision: int) -> tuple:
    """Lengths of :func:`render_user_prompt`'s header and ``layout.nodes``' contexts, and the answers' widths."""
    k, m = layout.neighbors.size, previous.size
    widths = fixed_widths(np.concatenate((processed[layout.neighbors], previous, answers)), precision)
    listed = np.zeros(processed.size + 1, dtype=np.int64)  # the sentinel n prints nothing
    listed[layout.neighbors] = widths[:k]
    fixed = len(_CONTEXT.format(t=t, node="", previous="", neighbors="")) + 2 * (layout.counts - 1) + layout.digits
    contexts = fixed + widths[k:k + m] + listed[layout.index].sum(axis=1)
    return len(_USER_HEADER.format(p=precision)), contexts, widths[k + m:]


def fixed_widths(values: np.ndarray, precision: int) -> np.ndarray:
    """``len(f"{v:.{precision}f}")`` for each value; formats only where rounding may carry into a new digit.

    The width is the sign (``-0.0`` prints one), the integer digits and ``precision + 1`` for the decimals.
    A value formats when ``floor(|v|) + 1`` is a power of ten from 10 up and the fraction is within half a
    last digit (plus a margin) of it, or when ``|v| >= 1e15`` or is not finite.
    """
    a = np.abs(values)
    i = np.searchsorted(_POWERS, a, side="right")
    width = np.signbit(values) + 1 + i + (precision + 1 if precision else 0)
    whole = np.floor(a)
    with np.errstate(invalid="ignore"):  # inf - inf; such a value formats anyway, as does any with i = 15
        carry = (whole + 1 == _POWERS.take(i, mode="clip")) & (a - whole >= 1.0 - 0.5 * 10.0 ** -precision - 1e-9)
    redo = np.flatnonzero(carry | ~(a < _POWERS[-1]))
    if redo.size:
        width[redo] = [len(f"{v:.{precision}f}") for v in values[redo].tolist()]
    return width


def round_fixed(values: np.ndarray, precision: int) -> np.ndarray:
    """Python's ``round(v, precision)`` for each value, bit for bit; calls it only near a tie or past exact scaling.

    For ``precision <= 15`` both k = rint(v * 10**p) and 10**p are exact doubles, and IEEE division gives
    the double nearest k / 10**p, which is what ``round`` returns unless v * 10**p lies near a .5 tie.
    """
    if precision > 15:
        return np.array([round(v, precision) for v in values.tolist()], dtype=np.float64)
    scale = float(10 ** precision)
    with np.errstate(over="ignore", invalid="ignore"):  # values near 1e300; they go through round()
        y = values * scale
        out = np.rint(y) / scale
        a = np.abs(y)
        redo = np.flatnonzero(~(a < 2.0 ** 52) | (np.abs(y - np.floor(y) - 0.5) <= 1e-7 * np.maximum(1.0, a)))
    if redo.size:
        out[redo] = [round(v, precision) for v in values[redo].tolist()]
    return out


def build_prompt(tasks) -> PromptPair:
    """Pair the system prompt with a rendered user prompt."""
    return PromptPair(system_text=render_system_prompt(), user_text=render_user_prompt(tasks))


def parse_completion(text: str, expected_count: int, precision: int = 1) -> list:
    """Extract numeric predictions from completion text.

    Surrounding prose is ignored. Succeeds only when exactly
    ``expected_count`` finite numerics are present; values are rounded to
    ``precision`` decimals.

    Raises:
        CompletionParseError: on a count mismatch or non-finite value
            (e.g. the predictor answered "NaN").
    """
    if expected_count < 1:
        raise ValueError("expected_count must be >= 1")
    matches = _NUMBER_RE.findall(text)
    values = []
    for m in matches:
        v = float(m)
        if not math.isfinite(v):
            raise CompletionParseError(
                f"non-finite numeric {m!r} in completion", found=len(matches), expected=expected_count
            )
        values.append(round(v, precision))
    if len(values) != expected_count:
        raise CompletionParseError(
            f"expected {expected_count} numeric value(s), found {len(values)} in {text!r}",
            found=len(values),
            expected=expected_count,
        )
    return values
