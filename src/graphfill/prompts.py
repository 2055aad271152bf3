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

# Optional sign, digits with optional decimal part, or bare decimal fraction.
# No exponents: the prompts request plain fixed-point numerals.
_NUMBER_RE = re.compile(r"[+-]?(?:\d+\.\d*|\.\d+|\d+)")


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
    """System and user texts plus the (node, t) tasks the user text covers."""
    system_text: str
    user_text: str
    task_refs: tuple


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
        nbrs = ", ".join(map(fmt, task.neighbor_values))
        parts.append(
            f" Time {task.t}, Entity index: {task.node}."
            f" Previous: {fmt(task.previous)}, Neighbors: [{nbrs}]."
        )
    return "".join(parts)


def build_prompt(tasks) -> PromptPair:
    """Pair the system prompt with a rendered user prompt."""
    tasks = list(tasks)
    return PromptPair(
        system_text=render_system_prompt(),
        user_text=render_user_prompt(tasks),
        task_refs=tuple((task.node, task.t) for task in tasks),
    )


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
