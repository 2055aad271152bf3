"""Tests for task construction, prompt rendering, and completion parsing."""
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill.graphs import build_graph, observed_layout
from graphfill.prompts import (
    CompletionParseError,
    NodeTask,
    build_prompt,
    build_task,
    parse_completion,
    render_system_prompt,
    render_user_prompt,
)

DATA = Path(__file__).parent / "data"

SYSTEM_SENTENCE = (
    "The spatiotemporal task is to predict the current number on a graph "
    "based on its previous value and the value of its neighbors."
)

REFERENCE_TASK = NodeTask(node=322, t=1439, previous=61.5, neighbor_values=(63.9, 57.4), precision=1)


class TestSystemPrompt:
    def test_exact_sentence(self):
        assert render_system_prompt() == SYSTEM_SENTENCE

    def test_idempotent(self):
        assert render_system_prompt() == render_system_prompt()

    def test_byte_length(self):
        # Length of the fixed sentence; guards against accidental edits.
        assert len(render_system_prompt().encode("utf-8")) == 127


class TestUserPrompt:
    def test_single_task_matches_golden(self):
        golden = (DATA / "prompt_single_golden.txt").read_text(encoding="utf-8")
        assert render_user_prompt([REFERENCE_TASK]) + "\n" == golden

    def test_empty_neighbors_render(self):
        task = NodeTask(node=4, t=2, previous=1.0, neighbor_values=(), precision=1)
        assert render_user_prompt([task]).endswith("Previous: 1.0, Neighbors: [].")

    def test_two_tasks_match_golden(self):
        golden = (DATA / "prompt_double_golden.txt").read_text(encoding="utf-8")
        tasks = [
            NodeTask(node=2, t=7, previous=3.0, neighbor_values=(1.5, 2.5), precision=1),
            NodeTask(node=5, t=7, previous=4.2, neighbor_values=(3.3,), precision=1),
        ]
        assert render_user_prompt(tasks) + "\n" == golden

    def test_precision_controls_decimals(self):
        task = NodeTask(node=0, t=1, previous=2.0, neighbor_values=(1.0,), precision=3)
        text = render_user_prompt([task])
        assert "Precision round to 3 decimal point." in text
        assert "Previous: 2.000, Neighbors: [1.000]." in text

    def test_empty_task_list_rejected(self):
        with pytest.raises(ValueError):
            render_user_prompt([])

    def test_mixed_time_rejected(self):
        a = NodeTask(node=0, t=1, previous=0.0, neighbor_values=(), precision=1)
        b = NodeTask(node=1, t=2, previous=0.0, neighbor_values=(), precision=1)
        with pytest.raises(ValueError, match="time"):
            render_user_prompt([a, b])

    def test_distinct_tasks_give_distinct_text(self):
        rng = np.random.default_rng(0)
        by_key = {}
        for _ in range(100):
            task = NodeTask(
                node=int(rng.integers(100)),
                t=int(rng.integers(100)),
                previous=round(float(rng.uniform(-50, 50)), 1),
                neighbor_values=tuple(round(float(v), 1) for v in rng.uniform(-9, 9, size=2)),
                precision=1,
            )
            key = (task.node, task.t, task.previous, task.neighbor_values)
            by_key[key] = render_user_prompt([task])
        assert len(set(by_key.values())) == len(by_key)
        # Single-field changes also alter the text.
        tasks = [
            NodeTask(node=1, t=5, previous=1.0, neighbor_values=(2.0,), precision=1),
            NodeTask(node=2, t=5, previous=1.0, neighbor_values=(2.0,), precision=1),
            NodeTask(node=1, t=6, previous=1.0, neighbor_values=(2.0,), precision=1),
            NodeTask(node=1, t=5, previous=1.1, neighbor_values=(2.0,), precision=1),
            NodeTask(node=1, t=5, previous=1.0, neighbor_values=(2.1,), precision=1),
        ]
        rendered = [render_user_prompt([t]) for t in tasks]
        assert len(set(rendered)) == len(rendered)

    def test_prompt_pair_covers_tasks_in_order(self):
        tasks = [
            NodeTask(node=3, t=9, previous=0.5, neighbor_values=(1.0,), precision=1),
            NodeTask(node=8, t=9, previous=0.7, neighbor_values=(), precision=1),
        ]
        pair = build_prompt(tasks)
        assert pair.system_text == SYSTEM_SENTENCE
        assert pair.user_text.index("Entity index: 3") < pair.user_text.index("Entity index: 8")


class TestBuildTask:
    """A task is a layout row: a missing node with an observed neighbor, and only its observed neighbors."""

    def setup_method(self):
        self.g = build_graph(3, [(0, 1), (1, 2)])

    def test_path_graph_middle_missing(self):
        layout = observed_layout(self.g, np.array([True, False, True]))
        task = build_task(layout, 0, 4, previous=3.5, processed=np.array([2.0, 0.0, 4.0]), precision=1)
        assert (task.node, task.t, task.previous, task.neighbor_values) == (1, 4, 3.5, (2.0, 4.0))

    def test_observed_neighbors_filtered_and_ordered(self):
        g = build_graph(5, [(2, 0), (2, 3), (2, 4), (2, 1)])
        layout = observed_layout(g, np.array([True, False, False, True, False]))
        assert layout.nodes.tolist() == [2]
        task = build_task(layout, 0, 0, 0.0, np.arange(5, dtype=float), 1)
        assert (task.node, task.neighbor_values) == (2, (0.0, 3.0))

    def test_no_observed_neighbors_empty(self):
        # Node 2's one neighbor is missing: the layout gives it no row, so no task is built for it.
        layout = observed_layout(self.g, np.array([True, False, False]))
        assert (layout.nodes.tolist(), layout.isolated.tolist()) == ([1], [2])


class TestParseCompletion:
    def test_bare_number(self):
        assert parse_completion("58.9", 1) == [58.9]

    def test_prose_wrapped_number(self):
        assert parse_completion("Prediction: 58.9", 1) == [58.9]

    def test_nan_is_no_numeral_so_the_count_mismatches(self):
        message = re.escape("expected 1 numeric value(s), found 0 in 'NaN'")
        with pytest.raises(CompletionParseError, match=message) as err:
            parse_completion("NaN", 1)
        assert (err.value.found, err.value.expected) == (0, 1)

    def test_numeral_past_the_largest_float_fails(self):
        # 400 digits parse as a number, whose float() overflows to inf.
        with pytest.raises(CompletionParseError, match="non-finite numeric '9{400}' in completion") as err:
            parse_completion("Prediction: " + "9" * 400, 1)
        assert (err.value.found, err.value.expected) == (1, 1)

    def test_count_mismatch_reports_found(self):
        with pytest.raises(CompletionParseError) as err:
            parse_completion("1.0 and 2.0", 1)
        assert err.value.found == 2
        assert err.value.expected == 1

    def test_negative_and_bare_decimal(self):
        assert parse_completion("-3.25", 1, precision=2) == [-3.25]
        assert parse_completion(".5", 1, precision=1) == [0.5]

    def test_rounds_to_precision(self):
        assert parse_completion("58.96", 1, precision=1) == [59.0]

    def test_multiple_values_in_order(self):
        assert parse_completion("4.0\n-1.5\n2.0", 3) == [4.0, -1.5, 2.0]

    def test_empty_text_fails(self):
        with pytest.raises(CompletionParseError):
            parse_completion("no numbers here", 1)

    def test_round_trip_with_rendered_values(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            k = int(rng.integers(1, 6))
            values = [round(float(v), 1) for v in rng.uniform(-100, 100, size=k)]
            text = "\n".join(f"{v:.1f}" for v in values)
            assert parse_completion(text, k, precision=1) == values

    def test_decimal_separator_is_point(self):
        task = NodeTask(node=0, t=0, previous=1234.5, neighbor_values=(0.5,), precision=1)
        text = render_user_prompt([task])
        assert "1234.5" in text
        assert "," not in text.split("Previous: ")[1].split(",")[0]


# Prose around the numbers: no digits, signs or points, so it holds no number of its own.
PROSE = st.text(st.characters(categories=("L", "Zs"), include_characters=",:;!?()\n"), max_size=12)


@st.composite
def completions(draw):
    """Values rendered at precision p, each wrapped in generated prose, and the text they make."""
    precision = draw(st.integers(0, 6))
    values = draw(st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=6))
    rendered = [f"{v:.{precision}f}" for v in values]
    text = draw(PROSE) + "".join(f" {r} " + draw(PROSE) for r in rendered)
    return text, [float(r) for r in rendered], precision


@settings(max_examples=300, deadline=None)
@given(completions(), st.integers(-3, 3))
def test_rendered_values_parse_back_or_report_the_count(completion, offset):
    text, values, precision = completion
    expected = len(values) + offset
    if expected < 1:
        return
    if offset == 0:
        assert parse_completion(text, expected, precision) == values
        return
    with pytest.raises(CompletionParseError) as err:
        parse_completion(text, expected, precision)
    assert (err.value.found, err.value.expected) == (len(values), expected)
