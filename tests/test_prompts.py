"""Tests for task construction, prompt rendering, and completion parsing."""
from pathlib import Path

import numpy as np
import pytest

from graphfill.graphs import build_graph
from graphfill.prompts import (
    CompletionParseError,
    NodeTask,
    build_prompt,
    build_task,
    parse_completion,
    render_system_prompt,
    render_user_prompt,
)
from graphfill.signals import ObservationModel

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
    def setup_method(self):
        self.g = build_graph(3, [(0, 1), (1, 2)])

    def test_path_graph_middle_missing(self):
        model = ObservationModel(
            observed=np.array([True, False, True]), noise_variance=0.0, seed=0
        )
        task = build_task(1, 4, prev_estimate=3.5, processed_obs=np.array([2.0, 0.0, 4.0]),
                          g=self.g, model=model, precision=1)
        assert task.neighbor_values == (2.0, 4.0)
        assert task.previous == 3.5

    def test_observed_neighbors_filtered_and_ordered(self):
        g = build_graph(5, [(2, 0), (2, 3), (2, 4), (2, 1)])
        model = ObservationModel(
            observed=np.array([True, False, False, True, False]), noise_variance=0.0, seed=0
        )
        task = build_task(2, 0, 0.0, np.arange(5, dtype=float), g, model, 1)
        assert task.neighbor_values == (0.0, 3.0)

    def test_no_observed_neighbors_empty(self):
        model = ObservationModel(
            observed=np.array([True, False, False]), noise_variance=0.0, seed=0
        )
        task = build_task(2, 0, 1.0, np.zeros(3), self.g, model, 1)
        assert task.neighbor_values == ()

    def test_observed_node_rejected(self):
        model = ObservationModel(
            observed=np.array([True, False, True]), noise_variance=0.0, seed=0
        )
        with pytest.raises(ValueError, match="observed"):
            build_task(0, 0, 1.0, np.zeros(3), self.g, model, 1)


class TestParseCompletion:
    def test_bare_number(self):
        assert parse_completion("58.9", 1) == [58.9]

    def test_prose_wrapped_number(self):
        assert parse_completion("Prediction: 58.9", 1) == [58.9]

    def test_nan_fails(self):
        with pytest.raises(CompletionParseError):
            parse_completion("NaN", 1)

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
