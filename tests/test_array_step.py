"""Property tests: the array-shaped mock step equals the rendered text path, value for value and token for token."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from helpers import seed_build_task, write_knn_run_fixture
from hypothesis import strategies as st

from graphfill.graphs import build_graph, knn_graph, load_coordinates_csv, neighbors, observed_layout
from graphfill.predictors import PredictorConfig, estimate_tokens, mock_predict, mock_step, mock_tokens, predict_batch
from graphfill.prompts import build_task, fixed_widths, prompt_groups, render_user_prompt, round_fixed
from graphfill.signals import ObservationModel, load_signal_csv, sample_mask

# Negative values, values that round to -0.0, carries (9.96 -> 10.0, 99.95) and half-even ties.
SPECIAL = [-0.04, -0.0, 0.0, 0.05, -0.05, 0.25, -0.25, 2.675, -2.675, 9.96, 99.95, -99.95, 0.5, 1.5, 1e6]
# Precision 17 keeps every bit, so a sum taken in another order shows.
PRECISIONS = st.one_of(st.integers(0, 3), st.just(17))
VALUES = st.one_of(st.sampled_from(SPECIAL), st.floats(-1e4, 1e4, allow_nan=False, allow_infinity=False))
# Past 22 decimals 10**p is no longer an exact double.
HELPER_PRECISIONS = [0, 1, 2, 3, 15, 16, 17, 25]


def around(values):
    """Each value and its neighbors one ulp below and above."""
    values = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):  # past the largest float is inf
        return np.concatenate((values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)))


def edge_values(precision):
    """Carries into a new digit (10**m - half a last digit), .5 ties (k + 0.5) / 10**p, values a quarter
    digit past k / 10**p (no tie: rounded by scaling) and the extremes, each ± 1 ulp."""
    half = 0.5 * 10.0 ** -precision
    carries = [10.0 ** m - half for m in range(16)]
    ties = [(k + 0.5) / 10.0 ** precision for k in (0, 1, 2, 7, 26, 267, 999, 10 ** 6, 2 ** 40, 2 ** 51)]
    quarters = [(k + 0.25) / 10.0 ** precision for k in range(0, 2000, 37)]
    extremes = [0.0, -0.0, 5e-324, 1e300, -1e300, 2.0 ** 53 + 2, 0.25, 2.675, 9.96, 99.95, 1e15, 1e16]
    signed = np.array(carries + ties + quarters + extremes)
    return around(np.concatenate((signed, -signed)))


@st.composite
def steps(draw):
    """A graph, a mask with at least one observed node, and one step's numbers."""
    n = draw(st.integers(1, 12))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # A complete graph gives rows of up to 11 neighbors, past numpy's 8-wide pairwise summation blocks.
    edges = pairs if draw(st.booleans()) else [pair for pair in pairs if draw(st.booleans())]
    observed = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    previous = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    processed = np.array(draw(st.lists(VALUES, min_size=n, max_size=n)))
    return (build_graph(n, edges), ObservationModel(np.array(observed), 0.0, 0), previous, processed,
            draw(st.integers(0, 10**6)), draw(PRECISIONS), draw(st.booleans()))


def rendered_tokens(tasks, multi_task_prompt):
    """Token estimate of the text path: each group's rendered prompt plus the mock's completion."""
    return sum(
        estimate_tokens(render_user_prompt(group))
        + estimate_tokens("\n".join(f"{mock_predict(task):.{task.precision}f}" for task in group))
        for group in prompt_groups(tasks, multi_task_prompt)
    )


def block_tokens(layout, ts, previous, processed, answers, precision, multi_task_prompt):
    """``mock_tokens`` of a block of steps at times ``ts``; ``previous`` and ``processed`` hold a row of n per step."""
    rows = np.asarray(previous, dtype=np.float64)[:, layout.nodes], np.asarray(processed)[:, layout.neighbors]
    return mock_tokens(layout, np.array(ts), rows[0], rows[1], np.asarray(answers, dtype=np.float64),
                       precision, multi_task_prompt)


def hexes(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


@settings(max_examples=300, deadline=None)
@given(steps())
def test_array_step_equals_text_path(step):
    g, model, previous, processed, t, precision, multi_task_prompt = step
    layout = observed_layout(g, model.observed)
    missing = np.flatnonzero(~model.observed).tolist()
    assert sorted(layout.nodes.tolist() + layout.isolated.tolist()) == missing
    k = layout.neighbors.size
    for node, count, column in zip(layout.nodes.tolist(), layout.counts.tolist(), layout.slots.T.tolist()):
        assert layout.neighbors[column[1:1 + count]].tolist() == [j for j in neighbors(g, node) if model.observed[j]]
        assert column[0] == k and column[1 + count:] == [k] * (len(column) - 1 - count)
    for node in layout.isolated.tolist():
        assert not any(model.observed[j] for j in neighbors(g, node))

    values = mock_step(layout, previous[layout.nodes], processed[layout.neighbors], precision)
    tokens = block_tokens(layout, [t], [previous], [processed], [values], precision, multi_task_prompt)
    # The reference tasks come from the adjacency and the mask, not from the layout the array step reads.
    a = g.adjacency
    tasks = [seed_build_task(i, t, float(previous[i]), processed, a, model.observed, precision)
             for i in layout.nodes.tolist()]
    built = [build_task(layout, r, t, float(previous[i]), processed, precision) for r, i in enumerate(layout.nodes)]
    assert [repr(task) for task in built] == [repr(task) for task in tasks]
    assert hexes(values) == hexes(mock_predict(task) for task in tasks)
    assert tokens == rendered_tokens(tasks, multi_task_prompt)
    if tasks:
        sent = predict_batch(tasks, PredictorConfig(multi_task_prompt=multi_task_prompt))
        assert hexes(values) == hexes(r.value for r in sent)
        assert not any(r.fallback for r in sent)


@settings(max_examples=100, deadline=None)
@given(steps(), st.data())
@pytest.mark.parametrize("multi_task_prompt", [False, True])
@pytest.mark.parametrize("first_t", [98, 998])  # the time index gains a digit inside the block
def test_block_tokens_equal_text_path(first_t, multi_task_prompt, step, data):
    g, model, previous, processed, _, precision, _ = step
    layout = observed_layout(g, model.observed)
    ts = list(range(first_t, first_t + 4))
    rows = [(previous, processed)] + [
        tuple(np.array(data.draw(st.lists(VALUES, min_size=g.n_nodes, max_size=g.n_nodes))) for _ in range(2))
        for _ in ts[1:]]
    answers = [mock_step(layout, prev[layout.nodes], proc[layout.neighbors], precision) for prev, proc in rows]
    tokens = block_tokens(layout, ts, *zip(*rows), answers, precision, multi_task_prompt)
    a = g.adjacency
    assert tokens == sum(
        rendered_tokens([seed_build_task(i, t, float(prev[i]), proc, a, model.observed, precision)
                         for i in layout.nodes.tolist()], multi_task_prompt)
        for t, (prev, proc) in zip(ts, rows))


@pytest.mark.parametrize("precision", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [-0.04, 9.96, 99.95, 0.25, 2.675, -2.675])
def test_rounding_edge_cases(value, precision):
    # Node 0 is missing with observed neighbor 1; previous and neighbor share the value, so the mock's mean is it.
    g = build_graph(2, [(0, 1)])
    model = ObservationModel(np.array([False, True]), 0.0, 0)
    processed = np.array([0.0, value])
    layout = observed_layout(g, model.observed)
    values = mock_step(layout, np.array([value]), processed[layout.neighbors], precision)
    tokens = block_tokens(layout, [7], [[value, 0.0]], [processed], [values], precision, False)
    task = seed_build_task(0, 7, value, processed, g.adjacency, model.observed, precision)
    assert hexes(values) == hexes([round(value, precision)]) == hexes([mock_predict(task)])
    assert tokens == rendered_tokens([task], False)


def test_no_missing_node_has_no_tokens():
    g = build_graph(2, [(0, 1)])
    layout = observed_layout(g, np.array([True, True]))
    values = mock_step(layout, np.zeros(0), np.zeros(0), 1)
    zeros = np.zeros((2, 2))
    assert (values.tolist(), block_tokens(layout, [0, 1], zeros, zeros, np.zeros((2, 0)), 1, True)) == ([], 0)


def test_layout_is_read_only():
    g = build_graph(3, [(0, 1), (1, 2)])
    layout = observed_layout(g, np.array([True, False, True]))
    assert layout.nodes.tolist() == [1] and layout.slots.tolist() == [[2], [0], [1]]
    with pytest.raises(ValueError):
        layout.slots[0, 0] = 0
    assert observed_layout(g, np.array([False, False, True])).isolated.tolist() == [0]


def test_long_rows_sum_left_to_right():
    # Eleven observed neighbors: numpy's blocked row sum would differ from sum() in the last bits.
    rng = np.random.default_rng(5)
    g = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    model = ObservationModel(np.arange(12) > 0, 0.0, 0)
    layout, a = observed_layout(g, model.observed), g.adjacency
    for _ in range(50):
        previous, processed = rng.uniform(-1e4, 1e4, 12), rng.uniform(-1e4, 1e4, 12)
        values = mock_step(layout, previous[layout.nodes], processed[layout.neighbors], 17)
        assert hexes(values) == hexes([mock_predict(seed_build_task(0, 0, previous[0], processed, a, model.observed, 17))])


def test_prompts_and_tokens_equal_recorded_values(tmp_path):
    # A kNN fixture with rows of up to 11 observed neighbors. The digest of eleven steps' rendered prompts and the
    # block's token counts (precision 0 and 2, a prompt per task and one per step) were recorded from the
    # node-major neighbor index that the slot table replaced.
    coordinates, signal_path = write_knn_run_fixture(tmp_path, n=60, k=8, band=5, t_steps=12)
    g = knn_graph(load_coordinates_csv(coordinates, 60), 8)
    x = load_signal_csv(signal_path, "nodes-as-rows").values
    layout = observed_layout(g, sample_mask(60, 0.8, seed=4).observed)
    assert layout.counts.max() == 11
    digest = hashlib.sha256()
    for t in range(1, 12):
        tasks = [build_task(layout, r, 95 + t, float(x[i, t - 1]), x[:, t], 2) for r, i in enumerate(layout.nodes)]
        digest.update(render_user_prompt(tasks).encode())
    assert digest.hexdigest()[:16] == "2b5d713e1e51cb95"
    previous, neighbor_values = x[layout.nodes, :-1].T, x[layout.neighbors, 1:].T
    answers = np.round(x[layout.nodes, 1:].T, 2)
    tokens = [mock_tokens(layout, np.arange(96, 107), previous, neighbor_values, answers, precision, multi_task_prompt)
              for precision in (0, 2) for multi_task_prompt in (False, True)]
    assert tokens == [8219, 3189, 9114, 4102]


def check_helpers(values, precision):
    values = np.asarray(values, dtype=np.float64)
    assert fixed_widths(values, precision).tolist() == [len(f"{v:.{precision}f}") for v in values.tolist()]
    assert hexes(round_fixed(values, precision)) == hexes(round(v, precision) for v in values.tolist())


@pytest.mark.parametrize("precision", HELPER_PRECISIONS)
def test_helpers_at_carries_ties_and_extremes(precision):
    check_helpers(edge_values(precision), precision)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.one_of(st.floats(), st.floats(-1e4, 1e4), st.sampled_from(edge_values(1).tolist())), max_size=20),
       st.sampled_from(HELPER_PRECISIONS))
def test_helpers_equal_format_and_round(values, precision):
    check_helpers(around(values), precision)
