"""Property tests: the array-shaped mock step equals the rendered text path, value for value and token for token."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphfill.graphs import build_graph, neighbors
from graphfill.predictors import PredictorConfig, estimate_tokens, mock_predict, mock_step, predict_batch
from graphfill.prompts import build_task, fixed_widths, prompt_groups, render_user_prompt, round_fixed
from graphfill.signals import ObservationModel

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


def hexes(values):
    return [float(v).hex() for v in values]  # tells -0.0 from 0.0


@settings(max_examples=300, deadline=None)
@given(steps())
def test_array_step_equals_text_path(step):
    g, model, previous, processed, t, precision, multi_task_prompt = step
    layout = g.observed_layout(model.observed)
    missing = np.flatnonzero(~model.observed).tolist()
    assert sorted(layout.nodes.tolist() + layout.isolated.tolist()) == missing
    for node, count, row in zip(layout.nodes.tolist(), layout.counts.tolist(), layout.index.tolist()):
        assert row[1:1 + count] == [j for j in neighbors(g, node) if model.observed[j]]
    for node in layout.isolated.tolist():
        assert not any(model.observed[j] for j in neighbors(g, node))

    values, tokens = mock_step(layout, t, previous[layout.nodes], processed, precision, multi_task_prompt)
    tasks = [build_task(i, t, float(previous[i]), processed, g, model, precision) for i in layout.nodes.tolist()]
    assert hexes(values) == hexes(mock_predict(task) for task in tasks)
    assert tokens == rendered_tokens(tasks, multi_task_prompt)
    if tasks:
        sent = predict_batch(tasks, PredictorConfig(multi_task_prompt=multi_task_prompt))
        assert hexes(values) == hexes(r.value for r in sent)
        assert not any(r.fallback for r in sent)


@pytest.mark.parametrize("precision", [0, 1, 2, 3])
@pytest.mark.parametrize("value", [-0.04, 9.96, 99.95, 0.25, 2.675, -2.675])
def test_rounding_edge_cases(value, precision):
    # Node 0 is missing with observed neighbor 1; previous and neighbor share the value, so the mock's mean is it.
    g = build_graph(2, [(0, 1)])
    model = ObservationModel(np.array([False, True]), 0.0, 0)
    processed = np.array([0.0, value])
    values, tokens = mock_step(g.observed_layout(model.observed), 7, np.array([value]), processed, precision, False)
    task = build_task(0, 7, value, processed, g, model, precision)
    assert hexes(values) == hexes([round(value, precision)]) == hexes([mock_predict(task)])
    assert tokens == rendered_tokens([task], False)


def test_no_missing_node_has_no_tokens():
    g = build_graph(2, [(0, 1)])
    layout = g.observed_layout(np.array([True, True]))
    values, tokens = mock_step(layout, 0, np.zeros(0), np.zeros(2), 1, True)
    assert (values.tolist(), tokens) == ([], 0)


def test_layout_is_kept_for_the_last_mask_and_read_only():
    g = build_graph(3, [(0, 1), (1, 2)])
    first = g.observed_layout(np.array([True, False, True]))
    assert g.observed_layout(np.array([True, False, True])) is first
    assert first.nodes.tolist() == [1] and first.index.tolist() == [[3, 0, 2]]
    with pytest.raises(ValueError):
        first.index[0, 0] = 0
    assert g.observed_layout(np.array([False, False, True])).isolated.tolist() == [0]


def test_long_rows_sum_left_to_right():
    # Eleven observed neighbors: numpy's blocked row sum would differ from sum() in the last bits.
    rng = np.random.default_rng(5)
    g = build_graph(12, [(i, j) for i in range(12) for j in range(i + 1, 12)])
    model = ObservationModel(np.arange(12) > 0, 0.0, 0)
    layout = g.observed_layout(model.observed)
    for _ in range(50):
        previous, processed = rng.uniform(-1e4, 1e4, 12), rng.uniform(-1e4, 1e4, 12)
        values, _ = mock_step(layout, 0, previous[layout.nodes], processed, 17, False)
        assert hexes(values) == hexes([mock_predict(build_task(0, 0, previous[0], processed, g, model, 17))])


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
