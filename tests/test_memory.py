"""Memory guards. Set-up: while the Laplacian is decomposed, no dense adjacency is held beside it, and no graph
loader needs more memory than ``eigh``. The online loop: its bookkeeping holds a bounded block of steps, not the
horizon, and the token count's widths hold one temporary the size of their input."""
import tracemalloc

import numpy as np
import pytest
from helpers import write_knn_run_fixture, write_run_fixture

from graphfill import baselines as bl
from graphfill import runner
from graphfill.prompts import fixed_widths
from graphfill.runner import RunConfig, prepare_run

N = 300
MATRIX_BYTES = N * N * 8  # one n x n float64 array
# Bounds in n x n matrices, on what is alive when eigh is called and on set-up's peak. Traced by tracemalloc
# (numpy's working copy of L inside eigh and LAPACK's workspace are not): L and the eigenvector matrix; the
# sign rule after eigh holds a few vectors of n entries. Besides them:
# - the kNN graph's O(n k) edges and the O(n t) signal add about 0.2, for 2.21 measured (4.22 when the sign rule
#   made two n x n temporaries after eigh);
# - the dense Erdos-Renyi edge list (p = 0.25, 11451 edges) keeps 0.51 in CSR form, and the loader's parse and
#   sort stay under eigh's 2.74 (5.34 when the loader filled a dense adjacency, its peak; 2.08 of it at eigh).
# A dense adjacency held through eigh adds one matrix to both figures.
BOUNDS = {"knn": (1.5, 3.0), "er": (2.0, 3.5)}


def fixture_config(tmp_path, source, test_steps=20):
    if source == "knn":
        coordinates, signal_path = write_knn_run_fixture(tmp_path, n=N, k=8, band=5, t_steps=20 + test_steps)
        graph = {"source": "knn", "coordinates": coordinates, "k": 8}
    else:
        edge_list, signal_path, _, _ = write_run_fixture(tmp_path, n=N, band=5, t_steps=40)
        graph = {"source": "edges", "edge_list": edge_list}
    return RunConfig.from_dict({
        "graph": graph,
        "signal": {"path": signal_path},
        "t_split": 20,
        "baselines": ["glms", "gnlms", "last_value", "neighbor_mean"],
    })


@pytest.mark.parametrize("source", sorted(BOUNDS))
def test_prepare_run_holds_no_dense_adjacency(tmp_path, monkeypatch, source):
    cfg = fixture_config(tmp_path, source)
    at_eigh_matrices, peak_matrices = BOUNDS[source]
    eigh, at_eigh = np.linalg.eigh, []

    def traced_eigh(a):
        at_eigh.append(tracemalloc.get_traced_memory()[0])
        return eigh(a)

    monkeypatch.setattr(np.linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        ctx = prepare_run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ctx.graph.n_nodes == N and len(at_eigh) == 1
    assert at_eigh[0] < at_eigh_matrices * MATRIX_BYTES, f"{at_eigh[0] / MATRIX_BYTES:.2f} n x n matrices alive at eigh"
    assert peak < peak_matrices * MATRIX_BYTES, f"set-up peaked at {peak / MATRIX_BYTES:.2f} n x n matrices"


# Bound on the walk's traced peak, in elements of a block's estimates, beyond what is alive when it starts, the
# methods' fixed parts (built after training: the primary's filter and the baselines' bands) and its results (the
# score rows, which hold the horizon by design). Within it: the block and its token rows, and
# what settling it makes (the difference rows, and the token count's widths). It does not grow with the horizon;
# a buffer of the whole horizon's estimates (5 methods x n x steps: 9 blocks at 200 steps) exceeds it.
WALK_BLOCKS = 4


@pytest.mark.parametrize("test_steps", [200, 800])
def test_run_repeat_holds_a_block_not_the_horizon(tmp_path, monkeypatch, test_steps):
    cfg = fixture_config(tmp_path, "knn", test_steps)
    ctx = prepare_run(cfg)
    at_start, fixed_parts = [], []

    def reset_after(fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            tracemalloc.reset_peak()
            at_start.append(tracemalloc.get_traced_memory()[0])
            return out
        return wrapped

    def kept(fn):
        def wrapped(*args, **kwargs):
            op = fn(*args, **kwargs)
            fixed_parts.append(op.vectors.nbytes + op.scale.nbytes)
            return op
        return wrapped

    monkeypatch.setattr(runner, "mask_and_train", reset_after(runner.mask_and_train))
    for module, name in ((runner, "filter_operator"), (bl, "glms_init"), (bl, "gnlms_init")):
        monkeypatch.setattr(module, name, kept(getattr(module, name)))
    methods = (runner.PRIMARY_METHOD, *cfg.baselines)
    tracemalloc.start()
    try:
        result = runner.run_repeat(ctx, cfg, 0, methods)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.token_estimate > 0 and len(fixed_parts) == 3
    results = sum(rows.nbytes for rows in result.scores.values())
    walk = peak - at_start[0] - sum(fixed_parts) - results
    block = runner.BUDGET * 8
    assert walk < WALK_BLOCKS * block, f"the walk held {walk / block:.2f} blocks beyond its results"


@pytest.mark.parametrize("precision", [0, 1, 3])
def test_fixed_widths_holds_its_widths_and_one_temporary(precision):
    # The widths and one array the size of the input, at 8 bytes an entry each, plus the few that format.
    values = np.random.default_rng(1).normal(0.0, 100.0, 100_000)
    values[::97] = 9.96  # carries into a new digit at precision 0 and 1
    tracemalloc.start()
    try:
        widths = fixed_widths(values, precision)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert widths.tolist()[:2] == [len(f"{v:.{precision}f}") for v in values[:2].tolist()]
    assert peak < 2.25 * values.nbytes, f"fixed_widths peaked at {peak / values.nbytes:.2f} inputs"
