"""Memory guard for set-up: while the Laplacian is decomposed, no dense adjacency is held beside it, and no graph
loader needs more memory than ``eigh``."""
import tracemalloc

import numpy as np
import pytest
from helpers import write_knn_run_fixture, write_run_fixture

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


def fixture_config(tmp_path, source):
    if source == "knn":
        coordinates, signal_path = write_knn_run_fixture(tmp_path, n=N, k=8, band=5, t_steps=40)
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
