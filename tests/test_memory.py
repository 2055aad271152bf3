"""Memory guard for set-up: while the Laplacian is decomposed, no dense adjacency is held beside it."""
import tracemalloc

import numpy as np
from helpers import write_knn_run_fixture

from graphfill.runner import RunConfig, prepare_run

N = 300
MATRIX_BYTES = N * N * 8  # one n x n float64 array
# Traced by tracemalloc (numpy's working copy of L inside eigh and LAPACK's workspace are not): L and the
# eigenvector matrix, and right after eigh the sign rule's two temporaries, which at this n are one block the size
# of the whole matrix (|U| and argmax's contiguous copy of it). The O(n k) edges and the O(n t) signal add about
# 0.3. That is 4.34 matrices; a dense adjacency held through eigh adds one more (5.27 with it).
PEAK_MATRICES = 4.8


def test_prepare_run_holds_no_dense_adjacency(tmp_path, monkeypatch):
    coordinates, signal_path = write_knn_run_fixture(tmp_path, n=N, k=8, band=5, t_steps=40)
    cfg = RunConfig.from_dict({
        "graph": {"source": "knn", "coordinates": coordinates, "k": 8},
        "signal": {"path": signal_path},
        "t_split": 20,
        "baselines": ["glms", "gnlms", "last_value", "neighbor_mean"],
    })
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
    assert at_eigh[0] < 1.5 * MATRIX_BYTES, f"{at_eigh[0] / MATRIX_BYTES:.2f} n x n matrices alive at eigh"
    assert peak < PEAK_MATRICES * MATRIX_BYTES, f"set-up peaked at {peak / MATRIX_BYTES:.2f} n x n matrices"
