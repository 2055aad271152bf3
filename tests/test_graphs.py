"""Tests for graph construction, Laplacian, Fourier basis, and kNN graphs."""
import math
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from helpers import (
    random_connected_graph,
    seed_basis_ref,
    seed_build_graph,
    seed_haversine_km,
    seed_knn_candidates,
    seed_laplacian,
    seed_observed_layout,
    seed_sign_flips,
)
from hypothesis import given, settings
from hypothesis import strategies as st

import graphfill
from graphfill import graphs
from graphfill.graphs import (
    GftBasis,
    build_graph,
    gft,
    knn_graph,
    laplacian,
    load_coordinates_csv,
    load_edge_list_csv,
    neighbors,
    observed_layout,
    slot_sums,
)


class TestBuildGraph:
    def test_path_graph(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        expected = np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        assert np.array_equal(g.adjacency, expected)

    def test_empty_edges(self):
        g = build_graph(2, [])
        assert np.array_equal(g.adjacency, np.zeros((2, 2)))

    def test_weighted_edge_symmetric(self):
        g = build_graph(3, [(0, 1, 2.5)])
        assert g.adjacency[0, 1] == 2.5
        assert g.adjacency[1, 0] == 2.5
        assert g.adjacency.sum() == 5.0

    def test_duplicate_edge_keeps_last_weight(self):
        g = build_graph(2, [(0, 1, 1.0), (1, 0, 3.0)])
        assert g.adjacency[0, 1] == 3.0

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            build_graph(3, [(1, 1)])

    @pytest.mark.parametrize("j", [3, -1, 10**20, 2**64 - 1])  # past int64 too: compared before any conversion
    def test_out_of_range_rejected(self, j):
        with pytest.raises(ValueError, match=re.escape(f"edge (0, {j}) out of range for n=3")):
            build_graph(3, [(0, j)])

    def test_non_integer_index_rejected_not_truncated(self):
        with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
            build_graph(3, [(0, 1), (0, 1.5)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_graph(3, [(0, 1, 0.0)])

    @pytest.mark.parametrize("w", [math.inf, -math.inf, math.nan])
    def test_non_finite_weight_rejected(self, w):
        with pytest.raises(ValueError, match=re.escape(f"edge (0, 1) has non-finite weight {w}")):
            build_graph(3, [(0, 1, 1.0), (0, 1, w)])

    @pytest.mark.parametrize("shift", range(4))
    def test_first_failing_edge_in_input_order_is_named(self, shift):
        # One edge of each fault, after a good one, in each rotation; an edge with two faults is named by the first.
        faulty = [((2, 5, 0.0), "edge (2, 5) out of range for n=3"), ((1, 1, math.nan), "self-loop at node 1"),
                  ((0, 2, -math.inf), "edge (0, 2) has non-finite weight -inf"),
                  ((2, 1, -0.0), "edge (2, 1) has nonpositive weight -0.0")]
        faulty = faulty[shift:] + faulty[:shift]
        with pytest.raises(ValueError, match=re.escape(faulty[0][1])):
            build_graph(3, [(0, 1, 1.0)] + [edge for edge, _ in faulty])

    def test_keeps_no_array_of_the_caller(self):
        i, j, w = np.array([2, 0]), np.array([0, 1]), np.array([1.5, 0.5])
        g = graphs.Graph(3, i, j, w)
        i[0], w[:] = 1, 9.0
        assert g.indices.tolist() == [1, 2, 0, 0] and g.weights.tolist() == [0.5, 1.5, 0.5, 1.5]
        assert not any(np.shares_memory(a, b) for a in (g.indices, g.weights) for b in (i, j, w))

    def test_adjacency_read_only(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0

    def test_keeps_the_edges_from_both_ends_in_csr_form(self):
        g = build_graph(4, [(2, 0, 1.5), (0, 1), (1, 3, 0.25)])
        assert g.n_nodes == 4
        assert g.indptr.tolist() == [0, 2, 4, 5, 6]
        assert g.indices.tolist() == [1, 2, 0, 3, 0, 1]  # each row's neighbors ascend
        assert g.weights.tolist() == [1.0, 1.5, 1.0, 0.25, 1.5, 0.25]
        assert not any(a.flags.writeable for a in (g.indptr, g.indices, g.weights))
        with pytest.raises(AttributeError):
            g.weights = np.ones(6)

    def test_adjacency_is_built_anew_from_the_edges(self):
        a = np.zeros((5, 5))
        a[0, 3] = a[3, 0] = 0.5
        a[1, 2] = a[2, 1] = 3.0
        g = build_graph(5, [(3, 0, 0.5), (1, 2, 3.0)])
        first, second = g.adjacency, g.adjacency
        assert first.tobytes() == a.tobytes() and first is not second and not np.shares_memory(first, second)

    def test_invariants_on_random_graphs(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            n = int(rng.integers(2, 15))
            g = random_connected_graph(n, rng)
            a = g.adjacency
            assert np.array_equal(a, a.T)
            assert np.all(np.diag(a) == 0)
            assert np.all(a >= 0)


class TestLaplacian:
    def test_path_graph_p3(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        expected = np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float)
        assert np.array_equal(laplacian(g), expected)

    def test_isolated_node(self):
        g = build_graph(1, [])
        assert np.array_equal(laplacian(g), np.zeros((1, 1)))

    def test_weighted_pair(self):
        g = build_graph(2, [(0, 1, 2.0)])
        assert np.array_equal(laplacian(g), np.array([[2, -2], [-2, 2]], dtype=float))

    @pytest.mark.parametrize("n", [1, 2, 9, 40, 130, 300])  # past numpy's 8-wide and 128-element summation blocks
    def test_bytes_equal_the_dense_rule(self, n):
        rng = np.random.default_rng(n)
        edges = [(i, j, float(rng.uniform(0.01, 3.0) * 10.0 ** rng.integers(-4, 5)))
                 for i in range(n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.3]  # node n - 1 is isolated
        edges += [(j, i, 2.0 * w) for i, j, w in edges[::5]]  # a repeated pair, either way round: the last weight wins
        a = np.zeros((n, n))
        for i, j, w in edges:
            a[i, j] = a[j, i] = w
        g = build_graph(n, edges)
        assert g.adjacency.tobytes() == a.tobytes()
        lap = laplacian(g)
        assert lap.tobytes() == seed_laplacian(a).tobytes()
        assert math.copysign(1.0, lap[n - 1, n - 1]) == 1.0  # an isolated node's degree is +0.0, not -0.0

    def test_knn_bytes_equal_the_dense_rule(self):
        pts = [tuple(p) for p in np.random.default_rng(29).uniform(-60.0, 60.0, size=(300, 2)).tolist()]
        g = knn_graph(pts, 8)
        assert laplacian(g).tobytes() == seed_laplacian(g.adjacency).tobytes()

    def test_degree_overflow_names_the_node(self):
        g = build_graph(3, [(1, 0, 1e308), (1, 2, 1e308)])  # each weight is finite, node 1's degree is not
        with pytest.raises(ValueError, match=re.escape("node 1 has degree inf: the sum of its edge weights")):
            laplacian(g)

    def test_row_sums_and_psd_on_random_graphs(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            n = int(rng.integers(2, 20))
            g = random_connected_graph(n, rng)
            lap = laplacian(g)
            assert np.max(np.abs(lap.sum(axis=1))) < 1e-12
            for _ in range(100):
                x = rng.normal(size=n)
                assert x @ lap @ x >= -1e-10


class TestGft:
    def test_p2_closed_form(self):
        basis = gft(laplacian(build_graph(2, [(0, 1)])))
        assert np.allclose(basis.eigenvalues, [0.0, 2.0], atol=1e-12)
        r = 1.0 / math.sqrt(2.0)
        assert np.allclose(basis.eigenvectors[:, 0], [r, r], atol=1e-12)
        assert np.allclose(basis.eigenvectors[:, 1], [r, -r], atol=1e-12)

    def test_k3_spectrum(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        basis = gft(laplacian(g))
        assert np.allclose(basis.eigenvalues, [0.0, 3.0, 3.0], atol=1e-10)

    def test_reconstruction_oracle_random_graph(self):
        rng = np.random.default_rng(42)
        g = random_connected_graph(20, rng)
        lap = laplacian(g)
        basis = gft(lap)
        rebuilt = basis.eigenvectors @ np.diag(basis.eigenvalues) @ basis.eigenvectors.T
        assert np.max(np.abs(rebuilt - lap)) < 1e-8

    def test_orthonormality_and_nonnegative_eigenvalues(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            g = random_connected_graph(int(rng.integers(2, 25)), rng)
            basis = gft(laplacian(g))
            n = basis.n_nodes
            assert np.max(np.abs(basis.eigenvectors.T @ basis.eigenvectors - np.eye(n))) < 1e-8
            assert abs(basis.eigenvalues[0]) < 1e-8
            assert np.all(basis.eigenvalues >= -1e-10)
            assert np.all(np.diff(basis.eigenvalues) >= 0)

    def test_constant_eigenvector_on_connected_graph(self):
        rng = np.random.default_rng(5)
        g = random_connected_graph(12, rng)
        basis = gft(laplacian(g))
        ones = np.ones(12) / math.sqrt(12)
        assert np.allclose(basis.eigenvectors[:, 0], ones, atol=1e-8)

    def test_sign_convention_deterministic(self):
        rng = np.random.default_rng(9)
        g = random_connected_graph(10, rng)
        a = gft(laplacian(g))
        b = gft(laplacian(g))
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for k in range(10):
            col = a.eigenvectors[:, k]
            assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_sign_flip_matches_per_column_loop_on_tied_pivots(self, monkeypatch):
        rng = np.random.default_rng(71)
        for n in (2, 3, 7, 16, 40):
            u = rng.normal(size=(n, n))
            u[:, 0] = 0.0  # no pivot is negative: kept as it is
            for k in range(1, n):  # the largest magnitude twice, with opposite signs, in either order
                p, q = rng.choice(n, size=2, replace=False)
                u[p, k] = np.abs(u[:, k]).max() + rng.integers(0, 2)
                u[q, k] = -u[p, k]
            expected = u.copy()
            for k in range(n):
                pivot = int(np.argmax(np.abs(expected[:, k])))
                if expected[pivot, k] < 0:
                    expected[:, k] = -expected[:, k]
            monkeypatch.setattr(np.linalg, "eigh", lambda a, u=u: (np.arange(a.shape[0], dtype=float), u.copy()))
            got = gft(laplacian(build_graph(n, []))).eigenvectors
            assert got.tobytes() == expected.tobytes()
            assert not np.array_equal(got, u)

    @pytest.mark.parametrize("layout", [np.ascontiguousarray, np.asfortranarray, lambda u: np.repeat(u, 2, 1)[:, ::2]])
    def test_sign_flips_equal_the_whole_matrix_rule(self, layout):
        # In any memory layout, with the largest magnitude once or twice, of one sign or both: ties go to the first row.
        rng = np.random.default_rng(72)
        for n in (1, 2, 7, 40, 41):
            u = rng.normal(size=(n, n))
            for k in range(n):
                p, q = rng.choice(n, size=2)
                u[p, k] = np.abs(u[:, k]).max() * rng.choice([-1.0, 1.0])
                u[q, k] = -u[p, k] if rng.random() < 0.5 else u[p, k]
            assert np.array_equal(graphs._largest_entry_is_negative(layout(u)), seed_sign_flips(u))
        g = random_connected_graph(40, rng)
        lap = laplacian(g)
        raw = np.linalg.eigh(lap)[1]
        assert gft(lap).eigenvectors.tobytes() == (raw * np.where(seed_sign_flips(raw), -1.0, 1.0)).tobytes()

    def test_basis_ref_distinguishes_bases(self):
        a = gft(laplacian(build_graph(2, [(0, 1)])))
        b = gft(laplacian(build_graph(2, [(0, 1, 2.0)])))
        assert a.ref() == a.ref()
        assert a.ref() != b.ref()

    def test_adopts_eighs_outputs_and_copies_a_writeable_input(self):
        basis = gft(laplacian(random_connected_graph(12, np.random.default_rng(4))))
        for a in (basis.eigenvectors, basis.eigenvalues):
            assert a.flags.owndata and not a.flags.writeable
        adopted = GftBasis(basis.eigenvectors, basis.eigenvalues)
        assert adopted.eigenvectors is basis.eigenvectors and adopted.eigenvalues is basis.eigenvalues
        u, lam = basis.eigenvectors.copy(), basis.eigenvalues.copy()
        copied = GftBasis(u, lam)
        assert not np.shares_memory(copied.eigenvectors, u) and not np.shares_memory(copied.eigenvalues, lam)
        view = u[:, :]
        view.setflags(write=False)  # read-only, but u can still change it
        assert GftBasis(view, lam).eigenvectors is not view

    def test_basis_ref_is_the_digest_of_the_c_order_bytes(self):
        basis = gft(laplacian(random_connected_graph(30, np.random.default_rng(8))))
        assert basis.ref() == seed_basis_ref(basis)
        fortran = GftBasis(np.asfortranarray(basis.eigenvectors), basis.eigenvalues)
        assert fortran.eigenvectors.flags.f_contiguous and fortran.ref() == basis.ref()


class TestNeighbors:
    def test_path_middle(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert neighbors(g, 1) == [0, 2]

    def test_isolated(self):
        g = build_graph(3, [(0, 1)])
        assert neighbors(g, 2) == []

    def test_complete(self):
        g = build_graph(3, [(0, 1), (0, 2), (1, 2)])
        assert neighbors(g, 0) == [1, 2]

    def test_out_of_range(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            neighbors(g, 2)

    @pytest.mark.parametrize("i", [-1, -2])
    def test_negative_index_rejected(self, i):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError, match="out of range"):
            neighbors(g, i)  # not a row counted from the end

    def test_symmetry_property(self):
        rng = np.random.default_rng(13)
        g = random_connected_graph(15, rng)
        for i in range(15):
            for j in neighbors(g, i):
                assert i in neighbors(g, j)

    def test_matches_adjacency_row_scan(self):
        rng = np.random.default_rng(17)
        for n in (2, 9, 40):
            edges = [(i, j, float(rng.uniform(0.01, 3.0)))
                     for i in range(n - 1) for j in range(i + 1, n - 1) if rng.random() < 0.3]
            g = build_graph(n, edges)  # node n - 1 is isolated
            a = g.adjacency
            for i in range(n):
                expected = [int(j) for j in np.flatnonzero(a[i]) if j != i]
                assert neighbors(g, i) == expected
            assert neighbors(g, n - 1) == []

    def test_returns_the_callers_list(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert [neighbors(g, i) for i in range(3)] == [[1], [0, 2], [1]]
        assert all(type(j) is int for j in neighbors(g, 1))
        neighbors(g, 1).append(99)  # the returned list is the caller's copy
        assert neighbors(g, 1) == [0, 2]


@st.composite
def graphs_and_masks(draw):
    """A weighted graph (empty, sparse or complete) and any mask, with or without observed nodes."""
    n = draw(st.integers(1, 25))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    density = draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]))
    edges = [(i, j, draw(st.floats(1e-3, 5.0))) for i, j in pairs if draw(st.floats(0.0, 1.0)) < density]
    return build_graph(n, edges), np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))


@st.composite
def edge_lists(draw):
    """An edge list over n nodes with repeated pairs in either orientation, and now and then a bad edge."""
    n = draw(st.integers(-1, 12))
    node = st.integers(0, max(n, 1) - 1) | st.sampled_from([-1, max(n, 1), 10**20])
    weight = st.floats(1e-3, 5.0) | st.sampled_from([0.0, -1.0, math.inf, math.nan, 1e308])
    edge = st.tuples(node, node) | st.tuples(node, node, weight)
    return n, draw(st.lists(edge, max_size=30))


@settings(max_examples=400, deadline=None)
@given(edge_lists())
def test_graph_equals_the_per_edge_rule(n_and_edges):
    # The vectorised checks name the edge, and the stable sort keeps the weight, that the per-edge loop did.
    n, edges = n_and_edges
    try:
        expected = seed_build_graph(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as info:
            build_graph(n, edges)
        assert str(info.value) == str(exc)
        return
    g = build_graph(n, edges)
    assert g.adjacency.tobytes() == expected.tobytes()
    assert all(np.all(np.diff(g.indices[g.indptr[r]:g.indptr[r + 1]]) > 0) for r in range(n))


@settings(max_examples=300, deadline=None)
@given(graphs_and_masks())
def test_observed_layout_equals_seed_layout(graph_and_mask):
    g, observed = graph_and_mask
    got, want = observed_layout(g, observed), seed_observed_layout(g, observed)
    assert got._fields == want._fields
    for a, b in zip(got, want):
        assert (a.dtype, a.shape, a.tolist()) == (b.dtype, b.shape, b.tolist())
        assert not a.flags.writeable
    a = g.adjacency
    assert [neighbors(g, i) for i in range(g.n_nodes)] == [np.flatnonzero(row).tolist() for row in a]


@settings(max_examples=300, deadline=None)
@given(graphs_and_masks(), st.data())
def test_slots_list_observed_neighbors_in_order_and_sum_left_to_right(graph_and_mask, data):
    g, observed = graph_and_mask
    layout = observed_layout(g, observed)
    k = layout.neighbors.size
    assert layout.slots.shape == (1 + layout.counts.max(initial=0), layout.nodes.size)
    # Magnitudes far apart, so that a sum taken in another order shows in the last bits.
    values = np.array(data.draw(st.lists(st.floats(-1e6, 1e6) | st.floats(-1e-6, 1e-6), min_size=k, max_size=k)))
    sums = slot_sums(layout, values)
    for r, node in enumerate(layout.nodes.tolist()):
        count, column = int(layout.counts[r]), layout.slots[:, r].tolist()
        assert layout.neighbors[column[1:1 + count]].tolist() == [j for j in neighbors(g, node) if observed[j]]
        assert column[0] == k and column[1 + count:] == [k] * (len(column) - 1 - count)
        assert sums[r].hex() == sum(values[column[1:1 + count]].tolist()).hex()


class TestSlotTableEdges:
    def test_no_missing_node(self):
        layout = observed_layout(build_graph(3, [(0, 1), (1, 2)]), np.ones(3, dtype=bool))
        assert layout.slots.shape == (1, 0) and layout.nodes.size == layout.neighbors.size == layout.isolated.size == 0
        assert slot_sums(layout, np.zeros(0)).shape == (0,)

    def test_every_missing_node_isolated(self):
        # Each missing node's only neighbor is missing too.
        layout = observed_layout(build_graph(5, [(0, 1), (2, 3), (3, 4)]), np.array([False, False, True, True, True]))
        assert layout.isolated.tolist() == [0, 1] and layout.slots.shape == (1, 0) and layout.neighbors.size == 0
        assert slot_sums(layout, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("with_second_node", [False, True])
    def test_one_node_at_the_maximum_count(self, with_second_node):
        # Hub 0 has 11 observed neighbors; node 12, when present, has 2, so its column is padded. The hub alone
        # is a lone column, which numpy would sum pairwise.
        edges = [(0, j) for j in range(1, 12)] + ([(12, 1), (12, 11)] if with_second_node else [])
        n = 13 if with_second_node else 12
        observed = np.arange(n) % 12 != 0
        layout = observed_layout(build_graph(n, edges), observed)
        assert layout.neighbors.tolist() == list(range(1, 12)) and layout.slots.shape == (12, layout.nodes.size)
        assert layout.slots[:, 0].tolist() == [11, *range(11)]
        if with_second_node:
            assert layout.slots[:, 1].tolist() == [11, 0, 10] + [11] * 9
        values = np.array([1e16] + [1.0] * 10)  # left to right each 1.0 rounds away; numpy's 8-way blocks keep 8
        sums = slot_sums(layout, values)
        assert (sums[0], np.sum(values)) == (1e16, 1e16 + 8)
        if with_second_node:
            assert sums[1] == values[0] + values[10]


def brute_force_knn(pts, k):
    """All-pairs oracle: per node, the k closest points by (distance, index)."""
    n = len(pts)
    out = []
    for i in range(n):
        order = sorted(
            (j for j in range(n) if j != i), key=lambda j: (seed_haversine_km(pts[i], pts[j]), j)
        )
        out.append(order[:k])
    return out


class TestKnnGraph:
    def test_three_collinear_points(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (0.0, 2.0)]
        g = knn_graph(pts, k=1, bandwidth=100.0)
        assert neighbors(g, 1) == [0, 2]

    def test_zero_distance_weight_one(self):
        pts = [(10.0, 20.0), (10.0, 20.0), (11.0, 20.0)]
        g = knn_graph(pts, k=1, bandwidth=50.0)
        assert g.adjacency[0, 1] == pytest.approx(1.0)

    def test_matches_brute_force_oracle(self):
        rng = np.random.default_rng(21)
        pts = [(float(lat), float(lon)) for lat, lon in rng.uniform(-10, 10, size=(10, 2))]
        k = 3
        g = knn_graph(pts, k=k, bandwidth=200.0)
        expected = set()
        for i, nbrs in enumerate(brute_force_knn(pts, k)):
            for j in nbrs:
                expected.add((min(i, j), max(i, j)))
        actual = {
            (i, j) for i in range(10) for j in neighbors(g, i) if i < j
        }
        assert actual == expected
        for i in range(10):
            assert len(neighbors(g, i)) >= k

    def test_weights_follow_gaussian_kernel(self):
        pts = [(0.0, 0.0), (0.0, 1.0), (5.0, 5.0)]
        bw = 75.0
        g = knn_graph(pts, k=1, bandwidth=bw)
        d = seed_haversine_km(pts[0], pts[1])
        assert g.adjacency[0, 1] == pytest.approx(math.exp(-(d**2) / (2 * bw**2)))

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(33)
        pts = [(float(lat), float(lon)) for lat, lon in rng.uniform(-5, 5, size=(8, 2))]
        perm = list(rng.permutation(8))
        g1 = knn_graph(pts, k=2, bandwidth=100.0)
        g2 = knn_graph([pts[p] for p in perm], k=2, bandwidth=100.0)
        a1, a2 = g1.adjacency, g2.adjacency
        relabeled = np.zeros_like(a1)
        for a in range(8):
            for b in range(8):
                relabeled[a, b] = a2[perm.index(a), perm.index(b)]
        assert np.allclose(relabeled, a1, atol=1e-12)

    @pytest.mark.parametrize("k, message", [(2, "k=2 requires at least k+1=3 points, got 2"), (0, "k must be positive")])
    def test_k_out_of_range_rejected(self, k, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            knn_graph([(0.0, 0.0), (1.0, 1.0)], k=k, bandwidth=1.0)

    @pytest.mark.parametrize("bandwidth", [float("nan"), 0.0, -1.0])
    def test_bandwidth_not_positive_rejected(self, bandwidth):
        with pytest.raises(ValueError, match="bandwidth must be positive"):
            knn_graph([(0.0, 0.0), (1.0, 1.0)], k=1, bandwidth=bandwidth)

    def test_does_not_import_numpy_ma(self):
        # numpy's np.unique and np.median import numpy.ma on their first call, a cold 13 ms in set-up.
        code = ("import sys, numpy; before = 'numpy.ma' in sys.modules; from graphfill.graphs import knn_graph; "
                "knn_graph([(0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (2.0, 2.0), (2.0, 2.0)], 2, bandwidth=None); "
                "print(before, 'numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(graphfill.__file__))}
        before, after = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                                       check=True).stdout.split()
        if before == "True":
            pytest.skip("import numpy alone loads numpy.ma")
        assert after == "False"

    def test_self_tuned_bandwidth(self):
        rng = np.random.default_rng(44)
        pts = [(float(lat), float(lon)) for lat, lon in rng.uniform(-5, 5, size=(6, 2))]
        g = knn_graph(pts, k=2)
        weights = g.adjacency[g.adjacency > 0]
        assert np.all(weights > 0) and np.all(weights <= 1.0)


def seed_knn_graph(coords, k, bandwidth=None):
    """All-pairs reference: the original dense-distance kNN construction."""
    pts = [tuple(map(float, c)) for c in coords]
    n = len(pts)
    dist = np.zeros((n, n), dtype=np.float64)
    for i in range(n):
        for j in range(i + 1, n):
            d = seed_haversine_km(pts[i], pts[j])
            dist[i, j] = d
            dist[j, i] = d
    selected = set()
    knn_dists = []
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (dist[i, j], j))
        for j in order[:k]:
            selected.add((min(i, j), max(i, j)))
            knn_dists.append(dist[i, j])
    if bandwidth is None:
        med = float(np.median(knn_dists))
        bandwidth = med if med > 0.0 else 1.0
    edges = [(i, j, math.exp(-dist[i, j] ** 2 / (2.0 * bandwidth**2))) for (i, j) in sorted(selected)]
    return build_graph(n, edges)


def assert_matches_seed(pts, k, bandwidth=None):
    expected = seed_knn_graph(pts, k, bandwidth).adjacency
    actual = knn_graph(pts, k, bandwidth).adjacency
    assert np.array_equal(actual, expected), (len(pts), k, bandwidth)


class TestKnnGraphBitIdentity:
    """The screened kNN must reproduce the all-pairs adjacency bit for bit."""

    @pytest.mark.parametrize("bandwidth", [None, 350.0])
    def test_random_points(self, bandwidth):
        rng = np.random.default_rng(61)
        n = 300
        pts = [(float(lat), float(lon)) for lat, lon in zip(rng.uniform(25, 50, n), rng.uniform(-125, -65, n))]
        for k in (1, 8, n - 1):
            assert_matches_seed(pts, k, bandwidth)

    def test_coincident_points(self):
        rng = np.random.default_rng(62)
        sites = rng.uniform(-20, 20, size=(12, 2))
        pts = [tuple(map(float, sites[s])) for s in rng.integers(0, 12, size=60)]
        for k in (1, 4, 9):
            assert_matches_seed(pts, k, bandwidth=500.0)

    @pytest.mark.parametrize("bandwidth", [None, 40.0])
    def test_lattice_ties_break_by_index(self, bandwidth):
        pts = [(40.0 + 0.25 * r, -100.0 + 0.25 * c) for r in range(16) for c in range(16)]
        for k in (2, 4, 8):
            assert_matches_seed(pts, k, bandwidth)

    @pytest.mark.parametrize("k", [1, 2])
    def test_underflowed_weight_names_the_same_pair(self, k):
        pts = [(0.0, 0.0), (0.0, 0.001), (0.0, 90.0), (0.0, 90.001), (45.0, 0.0)]
        with pytest.raises(ValueError, match="nonpositive weight") as expected:
            seed_knn_graph(pts, k, bandwidth=1.0)
        with pytest.raises(ValueError) as actual:
            knn_graph(pts, k, bandwidth=1.0)
        assert str(actual.value) == str(expected.value)

    def test_distances_equal_to_the_last_bits(self):
        # Points one ulp apart in longitude, listed farthest first: their
        # distances from node 0 differ in the last bits or collapse to ties,
        # so screening with numpy must not decide the ranking.
        for base in (0.3, 0.0123, 2.7):
            cluster = [(45.0, base + m * math.ulp(base)) for m in range(40)][::-1]
            pts = [(45.0, 0.0)] + cluster + [(44.0 + 0.37 * r, 0.5 + 0.41 * r) for r in range(10)]
            for k in (1, 3, 5, 10):
                assert_matches_seed(pts, k, bandwidth=100.0)

    def test_candidates_hold_the_exact_k_nearest(self):
        # Coincident points, points one ulp apart and scattered points; the exact k nearest by (haversine, index).
        rng = np.random.default_rng(63)
        pts = [tuple(map(float, p)) for p in rng.uniform(-30, 30, size=(60, 2))]
        pts += [pts[int(i)] for i in rng.integers(0, 60, size=20)]
        pts += [(12.5, 0.7 + m * math.ulp(0.7)) for m in range(10)]
        pts += [(12.5 + m * math.ulp(12.5), 0.7) for m in range(10)]
        rad = np.array([(math.radians(a), math.radians(b), math.cos(math.radians(a))) for a, b in pts])
        for k in (1, 3, 8, 25):
            i, j = graphs._knn_candidates(rad, k)
            assert np.all(np.diff(i) >= 0)
            candidates = set(zip(i.tolist(), j.tolist()))
            for node, nearest in enumerate(brute_force_knn(pts, k)):
                assert {(node, m) for m in nearest} <= candidates, (k, node)

    @pytest.mark.parametrize("n", [500, 2000])
    def test_benchmark_shaped_inputs_match_the_haversine_term_screen(self, n, monkeypatch):
        # Stations drawn as the benchmark's kNN workloads draw them, k = 8, self-tuned bandwidth.
        rng = np.random.default_rng([23, n, 1])
        pts = list(zip(rng.uniform(35.0, 45.0, size=n).tolist(), rng.uniform(-10.0, 5.0, size=n).tolist()))
        actual = knn_graph(pts, 8).adjacency
        monkeypatch.setattr(graphs, "_knn_candidates", seed_knn_candidates)
        assert actual.tobytes() == knn_graph(pts, 8).adjacency.tobytes()

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinates_rejected(self, bad):
        pts = [(0.0, 0.0), (1.0, 1.0), (bad, 2.0), (3.0, 3.0)]
        with pytest.raises(ValueError, match="node 2"):
            knn_graph(pts, k=1, bandwidth=10.0)
        pts[2] = (2.0, bad)
        with pytest.raises(ValueError, match="node 2"):
            knn_graph(pts, k=1, bandwidth=10.0)


class TestFileInterfaces:
    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("src,dst,weight\n0,1,2.0\n1,2,1.0\n")
        g = load_edge_list_csv(path, 3)
        assert g.n_nodes == 3
        assert g.adjacency[0, 1] == 2.0
        assert g.adjacency[1, 2] == 1.0

    def test_edge_list_no_header_no_weight(self, tmp_path):
        path = tmp_path / "edges.csv"
        path.write_text("0,1\n1,2,\n\n")
        g = load_edge_list_csv(path, n=4)
        assert g.n_nodes == 4
        assert g.adjacency[0, 1] == 1.0

    def test_coordinates_file(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("node_id,lat,lon\n1,47.6,-122.3\n0,47.5,-122.2\n")
        coords = load_coordinates_csv(path, 2)
        assert coords == [(47.5, -122.2), (47.6, -122.3)]

    def test_coordinates_gap_rejected(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("0,1.0,2.0\n2,3.0,4.0\n")
        with pytest.raises(ValueError, match=re.escape("node ids must cover 0..2")):
            load_coordinates_csv(path, 3)

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("src,dst\n0,1\n2.5,1\n", "row 3, column 1: cannot parse '2.5' as a node index"),
            ("0,1\n1,x\n", "row 2, column 2: cannot parse 'x' as a node index"),
            ("0,1,1.0\n1,2,heavy\n", "row 2, column 3: cannot parse 'heavy' as a weight"),
            ("0,1\n0,,2\n", "row 2, column 2: cannot parse '' as a node index"),
            ("0,,2\n", "row 1, column 2: cannot parse '' as a node index"),
        ],
    )
    def test_edge_list_bad_cell_names_file_and_row(self, tmp_path, text, expected):
        path = tmp_path / "edges.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_edge_list_csv(path, 3)
        assert str(info.value) == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("node_id,lat,lon\n0,47.5,-122.2\n1.0,47.6,-122.3\n", "row 3, column 1: cannot parse '1.0' as a node id"),
            ("0,47.5,-122.2\n1,abc,-122.3\n", "row 2, column 2: cannot parse 'abc' as a latitude"),
            ("0,47.5,-122.2\n1,47.6,W122\n", "row 2, column 3: cannot parse 'W122' as a longitude"),
            ("1,47.6,-122.3\n0,47.5,-122.2\n-1,0.0,0.0\n", "row 3: node id -1 out of range for n=2"),
        ],
    )
    def test_coordinates_bad_cell_names_file_and_row(self, tmp_path, text, expected):
        path = tmp_path / "coords.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_coordinates_csv(path, 2)
        assert str(info.value) == f"{path}: {expected}"


# Cells of generated CSV rows: node indices in and out of range, blanks, padding, quotes, floats, inf and nan.
CSV_CELLS = st.one_of(
    st.integers(-2, 9).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", " 3 ", '"1"', "x", "src", "1.5", "0", "-0.0", "1e-320", "1e308", "inf", "nan", "1_0"]),
)
CSV_ROWS = st.lists(st.lists(CSV_CELLS, max_size=4), max_size=6)
# The errors that concern the whole file rather than one row.
FILE_ERRORS = ("node ids must cover 0..", "n must be positive")


def load_or_name_the_row(loader, rows, *args):
    """Write ``rows`` as a CSV and load it; a ValueError must name the file and, unless the whole file is at
    fault, a row of it."""
    text = "\n".join(",".join(row) for row in rows) + "\n"
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "table.csv"
        path.write_text(text, encoding="utf-8")
        try:
            return loader(path, *args)
        except ValueError as exc:
            message = str(exc)
    assert message.startswith(f"{path}: "), message
    rest = message[len(f"{path}: "):]
    row = re.match(r"row (\d+)(, column \d+)?: ", rest)
    assert (row and 1 <= int(row[1]) <= len(rows)) or rest.startswith(FILE_ERRORS), message
    return None


@settings(max_examples=400, deadline=None)
@given(CSV_ROWS, st.integers(-1, 12))
def test_edge_list_loads_or_names_the_row(rows, n):
    g = load_or_name_the_row(load_edge_list_csv, rows, n)
    if g is not None:
        a = g.adjacency
        assert np.all(np.isfinite(a)) and np.all(a >= 0.0) and np.array_equal(a, a.T)


@settings(max_examples=400, deadline=None)
@given(CSV_ROWS, st.integers(-1, 12))
def test_coordinates_load_or_name_the_row(rows, n):
    coords = load_or_name_the_row(load_coordinates_csv, rows, n)
    if coords is not None:
        assert len(coords) == n and all(len(c) == 2 and all(type(v) is float for v in c) for c in coords)


@pytest.mark.parametrize("weight", ["inf", "nan", "-inf"])
def test_edge_list_with_non_finite_weight_names_the_row(tmp_path, weight):
    path = tmp_path / "edges.csv"
    path.write_text(f"src,dst,weight\n0,1,1.0\n1,2,{weight}\n")
    with pytest.raises(ValueError) as info:
        load_edge_list_csv(path, 3)
    assert str(info.value) == f"{path}: row 3: edge (1, 2) has non-finite weight {float(weight)}"


@pytest.mark.parametrize("text, expected", [
    ("0,1\n1,5\n", "row 2: edge (1, 5) out of range for n=3"),
    ("src,dst\n0,1\n0,99999999999999999999\n", "row 3: edge (0, 99999999999999999999) out of range for n=3"),
])
def test_edge_list_with_an_edge_out_of_range_names_the_row(tmp_path, text, expected):
    path = tmp_path / "edges.csv"
    path.write_text(text)
    with pytest.raises(ValueError) as info:
        load_edge_list_csv(path, n=3)
    assert str(info.value) == f"{path}: {expected}"


@pytest.mark.parametrize("bad, expected", [
    ("0,3", "edge (0, 3) out of range for n=3"),
    ("2,2", "self-loop at node 2 is not allowed"),
    ("1,2,nan", "edge (1, 2) has non-finite weight nan"),
    ("2,0,-1", "edge (2, 0) has nonpositive weight -1.0"),
])
def test_edge_list_names_the_row_of_its_first_bad_edge(tmp_path, bad, expected):
    # A header and blank rows are skipped, so the failing edge's position differs from its row number.
    path = tmp_path / "edges.csv"
    path.write_text(f"src,dst,weight\n\n0,1\n1,2,2.5\n\n{bad}\n0,7\n1,1\n")
    with pytest.raises(ValueError) as info:
        load_edge_list_csv(path, 3)
    assert str(info.value) == f"{path}: row 6: {expected}"


def test_coordinates_duplicate_id_names_the_row(tmp_path):
    path = tmp_path / "coords.csv"
    path.write_text("0,1.0,2.0\n1,3.0,4.0\n0,5.0,6.0\n")
    with pytest.raises(ValueError) as info:
        load_coordinates_csv(path, 2)
    assert str(info.value) == f"{path}: row 3: duplicate node id 0"

