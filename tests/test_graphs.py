"""Tests for graph construction, Laplacian, Fourier basis, and kNN graphs."""
import math

import numpy as np
import pytest

from graphfill.graphs import (
    Graph,
    build_graph,
    gft,
    haversine_km,
    knn_graph,
    laplacian,
    load_coordinates_csv,
    load_edge_list_csv,
    neighbors,
)


def random_connected_graph(n: int, rng: np.random.Generator, p: float = 0.25) -> Graph:
    """Erdos-Renyi edges plus a random spanning chain to force connectivity."""
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((min(a, b), max(a, b)))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return build_graph(n, sorted(edges))


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

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            build_graph(3, [(0, 3)])

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError, match="weight"):
            build_graph(3, [(0, 1, 0.0)])

    def test_adjacency_read_only(self):
        g = build_graph(2, [(0, 1)])
        with pytest.raises(ValueError):
            g.adjacency[0, 1] = 5.0

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
        basis = gft(np.array([[1.0, -1.0], [-1.0, 1.0]]))
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
        lap = laplacian(g)
        a = gft(lap)
        b = gft(lap)
        assert np.array_equal(a.eigenvectors, b.eigenvectors)
        for k in range(10):
            col = a.eigenvectors[:, k]
            assert col[int(np.argmax(np.abs(col)))] >= 0

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            gft(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_basis_ref_distinguishes_bases(self):
        a = gft(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        b = gft(np.array([[2.0, -2.0], [-2.0, 2.0]]))
        assert a.ref() == a.ref()
        assert a.ref() != b.ref()


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
            for i in range(n):
                expected = [int(j) for j in np.flatnonzero(g.adjacency[i]) if j != i]
                assert neighbors(g, i) == expected
            assert neighbors(g, n - 1) == []

    def test_adjacency_lists_cached_and_immutable(self):
        g = build_graph(3, [(0, 1), (1, 2)])
        assert g.adjacency_lists() is g.adjacency_lists()
        assert g.adjacency_lists() == ((1,), (0, 2), (1,))
        neighbors(g, 1).append(99)  # the returned list is the caller's copy
        assert neighbors(g, 1) == [0, 2]


def brute_force_knn(pts, k):
    """All-pairs oracle: per node, the k closest points by (distance, index)."""
    n = len(pts)
    out = []
    for i in range(n):
        order = sorted(
            (j for j in range(n) if j != i), key=lambda j: (haversine_km(pts[i], pts[j]), j)
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
        d = haversine_km(pts[0], pts[1])
        assert g.adjacency[0, 1] == pytest.approx(math.exp(-(d**2) / (2 * bw**2)))

    def test_permutation_invariance_up_to_relabeling(self):
        rng = np.random.default_rng(33)
        pts = [(float(lat), float(lon)) for lat, lon in rng.uniform(-5, 5, size=(8, 2))]
        perm = list(rng.permutation(8))
        g1 = knn_graph(pts, k=2, bandwidth=100.0)
        g2 = knn_graph([pts[p] for p in perm], k=2, bandwidth=100.0)
        relabeled = np.zeros_like(g1.adjacency)
        for a in range(8):
            for b in range(8):
                relabeled[a, b] = g2.adjacency[perm.index(a), perm.index(b)]
        assert np.allclose(relabeled, g1.adjacency, atol=1e-12)

    def test_k_too_large_rejected(self):
        with pytest.raises(ValueError, match="k="):
            knn_graph([(0.0, 0.0), (1.0, 1.0)], k=2, bandwidth=1.0)

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
            d = haversine_km(pts[i], pts[j])
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

    def test_distances_equal_to_the_last_bits(self):
        # Points one ulp apart in longitude, listed farthest first: their
        # distances from node 0 differ in the last bits or collapse to ties,
        # so screening with numpy must not decide the ranking.
        for base in (0.3, 0.0123, 2.7):
            cluster = [(45.0, base + m * math.ulp(base)) for m in range(40)][::-1]
            pts = [(45.0, 0.0)] + cluster + [(44.0 + 0.37 * r, 0.5 + 0.41 * r) for r in range(10)]
            for k in (1, 3, 5, 10):
                assert_matches_seed(pts, k, bandwidth=100.0)

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
        g = load_edge_list_csv(path)
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
        coords = load_coordinates_csv(path)
        assert coords == [(47.5, -122.2), (47.6, -122.3)]

    def test_coordinates_gap_rejected(self, tmp_path):
        path = tmp_path / "coords.csv"
        path.write_text("0,1.0,2.0\n2,3.0,4.0\n")
        with pytest.raises(ValueError, match="node ids"):
            load_coordinates_csv(path)

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
            load_edge_list_csv(path)
        assert str(info.value) == f"{path}: {expected}"

    @pytest.mark.parametrize(
        "text, expected",
        [
            ("node_id,lat,lon\n0,47.5,-122.2\n1.0,47.6,-122.3\n", "row 3, column 1: cannot parse '1.0' as a node id"),
            ("0,47.5,-122.2\n1,abc,-122.3\n", "row 2, column 2: cannot parse 'abc' as a latitude"),
            ("0,47.5,-122.2\n1,47.6,W122\n", "row 2, column 3: cannot parse 'W122' as a longitude"),
        ],
    )
    def test_coordinates_bad_cell_names_file_and_row(self, tmp_path, text, expected):
        path = tmp_path / "coords.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as info:
            load_coordinates_csv(path)
        assert str(info.value) == f"{path}: {expected}"
