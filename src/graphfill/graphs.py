"""Graph topology, Laplacian, Fourier basis, and neighborhood queries.

Graphs are undirected with nonnegative (possibly non-binary) edge weights.
All constructed objects are immutable; arrays are returned read-only.
"""
import collections
import csv
import hashlib
import math
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088
# kNN screening: elements per row block (bounds each temporary to 128 KB),
# and the relative and absolute slack kept above each row's k-th smallest term.
_SCREEN_BLOCK_ELEMENTS = 1 << 14
_SCREEN_MARGIN = 1e-9
_SCREEN_FLOOR = 1e-300
ObservedLayout = collections.namedtuple("ObservedLayout", "nodes isolated index counts neighbors groups digits")


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


@dataclass(frozen=True, eq=False)
class Graph:
    """Undirected weighted graph with a dense adjacency matrix.

    Invariants (checked at construction): adjacency is square, symmetric,
    has a zero diagonal, and all entries are >= 0.
    """
    n_nodes: int
    adjacency: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.adjacency, dtype=np.float64)
        if a.shape != (self.n_nodes, self.n_nodes):
            raise ValueError(f"adjacency shape {a.shape} does not match n_nodes={self.n_nodes}")
        if not np.array_equal(a, a.T):
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        if np.any(a < 0.0):
            raise ValueError("adjacency entries must be nonnegative")
        object.__setattr__(self, "adjacency", _frozen(a))

    def adjacency_lists(self) -> tuple:
        """Per node, the ascending tuple of indices j with A[i, j] != 0."""
        cached = getattr(self, "_adjacency_lists_cache", None)
        if cached is None:
            cached = tuple(tuple(np.flatnonzero(row).tolist()) for row in self.adjacency)
            object.__setattr__(self, "_adjacency_lists_cache", cached)
        return cached

    def observed_layout(self, observed: np.ndarray) -> "ObservedLayout":
        """Each missing node's observed neighbors under mask ``observed``; kept for the last mask.

        ``nodes`` (with an observed neighbor) and ``isolated`` (without) ascend. Row r of ``index`` is n, then
        the ``counts[r]`` observed neighbors of ``nodes[r]``, then n as padding; ``neighbors`` are the nodes
        it names. ``groups`` pairs the nodes with c observed neighbors with their (m, c) neighbor indices.
        ``digits`` holds the number of decimal digits of each of ``nodes``.
        """
        observed = np.asarray(observed, dtype=bool)
        cached = getattr(self, "_layout_cache", None)
        if cached is None or cached[0] != observed.tobytes():
            lists, flags, missing = self.adjacency_lists(), observed.tolist(), np.flatnonzero(~observed).tolist()
            rows = {i: [j for j in lists[i] if flags[j]] for i in missing}
            nodes = np.array([i for i in missing if rows[i]], dtype=np.int64)
            counts = np.array([len(rows[i]) for i in nodes.tolist()], dtype=np.int64)
            index = np.full((nodes.size, 1 + max(counts.tolist(), default=0)), self.n_nodes)
            for r, i in enumerate(nodes.tolist()):
                index[r, 1:1 + len(rows[i])] = rows[i]
            isolated = np.array([i for i in missing if not rows[i]], dtype=np.int64)
            groups = tuple((nodes[counts == c], index[counts == c, 1:1 + c]) for c in np.unique(counts).tolist())
            neighbors = np.unique(index)[:-1]  # n, the largest entry, is there whenever a row is
            digits = np.array([len(str(i)) for i in nodes.tolist()], dtype=np.int64)
            cached = (observed.tobytes(), ObservedLayout(nodes, isolated, index, counts, neighbors, groups, digits))
            for a in (*cached[1][:5], digits, *sum(groups, ())):
                a.setflags(write=False)
            object.__setattr__(self, "_layout_cache", cached)
        return cached[1]


@dataclass(frozen=True, eq=False)
class GftBasis:
    """Orthonormal graph Fourier basis: Laplacian eigenvectors and eigenvalues.

    Columns of ``eigenvectors`` are sorted by ascending eigenvalue; the
    eigenvalues act as graph frequencies (small = smooth).
    """
    eigenvectors: np.ndarray
    eigenvalues: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.eigenvectors, dtype=np.float64)
        lam = np.asarray(self.eigenvalues, dtype=np.float64)
        n = u.shape[0]
        if u.shape != (n, n) or lam.shape != (n,):
            raise ValueError("eigenvectors must be NxN and eigenvalues length N")
        if np.any(np.diff(lam) < 0):
            raise ValueError("eigenvalues must be nondecreasing")
        object.__setattr__(self, "eigenvectors", _frozen(u))
        object.__setattr__(self, "eigenvalues", _frozen(lam))

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.shape[0]

    def ref(self) -> str:
        """Short content digest identifying this basis (used to pin filters)."""
        cached = getattr(self, "_ref_cache", None)
        if cached is None:
            h = hashlib.sha256()
            h.update(self.eigenvalues.tobytes())
            h.update(self.eigenvectors.tobytes())
            cached = h.hexdigest()[:16]
            object.__setattr__(self, "_ref_cache", cached)
        return cached


def build_graph(n: int, edges) -> Graph:
    """Build an undirected graph from an edge list.

    Args:
        n: Number of nodes (positive).
        edges: Iterable of ``(i, j)`` or ``(i, j, weight)`` with 0-based
            indices. Unweighted edges store weight 1; duplicate edges
            collapse to the last weight given.

    Raises:
        ValueError: on self-loops, out-of-range indices, or weights <= 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.float64)
    for edge in edges:
        if len(edge) == 2:
            i, j = edge
            w = 1.0
        else:
            i, j, w = edge
            w = float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if w <= 0.0:
            raise ValueError(f"edge ({i}, {j}) has nonpositive weight {w}")
        a[i, j] = w
        a[j, i] = w
    return Graph(n_nodes=n, adjacency=a)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A with D = diag(row sums of A)."""
    a = g.adjacency
    return np.diag(a.sum(axis=1)) - a


def gft(l_matrix: np.ndarray) -> GftBasis:
    """Eigendecompose a symmetric Laplacian into a graph Fourier basis.

    Eigenpairs come out sorted ascending. Sign convention: each
    eigenvector is flipped so its largest-magnitude entry (first such
    entry on ties) is nonnegative, making the basis deterministic for
    simple spectra.

    Raises:
        ValueError: if the input is not symmetric within 1e-10.
        np.linalg.LinAlgError: if the decomposition fails to converge.
    """
    l_matrix = np.asarray(l_matrix, dtype=np.float64)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    if np.max(np.abs(l_matrix - l_matrix.T), initial=0.0) > 1e-10:
        raise ValueError("Laplacian must be symmetric within 1e-10")
    lam, u = np.linalg.eigh(l_matrix)
    for k in range(u.shape[1]):
        pivot = int(np.argmax(np.abs(u[:, k])))
        if u[pivot, k] < 0:
            u[:, k] = -u[:, k]
    return GftBasis(eigenvectors=u, eigenvalues=lam)


def neighbors(g: Graph, i: int) -> list:
    """Indices j with A[i, j] != 0, ascending."""
    if not (0 <= i < g.n_nodes):
        raise ValueError(f"node index {i} out of range for n={g.n_nodes}")
    return list(g.adjacency_lists()[i])


def haversine_km(p: tuple, q: tuple) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees."""
    lat1, lon1 = math.radians(p[0]), math.radians(p[1])
    lat2, lon2 = math.radians(q[0]), math.radians(q[1])
    dlat = lat2 - lat1
    dlon = lon2 - lon1
    s = math.sin(dlat / 2.0) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def knn_graph(coords, k: int, bandwidth: float | None = None) -> Graph:
    """k-nearest-neighbor graph over (lat, lon) points with Gaussian weights.

    Each node links to its ``k`` nearest neighbors by great-circle
    distance (ties broken by smaller node index); the edge set is the
    union over both directions. Edge weight is
    ``exp(-d^2 / (2 * bandwidth^2))``, so coincident points get weight 1.

    Args:
        coords: Sequence of (latitude, longitude) pairs, >= k+1 of them.
        k: Neighbors per node, 1 <= k < len(coords).
        bandwidth: Gaussian kernel width in km. ``None`` self-tunes to the
            median of all selected kNN distances (falls back to 1.0 when
            the median is 0).
    """
    pts = [tuple(map(float, c)) for c in coords]
    n = len(pts)
    if k < 1:
        raise ValueError("k must be positive")
    if k >= n:
        raise ValueError(f"k={k} requires at least k+1={k + 1} points, got {n}")
    if bandwidth is not None and bandwidth <= 0.0:
        raise ValueError("bandwidth must be positive")
    for i, p in enumerate(pts):
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError(f"node {i} has non-finite coordinates {p}")

    dist = {}  # (i, j) with i < j -> haversine_km(pts[i], pts[j])

    def pair_dist(i, j):
        key = (i, j) if i < j else (j, i)
        d = dist.get(key)
        if d is None:
            d = dist[key] = haversine_km(pts[key[0]], pts[key[1]])
        return d

    selected = set()
    knn_dists = []
    for i, candidates in _knn_candidates(pts, k):
        order = sorted(candidates, key=lambda j: (pair_dist(i, j), j))
        for j in order[:k]:
            selected.add((min(i, j), max(i, j)))
            knn_dists.append(pair_dist(i, j))

    if bandwidth is None:
        med = float(np.median(knn_dists))
        bandwidth = med if med > 0.0 else 1.0

    edges = []
    for (i, j) in sorted(selected):
        w = math.exp(-dist[i, j] ** 2 / (2.0 * bandwidth**2))
        edges.append((i, j, w))
    return build_graph(n, edges)


def _knn_candidates(pts, k: int):
    """Yield ``(i, candidates)``: a superset of node i's k nearest neighbors.

    Screens with the haversine inner term ``sin^2(dlat/2) + cos(lat_i)
    cos(lat_j) sin^2(dlon/2)``, which is monotone in distance, computed in
    row blocks with numpy. These terms may differ from the ones
    ``haversine_km`` computes in the last bits, so every j within a small
    margin of the row's k-th smallest term is kept; ranking the survivors
    by ``haversine_km`` then gives exactly the all-pairs result.
    """
    lat, lon = np.radians(np.array([p[:2] for p in pts], dtype=np.float64)).T
    cos_lat = np.cos(lat)
    n = lat.shape[0]
    rows = max(1, _SCREEN_BLOCK_ELEMENTS // n)
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        s_lat = np.sin((lat[None, :] - lat[start:stop, None]) / 2.0)
        s_lon = np.sin((lon[None, :] - lon[start:stop, None]) / 2.0)
        a = s_lat * s_lat + cos_lat[start:stop, None] * cos_lat[None, :] * (s_lon * s_lon)
        a[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(a, k - 1, axis=1)[:, k - 1]
        keep = a <= (kth * (1.0 + _SCREEN_MARGIN) + _SCREEN_FLOOR)[:, None]
        for r in range(stop - start):
            yield start + r, np.flatnonzero(keep[r]).tolist()


# ---------------------------------------------------------------------------
# File interfaces
# ---------------------------------------------------------------------------

def _looks_like_header(row) -> bool:
    for cell in row:
        try:
            float(cell)
        except ValueError:
            return True
    return False


def _data_rows(path):
    """Yield ``(row number, stripped cells)``, skipping blank rows and a header.

    Trailing empty cells are dropped; an empty cell before the last
    non-empty one is kept, so it fails to parse instead of shifting the
    cells after it into its column.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        for r, row in enumerate(csv.reader(fh)):
            row = [c.strip() for c in row]
            while row and row[-1] == "":
                row.pop()
            if row and not (r == 0 and _looks_like_header([c for c in row if c])):
                yield r, row


def _cell(path, r: int, c: int, row, parse, what: str):
    """Parse ``row[c]`` with ``parse``; a bad cell raises a ValueError naming the file, row and column."""
    try:
        return parse(row[c])
    except ValueError:
        raise ValueError(f"{path}: row {r + 1}, column {c + 1}: cannot parse {row[c]!r} as {what}") from None


def load_edge_list_csv(path, n: int | None = None) -> Graph:
    """Load a graph from a CSV edge list ``src,dst[,weight]`` (0-based).

    An optional header row is skipped. When ``n`` is omitted it is
    inferred as ``max index + 1``.
    """
    edges = []
    max_idx = -1
    for r, row in _data_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: row {r + 1}: expected 2 or 3 columns, got {len(row)}")
        i, j = _cell(path, r, 0, row, int, "a node index"), _cell(path, r, 1, row, int, "a node index")
        max_idx = max(max_idx, i, j)
        edges.append((i, j, _cell(path, r, 2, row, float, "a weight")) if len(row) == 3 else (i, j))
    if n is None:
        if max_idx < 0:
            raise ValueError(f"{path}: empty edge list and no node count given")
        n = max_idx + 1
    return build_graph(n, edges)


def load_coordinates_csv(path) -> list:
    """Load ``node_id,lat,lon`` rows into a list of (lat, lon), ordered by id.

    Node ids must form the contiguous range 0..n-1.
    """
    entries = {}
    for r, row in _data_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: row {r + 1}: expected node_id,lat,lon")
        node = _cell(path, r, 0, row, int, "a node id")
        if node in entries:
            raise ValueError(f"{path}: duplicate node id {node}")
        entries[node] = (_cell(path, r, 1, row, float, "a latitude"), _cell(path, r, 2, row, float, "a longitude"))
    if not entries:
        raise ValueError(f"{path}: no coordinate rows")
    n = len(entries)
    if sorted(entries) != list(range(n)):
        raise ValueError(f"{path}: node ids must cover 0..{n - 1}")
    return [entries[i] for i in range(n)]
