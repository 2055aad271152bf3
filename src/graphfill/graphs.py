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
# Elements per row block of the kNN screen and the symmetry checks (bounds each
# temporary to 128 KB), and of the sign normalisation in ``gft`` (2 MB).
_SCREEN_BLOCK_ELEMENTS = 1 << 14
_SIGN_BLOCK_ELEMENTS = 1 << 18
# The kNN screen keeps every j whose squared chord distance is within this
# absolute slack of the row's k-th smallest. The screen's 2 - 2 p_i . p_j
# (unit vectors from sin and cos, a 3-term dot product, one subtraction) is
# within about 4e-15 of the exact value, and ``_haversine``'s own rounding
# moves a distance by at most about 5e-15 in these units; the slack exceeds
# twice the first bound plus the second.
_SCREEN_SLACK = 1e-13
ObservedLayout = collections.namedtuple("ObservedLayout", "nodes isolated index counts neighbors groups digits")


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _adopted(a: np.ndarray) -> np.ndarray:
    """``a`` itself if it is a read-only float64 array that owns its memory (as ``gft`` hands over ``eigh``'s
    outputs), else a read-only copy. Adopting spares a second n x n array: 32 MB at n = 2000."""
    if a.dtype == np.float64 and a.flags.owndata and not a.flags.writeable:
        return a
    return _frozen(a)


def _reject_infinite(section) -> None:
    """Raise a ValueError naming the first float field of config ``section`` that is +inf or -inf."""
    for name, value in vars(section).items():
        if isinstance(value, float) and math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value}")


def _max_asymmetry(a: np.ndarray) -> float:
    """``max |a - a.T|`` of a finite square matrix, from the upper triangle's row blocks: no n x n temporary."""
    rows = max(1, _SCREEN_BLOCK_ELEMENTS // max(1, a.shape[0]))
    return max((float(np.abs(a[i:i + rows, i:] - a[i:, i:i + rows].T).max()) for i in range(0, a.shape[0], rows)),
               default=0.0)


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected weighted graph, kept as its edges in CSR form.

    ``Graph(adjacency)`` checks a dense matrix: it must be square, finite,
    symmetric, have a zero diagonal, and all entries must be >= 0. The node
    count is its row count. Only the nonzero entries are kept, as read-only
    arrays: row i's neighbors are ``indices[indptr[i]:indptr[i + 1]]``,
    ascending, with edge weights ``weights`` at the same positions. Each edge
    is stored from both ends.
    """
    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __init__(self, adjacency):
        a = np.asarray(adjacency, dtype=np.float64)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError(f"adjacency must be square, got shape {a.shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError("adjacency entries must be finite")
        if _max_asymmetry(a) > 0.0:
            raise ValueError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise ValueError("adjacency diagonal must be zero (no self-loops)")
        if np.any(a < 0.0):
            raise ValueError("adjacency entries must be nonnegative")
        n = a.shape[0]
        rows, cols = np.nonzero(a)  # row-major, so each row's columns ascend
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
        object.__setattr__(self, "n_nodes", n)
        object.__setattr__(self, "indptr", _frozen(indptr, np.int64))
        object.__setattr__(self, "indices", _frozen(cols, np.int64))
        object.__setattr__(self, "weights", _frozen(a[rows, cols]))

    @property
    def adjacency(self) -> np.ndarray:
        """The dense n x n adjacency matrix, read-only, built anew on each access: O(n^2) time and memory."""
        a = np.zeros((self.n_nodes, self.n_nodes))
        a[_edge_rows(self), self.indices] = self.weights
        a.setflags(write=False)
        return a


def _edge_rows(g: Graph) -> np.ndarray:
    """The row of each of ``g``'s stored edges, aligned with ``g.indices``: ascending."""
    return np.repeat(np.arange(g.n_nodes), np.diff(g.indptr))


def observed_layout(g: Graph, observed: np.ndarray) -> ObservedLayout:
    """Each missing node's observed neighbors in ``g`` under mask ``observed``, as read-only arrays.

    ``nodes`` (with an observed neighbor) and ``isolated`` (without) ascend. Row r of ``index`` is n, then
    the ``counts[r]`` observed neighbors of ``nodes[r]``, then n as padding; ``neighbors`` are the nodes
    it names. ``groups`` pairs the nodes with c observed neighbors with their (m, c) neighbor indices.
    ``digits`` holds the number of decimal digits of each of ``nodes``.
    """
    observed = np.asarray(observed, dtype=bool)
    missing = np.flatnonzero(~observed)
    rows = _edge_rows(g)
    linked = ~observed[rows] & observed[g.indices]  # edges from a missing node to an observed one
    i, j = rows[linked], g.indices[linked]  # in CSR order, so i ascends and each row's neighbors ascend
    per_node = np.bincount(i, minlength=g.n_nodes)[missing]
    nodes, counts, isolated = missing[per_node > 0], per_node[per_node > 0], missing[per_node == 0]
    index = np.full((nodes.size, 1 + counts.max(initial=0)), g.n_nodes)
    r = np.searchsorted(nodes, i)
    index[r, 1 + np.arange(r.size) - (np.cumsum(counts) - counts)[r]] = j
    # Distinct values by bincount, not np.unique: its first call imports numpy.ma (13 ms on a 2-core VM), which
    # would land in set-up on a path that calls np.unique nowhere else.
    groups = tuple((nodes[counts == c], index[counts == c, 1:1 + c]) for c in np.flatnonzero(np.bincount(counts)))
    neighbors = np.flatnonzero(np.bincount(index.ravel(), minlength=g.n_nodes + 1)[:-1])  # drop n, the padding
    digits = np.array([len(str(i)) for i in nodes.tolist()], dtype=np.int64)
    layout = ObservedLayout(nodes, isolated, index, counts, neighbors, groups, digits)
    for a in (*layout[:5], digits, *sum(groups, ())):
        a.setflags(write=False)
    return layout


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
        object.__setattr__(self, "eigenvectors", _adopted(u))
        object.__setattr__(self, "eigenvalues", _adopted(lam))

    @property
    def n_nodes(self) -> int:
        return self.eigenvalues.shape[0]

    def ref(self) -> str:
        """Short content digest identifying this basis (used to pin filters)."""
        cached = getattr(self, "_ref_cache", None)
        if cached is None:
            # hashlib reads each buffer in place; only an array not in C order is copied, so this is tobytes()'s digest
            h = hashlib.sha256()
            h.update(np.ascontiguousarray(self.eigenvalues))
            h.update(np.ascontiguousarray(self.eigenvectors))
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
        ValueError: on self-loops, out-of-range indices, or weights that
            are not finite or are <= 0.
    """
    if n < 1:
        raise ValueError("n must be positive")
    a = np.zeros((n, n), dtype=np.float64)
    for edge in edges:
        i, j, w = (*edge, 1.0) if len(edge) == 2 else edge
        w = float(w)
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at node {i} is not allowed")
        if not math.isfinite(w):
            raise ValueError(f"edge ({i}, {j}) has non-finite weight {w}")
        if w <= 0.0:
            raise ValueError(f"edge ({i}, {j}) has nonpositive weight {w}")
        a[i, j] = w
        a[j, i] = w
    return Graph(a)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A with D = diag(row sums of A), built from the edges.

    The only n x n array it makes is L, and L is byte-identical to ``np.diag(A.sum(axis=1)) - A``. Off the
    diagonal, 0 - w = -w. Rounding is symmetric under negation and numpy sums each row of L in the order it
    sums A's, so L's row sum with a zero diagonal is exactly minus A's; ``0.0 -`` takes it back and keeps an
    isolated node's degree +0.0, where unary minus would give -0.0.
    """
    l_matrix = np.zeros((g.n_nodes, g.n_nodes))
    l_matrix[_edge_rows(g), g.indices] = -g.weights
    np.fill_diagonal(l_matrix, 0.0 - l_matrix.sum(axis=1))
    return l_matrix


def gft(l_matrix: np.ndarray) -> GftBasis:
    """Eigendecompose a symmetric Laplacian into a graph Fourier basis.

    Eigenpairs come out sorted ascending. Sign convention: each
    eigenvector is flipped so its largest-magnitude entry (first such
    entry on ties) is nonnegative, making the basis deterministic for
    simple spectra.

    Raises:
        ValueError: if the input is not finite, or not symmetric within 1e-10.
        np.linalg.LinAlgError: if the decomposition fails to converge.
    """
    l_matrix = np.asarray(l_matrix, dtype=np.float64)
    if l_matrix.ndim != 2 or l_matrix.shape[0] != l_matrix.shape[1]:
        raise ValueError("Laplacian must be a square matrix")
    if not np.all(np.isfinite(l_matrix)):
        raise ValueError("Laplacian entries must be finite")
    if _max_asymmetry(l_matrix) > 1e-10:
        raise ValueError("Laplacian must be symmetric within 1e-10")
    lam, u = np.linalg.eigh(l_matrix)
    u *= np.where(_largest_entry_is_negative(u), -1.0, 1.0)
    for a in (u, lam):
        a.setflags(write=False)  # the basis adopts them, uncopied
    return GftBasis(eigenvectors=u, eigenvalues=lam)


def _largest_entry_is_negative(u: np.ndarray) -> np.ndarray:
    """Per column of ``u``: is its largest-magnitude entry (the first such on ties) negative?

    Walks row blocks, so no temporary is the size of ``u``. A later block takes a column only with a strictly
    larger magnitude, and ``argmax`` picks the first row within a block, so ties go to the first row.
    """
    n_rows, n_cols = u.shape
    cols = np.arange(n_cols)
    top, negative = np.full(n_cols, -1.0), np.zeros(n_cols, dtype=bool)
    rows = max(1, _SIGN_BLOCK_ELEMENTS // max(1, n_cols))
    for start in range(0, n_rows, rows):
        block = u[start:start + rows]
        at = np.abs(block).argmax(axis=0)
        entry = block[at, cols]
        magnitude = np.abs(entry)
        take = magnitude > top
        top[take], negative[take] = magnitude[take], entry[take] < 0
    return negative


def neighbors(g: Graph, i: int) -> list:
    """Indices j with A[i, j] != 0, ascending."""
    if not (0 <= i < g.n_nodes):
        raise ValueError(f"node index {i} out of range for n={g.n_nodes}")
    return g.indices[g.indptr[i]:g.indptr[i + 1]].tolist()


def _haversine(lat1, lon1, cos1, lat2, lon2, cos2) -> float:
    """Great-circle distance in km between two points in radians, given the cosine of each latitude."""
    s = math.sin((lat2 - lat1) / 2.0) ** 2 + cos1 * cos2 * math.sin((lon2 - lon1) / 2.0) ** 2
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
    if bandwidth is not None and not bandwidth > 0.0:  # NaN fails too
        raise ValueError("bandwidth must be positive")
    for i, p in enumerate(pts):
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise ValueError(f"node {i} has non-finite coordinates {p}")

    rad = [(math.radians(p[0]), math.radians(p[1]), math.cos(math.radians(p[0]))) for p in pts]
    i, j = _knn_candidates(np.array(rad), k)
    # One distance per candidate pair, taken on the pair ordered lo < hi, so both ends rank it by one double.
    # (Unlike a bare np.unique(x), this call does not import numpy.ma on numpy 2.4; a test checks it.)
    pairs, at = np.unique(np.minimum(i, j) * n + np.maximum(i, j), return_inverse=True)
    lo, hi = np.divmod(pairs, n)
    km = np.array([_haversine(*rad[a], *rad[b]) for a, b in zip(lo.tolist(), hi.tolist())])[at]
    ranked = np.lexsort((j, km, i))  # by node, then distance, then neighbor index
    pick = ranked[(np.searchsorted(i, np.arange(n))[:, None] + np.arange(k)).ravel()]  # each node's first k
    i, j, d = i[pick], j[pick], km[pick]

    if bandwidth is None:
        # The median as np.median takes it, the middle value or the mean of the two, without its numpy.ma import.
        half = d.size // 2
        kth = [half - 1, half] if d.size % 2 == 0 else [half]
        med = float(np.partition(d, kth)[kth].mean())
        bandwidth = med if med > 0.0 else 1.0

    w = np.array([math.exp(-x**2 / (2.0 * bandwidth**2)) for x in d.tolist()])
    if np.any(w <= 0.0):  # exp underflowed: name the first such pair, as build_graph would
        bad = w <= 0.0
        edge = min(zip(np.minimum(i, j)[bad].tolist(), np.maximum(i, j)[bad].tolist()))
        raise ValueError(f"edge {edge} has nonpositive weight {w[bad][0]}")
    a = np.zeros((n, n), dtype=np.float64)
    a[i, j] = a[j, i] = w  # a pair picked from both ends gets the same weight twice
    return Graph(a)


def _knn_candidates(rad: np.ndarray, k: int) -> tuple:
    """Pairs ``(i, j)``, ascending in i, that hold a superset of each node i's k nearest neighbors.

    ``rad`` holds each node's latitude, longitude (radians) and cosine of
    latitude. Screens with the squared chord distance ``2 - 2 p_i . p_j``
    between the points' unit vectors p, which is monotone in great-circle
    distance, from one (rows x 3) @ (3 x n) product per row block. These
    values carry rounding that ``_haversine`` does not, so every j within
    ``_SCREEN_SLACK`` of the row's k-th smallest value is kept; ranking the
    survivors by ``_haversine`` then gives exactly the all-pairs result.
    """
    lat, lon, cos_lat = rad.T
    n = lat.shape[0]
    p = np.stack([cos_lat * np.cos(lon), cos_lat * np.sin(lon), np.sin(lat)], axis=1)
    rows = max(1, _SCREEN_BLOCK_ELEMENTS // n)
    pairs = []
    for start in range(0, n, rows):
        stop = min(start + rows, n)
        a = 2.0 - 2.0 * (p[start:stop] @ p.T)
        a[np.arange(stop - start), np.arange(start, stop)] = np.inf
        kth = np.partition(a, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(a <= (kth + _SCREEN_SLACK)[:, None])
        pairs.append((r + start, c))
    return tuple(np.concatenate(x) for x in zip(*pairs))


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


def load_edge_list_csv(path, n: int) -> Graph:
    """Load an ``n``-node graph from a CSV edge list ``src,dst[,weight]`` (0-based).

    An optional header row is skipped, and a node no edge names is isolated. An edge that ``build_graph``
    rejects, an index outside [0, n) among them, raises its error, prefixed with the file and row.
    """
    edges = []
    for r, row in _data_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: row {r + 1}: expected 2 or 3 columns, got {len(row)}")
        i, j = _cell(path, r, 0, row, int, "a node index"), _cell(path, r, 1, row, int, "a node index")
        edges.append((r, (i, j, _cell(path, r, 2, row, float, "a weight")) if len(row) == 3 else (i, j)))
    taken = [None]  # build_graph checks each edge as it takes it, so the row taken last is the one it rejects

    def take():
        for r, edge in edges:
            taken[0] = r
            yield edge
    try:
        return build_graph(n, take())
    except ValueError as exc:
        row = "" if taken[0] is None else f"row {taken[0] + 1}: "
        raise ValueError(f"{path}: {row}{exc}") from None


def load_coordinates_csv(path, n: int) -> list:
    """Load ``node_id,lat,lon`` rows into a list of ``n`` (lat, lon) pairs, ordered by id.

    Node ids must form the range 0..n-1. An id outside it fails at its row, before the rest of the file is read.
    """
    entries = {}
    for r, row in _data_rows(path):
        if len(row) != 3:
            raise ValueError(f"{path}: row {r + 1}: expected node_id,lat,lon")
        node = _cell(path, r, 0, row, int, "a node id")
        if not 0 <= node < n:
            raise ValueError(f"{path}: row {r + 1}: node id {node} out of range for n={n}")
        if node in entries:
            raise ValueError(f"{path}: row {r + 1}: duplicate node id {node}")
        entries[node] = (_cell(path, r, 1, row, float, "a latitude"), _cell(path, r, 2, row, float, "a longitude"))
    if len(entries) != n:  # every id is in range and distinct, so a short count leaves one out
        raise ValueError(f"{path}: node ids must cover 0..{n - 1}")
    return [entries[i] for i in range(n)]
