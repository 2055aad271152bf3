"""Graph topology, Laplacian, Fourier basis, and neighborhood queries.

Graphs are undirected with positive (possibly non-binary) edge weights.
All constructed objects are immutable; arrays are returned read-only.
"""
import array
import collections
import csv
import hashlib
import math
import operator
from dataclasses import dataclass

import numpy as np

EARTH_RADIUS_KM = 6371.0088
# Elements per row block of the kNN screen (bounds each temporary to 128 KB).
_SCREEN_BLOCK_ELEMENTS = 1 << 14
# The kNN screen keeps every j whose squared chord distance is within this
# absolute slack of the row's k-th smallest. The screen's 2 - 2 p_i . p_j
# (unit vectors from sin and cos, a 3-term dot product, one subtraction) is
# within about 4e-15 of the exact value, and ``_haversine``'s own rounding
# moves a distance by at most about 5e-15 in these units; the slack exceeds
# twice the first bound plus the second.
_SCREEN_SLACK = 1e-13
ObservedLayout = collections.namedtuple("ObservedLayout", "nodes isolated slots counts neighbors digits")


def _frozen(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    out = np.array(a, dtype=dtype)
    out.setflags(write=False)
    return out


def _adopted(a: np.ndarray, dtype=np.float64) -> np.ndarray:
    """``a`` itself if it is a read-only ``dtype`` array that owns its memory (as ``gft`` hands over ``eigh``'s
    outputs), else a read-only copy. Adopting spares a second n x n array: 32 MB at n = 2000."""
    if a.dtype == dtype and a.flags.owndata and not a.flags.writeable:
        return a
    return _frozen(a, dtype)


def _reject_infinite(section) -> None:
    """Raise a ValueError naming the first float field of config ``section`` that is +inf or -inf."""
    for name, value in vars(section).items():
        if isinstance(value, float) and math.isinf(value):
            raise ValueError(f"{name} must be finite, got {value}")


class _EdgeError(ValueError):
    """An edge that ``Graph`` rejects; ``edge`` is its position in the constructor's input."""

    def __init__(self, message: str, edge: int):
        super().__init__(message)
        self.edge = edge


# What ``Graph`` rejects in an edge, in the order it checks.
_EDGE_FAULTS = ("edge ({i}, {j}) out of range for n={n}", "self-loop at node {i} is not allowed",
                "edge ({i}, {j}) has non-finite weight {w}", "edge ({i}, {j}) has nonpositive weight {w}")


def _node_indices(values, n: int) -> np.ndarray:
    """``values`` as an int64 array, each one outside [0, n) as -1. A Python int past int64's range is compared
    before any conversion, so it still reads as out of range; an index in range that is not an integer raises
    a TypeError."""
    a = np.asarray(values)
    if a.dtype.kind != "i":  # empty, floats, or an int past int64 that makes numpy pick float64 or object
        a = np.array([operator.index(v) if 0 <= v < n else -1 for v in values], dtype=np.int64)
    return np.where((a >= 0) & (a < n), a, -1).astype(np.int64, copy=False)


@dataclass(frozen=True, eq=False, init=False)
class Graph:
    """Undirected weighted graph, kept as its edges in CSR form.

    ``Graph(n, i, j, w)`` builds an n-node graph (n >= 1) with an edge between nodes ``i[k]`` and ``j[k]``
    (0-based, either orientation) of weight ``w[k]``, for each k. Each edge must join two distinct nodes in
    [0, n) with a finite positive weight; the first edge in input order that does not raises a ValueError
    naming it. A repeated pair keeps its last weight. The edges are kept as read-only arrays: row i's neighbors
    are ``indices[indptr[i]:indptr[i + 1]]``, ascending, with edge weights ``weights`` at the same positions.
    Each edge is stored from both ends.
    """
    n_nodes: int
    indptr: np.ndarray
    indices: np.ndarray
    weights: np.ndarray

    def __init__(self, n: int, i, j, w):
        if n < 1:
            raise ValueError("n must be positive")
        src, dst, w_in = _node_indices(i, n), _node_indices(j, n), np.asarray(w, dtype=np.float64)
        faults = np.stack([(src < 0) | (dst < 0), src == dst, ~np.isfinite(w_in), w_in <= 0.0])
        bad = np.flatnonzero(faults.any(axis=0))
        if bad.size:
            e = int(bad[0])
            fault = _EDGE_FAULTS[int(faults[:, e].argmax())]
            raise _EdgeError(fault.format(i=i[e], j=j[e], n=n, w=float(w_in[e])), e)
        key = np.stack([src * n + dst, dst * n + src], axis=1).ravel()  # edge k from both ends, at 2k and 2k + 1
        order = np.argsort(key, kind="stable")  # by row, then column; a repeated pair in input order
        key = key[order]
        last = np.ones(key.size, dtype=bool)  # the last of each run of one pair
        last[:-1] = key[1:] != key[:-1]
        key, weights = key[last], w_in[order[last] // 2]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        for name, a in (("indptr", indptr), ("indices", key % n), ("weights", weights)):
            a.setflags(write=False)  # each is a new array that only the graph holds
            object.__setattr__(self, name, a)
        object.__setattr__(self, "n_nodes", n)

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

    ``nodes`` (with an observed neighbor) and ``isolated`` (without) ascend; ``counts`` and ``digits`` hold each
    node's number of observed neighbors and of decimal digits, and ``neighbors`` the k observed nodes next to one
    of them, ascending. ``slots`` is (1 + max count, m): [s, r] is the position in ``neighbors`` of ``nodes[r]``'s
    s-th observed neighbor (1 <= s <= counts[r]); row 0 and the padding hold k, the position of an appended 0.0.
    """
    observed = np.asarray(observed, dtype=bool)
    missing = np.flatnonzero(~observed)
    rows = _edge_rows(g)
    linked = ~observed[rows] & observed[g.indices]  # edges from a missing node to an observed one
    i, j = rows[linked], g.indices[linked]  # in CSR order, so i ascends and each row's neighbors ascend
    per_node = np.bincount(i, minlength=g.n_nodes)[missing]
    nodes, counts, isolated = missing[per_node > 0], per_node[per_node > 0], missing[per_node == 0]
    neighbors = np.flatnonzero(np.bincount(j, minlength=g.n_nodes))
    slots = np.full((1 + counts.max(initial=0), nodes.size), neighbors.size)
    r = np.searchsorted(nodes, i)
    slots[1 + np.arange(r.size) - (np.cumsum(counts) - counts)[r], r] = np.searchsorted(neighbors, j)
    digits = np.array([len(str(i)) for i in nodes.tolist()], dtype=np.int64)
    layout = ObservedLayout(nodes, isolated, slots, counts, neighbors, digits)
    for a in layout:
        a.setflags(write=False)
    return layout


def slot_sums(layout: ObservedLayout, values: np.ndarray) -> np.ndarray:
    """Per node of ``layout.nodes``, the sum of ``values`` (one per ``layout.neighbors``) at its observed neighbors,
    left to right from 0.0 as ``sum()`` sums the node's neighbor list: the table's rows are added one at a time."""
    table = np.concatenate((values, np.zeros(1))).take(layout.slots)  # row 0 and the padding read the 0.0
    if table.shape[1] == 1:  # numpy sums a lone column pairwise, 8 entries at a time
        return np.add.accumulate(table[:, 0])[-1:]
    return table.sum(axis=0)  # row by row: one vector add over the nodes per slot, in order


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
            are not finite or are <= 0, naming the first such edge.
    """
    edges = [(*edge, 1.0) if len(edge) == 2 else edge for edge in edges]
    i, j, w = zip(*edges, strict=True) if edges else ((), (), ())
    return Graph(n, i, j, w)


def laplacian(g: Graph) -> np.ndarray:
    """Combinatorial Laplacian L = D - A with D = diag(row sums of A), built from the edges.

    The only n x n array it makes is L, and L is byte-identical to ``np.diag(A.sum(axis=1)) - A``. Off the
    diagonal, 0 - w = -w. Rounding is symmetric under negation and numpy sums each row of L in the order it
    sums A's, so L's row sum with a zero diagonal is exactly minus A's; ``0.0 -`` takes it back and keeps an
    isolated node's degree +0.0, where unary minus would give -0.0.

    Raises:
        ValueError: naming the first node whose degree overflows to inf, though each of its weights is finite.
    """
    l_matrix = np.zeros((g.n_nodes, g.n_nodes))
    l_matrix[_edge_rows(g), g.indices] = -g.weights
    with np.errstate(over="ignore"):  # an overflowed degree is named below
        degree = 0.0 - l_matrix.sum(axis=1)
    overflowed = np.flatnonzero(np.isinf(degree))
    if overflowed.size:
        raise ValueError(f"node {overflowed[0]} has degree inf: the sum of its edge weights overflows")
    np.fill_diagonal(l_matrix, degree)
    return l_matrix


def gft(l_matrix: np.ndarray) -> GftBasis:
    """Eigendecompose a graph Laplacian, as :func:`laplacian` builds it, into a graph Fourier basis.

    Eigenpairs come out sorted ascending. Sign convention: each
    eigenvector is flipped so its largest-magnitude entry (first such
    entry on ties) is nonnegative, making the basis deterministic for
    simple spectra. It is only the LAPACK call and the sign rule, so it can
    run on a worker thread while the caller holds the GIL for other work.

    Raises:
        np.linalg.LinAlgError: if the decomposition fails to converge.
    """
    lam, u = np.linalg.eigh(l_matrix)
    u *= np.where(_largest_entry_is_negative(u), -1.0, 1.0)
    for a in (u, lam):
        a.setflags(write=False)  # the basis adopts them, uncopied
    return GftBasis(eigenvectors=u, eigenvalues=lam)


def _largest_entry_is_negative(u: np.ndarray) -> np.ndarray:
    """Per column of ``u``: is its largest-magnitude entry (the first such on ties) negative?

    Decided from each column's largest and smallest entry, so no temporary is bigger than a column: the sign
    is that of the side with the larger magnitude. Only a column whose two sides tie (a zero column among them)
    is searched for its first largest-magnitude row.
    """
    top, bottom = u.max(axis=0), u.min(axis=0)
    negative = -bottom > top
    for k in np.flatnonzero(-bottom == top):
        negative[k] = u[np.abs(u[:, k]).argmax(), k] < 0
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
    km = np.array([_haversine(*rad[a], *rad[b]) for a, b in zip(lo.tolist(), hi.tolist())])
    ranked = np.lexsort((j, km[at], i))  # by node, then distance, then neighbor index
    pick = at[ranked[(np.searchsorted(i, np.arange(n))[:, None] + np.arange(k)).ravel()]]  # each node's first k
    d = km[pick]

    if bandwidth is None:
        # The median as np.median takes it, the middle value or the mean of the two, without its numpy.ma import.
        half = d.size // 2
        kth = [half - 1, half] if d.size % 2 == 0 else [half]
        med = float(np.partition(d, kth)[kth].mean())
        bandwidth = med if med > 0.0 else 1.0

    # Each pair once, picked from one end or both, in (lo, hi) order: an underflowed weight names the least such pair.
    chosen = np.flatnonzero(np.bincount(pick, minlength=pairs.size))
    w = np.array([math.exp(-x**2 / (2.0 * bandwidth**2)) for x in km[chosen].tolist()])
    return Graph(n, lo[chosen], hi[chosen], w)


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

    An optional header row is skipped, and a node no edge names is isolated. An edge that ``Graph`` rejects, an
    index outside [0, n) among them, raises its error, prefixed with the file and row.
    """
    # Node indices stay Python ints until ``Graph`` has range-checked them: one past int64 is still out of range.
    rows, src, dst, weight = array.array("q"), [], [], array.array("d")
    for r, row in _data_rows(path):
        if len(row) not in (2, 3):
            raise ValueError(f"{path}: row {r + 1}: expected 2 or 3 columns, got {len(row)}")
        rows.append(r)
        src.append(_cell(path, r, 0, row, int, "a node index"))
        dst.append(_cell(path, r, 1, row, int, "a node index"))
        weight.append(_cell(path, r, 2, row, float, "a weight") if len(row) == 3 else 1.0)
    try:
        return Graph(n, src, dst, weight)
    except ValueError as exc:
        row = f"row {rows[exc.edge] + 1}: " if isinstance(exc, _EdgeError) else ""
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
