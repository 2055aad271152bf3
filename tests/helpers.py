"""Shared fixtures: random connected graphs and bandlimited test signals, and reference implementations."""
import hashlib
import math

import numpy as np

from graphfill.graphs import EARTH_RADIUS_KM, Graph, ObservedLayout, build_graph, gft, knn_graph, laplacian
from graphfill.prompts import NodeTask
from graphfill.signals import TimeVaryingSignal


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


def bandlimited_signal(
    basis,
    band: int,
    t_steps: int,
    rng: np.random.Generator,
    scale: float = 2.0,
    amp_max: float = 0.3,
    period: float = 97.0,
) -> TimeVaryingSignal:
    """Signal with all spectral energy in the lowest ``band`` frequencies.

    Each in-band coefficient drifts sinusoidally around a random base so
    the signal varies smoothly in time as well as over the graph.
    """
    base = rng.normal(0.0, scale, size=band)
    amp = rng.uniform(0.05, amp_max, size=band)
    phase = rng.uniform(0.0, 2.0 * np.pi, size=band)
    t = np.arange(t_steps)
    coeffs = base[:, None] + amp[:, None] * np.sin(2.0 * np.pi * t[None, :] / period + phase[:, None])
    return TimeVaryingSignal(basis.eigenvectors[:, :band] @ coeffs)


def spectral_fixture(n: int = 30, band: int = 5, t_steps: int = 500, seed: int = 123):
    """Connected graph, its Fourier basis, and a bandlimited signal on it."""
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    basis = gft(laplacian(g))
    signal = bandlimited_signal(basis, band, t_steps, rng)
    return g, basis, signal


def write_run_fixture(
    tmp_path,
    n: int = 30,
    band: int = 5,
    t_steps: int = 200,
    seed: int = 6,
    amp_max: float = 0.8,
):
    """Write edge-list and signal CSVs for a synthetic run; returns the paths.

    ``repr`` round-trips floats exactly, so CSV ingestion reproduces the
    generated signal bit-for-bit.
    """
    rng = np.random.default_rng(seed)
    g = random_connected_graph(n, rng)
    basis = gft(laplacian(g))
    signal = bandlimited_signal(basis, band, t_steps, rng, scale=2.0, amp_max=amp_max)
    edge_path = str(tmp_path / "edges.csv")
    signal_path = str(tmp_path / "signal.csv")
    a = g.adjacency  # built on each access: read it once
    with open(edge_path, "w", encoding="utf-8") as fh:
        fh.write("src,dst,weight\n")
        for i in range(n):
            for j in range(i + 1, n):
                if a[i, j]:
                    fh.write(f"{i},{j},{float(a[i, j])!r}\n")
    with open(signal_path, "w", encoding="utf-8") as fh:
        for row in signal.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return edge_path, signal_path, g, signal


def write_knn_run_fixture(tmp_path, n: int = 12, k: int = 3, band: int = 3, t_steps: int = 96, seed: int = 77):
    """Write ``node_id,lat,lon`` and signal CSVs for a synthetic run on a kNN graph; returns the two paths."""
    rng = np.random.default_rng(seed)
    coords = rng.uniform(-5, 5, size=(n, 2))
    coord_path, signal_path = tmp_path / "coords.csv", tmp_path / "signal.csv"
    with open(coord_path, "w", encoding="utf-8") as fh:
        fh.write("node_id,lat,lon\n")
        for i, (lat, lon) in enumerate(coords):
            fh.write(f"{i},{float(lat)!r},{float(lon)!r}\n")
    basis = gft(laplacian(knn_graph([tuple(map(float, c)) for c in coords], k=k)))
    signal = bandlimited_signal(basis, band, t_steps, rng)
    with open(signal_path, "w", encoding="utf-8") as fh:
        for row in signal.values:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    return str(coord_path), str(signal_path)


def seed_build_graph(n: int, edges) -> np.ndarray:
    """Reference for ``Graph``'s checks and edge rule: the dense adjacency filled edge by edge, each edge checked
    as it is taken, so the first bad edge raises."""
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
        a[i, j] = a[j, i] = w
    return a


def seed_laplacian(a) -> np.ndarray:
    """Reference for ``graphs.laplacian``: the dense rule ``diag(A 1) - A`` on the adjacency matrix."""
    return np.diag(a.sum(axis=1)) - a


def seed_haversine_km(p: tuple, q: tuple) -> float:
    """Great-circle distance in km between two (lat, lon) points in degrees, the reference for kNN distances."""
    lat1, lat2 = math.radians(p[0]), math.radians(q[0])
    dlat, dlon = (lat2 - lat1) / 2.0, (math.radians(q[1]) - math.radians(p[1])) / 2.0
    s = math.sin(dlat) ** 2 + math.cos(lat1) * math.cos(lat2) * math.sin(dlon) ** 2
    return 2.0 * EARTH_RADIUS_KM * math.asin(min(1.0, math.sqrt(s)))


def seed_observed_layout(g: Graph, observed) -> ObservedLayout:
    """Reference for ``graphs.observed_layout``: the same layout built from per-node neighbor lists."""
    lists = [np.flatnonzero(row).tolist() for row in g.adjacency]
    observed = np.asarray(observed, dtype=bool)
    flags, missing = observed.tolist(), np.flatnonzero(~observed).tolist()
    rows = {i: [j for j in lists[i] if flags[j]] for i in missing}
    nodes = np.array([i for i in missing if rows[i]], dtype=np.int64)
    counts = np.array([len(rows[i]) for i in nodes.tolist()], dtype=np.int64)
    neighbors = np.array(sorted({j for i in nodes.tolist() for j in rows[i]}), dtype=np.int64)
    position = {j: p for p, j in enumerate(neighbors.tolist())}
    slots = np.full((1 + max(counts.tolist(), default=0), nodes.size), neighbors.size)
    for r, i in enumerate(nodes.tolist()):
        slots[1:1 + len(rows[i]), r] = [position[j] for j in rows[i]]
    isolated = np.array([i for i in missing if not rows[i]], dtype=np.int64)
    digits = np.array([len(str(i)) for i in nodes.tolist()], dtype=np.int64)
    return ObservedLayout(nodes, isolated, slots, counts, neighbors, digits)


def seed_build_task(node: int, t: int, previous: float, processed, adjacency, observed, precision: int = 1) -> NodeTask:
    """Reference for ``prompts.build_task``: the task read from a dense ``adjacency`` row and the mask, not a layout."""
    values = [float(processed[j]) for j in np.flatnonzero(adjacency[node]).tolist() if observed[j]]
    return NodeTask(node=node, t=t, previous=previous, neighbor_values=tuple(values), precision=precision)


def seed_graph_convolve(basis, h, x) -> np.ndarray:
    """Reference for ``spectral.graph_convolve``: the filter applied through the basis, ``U (h * (U^T x))``."""
    u = basis.eigenvectors
    return u @ (np.asarray(h, dtype=np.float64) * (u.T @ np.asarray(x, dtype=np.float64)))


def seed_sign_flips(u) -> np.ndarray:
    """Reference for ``gft``'s sign rule: columns whose largest-magnitude entry (first on ties) is negative."""
    return u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])] < 0


def seed_basis_ref(basis) -> str:
    """Reference for ``GftBasis.ref``: the digest of the eigenvalues' then the eigenvectors' ``tobytes()``."""
    return hashlib.sha256(basis.eigenvalues.tobytes() + basis.eigenvectors.tobytes()).hexdigest()[:16]


def seed_knn_candidates(rad, k) -> tuple:
    """Reference for ``graphs._knn_candidates``: the screen by the haversine inner term, taken with ``np.sin``.

    Every j whose term is within a relative 1e-9 (and an absolute 1e-300) of the row's k-th smallest is kept.
    """
    lat, lon, cos_lat = np.asarray(rad).T
    n = lat.shape[0]
    pairs = []
    for start in range(0, n, 256):
        rows = np.arange(start, min(start + 256, n))
        s_lat = np.sin((lat[None, :] - lat[rows, None]) / 2.0)
        s_lon = np.sin((lon[None, :] - lon[rows, None]) / 2.0)
        a = s_lat * s_lat + cos_lat[rows, None] * cos_lat[None, :] * (s_lon * s_lon)
        a[rows - start, rows] = np.inf
        kth = np.partition(a, k - 1, axis=1)[:, k - 1]
        r, c = np.nonzero(a <= (kth * (1.0 + 1e-9) + 1e-300)[:, None])
        pairs.append((r + start, c))
    return tuple(np.concatenate(x) for x in zip(*pairs))
