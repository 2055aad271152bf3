"""Seeded input generator for the benchmark workloads.

Writes the files a ``graphfill run`` config points at:

* ``coords.csv`` (``node_id,lat,lon``) plus ``signal.csv``: synthetic
  stations whose signal is bandlimited on the basis of their k-nearest-
  neighbor graph (same construction rule as ``graphfill.graphs.knn_graph``,
  vectorised here so generation stays cheap at n = 2000);
* ``edges.csv`` (``src,dst,weight``) plus ``signal.csv``: an Erdos-Renyi
  graph with a random spanning chain, in the shape the test fixtures use,
  with a signal bandlimited on its own basis.

Floats are written with ``repr`` so ingestion reproduces them bit for bit,
and the same seed gives byte-identical files (see :func:`digest`).
"""
import hashlib
import os

import numpy as np

EARTH_RADIUS_KM = 6371.0088
# Station box: roughly a 10 x 15 degree region at mid latitude.
LAT_RANGE = (35.0, 45.0)
LON_RANGE = (-10.0, 5.0)
SIGNAL_RMS = 2.0  # node-value scale, independent of n


def _haversine_matrix(lat_deg, lon_deg):
    lat = np.radians(lat_deg)
    lon = np.radians(lon_deg)
    dlat = lat[:, None] - lat[None, :]
    dlon = lon[:, None] - lon[None, :]
    s = np.sin(dlat / 2.0) ** 2 + np.cos(lat)[:, None] * np.cos(lat)[None, :] * np.sin(dlon / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_KM * np.arcsin(np.minimum(1.0, np.sqrt(s)))


def knn_adjacency(lat, lon, k):
    """Gaussian-weighted kNN adjacency: union of each node's k nearest, median bandwidth."""
    n = lat.shape[0]
    dist = _haversine_matrix(lat, lon)
    np.fill_diagonal(dist, np.inf)
    # A stable sort breaks distance ties by the smaller node index.
    nearest = np.argsort(dist, axis=1, kind="stable")[:, :k]
    rows = np.repeat(np.arange(n), k)
    cols = nearest.ravel()
    bandwidth = float(np.median(dist[rows, cols])) or 1.0
    a = np.zeros((n, n))
    w = np.exp(-dist[rows, cols] ** 2 / (2.0 * bandwidth**2))
    a[rows, cols] = w
    a[cols, rows] = w
    return a


def er_edges(n, rng, p):
    """Erdos-Renyi edges plus a random spanning chain, as sorted (i, j) pairs."""
    edges = set()
    order = rng.permutation(n)
    for a, b in zip(order[:-1], order[1:]):
        edges.add((int(min(a, b)), int(max(a, b))))
    for i in range(n):
        for j in range(i + 1, n):
            if rng.random() < p:
                edges.add((i, j))
    return sorted(edges)


def bandlimited_signal(adjacency, band, t_steps, rng, period=97.0):
    """N x T signal whose spectrum sits in the ``band`` lowest Laplacian frequencies.

    Each in-band coefficient drifts sinusoidally around a random base, so
    the signal is smooth over the graph and in time. Coefficients scale
    with sqrt(n / band) so node values have RMS near ``SIGNAL_RMS`` at
    every graph size.
    """
    n = adjacency.shape[0]
    lap = np.diag(adjacency.sum(axis=1)) - adjacency
    _, u = np.linalg.eigh(lap)
    scale = SIGNAL_RMS * np.sqrt(n / band)
    base = rng.normal(0.0, scale, size=band)
    amp = rng.uniform(0.05, 0.4, size=band) * scale
    phase = rng.uniform(0.0, 2.0 * np.pi, size=band)
    t = np.arange(t_steps)
    coeffs = base[:, None] + amp[:, None] * np.sin(2.0 * np.pi * t[None, :] / period + phase[:, None])
    return u[:, :band] @ coeffs


def _write_rows(path, header, rows):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        if header:
            fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(row) + "\n")
        # Flush to disk now, so write-back does not run during the timed runs.
        fh.flush()
        os.fsync(fh.fileno())


def _write_signal(path, values):
    _write_rows(path, None, ([repr(float(v)) for v in row] for row in values))


def write_knn_inputs(out_dir, seed, n, k, band, t_steps):
    """Station coordinates and a signal bandlimited on their kNN graph."""
    rng = np.random.default_rng([seed, n, 1])
    lat = rng.uniform(*LAT_RANGE, size=n)
    lon = rng.uniform(*LON_RANGE, size=n)
    adjacency = knn_adjacency(lat, lon, k)
    values = bandlimited_signal(adjacency, band, t_steps, rng)
    os.makedirs(out_dir, exist_ok=True)
    paths = {"coordinates": os.path.join(out_dir, "coords.csv"), "signal": os.path.join(out_dir, "signal.csv")}
    _write_rows(
        paths["coordinates"],
        "node_id,lat,lon",
        ([str(i), repr(float(lat[i])), repr(float(lon[i]))] for i in range(n)),
    )
    _write_signal(paths["signal"], values)
    return paths


def write_er_inputs(out_dir, seed, n, p, band, t_steps):
    """Erdos-Renyi edge list (unit weights) and a signal bandlimited on it."""
    rng = np.random.default_rng([seed, n, 2])
    edges = er_edges(n, rng, p)
    adjacency = np.zeros((n, n))
    for i, j in edges:
        adjacency[i, j] = adjacency[j, i] = 1.0
    values = bandlimited_signal(adjacency, band, t_steps, rng)
    os.makedirs(out_dir, exist_ok=True)
    paths = {"edge_list": os.path.join(out_dir, "edges.csv"), "signal": os.path.join(out_dir, "signal.csv")}
    _write_rows(paths["edge_list"], "src,dst,weight", ([str(i), str(j), repr(1.0)] for i, j in edges))
    _write_signal(paths["signal"], values)
    return paths


def digest(paths):
    """sha256 over the named files' names and bytes, in sorted key order."""
    h = hashlib.sha256()
    for key in sorted(paths):
        h.update(key.encode())
        with open(paths[key], "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()
