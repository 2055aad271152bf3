import json
import os

import numpy as np

import gen
import run
from graphfill.graphs import knn_graph, load_edge_list_csv
from graphfill.signals import load_signal_csv


def test_same_seed_gives_byte_identical_files(tmp_path):
    a = gen.write_knn_inputs(str(tmp_path / "a"), 7, 60, 8, 10, 40)
    b = gen.write_knn_inputs(str(tmp_path / "b"), 7, 60, 8, 10, 40)
    c = gen.write_knn_inputs(str(tmp_path / "c"), 8, 60, 8, 10, 40)
    assert gen.digest(a) == gen.digest(b)
    assert gen.digest(a) != gen.digest(c)
    e1 = gen.write_er_inputs(str(tmp_path / "e1"), 7, 30, 0.25, 8, 40)
    e2 = gen.write_er_inputs(str(tmp_path / "e2"), 7, 30, 0.25, 8, 40)
    assert gen.digest(e1) == gen.digest(e2)


def test_knn_adjacency_matches_package_rule():
    rng = np.random.default_rng(3)
    lat = rng.uniform(*gen.LAT_RANGE, size=80)
    lon = rng.uniform(*gen.LON_RANGE, size=80)
    ours = gen.knn_adjacency(lat, lon, 8)
    theirs = knn_graph(list(zip(lat, lon)), 8).adjacency
    np.testing.assert_array_equal(ours != 0, theirs != 0)
    np.testing.assert_allclose(ours, theirs, rtol=1e-12, atol=0.0)


def test_generated_files_ingest_bit_exactly(tmp_path):
    paths = gen.write_er_inputs(str(tmp_path), 5, 30, 0.25, 8, 40)
    g = load_edge_list_csv(paths["edge_list"], n=30)
    assert g.n_nodes == 30 and np.all(g.adjacency.sum(axis=1) > 0)
    values = load_signal_csv(paths["signal"], "nodes-as-rows").values
    with open(paths["signal"], encoding="utf-8") as fh:
        first = fh.readline().strip().split(",")
    assert [repr(float(v)) for v in values[0]] == first


def test_benchmark_json_registers_the_bench_tables():
    root = os.path.dirname(run.HERE)
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert layer == {name: run.per_layer_unit(name) for name in run.PER_LAYER}
