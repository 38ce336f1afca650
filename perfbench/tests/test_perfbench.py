"""Tests of the benchmark itself.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import worker  # noqa: E402
from workloads import WHY, Workload  # noqa: E402


def _files(directory):
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = fh.read()
    return out


def _answer(workload, tmp_path, count, trace=None):
    """Answer the first ``count`` queries of pass 0 in this process."""
    passdir = str(tmp_path / "pass0")
    queries = workload.make_pass(0, passdir)[:count]
    cwd = os.getcwd()
    os.chdir(passdir)
    try:
        records = worker.run_pass({"pass": 0, "queries": queries}, trace)
    finally:
        os.chdir(cwd)
    return queries, records, passdir


@pytest.mark.parametrize("name", sorted(WHY))
def test_generator_is_deterministic_per_seed(name, tmp_path):
    a = Workload(name, 7).make_pass(2, str(tmp_path / "a"))
    b = Workload(name, 7).make_pass(2, str(tmp_path / "b"))
    assert a == b
    assert _files(tmp_path / "a") == _files(tmp_path / "b")
    c = Workload(name, 8).make_pass(2, str(tmp_path / "c"))
    if name == "verify_suites":
        assert [q["argv"][3] for q in a] != [q["argv"][3] for q in c]
    else:
        assert a != c


@pytest.mark.parametrize("name", sorted(WHY))
def test_tail_percentile_leaves_ten_queries_beyond(name):
    workload = Workload(name, 0)
    for passes in range(workload.min_passes, workload.min_passes + 9):
        latencies = list(range(passes * workload.queries_per_pass))
        assert run.nearest_rank(latencies, workload.tail_percentile)[1] >= 10


def test_expected_table_meets_closed_forms_and_snapshot_matches_catalog():
    from simhom import catalog
    from simhom.complex import complex_to_json

    expected = oracle.load_json("expected.json")
    oracle.crosscheck(expected)
    pairs = expected["pairs"]
    assert len(pairs) == 99
    assert sum(row["witness"] == "found" for row in pairs.values()) == 83
    assert sum(count for _, count in expected["verify_suites"]) == 113
    snapshot = oracle.load_json("catalog.json")
    for name in catalog.COMPLEX_BUILDERS:
        live = complex_to_json(catalog.get_complex(name))
        assert snapshot["complexes"][name]["maximal_simplices"] == live["maximal_simplices"]
        assert snapshot["complexes"][name]["vertex_order"] == live["vertex_order"]
    for name in catalog.MAP_BUILDERS:
        assert snapshot["maps"][name]["vertex_map"] == catalog.get_map(name).vertex_map_names()


def test_oracle_rejects_tampered_lambda():
    query = {
        "key": "coincidence hex_wrap2 hex_wrap1",
        "argv": ["coincidence", "map_hex_wrap2.json", "map_hex_wrap1.json", "--json"],
        "expect": {"exit": 0, "lambda": "-1", "signed": False},
    }
    lambdas = {k: "-1" for k in ("a", "b", "c", "d", "pairing", "intersection")}
    good = {"code": 0, "out": {"command": "coincidence", "results": {"lambda": lambdas, "consistent": True, "value": "-1"}}}
    assert oracle.check(query, good, ".") is None
    wrong_value = json.loads(json.dumps(good))
    wrong_value["out"]["results"]["value"] = "2"
    wrong_value["out"]["results"]["lambda"] = {k: "2" for k in lambdas}
    assert oracle.check(query, wrong_value, ".")
    one_formula_off = json.loads(json.dumps(good))
    one_formula_off["out"]["results"]["lambda"]["pairing"] = "1"
    assert oracle.check(query, one_formula_off, ".")
    assert oracle.check(query, {"code": 3, "out": None}, ".")


def test_timed_run_installs_no_wrapper(tmp_path):
    before = tracer.originals()
    workload = Workload("catalog_queries", 3)
    queries, records, passdir = _answer(workload, tmp_path, 12)
    assert [oracle.check(q, r, passdir) for q, r in zip(queries, records)] == [None] * 12
    after = tracer.originals()
    assert all(a[2] is b[2] for a, b in zip(before, after))
    restore = tracer.install(tracer.Tracer())
    restore()
    assert all(a[2] is b[2] for a, b in zip(before, tracer.originals()))


def test_self_times_sum_to_at_most_traced_wall(tmp_path):
    workload = Workload("catalog_queries", 4)
    trace = tracer.Tracer()
    restore = tracer.install(trace)
    try:
        queries, records, passdir = _answer(workload, tmp_path, 20, trace)
    finally:
        restore()
    assert all(oracle.check(q, r, passdir) is None for q, r in zip(queries, records))
    report = trace.report()
    wall = sum(r["latency_s"] for r in records)
    self_times = sum(v for k, v in report.items() if k.endswith("_self_s"))
    assert report["cli.render_calls"] == 20
    assert 0 < self_times <= report["self_total_s"] <= wall
    assert {span[4] for span in trace.spans} <= {f"0:{i}" for i in range(20)}


def test_reported_metrics_match_benchmark_json(tmp_path):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workload = Workload("catalog_queries", 5)
    trace = tracer.Tracer()
    restore = tracer.install(trace)
    try:
        queries, records, _ = _answer(workload, tmp_path, 5, trace)
    finally:
        restore()
    result = {"records": records, "maxrss_kb": 1024, "layers": trace.report()}
    passes = [("untraced", queries, result), ("traced", queries, result)]
    e2e, _ = run.end_to_end(workload, passes * 6, [0.1])
    layers = run.per_layer(passes)
    assert [m["name"] for m in bench["end_to_end"]] == list(e2e)
    assert [m["name"] for m in bench["per_layer"]] == list(layers)
    assert [m["unit"] for m in bench["end_to_end"]] == [u for _, u in e2e.values()]
    assert [m["unit"] for m in bench["per_layer"]] == [u for _, u in layers.values()]
    assert [w["name"] for w in bench["workloads"]] == list(WHY)
