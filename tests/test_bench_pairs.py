"""The summary and verdict rules of tools/bench_pairs.py, on made-up runs."""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

WALL = {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25}
RATE = {"name": "items_per_s", "unit": "1/s", "better": "higher", "bound": 0.25}


def pairs_of(parent, change, name="wall_s"):
    def result(v):
        return {"metrics": {name: {"value": v}}, "attempted": 1, "failed": 0}

    return [{"parent": result(p), "change": result(c)} for p, c in zip(parent, change)]


def test_parse_seeds():
    assert bench_pairs.parse_seeds("12-15") == [12, 13, 14, 15]
    assert bench_pairs.parse_seeds("3,5,8") == [3, 5, 8]
    assert bench_pairs.parse_seeds("2-3,9") == [2, 3, 9]


def test_better_in_every_run_and_claim():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.99]
    change = [0.80, 0.79, 0.81, 0.82, 0.78, 0.80, 0.81, 0.79, 0.80, 0.83]
    s = bench_pairs.summarize(pairs_of(parent, change), WALL)
    assert s["verdict"] == "better in every run"
    assert (s["change_wins"], s["change_losses"], s["pairs"]) == (10, 0, 10)
    assert s["parent"]["median"] == pytest.approx(1.0)
    assert s["median_change_rel"] == pytest.approx(-0.2)
    c = bench_pairs.claim({"wall_s": s}, "wall_s", "enum", list(range(10)))
    assert c["met"] and c["median_gap"] == pytest.approx(0.2)


def test_claim_needs_nine_of_ten_wins():
    parent = [1.0] * 10
    change = [0.8] * 8 + [1.1, 1.2]
    s = bench_pairs.summarize(pairs_of(parent, change), WALL)
    assert s["change_wins"] == 8 and s["change_losses"] == 2
    assert not bench_pairs.claim({"wall_s": s}, "wall_s", "enum", [1])["met"]


def test_unresolved_when_parent_spread_exceeds_bound():
    parent = [0.5, 1.0, 1.5, 0.6, 1.4]
    change = [0.9, 1.1, 1.0, 0.95, 1.05]
    s = bench_pairs.summarize(pairs_of(parent, change), WALL)
    assert s["parent_spread_rel"] > 0.25
    assert s["verdict"] == "unresolved (parent spread wider than the bound)"


def test_worse_beyond_the_bound_for_higher_is_better():
    parent = [100.0, 101.0, 99.0]
    change = [70.0, 71.0, 101.5]
    s = bench_pairs.summarize(pairs_of(parent, change, "items_per_s"), RATE)
    assert s["change_losses"] == 2 and s["change_wins"] == 1
    assert s["verdict"] == "worse beyond the bound"


def traced(busy, calls):
    return {"metrics": {
        "qt.narayana_poly.busy_s": {"value": busy},
        "qt.narayana_poly.calls": {"value": calls},
        "qt.narayana_poly.objects_per_s": {"value": 1.0 / busy},
    }}


def test_compare_traced():
    out = bench_pairs.compare_traced([{"parent": traced(0.2, 10), "change": traced(0.1, 10)}])
    assert out["calls_identical"] and out["calls_differing"] == []
    assert out["layers"]["qt.narayana_poly.objects_per_s"]["ratio"] == pytest.approx(2.0)
    out = bench_pairs.compare_traced([{"parent": traced(0.2, 10), "change": traced(0.1, 11)}])
    assert out["calls_differing"] == ["qt.narayana_poly.calls"]
    # several pairs: per-side medians, per-run values in pair order; one
    # slow change run does not move the median, and the call counts are
    # compared within each pair (seeds differ between pairs)
    pairs = [
        {"parent": traced(0.20, 10), "change": traced(0.15, 10)},
        {"parent": traced(0.22, 12), "change": traced(0.30, 12)},
        {"parent": traced(0.18, 11), "change": traced(0.14, 11)},
    ]
    out = bench_pairs.compare_traced(pairs)
    assert out["calls_identical"]
    busy = out["layers"]["qt.narayana_poly.busy_s"]
    assert busy["parent_runs"] == [0.20, 0.22, 0.18] and busy["change_runs"] == [0.15, 0.30, 0.14]
    assert (busy["parent"], busy["change"]) == (0.20, 0.15)
    assert busy["delta"] == pytest.approx(-0.05) and busy["ratio"] == pytest.approx(0.75)
    pairs[1]["change"] = traced(0.30, 13)
    assert bench_pairs.compare_traced(pairs)["calls_differing"] == ["qt.narayana_poly.calls"]


def test_compare_traced_layer_missing_from_change():
    parent = {"metrics": {"old.layer.busy_s": {"value": 0.5}, "old.layer.calls": {"value": 3}}}
    out = bench_pairs.compare_traced([{"parent": parent, "change": {"metrics": {}}}])
    assert out["layers"]["old.layer.busy_s"]["change"] == 0.0
    assert out["layers"]["old.layer.busy_s"]["change_runs"] == [0.0]
    assert out["calls_differing"] == ["old.layer.calls"]


FAKE_RUN = '''
import json, os, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
with open("../runs.log", "a") as log:  # shared by both trees, in run order
    log.write(" ".join((os.path.basename(os.getcwd()), args["--workload"], args["--seed"],
                        args["--trace"])) + "\\n")
wall = float(open("wall.txt").read()) + int(args["--seed"]) / 1000
if args["--trace"] == "1":  # a traced run reports per-layer metrics only
    metrics = {"bench.wall_s_untraced": {"value": wall},
               "qt.narayana_poly.busy_s": {"value": wall / 2},
               "qt.narayana_poly.calls": {"value": 7}}
else:
    metrics = {"wall_s": {"value": wall}}
print(json.dumps({"workload": args["--workload"], "seconds": args["--seconds"],
                  "metrics": metrics, "attempted": 2, "failed": 0}))
'''


def fake_tree(root, wall):
    root.mkdir()
    (root / "fake_run.py").write_text(FAKE_RUN)
    (root / "wall.txt").write_text(str(wall))
    (root / "BENCHMARK.json").write_text(json.dumps({
        "command": [sys.executable, "fake_run.py"], "run_seconds": 3, "end_to_end": [WALL],
    }))
    return root


def test_main_runs_every_workload_into_one_file(tmp_path):
    parent, change = fake_tree(tmp_path / "p", 1.0), fake_tree(tmp_path / "c", 0.5)
    out = tmp_path / "BENCH.json"
    assert bench_pairs.main([
        "--parent", str(parent), "--change", str(change), "--workload", "enum", "series",
        "--seeds", "1-3", "--trace-seed", "8-9", "--claim", "enum", "wall_s",
        "--out", str(out),
    ]) == 0
    doc = json.loads(out.read_text())
    assert sorted(doc["workloads"]) == ["enum", "series"]
    assert "--seconds 3 " in doc["command"] and doc["runs_not_completed"] == []
    for name, w in doc["workloads"].items():
        assert [(p["seed"], p["first"]) for p in w["pairs"]] == [
            (1, "parent"), (2, "change"), (3, "parent")]
        assert {p[side]["workload"] for p in w["pairs"] for side in ("parent", "change")} == {name}
        assert {p["parent"]["seconds"] for p in w["pairs"]} == {"3"}
        assert w["seeds"] == [1, 2, 3] and w["checks"]["attempted_change"] == 6
        assert w["summary"]["wall_s"]["verdict"] == "better in every run"
        traced_doc = doc[f"traced_{name}"]
        assert traced_doc["calls_identical"]
        assert [(p["seed"], p["first"]) for p in traced_doc["pairs"]] == [
            (8, "parent"), (9, "change")]
        busy = traced_doc["layers"]["qt.narayana_poly.busy_s"]
        assert busy["parent_runs"] == [pytest.approx(1.008 / 2), pytest.approx(1.009 / 2)]
        assert busy["change"] == pytest.approx((0.508 + 0.509) / 4)
    assert doc["claim"]["workload"] == "enum" and doc["claim"]["met"]
    # round-robin: pair i of every workload before pair i + 1, then each
    # workload's traced pairs; the parent ("p") first in even-numbered pairs
    order = [line.split() for line in (tmp_path / "runs.log").read_text().splitlines()]
    pair_runs = [(side, w, seed) for seed, sides in (("1", "pc"), ("2", "cp"), ("3", "pc"))
                 for w in ("enum", "series") for side in sides]
    assert order == [[side, w, seed, "0"] for side, w, seed in pair_runs] + [
        [side, w, seed, "1"] for w in ("enum", "series")
        for seed, sides in (("8", "pc"), ("9", "cp")) for side in sides]


def test_main_keeps_finished_pairs_when_a_late_run_fails(tmp_path, monkeypatch):
    parent, change = fake_tree(tmp_path / "p", 1.0), fake_tree(tmp_path / "c", 0.5)
    out = tmp_path / "BENCH.json"
    run_once = bench_pairs.run_once

    def failing_when_traced(tree, command, workload, seed, seconds, trace):
        if trace:
            raise RuntimeError("traced run failed")
        return run_once(tree, command, workload, seed, seconds, trace)

    monkeypatch.setattr(bench_pairs, "run_once", failing_when_traced)
    with pytest.raises(RuntimeError, match="traced run failed"):
        bench_pairs.main([
            "--parent", str(parent), "--change", str(change), "--workload", "enum", "series",
            "--seeds", "1-3", "--trace-seed", "8", "--out", str(out),
        ])
    doc = json.loads(out.read_text())
    for w in doc["workloads"].values():
        assert [p["seed"] for p in w["pairs"]] == [1, 2, 3]
        assert w["summary"]["wall_s"]["pairs"] == 3
    assert sorted(doc["workloads"]) == ["enum", "series"]
    assert "traced_enum" not in doc


def test_timed_out_run_is_not_completed(tmp_path, monkeypatch):
    def timeout(args, **kwargs):
        raise bench_pairs.subprocess.TimeoutExpired(args, kwargs["timeout"])

    monkeypatch.setattr(bench_pairs.subprocess, "run", timeout)
    trees = {side: tmp_path for side in ("parent", "change")}
    not_completed = []
    assert bench_pairs.run_pair(trees, ["run"], 3, "enum", 0, 5, not_completed) is None
    assert not_completed == ["enum seed 5, parent side: no result line (timed out after 360 s)"]
