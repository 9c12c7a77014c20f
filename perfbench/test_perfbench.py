"""Tests of the benchmark itself: smoke mode, the correctness gate, the
layer boundaries of each workload, and the output contract.

Run with `python -m pytest perfbench` from the root of the repository.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(BENCH))

from layers import Tracer, make_layers, per_layer_metric_names  # noqa: E402
from sandnara.bivar import BivarPoly, QtSeries  # noqa: E402
from workloads import WORKLOADS, Recorder, queries_inputs  # noqa: E402


def run_bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


def smoke_pass(name, layers):
    rec = Recorder()
    wl = WORKLOADS[name]
    wl.run_pass(layers, wl.make_inputs(0, True), rec)
    return rec


def test_smoke_mode_runs_every_workload():
    done = run_bench("--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] > 0
    for name in WORKLOADS:
        assert f"smoke {name}" in done.stderr


def test_perturbed_reference_is_counted_as_failure():
    layers = make_layers()
    exact = layers.series_of_form

    def perturbed(form, order):
        series = exact(form, order)
        return QtSeries(order, tuple(p + BivarPoly.monomial(0, 0) for p in series.coeffs))

    layers.series_of_form = perturbed
    rec = smoke_pass("enum", layers)
    boxes = WORKLOADS["enum"].make_inputs(0, True)[0]
    assert rec.failed == len(boxes)
    assert all("closed form" in line for line in rec.failures)
    # the failed boxes are not timed successes
    assert rec.latencies_ms.count(float("inf")) == len(boxes)


def test_raising_call_is_a_failure_and_the_run_goes_on():
    layers = make_layers()

    def broken(config):
        raise RuntimeError("boom")

    layers.stabilize = broken
    rec = smoke_pass("queries", layers)
    queries = WORKLOADS["queries"].make_inputs(0, True)
    assert rec.failed == len(queries)
    assert rec.items == 0


def test_wrong_topple_counts_are_caught():
    layers = make_layers()
    exact = layers.stabilize

    def off_by_one(config):
        final, counts = exact(config)
        return final, tuple(c + 1 for c in counts)

    layers.stabilize = off_by_one
    rec = smoke_pass("queries", layers)
    assert sum("stabilize" in line for line in rec.failures) == len(queries_inputs(0, True))


def spans_of(name):
    tracer = Tracer()
    rec = smoke_pass(name, make_layers(tracer))
    assert rec.failed == 0
    return {tracer.names[i] for i in tracer.name}


def test_each_workload_bypasses_the_layers_it_should():
    enum, series, queries = spans_of("enum"), spans_of("series"), spans_of("queries")
    assert {"qt.narayana_poly", "polyomino.enumerate_para", "bivar.eq"} <= enum
    assert not {s for s in enum if s.startswith(("sandpile.", "kn."))}
    assert not enum & {"qt.transfer_matrix_F", "qt.rational_series_arrays"}
    assert {"qt.transfer_matrix_F", "qt.rational_series_arrays", "bivar.is_qt_symmetric"} <= series
    assert not series & {"qt.narayana_poly", "polyomino.enumerate_para"}
    assert {"sandpile.stabilize", "classes.matrix_of_config", "kn.dyck_of"} <= queries
    assert not {s for s in queries if s.startswith("qt.")}


def test_query_inputs_follow_the_seed():
    assert queries_inputs(7, True) == queries_inputs(7, True)
    assert queries_inputs(7, True) != queries_inputs(8, True)


def test_result_line_has_every_metric_of_the_benchmark_file():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == per_layer_metric_names()
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        done = run_bench("--workload", "queries", "--seed", "3", "--seconds", "0", "--trace", trace)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] is True and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == {
            m["name"]: m["unit"] for m in spec[key]
        }
        for metric in result["metrics"].values():
            assert isinstance(metric["value"], (int, float))


def test_fails_without_the_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("--workload", "enum", "--seed", "1", "--seconds", "1", "--trace", "0",
                     cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""
