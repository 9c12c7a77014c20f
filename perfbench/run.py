"""sandnara benchmark.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload enum|series|queries --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

One run is one workload in this fresh, single-threaded process.  Set-up
(import of the package in a fresh interpreter, input generation, and one
warm-up pass at smoke sizes through every layer) is repeated SETUP_REPEATS
times and its median is `setup_s`.  The timed section then repeats fixed
passes of the workload until S seconds have gone by, finishing the pass in
flight.

--trace 0 reports the end-to-end metrics: median pass wall time, items per
second, peak RSS, and the median and 99th percentile latency of one unit
(a box in enum, a route call or streamed array in series, a query chain in
queries), taken over the units of a pass after each unit's latency is
reduced to its median over the passes.  --trace 1 alternates untraced and traced passes and reports the
per-layer metrics from the spans of the traced passes, plus the tracing
overhead (traced minus untraced median pass time).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics; attempted and failed count correctness
checks, so checks_failed_frac is failed / attempted.  A report with machine
information, per-pass times and sample counts, and in traced runs the full
span trace, go to .bench_out/ in the checkout.  --smoke runs every
workload once at tiny sizes and reports only the checks.
"""

from __future__ import annotations

import os

# Single-threaded numpy: set before anything imports it.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 5
IMPORTED_MODULES = ("polyomino", "qt", "bivar", "tables", "sandpile", "classes", "kn")

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    + "; ".join(f"import sandnara.{mod}" for mod in IMPORTED_MODULES)
    + "; print(time.perf_counter() - t)"
)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("items_per_s", "1/s"),
    ("peak_rss_mb", "MB"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
)


def import_seconds() -> float:
    """Import time of the package modules in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def machine_info() -> dict:
    info = {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    info["numpy"] = numpy.__version__
    info["git_commit"] = git_commit()
    return info


def git_commit() -> str | None:
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            loose = ROOT / ".git" / name
            if loose.exists():
                return loose.read_text().strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text().splitlines():
                if line.endswith(" " + name):
                    return line.split()[0]
            return None
        return ref
    except OSError:
        return None


def percentile(samples: list[float], pct: int) -> float:
    if len(samples) < 2:
        return samples[0] if samples else math.nan
    return statistics.quantiles(samples, n=100, method="inclusive")[pct - 1]


def finite_or_none(value: float):
    return value if math.isfinite(value) else None


def run_workload(wl, seed: int, seconds: float, trace: bool):
    """Set up, run the timed passes, and return (report, tracer or None)."""
    from layers import PASS, NullTracer, Tracer, layer_metrics, make_layers
    from workloads import Recorder

    rec = Recorder()
    plain = make_layers()

    setups = []
    for _ in range(SETUP_REPEATS):
        imp = import_seconds()
        t1 = time.perf_counter()
        inputs = wl.make_inputs(seed, False)
        wl.run_pass(plain, wl.make_inputs(seed, True), rec)
        setups.append(imp + time.perf_counter() - t1)

    tracer = Tracer() if trace else None
    traced = make_layers(tracer) if trace else None
    null = NullTracer()
    walls: list[float] = []
    items: list[int] = []
    latencies: list[list[float]] = []  # per untraced pass, one entry per unit
    traced_runs: list[int] = []
    start = time.perf_counter()
    index = 0
    while True:
        is_traced = trace and index % 2 == 1
        rec.tracer = tracer if is_traced else null
        rec.latencies_ms = []
        items_before = rec.items
        row = rec.tracer.open(PASS, run=index)
        t0 = time.perf_counter_ns()
        wl.run_pass(traced if is_traced else plain, inputs, rec)
        wall = (time.perf_counter_ns() - t0) / 1e9
        rec.tracer.close(row)
        if is_traced:
            traced_runs.append(index)
        else:
            walls.append(wall)
            items.append(rec.items - items_before)
            latencies.append(rec.latencies_ms)
        index += 1
        if time.perf_counter() - start >= seconds and index >= (2 if trace else 1):
            break
    elapsed = time.perf_counter() - start

    # Every pass runs the same units in the same order: take each unit's
    # median over the passes, then percentiles over the units.
    per_unit = [statistics.median(col) for col in zip(*latencies)]
    if trace:
        metrics = layer_metrics(tracer, traced_runs, walls)
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "wall_s": statistics.median(walls),
            "items_per_s": statistics.median(i / w for i, w in zip(items, walls)),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "query_p50_ms": statistics.median(per_unit),
            "query_p99_ms": percentile(per_unit, 99),
        }
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "item": wl.item,
        "items_per_pass": items,
        "passes": index,
        "elapsed_s": elapsed,
        "pass_walls_s": walls,
        "setup_repeats_s": setups,
        "units_per_pass": len(per_unit),
        "latency_samples": sum(map(len, latencies)),
        "attempted": rec.attempted,
        "failed": rec.failed,
        "checks_failed_frac": rec.failed / rec.attempted if rec.attempted else math.nan,
        "failures": rec.failures[:20],
        "metrics": metrics,
    }
    if trace:
        detail["traced_passes"] = traced_runs
        detail["spans"] = len(tracer.name)
    return detail, tracer


def smoke() -> dict:
    from layers import Tracer, make_layers
    from workloads import WORKLOADS, Recorder

    rec = Recorder()
    per = {}
    for name, wl in WORKLOADS.items():
        before = (rec.attempted, rec.failed)
        for layers in (make_layers(), make_layers(Tracer())):
            wl.run_pass(layers, wl.make_inputs(0, True), rec)
        per[name] = {"attempted": rec.attempted - before[0], "failed": rec.failed - before[1]}
        print(f"smoke {name}: {per[name]}", file=sys.stderr)
    for line in rec.failures[:20]:
        print(f"FAILED: {line}", file=sys.stderr)
    return {
        "correct": rec.failed == 0 and rec.attempted > 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("enum", "series", "queries"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload once at tiny sizes")
    args = parser.parse_args(argv)
    if not args.smoke and args.workload is None:
        parser.error("--workload is required unless --smoke is given")

    if not (SRC / "sandnara" / "__init__.py").is_file():
        print(f"error: no sandnara sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import sandnara

    if Path(sandnara.__file__).resolve().parent != (SRC / "sandnara").resolve():
        print(f"error: imported sandnara from {sandnara.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.smoke:
        result = smoke()
        print(json.dumps(result))
        return 0 if result["correct"] else 1

    from layers import per_layer_metric_names
    from workloads import WORKLOADS

    wl = WORKLOADS[args.workload]
    detail, tracer = run_workload(wl, args.seed, args.seconds, bool(args.trace))
    detail["machine"] = machine_info()

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(detail, fh, indent=1)
    if args.trace:
        tracer.dump(OUT_DIR / f"{stem}-spans.json.gz",
                    {"run_id": stem, "machine": detail["machine"]})

    names = END_TO_END if not args.trace else per_layer_metric_names()
    metrics = {
        name: {"value": finite_or_none(detail["metrics"][name]), "unit": unit}
        for name, unit in names
    }
    print(
        f"{wl.name}: {detail['passes']} passes in {detail['elapsed_s']:.1f} s, "
        f"{detail['units_per_pass']} units per pass, checks {detail['failed']}/{detail['attempted']} failed",
        file=sys.stderr,
    )
    correct = detail["failed"] == 0 and detail["attempted"] > 0
    print(json.dumps({
        "correct": correct,
        "attempted": detail["attempted"],
        "failed": detail["failed"],
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
