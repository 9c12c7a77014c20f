"""Paired A/B runs of the benchmark: a parent tree against a change tree.

Usage, from anywhere:

    python3 tools/bench_pairs.py --parent DIR --change DIR \
        --workload enum [series queries ...] --seeds 12-21 \
        [--trace-seed 7-9] [--claim enum wall_s] [--parent-commit SHA] \
        [--change-commit SHA] --out BENCH_7.json

Each tree is a plain export of one commit (`git archive <commit> | tar -x
-C DIR`).  The script runs the benchmark command that the change tree's
BENCHMARK.json declares, unmodified, for its declared run length T
(`run_seconds`), with the working directory set to each tree in turn:

    <command> --workload W --seed S --seconds T --trace 0

Each workload gets one pair per seed.  A pair is one run of each side on
the same seed, back to back; the parent goes first in even-numbered pairs
and the change in odd-numbered ones, so slow drift of the host falls on
both sides alike.  The pairs run round-robin, pair i of every workload
before pair i + 1 of any, so that drift also spreads over the workloads
instead of landing on one.  With --trace-seed, which takes a seed list
like --seeds, traced pairs (--trace 1) of each workload follow the last
untraced pair, one per traced seed, the first side alternating in the same
way.  Their per-layer metrics are compared by each side's median over the
traced runs, so one slow stretch of the host does not read as a layer's
loss or gain; the per-run values are kept next to the medians.

The output has the layout of the earlier BENCH files: every run's result
line, per-metric quartiles (statistics.quantiles(n=4, method='inclusive'))
over each side's untraced runs, wins and losses by pair, the parent's
spread (IQR / median), and a verdict per metric.  A metric whose parent
spread exceeds its bound is 'unresolved' unless every change run beats every
parent run.  With --claim W M, the claim rule is checked on metric M of
workload W: the change wins at least nine tenths of the pairs and beats the
parent median by more than the parent IQR.  The output file is written
after each completed pair, untraced or traced, and again at the end, so a
run that fails late keeps every pair before it; a run that times out is
listed under runs_not_completed like one that printed no result line.

Standard library only: it reads numbers off the benchmark's result lines
and machine information off the report the benchmark writes to .bench_out/
in each tree.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

WHAT = "paired runs of the unmodified benchmark command, parent commit against this change"
METHOD = (
    "Pairs run back to back on one seed each; the side that runs first alternates from pair "
    "to pair (parent first in even-numbered pairs). Quartiles are statistics.quantiles(n=4, "
    "method='inclusive') over each side's untraced runs. A pair is won when the change's value "
    "is better; ties count for neither. spread = parent IQR / parent median; a metric whose "
    "spread exceeds its bound is 'unresolved' unless every change run beats every parent run."
)
SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """'12-21' or '3,5,8' (or a mix, '2-4,9') as a list of seeds."""
    seeds: list[int] = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": med, "q1": q1, "q3": q3, "min": min(values), "max": max(values)}


def summarize(pairs: list[dict], spec: dict) -> dict:
    """Quartiles, wins and verdict of one end-to-end metric over the pairs.

    `spec` is the metric's BENCHMARK.json entry (name, unit, better, bound).
    """
    name, bound = spec["name"], spec["bound"]
    sign = 1 if spec["better"] == "lower" else -1  # sign * (change - parent) < 0 is better
    values = {
        side: [p[side]["metrics"][name]["value"] for p in pairs] for side in SIDES
    }
    stats = {side: quartiles(values[side]) for side in SIDES}
    parent_med = stats["parent"]["median"]
    diffs = [sign * (c - p) for p, c in zip(values["parent"], values["change"])]
    rel = (stats["change"]["median"] - parent_med) / parent_med if parent_med else math.nan
    spread = (stats["parent"]["q3"] - stats["parent"]["q1"]) / parent_med if parent_med else math.nan
    if sign > 0:
        every_run_better = max(values["change"]) < min(values["parent"])
    else:
        every_run_better = min(values["change"]) > max(values["parent"])
    if every_run_better:
        verdict = "better in every run"
    elif spread > bound:
        verdict = "unresolved (parent spread wider than the bound)"
    elif sign * rel > bound:
        verdict = "worse beyond the bound"
    elif sign * rel < 0:
        verdict = "better median, within the bound"
    elif rel == 0:
        verdict = "same median"
    else:
        verdict = "worse median, within the bound"
    return {
        "unit": spec["unit"],
        "better": spec["better"],
        "bound": bound,
        "parent": stats["parent"],
        "change": stats["change"],
        "median_change_rel": rel,
        "parent_spread_rel": spread,
        "change_wins": sum(d < 0 for d in diffs),
        "change_losses": sum(d > 0 for d in diffs),
        "pairs": len(pairs),
        "verdict": verdict,
    }


def claim(summary: dict, metric: str, workload: str, seeds: list[int]) -> dict:
    """The claim rule on one metric: wins in >= 9/10 of the pairs and a
    median gap, in the better direction, wider than the parent IQR."""
    s = summary[metric]
    sign = 1 if s["better"] == "lower" else -1
    gap = sign * (s["parent"]["median"] - s["change"]["median"])
    iqr = s["parent"]["q3"] - s["parent"]["q1"]
    return {
        "metric": metric,
        "workload": workload,
        "rule": "change wins >= 9 of 10 pairs and the median gap, in the better direction, "
                "exceeds the parent IQR",
        "wins": s["change_wins"],
        "pairs": s["pairs"],
        "median_gap": gap,
        "parent_iqr": iqr,
        "median_change_rel": s["median_change_rel"],
        "met": 10 * s["change_wins"] >= 9 * s["pairs"] and gap > iqr,
        "seeds": seeds,
    }


def compare_traced(pairs: list[dict]) -> dict:
    """Per-layer comparison of traced pairs (each {"parent": result,
    "change": result} on one seed): for every busy time and rate of the
    parent's runs, each side's median over the runs and the per-run values
    (0.0 where a run lacks the layer), and whether every call count is
    identical between the two sides of every pair."""
    def value(result: dict, key: str) -> float | None:
        return result["metrics"].get(key, {}).get("value")

    keys = list(dict.fromkeys(k for p in pairs for k in p["parent"]["metrics"]))
    differing = [k for k in keys if k.endswith(".calls")
                 and any(value(p["parent"], k) != value(p["change"], k) for p in pairs)]
    layers = {}
    for key in keys:
        if key.endswith(".busy_s") or key.endswith("_per_s"):
            runs = {side: [value(p[side], key) or 0.0 for p in pairs] for side in SIDES}
            med = {side: statistics.median(runs[side]) for side in SIDES}
            layers[key] = {"parent": med["parent"], "change": med["change"],
                           "delta": med["change"] - med["parent"],
                           "ratio": med["change"] / med["parent"] if med["parent"] else None,
                           "parent_runs": runs["parent"], "change_runs": runs["change"]}
    return {"calls_identical": not differing, "calls_differing": differing, "layers": layers}


def run_once(tree: Path, command: list[str], workload: str, seed: int,
             seconds: float, trace: int) -> tuple[dict | None, str]:
    """One benchmark run in `tree`: (result line or None, stderr tail)."""
    args = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    try:
        done = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                              timeout=seconds * 20 + 300)
    except subprocess.TimeoutExpired as exc:
        return None, f"timed out after {exc.timeout:g} s"
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return result, done.stderr.strip()[-500:]


def machine(tree: Path, workload: str, seed: int, trace: int) -> dict | None:
    """The machine block of the report the benchmark left in `tree`."""
    report = tree / ".bench_out" / f"{workload}-seed{seed}-trace{trace}.json"
    try:
        info = json.loads(report.read_text())["machine"]
    except (OSError, ValueError, KeyError):
        return None
    info.pop("git_commit", None)  # an exported tree has none
    return info


def run_pair(trees: dict[str, Path], command: list[str], seconds: float, workload: str,
             i: int, seed: int, not_completed: list[str], trace: int = 0) -> dict | None:
    """Pair number i of runs of one workload, traced when `trace` is 1, the
    parent first when i is even; None when a side gave no result, noted in
    `not_completed`."""
    order = SIDES if i % 2 == 0 else SIDES[::-1]
    pair = {"seed": seed, "first": order[0]}
    label = f"{workload} traced" if trace else workload
    wall = "bench.wall_s_untraced" if trace else "wall_s"  # a traced run reports layers
    for side in order:
        result, err = run_once(trees[side], command, workload, seed, seconds, trace)
        metrics = result.get("metrics") if result else None
        print(f"{label} pair {i} seed {seed} {side}: "
              + (f"{wall} {metrics[wall]['value']:.4f}" if metrics else "no result"),
              file=sys.stderr)
        if not metrics:
            not_completed.append(
                f"{label} seed {seed}, {side} side: no result line ({err[-200:]})")
            return None
        pair[side] = result
    return pair


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="exported parent tree")
    parser.add_argument("--change", type=Path, required=True, help="exported change tree")
    parser.add_argument("--workload", nargs="+", required=True, help="one or more workloads")
    parser.add_argument("--seeds", type=parse_seeds, required=True, help="e.g. 12-21 or 3,5,8")
    parser.add_argument("--trace-seed", type=parse_seeds,
                        help="add one traced pair per seed and workload, e.g. 7-9")
    parser.add_argument("--claim", nargs=2, metavar=("WORKLOAD", "METRIC"),
                        help="end-to-end metric of a workload whose claim rule to check")
    parser.add_argument("--parent-commit", default=None)
    parser.add_argument("--change-commit", default=None)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    command, seconds, metrics = spec["command"], spec["run_seconds"], spec["end_to_end"]
    if args.claim and (args.claim[0] not in args.workload
                       or args.claim[1] not in {m["name"] for m in metrics}):
        parser.error(f"--claim {' '.join(args.claim)}: needs a workload given to --workload "
                     "and an end-to-end metric")

    doc = {
        "what": WHAT,
        "command": " ".join(command) + f" --workload <w> --seed <N> --seconds {seconds:g} "
                   "--trace <0|1>",
        "parent_commit": args.parent_commit,
        "change_commit": args.change_commit,
        "checkouts": "each side runs from its own `git archive` export of its commit",
        "method": METHOD,
        "machine": None,
        "workloads": {},
        "runs_not_completed": [],
    }
    pairs_of: dict[str, list[dict]] = {workload: [] for workload in args.workload}
    traced_of: dict[str, list[dict]] = {workload: [] for workload in args.workload}

    def save() -> None:
        """Write the document over every pair completed so far."""
        for workload, pairs in pairs_of.items():
            if not pairs:
                continue
            if doc["machine"] is None:
                doc["machine"] = machine(trees["change"], workload, pairs[0]["seed"], 0)
            doc["workloads"][workload] = {
                "seeds": sorted({p["seed"] for p in pairs}),
                "pairs": pairs,
                "summary": {m["name"]: summarize(pairs, m) for m in metrics},
                "checks": {
                    "parent": sum(p["parent"]["failed"] for p in pairs),
                    "change": sum(p["change"]["failed"] for p in pairs),
                    "attempted_parent": sum(p["parent"]["attempted"] for p in pairs),
                    "attempted_change": sum(p["change"]["attempted"] for p in pairs),
                },
            }
            traced = traced_of[workload]
            if traced:
                doc[f"traced_{workload}"] = {"pairs": traced, **compare_traced(traced)}
        if args.claim and args.claim[0] in doc["workloads"]:
            workload, metric = args.claim
            doc["claim"] = claim(doc["workloads"][workload]["summary"], metric, workload,
                                 doc["workloads"][workload]["seeds"])
        args.out.write_text(json.dumps(doc, indent=1) + "\n")

    for i, seed in enumerate(args.seeds):
        for workload in args.workload:
            pair = run_pair(trees, command, seconds, workload, i, seed, doc["runs_not_completed"])
            if pair is not None:
                pairs_of[workload].append(pair)
                save()
    for workload, pairs in pairs_of.items():
        if not pairs:
            continue
        for name, s in doc["workloads"][workload]["summary"].items():
            print(f"{workload} {name}: {s['parent']['median']:.6g} -> {s['change']['median']:.6g} "
                  f"({100 * s['median_change_rel']:+.1f}%, wins {s['change_wins']}/{s['pairs']}, "
                  f"spread {100 * s['parent_spread_rel']:.0f}%): {s['verdict']}", file=sys.stderr)
        for i, seed in enumerate(args.trace_seed or ()):
            pair = run_pair(trees, command, seconds, workload, i, seed,
                            doc["runs_not_completed"], trace=1)
            if pair is not None:
                traced_of[workload].append(pair)
                save()

    if not doc["workloads"]:
        print("error: no pair completed", file=sys.stderr)
        return 1
    save()
    return 0


if __name__ == "__main__":
    sys.exit(main())
