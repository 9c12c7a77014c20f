"""The benchmark's only door into sandnara, with optional span tracing.

Every call the workloads make into a sandnara module goes through a
`Layers` facade.  Untraced, each attribute is the library callable itself,
so the timed section pays nothing.  Traced, each attribute records one span
(name, start, end, parent, run) around the call; spans are kept in memory
as parallel arrays and written out when the run ends.

The spans sit at the boundary between the benchmark and the library, never
inside it: a library function that calls another library function yields a
single span, so a layer span has no children and its self time equals its
busy time; `bench.self_s` is the harness's own time, the pass span minus
its layer spans.  Span names are `<module>.<function>`.  Equality tests and
attribute reads on returned objects are the benchmark's own time, except
`BivarPoly` equality, which is the `bivar.eq` layer.
"""

from __future__ import annotations

import gzip
import json
import statistics
from array import array
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Callable, Iterable

from sandnara import bivar, classes, kn, polyomino, qt, sandpile

# Span names of the benchmark's own structure.  A pass span is the root of
# one repetition of a workload; its children are unit spans (one box, one
# route call, one query); their children are layer spans.
PASS = "bench.pass"
UNIT = "bench.unit"


def enumerate_ribbons(m: int, n: int) -> tuple[int, int]:
    """Enumerate Para_{m,n} in full and return (objects, ribbons).

    The whole enumeration, including the `is_ribbon` test on every object,
    is one `polyomino.enumerate_para` span.
    """
    total = ribbons = 0
    for poly in polyomino.enumerate_para(m, n):
        total += 1
        ribbons += poly.is_ribbon()
    return total, ribbons


def _sum_coeffs(poly: bivar.BivarPoly) -> int:
    return sum(poly.terms.values())


# attribute -> (span name, callable, per-call counter or None, streams)
# A counter maps the call's result to the count recorded with its span.
# A streaming call returns an iterator; each step gets its own span.
CALLS: dict[str, tuple[str, Callable, Callable | None, bool]] = {
    "enumerate_ribbons": ("polyomino.enumerate_para", enumerate_ribbons, lambda r: r[0], False),
    "bounce_seq": ("polyomino.bounce_seq", polyomino.ParaPolyomino.bounce_seq, None, False),
    "as_para": ("polyomino.as_para", polyomino.CellSet.as_para, None, False),
    "narayana_poly": ("qt.narayana_poly", qt.narayana_poly, _sum_coeffs, False),
    "transfer_matrix_F": (
        "qt.transfer_matrix_F",
        qt.transfer_matrix_F,
        lambda cols: sum(len(p) for p in cols),
        False,
    ),
    "series_of_form": ("qt.series_of_form", qt.series_of_form, None, False),
    "rational_series_arrays": (
        "qt.rational_series_arrays",
        qt.rational_series_arrays,
        lambda item: item[1].nbytes,
        True,
    ),
    "narayana_m2_array": ("qt.narayana_m2_array", qt.narayana_m2_array, None, False),
    "poly_to_array": ("qt.poly_to_array", qt.poly_to_array, None, False),
    "eq": ("bivar.eq", bivar.BivarPoly.__eq__, None, False),
    "is_qt_symmetric": ("bivar.is_qt_symmetric", bivar.BivarPoly.is_qt_symmetric, None, False),
    "stabilize": ("sandpile.stabilize", sandpile.stabilize, lambda r: sum(r[1]), False),
    "is_recurrent": ("sandpile.is_recurrent", sandpile.is_recurrent, int, False),
    "cell_image": ("sandpile.cell_image", sandpile.cell_image, None, False),
    "canon_top": ("sandpile.canon_top", sandpile.canon_top, None, False),
    "decorate": ("sandpile.decorate", sandpile.decorate, None, False),
    "undecorate": ("sandpile.undecorate", sandpile.undecorate, None, False),
    "count_minimal": ("classes.count_minimal", classes.count_minimal, None, False),
    "config_of_matrix": ("classes.config_of_matrix", classes.config_of_matrix, None, False),
    "matrix_of_config": ("classes.matrix_of_config", classes.matrix_of_config, None, False),
    "poset_of_matrix": ("classes.poset_of_matrix", classes.poset_of_matrix, None, False),
    "matrix_of_poset": ("classes.matrix_of_poset", classes.matrix_of_poset, None, False),
    "config_of_poset": ("classes.config_of_poset", classes.config_of_poset, None, False),
    "is_top_heavy": ("classes.is_top_heavy", classes.is_top_heavy, None, False),
    "kn_is_recurrent": ("kn.kn_is_recurrent", kn.kn_is_recurrent, None, False),
    "kn_is_recurrent_burning": (
        "kn.kn_is_recurrent_burning",
        kn.kn_is_recurrent_burning,
        None,
        False,
    ),
    "diag": ("kn.diag", kn.diag, None, False),
    "dyck_of": ("kn.dyck_of", kn.dyck_of, None, False),
    "diag_from_dyck": ("kn.diag_from_dyck", kn.diag_from_dyck, None, False),
}

LAYER_SPANS = tuple(name for name, _, _, _ in CALLS.values())
MODULES = ("polyomino", "qt", "bivar", "sandpile", "classes", "kn")

# Extra per-layer counters: span name -> (metric suffix, unit, how the
# per-pass count, busy time and call count combine into the metric).
def _rate(count: int, busy: float, calls: int) -> float:
    return count / busy if busy else 0.0


COUNTERS: dict[str, tuple[str, str, Callable[[int, float, int], float]]] = {
    "polyomino.enumerate_para": ("objects_per_s", "1/s", _rate),
    "qt.narayana_poly": ("objects_per_s", "1/s", _rate),
    "qt.transfer_matrix_F": ("terms_per_s", "1/s", _rate),
    "qt.rational_series_arrays": ("bytes_computed", "bytes", lambda count, busy, calls: float(count)),
    "sandpile.stabilize": ("topples", "count", lambda count, busy, calls: float(count)),
    "sandpile.is_recurrent": ("recurrent_share", "ratio", lambda count, busy, calls: count / calls if calls else 0.0),
}


def per_layer_metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in reporting order."""
    out: list[tuple[str, str]] = []
    for span in LAYER_SPANS:
        out.append((f"{span}.busy_s", "s"))
        out.append((f"{span}.calls", "count"))
        if span in COUNTERS:
            suffix, unit, _ = COUNTERS[span]
            out.append((f"{span}.{suffix}", unit))
    for module in MODULES:
        out.append((f"{module}.busy_s", "s"))
    out += [
        ("bench.self_s", "s"),
        ("bench.wall_s_traced", "s"),
        ("bench.wall_s_untraced", "s"),
        ("bench.trace_overhead_s", "s"),
    ]
    return out


class Tracer:
    """In-memory span store: one row per span in parallel typed arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("q")
        self.end = array("q")
        self.parent = array("l")
        self.run = array("l")
        self.count = array("q")
        self._open: list[int] = []  # stack of open span rows
        self._run = -1

    def _name_id(self, name: str) -> int:
        idx = self._ids.get(name)
        if idx is None:
            idx = self._ids[name] = len(self.names)
            self.names.append(name)
        return idx

    def open(self, name: str, run: int | None = None) -> int:
        """Start a span that encloses later ones; returns its row."""
        if run is not None:
            self._run = run
        row = self._add(self._name_id(name), perf_counter_ns(), 0, 0)
        self._open.append(row)
        return row

    def close(self, row: int) -> None:
        self.end[row] = perf_counter_ns()
        self._open.pop()

    def _add(self, name_id: int, start: int, end: int, count: int) -> int:
        self.name.append(name_id)
        self.start.append(start)
        self.end.append(end)
        self.parent.append(self._open[-1] if self._open else -1)
        self.run.append(self._run)
        self.count.append(count)
        return len(self.name) - 1

    def wrap(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            t0 = perf_counter_ns()
            result = fn(*args, **kwargs)
            t1 = perf_counter_ns()
            self._add(name_id, t0, t1, counter(result) if counter else 0)
            return result

        return traced

    def wrap_stream(self, name: str, fn: Callable, counter: Callable | None) -> Callable:
        name_id = self._name_id(name)

        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                t0 = perf_counter_ns()
                try:
                    item = next(it)
                except StopIteration:
                    self._add(name_id, t0, perf_counter_ns(), 0)
                    return
                t1 = perf_counter_ns()
                self._add(name_id, t0, t1, counter(item) if counter else 0)
                yield item

        return traced

    # -- aggregation ------------------------------------------------------

    def per_run(self, runs: Iterable[int]) -> dict[int, dict[str, list[float]]]:
        """For each run: span name -> [busy_s, calls, count] over the layer
        spans and the pass span."""
        wanted = set(runs)
        out = {r: {} for r in wanted}
        pass_id = self._ids.get(PASS)
        layer_ids = {self._ids[s] for s in LAYER_SPANS if s in self._ids}
        for i in range(len(self.name)):
            r = self.run[i]
            if r not in wanted:
                continue
            nid = self.name[i]
            if nid != pass_id and nid not in layer_ids:
                continue
            acc = out[r].setdefault(self.names[nid], [0.0, 0, 0])
            acc[0] += (self.end[i] - self.start[i]) / 1e9
            acc[1] += 1
            acc[2] += self.count[i]
        return out

    def dump(self, path, header: dict) -> None:
        """Write the spans as gzip-compressed JSON lines: the header with the
        name table first, then one [name, start_ns, end_ns, parent, run,
        count] row per span, parent being a row number or -1."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write(json.dumps(dict(header, names=self.names)) + "\n")
            for row in zip(self.name, self.start, self.end, self.parent, self.run, self.count):
                fh.write(json.dumps(row) + "\n")


class NullTracer:
    """Tracing off: spans cost nothing and nothing is recorded."""

    def open(self, name: str, run: int | None = None) -> int:
        return -1

    def close(self, row: int) -> None:
        pass


def make_layers(tracer: Tracer | None = None) -> SimpleNamespace:
    """The facade; with a tracer every call is wrapped in a span."""
    attrs = {}
    for attr, (name, fn, counter, streams) in CALLS.items():
        if tracer is None:
            attrs[attr] = fn
        elif streams:
            attrs[attr] = tracer.wrap_stream(name, fn, counter)
        else:
            attrs[attr] = tracer.wrap(name, fn, counter)
    return SimpleNamespace(**attrs)


def layer_metrics(tracer: Tracer, traced_runs: list[int], untraced_walls: list[float]) -> dict[str, float]:
    """Per-layer metrics: medians over the traced passes of per-pass values."""
    runs = tracer.per_run(traced_runs)

    def med(values: list[float]) -> float:
        return statistics.median(values) if values else 0.0

    out: dict[str, float] = {}
    for span in LAYER_SPANS:
        cells = [runs[r].get(span, [0.0, 0, 0]) for r in traced_runs]
        busy = med([c[0] for c in cells])
        calls = med([c[1] for c in cells])
        out[f"{span}.busy_s"] = busy
        out[f"{span}.calls"] = calls
        if span in COUNTERS:
            suffix, _, combine = COUNTERS[span]
            out[f"{span}.{suffix}"] = med([combine(c[2], c[0], c[1]) for c in cells])
    for module in MODULES:
        out[f"{module}.busy_s"] = med(
            [
                sum(v[0] for k, v in runs[r].items() if k.split(".")[0] == module)
                for r in traced_runs
            ]
        )
    walls = [runs[r][PASS][0] for r in traced_runs]
    selfs = [
        runs[r][PASS][0] - sum(v[0] for k, v in runs[r].items() if k != PASS)
        for r in traced_runs
    ]
    out["bench.self_s"] = med(selfs)
    out["bench.wall_s_traced"] = med(walls)
    out["bench.wall_s_untraced"] = med(untraced_walls)
    out["bench.trace_overhead_s"] = out["bench.wall_s_traced"] - out["bench.wall_s_untraced"]
    return out
