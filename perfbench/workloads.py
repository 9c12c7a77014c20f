"""The three benchmark workloads, their inputs and their correctness checks.

Each workload is a pass function that runs one fixed amount of work through
the `Layers` facade and checks every output by an independent route:

* enum     -- `narayana_poly` on tall and squarish boxes, checked against
              the rational closed forms and the Narayana count, plus full
              `enumerate_para` ribbon counts checked against `count_minimal`;
* series   -- the routes that do not enumerate: the transfer matrix checked
              against the closed forms and for q<->t symmetry, the generic F2
              series expansion and the streamed F2 arrays, both checked
              against the two-column closed form;
* queries  -- one client in a closed loop, each query a whole chain of
              sandpile, bijection and complete-graph calls on one object.

`enum` and `series` are deterministic; `queries` draws its contents from the
seed.  Work is split into units (a box, a route call, a streamed array, a
query); each unit is timed, and a unit whose checks fail or that raises is a
failure, never a timed success.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter_ns
from typing import Callable

import numpy as np

from layers import UNIT, NullTracer
from sandnara.classes import BicompMatrix
from sandnara.kn import KnConfig
from sandnara.sandpile import BipartiteConfig
from sandnara.tables import RATIONAL_FORMS

# The transfer-matrix calls pass their cap explicitly.  The library's cap
# guards Narayana(m+n-1, m), a proxy that refuses F_{6,20} by default
# although that column sweep takes about a second.
TRANSFER_MAX_OBJECTS = 10**12


def narayana_count(m: int, n: int) -> int:
    """|Para_{m,n}| = Narayana(m+n-1, m), computed here independently."""
    a = m + n - 1
    return math.comb(a, m) * math.comb(a, m - 1) // a


class Recorder:
    """Check counts, unit latencies and work items of one run."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.latencies_ms: list[float] = []
        self.items = 0
        self.tracer = NullTracer()

    def check(self, ok: bool, what: str, *context) -> None:
        """Count one check; the message is formatted only on failure."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(f"{what} at {context!r}" if context else what)

    def unit(self, what: str, *context, sample: bool = True) -> "Unit":
        """Guard, time and trace one unit of work.

        With sample=False the unit is guarded and traced but is not a
        latency sample (the per-pass reference computations).
        """
        return Unit(self, what, context, sample)


class Unit:
    """Context manager for one unit: an exception inside counts as one
    failed check and is not propagated, so the run goes on."""

    def __init__(self, rec: Recorder, what: str, context: tuple, sample: bool) -> None:
        self.rec = rec
        self.what = what
        self.context = context
        self.sample = sample
        self.items = 0

    def __enter__(self) -> "Unit":
        self.failed_before = self.rec.failed
        self.row = self.rec.tracer.open(UNIT)
        self.t0 = perf_counter_ns()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = perf_counter_ns()
        rec = self.rec
        rec.tracer.close(self.row)
        if exc is not None:
            if not isinstance(exc, Exception):
                return False
            rec.check(False, f"{self.what} raised {exc!r}", *self.context)
        ok = rec.failed == self.failed_before
        if ok:
            rec.items += self.items
        if self.sample:
            rec.latencies_ms.append((t1 - self.t0) / 1e6 if ok else math.inf)
        return exc is not None


@dataclass(frozen=True)
class Workload:
    name: str
    item: str  # what one counted item is
    make_inputs: Callable[[int, bool], object]  # (seed, smoke) -> inputs
    run_pass: Callable[[object, object, Recorder], None]  # (layers, inputs, rec)


# -- enum ---------------------------------------------------------------------

# Tall boxes (m = 2, 3 with large n) and squarish ones (m = 5, 6); about
# 3.3 * 10^5 polyominoes per pass.  F2 stays shallow: its generic reference
# series grows with n^3 and would hide the enumeration layers.
ENUM_BOXES = ((2, 30), (2, 60), (3, 24), (3, 28), (4, 12), (4, 13),
              (5, 7), (5, 8), (6, 6), (6, 7))
ENUM_RIBBON_BOXES = ((3, 12), (4, 8), (5, 6), (6, 5))
ENUM_SMOKE = (((2, 4), (3, 3), (4, 3), (5, 2), (6, 2)), ((3, 3), (4, 2)))


def enum_inputs(seed: int, smoke: bool = False):
    return ENUM_SMOKE if smoke else (ENUM_BOXES, ENUM_RIBBON_BOXES)


def enum_pass(L, inputs, rec: Recorder) -> None:
    boxes, ribbon_boxes = inputs
    orders: dict[int, int] = {}
    for m, n in boxes:
        orders[m] = max(orders.get(m, 0), n)
    refs = {}
    for m, order in orders.items():
        with rec.unit("reference series", m, order, sample=False):
            refs[m] = L.series_of_form(RATIONAL_FORMS[f"F{m}"], order)
    for m, n in boxes:
        with rec.unit("narayana_poly", m, n) as u:
            poly = L.narayana_poly(m, n)
            objects = narayana_count(m, n)
            rec.check(L.eq(poly, refs[m][n]), "F_{m,n} != closed form", m, n)
            rec.check(sum(poly.terms.values()) == objects, "F_{m,n}(1,1) != Narayana", m, n)
            u.items = objects
    for m, n in ribbon_boxes:
        with rec.unit("enumerate_para", m, n) as u:
            total, ribbons = L.enumerate_ribbons(m, n)
            rec.check(total == narayana_count(m, n), "|Para_{m,n}| != Narayana", m, n)
            rec.check(ribbons == L.count_minimal(m, n), "ribbons != count_minimal", m, n)
            u.items = total


# -- series -------------------------------------------------------------------

SERIES_TRANSFER = ((3, 32), (4, 24), (5, 19), (6, 16))
SERIES_F2_ORDER = 60
SERIES_F2_ARRAYS = 240
SERIES_SMOKE = (((3, 5), (4, 4), (5, 3), (6, 3)), 6, 8)


def series_inputs(seed: int, smoke: bool = False):
    return SERIES_SMOKE if smoke else (SERIES_TRANSFER, SERIES_F2_ORDER, SERIES_F2_ARRAYS)


def series_pass(L, inputs, rec: Recorder) -> None:
    transfer, f2_order, f2_arrays = inputs
    for m, n_max in transfer:
        with rec.unit("transfer_matrix_F", m, n_max) as u:
            cols = L.transfer_matrix_F(m, n_max, max_objects=TRANSFER_MAX_OBJECTS)
            ref = L.series_of_form(RATIONAL_FORMS[f"F{m}"], n_max)
            rec.check(len(cols) == n_max, "transfer column count", m, n_max, len(cols))
            for n, col in enumerate(cols, start=1):
                rec.check(L.eq(col, ref[n]), "transfer F_{m,n} != closed form", m, n)
                rec.check(L.is_qt_symmetric(col), "transfer F_{m,n} not q,t-symmetric", m, n)
                rec.check(sum(col.terms.values()) == narayana_count(m, n),
                          "transfer F_{m,n}(1,1) != Narayana", m, n)
                u.items += len(col)
    with rec.unit("series_of_form F2", f2_order) as u:
        series = L.series_of_form(RATIONAL_FORMS["F2"], f2_order)
        for n in range(1, f2_order + 1):
            got = L.poly_to_array(series[n], 2 * n + 3)
            rec.check(np.array_equal(got, L.narayana_m2_array(n)),
                      "series F_{2,n} != two-column closed form", n)
            u.items += len(series[n])
    stream = L.rational_series_arrays(RATIONAL_FORMS["F2"], f2_arrays)
    for n in range(1, f2_arrays + 1):
        with rec.unit("rational_series_arrays F2", n) as u:
            k, arr = next(stream)
            rec.check(k == n, "array stream order", k, n)
            ref = L.narayana_m2_array(n, arr.shape[0])
            rec.check(np.array_equal(arr, ref), "array F_{2,n} != two-column closed form", n)
            rec.check(int(arr.sum()) == n * (n + 1) // 2, "array F_{2,n}(1,1) != Narayana", n)
            u.items = int(np.count_nonzero(arr))


# -- queries ------------------------------------------------------------------

# Each pass holds every bipartite box the same number of times and the
# complete-graph sizes in a fixed rotation, so all seeds share one size mix;
# the seed draws the configurations, matrices and the order of the queries.
QUERY_BOXES = tuple((m, n) for m in range(3, 13) for n in range(4, 13))
QUERY_KN = tuple(range(3, 10))
QUERIES_PER_PASS = 14 * len(QUERY_BOXES)
QUERY_SMOKE = (((3, 4), (4, 4), (4, 5)), (3, 4, 5), 12)


@dataclass(frozen=True)
class Query:
    dropped: BipartiteConfig  # a stable state with grains dropped on it
    matrix: BicompMatrix
    upper: bool  # the matrix is upper-triangular
    kn: KnConfig
    kn_sorted: KnConfig  # kn sorted weakly decreasing
    kn_parking: bool  # kn was built from a parking function


def _random_surjection(rng: random.Random, ground: int, k: int) -> list[int]:
    """Block index in 0..k-1 for each of 1..ground, every block used."""
    labels = list(range(1, ground + 1))
    rng.shuffle(labels)
    block = [0] * (ground + 1)
    for pos, x in enumerate(labels):
        block[x] = pos if pos < k else rng.randrange(k)
    return block


def _random_matrix(rng: random.Random, n: int, upper: bool) -> tuple[BicompMatrix, bool]:
    """A bicomposition matrix on {1..n-1}; upper-triangular when asked.

    Returns the matrix and whether it is upper-triangular, read off the
    row and column of every element.
    """
    ground = n - 1
    k = rng.randint(1, ground)
    rows = _random_surjection(rng, ground, k)
    if upper:
        # the first element of each row sits on the diagonal, so every
        # column is used; the others land on or above it
        cols = [0] * (ground + 1)
        on_diagonal = set()
        for x in range(1, ground + 1):
            if rows[x] not in on_diagonal:
                on_diagonal.add(rows[x])
                cols[x] = rows[x]
            else:
                cols[x] = rng.randint(rows[x], k - 1)
    else:
        cols = _random_surjection(rng, ground, k)
    cells = [[set() for _ in range(k)] for _ in range(k)]
    for x in range(1, ground + 1):
        cells[rows[x]][cols[x]].add(x)
    is_upper = all(rows[x] <= cols[x] for x in range(1, ground + 1))
    return BicompMatrix.from_lists(cells), is_upper


def _is_parking(seq: list[int]) -> bool:
    return all(v <= i for i, v in enumerate(sorted(seq), start=1))


def _random_parking(rng: random.Random, length: int) -> list[int]:
    """Uniform parking function by Pollak's rotation: exactly one cyclic
    shift of a word over Z_{length+1} parks."""
    word = [rng.randrange(length + 1) for _ in range(length)]
    for shift in range(length + 1):
        cand = [(v + shift) % (length + 1) + 1 for v in word]
        if _is_parking(cand):
            return cand
    raise AssertionError("no parking rotation")  # pragma: no cover - Pollak


def _make_query(rng: random.Random, m: int, n: int, big: bool, kn_n: int) -> Query:
    heights = [rng.randrange(n) for _ in range(m - 1)] + [rng.randrange(m) for _ in range(n)]
    grains = m * n if big else rng.randint(1, 3)
    for _ in range(grains):
        heights[rng.randrange(m + n - 1)] += 1
    matrix, upper = _random_matrix(rng, n, rng.random() < 0.5)
    parking = rng.random() < 0.5
    if parking:
        kn_heights = [kn_n - 1 - v for v in _random_parking(rng, kn_n - 1)]
    else:
        kn_heights = [rng.randrange(kn_n - 1) for _ in range(kn_n - 1)]
    return Query(
        BipartiteConfig(m, n, heights),
        matrix,
        upper,
        KnConfig(kn_n, kn_heights),
        KnConfig(kn_n, sorted(kn_heights, reverse=True)),
        parking,
    )


def queries_inputs(seed: int, smoke: bool = False) -> list[Query]:
    boxes, kn_sizes, count = QUERY_SMOKE if smoke else (QUERY_BOXES, QUERY_KN, QUERIES_PER_PASS)
    rng = random.Random(seed)
    plan = [
        (boxes[i % len(boxes)], (i // len(boxes)) % 2 == 1, kn_sizes[i % len(kn_sizes)])
        for i in range(count)
    ]
    rng.shuffle(plan)
    return [_make_query(rng, m, n, big, kn_n) for (m, n), big, kn_n in plan]


def stabilize_consistent(before: BipartiteConfig, after: BipartiteConfig, counts) -> bool:
    """The stable result equals the start minus the Laplacian applied to the
    topple counts: a top topple sends one grain to each of the n bottoms, a
    bottom topple one grain to each of the m-1 tops and one to the sink."""
    m, n = before.m, before.n
    if len(counts) != m + n - 1 or min(counts) < 0:
        return False
    top_topples = sum(counts[: m - 1])
    bottom_topples = sum(counts[m - 1:])
    h0, h1 = before.heights, after.heights
    for i in range(m - 1):
        if h1[i] != h0[i] - n * counts[i] + bottom_topples or not 0 <= h1[i] < n:
            return False
    for j in range(m - 1, m + n - 1):
        if h1[j] != h0[j] - m * counts[j] + top_topples or not 0 <= h1[j] < m:
            return False
    return True


def run_query(L, q: Query, rec: Recorder) -> None:
    """One query: drop and stabilize, then every map defined on the result."""
    final, counts = L.stabilize(q.dropped)
    rec.check(stabilize_consistent(q.dropped, final, counts), "stabilize", q.dropped)
    recurrent = L.is_recurrent(final)
    poly = L.as_para(L.cell_image(final))
    rec.check(recurrent == (poly is not None), "is_recurrent vs cell image", final)
    if recurrent and poly is not None:
        dec = L.decorate(final)
        rec.check(L.decorate(L.undecorate(dec)) == dec, "decorate round trip", final)
        waves = L.canon_top(final).waves
        rec.check(tuple(len(s) for _, s in waves) == L.bounce_seq(poly),
                  "wave sizes != bounce runs", final)

    cfg = L.config_of_matrix(q.matrix)
    rec.check(L.matrix_of_config(cfg) == q.matrix, "matrix round trip", q.matrix)
    if q.upper:
        order = L.poset_of_matrix(q.matrix)
        rec.check(L.matrix_of_poset(order) == q.matrix, "poset round trip", q.matrix)
        rec.check(L.config_of_poset(order, q.matrix.ground_size + 1) == cfg,
                  "config_of_poset != config_of_matrix", q.matrix)
    rec.check(L.is_top_heavy(cfg) == q.upper, "is_top_heavy", cfg, q.upper)

    kn_rec = L.kn_is_recurrent(q.kn)
    rec.check(kn_rec == L.kn_is_recurrent_burning(q.kn), "K_n recurrence routes disagree", q.kn)
    if q.kn_parking:
        rec.check(kn_rec, "parking-function state not recurrent", q.kn)
    if kn_rec:
        path = L.dyck_of(L.diag(q.kn_sorted))
        rec.check(L.diag_from_dyck(path) == q.kn_sorted, "Dyck round trip", q.kn_sorted)


def queries_pass(L, inputs: list[Query], rec: Recorder) -> None:
    for q in inputs:
        with rec.unit("query", q) as u:
            run_query(L, q, rec)
            u.items = 1


WORKLOADS = {
    "enum": Workload("enum", "polyominoes", enum_inputs, enum_pass),
    "series": Workload("series", "coefficient terms", series_inputs, series_pass),
    "queries": Workload("queries", "queries", queries_inputs, queries_pass),
}
