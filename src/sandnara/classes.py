"""Special recurrent classes and their matrix / poset correspondences.

Minimal configurations carry the fewest grains a recurrent state can hold;
their cell images are exactly the ribbons.  A minimal state with exactly one
empty vertex, forced to be v_m, is called minanz.  On the square graph
(m = n) the minanz states biject with bicomposition matrices -- square
matrices of disjoint sets covering {1..n-1} with no empty row or column --
by intersecting the top waves with the shifted bottom waves of the canonical
toppling.  Upper-triangular matrices correspond to the top-heavy states and,
through the matrix, to (2+2)-free posets whose level structure reads the
heights back directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .config import guard_count
from .errors import (
    InvalidMatrix,
    NotIntervalOrder,
    NotMinanz,
    NotUpperTriangular,
    VertexNotToppled,
    json_field,
)
from .polyomino import narayana_number
from .sandpile import (
    BipartiteConfig,
    TopplingTrace,
    canon_top,
    enumerate_rec_star,
    level,
    _distinct_perms,
    _require_recurrent,
)

__all__ = [
    "BicompMatrix",
    "IntervalOrder",
    "is_minimal",
    "is_minanz",
    "is_top_heavy",
    "wave",
    "matrix_of_config",
    "config_of_matrix",
    "poset_of_matrix",
    "matrix_of_poset",
    "config_of_poset",
    "dual_poset",
    "is_two_plus_two_free",
    "enumerate_minanz",
    "count_minimal",
    "count_minanz",
    "count_sqrec",
    "stirling2",
    "narayana_number",
    "count_nonzero_star",
    "NonzeroStarReport",
]


# -- predicates ---------------------------------------------------------------


def is_minimal(config: BipartiteConfig) -> bool:
    """Level 0, i.e. grain total n(m-1); equivalently the cell image is a ribbon."""
    _require_recurrent(config)
    return level(config) == 0


def is_minanz(config: BipartiteConfig) -> bool:
    """Minimal with every vertex other than v_m non-empty (v_m is then forced empty)."""
    _require_recurrent(config)
    return _minanz_heights(config)


def _minanz_heights(config: BipartiteConfig) -> bool:
    """is_minanz for a configuration already known to be recurrent."""
    h = config.heights
    vm = config.m - 1  # 0-based index of v_m
    return (
        level(config) == 0
        and h[vm] == 0
        and all(v > 0 for i, v in enumerate(h) if i != vm)
    )


def wave(config: BipartiteConfig, vertex: int) -> int:
    """Wave index of a vertex in the canonical toppling (1-based)."""
    if not 1 <= vertex <= config.m + config.n - 1:
        raise ValueError(f"vertex {vertex} out of range")
    w = canon_top(config).wave_of(vertex)
    if w is None:
        raise VertexNotToppled(f"v_{vertex} never topples")
    return w


_SQUARE_ONLY = "top-heavy is defined for square configurations only"


def is_top_heavy(config: BipartiteConfig) -> bool:
    """Square minanz state where each top vertex topples no later than its
    partner bottom vertex: wave(v_x) <= wave(v_{n+x}) for 1 <= x < n.

    Equivalent to the matrix image being upper-triangular, since vertex x
    lands in row wave(v_x) and column wave(v_{n+x}).
    """
    if config.m != config.n:  # before burning: non-square never reaches NotRecurrent
        raise NotMinanz(_SQUARE_ONLY)
    return _top_heavy_trace(config, _require_recurrent(config).trace)


def _top_heavy_trace(config: BipartiteConfig, trace: TopplingTrace) -> bool:
    """is_top_heavy for a configuration already known to be recurrent, given
    its wave trace."""
    if config.m != config.n:
        raise NotMinanz(_SQUARE_ONLY)
    if not _minanz_heights(config):
        return False
    wave_of = trace.wave_index().get
    n = config.n
    return all(wave_of(x) <= wave_of(n + x) for x in range(1, n))


# -- bicomposition matrices ------------------------------------------------------


@dataclass(frozen=True)
class BicompMatrix:
    """k x k matrix of disjoint sets partitioning {1..N}, no empty row/column."""

    k: int
    rows: tuple[tuple[frozenset[int], ...], ...]

    def __post_init__(self):
        k = self.k
        if k < 1 or len(self.rows) != k:
            raise InvalidMatrix("dimension mismatch")
        if any(len(r) != k for r in self.rows):
            raise InvalidMatrix("matrix must be square")
        # one pass over the entries; it also records the non-empty rows and
        # columns, whose faults are raised after the partition check
        seen: set[int] = set()
        total = 0
        row_used = [False] * k
        col_used = [False] * k
        for i, r in enumerate(self.rows):
            for j, cell in enumerate(r):
                if seen & cell:
                    raise InvalidMatrix("entries must be pairwise disjoint")
                if cell:
                    seen |= cell
                    total += len(cell)
                    row_used[i] = col_used[j] = True
        # a set comparison, not a sort: it needs no order on the elements, so
        # a non-int entry fails here too, whatever the hash seed; True and 1.0
        # equal 1, so each entry must also be an int and not a bool
        ints = all(isinstance(x, int) and not isinstance(x, bool) for x in seen)
        if not ints or not seen or seen != set(range(1, total + 1)):
            raise InvalidMatrix("entries must partition {1..N}")
        for i in range(k):
            if not row_used[i]:
                raise InvalidMatrix(f"row {i + 1} is empty")
            if not col_used[i]:
                raise InvalidMatrix(f"column {i + 1} is empty")

    @property
    def ground_size(self) -> int:
        return sum(len(c) for r in self.rows for c in r)

    def row_union(self, i: int) -> frozenset[int]:
        return frozenset().union(*self.rows[i])

    def col_union(self, j: int) -> frozenset[int]:
        return frozenset().union(*(self.rows[i][j] for i in range(self.k)))

    def is_upper_triangular(self) -> bool:
        return all(
            not self.rows[i][j] for i in range(self.k) for j in range(i)
        )

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "rows": [[sorted(c) for c in r] for r in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "BicompMatrix":
        rows = json_field(data, "rows", int, depth=3)
        return cls(
            json_field(data, "k", int),
            tuple(tuple(frozenset(c) for c in r) for r in rows),
        )

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[Iterable[int]]]) -> "BicompMatrix":
        return cls(len(rows), tuple(tuple(frozenset(c) for c in r) for r in rows))


def matrix_of_config(config: BipartiteConfig) -> BicompMatrix:
    """Square minanz state -> matrix with M[i][j] = P_i intersect (Q_j - n).

    P_i are the top waves, Q_j the bottom waves of the canonical toppling;
    the final bottom wave is always {v_n} and is dropped.
    """
    n = config.n
    if config.m != n:
        raise NotMinanz("matrix correspondence needs a square configuration")
    trace = _require_recurrent(config).trace
    if not _minanz_heights(config):
        raise NotMinanz(f"{config!r} is not minanz")
    qs = trace.bottom_waves()
    ps = trace.top_waves()
    if qs[-1] != frozenset({n}):
        raise NotMinanz("canonical toppling must end with the wave {v_n}")
    k = len(ps)
    qshift = [frozenset([x - n for x in q]) for q in qs[:k]]
    return BicompMatrix(k, tuple(tuple([p & q for q in qshift]) for p in ps))


def config_of_matrix(mat: BicompMatrix) -> BipartiteConfig:
    """Inverse of matrix_of_config.

    With p_i, q_i the row/column union sizes, the heights are
        u_n       = 0,
        u_{n+x}   = n-1 - (p_1 + ... + p_{i-1})   for x in column union i,
        u_x       = n   - (q_1 + ... + q_i)       for x in row union i.
    """
    k = mat.k
    rows = [mat.row_union(i) for i in range(k)]
    cols = [mat.col_union(j) for j in range(k)]
    n = sum(map(len, rows)) + 1
    heights = [0] * (2 * n - 1)
    p_before = q_through = 0  # p_1 + ... + p_{i-1} and q_1 + ... + q_i
    for i in range(k):
        q_through += len(cols[i])
        for x in cols[i]:
            heights[n - 1 + x] = n - 1 - p_before
        for x in rows[i]:
            heights[x - 1] = n - q_through
        p_before += len(rows[i])
    return BipartiteConfig(n, n, heights)


# -- interval orders ----------------------------------------------------------------


@dataclass(frozen=True)
class IntervalOrder:
    """(2+2)-free poset in chain form: strictly increasing down-sets
    D_0 = {} < D_1 < ... < D_{k-1} together with the level sets L_i of
    elements whose down-set equals D_i."""

    n: int
    downsets: tuple[frozenset[int], ...]
    levels: tuple[frozenset[int], ...]

    def __post_init__(self):
        k = len(self.downsets)
        if k < 1 or len(self.levels) != k:
            raise NotIntervalOrder("downsets and levels must align")
        if self.downsets[0]:
            raise NotIntervalOrder("D_0 must be empty")
        for a, b in zip(self.downsets, self.downsets[1:]):
            if not (a < b):
                raise NotIntervalOrder("down-sets must strictly increase")
        ground = set()
        for lv in self.levels:
            if not lv or ground & lv:
                raise NotIntervalOrder("levels must be disjoint and non-empty")
            ground |= lv
        if sorted(ground) != list(range(1, self.n + 1)):
            raise NotIntervalOrder("levels must partition {1..n}")
        if any(not d <= ground for d in self.downsets):
            raise NotIntervalOrder("down-sets must be subsets of the ground set")
        for i in range(k):
            if self.levels[i] & self.downsets[i]:
                raise NotIntervalOrder("an element cannot sit in its own down-set")
        if self.downsets[-1] >= ground:
            raise NotIntervalOrder("top down-set cannot be the whole ground set")

    @property
    def k(self) -> int:
        return len(self.levels)

    def relation_pairs(self) -> frozenset[tuple[int, int]]:
        out = set()
        for i, lv in enumerate(self.levels):
            for y in lv:
                for x in self.downsets[i]:
                    out.add((x, y))
        return frozenset(out)

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "downsets": [sorted(d) for d in self.downsets],
            "levels": [sorted(lv) for lv in self.levels],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IntervalOrder":
        return cls(
            json_field(data, "n", int),
            tuple(frozenset(d) for d in json_field(data, "downsets", int, depth=2)),
            tuple(frozenset(lv) for lv in json_field(data, "levels", int, depth=2)),
        )

    @classmethod
    def from_relation(
        cls, n: int, pairs: Iterable[tuple[int, int]]
    ) -> "IntervalOrder":
        """Normalize a strict order relation on {1..n} into chain form.

        Raises NotIntervalOrder when the relation is not a strict partial
        order or its down-sets are not linearly ordered by inclusion.
        """
        rel = set(pairs)
        for (x, y) in rel:
            if not (1 <= x <= n and 1 <= y <= n) or x == y:
                raise NotIntervalOrder(f"bad pair {(x, y)}")
            if (y, x) in rel:
                raise NotIntervalOrder("relation is not antisymmetric")
        for (x, y) in list(rel):
            for (y2, z) in list(rel):
                if y2 == y and (x, z) not in rel:
                    raise NotIntervalOrder("relation is not transitive")
        down = {x: frozenset(a for (a, b) in rel if b == x) for x in range(1, n + 1)}
        distinct = sorted(set(down.values()), key=len)
        for a, b in zip(distinct, distinct[1:]):
            if not a < b:
                raise NotIntervalOrder("down-sets are not a chain under inclusion")
        levels = tuple(
            frozenset(x for x in range(1, n + 1) if down[x] == d) for d in distinct
        )
        return cls(n, tuple(distinct), levels)


def is_two_plus_two_free(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Chain test on the down-sets of a strict partial order on {1..n}."""
    try:
        IntervalOrder.from_relation(n, pairs)
    except NotIntervalOrder:
        return False
    return True


def dual_poset(order: IntervalOrder) -> IntervalOrder:
    """Order-reversal, computed structurally:
    L_{k-1-i}(dual) = D_{i+1} \\ D_i and D_{k-1-i}(dual) = union of the
    levels above i, with D_k taken to be the whole ground set."""
    k = order.k
    ground = frozenset(range(1, order.n + 1))
    ext_down = list(order.downsets) + [ground]
    dual_levels = tuple(
        ext_down[i + 1] - ext_down[i] for i in range(k - 1, -1, -1)
    )
    dual_downs = tuple(
        frozenset().union(*order.levels[i + 1 :]) for i in range(k - 1, -1, -1)
    )
    return IntervalOrder(order.n, dual_downs, dual_levels)


def poset_of_matrix(mat: BicompMatrix) -> IntervalOrder:
    """Upper-triangular matrix -> poset: x < y iff the column of x precedes
    the row of y.  Row unions become levels, unions of leading columns the
    down-sets."""
    if not mat.is_upper_triangular():
        raise NotUpperTriangular("poset correspondence needs an upper-triangular matrix")
    k = mat.k
    cols = [mat.col_union(j) for j in range(k)]
    downs = []
    acc: frozenset[int] = frozenset()
    for j in range(k):
        downs.append(acc)
        acc = acc | cols[j]
    levels = tuple(mat.row_union(i) for i in range(k))
    return IntervalOrder(mat.ground_size, tuple(downs), levels)


def matrix_of_poset(order: IntervalOrder) -> BicompMatrix:
    """Inverse of poset_of_matrix: M[i][j] = L_i intersect (D_{j+1} \\ D_j),
    reading D_k as the whole ground set."""
    k = order.k
    ground = frozenset(range(1, order.n + 1))
    ext_down = list(order.downsets) + [ground]
    rows = tuple(
        tuple(
            order.levels[i] & (ext_down[j + 1] - ext_down[j]) for j in range(k)
        )
        for i in range(k)
    )
    try:
        return BicompMatrix(k, rows)
    except InvalidMatrix as exc:  # pragma: no cover - chain form precludes this
        raise NotIntervalOrder(str(exc)) from exc


def config_of_poset(order: IntervalOrder, n: int) -> BipartiteConfig:
    """Read the top-heavy square configuration off the level structure:

        u_x     = n - |D_{j+1}|        for x in L_j,
        u_{x+n} = |D_{j+1}(dual)|      for x in L_j(dual),
        u_n     = 0,

    with D_k meaning the whole ground set {1..n-1}.
    """
    if order.n != n - 1:
        raise NotIntervalOrder(f"poset must live on {{1..{n - 1}}}")
    k = order.k
    ground = frozenset(range(1, n))
    ext = list(order.downsets) + [ground]
    dual = dual_poset(order)
    ext_dual = list(dual.downsets) + [ground]
    heights = [0] * (2 * n - 1)
    for j in range(k):
        for x in order.levels[j]:
            heights[x - 1] = n - len(ext[j + 1])
        for x in dual.levels[j]:
            heights[n - 1 + x] = len(ext_dual[j + 1])
    heights[n - 1] = 0
    return BipartiteConfig(n, n, heights)


# -- enumeration and counting ---------------------------------------------------------


def enumerate_minanz(
    m: int, n: int, max_objects: int | None = None
) -> Iterator[BipartiteConfig]:
    """All minanz states: rearrangements of increasing minanz states with the
    single zero pinned at v_m."""
    bound = count_sqrec(n) if m == n else narayana_number(m + n - 1, m)
    guard_count(bound, max_objects, f"minanz(D_{{{m},{n}}})")
    for inc in enumerate_rec_star(m, n, max_objects=None):
        if level(inc) != 0:
            continue
        a, b = inc.top, inc.bottom
        if any(v == 0 for v in a) or b[0] != 0 or (len(b) > 1 and b[1] == 0):
            continue
        for t in _distinct_perms(a):
            for rest in _distinct_perms(b[1:]):
                yield BipartiteConfig(m, n, t + (0,) + rest)


def stirling2(n: int, k: int) -> int:
    """Stirling number of the second kind, S(0, 0) = 1."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1
    row = [1] + [0] * k
    for _ in range(n):
        new = [0] * (k + 1)
        for j in range(1, k + 1):
            new[j] = j * row[j] + row[j - 1]
        row = new
    return row[k]


def count_minimal(m: int, n: int) -> int:
    """Increasing minimal states = ribbons: C(m+n-2, m-1)."""
    return math.comb(m + n - 2, m - 1)


def count_minanz(m: int, n: int) -> int:
    """Increasing minanz states: C(m+n-4, m-2)."""
    return math.comb(m + n - 4, m - 2)


def count_sqrec(n: int) -> int:
    """All square minanz states: sum over k of (k! S(n-1, k))^2.

    This is the number of pairs of ordered set partitions of {1..n-1} with
    the same number of parts, i.e. the bicomposition matrix count.
    """
    return sum(
        (math.factorial(k) * stirling2(n - 1, k)) ** 2 for k in range(1, n)
    )


@dataclass(frozen=True)
class NonzeroStarReport:
    """Exhaustive count of all-positive increasing recurrent square states
    against the conjectured closed form; never asserted, only reported."""

    n: int
    count: int
    formula_value: int
    matches: bool


def count_nonzero_star(n: int, max_objects: int | None = None) -> NonzeroStarReport:
    if n < 2:
        raise ValueError("need n >= 2")
    cnt = sum(
        1
        for cfg in enumerate_rec_star(n, n, max_objects)
        if all(v > 0 for v in cfg.heights)
    )
    formula = math.comb(2 * n - 2, n) * math.comb(2 * n, n - 2) // (n - 1)
    return NonzeroStarReport(n, cnt, formula, cnt == formula)
