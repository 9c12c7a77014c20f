"""Special recurrent classes and their matrix / poset correspondences.

Minimal configurations carry the fewest grains a recurrent state can hold;
their cell images are exactly the ribbons.  A minimal state with exactly one
empty vertex, forced to be v_m, is called minanz.  On the square graph
(m = n) the minanz states biject with bicomposition matrices -- square
matrices of disjoint sets covering {1..n-1} with no empty row or column,
that is pairs of ordered set partitions with the same number of blocks.  A
matrix is stored as those two partitions, one word each: element x sits in
the row of the top wave holding v_x and the column of the bottom wave holding
v_{n+x} in the canonical toppling.  Upper-triangular matrices correspond to
the top-heavy states and to (2+2)-free posets, read as Fishburn's interval
orders: x < y iff the column of x precedes the row of y.  Down-sets, levels
and the heights of the configurations are prefix counts of the two words.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left, bisect_right
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
    burn,
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
    """is_minanz for a configuration already known to be recurrent: heights
    are non-negative, so v_m must hold the only zero."""
    h = config.heights
    return h[config.m - 1] == 0 and h.count(0) == 1 and level(config) == 0


def wave(config: BipartiteConfig, vertex: int) -> int:
    """Wave index of a vertex in the canonical toppling (1-based)."""
    if not 1 <= vertex <= config.m + config.n - 1:
        raise ValueError(f"vertex {vertex} out of range")
    pos = burn(config).wave_word[vertex]
    if pos < 0:
        raise VertexNotToppled(f"v_{vertex} never topples")
    return pos // 2 + 1


_SQUARE_ONLY = "top-heavy is defined for square configurations only"


def is_top_heavy(config: BipartiteConfig) -> bool:
    """Square minanz state where each top vertex topples no later than its
    partner bottom vertex: wave(v_x) <= wave(v_{n+x}) for 1 <= x < n.

    Equivalent to the matrix image being upper-triangular, since vertex x
    lands in row wave(v_x) and column wave(v_{n+x}).
    """
    if config.m != config.n:  # before burning: non-square never reaches NotRecurrent
        raise NotMinanz(_SQUARE_ONLY)
    word = _require_recurrent(config).wave_word
    if not _minanz_heights(config):
        return False
    return all(map(operator.le, *_block_words(word, config.n)))


def _block_words(word: tuple[int, ...], n: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The block index p // 2 of the wave at trace position p, for the top
    vertices v_1..v_{n-1} and for the bottom vertices v_{n+1}..v_{2n-1} of a
    square recurrent state, given its wave word; v_n is left out."""
    return tuple(p // 2 for p in word[1:n]), tuple(p // 2 for p in word[n + 1 :])


# -- bicomposition matrices ------------------------------------------------------


def _is_int(x) -> bool:
    """An int that is not a bool: True and 1.0 equal 1, so only a type check
    tells them apart."""
    return isinstance(x, int) and not isinstance(x, bool)


@dataclass(frozen=True)
class BicompMatrix:
    """k x k matrix of disjoint sets partitioning {1..N}, no empty row or
    column, held as a pair of ordered set partitions with k blocks each:
    element x sits in cell (row_of[x-1], col_of[x-1]), 0-based."""

    k: int
    row_of: tuple[int, ...]
    col_of: tuple[int, ...]

    def __post_init__(self):
        k, rows, cols = self.k, self.row_of, self.col_of
        if not _is_int(k) or k < 1:
            raise InvalidMatrix("dimension mismatch")
        if not (isinstance(rows, tuple) and isinstance(cols, tuple)) or len(rows) != len(cols):
            raise InvalidMatrix("row and column words must be tuples of equal length")
        letters = rows + cols
        if letters and (
            not set(map(type, letters)) <= {int}  # no bools
            or min(letters) < 0
            or max(letters) >= k
        ):
            raise InvalidMatrix(f"row and column indices must be ints in range({k})")
        used_rows, used_cols = set(rows), set(cols)
        if len(used_rows) < k or len(used_cols) < k:
            for i in range(k):
                if i not in used_rows:
                    raise InvalidMatrix(f"row {i + 1} is empty")
                if i not in used_cols:
                    raise InvalidMatrix(f"column {i + 1} is empty")

    @property
    def ground_size(self) -> int:
        return len(self.row_of)

    @property
    def rows(self) -> tuple[tuple[frozenset[int], ...], ...]:
        """The cells, row by row."""
        return tuple(tuple(map(frozenset, r)) for r in self._cells())

    def _cells(self) -> list[list[list[int]]]:
        cells = [[[] for _ in range(self.k)] for _ in range(self.k)]
        for x, (i, j) in enumerate(zip(self.row_of, self.col_of), 1):
            cells[i][j].append(x)
        return cells

    def is_upper_triangular(self) -> bool:
        return all(i <= j for i, j in zip(self.row_of, self.col_of))

    def to_json(self) -> dict:
        return {"k": self.k, "rows": self._cells()}

    @classmethod
    def from_json(cls, data: dict) -> "BicompMatrix":
        rows = json_field(data, "rows", int, depth=3)
        return cls._from_cells(json_field(data, "k", int), rows)

    @classmethod
    def from_lists(cls, rows: Sequence[Sequence[Iterable[int]]]) -> "BicompMatrix":
        return cls._from_cells(len(rows), rows)

    @classmethod
    def _from_cells(cls, k: int, rows: Sequence[Sequence[Iterable[int]]]) -> "BicompMatrix":
        """Read the two words off a matrix of sets; the first fault found, in
        a fixed order, is the one raised."""
        cells = [[frozenset(c) for c in r] for r in rows]
        if k < 1 or len(cells) != k:
            raise InvalidMatrix("dimension mismatch")
        if any(len(r) != k for r in cells):
            raise InvalidMatrix("matrix must be square")
        place: dict = {}  # entry -> (row, column)
        for i, r in enumerate(cells):
            for j, cell in enumerate(r):
                for x in cell:
                    if x in place:
                        raise InvalidMatrix("entries must be pairwise disjoint")
                    place[x] = (i, j)
        # N distinct ints in 1..N are exactly {1..N}; the type test comes
        # first, so a non-int entry fails here whatever the hash seed
        total = len(place)
        if not place or not all(_is_int(x) and 1 <= x <= total for x in place):
            raise InvalidMatrix("entries must partition {1..N}")
        row_of, col_of = zip(*(place[x] for x in range(1, total + 1)))
        return cls(k, row_of, col_of)


def matrix_of_config(config: BipartiteConfig) -> BicompMatrix:
    """Square minanz state -> matrix with M[i][j] = P_i intersect (Q_j - n).

    P_i are the top waves, Q_j the bottom waves of the canonical toppling;
    the final bottom wave is always {v_n} and is dropped.  The wave at
    position p of the trace has block index p // 2: a top vertex v_x gives
    the row of x, a bottom vertex v_{n+x} its column, and v_n gives nothing;
    both are read off the wave word of the burning run.
    """
    n = config.n
    if config.m != n:
        raise NotMinanz("matrix correspondence needs a square configuration")
    if n < 2:
        raise NotMinanz(f"matrix correspondence needs n >= 2, got n = {n}")
    burnt = _require_recurrent(config)
    if not _minanz_heights(config):
        raise NotMinanz(f"{config!r} is not minanz")
    waves = burnt.trace.waves
    if waves[-1] != ("bottom", frozenset({n})):
        raise NotMinanz("canonical toppling must end with the wave {v_n}")
    return BicompMatrix(len(waves) // 2, *_block_words(burnt.wave_word, n))


def config_of_matrix(mat: BicompMatrix) -> BipartiteConfig:
    """Inverse of matrix_of_config.

    With p_i, q_i the numbers of elements in row i and column i, the heights are
        u_n       = 0,
        u_{n+x}   = n-1 - (p_1 + ... + p_{i-1})   for x in column i,
        u_x       = n   - (q_1 + ... + q_i)       for x in row i;
    each sum counts the letters below (or up to) i in the sorted word.
    """
    rows, cols = mat.row_of, mat.col_of
    n = len(rows) + 1
    sorted_rows, sorted_cols = sorted(rows), sorted(cols)
    top = [n - bisect_right(sorted_cols, i) for i in rows]
    bottom = [n - 1 - bisect_left(sorted_rows, j) for j in cols]
    return BipartiteConfig(n, n, top + [0] + bottom)


# -- interval orders ----------------------------------------------------------------


@dataclass(frozen=True)
class IntervalOrder:
    """(2+2)-free poset on {1..n} as an upper-triangular bicomposition
    matrix, Fishburn's interval representation: x < y iff the column of x
    precedes the row of y.  Row i is the level L_i, the elements whose
    down-set is D_i, the union of the columns before i; so the down-sets
    strictly increase from D_0 = {}.  Raises NotUpperTriangular for any
    other matrix."""

    matrix: BicompMatrix

    def __post_init__(self):
        if not self.matrix.is_upper_triangular():
            raise NotUpperTriangular("poset correspondence needs an upper-triangular matrix")

    @property
    def n(self) -> int:
        return self.matrix.ground_size

    @property
    def k(self) -> int:
        return self.matrix.k

    @property
    def levels(self) -> tuple[frozenset[int], ...]:
        rows = self.matrix.row_of
        return tuple(frozenset(x for x, i in enumerate(rows, 1) if i == lv) for lv in range(self.k))

    @property
    def downsets(self) -> tuple[frozenset[int], ...]:
        cols = self.matrix.col_of
        return tuple(frozenset(x for x, j in enumerate(cols, 1) if j < lv) for lv in range(self.k))

    def relation_pairs(self) -> frozenset[tuple[int, int]]:
        rows, cols = self.matrix.row_of, self.matrix.col_of
        return frozenset(
            (x, y) for x, j in enumerate(cols, 1) for y, i in enumerate(rows, 1) if j < i
        )

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "downsets": [sorted(d) for d in self.downsets],
            "levels": [sorted(lv) for lv in self.levels],
        }

    @classmethod
    def from_json(cls, data: dict) -> "IntervalOrder":
        return cls._from_chain(
            json_field(data, "n", int),
            tuple(frozenset(d) for d in json_field(data, "downsets", int, depth=2)),
            tuple(frozenset(lv) for lv in json_field(data, "levels", int, depth=2)),
        )

    @classmethod
    def _from_chain(
        cls, n: int, downsets: tuple[frozenset[int], ...], levels: tuple[frozenset[int], ...]
    ) -> "IntervalOrder":
        """The order in chain form: strictly increasing down-sets
        D_0 = {} < D_1 < ... < D_{k-1} together with the level sets L_i of
        elements whose down-set equals D_i."""
        k = len(downsets)
        if k < 1 or len(levels) != k:
            raise NotIntervalOrder("downsets and levels must align")
        if downsets[0]:
            raise NotIntervalOrder("D_0 must be empty")
        for a, b in zip(downsets, downsets[1:]):
            if not (a < b):
                raise NotIntervalOrder("down-sets must strictly increase")
        ground = set()
        for lv in levels:
            if not lv or ground & lv:
                raise NotIntervalOrder("levels must be disjoint and non-empty")
            ground |= lv
        if sorted(ground) != list(range(1, n + 1)):
            raise NotIntervalOrder("levels must partition {1..n}")
        if any(not d <= ground for d in downsets):
            raise NotIntervalOrder("down-sets must be subsets of the ground set")
        for i in range(k):
            if levels[i] & downsets[i]:
                raise NotIntervalOrder("an element cannot sit in its own down-set")
        if downsets[-1] >= ground:
            raise NotIntervalOrder("top down-set cannot be the whole ground set")
        level_of = {x: i for i, lv in enumerate(levels) for x in lv}
        # x in D_j for the first time: column j - 1 (the smallest j is written
        # last); x outside the top down-set: the last column
        column_of = {x: j - 1 for j in range(k - 1, 0, -1) for x in downsets[j]}
        row_of = tuple(level_of[x] for x in range(1, n + 1))
        col_of = tuple(column_of.get(x, k - 1) for x in range(1, n + 1))
        return cls(BicompMatrix(k, row_of, col_of))

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
        return cls._from_chain(n, tuple(distinct), levels)


def is_two_plus_two_free(n: int, pairs: Iterable[tuple[int, int]]) -> bool:
    """Chain test on the down-sets of a strict partial order on {1..n}."""
    try:
        IntervalOrder.from_relation(n, pairs)
    except NotIntervalOrder:
        return False
    return True


def dual_poset(order: IntervalOrder) -> IntervalOrder:
    """Order-reversal: the anti-transpose of the matrix, row' = k-1-col and
    col' = k-1-row, since y <' x iff x < y iff col(x) < row(y)."""
    mat = order.matrix
    last = mat.k - 1
    return IntervalOrder(
        BicompMatrix(
            mat.k, tuple(last - j for j in mat.col_of), tuple(last - i for i in mat.row_of)
        )
    )


def poset_of_matrix(mat: BicompMatrix) -> IntervalOrder:
    """Upper-triangular matrix -> poset: x < y iff the column of x precedes
    the row of y.  Rows become levels, unions of leading columns the
    down-sets."""
    return IntervalOrder(mat)


def matrix_of_poset(order: IntervalOrder) -> BicompMatrix:
    """Inverse of poset_of_matrix: M[i][j] = L_i intersect (D_{j+1} \\ D_j),
    reading D_k as the whole ground set."""
    return order.matrix


def _next_down_sizes(order: IntervalOrder) -> list[int]:
    """|D_{j+1}| for each element of the order, j its level: D_{j+1} holds
    the elements of columns 0..j."""
    cols = sorted(order.matrix.col_of)
    return [bisect_right(cols, j) for j in order.matrix.row_of]


def config_of_poset(order: IntervalOrder, n: int) -> BipartiteConfig:
    """Read the top-heavy square configuration off the level structure:

        u_x     = n - |D_{j+1}|        for x in L_j,
        u_{x+n} = |D_{j+1}(dual)|      for x in L_j(dual),
        u_n     = 0,

    with D_k meaning the whole ground set {1..n-1}.
    """
    if order.n != n - 1:
        raise NotIntervalOrder(f"poset must live on {{1..{n - 1}}}")
    top = [n - d for d in _next_down_sizes(order)]
    return BipartiteConfig(n, n, top + [0] + _next_down_sizes(dual_poset(order)))


# -- enumeration and counting ---------------------------------------------------------


def enumerate_minanz(
    m: int, n: int, max_objects: int | None = None
) -> Iterator[BipartiteConfig]:
    """All minanz states: rearrangements of increasing minanz states with the
    single zero pinned at v_m."""
    guard_count(_count_all_minanz(m, n), max_objects, f"minanz(D_{{{m},{n}}})")
    for inc in filter(_minanz_heights, enumerate_rec_star(m, n, max_objects=None)):
        for t in _distinct_perms(inc.top):
            for rest in _distinct_perms(inc.bottom[1:]):
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


def _count_all_minanz(m: int, n: int) -> int:
    """All minanz states of K_{m,n}: sum over k of k! S(m-1, k) * k! S(n-1, k),
    the pairs of ordered set partitions of {1..m-1} and {1..n-1} with the
    same number k of parts (k = 0 only for the empty sets, m = n = 1)."""
    return sum(
        math.factorial(k) ** 2 * stirling2(m - 1, k) * stirling2(n - 1, k)
        for k in range(min(m, n))
    )


def count_sqrec(n: int) -> int:
    """All square minanz states: sum over k of (k! S(n-1, k))^2.

    This is the number of pairs of ordered set partitions of {1..n-1} with
    the same number of parts, i.e. the bicomposition matrix count.
    """
    return _count_all_minanz(n, n)


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
