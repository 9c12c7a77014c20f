"""Parallelogram polyominoes on an m x n bounding box.

Geometry conventions used everywhere in this package:

* Cells are unit squares indexed (column, row), both 1-based, so cell (i, j)
  occupies [i-1, i] x [j-1, j].  The box has m columns and n rows.
* A polyomino is the region enclosed by two monotone lattice paths from
  (0, 0) to (m, n) over steps N = (0, 1) and E = (1, 0) that share only
  their endpoints.  The upper path starts with N and ends with E; the lower
  path starts with E and ends with N.
* Internally a polyomino is stored as two column profiles: ``top[i-1]`` is
  the height of the upper path over column i, ``bot[i-1]`` the height of the
  lower path over column i.  Column i holds cells in rows
  (bot[i-1], top[i-1]].  Validity amounts to

      0 = bot[0],  top[m-1] = n,  bot[i] < top[i],
      both profiles weakly increasing,  bot[i+1] <= top[i] - 1,

  the last condition saying adjacent columns share at least one row, which
  is exactly the endpoints-only-touching requirement.

Every other representation converts to and from the profiles in one place:
step words by `_word_to_profile` / `_profile_to_word`, the height sequences
(a | b) of a sorted configuration by `profiles_from_heights`, and cell sets
by `CellSet.as_para`.

The bounce path of a polyomino starts at (m-1, n), runs south to the first
lower-path vertex, west to the first upper-path vertex, and so on down to
(0, 0).  Its run lengths drive both the sandpile bijection and the
q,t-statistics, so they are computed by run jumps on the profiles rather
than step-by-step.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .config import guard_count
from .errors import NotMonotone, PathsCross, json_field

Runs = tuple[int, ...]


def narayana_number(a: int, b: int) -> int:
    """Narayana number C(a, b) * C(a, b-1) / a."""
    if a < 1:
        raise ValueError("a must be >= 1")
    return math.comb(a, b) * math.comb(a, b - 1) // a


def _word_to_profile(word: str) -> tuple[int, ...]:
    """Heights of the path over each column: #N steps before each E step."""
    y = 0
    prof = []
    for ch in word:
        if ch == "N":
            y += 1
        elif ch == "E":
            prof.append(y)
        else:
            raise NotMonotone(f"invalid step {ch!r}; expected N or E")
    return tuple(prof)


def _profile_to_word(prof: Sequence[int], n: int) -> str:
    parts = []
    y = 0
    for h in prof:
        parts.append("N" * (h - y))
        parts.append("E")
        y = h
    parts.append("N" * (n - y))
    return "".join(parts)


def _profiles_valid(m: int, n: int, top: Sequence[int], bot: Sequence[int]) -> bool:
    if m < 1 or n < 1 or len(top) != m or len(bot) != m:
        return False
    if bot[0] != 0 or top[m - 1] != n:
        return False
    prev_t = prev_b = 0
    for i in range(m):
        if not 0 <= bot[i] < top[i] <= n:
            return False
        if top[i] < prev_t or bot[i] < prev_b:
            return False
        prev_t, prev_b = top[i], bot[i]
    for i in range(m - 1):
        if bot[i + 1] > top[i] - 1:
            return False
    return True


@dataclass(frozen=True, slots=True)
class ParaPolyomino:
    """Immutable parallelogram polyomino; equality and hashing by geometry."""

    m: int
    n: int
    top: tuple[int, ...]
    bot: tuple[int, ...]

    def __post_init__(self):
        if not _profiles_valid(self.m, self.n, self.top, self.bot):
            raise PathsCross(
                f"profiles do not bound a polyomino: {self.top} / {self.bot}"
            )
        object.__setattr__(self, "top", tuple(self.top))
        object.__setattr__(self, "bot", tuple(self.bot))

    @classmethod
    def _trusted(
        cls, m: int, n: int, top: tuple[int, ...], bot: tuple[int, ...]
    ) -> "ParaPolyomino":
        """Construct from profile tuples the enumerator produced, which are
        valid by construction, without checking them again."""
        self = object.__new__(cls)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "top", top)
        object.__setattr__(self, "bot", bot)
        return self

    # -- path views ------------------------------------------------------

    @property
    def upper(self) -> str:
        return _profile_to_word(self.top, self.n)

    @property
    def lower(self) -> str:
        return _profile_to_word(self.bot, self.n)

    def cells(self) -> "CellSet":
        return _cell_set(self.m, self.n, self.top, self.bot)

    # -- statistics ------------------------------------------------------

    @property
    def area(self) -> int:
        return sum(self.top) - sum(self.bot)

    @property
    def uarea(self) -> int:
        """Cells of the bounding box strictly above the upper path."""
        return self.m * self.n - sum(self.top)

    @property
    def larea(self) -> int:
        """Cells of the bounding box strictly below the lower path."""
        return sum(self.bot)

    def is_ribbon(self) -> bool:
        return self.area == self.m + self.n - 1

    def diaglen(self) -> tuple[int, ...]:
        """Number of cells on each anti-diagonal i + j - 1 = k, k = 1..m+n-1."""
        d = [0] * (self.m + self.n - 1)
        for i in range(self.m):
            for j in range(self.bot[i] + 1, self.top[i] + 1):
                d[i + j - 1] += 1
        return tuple(d)

    # -- bounce path -----------------------------------------------------

    def bounce_seq(self) -> Runs:
        """Run lengths of the bounce path, starting with the south run count.

        A south run along the line x = c stops at the lower-path vertex
        (c, bot[c]); a west run at height y stops at the rightmost upper-path
        vertex (x', y) with x' < c, i.e. the largest x' with top[x'-1] <= y.
        Zero-length runs never occur and are never recorded.
        """
        m, n, top, bot = self.m, self.n, self.top, self.bot
        runs = []
        x, y = m - 1, n
        while (x, y) != (0, 0):
            ystop = bot[x]  # lower-path vertex level on the line x
            runs.append(y - ystop)
            y = ystop
            if (x, y) == (0, 0):
                break
            xstop = 0
            for xp in range(x - 1, 0, -1):
                if top[xp - 1] <= y:
                    xstop = xp
                    break
            runs.append(x - xstop)
            x = xstop
        return tuple(runs)

    def bounce_path(self) -> str:
        """The bounce path as a word over S and W from (m-1, n) to (0, 0)."""
        out = []
        for idx, run in enumerate(self.bounce_seq()):
            out.append(("S" if idx % 2 == 0 else "W") * run)
        return "".join(out)

    def bounce_charact(self) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Turning coordinates (x_0..x_{k+1}, y_0..y_{k+1}) of the bounce path.

        k is the number of west runs; y_1 equals the terminal south run and is
        0 exactly when the path ends on a west run.  Reconstructing the run
        sequence as (y_{k+1}-y_k, x_k-x_{k-1}, y_k-y_{k-1}, ...) and dropping
        a trailing zero gives back bounce_seq().
        """
        runs = self.bounce_seq()
        souths = list(runs[0::2])
        wests = list(runs[1::2])
        k = len(wests)
        if len(souths) == k:  # path ended on a west run
            souths.append(0)
        xs = tuple(self.m - 1 - sum(wests[: k - i]) for i in range(k + 1)) + (self.m,)
        ys = tuple(self.n - sum(souths[: k + 1 - i]) for i in range(k + 2))
        return xs, ys

    @property
    def bounce_weight(self) -> int:
        """Sum of ceil(i/2) * c_i over the bounce run lengths c_1, c_2, ..."""
        return bounce_weight_of_runs(self.bounce_seq())

    # -- transformations --------------------------------------------------

    def transpose(self) -> "ParaPolyomino":
        """Reflection across the main diagonal; swaps the box to n x m.  The
        reflected lower path is the new upper path, with N and E exchanged."""
        swap = str.maketrans("NE", "EN")
        return para_from_paths(self.lower.translate(swap), self.upper.translate(swap))

    # -- plumbing ----------------------------------------------------------

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "upper": self.upper, "lower": self.lower}

    @classmethod
    def from_json(cls, data: dict) -> "ParaPolyomino":
        upper, lower = json_field(data, "upper", str), json_field(data, "lower", str)
        poly = para_from_paths(upper, lower)
        if poly.m != json_field(data, "m", int) or poly.n != json_field(data, "n", int):
            raise NotMonotone("declared box does not match the step words")
        return poly

    def __repr__(self) -> str:
        return f"ParaPolyomino({self.m}x{self.n}, {self.upper!r}/{self.lower!r})"


@dataclass(frozen=True)
class CellSet:
    """An arbitrary set of cells in an m x n box; need not be a polyomino."""

    m: int
    n: int
    cells: frozenset[tuple[int, int]]

    def __post_init__(self):
        for (i, j) in self.cells:
            if not (1 <= i <= self.m and 1 <= j <= self.n):
                raise ValueError(f"cell {(i, j)} outside {self.m}x{self.n} box")

    def as_para(self) -> ParaPolyomino | None:
        """The cell set as a parallelogram polyomino, or None if it is not one.

        One pass over the cells reads each column's highest row as top and
        lowest row minus one as bot.  Once `_profiles_valid` has rejected an
        empty column, every cell lies in its column's span (bot, top], so
        the set fills them all exactly when it has sum(top) - sum(bot) cells.
        """
        m = self.m
        low = [self.n + 1] * (m + 1)
        high = [0] * (m + 1)
        for i, j in self.cells:
            if j < low[i]:
                low[i] = j
            if j > high[i]:
                high[i] = j
        top = tuple(high[1:])
        bot = tuple(j - 1 for j in low[1:])
        if not _profiles_valid(m, self.n, top, bot) or len(self.cells) != sum(top) - sum(bot):
            return None
        return ParaPolyomino._trusted(m, self.n, top, bot)

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "cells": sorted(map(list, self.cells))}


def _cell_set(m: int, n: int, top: Sequence[int], bot: Sequence[int]) -> CellSet:
    """The cells (i, j) with bot[i-1] < j <= top[i-1]; bot >= top leaves column i empty."""
    cells = zip(range(1, m + 1), top, bot)
    return CellSet(m, n, frozenset((i, j) for i, t, b in cells for j in range(b + 1, t + 1)))


@dataclass(frozen=True)
class HeightSeqs:
    """Weakly increasing column heights a_1..a_{m-1} in [0, n-1] and row
    widths b_1..b_n in [0, m-1] (both offset by one from the geometry)."""

    m: int
    n: int
    a: tuple[int, ...]
    b: tuple[int, ...]

    def __post_init__(self):
        a, b = self.a, self.b
        if len(a) != self.m - 1 or len(b) != self.n:
            raise ValueError("sequence lengths must be m-1 and n")
        if a and (min(a) < 0 or max(a) > self.n - 1):
            raise ValueError("a entries must lie in [0, n-1]")
        if b and (min(b) < 0 or max(b) > self.m - 1):
            raise ValueError("b entries must lie in [0, m-1]")
        if not all(map(operator.le, a, a[1:])):
            raise ValueError("a must be weakly increasing")
        if not all(map(operator.le, b, b[1:])):
            raise ValueError("b must be weakly increasing")


def para_from_paths(upper: str, lower: str) -> ParaPolyomino:
    """Build and validate a polyomino from its two boundary words.

    Raises NotMonotone when the words do not consist of matching numbers of
    N and E steps, and PathsCross when they touch anywhere except the two
    endpoints (equivalently, when `upper` fails to stay strictly above).
    """
    up = _word_to_profile(upper)
    lo = _word_to_profile(lower)
    m = len(up)
    n = upper.count("N")
    if len(lower) != len(upper) or len(lo) != m or lower.count("N") != n:
        raise NotMonotone("paths must use the same numbers of N and E steps")
    if m < 1 or n < 1:
        raise NotMonotone("box must have at least one column and one row")
    if not _profiles_valid(m, n, up, lo):
        raise PathsCross("paths touch or cross between their endpoints")
    return ParaPolyomino._trusted(m, n, up, lo)


def profiles_from_heights(h: HeightSeqs) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """(top, bot) profiles of the cell diagram of h (`cells_from_heights`):
    column i < m reaches row 1 + a_i and column m row n; bot[i] is the rank
    #{j : b_j < i} in the weakly increasing b, the rows below column i + 1.
    An empty column gets bot >= top; nothing is validated."""
    return (*(a_i + 1 for a_i in h.a), h.n), tuple(bisect_left(h.b, i) for i in range(h.m))


def cells_from_heights(h: HeightSeqs) -> CellSet:
    """Intersection of the two staircase diagrams described by h.

    Column i < m is truncated to height 1 + a_i, column m runs the full
    height, and row j is truncated to width 1 + b_j.  The result may fail to
    be a polyomino.
    """
    return _cell_set(h.m, h.n, *profiles_from_heights(h))


def is_para_sequences(h: HeightSeqs) -> bool:
    """Sequence test for cells_from_heights(h) being a parallelogram polyomino:

        (i)   i <= b[1 + a_i]        for 1 <= i <= m-1,
        (ii)  i <= a[1 + b_i]        for 1 <= i <= n-1,
        (iii) b_n = m - 1,

    with the convention a_m = n - 1 (column m runs the full height).
    """
    m, n, a, b = h.m, h.n, h.a, h.b
    if b[n - 1] != m - 1:
        return False
    for i in range(1, m):
        if i > b[a[i - 1]]:  # b[1 + a_i] with 1-based b
            return False
    for i in range(1, n):
        idx = 1 + b[i - 1]  # index into a, 1-based; a_m = n - 1
        av = n - 1 if idx == m else a[idx - 1]
        if i > av:
            return False
    return True


def is_para_partitions(lam: Sequence[int], mu: Sequence[int]) -> bool:
    """Partition-complement form of the sequence test.

    lam has m weakly decreasing entries in [0, n] (cells missing from the top
    of each column), mu has n weakly decreasing entries in [0, m] (cells
    missing from the right of each row).  Out-of-range subscripts use the
    border conventions lam_0 = n, mu_0 = m.
    """
    m, n = len(lam), len(mu)
    if any(x < y for x, y in zip(lam, lam[1:])) or any(
        x < y for x, y in zip(mu, mu[1:])
    ):
        raise ValueError("lam and mu must be weakly decreasing")
    if any(not 0 <= v <= n for v in lam) or any(not 0 <= v <= m for v in mu):
        raise ValueError("entries out of range")
    if lam[m - 1] != 0 or mu[n - 1] != 0:
        return False
    for i in range(1, m):
        idx = n - lam[i - 1]
        muv = m if idx == 0 else mu[idx - 1]
        if not muv < m - i:
            return False
    for i in range(1, n):
        idx = m - mu[i - 1]
        lamv = n if idx == 0 else lam[idx - 1]
        if not lamv < n - i:
            return False
    return True


# -- bounce-run helpers ------------------------------------------------------


def obounce(runs: Runs) -> Runs:
    """South-run lengths (odd positions c_1, c_3, ...)."""
    return runs[0::2]


def ebounce(runs: Runs) -> Runs:
    """West-run lengths (even positions c_2, c_4, ...)."""
    return runs[1::2]


def bounce_weight_of_runs(runs: Sequence[int]) -> int:
    """Weighted run sum ceil(i/2) * c_i; run i carries weight ceil(i/2)."""
    return sum((i // 2 + 1) * c for i, c in enumerate(runs))


# -- enumeration --------------------------------------------------------------


def count_para(m: int, n: int) -> int:
    """|Para_{m,n}| = Narayana(m+n-1, m)."""
    if m < 1 or n < 1:
        raise ValueError(f"a box needs m >= 1 and n >= 1, got m={m}, n={n}")
    return narayana_number(m + n - 1, m)


# Upper bound on the rows of one batch of `_profile_chunks`, and so on the
# enumeration kernel's working memory; boxes wider than 8 columns get
# proportionally fewer rows, so a batch never holds more than 16 times this
# many profile entries.
_CHUNK_ROWS = 1 << 12


def _column_batches(
    rows: np.ndarray, col: int, m: int, n: int
) -> Iterator[tuple[np.ndarray, bool]]:
    """Extend every profile pair by each admissible value of column `col`,
    largest first, in slices of at most the chunk bound; a pair whose values
    do not fit in one slice is split across slices.  Yields (slice, is_last).

    The layout is column-major: `rows` has shape (2m, k), row `col` holds
    entry `col` of all k pairs, top[0..m-1] then bot[0..m-1].  Entry top[i]
    ranges over [top[i-1], n] (top[0] over [1, n]); entry bot[i] over
    [bot[i-1], top[i-1] - 1].  Neither range is ever empty.
    """
    if col == 0:
        lo = np.ones(rows.shape[1], dtype=np.int64)
    else:
        lo = rows[col - 1].astype(np.int64)
    hi = n if col < m else rows[col - m - 1].astype(np.int64) - 1
    ends = np.cumsum(hi - lo + 1)
    lo += ends - 1  # now lo[r] - p is the value at flat position p of pair r
    total = int(ends[-1])
    limit = max(1, min(_CHUNK_ROWS, _CHUNK_ROWS * 8 // m))
    for s in range(0, total, limit):
        e = min(s + limit, total)
        r0 = int(np.searchsorted(ends, s, side="right"))
        r1 = int(np.searchsorted(ends, e, side="left")) + 1
        reps = np.diff(np.minimum(ends[r0:r1], e), prepend=s)
        idx = np.repeat(np.arange(r0, r1), reps)
        out = rows.take(idx, axis=1)  # C-contiguous, unlike rows[:, idx]
        out[col] = lo[idx] - np.arange(s, e)
        yield out, e == total


def _profile_chunks(m: int, n: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """Every profile pair of Para_{m,n} in canonical order, as (top, bot)
    arrays of shape (m, k) with k at most the chunk bound: row i holds box
    column i of all k pairs, C-contiguous, so a kernel that works column by
    column reads contiguous memory.

    Canonical order is ascending lexicographic on the upper word with N < E,
    then on the lower word; on profiles this is descending lexicographic
    order (an earlier N pushes the column height up).  The free columns are
    filled in the order top[0..m-2], bot[1..m-1], each from its largest
    value down, depth first, so the rows come out in that order.  A level
    leaves the stack with its last slice, so a box whose expansions fit in
    one slice holds a single batch at a time.
    """
    cols = [*range(m - 1), *range(m + 1, 2 * m)]
    # every entry lies in 0..n: int16 holds it while n < 2**15
    root = np.zeros((2 * m, 1), dtype=np.int16 if n < 2**15 else np.int64)
    root[m - 1, 0] = n
    stack = [(0, iter(((root, True),)))]
    while stack:
        filled = stack[-1][0]
        rows, last = next(stack[-1][1])
        if last:
            stack.pop()
        if filled == len(cols):
            yield rows[:m], rows[m:]
        else:
            stack.append((filled + 1, _column_batches(rows, cols[filled], m, n)))


def _iter_profiles(m: int, n: int) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Profile pairs in canonical order, one tuple pair at a time."""
    for top, bot in _profile_chunks(m, n):
        yield from zip(zip(*top.tolist()), zip(*bot.tolist()))


def enumerate_para(
    m: int, n: int, max_objects: int | None = None
) -> Iterator[ParaPolyomino]:
    """Every element of Para_{m,n} exactly once, in canonical order."""
    guard_count(count_para(m, n), max_objects, f"Para_{{{m},{n}}}")
    for top, bot in _iter_profiles(m, n):
        yield ParaPolyomino._trusted(m, n, top, bot)
