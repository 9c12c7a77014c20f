"""Sandpile dynamics on the complete bipartite graph with a sink.

The graph has top vertices v_0, ..., v_{m-1} and bottom vertices
v_m, ..., v_{m+n-1}, every top joined to every bottom in both directions.
v_0 is the sink: it absorbs grains and never topples.  A configuration
assigns grain heights to v_1..v_{m+n-1}; positions 1..m-1 are top vertices
with out-degree n, positions m..m+n-1 bottom vertices with out-degree m.

Recurrence is decided by Dhar's burning test: topple the sink once (add a
grain to every bottom vertex) and stabilize; the state is recurrent exactly
when this returns to the start with every vertex toppling once.  The
stabilization is scheduled canonically as alternating parallel waves -- all
unstable bottoms, then all unstable tops, and so on -- because the wave
sizes of a recurrent state equal the bounce run lengths of its polyomino
image.  `burn` performs this run once per configuration object and keeps
it on the object: the verdict, the wave trace and the wave word (the trace
position of each vertex's wave), so every predicate or map on one
configuration reads what it needs from one run.

On K_{m,n} the run needs no rescans.  Every vertex of one side receives the
same grains in a wave, and from a stable start no vertex fires twice: a
bottom never holds more than (m-1) + 1 + (m-1) < 2m grains (its stable
height, the sink's grain, one from each other top), a top never more than
(n-1) + n < 2n, so one firing leaves each below its threshold for good.
Hence a bottom fires once its height plus one plus the number of tops fired
so far reaches m, a top once its height plus the number of bottoms fired
reaches n, and each side fires in decreasing height order.  `burn` sorts
each side once and reads every wave off as the next contiguous slice of
that order, in O((m+n) log(m+n)) per run instead of a rescan of every
vertex per wave.  It is still Dhar's burning test, and the waves are the
ones the literal wave-by-wave process produces.
"""

from __future__ import annotations

import random
from bisect import bisect_left
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, NamedTuple, Sequence

from .config import guard_count
from .errors import NotRecurrent
from .polyomino import (
    CellSet,
    HeightSeqs,
    ParaPolyomino,
    cells_from_heights,
    count_para,
    ebounce,
    obounce,
    profiles_from_heights,
    _iter_profiles,
)

Heights = tuple[int, ...]


@dataclass(frozen=True, slots=True)
class BipartiteConfig:
    """Grain heights on v_1..v_{m+n-1}; immutable."""

    m: int
    n: int
    heights: Heights
    # the burning run, written by `burn` only; not part of the value
    _burnt: BurnResult | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        heights = tuple(self.heights)
        object.__setattr__(self, "heights", heights)
        if self.m < 1 or self.n < 1:
            raise ValueError("need m, n >= 1")
        if len(heights) != self.m + self.n - 1:
            raise ValueError(f"expected {self.m + self.n - 1} heights, got {len(heights)}")
        if min(heights) < 0:
            raise ValueError("heights must be non-negative")

    def __getstate__(self):
        # the value only: a copy or a pickle starts unburned
        return [self.m, self.n, self.heights]

    def __setstate__(self, state):
        for name, value in zip(("m", "n", "heights"), state):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_burnt", None)

    @property
    def top(self) -> Heights:
        """Heights of v_1..v_{m-1}."""
        return self.heights[: self.m - 1]

    @property
    def bottom(self) -> Heights:
        """Heights of v_m..v_{m+n-1}."""
        return self.heights[self.m - 1 :]

    def is_stable(self) -> bool:
        return max(self.top, default=0) < self.n and max(self.bottom) < self.m

    def to_json(self) -> dict:
        return {"m": self.m, "n": self.n, "heights": list(self.heights)}


Wave = tuple[str, frozenset[int]]


@dataclass(frozen=True)
class TopplingTrace:
    """Alternating toppling waves ('bottom'/'top', vertex index sets).

    Waves are recorded only when non-empty, so a trace may end on either
    side; for a recurrent configuration the waves partition {1..m+n-1}.
    """

    waves: tuple[Wave, ...]

    def bottom_waves(self) -> tuple[frozenset[int], ...]:
        return tuple(s for side, s in self.waves if side == "bottom")

    def top_waves(self) -> tuple[frozenset[int], ...]:
        return tuple(s for side, s in self.waves if side == "top")

    def sizes(self) -> tuple[int, ...]:
        return tuple(len(s) for _, s in self.waves)

    def to_json(self) -> dict:
        return {
            "waves": [
                {"side": side, "vertices": sorted(s)} for side, s in self.waves
            ]
        }


# -- core dynamics ------------------------------------------------------------


def stabilize(config: BipartiteConfig) -> tuple[BipartiteConfig, tuple[int, ...]]:
    """Topple until stable; returns the stable state and per-vertex topple counts.

    The result does not depend on the toppling order (grains sent to the sink
    are discarded), so a simple sweep schedule is used: topple every unstable
    top as often as it can, pass the sweep's total to every bottom at once,
    then the same for the bottoms.
    """
    m, n = config.m, config.n
    h = list(config.heights)
    counts = [0] * (m + n - 1)
    tops, bottoms = range(m - 1), range(m - 1, m + n - 1)
    unstable = True
    while unstable:
        unstable = False
        for side, cap, other in ((tops, n, bottoms), (bottoms, m, tops)):
            fired = 0
            for v in side:
                if h[v] >= cap:
                    k = h[v] // cap
                    h[v] -= k * cap
                    counts[v] += k
                    fired += k
            if fired:
                for v in other:
                    h[v] += fired
                unstable = True
    return BipartiteConfig(m, n, h), tuple(counts)


def topple_random(
    config: BipartiteConfig, rng: random.Random
) -> tuple[BipartiteConfig, tuple[int, ...]]:
    """Topple one unstable vertex at a time, chosen by `rng.choice`, until
    stable; returns the stable state and per-vertex topple counts.

    This is the random-policy route to the abelian property, independent of
    the sweep schedule of `stabilize`.
    """
    m, n = config.m, config.n
    h = list(config.heights)
    counts = [0] * (m + n - 1)
    while True:
        unstable = [i for i in range(m + n - 1) if h[i] >= (n if i < m - 1 else m)]
        if not unstable:
            break
        i = rng.choice(unstable)
        if i < m - 1:
            h[i] -= n
            for j in range(m - 1, m + n - 1):
                h[j] += 1
        else:
            h[i] -= m
            for j in range(m - 1):
                h[j] += 1
        counts[i] += 1
    return BipartiteConfig(m, n, h), tuple(counts)


class BurnResult(NamedTuple):
    """Outcome of the burning run from a stable configuration.

    `wave_word[v]` is the position in `trace.waves` of the wave in which v_v
    fires, for v = 0..m+n-1, and -1 for a vertex that never fires (always
    the sink v_0, whose one toppling starts the run).
    """

    recurrent: bool
    trace: TopplingTrace
    wave_word: tuple[int, ...]


def burn(config: BipartiteConfig) -> BurnResult:
    """Dhar's burning run from a stable configuration: +1 to every bottom
    vertex (the sink topples once), then alternate parallel bottom/top waves
    until stable.  The configuration is recurrent exactly when every vertex
    topples, once each; the run then returns to the start.

    Each side is sorted by height once.  A bottom is unstable after t top
    firings when its height is at least m-1-t, a top after b bottom firings
    when its height is at least n-b, and nothing fires twice (module
    docstring), so each wave is the next slice of its side's sorted order.
    Raises ValueError on an unstable configuration, read off the same sort.

    The result is kept on the configuration object, so later calls on the
    same object return it without a second run; an unstable configuration
    keeps nothing and raises on every call.
    """
    burnt = config._burnt
    if burnt is not None:
        return burnt
    m, n = config.m, config.n
    h = (0,) + config.heights  # h[v] is the height of v_v
    key = h.__getitem__
    tops = sorted(range(1, m), key=key, reverse=True)
    bottoms = sorted(range(m, m + n), key=key, reverse=True)
    if h[bottoms[0]] >= m or (tops and h[tops[0]] >= n):
        raise ValueError("canonical toppling requires a stable configuration")
    waves: list[Wave] = []
    word = [-1] * (m + n)
    b = t = 0  # bottoms and tops fired so far
    while True:
        start, need = b, m - 1 - t
        while b < n and h[bottoms[b]] >= need:
            b += 1
        if b == start:
            break
        # labels inserted in ascending order, as a scan of the side inserts
        # them, so each set iterates and prints as the scan's would
        pos, fired = len(waves), bottoms[start:b]
        fired.sort()
        for v in fired:
            word[v] = pos
        waves.append(("bottom", frozenset(fired)))
        start, need = t, n - b
        while t < m - 1 and h[tops[t]] >= need:
            t += 1
        if t == start:
            break
        fired = tops[start:t]
        fired.sort()
        for v in fired:
            word[v] = pos + 1
        waves.append(("top", frozenset(fired)))
    burnt = BurnResult(b + t == m + n - 1, TopplingTrace(tuple(waves)), tuple(word))
    object.__setattr__(config, "_burnt", burnt)
    return burnt


def canon_top(config: BipartiteConfig) -> TopplingTrace:
    """Wave trace of the burning run started from a stable configuration."""
    return burn(config).trace


def is_recurrent(config: BipartiteConfig) -> bool:
    """Burning criterion; an unstable configuration is not recurrent."""
    try:
        return burn(config).recurrent
    except ValueError:  # unstable
        return False


def _require_recurrent(config: BipartiteConfig) -> BurnResult:
    """The burning run of a recurrent configuration; NotRecurrent otherwise."""
    try:
        burnt = burn(config)
    except ValueError:  # unstable
        pass
    else:
        if burnt.recurrent:
            return burnt
    raise NotRecurrent(f"{config!r} is not recurrent")


def level(config: BipartiteConfig) -> int:
    """Total grains above the recurrent minimum: sum(u) - n(m-1).

    For recurrent u this equals area(image polyomino) - (m+n-1).
    """
    return sum(config.heights) - config.n * (config.m - 1)


# -- sorting decomposition -----------------------------------------------------


def inc_decomp(config: BipartiteConfig) -> tuple[BipartiteConfig, tuple[int, ...]]:
    """Sort each block weakly increasing; return (sorted config, permutation).

    The permutation pi is 1-based with u_i = sorted[pi(i)] and is the
    lexicographically smallest among block-preserving choices: scanning
    positions in order, each value takes the smallest unused sorted slot
    that holds it.  A stable sort of the block's positions by value is that
    choice: the k-th position in sorted order takes the block's slot k.
    """
    m, n = config.m, config.n
    perm = [0] * (m + n - 1)
    inc: list[int] = []
    for lo, block in ((0, config.top), (m - 1, config.bottom)):
        order = sorted(range(len(block)), key=block.__getitem__)
        inc.extend(block[i] for i in order)
        for k, i in enumerate(order):
            perm[lo + i] = lo + k + 1
    return BipartiteConfig(m, n, inc), tuple(perm)


# -- polyomino correspondence ----------------------------------------------------


def _sorted_heights(config: BipartiteConfig) -> HeightSeqs:
    """The height sequences (a | b): each block sorted weakly increasing."""
    return HeightSeqs(config.m, config.n, tuple(sorted(config.top)), tuple(sorted(config.bottom)))


def cell_image(config: BipartiteConfig) -> CellSet:
    """Cell diagram of the sorted heights: column i truncated to height
    1 + a_i, row j to width 1 + b_j, where (a | b) are the sorted blocks."""
    return cells_from_heights(_sorted_heights(config))


def config_of_para(poly: ParaPolyomino) -> BipartiteConfig:
    """Increasing recurrent configuration whose cell image is the polyomino:
    a_i = (top of column i) - 1, b_j = (right end of row j) - 1, which is the
    rank #{i : bot_i < j} - 1 in the weakly increasing bot (>= 0 as bot_0 = 0)."""
    m, n, bot = poly.m, poly.n, poly.bot
    a = [t - 1 for t in poly.top[: m - 1]]
    b = [bisect_left(bot, j) - 1 for j in range(1, n + 1)]
    return BipartiteConfig(m, n, a + b)


# -- decorated polyominoes -------------------------------------------------------


@dataclass(frozen=True)
class DecoratedPolyomino:
    """Polyomino with ordered set partitions attached to its bounce runs.

    A partitions {1..m-1} with part sizes equal to the west run lengths,
    B partitions {m..m+n-1} with part sizes equal to the south run lengths.
    """

    poly: ParaPolyomino
    A: tuple[frozenset[int], ...]
    B: tuple[frozenset[int], ...]

    def __post_init__(self):
        m, n = self.poly.m, self.poly.n
        runs = self.poly.bounce_seq()
        if tuple(map(len, self.A)) != ebounce(runs):
            raise ValueError("A part sizes must match the west bounce runs")
        if tuple(map(len, self.B)) != obounce(runs):
            raise ValueError("B part sizes must match the south bounce runs")
        got_a = sorted(chain.from_iterable(self.A))
        got_b = sorted(chain.from_iterable(self.B))
        if got_a != list(range(1, m)):
            raise ValueError("A must partition {1..m-1}")
        if got_b != list(range(m, m + n)):
            raise ValueError("B must partition {m..m+n-1}")


def decorate(config: BipartiteConfig) -> DecoratedPolyomino:
    """Map a recurrent configuration to its decorated polyomino: the cell
    image plus the top/bottom wave sets of the canonical toppling."""
    trace = _require_recurrent(config).trace
    poly = ParaPolyomino(config.m, config.n, *profiles_from_heights(_sorted_heights(config)))
    return DecoratedPolyomino(poly, trace.top_waves(), trace.bottom_waves())


def undecorate(dec: DecoratedPolyomino) -> BipartiteConfig:
    """Canonical preimage of a decorated polyomino.

    Heights are read from the increasing representative of the polyomino and
    redistributed wave by wave, giving ascending heights to ascending vertex
    labels inside each wave.  decorate(undecorate(d)) == d always holds; the
    two maps are mutual inverses on the image of undecorate (inside a wave,
    decorations cannot distinguish label orderings, so decorate is not
    injective on all recurrent states).
    """
    inc = config_of_para(dec.poly)
    m, n = inc.m, inc.n
    trace = canon_top(inc)
    heights = [0] * (m + n - 1)
    for dec_side, inc_waves in (
        (dec.A, trace.top_waves()),
        (dec.B, trace.bottom_waves()),
    ):
        if len(dec_side) != len(inc_waves):
            raise ValueError("decoration waves do not match the polyomino")
        for labels, positions in zip(dec_side, inc_waves):
            vals = sorted(inc.heights[p - 1] for p in positions)
            for label, v in zip(sorted(labels), vals):
                heights[label - 1] = v
    return BipartiteConfig(m, n, heights)


# -- enumeration ------------------------------------------------------------------


def count_rec(m: int, n: int) -> int:
    """|Rec| = m^{n-1} n^{m-1} (the spanning-tree count of the graph)."""
    return m ** (n - 1) * n ** (m - 1)


def count_stable(m: int, n: int) -> int:
    return n ** (m - 1) * m**n


def _distinct_perms(vals: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Distinct permutations of a multiset, in ascending lexicographic order.

    The lexicographic successor rule (Knuth, TAOCP 7.2.1.2, Algorithm L):
    from the sorted list, find the last ascent p[i] < p[i+1], swap p[i]
    with the last p[j] > p[i], and reverse the tail after i.
    """
    p = sorted(vals)
    while True:
        yield tuple(p)
        i = len(p) - 2
        while i >= 0 and p[i] >= p[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(p) - 1
        while p[j] <= p[i]:
            j -= 1
        p[i], p[j] = p[j], p[i]
        p[i + 1 :] = p[: i : -1]


def enumerate_rec_star(
    m: int, n: int, max_objects: int | None = None
) -> Iterator[BipartiteConfig]:
    """Increasing recurrent configurations, one per polyomino, in the
    canonical polyomino order."""
    guard_count(count_para(m, n), max_objects, f"Rec*(D_{{{m},{n}}})")
    for top, bot in _iter_profiles(m, n):
        yield config_of_para(ParaPolyomino._trusted(m, n, top, bot))


def enumerate_rec(
    m: int, n: int, max_objects: int | None = None
) -> Iterator[BipartiteConfig]:
    """All recurrent configurations: every block-wise rearrangement of every
    increasing recurrent state.  Count is m^{n-1} n^{m-1}."""
    guard_count(count_rec(m, n), max_objects, f"Rec(D_{{{m},{n}}})")
    for inc in enumerate_rec_star(m, n, max_objects=None):
        for t in _distinct_perms(inc.top):
            for b in _distinct_perms(inc.bottom):
                yield BipartiteConfig(m, n, t + b)
