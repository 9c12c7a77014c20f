"""Sandpile model on the complete graph, Dyck paths, and the bounce link.

The graph has vertices v_0..v_{n-1} with v_0 the sink; every non-sink vertex
has out-degree n-1.  Stable states are height vectors in [0, n-2]^{n-1}; a
stable state is recurrent iff the complement (n-1-x_1, ..., n-1-x_{n-1}) is
a parking function, which the burning run cross-checks.

Sorted (weakly decreasing) recurrent states map to polyominoes in an
n x (n-1) box whose upper path is the staircase; the free lower boundary,
read from the top-right corner, is a Dyck path of semi-length n-1.  These
maps reuse the polyomino converters: `diag` is the cell image of the height
sequences a = (0, ..., n-2), b_j = 1 + x_{n-j}; `dyck_of` reads the lower
step word; `diag_from_dyck` builds the polyomino from its two step words and
reads x off its increasing recurrent configuration.  Under this
correspondence the canonical toppling waves, the polyomino bounce runs
and the Dyck-path bounce of Haglund line up, giving the exact translation
between the (area, bounce weight) polynomial on these polyominoes and the
q,t-Catalan polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

from .bivar import BivarPoly
from .config import Check, guard_count
from .errors import NotRecurrent, NotSorted, json_field
from .polyomino import HeightSeqs, ParaPolyomino, para_from_paths, profiles_from_heights
from .sandpile import config_of_para


@dataclass(frozen=True, slots=True)
class KnConfig:
    """Heights on v_1..v_{n-1} of the n-vertex complete graph with sink v_0."""

    n: int
    heights: tuple[int, ...]

    def __post_init__(self):
        heights = tuple(self.heights)
        object.__setattr__(self, "heights", heights)
        if self.n < 2:
            raise ValueError("need n >= 2")
        if len(heights) != self.n - 1:
            raise ValueError(f"expected {self.n - 1} heights")
        if min(heights) < 0:
            raise ValueError("heights must be non-negative")

    def is_stable(self) -> bool:
        return all(h <= self.n - 2 for h in self.heights)

    def is_sorted(self) -> bool:
        h = self.heights
        return all(x >= y for x, y in zip(h, h[1:]))

    def to_json(self) -> dict:
        return {"n": self.n, "heights": list(self.heights)}


def is_parking_function(seq: Sequence[int]) -> bool:
    """Some permutation puts entry t at a slot i >= t; equivalently the
    ascending sort satisfies t_(i) <= i."""
    return all(v <= i for i, v in enumerate(sorted(seq), start=1))


def _burning_run(config: KnConfig) -> tuple[tuple[int, ...], list[frozenset[int]]]:
    """+1 everywhere (the sink fires), then parallel waves until stable."""
    n = config.n
    deg = n - 1
    h = [v + 1 for v in config.heights]
    waves: list[frozenset[int]] = []
    while True:
        q = [i for i in range(n - 1) if h[i] >= deg]
        if not q:
            return tuple(h), waves
        waves.append(frozenset(i + 1 for i in q))
        gain = len(q)
        for i in q:
            h[i] -= deg
        for i in range(n - 1):
            h[i] += gain - (1 if i + 1 in waves[-1] else 0)


def kn_is_recurrent(config: KnConfig) -> bool:
    """Parking-function complement test."""
    if not config.is_stable():
        return False
    n = config.n
    return is_parking_function([n - 1 - v for v in config.heights])


def kn_is_recurrent_burning(config: KnConfig) -> bool:
    """Burning criterion, kept separate as an independent cross-check."""
    if not config.is_stable():
        return False
    final, waves = _burning_run(config)
    return final == config.heights and sum(map(len, waves)) == config.n - 1


def kn_canon_top(config: KnConfig) -> tuple[frozenset[int], ...]:
    """Parallel toppling waves of the burning run of a recurrent state."""
    if not kn_is_recurrent(config):
        raise NotRecurrent(f"{config!r} is not recurrent")
    _, waves = _burning_run(config)
    return tuple(waves)


def enumerate_sorted_recurrent(n: int, max_objects: int | None = None) -> Iterator[KnConfig]:
    """Weakly decreasing recurrent states: x_i >= n-1-i, descending lex order.
    There are Catalan(n-1) of them."""
    guard_count(catalan(n - 1), max_objects, f"sorted Rec(K_{n})")

    def gen(prefix: list[int]) -> Iterator[KnConfig]:
        i = len(prefix)
        if i == n - 1:
            yield KnConfig(n, tuple(prefix))
            return
        hi = prefix[-1] if prefix else n - 2
        lo = n - 2 - i
        for v in range(hi, lo - 1, -1):
            prefix.append(v)
            yield from gen(prefix)
            prefix.pop()

    yield from gen([])


def catalan(k: int) -> int:
    return math.comb(2 * k, k) // (k + 1)


# -- diagrams and Dyck paths --------------------------------------------------------


def diag(config: KnConfig) -> ParaPolyomino:
    """Sorted recurrent state -> polyomino in an n x (n-1) box: row j spans
    columns j .. 2 + x_{n-j}.  This is the cell image of the height
    sequences a = (0, ..., n-2), b_j = 1 + x_{n-j}."""
    if not config.is_sorted():
        raise NotSorted(f"{config!r} is not weakly decreasing")
    if not kn_is_recurrent(config):
        raise NotRecurrent(f"{config!r} is not recurrent")
    n = config.n
    b = tuple(1 + x for x in reversed(config.heights))
    h = HeightSeqs(n, n - 1, tuple(range(n - 1)), b)
    return ParaPolyomino(n, n - 1, *profiles_from_heights(h))


@dataclass(frozen=True)
class DyckPath:
    """Word over S/W from (n, n) to (0, 0) staying weakly below the diagonal."""

    word: str

    def __post_init__(self):
        s = w = 0
        for ch in self.word:
            if ch == "S":
                s += 1
            elif ch == "W":
                w += 1
            else:
                raise ValueError(f"invalid step {ch!r}")
            if w > s:
                raise ValueError("path rises above the diagonal")
        if s != w:
            raise ValueError("path must use equally many S and W steps")

    @property
    def n(self) -> int:
        return len(self.word) // 2

    def to_json(self) -> dict:
        return {"n": self.n, "word": self.word}

    @classmethod
    def from_json(cls, data: dict) -> "DyckPath":
        path = cls(json_field(data, "word", str))
        if path.n != json_field(data, "n", int):
            raise ValueError("declared semi-length does not match the word")
        return path


def dyck_of(poly: ParaPolyomino) -> DyckPath:
    """Free boundary of a diag() image, read from (n, n-1) down to (1, 0):
    the lower path after its first E step, reversed, N read as S, E as W."""
    m, n = poly.m, poly.n
    if m != n + 1 or poly.top != (*range(1, m), n):
        raise NotSorted("polyomino is not the diagram of a sorted recurrent state")
    return DyckPath(poly.lower[:0:-1].translate(str.maketrans("NE", "SW")))


def diag_from_dyck(path: DyckPath) -> KnConfig:
    """Inverse of dyck_of composed with diag: the path, read back as the
    lower path under the staircase, gives the polyomino, whose increasing
    recurrent configuration has b_j = 1 + x_{n-j}."""
    n = path.n + 1
    if n < 2:
        raise ValueError("need n >= 2")
    staircase = "NE" * (n - 1) + "E"
    poly = para_from_paths(staircase, "E" + path.word[::-1].translate(str.maketrans("SW", "NE")))
    return KnConfig(n, tuple(b - 1 for b in reversed(config_of_para(poly).bottom)))


def dyck_area(path: DyckPath) -> int:
    """Complete unit squares strictly between the path and the diagonal."""
    n = path.n
    x = y = n
    total = 0
    for ch in path.word:
        if ch == "S":
            y -= 1
            total += x - y - 1
        else:
            x -= 1
    return total


def haglund_bounce(path: DyckPath) -> tuple[int, ...]:
    """Run lengths a(1), ..., a(k) of the Dyck bounce path.

    Travelling south along the line x = c, the bounce turns at the height
    where the Dyck path leaves that line with a west step -- not merely at a
    shared vertex -- and each west run returns to the diagonal.
    """
    n = path.n
    leave: dict[int, int] = {}
    x = y = n
    for ch in path.word:
        if ch == "W":
            leave[x] = y
            x -= 1
        else:
            y -= 1
    runs = []
    c = n
    while c > 0:
        nxt = leave[c]
        runs.append(c - nxt)
        c = nxt
    return tuple(runs)


def haglund_bounce_stat(path: DyckPath) -> int:
    """a(2) + 2 a(3) + ... + (k-1) a(k)."""
    return sum(i * a for i, a in enumerate(haglund_bounce(path)))


def enumerate_dyck(n: int, max_objects: int | None = None) -> Iterator[DyckPath]:
    """Dyck paths of semi-length n in ballot-sequence lexicographic order
    (S before W at every free choice)."""
    guard_count(catalan(n), max_objects, f"Dyck_{n}")

    def gen(word: list[str], s: int, w: int) -> Iterator[DyckPath]:
        if s == n and w == n:
            yield DyckPath("".join(word))
            return
        if s < n:
            word.append("S")
            yield from gen(word, s + 1, w)
            word.pop()
        if w < s:
            word.append("W")
            yield from gen(word, s, w + 1)
            word.pop()

    yield from gen([], 0, 0)


# -- polynomials and identity checks ---------------------------------------------------


def cn_poly(n: int, max_objects: int | None = None) -> BivarPoly:
    """q,t-Catalan polynomial: sum of q^area t^bounce over Dyck_n."""
    return BivarPoly(
        ((dyck_area(path), haglund_bounce_stat(path)), 1)
        for path in enumerate_dyck(n, max_objects)
    )


def sn_poly(n: int, max_objects: int | None = None) -> BivarPoly:
    """Sum of q^area t^bounce_weight over diagrams of sorted recurrent states."""
    return BivarPoly(
        ((poly.area, poly.bounce_weight), 1)
        for poly in map(diag, enumerate_sorted_recurrent(n, max_objects))
    )


def olson_check(n: int, max_objects: int | None = None) -> Check:
    """S_n(q,t) == (qt)^(2(n-1)) * C_{n-1}(q, t^2), both sides independent."""
    lhs = sn_poly(n, max_objects)
    rhs = (
        cn_poly(n - 1, max_objects)
        .substitute_powers(1, 2)
        .shift(2 * (n - 1), 2 * (n - 1))
    )
    ok = lhs == rhs
    detail = "" if ok else f"lhs={lhs!r} rhs={rhs!r}"
    return Check(f"olson n={n}", ok, detail)


def bounce_link_check(n: int, max_objects: int | None = None) -> Check:
    """For every sorted recurrent state: the polyomino bounce runs double up
    the wave sizes, the Dyck bounce equals the wave sizes, and
    bounce_weight = 2 * (haglund bounce + n - 1)."""
    name = f"bounce-link n={n}"
    for cfg in enumerate_sorted_recurrent(n, max_objects):
        waves = kn_canon_top(cfg)
        sizes = tuple(len(w) for w in waves)
        poly = diag(cfg)
        path = dyck_of(poly)
        paired = tuple(s for size in sizes for s in (size, size))
        if poly.bounce_seq() != paired:
            return Check(name, False, f"bounce pairing fails at {cfg!r}")
        if haglund_bounce(path) != sizes:
            return Check(name, False, f"dyck bounce fails at {cfg!r}")
        if poly.bounce_weight != 2 * (haglund_bounce_stat(path) + n - 1):
            return Check(name, False, f"weight relation fails at {cfg!r}")
    return Check(name, True)
