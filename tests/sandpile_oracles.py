"""Reference kernels for differential tests of the per-object sandpile code.

These are straightforward transcriptions of the definitions, kept apart from
the library so that the fast kernels in `sandnara` are checked against code
that shares nothing with them:

* `burn_waves` runs the burning test as literal alternating parallel waves,
  rescanning every vertex of a side after each wave;
* `stabilize_sweeps` topples by sweeps, sending each vertex's grains to every
  neighbour inside its own topple;
* `profiles_by_column_scan` reads a cell set column by column, rescanning the
  whole set for each column;
* `heights_of_matrix` evaluates the height formula of `config_of_matrix` with
  union sizes recomputed from the matrix cells for every term.
"""

from __future__ import annotations

from sandnara.polyomino import _profiles_valid


def burn_waves(m: int, n: int, heights) -> tuple[bool, tuple]:
    """Verdict and (side, vertex set) waves of the burning run from a stable
    state: +1 on every bottom, then parallel bottom/top waves until stable."""
    h = list(heights)
    for j in range(m - 1, m + n - 1):
        h[j] += 1
    waves = []
    while True:
        q = [j for j in range(m - 1, m + n - 1) if h[j] >= m]
        if not q:
            break
        waves.append(("bottom", frozenset(j + 1 for j in q)))
        for j in q:
            h[j] -= m
        for i in range(m - 1):
            h[i] += len(q)
        p = [i for i in range(m - 1) if h[i] >= n]
        if not p:
            break
        waves.append(("top", frozenset(i + 1 for i in p)))
        for i in p:
            h[i] -= n
        for j in range(m - 1, m + n - 1):
            h[j] += len(p)
    recurrent = (
        tuple(h) == tuple(heights) and sum(len(s) for _, s in waves) == m + n - 1
    )
    return recurrent, tuple(waves)


def stabilize_sweeps(m: int, n: int, heights) -> tuple[tuple, tuple]:
    """Stable heights and per-vertex topple counts by repeated sweeps."""
    h = list(heights)
    counts = [0] * (m + n - 1)
    unstable = True
    while unstable:
        unstable = False
        for i in range(m - 1):
            if h[i] >= n:
                k = h[i] // n
                h[i] -= k * n
                counts[i] += k
                for j in range(m - 1, m + n - 1):
                    h[j] += k
                unstable = True
        for j in range(m - 1, m + n - 1):
            if h[j] >= m:
                k = h[j] // m
                h[j] -= k * m
                counts[j] += k
                for i in range(m - 1):
                    h[i] += k
                unstable = True
    return tuple(h), tuple(counts)


def profiles_by_column_scan(m: int, n: int, cells) -> tuple | None:
    """(top, bot) profiles of a cell set that is a parallelogram polyomino,
    else None: every column a non-empty contiguous run, then the profile
    conditions."""
    top, bot = [], []
    for i in range(1, m + 1):
        rows = sorted(j for (c, j) in cells if c == i)
        if not rows or rows != list(range(rows[0], rows[-1] + 1)):
            return None
        top.append(rows[-1])
        bot.append(rows[0] - 1)
    if not _profiles_valid(m, n, top, bot):
        return None
    return tuple(top), tuple(bot)


def heights_of_matrix(rows) -> tuple[int, ...]:
    """Square minanz heights of a k x k bicomposition matrix given as rows of
    sets: u_{n+x} = n-1 - (p_1 + ... + p_{i-1}) for x in column union i and
    u_x = n - (q_1 + ... + q_i) for x in row union i."""
    k = len(rows)
    n = sum(len(c) for r in rows for c in r) + 1

    def row(i):
        return frozenset().union(*rows[i])

    def col(j):
        return frozenset().union(*(rows[i][j] for i in range(k)))

    heights = [0] * (2 * n - 1)
    for i in range(k):
        for x in col(i):
            heights[n - 1 + x] = n - 1 - sum(len(row(a)) for a in range(i))
        for x in row(i):
            heights[x - 1] = n - sum(len(col(a)) for a in range(i + 1))
    return tuple(heights)
