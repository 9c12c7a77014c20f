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
  union sizes recomputed from the matrix cells for every term;
* `matrix_rows_of_config`, `chain_of_rows`, `rows_of_chain`, `dual_chain`
  and `heights_of_chain` are the matrix and poset maps on sets: the cells
  P_i & (Q_j - n) of the waves, and the (2+2)-free poset as its chain of
  down-sets D_0 < ... < D_{k-1} and its levels, rebuilt by unions and
  intersections;
* `sorted_cell_profiles` fills the cell image of a configuration cell by
  cell from its sorted heights, the polyomino `decorate` attaches the waves
  to;
* `kn_diag_profiles`, `kn_dyck_word` and `kn_heights_of_dyck` are the
  complete-graph diagram by a cell loop, its Dyck path by a loop over the
  lower profile, and the inverse by a scan for the right end of each row;
* `wave_word_of` is the wave word of `burn` read off the waves of
  `burn_waves`;
* `check_bipartite_heights`, `check_kn_heights`, `check_decoration` and
  `check_bicomp_words` are the constructor checks of the value types written
  element by element, in the order the library reports faults, with the
  library's messages.

The complete-graph references raise the exception types of the library maps
on inputs outside their domains.
"""

from __future__ import annotations

from sandnara.errors import InvalidMatrix, NotRecurrent, NotSorted
from sandnara.polyomino import _profiles_valid, ebounce, obounce


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


def wave_word_of(m: int, n: int, waves) -> tuple[int, ...]:
    """For v = 0..m+n-1 the position of the wave holding v_v, else -1."""
    where = {v: pos for pos, (_, s) in enumerate(waves) for v in s}
    return tuple(where.get(v, -1) for v in range(m + n))


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


def matrix_rows_of_config(n: int, heights) -> tuple:
    """Cells M[i][j] = P_i & (Q_j - n) of a square minanz state, from the
    waves of `burn_waves`; the final bottom wave {v_n} is dropped."""
    _, waves = burn_waves(n, n, heights)
    ps = [s for side, s in waves if side == "top"]
    qs = [frozenset(x - n for x in s) for side, s in waves if side == "bottom"]
    return tuple(tuple(p & q for q in qs[: len(ps)]) for p in ps)


def chain_of_rows(rows) -> tuple:
    """(n, down-sets, levels) of an upper-triangular matrix: row unions are
    the levels, unions of the leading columns the down-sets."""
    k = len(rows)
    cols = [frozenset().union(*(rows[i][j] for i in range(k))) for j in range(k)]
    downs, acc = [], frozenset()
    for j in range(k):
        downs.append(acc)
        acc = acc | cols[j]
    levels = tuple(frozenset().union(*r) for r in rows)
    return len(acc), tuple(downs), levels


def rows_of_chain(n: int, downsets, levels) -> tuple:
    """M[i][j] = L_i & (D_{j+1} - D_j), reading D_k as {1..n}."""
    k = len(levels)
    ext = list(downsets) + [frozenset(range(1, n + 1))]
    return tuple(tuple(levels[i] & (ext[j + 1] - ext[j]) for j in range(k)) for i in range(k))


def dual_chain(n: int, downsets, levels) -> tuple:
    """Chain form of the reversed order: L_{k-1-i}(dual) = D_{i+1} - D_i and
    D_{k-1-i}(dual) = the union of the levels above i."""
    k = len(levels)
    ext = list(downsets) + [frozenset(range(1, n + 1))]
    dual_levels = tuple(ext[i + 1] - ext[i] for i in range(k - 1, -1, -1))
    dual_downs = tuple(frozenset().union(*levels[i + 1 :]) for i in range(k - 1, -1, -1))
    return n, dual_downs, dual_levels


def heights_of_chain(n: int, downsets, levels) -> tuple:
    """Top-heavy heights on K_{n,n} of a poset on {1..n-1}: u_x = n - |D_{j+1}|
    for x in L_j, u_{x+n} = |D_{j+1}(dual)| for x in L_j(dual), u_n = 0."""
    _, dual_downs, dual_levels = dual_chain(n - 1, downsets, levels)
    ground = frozenset(range(1, n))
    ext = list(downsets) + [ground]
    ext_dual = list(dual_downs) + [ground]
    heights = [0] * (2 * n - 1)
    for j in range(len(levels)):
        for x in levels[j]:
            heights[x - 1] = n - len(ext[j + 1])
        for x in dual_levels[j]:
            heights[n - 1 + x] = len(ext_dual[j + 1])
    return tuple(heights)


def sorted_cell_profiles(m: int, n: int, heights) -> tuple | None:
    """Profiles of the cell image of a configuration, or None: with a and b
    the sorted top and bottom heights and a_m = n - 1, cell (i, j) is in
    the image when j <= 1 + a_i and i <= 1 + b_j."""
    a = sorted(heights[: m - 1]) + [n - 1]
    b = sorted(heights[m - 1 :])
    cells = {
        (i, j)
        for i in range(1, m + 1)
        for j in range(1, n + 1)
        if j <= 1 + a[i - 1] and i <= 1 + b[j - 1]
    }
    return profiles_by_column_scan(m, n, cells)


def _kn_sorted_recurrent(n: int, x) -> None:
    if any(u < v for u, v in zip(x, x[1:])):
        raise NotSorted(f"{x} is not weakly decreasing")
    complement = sorted(n - 1 - v for v in x)
    if any(v > n - 2 for v in x) or any(c > i for i, c in enumerate(complement, start=1)):
        raise NotRecurrent(f"{x} is not recurrent")


def kn_diag_profiles(n: int, x) -> tuple:
    """Profiles of the diagram of a sorted recurrent state of K_n: row j
    spans columns j .. 2 + x_{n-j}."""
    _kn_sorted_recurrent(n, x)
    cells = set()
    for j in range(1, n):
        for c in range(j, 2 + x[n - j - 1] + 1):
            cells.add((c, j))
    return profiles_by_column_scan(n, n - 1, cells)


def kn_dyck_word(m: int, n: int, top, bot) -> str:
    """Dyck word of a complete-graph diagram: its lower path from (n, n-1)
    back to (1, 0), N read as S and E as W."""
    if m != n + 1 or tuple(top) != tuple(range(1, m)) + (n,):
        raise NotSorted("not the diagram of a sorted recurrent state")
    word = []
    prev = 0
    for h in bot:
        word.append("N" * (h - prev) + "E")
        prev = h
    word.append("N" * (n - prev))
    flat = "".join(word)[1:]  # drop the initial E from (0,0) to (1,0)
    return "".join("S" if ch == "N" else "W" for ch in reversed(flat))


def kn_heights_of_dyck(word: str) -> tuple:
    """The sorted recurrent state whose diagram has the Dyck word `word`:
    x_{n-j} + 2 is the rightmost column whose lower path lies below row j."""
    n = len(word) // 2 + 1
    if n < 2:
        raise ValueError("need n >= 2")
    bot = []
    y = 0
    for ch in "E" + "".join("N" if ch == "S" else "E" for ch in reversed(word)):
        if ch == "N":
            y += 1
        else:
            bot.append(y)
    x = [max(c + 1 for c in range(n) if bot[c] < j) - 2 for j in range(1, n)]
    x.reverse()
    _kn_sorted_recurrent(n, x)
    return tuple(x)


# -- constructor checks, element by element ---------------------------------


def check_bipartite_heights(m: int, n: int, heights) -> None:
    """The checks of `BipartiteConfig`."""
    heights = tuple(heights)
    if m < 1 or n < 1:
        raise ValueError("need m, n >= 1")
    if len(heights) != m + n - 1:
        raise ValueError(f"expected {m + n - 1} heights, got {len(heights)}")
    if any(h < 0 for h in heights):
        raise ValueError("heights must be non-negative")


def check_kn_heights(n: int, heights) -> None:
    """The checks of `KnConfig`."""
    heights = tuple(heights)
    if n < 2:
        raise ValueError("need n >= 2")
    if len(heights) != n - 1:
        raise ValueError(f"expected {n - 1} heights")
    if any(h < 0 for h in heights):
        raise ValueError("heights must be non-negative")


def check_decoration(poly, A, B) -> None:
    """The checks of `DecoratedPolyomino`."""
    m, n = poly.m, poly.n
    runs = poly.bounce_seq()
    if tuple(len(s) for s in A) != ebounce(runs):
        raise ValueError("A part sizes must match the west bounce runs")
    if tuple(len(s) for s in B) != obounce(runs):
        raise ValueError("B part sizes must match the south bounce runs")
    if sorted(x for s in A for x in s) != list(range(1, m)):
        raise ValueError("A must partition {1..m-1}")
    if sorted(x for s in B for x in s) != list(range(m, m + n)):
        raise ValueError("B must partition {m..m+n-1}")


def check_bicomp_words(k, rows, cols) -> None:
    """The checks of `BicompMatrix`."""
    if not (isinstance(k, int) and not isinstance(k, bool)) or k < 1:
        raise InvalidMatrix("dimension mismatch")
    if not (isinstance(rows, tuple) and isinstance(cols, tuple)) or len(rows) != len(cols):
        raise InvalidMatrix("row and column words must be tuples of equal length")
    if not all(type(a) is int and 0 <= a < k for a in rows + cols):
        raise InvalidMatrix(f"row and column indices must be ints in range({k})")
    for i in range(k):
        if i not in set(rows):
            raise InvalidMatrix(f"row {i + 1} is empty")
        if i not in set(cols):
            raise InvalidMatrix(f"column {i + 1} is empty")

