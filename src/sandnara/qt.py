"""q,t-Narayana polynomials: enumeration, transfer matrix, closed forms.

F_{m,n}(q, t) is the generating polynomial of (area, bounce weight) over all
parallelogram polyominoes in an m x n box.  Three independent routes compute
it here:

* `narayana_poly` visits every polyomino: it takes the profile pairs in
  batches from the canonical enumeration, computes area and bounce weight
  for a whole batch with numpy, and counts each batch straight into one
  dense (area, weight) block;
* `transfer_matrix_F` runs a row-by-row dynamic program whose state carries
  the current row interval together with the bounce path position and its
  running weight, giving all of F_{m,1..n_max} in one sweep;
* `rational_qt_series` expands the tabulated rational closed forms.

All three routes hold their coefficients as dense 2-D blocks with a degree
offset, the representation of `BivarPoly` itself, and hand their result to
`BivarPoly` as such a block.  Each uses int64 only under a proven
coefficient bound, stated in its docstring; the two routes that do not
enumerate fall back to object dtype (Python ints), while `narayana_poly`
refuses a box whose count exceeds int64.  The output keeps that dtype,
while `BivarPoly` arithmetic always runs in object dtype.  The transfer
sweep is guarded by an up-front estimate of the memory it and its output
hold, in 8-byte cells, checked against the object cap.

Their agreement wherever two of them are feasible is the backbone of the
verification suite.  The batch bounce weight is tested against the
per-object `ParaPolyomino.bounce_seq`.  The q<->t and m<->n symmetries are
conjectural, so the check functions return a `Check` rather than assert.
"""

from __future__ import annotations

import math
from typing import Iterator, Sequence

import numpy as np

from .bivar import Block, BivarPoly, QtSeries, _sum_blocks
from .config import Check, guard_count
from .errors import NotInDomain
from .polyomino import (
    ParaPolyomino,
    count_para,
    narayana_number,
    _profile_chunks,
    _word_to_profile,
)
from .tables import RationalForm

# -- direct enumeration --------------------------------------------------------


def _bounce_weights(top: np.ndarray, bot: np.ndarray) -> np.ndarray:
    """Bounce weight of every profile pair of a batch held column by column.

    `top` and `bot` are C-contiguous (m, k) arrays, as `_profile_chunks`
    yields them: row i holds column i of the box for all k pairs, so each
    step below is a contiguous vector operation over the batch in the
    narrow profile dtype.

    With the bounce path's turning points (x_0, y_0) = (m-1, n),
    y_{r+1} = bot[x_r] and x_{r+1} = #{i : top[i] <= y_{r+1}}, the weight
    sum ceil(i/2) c_i telescopes to sum_r (x_r + y_r).  The count is the
    west-run stop of `ParaPolyomino.bounce_seq` because top is weakly
    increasing and bot[x] < top[x-1]; it runs over top[0..m-2] only, since
    top[m-1] = n > y.  x strictly decreases until it is 0, after which every
    term is 0, so the loop runs at most m - 1 rounds.
    """
    m, k = top.shape
    x = np.full(k, m - 1, dtype=np.intp)
    w = x + top[-1]
    flat = bot.ravel()  # bot[i, j] is flat[i * k + j]
    pos = np.arange(k)
    while x.any():
        y = flat[x * k + pos]
        x = np.count_nonzero(top[:-1] <= y, axis=0)
        w += x
        w += y
    return w


def narayana_poly(m: int, n: int, max_objects: int | None = None) -> BivarPoly:
    """Sum of q^area t^bounce_weight over every polyomino in the m x n box.

    Every polyomino is visited: the profile pairs come in batches from the
    canonical enumeration, read column-major (see `_bounce_weights`), so the
    area is a sum of m contiguous column differences and every bounce round
    compares contiguous columns.  Each batch is counted straight into one
    dense int64 block indexed by (area - lo, weight - lo), lo = m + n - 1.

    Block shape: the area lies in [m + n - 1, mn], since a polyomino has at
    least the m + n - 1 cells of a ribbon and at most the mn of the box.
    The bounce weight lies in [m + n - 1, mn + (m-1)(m-2)/2]: it is the
    telescoped sum over rounds r of x_r + y_r in `_bounce_weights`, where
    round 0 gives (m - 1) + n, a later round r <= m - 1 has x_r <= m - 1 - r
    (x falls by at least one per round) and y_r <= n - 1, and there are at
    most m - 1 later rounds; the sum is at most
    (m - 1 + n) + (m - 1)(n - 1) + (m - 2)(m - 1)/2 = mn + (m-1)(m-2)/2,
    and at least the m + n - 1 of round 0, every term being >= 0.  So no
    index is negative, and one past the block makes `np.add.at` raise
    rather than wrap.

    Bound: a cell counts polyominoes, so it is at most |Para_{m,n}|; a box
    whose count exceeds int64 is refused before anything is enumerated.
    Cost: the polyominoes are charged against the object cap, and so are
    the block's cells twice over (the block and the trimmed copy
    `BivarPoly._from_block` keeps), before the block is allocated; for
    m = 2 the block has about n^2 cells against n(n+1)/2 polyominoes.
    """
    count = count_para(m, n)
    guard_count(count, max_objects, f"Para_{{{m},{n}}}")
    if count > _INT64_LIMIT:
        raise ValueError(f"box m={m}, n={n}: |Para| = {count} exceeds the int64 coefficient range")
    lo = m + n - 1
    shape = (m * n - lo + 1, m * n + (m - 1) * (m - 2) // 2 - lo + 1)
    guard_count(2 * shape[0] * shape[1], max_objects, f"F_{{{m},{n}}} block", "cells")
    block = np.zeros(shape, dtype=np.int64)
    for top, bot in _profile_chunks(m, n):
        area = (top - bot).sum(axis=0, dtype=np.int64)
        np.add.at(block, (area - lo, _bounce_weights(top, bot) - lo), 1)
    return BivarPoly._from_block(lo, lo, block)


# -- symmetry checks ------------------------------------------------------------


def _first_difference(p: BivarPoly, q: BivarPoly) -> tuple[int, int] | None:
    """The least exponent pair at which p and q differ, or None."""
    return next(iter((p - q).terms), None)


def _symmetry_check(name: str, p: BivarPoly, q: BivarPoly) -> Check:
    """The check that p equals q; the first differing term is looked up
    only when they differ."""
    if p == q:
        return Check(name, True)
    return Check(name, False, f"first offending term {_first_difference(p, q)}")


def check_qt_symmetry(m: int, n: int, max_objects: int | None = None) -> Check:
    """Compare F_{m,n}(q,t) with F_{m,n}(t,q)."""
    p = narayana_poly(m, n, max_objects)
    return _symmetry_check(f"qt-symmetry {m},{n}", p, p.swap_qt())


def check_mn_symmetry(m: int, n: int, max_objects: int | None = None) -> Check:
    """Compare F_{m,n} with F_{n,m}, both by direct enumeration."""
    p = narayana_poly(m, n, max_objects)
    q = narayana_poly(n, m, max_objects)
    return _symmetry_check(f"mn-symmetry {m},{n}", p, q)


# -- dense coefficient blocks ------------------------------------------------------
#
# The two routes that do not enumerate hold every polynomial as a `bivar.Block`
# and combine blocks with `bivar._sum_blocks`; each output block becomes a
# `BivarPoly`.  A route picks int64 only when a proven bound on every
# coefficient and every partial sum fits it, and object dtype (Python ints)
# otherwise, so nothing wraps.

_INT64_LIMIT = int(np.iinfo(np.int64).max)


def _coeff_dtype(bound: int) -> type:
    """int64 when every value is at most `bound` in absolute value, else object."""
    return np.int64 if bound <= _INT64_LIMIT else object


def _block_poly(block: Block | None) -> BivarPoly:
    return BivarPoly.zero() if block is None else BivarPoly._from_block(*block)


# -- rational closed forms -----------------------------------------------------------


def _series_blocks(
    numerator: Sequence[tuple[int, int, int, int]],
    denominator_factors: Sequence[tuple[int, int]],
    order: int,
) -> Iterator[tuple[int, Block | None]]:
    """Stream the z-coefficients 0..order of numerator / prod (1 - q^a t^b z)
    as blocks (None for a zero coefficient).

    Factor i is divided out with the prefix recurrence
    s_i[k] = s_{i-1}[k] + q^a t^b s_i[k-1], s_0[k] = numerator z^k part, so
    only the previous coefficient of each factor is held and each
    coefficient is final as soon as the last factor has been applied.

    Bound: every coefficient and partial sum is at most
    sum |numerator coefficients| * C(order + f, f) in absolute value, f the
    number of factors, since z^k of 1 / prod (1 - w_i z) is a sum of
    C(k + f - 1, f - 1) monomials.
    """
    f = len(denominator_factors)
    bound = sum(abs(c) for c, _, _, _ in numerator) * math.comb(order + f, f)
    dtype = _coeff_dtype(bound)
    by_z: dict[int, list[Block]] = {}
    for (c, qe, te, ze) in numerator:
        if ze <= order:
            by_z.setdefault(ze, []).append((qe, te, np.full((1, 1), c, dtype=dtype)))
    prev: list[Block | None] = [None] * f
    for k in range(order + 1):
        cur = _sum_blocks(by_z[k], dtype) if k in by_z else None
        for idx, (a, b) in enumerate(denominator_factors):
            p = prev[idx]
            if p is not None:
                shifted = (p[0] + a, p[1] + b, p[2])
                cur = shifted if cur is None else _sum_blocks((cur, shifted), dtype)
            prev[idx] = cur
        yield k, cur


def rational_qt_series(
    numerator: Sequence[tuple[int, int, int, int]],
    denominator_factors: Sequence[tuple[int, int]],
    order: int,
) -> QtSeries:
    """Expand numerator / prod (1 - q^a t^b z) as a series in z.

    The numerator is a list of (coeff, q_exp, t_exp, z_exp) terms.  The
    expansion streams dense blocks (see `_series_blocks`, which also states
    the bound behind the int64 fast path) and converts each z-coefficient
    as soon as it is final.
    """
    return QtSeries(
        order,
        tuple(_block_poly(b) for _, b in _series_blocks(numerator, denominator_factors, order)),
    )


def series_of_form(form: RationalForm, order: int) -> QtSeries:
    return rational_qt_series(form.numerator, form.factors, order)


def fit_numerator(
    series: Sequence[BivarPoly],
    denominator_factors: Sequence[tuple[int, int]],
    max_degree: int,
) -> tuple[tuple[int, int, int, int], ...] | None:
    """Multiply a series by the denominator and return the numerator term
    list when the product terminates by z-degree max_degree, else None.

    Used to recover/validate the rational closed forms against enumeration
    data: terms beyond max_degree must all cancel for a genuine fit.
    """
    num: list[BivarPoly] = [p for p in series]
    for (a, b) in denominator_factors:
        nxt = list(num)
        for k in range(1, len(num)):
            nxt[k] = num[k] - num[k - 1].shift(a, b)
        num = nxt
    if any(not num[k].is_zero() for k in range(max_degree + 1, len(num))):
        return None
    out = []
    for k in range(min(max_degree, len(num) - 1) + 1):
        for (qe, te), c in num[k].sorted_terms():
            out.append((c, qe, te, k))
    return tuple(out)


# -- transfer matrix ---------------------------------------------------------------

State = tuple[int, int, int, int]  # (c, r, beta, p)
Move = tuple[State, int, int]  # (target, q shift, t shift)


def _transfer_moves(state: State) -> list[Move]:
    """Every row that can follow `state` one row further down.

    The next row [cp, rp] starts weakly left of c and ends between c and r.
    The bounce path turns west at the boundary exactly when beta >= rp; the
    west run stops at x = c - 1, the left edge of the row above, and the step
    weight p grows by one.  The new row adds its length to the area and the
    (possibly increased) step weight, plus the west run's weight, to t.
    """
    c, r, beta, p = state
    out = []
    for cp in range(1, c + 1):
        for rp in range(c, r + 1):
            if beta >= rp:
                add_t, p2, b2 = (beta - (c - 1)) * p, p + 1, c - 1
            else:
                add_t, p2, b2 = 0, p, beta
            out.append(((cp, rp, b2, p2), rp - cp + 1, add_t + p2))
    return out


# Cost weight of a block cell of each dtype, in 8-byte cells: an object cell
# is a pointer plus, when nonzero, a Python int.
_CELL_WEIGHT = {np.int64: 1, object: 5}


def _transfer_box(m: int, n: int) -> int:
    """Cells of a box that holds the coefficients of any state after n rows.

    The area of n rows lies in [n, m n], and the t-degree lies in
    [n, m (m + n)], since each row adds a step weight >= 1 and every partial
    state extends to a polyomino of Para_{m,n+1}, whose bounce weight is at
    most m (m + n).
    """
    return ((m - 1) * n + 1) * (m * m + (m - 1) * n + 1)


def _transfer_plan(
    m: int, n_max: int, max_objects: int | None
) -> tuple[dict[State, list[Move]], type, int]:
    """The moves of every state live in rows 1..n_max - 1, the coefficient
    dtype, and the estimated cost, checked against the object cap.

    The estimate, in 8-byte cells weighted by dtype, is the output blocks
    (the boxes of F_{m,1..n_max}) plus the blocks of the two rows that exist
    during a row step (their states times the n_max box).
    It is checked before the coefficient bound is computed and again before
    the moves of each new row are built, so an oversized box is refused
    before any large allocation.  The live set of a row depends only on the
    live set of the row above, so the scan stops at the first row that
    repeats its predecessor.  A check that refuses before the scan ends
    knows only part of the estimate and reports its figure as a lower bound
    ("at least N cells"); the last check reports the full estimate.
    """
    if m < 1 or n_max < 1:
        raise ValueError("need m, n >= 1")
    # the sum of _transfer_box(m, n) = (a n + 1)(a n + b) over n = 1..n_max
    a, b, N = m - 1, m * m + 1, n_max
    column_cells = a * a * N * (N + 1) * (2 * N + 1) // 6 + a * (b + 1) * N * (N + 1) // 2 + b * N
    box = _transfer_box(m, n_max)
    what = f"transfer matrix F_{{{m},{n_max}}}"

    def guard(states: int, weight: int, final: bool) -> int:
        cells = weight * (column_cells + states * box)
        return guard_count(cells, max_objects, what, "cells", at_least=not final)

    guard(m, 1, False)  # a lower bound, cheap before the coefficient bound
    dtype = _coeff_dtype(narayana_number(m + n_max, m))
    weight = _CELL_WEIGHT[dtype]
    cells = guard(m, weight, n_max == 1)
    live = {(c, m, m - 1, 1) for c in range(1, m + 1)}
    moves: dict[State, list[Move]] = {}
    for row in range(1, n_max):
        for st in live - moves.keys():
            moves[st] = _transfer_moves(st)
        nxt = {tgt for st in live for tgt, _, _ in moves[st]}
        repeats = nxt == live
        # every earlier check passed, so a refusal by the last one reports
        # the maximum over all rows, the full estimate
        cells = max(cells, guard(len(live) + len(nxt), weight, repeats or row == n_max - 1))
        if repeats:
            break
        live = nxt
    return moves, dtype, cells


def transfer_matrix_F(m_fixed: int, n_max: int, max_objects: int | None = None) -> list[BivarPoly]:
    """F_{m,1..n_max} by a row dynamic program, without enumerating polyominoes.

    Rows are scanned from the top of the box downward.  A state (c, r, beta, p)
    holds the current row interval [c, r], the column line beta along which
    the bounce path descends, and the running step weight p (see
    `_transfer_moves`).  Since each west run moves at least one column,
    p <= m + 1 and the state space is finite for fixed m.

    Every state holds its coefficients as a dense block.  One row step
    collects, per target state, the shifted blocks of its sources and sums
    them with `_sum_blocks`: a target with one source shares its block at
    the new offset, any other gets a fresh block of the sources' bounding
    box.

    Bound: each partial state extends injectively into Para_{m,n+1} (append
    the row [1, c]), so every coefficient and partial sum is at most
    Narayana(m + n_max, m); int64 is used when that fits, object dtype
    otherwise.  Cost: an estimate of the memory the sweep and its output
    hold is checked against the object cap before any block is allocated
    (see `_transfer_plan`).
    """
    m = m_fixed
    moves, dtype, _ = _transfer_plan(m, n_max, max_objects)
    states: dict[State, Block] = {
        (c, m, m - 1, 1): (m - c + 1, 1, np.ones((1, 1), dtype=dtype)) for c in range(1, m + 1)
    }
    out: list[BivarPoly] = []
    for n in range(1, n_max + 1):
        # the last row starts at column 1 (every row has such a state, since
        # cp = 1 is always a move); the final west run goes to the origin
        closing = [
            (a0, w0 + beta * p, arr)
            for (c, _, beta, p), (a0, w0, arr) in states.items()
            if c == 1
        ]
        out.append(_block_poly(_sum_blocks(closing, dtype)))
        if n == n_max:
            break
        incoming: dict[State, list[Block]] = {}
        for st, (a0, w0, arr) in states.items():
            for tgt, dq, dt in moves[st]:
                incoming.setdefault(tgt, []).append((a0 + dq, w0 + dt, arr))
        states = {tgt: _sum_blocks(parts, dtype) for tgt, parts in incoming.items()}
    return out


# -- statistic-swapping bijection on extreme polyominoes ------------------------------


def min_weight_domain(poly: ParaPolyomino) -> bool:
    """True when the bounce weight is minimal (m+n-1), i.e. the bounce path
    is n souths followed by m-1 wests and the lower path hugs the corner."""
    return poly.bounce_weight == poly.m + poly.n - 1


def ribbon_swap(poly: ParaPolyomino) -> ParaPolyomino:
    """Bijection from minimal-bounce-weight polyominoes to ribbons that swaps
    area and bounce weight.

    The diagonal profile d_1..d_{m+n-1} of the input is re-read as a pile of
    backwards-L strips: x_i / y_i count diagonals longer than d_m - i on the
    left/right side of the peak, and strip i contributes a horizontal bar at
    height y_{i-1}+1 and a vertical bar in column x_i.  Walking the ribbon's
    cells from (1, 1), strip i moves x_i - x_{i-1} cells east, then
    y_i - y_{i-1} north (the last north move leaves the box and is dropped);
    the walk w has m+n-2 moves, and the ribbon's paths are N w E over E w N.
    """
    m, n = poly.m, poly.n
    if not min_weight_domain(poly):
        raise NotInDomain("bounce weight must equal m+n-1")
    d = poly.diaglen()
    dp = d[m - 1]
    left, right = d[: m - 1], d[m - 1 :]
    xs = [1 + sum(1 for v in left if v > dp - i) for i in range(dp + 1)]
    ys = [sum(1 for v in right if v > dp - i) for i in range(dp + 1)]
    walk = "".join(
        "E" * (xs[i] - xs[i - 1]) + "N" * (ys[i] - ys[i - 1]) for i in range(1, dp + 1)
    )[:-1]
    return ParaPolyomino(
        m, n, _word_to_profile("N" + walk + "E"), _word_to_profile("E" + walk + "N")
    )


def ribbon_swap_inv(poly: ParaPolyomino) -> ParaPolyomino:
    """Inverse of ribbon_swap, defined on ribbons.

    The bounce runs of the ribbon prescribe the diagonal profile of the
    preimage: west runs give the multiplicities of 1, 2, ... left of the
    peak, south runs the multiplicities right of it (peak inclusive), and the
    upper path is rebuilt from the profile steps.
    """
    m, n = poly.m, poly.n
    if not poly.is_ribbon():
        raise NotInDomain("inverse swap needs a ribbon")
    runs = poly.bounce_seq()
    left = [val for val, mult in enumerate(runs[1::2], start=1) for _ in range(mult)]
    right = [val for val, mult in enumerate(runs[0::2], start=1) for _ in range(mult)]
    d = (*left, *reversed(right))
    # the upper path from the profile steps: before the peak a strict rise
    # is an N step, after it (d continued by a 0) equality is an N step
    e = (*d, 0)
    rises = (e[k - 1] < e[k] for k in range(1, m))
    levels = (e[k - 1] == e[k] for k in range(m, m + n))
    upper = "N" + "".join("N" if step else "E" for step in (*rises, *levels))
    out = ParaPolyomino(m, n, _word_to_profile(upper), (0,) * m)
    if out.diaglen() != d:  # pragma: no cover - construction proof
        raise NotInDomain("profile reconstruction failed")
    return out


# -- two-column closed form and absolute-exponent arrays ---------------------------
#
# For the two-column box the polyomino is determined by the top of column 1
# (u in 1..n) and the bottom of column 2 (l in 0..u-1); the bounce path gives
# area = u + n - l and bounce weight = n + 1 + l.  The map (u, l) -> (area,
# weight) is injective, so F_{2,n} is the indicator of its image, built with
# one triangle write.  It is an independent closed form: the test suite
# asserts it against enumeration, and it is the reference for the streamed
# F2 series arrays.


def narayana_m2_array(n: int, size: int | None = None) -> np.ndarray:
    """Dense int64 coefficient array A[a, w] for F_{2,n}; every coefficient
    is 0 or 1."""
    if size is None:
        size = 2 * n + 3
    if size < 2 * n + 3:
        raise ValueError("array too small for the exponent range")
    hist = np.zeros((size, size), dtype=np.int64)
    # weight n + 1 + l (l = 0..n-1) takes every area n + 1 .. 2n - l, so the
    # image is the anti-triangle i + j <= n - 1 of the block at (n+1, n+1)
    hist[n + 1 : 2 * n + 1, n + 1 : 2 * n + 1] = np.tri(n, n, dtype=np.int64)[::-1]
    return hist


def poly_to_array(poly: BivarPoly, size: int) -> np.ndarray:
    """Square int64 array A[a, w] of side `size` holding the coefficient of
    q^a t^w; ValueError when an exponent does not fit."""
    if not poly.is_zero() and max(poly.max_degrees()) >= size:
        raise ValueError("array too small for the exponent range")
    out = np.zeros((size, size), dtype=np.int64)
    a0, w0, arr = poly._block
    out[a0 : a0 + arr.shape[0], w0 : w0 + arr.shape[1]] = arr
    return out


def rational_series_arrays(
    form: RationalForm, n_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the z-coefficients 1..n_max of a rational form as square
    arrays A[a, w] indexed by absolute exponent.

    The expansion is `_series_blocks`, the kernel of `rational_qt_series`,
    so it holds one block per factor and memory stays quadratic in the
    exponent range of a single coefficient.  Each block is copied into a
    square array of side num_deg + fac_deg * k + 2, which holds every
    exponent of z^k.  The dtype is int64 when the kernel's bound proves it
    exact and object otherwise.  A negative exponent raises ValueError, as
    in `rational_qt_series`.
    """
    num_deg = max(max(qe, te) for (_, qe, te, _) in form.numerator)
    fac_deg = max(max(a, b) for (a, b) in form.factors)
    for k, block in _series_blocks(form.numerator, form.factors, n_max):
        if k == 0:
            continue
        size = num_deg + fac_deg * k + 2
        if block is None:
            yield k, np.zeros((size, size), dtype=np.int64)
            continue
        a0, w0, arr = block
        if a0 < 0 or w0 < 0:
            raise ValueError("exponents must be non-negative")
        out = np.zeros((size, size), dtype=arr.dtype)
        out[a0 : a0 + arr.shape[0], w0 : w0 + arr.shape[1]] = arr
        yield k, out
