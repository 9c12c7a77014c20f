"""q,t-Narayana polynomials: enumeration, transfer matrix, closed forms.

F_{m,n}(q, t) is the generating polynomial of (area, bounce weight) over all
parallelogram polyominoes in an m x n box.  Three independent routes compute
it here:

* `narayana_poly` visits every polyomino: it takes the profile pairs in
  batches from the canonical enumeration, computes area and bounce weight
  for a whole batch with numpy, and histograms packed (area, weight) keys;
* `transfer_matrix_F` runs a row-by-row dynamic program whose state carries
  the current row interval together with the bounce path position and its
  running weight, giving all of F_{m,1..n_max} in one sweep;
* `rational_qt_series` expands the tabulated rational closed forms.

Their agreement wherever two of them are feasible is the backbone of the
verification suite.  The batch bounce weight is tested against the
per-object `ParaPolyomino.bounce_seq`.  The q<->t and m<->n symmetries are
conjectural, so the check functions return a `Check` rather than assert.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

from .bivar import BivarPoly, QtSeries
from .config import Check, guard_count
from .errors import NotInDomain
from .polyomino import ParaPolyomino, count_para, narayana_number, _profile_chunks
from .tables import RationalForm

# -- direct enumeration --------------------------------------------------------


def _bounce_weights(top: np.ndarray, bot: np.ndarray) -> np.ndarray:
    """Bounce weight of every row of a batch of profile pairs.

    With the bounce path's turning points (x_0, y_0) = (m-1, n),
    y_{r+1} = bot[x_r] and x_{r+1} = #{i : top[i] <= y_{r+1}}, the weight
    sum ceil(i/2) c_i telescopes to sum_r (x_r + y_r).  The count is the
    west-run stop of `ParaPolyomino.bounce_seq` because top is weakly
    increasing and bot[x] < top[x-1]; x strictly decreases until it is 0,
    after which every term is 0, so the loop runs at most m - 1 rounds.
    """
    k, m = top.shape
    rows = np.arange(k)
    x = np.full(k, m - 1, dtype=np.int64)
    w = x + top[:, -1]
    while x.any():
        y = bot[rows, x]
        x = np.count_nonzero(top <= y[:, None], axis=1)
        w += x
        w += y
    return w


def narayana_poly(m: int, n: int, max_objects: int | None = None) -> BivarPoly:
    """Sum of q^area t^bounce_weight over every polyomino in the m x n box.

    Every polyomino is visited: the profile pairs come in batches from the
    canonical enumeration, and each batch is reduced to a histogram of the
    packed key area * W + weight, where W = (m+1)(m+n) exceeds every bounce
    weight (at most m terms x_r + y_r < m+n) and area <= mn.  The key is
    exact in int64 for every box the bound check below admits.
    """
    guard_count(count_para(m, n), max_objects, f"Para_{{{m},{n}}}")
    W = (m + 1) * (m + n)
    if (m * n + 1) * W > np.iinfo(np.int64).max:
        raise ValueError(f"box m={m}, n={n} is too large for int64 histogram keys")
    acc: dict[tuple[int, int], int] = {}
    for top, bot in _profile_chunks(m, n):
        area = top.sum(axis=1, dtype=np.int64) - bot.sum(axis=1, dtype=np.int64)
        keys, counts = np.unique(area * W + _bounce_weights(top, bot), return_counts=True)
        for key, cnt in zip(keys.tolist(), counts.tolist()):
            a_w = divmod(key, W)
            acc[a_w] = acc.get(a_w, 0) + cnt
    return BivarPoly(acc)


# -- symmetry checks ------------------------------------------------------------


def _first_difference(p: BivarPoly, q: BivarPoly) -> tuple[int, int] | None:
    keys = sorted(set(p.terms) | set(q.terms))
    for k in keys:
        if p.coeff(*k) != q.coeff(*k):
            return k
    return None


def _symmetry_check(name: str, p: BivarPoly, q: BivarPoly) -> Check:
    bad = _first_difference(p, q)
    detail = "" if bad is None else f"first offending term {bad}"
    return Check(name, bad is None, detail)


def check_qt_symmetry(m: int, n: int, max_objects: int | None = None) -> Check:
    """Compare F_{m,n}(q,t) with F_{m,n}(t,q)."""
    p = narayana_poly(m, n, max_objects)
    return _symmetry_check(f"qt-symmetry {m},{n}", p, p.swap_qt())


def check_mn_symmetry(m: int, n: int, max_objects: int | None = None) -> Check:
    """Compare F_{m,n} with F_{n,m}, both by direct enumeration."""
    p = narayana_poly(m, n, max_objects)
    q = narayana_poly(n, m, max_objects)
    return _symmetry_check(f"mn-symmetry {m},{n}", p, q)


# -- rational closed forms -----------------------------------------------------------


def rational_qt_series(
    numerator: Sequence[tuple[int, int, int, int]],
    denominator_factors: Sequence[tuple[int, int]],
    order: int,
) -> QtSeries:
    """Expand numerator / prod (1 - q^a t^b z) as a series in z.

    The numerator is a list of (coeff, q_exp, t_exp, z_exp) terms.  Each
    factor is divided out with the prefix recurrence s_k = c_k + w * s_{k-1},
    which is exact term-by-term.
    """
    coeffs: list[BivarPoly] = [BivarPoly.zero() for _ in range(order + 1)]
    for (c, qe, te, ze) in numerator:
        if ze <= order:
            coeffs[ze] = coeffs[ze] + BivarPoly.monomial(qe, te, c)
    for (a, b) in denominator_factors:
        for k in range(1, order + 1):
            coeffs[k] = coeffs[k] + coeffs[k - 1].shift(a, b)
    return QtSeries(order, tuple(coeffs))


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


def transfer_matrix_F(m_fixed: int, n_max: int, max_objects: int | None = None) -> list[BivarPoly]:
    """F_{m,1..n_max} by a row dynamic program, without enumerating polyominoes.

    Rows are scanned from the top of the box downward.  A state holds the
    current row interval [c, r], the column line beta along which the bounce
    path descends, and the running step weight p.  The bounce path turns west
    at the boundary between two rows exactly when beta >= (right end of the
    lower row); the west run then stops at x = c - 1, the left edge of the
    row above, and the weight increases by one.  Since each west run moves at
    least one column, p <= m + 1 and the state space is finite for fixed m.

    The largest coefficient is bounded by Narayana(m+n_max-1, m_fixed), so
    the usual enumeration cap applies even though nothing is enumerated.
    """
    if m_fixed < 1 or n_max < 1:
        raise ValueError("need m, n >= 1")
    guard_count(
        narayana_number(m_fixed + n_max - 1, m_fixed),
        max_objects,
        f"transfer matrix F_{{{m_fixed},{n_max}}}",
    )
    m = m_fixed
    State = tuple[int, int, int, int]  # (c, r, beta, p)
    states: dict[State, dict[tuple[int, int], int]] = {}
    for c in range(1, m + 1):
        key = (c, m, m - 1, 1)
        states.setdefault(key, {})[(m - c + 1, 1)] = 1

    out: list[BivarPoly] = []

    def close(st: dict[State, dict[tuple[int, int], int]]) -> BivarPoly:
        acc: dict[tuple[int, int], int] = {}
        for (c, r, beta, p), val in st.items():
            if c != 1:
                continue
            add_t = beta * p  # final west run to the origin
            for (a, w), cnt in val.items():
                key = (a, w + add_t)
                acc[key] = acc.get(key, 0) + cnt
        return BivarPoly(acc)

    for n in range(1, n_max + 1):
        out.append(close(states))
        if n == n_max:
            break
        new: dict[State, dict[tuple[int, int], int]] = {}
        for (c, r, beta, p), val in states.items():
            for cp in range(1, c + 1):
                for rp in range(max(cp, c), r + 1):
                    if beta >= rp:  # bounce hits the lower path between the rows
                        add_t = (beta - (c - 1)) * p
                        p2, b2 = p + 1, c - 1
                    else:
                        add_t, p2, b2 = 0, p, beta
                    add_q = rp - cp + 1
                    tgt = new.setdefault((cp, rp, b2, p2), {})
                    for (a, w), cnt in val.items():
                        key = (a + add_q, w + add_t + p2)
                        tgt[key] = tgt.get(key, 0) + cnt
        states = new
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
    height y_{i-1}+1 and a vertical bar in column x_i.
    """
    m, n = poly.m, poly.n
    if not min_weight_domain(poly):
        raise NotInDomain("bounce weight must equal m+n-1")
    d = poly.diaglen()
    dp = d[m - 1]
    left, right = d[: m - 1], d[m - 1 :]
    xs = [1 + sum(1 for v in left if v > dp - i) for i in range(dp + 1)]
    ys = [sum(1 for v in right if v > dp - i) for i in range(dp + 1)]
    cells = set()
    for i in range(1, dp + 1):
        for col in range(xs[i - 1], xs[i]):
            cells.add((col, ys[i - 1] + 1))
        for row in range(ys[i - 1] + 1, ys[i] + 1):
            cells.add((xs[i], row))
    from .polyomino import CellSet

    out = CellSet(m, n, frozenset(cells)).as_para()
    if out is None or not out.is_ribbon():  # pragma: no cover - construction proof
        raise NotInDomain("swap image failed to be a ribbon")
    return out


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
    souths = runs[0::2]
    wests = runs[1::2]
    left: list[int] = []
    for val, mult in enumerate(wests, start=1):
        left.extend([val] * mult)
    right: list[int] = []
    for val, mult in enumerate(souths, start=1):
        right.extend([val] * mult)
    right.reverse()
    d = tuple(left) + tuple(right)
    # profile reconstruction: before the peak a strict rise is an N step,
    # after it equality is an N step
    word = ["N"]
    for i in range(2, m + 1):
        word.append("N" if d[i - 2] < d[i - 1] else "E")
    for i in range(m + 1, m + n + 1):
        nxt = d[i - 1] if i - 1 < len(d) else 0
        word.append("N" if d[i - 2] == nxt else "E")
    y = 0
    top = []
    for ch in word:
        if ch == "N":
            y += 1
        else:
            top.append(y)
    out = ParaPolyomino(m, n, tuple(top), (0,) * m)
    if out.diaglen() != d:  # pragma: no cover - construction proof
        raise NotInDomain("profile reconstruction failed")
    return out


# -- vectorized fast paths (m = 2) -----------------------------------------------------
#
# For the two-column box the polyomino is determined by the top of column 1
# (u in 1..n) and the bottom of column 2 (l in 0..u-1); the bounce path gives
# area = u + n - l and bounce weight = n + 1 + l.  These closed forms are
# asserted against the generic route for every n <= 60 by the test suite, so
# the array path below is an accelerated twin, not an independent formula.


def narayana_m2_array(n: int, size: int | None = None) -> np.ndarray:
    """Dense int64 coefficient array A[a, w] for F_{2,n}; exact because every
    coefficient is a polyomino count bounded well below 2**63."""
    if size is None:
        size = 2 * n + 3
    if size < 2 * n + 3:
        raise ValueError("array too small for the exponent range")
    hist = np.zeros((size, size), dtype=np.int64)
    for u in range(1, n + 1):
        l = np.arange(u, dtype=np.int64)
        np.add.at(hist, (u + n - l, n + 1 + l), 1)
    return hist


def poly_to_array(poly: BivarPoly, size: int) -> np.ndarray:
    out = np.zeros((size, size), dtype=np.int64)
    for (a, b), c in poly.terms.items():
        out[a, b] = c
    return out


def rational_series_arrays(
    form: RationalForm, n_max: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the z-coefficients of a rational form as dense int64 arrays.

    Works factor by factor with the same prefix recurrence as
    rational_qt_series, holding one previous array per factor, so memory
    stays quadratic in the exponent range of a single coefficient rather
    than in the whole series.
    """
    num_deg = max(max(qe, te) for (_, qe, te, _) in form.numerator)
    fac_deg = max(max(a, b) for (a, b) in form.factors)
    last = len(form.factors) - 1
    prev: list[np.ndarray | None] = [None] * len(form.factors)
    for k in range(1, n_max + 1):
        size = num_deg + fac_deg * k + 2
        cur = np.zeros((size, size), dtype=np.int64)
        for (c, qe, te, ze) in form.numerator:
            if ze == k:
                cur[qe, te] += c
        for idx, (a, b) in enumerate(form.factors):
            p = prev[idx]
            if p is not None:
                cur[a : a + p.shape[0], b : b + p.shape[1]] += p
            prev[idx] = cur if idx == last else cur.copy()
        yield k, cur
