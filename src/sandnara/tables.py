"""Reference data for q,t-Narayana polynomials.

Two kinds of fixtures live here:

* dense matrices for small F_{m,n}, written as a (shift, rows) pair meaning
  sum of rows[i][j] * q^(shift+i) * t^(shift+j);
* rational closed forms for the column generating functions
  F_{m,*}(q, t; z) = sum_n F_{m,n} z^n with m <= 6, stored as a numerator
  term list plus denominator factors (1 - q^a t^b z).

Every entry is validated against direct polyomino enumeration by the test
suite; none of the code paths below derives anything from them except on
request.  The F3 numerator is the unique one that terminates against the
same denominator family as F4..F6 (recoverable with qt.fit_numerator).
"""

from __future__ import annotations

from dataclasses import dataclass

from .bivar import BivarPoly

# (coefficient, q-exponent, t-exponent, z-exponent)
NumTerm = tuple[int, int, int, int]
Factor = tuple[int, int]


@dataclass(frozen=True)
class RationalForm:
    """Numerator / product of (1 - q^a t^b z) factors."""

    name: str
    numerator: tuple[NumTerm, ...]
    factors: tuple[Factor, ...]


def _sym_factors(pairs: list[Factor]) -> tuple[Factor, ...]:
    out: list[Factor] = [(1, 1), (2, 2)]
    for (a, b) in pairs:
        out.append((a, b))
        out.append((b, a))
    return tuple(out)


RATIONAL_FORMS: dict[str, RationalForm] = {
    "F2": RationalForm(
        "F2",
        numerator=((1, 2, 2, 1),),
        factors=((1, 1), (2, 1), (1, 2)),
    ),
    "F3": RationalForm(
        "F3",
        numerator=((1, 3, 3, 1), (-1, 7, 7, 3)),
        factors=_sym_factors([(1, 2), (1, 3)]),
    ),
    "F4": RationalForm(
        "F4",
        numerator=(
            (1, 4, 4, 1),
            (1, 7, 6, 2),
            (1, 6, 7, 2),
            (-1, 9, 8, 3),
            (-1, 8, 9, 3),
            (-1, 11, 11, 4),
        ),
        factors=_sym_factors([(1, 2), (1, 3), (1, 4)]),
    ),
    "F5": RationalForm(
        "F5",
        numerator=(
            (1, 5, 5, 1),
            (1, 7, 8, 2),
            (1, 8, 7, 2),
            (1, 7, 9, 2),
            (1, 9, 7, 2),
            (1, 8, 8, 2),
            (-1, 12, 14, 4),
            (-1, 14, 12, 4),
            (-1, 13, 13, 4),
            (-1, 13, 14, 4),
            (-1, 14, 13, 4),
            (-1, 16, 16, 5),
        ),
        factors=_sym_factors([(1, 2), (1, 3), (1, 4), (1, 5)]),
    ),
    "F6": RationalForm(
        "F6",
        numerator=tuple(
            (c, q + 6, t + 6, z + 1)
            for (c, q, t, z) in (
                (1, 0, 0, 0),
                (1, 3, 3, 1), (1, 2, 4, 1), (1, 4, 2, 1), (1, 2, 5, 1),
                (1, 3, 4, 1), (1, 4, 3, 1), (1, 5, 2, 1),
                (-1, 6, 6, 2), (-1, 7, 4, 2), (-2, 10, 9, 3), (-1, 11, 9, 3),
                (1, 14, 11, 4), (1, 13, 12, 4), (1, 17, 14, 5),
                (-1, 10, 10, 3), (-1, 11, 8, 3), (1, 15, 10, 4),
                (1, 16, 14, 5), (-1, 18, 18, 6), (1, 10, 15, 4),
                (-2, 9, 10, 3), (1, 11, 14, 4), (1, 12, 13, 4),
                (-1, 17, 19, 6), (1, 14, 17, 5), (-1, 8, 11, 3),
                (-1, 9, 11, 3), (1, 15, 16, 5), (1, 16, 15, 5),
                (-1, 19, 17, 6), (-1, 13, 13, 4), (-1, 21, 21, 7),
                (-1, 7, 10, 3), (-1, 5, 6, 2), (-1, 5, 7, 2),
                (2, 11, 12, 4), (-1, 9, 8, 3), (-1, 7, 11, 3),
                (1, 10, 12, 4), (1, 8, 8, 3), (-1, 11, 7, 3),
                (2, 12, 11, 4), (-1, 10, 8, 3), (3, 12, 12, 4),
                (1, 12, 10, 4), (-1, 8, 10, 3), (1, 11, 11, 4),
                (1, 14, 16, 5), (-1, 17, 18, 6), (1, 10, 14, 4),
                (-1, 18, 17, 6), (-1, 4, 7, 2), (-1, 8, 9, 3),
                (1, 10, 13, 4), (1, 13, 10, 4), (-1, 6, 11, 3),
                (1, 11, 13, 4), (-3, 9, 9, 3), (1, 13, 11, 4),
                (-1, 19, 16, 6), (1, 15, 15, 5), (1, 14, 10, 4),
                (-1, 6, 5, 2), (-1, 10, 7, 3), (-1, 11, 6, 3),
                (-1, 7, 5, 2), (-1, 16, 19, 6),
            )
        ),
        factors=_sym_factors(
            [(1, 2), (1, 3), (1, 4), (1, 5), (1, 6), (2, 3)]
        ),
    ),
}


# Dense matrices for small pairs; key (m, n) -> (shift k, rows).  All shifts
# equal m+n-1, the minimal area and minimal bounce weight.
MATRIX_FORMS: dict[tuple[int, int], tuple[int, list[list[int]]]] = {
    (2, 2): (3, [[1, 1],
                 [1, 0]]),
    (2, 3): (4, [[1, 1, 1],
                 [1, 1, 0],
                 [1, 0, 0]]),
    (2, 4): (5, [[1, 1, 1, 1],
                 [1, 1, 1, 0],
                 [1, 1, 0, 0],
                 [1, 0, 0, 0]]),
    (2, 5): (6, [[1, 1, 1, 1, 1],
                 [1, 1, 1, 1, 0],
                 [1, 1, 1, 0, 0],
                 [1, 1, 0, 0, 0],
                 [1, 0, 0, 0, 0]]),
    (2, 6): (7, [[1, 1, 1, 1, 1, 1],
                 [1, 1, 1, 1, 1, 0],
                 [1, 1, 1, 1, 0, 0],
                 [1, 1, 1, 0, 0, 0],
                 [1, 1, 0, 0, 0, 0],
                 [1, 0, 0, 0, 0, 0]]),
    (3, 3): (5, [[1, 1, 2, 1, 1],
                 [1, 2, 2, 1, 0],
                 [2, 2, 1, 0, 0],
                 [1, 1, 0, 0, 0],
                 [1, 0, 0, 0, 0]]),
    (3, 4): (6, [[1, 1, 2, 2, 2, 1, 1],
                 [1, 2, 3, 3, 2, 1, 0],
                 [2, 3, 4, 2, 1, 0, 0],
                 [2, 3, 2, 1, 0, 0, 0],
                 [2, 2, 1, 0, 0, 0, 0],
                 [1, 1, 0, 0, 0, 0, 0],
                 [1, 0, 0, 0, 0, 0, 0]]),
    (3, 5): (7, [[1, 1, 2, 2, 3, 2, 2, 1, 1],
                 [1, 2, 3, 4, 4, 3, 2, 1, 0],
                 [2, 3, 5, 5, 4, 2, 1, 0, 0],
                 [2, 4, 5, 4, 2, 1, 0, 0, 0],
                 [3, 4, 4, 2, 1, 0, 0, 0, 0],
                 [2, 3, 2, 1, 0, 0, 0, 0, 0],
                 [2, 2, 1, 0, 0, 0, 0, 0, 0],
                 [1, 1, 0, 0, 0, 0, 0, 0, 0],
                 [1, 0, 0, 0, 0, 0, 0, 0, 0]]),
    (4, 4): (7, [[1, 1, 2, 3, 3, 3, 3, 2, 1, 1],
                 [1, 2, 4, 5, 6, 5, 4, 2, 1, 0],
                 [2, 4, 7, 8, 7, 5, 2, 1, 0, 0],
                 [3, 5, 8, 7, 5, 2, 1, 0, 0, 0],
                 [3, 6, 7, 5, 2, 1, 0, 0, 0, 0],
                 [3, 5, 5, 2, 1, 0, 0, 0, 0, 0],
                 [3, 4, 2, 1, 0, 0, 0, 0, 0, 0],
                 [2, 2, 1, 0, 0, 0, 0, 0, 0, 0],
                 [1, 1, 0, 0, 0, 0, 0, 0, 0, 0],
                 [1, 0, 0, 0, 0, 0, 0, 0, 0, 0]]),
}


def matrix_poly(m: int, n: int) -> BivarPoly:
    """The tabulated F_{m,n} as a polynomial."""
    shift, rows = MATRIX_FORMS[(m, n)]
    return BivarPoly.from_matrix_json({"shift": [shift, shift], "matrix": rows})
