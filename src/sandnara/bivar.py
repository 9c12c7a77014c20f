"""Exact bivariate polynomials in q and t.

Coefficients are exact integers, so precision is unbounded.  A value is held
in one of two ways:

* a dict of terms mapping (q-degree, t-degree) to a non-zero Python int,
  as the public constructor and all arithmetic build it;
* a dense block (a0, w0, arr), arr[i, j] being the coefficient of
  q^(a0+i) t^(w0+j), as the routes of `qt` hand it over.  The block is
  trimmed to the bounding box of its non-zero cells, so equal values have
  equal blocks; it is a read-only copy owned by the value.  Its dict of
  terms is built on first use, in the row-major order of the block.

Equality of two block-backed values, q<->t symmetry, length and
`qt.poly_to_array` read the block; everything else reads the dict, so both
backings behave alike.  Serialization orders terms by q-degree then
t-degree, and the matrix form factors out the minimal degrees as a
(qt)^k-style shift so small polynomials print the way the reference tables
are written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

import numpy as np

Term = tuple[int, int]


class BivarPoly:
    """Immutable polynomial in q, t with integer coefficients."""

    # _dict: the terms, or None until a block-backed value first needs them;
    # _block: (a0, w0, arr) for a block-backed value, else None
    __slots__ = ("_dict", "_block")

    def __init__(self, terms: Mapping[Term, int] | Iterable[tuple[Term, int]] = ()):
        if isinstance(terms, Mapping):
            items = terms.items()
        else:
            items = terms
        clean: dict[Term, int] = {}
        for (dq, dt), c in items:
            if dq < 0 or dt < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                key = (dq, dt)
                clean[key] = clean.get(key, 0) + c
                if not clean[key]:
                    del clean[key]
        object.__setattr__(self, "_dict", clean)
        object.__setattr__(self, "_block", None)

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BivarPoly is immutable")

    # -- constructors ----------------------------------------------------

    @classmethod
    def zero(cls) -> "BivarPoly":
        return cls()

    @classmethod
    def monomial(cls, dq: int, dt: int, coeff: int = 1) -> "BivarPoly":
        return cls({(dq, dt): coeff})

    @classmethod
    def _from_block(cls, a0: int, w0: int, arr: np.ndarray) -> "BivarPoly":
        """The polynomial sum arr[i, j] q^(a0+i) t^(w0+j) of a 2-D integer
        array (int64 or object dtype holding Python ints).

        The block is trimmed to the bounding box of its non-zero cells and
        copied, read-only, so later writes to `arr` do not reach the value.
        A zero block is stored as an empty block at offset (0, 0).
        """
        rows = np.flatnonzero(arr.any(axis=1))
        cols = np.flatnonzero(arr.any(axis=0))
        if rows.size:
            a0, w0 = a0 + int(rows[0]), w0 + int(cols[0])
            if a0 < 0 or w0 < 0:
                raise ValueError("exponents must be non-negative")
            arr = arr[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1].copy()
        else:
            a0, w0, arr = 0, 0, np.zeros((0, 0), dtype=arr.dtype)
        arr.flags.writeable = False
        self = object.__new__(cls)
        object.__setattr__(self, "_dict", None)
        object.__setattr__(self, "_block", (a0, w0, arr))
        return self

    @property
    def _terms(self) -> dict[Term, int]:
        terms = self._dict
        if terms is None:
            a0, w0, arr = self._block
            i, j = np.nonzero(arr)
            terms = dict(zip(zip((i + a0).tolist(), (j + w0).tolist()), arr[i, j].tolist()))
            object.__setattr__(self, "_dict", terms)
        return terms

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> dict[Term, int]:
        return dict(self._terms)

    def coeff(self, dq: int, dt: int) -> int:
        return self._terms.get((dq, dt), 0)

    def is_zero(self) -> bool:
        return not len(self)

    def __len__(self) -> int:
        if self._block is not None:
            return int(np.count_nonzero(self._block[2]))
        return len(self._terms)

    def min_degrees(self) -> Term:
        if self.is_zero():
            return (0, 0)
        if self._block is not None:
            return self._block[:2]
        return (
            min(k[0] for k in self._terms),
            min(k[1] for k in self._terms),
        )

    def max_degrees(self) -> Term:
        if self.is_zero():
            return (0, 0)
        if self._block is not None:
            a0, w0, arr = self._block
            return (a0 + arr.shape[0] - 1, w0 + arr.shape[1] - 1)
        return (
            max(k[0] for k in self._terms),
            max(k[1] for k in self._terms),
        )

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        out = dict(self._terms)
        for k, c in other._terms.items():
            out[k] = out.get(k, 0) + c
            if not out[k]:
                del out[k]
        return BivarPoly(out)

    def __neg__(self) -> "BivarPoly":
        return BivarPoly({k: -c for k, c in self._terms.items()})

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            return BivarPoly({k: c * other for k, c in self._terms.items()})
        out: dict[Term, int] = {}
        for (a1, b1), c1 in self._terms.items():
            for (a2, b2), c2 in other._terms.items():
                k = (a1 + a2, b1 + b2)
                out[k] = out.get(k, 0) + c1 * c2
        return BivarPoly(out)

    __rmul__ = __mul__

    def shift(self, dq: int, dt: int, coeff: int = 1) -> "BivarPoly":
        """Multiply by coeff * q^dq * t^dt."""
        return BivarPoly(
            {(a + dq, b + dt): c * coeff for (a, b), c in self._terms.items()}
        )

    def eval_at(self, q0: int, t0: int) -> int:
        return sum(c * q0**a * t0**b for (a, b), c in self._terms.items())

    def swap_qt(self) -> "BivarPoly":
        """Transpose exponent pairs: q^a t^b -> q^b t^a."""
        if self._block is not None:
            a0, w0, arr = self._block
            return BivarPoly._from_block(w0, a0, arr.T)
        return BivarPoly({(b, a): c for (a, b), c in self._terms.items()})

    def substitute_powers(self, q_pow: int = 1, t_pow: int = 1) -> "BivarPoly":
        """Map q -> q^q_pow, t -> t^t_pow (exponent scaling)."""
        if q_pow < 1 or t_pow < 1:
            raise ValueError("powers must be >= 1")
        return BivarPoly(
            {(a * q_pow, b * t_pow): c for (a, b), c in self._terms.items()}
        )

    def is_qt_symmetric(self) -> bool:
        if self._block is not None:
            a0, w0, arr = self._block
            return a0 == w0 and np.array_equal(arr, arr.T)
        return all(self._terms.get((b, a)) == c for (a, b), c in self._terms.items())

    # -- serialization ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return sorted(self._terms.items())

    def to_sparse_json(self) -> dict:
        return {
            "terms": [
                {"q": a, "t": b, "c": str(c)} for (a, b), c in self.sorted_terms()
            ]
        }

    @classmethod
    def from_sparse_json(cls, data: dict) -> "BivarPoly":
        return cls({(t["q"], t["t"]): int(t["c"]) for t in data["terms"]})

    def to_matrix_json(self) -> dict:
        """Dense form {"shift": [kq, kt], "matrix": rows} with
        matrix[i][j] = coeff(kq + i, kt + j)."""
        if self.is_zero():
            return {"shift": [0, 0], "matrix": [[0]]}
        kq, kt = self.min_degrees()
        mq, mt = self.max_degrees()
        rows = [
            [self.coeff(kq + i, kt + j) for j in range(mt - kt + 1)]
            for i in range(mq - kq + 1)
        ]
        return {"shift": [kq, kt], "matrix": rows}

    @classmethod
    def from_matrix_json(cls, data: dict) -> "BivarPoly":
        kq, kt = data["shift"]
        return cls(
            {
                (kq + i, kt + j): c
                for i, row in enumerate(data["matrix"])
                for j, c in enumerate(row)
                if c
            }
        )

    # -- dunder plumbing ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, BivarPoly):
            return False
        if self._block is not None and other._block is not None:
            # trimmed blocks: equal values have equal offsets and cells
            (a0, w0, a), (b0, v0, b) = self._block, other._block
            return a0 == b0 and w0 == v0 and np.array_equal(a, b)
        return self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __repr__(self) -> str:
        if self.is_zero():
            return "BivarPoly(0)"
        bits = []
        for (a, b), c in self.sorted_terms():
            mono = "".join(
                (
                    f"q^{a}" if a > 1 else ("q" if a == 1 else ""),
                    f"t^{b}" if b > 1 else ("t" if b == 1 else ""),
                )
            )
            if not mono:
                bits.append(str(c))
            elif c == 1:
                bits.append(mono)
            elif c == -1:
                bits.append(f"-{mono}")
            else:
                bits.append(f"{c}*{mono}")
        return "BivarPoly(" + " + ".join(bits).replace("+ -", "- ") + ")"


@dataclass(frozen=True)
class QtSeries:
    """Truncated power series in z whose coefficients are BivarPoly values."""

    order: int
    coeffs: tuple[BivarPoly, ...] = field(default=())

    def __post_init__(self):
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need exactly order+1 coefficients")

    def __getitem__(self, k: int) -> BivarPoly:
        return self.coeffs[k]
