"""Exact bivariate polynomials in q and t.

Coefficients are exact integers, so precision is unbounded.  A value is held
as one dense block (a0, w0, arr), arr[i, j] being the coefficient of
q^(a0+i) t^(w0+j).  The block is trimmed to the bounding box of its non-zero
cells, and the zero polynomial is the empty block at (0, 0), so equal values
have equal offsets and equal cells.  It is a read-only array owned by the
value.  The routes of `qt` hand their blocks over as they are; the public
constructor lays its terms into a block, whose cells it first charges
against the object cap (see `config.guard_count`).

Arithmetic (+, -, *, integer scaling) runs on object-dtype blocks, whose
cells are Python ints, so it never wraps.  A route output keeps the dtype
its proven coefficient bound chose (int64 or object); the two compare and
hash alike.  `terms` is a read-only mapping view over the block (see
`Terms`): no term dict is built unless a caller asks for one, and keys,
items and values come in row-major order, which is sorted order.  The
matrix form factors out the minimal degrees as a (qt)^k-style shift so
small polynomials print the way the reference tables are written.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass, field

import numpy as np

from .config import guard_count

Term = tuple[int, int]

# (a0, w0, arr): arr[i, j] is the coefficient of q^(a0+i) t^(w0+j)
Block = tuple[int, int, np.ndarray]


def _sum_blocks(parts: Sequence[Block], dtype: type) -> Block:
    """Sum of shifted blocks: one loop over the parts for the bounding box,
    then one slice-add per part.

    A sole part of the requested dtype is returned as it is, so the result
    shares its array; a sole part of another dtype is converted.  Sharing is
    safe because no caller writes into a block after handing it over: the
    transfer states and closings, the series `prev`/`cur` blocks and the
    arithmetic operands are only ever read, and `BivarPoly._from_block`
    copies what it keeps.
    """
    if len(parts) == 1:
        a0, w0, arr = parts[0]
        return a0, w0, arr if arr.dtype == dtype else arr.astype(dtype)
    a0, w0, first = parts[0]
    a1, w1 = a0 + first.shape[0], w0 + first.shape[1]
    for a, w, arr in parts:
        rows, cols = arr.shape
        if a < a0:
            a0 = a
        if w < w0:
            w0 = w
        if a + rows > a1:
            a1 = a + rows
        if w + cols > w1:
            w1 = w + cols
    out = np.zeros((a1 - a0, w1 - w0), dtype=dtype)
    for a, w, arr in parts:
        out[a - a0 : a - a0 + arr.shape[0], w - w0 : w - w0 + arr.shape[1]] += arr
    return a0, w0, out


def _trim(a0: int, w0: int, arr: np.ndarray) -> Block:
    """A read-only copy of the block trimmed to the bounding box of its
    non-zero cells; a zero block becomes the empty block at (0, 0)."""
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
    return a0, w0, arr


class Terms(Mapping[Term, int]):
    """Read-only mapping view {(dq, dt): coefficient} of the non-zero cells of
    a block.

    Keys, items and iteration come from one `np.nonzero` of the block, in
    row-major (sorted) order; `values()` is one masked `tolist()` in the same
    order, and `len` counts the non-zero cells.  A lookup reads one cell; a
    zero cell or one outside the block is a missing key.  Every coefficient
    comes out as a Python int.  Equality with any mapping is the `Mapping`
    one; `dict(view)` builds a dict.
    """

    __slots__ = ("_block",)

    def __init__(self, block: Block):
        self._block = block

    def _nonzero(self) -> tuple[np.ndarray, np.ndarray]:
        return np.nonzero(self._block[2])

    def _pairs(self, i: np.ndarray, j: np.ndarray) -> Iterator[Term]:
        a0, w0, _ = self._block
        return zip((i + a0).tolist(), (j + w0).tolist())

    def __iter__(self) -> Iterator[Term]:
        return self._pairs(*self._nonzero())

    def __len__(self) -> int:
        return int(np.count_nonzero(self._block[2]))

    def __getitem__(self, key: Term) -> int:
        a0, w0, arr = self._block
        try:
            dq, dt = key
            i, j = dq - a0, dt - w0
        except (TypeError, ValueError):
            raise KeyError(key) from None
        if 0 <= i < arr.shape[0] and 0 <= j < arr.shape[1]:
            c = arr.item(i, j)
            if c:
                return c
        raise KeyError(key)

    def items(self) -> "_TermItems":
        return _TermItems(self)

    def values(self) -> "_TermValues":
        return _TermValues(self)

    def __repr__(self) -> str:
        return repr(dict(self.items()))


class _TermItems(ItemsView):
    __slots__ = ()

    def __iter__(self) -> Iterator[tuple[Term, int]]:
        terms = self._mapping
        i, j = terms._nonzero()
        return zip(terms._pairs(i, j), terms._block[2][i, j].tolist())


class _TermValues(ValuesView):
    __slots__ = ()

    def __iter__(self) -> Iterator[int]:
        arr = self._mapping._block[2]
        return iter(arr[arr != 0].tolist())


class BivarPoly:
    """Immutable polynomial in q, t with integer coefficients."""

    __slots__ = ("_block",)

    def __init__(self, terms: Mapping[Term, int] | Iterable[tuple[Term, int]] = ()):
        items = terms.items() if isinstance(terms, Mapping) else terms
        clean: dict[Term, int] = {}
        for (dq, dt), c in items:
            if dq < 0 or dt < 0:
                raise ValueError("exponents must be non-negative")
            if c:
                key = (dq, dt)
                clean[key] = clean.get(key, 0) + c
                if not clean[key]:
                    del clean[key]
        qs, ts = zip(*clean) if clean else ((), ())
        a0, w0 = min(qs, default=0), min(ts, default=0)
        rows, cols = max(qs, default=-1) - a0 + 1, max(ts, default=-1) - w0 + 1
        guard_count(rows * cols, None, "BivarPoly block", "cells")
        arr = np.zeros((rows, cols), dtype=object)
        for (a, b), c in clean.items():
            arr[a - a0, b - w0] = c
        object.__setattr__(self, "_block", _trim(a0, w0, arr))

    def __setattr__(self, name, value):  # pragma: no cover - guard
        raise AttributeError("BivarPoly is immutable")

    def __reduce__(self):
        return (BivarPoly._from_block, self._block)

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

        The block is trimmed and copied (see `_trim`), so later writes to
        `arr` do not reach the value.
        """
        self = object.__new__(cls)
        object.__setattr__(self, "_block", _trim(a0, w0, arr))
        return self

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> Terms:
        """The non-zero terms as a read-only view over the block (see
        `Terms`), in row-major (sorted) order."""
        return Terms(self._block)

    def coeff(self, dq: int, dt: int) -> int:
        return self.terms.get((dq, dt), 0)

    def is_zero(self) -> bool:
        return not self._block[2].size

    def __len__(self) -> int:
        return int(np.count_nonzero(self._block[2]))

    def max_degrees(self) -> Term:
        if self.is_zero():
            return (0, 0)
        a0, w0, arr = self._block
        return (a0 + arr.shape[0] - 1, w0 + arr.shape[1] - 1)

    # -- arithmetic ---------------------------------------------------------

    def __add__(self, other: "BivarPoly") -> "BivarPoly":
        parts = [b for b in (self._block, other._block) if b[2].size]
        if not parts:
            return self
        return BivarPoly._from_block(*_sum_blocks(parts, object))

    def __neg__(self) -> "BivarPoly":
        a0, w0, arr = self._block
        return BivarPoly._from_block(a0, w0, -arr.astype(object))

    def __sub__(self, other: "BivarPoly") -> "BivarPoly":
        return self + (-other)

    def __mul__(self, other):
        a0, w0, x = self._block
        if isinstance(other, int):
            return BivarPoly._from_block(a0, w0, x.astype(object) * other)
        b0, v0, y = other._block
        if not x.size or not y.size:
            return BivarPoly()
        if x.size > y.size:
            x, y = y, x
        y = y.astype(object)
        i, j = np.nonzero(x)
        cells = zip(i.tolist(), j.tolist(), x[i, j].tolist())
        parts = [(a0 + b0 + r, w0 + v0 + s, c * y) for r, s, c in cells]
        return BivarPoly._from_block(*_sum_blocks(parts, object))

    __rmul__ = __mul__

    def shift(self, dq: int, dt: int) -> "BivarPoly":
        """Multiply by q^dq * t^dt."""
        a0, w0, arr = self._block
        return BivarPoly._from_block(a0 + dq, w0 + dt, arr)

    def eval_at(self, q0: int, t0: int) -> int:
        return sum(c * q0**a * t0**b for (a, b), c in self.terms.items())

    def swap_qt(self) -> "BivarPoly":
        """Transpose exponent pairs: q^a t^b -> q^b t^a."""
        a0, w0, arr = self._block
        return BivarPoly._from_block(w0, a0, arr.T)

    def substitute_powers(self, q_pow: int = 1, t_pow: int = 1) -> "BivarPoly":
        """Map q -> q^q_pow, t -> t^t_pow (exponent scaling)."""
        if q_pow < 1 or t_pow < 1:
            raise ValueError("powers must be >= 1")
        if self.is_zero():
            return self
        a0, w0, arr = self._block
        h, w = arr.shape
        out = np.zeros(((h - 1) * q_pow + 1, (w - 1) * t_pow + 1), dtype=arr.dtype)
        out[::q_pow, ::t_pow] = arr
        return BivarPoly._from_block(a0 * q_pow, w0 * t_pow, out)

    def is_qt_symmetric(self) -> bool:
        a0, w0, arr = self._block
        return a0 == w0 and np.array_equal(arr, arr.T)

    # -- serialization ---------------------------------------------------------

    def sorted_terms(self) -> list[tuple[Term, int]]:
        return list(self.terms.items())

    def to_sparse_json(self) -> dict:
        return {
            "terms": [
                {"q": a, "t": b, "c": str(c)} for (a, b), c in self.sorted_terms()
            ]
        }

    def to_matrix_json(self) -> dict:
        """Dense form {"shift": [kq, kt], "matrix": rows} with
        matrix[i][j] = coeff(kq + i, kt + j)."""
        if self.is_zero():
            return {"shift": [0, 0], "matrix": [[0]]}
        a0, w0, arr = self._block
        return {"shift": [a0, w0], "matrix": arr.tolist()}

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
        # trimmed blocks: equal values have equal offsets and cells
        (a0, w0, a), (b0, v0, b) = self._block, other._block
        return a0 == b0 and w0 == v0 and np.array_equal(a, b)

    def __hash__(self) -> int:
        a0, w0, arr = self._block
        return hash((a0, w0, arr.shape, tuple(arr.ravel().tolist())))

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
