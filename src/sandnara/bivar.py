"""Exact sparse bivariate polynomials in q and t.

Coefficients are Python integers, so precision is unbounded.  Terms map
(q-degree, t-degree) to a non-zero coefficient; zero coefficients are never
stored.  Serialization orders terms by q-degree then t-degree, and the
matrix form factors out the minimal degrees as a (qt)^k-style shift so small
polynomials print the way the reference tables are written.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

Term = tuple[int, int]


class BivarPoly:
    """Immutable sparse polynomial in q, t with integer coefficients."""

    __slots__ = ("_terms",)

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
        object.__setattr__(self, "_terms", clean)

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
    def _trusted(cls, terms: dict[Term, int]) -> "BivarPoly":
        """Take ownership of a dict that already holds only non-zero Python
        int coefficients at non-negative exponents, without cleaning it again."""
        self = object.__new__(cls)
        object.__setattr__(self, "_terms", terms)
        return self

    # -- views ------------------------------------------------------------

    @property
    def terms(self) -> dict[Term, int]:
        return dict(self._terms)

    def coeff(self, dq: int, dt: int) -> int:
        return self._terms.get((dq, dt), 0)

    def is_zero(self) -> bool:
        return not self._terms

    def __len__(self) -> int:
        return len(self._terms)

    def min_degrees(self) -> Term:
        if not self._terms:
            return (0, 0)
        return (
            min(k[0] for k in self._terms),
            min(k[1] for k in self._terms),
        )

    def max_degrees(self) -> Term:
        if not self._terms:
            return (0, 0)
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
        return BivarPoly({(b, a): c for (a, b), c in self._terms.items()})

    def substitute_powers(self, q_pow: int = 1, t_pow: int = 1) -> "BivarPoly":
        """Map q -> q^q_pow, t -> t^t_pow (exponent scaling)."""
        if q_pow < 1 or t_pow < 1:
            raise ValueError("powers must be >= 1")
        return BivarPoly(
            {(a * q_pow, b * t_pow): c for (a, b), c in self._terms.items()}
        )

    def is_qt_symmetric(self) -> bool:
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
        return isinstance(other, BivarPoly) and self._terms == other._terms

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
