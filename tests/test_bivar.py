"""Exact polynomial arithmetic and serialization."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara import bivar, qt
from sandnara.bivar import BivarPoly, QtSeries, _sum_blocks
from sandnara.qt import (
    narayana_poly,
    poly_to_array,
    rational_series_arrays,
    series_of_form,
    transfer_matrix_F,
)
from sandnara.tables import RATIONAL_FORMS

polys = st.dictionaries(
    st.tuples(st.integers(0, 6), st.integers(0, 6)),
    st.integers(-50, 50),
    max_size=8,
).map(BivarPoly)


def from_sparse(data):
    """Rebuild a value from its `to_sparse_json` form."""
    return BivarPoly({(t["q"], t["t"]): int(t["c"]) for t in data["terms"]})


class TestBasics:
    def test_swap(self):
        assert BivarPoly.monomial(3, 4).swap_qt() == BivarPoly.monomial(4, 3)

    def test_eval_table_value(self):
        f22 = BivarPoly({(3, 3): 1, (4, 3): 1, (3, 4): 1})
        assert f22.eval_at(1, 1) == 3

    def test_substitute(self):
        p = BivarPoly({(1, 0): 1, (0, 1): 1})  # q + t
        assert p.substitute_powers(1, 2) == BivarPoly({(1, 0): 1, (0, 2): 1})

    def test_zero_coefficients_dropped(self):
        p = BivarPoly({(1, 1): 5, (2, 2): 0})
        assert len(p) == 1
        assert (p - p).is_zero()
        # a zero coefficient does not size the block, however far away
        far = BivarPoly({(0, 0): 1, (10**9, 10**9): 0})
        assert far == BivarPoly.monomial(0, 0) and far._block[2].shape == (1, 1)
        # repeated exponents of an iterable input add up; what cancels is gone
        assert BivarPoly([((1, 1), 2), ((0, 2), 1), ((1, 1), 3)]) == BivarPoly(
            {(1, 1): 5, (0, 2): 1}
        )
        summed = BivarPoly([((1, 1), 2), ((0, 2), 1), ((0, 2), -1)])
        assert summed == BivarPoly.monomial(1, 1, 2) and summed._block[2].shape == (1, 1)
        assert BivarPoly([((1, 1), 2), ((1, 1), -2)]).is_zero()
        # a far exponent that cancels does not size the block either
        far = BivarPoly([((0, 0), 1), ((10**9, 10**9), 1), ((10**9, 10**9), -1)])
        assert far == BivarPoly.monomial(0, 0) and far._block[2].shape == (1, 1)

    def test_shift(self):
        p = BivarPoly({(0, 0): 2, (1, 1): 1})
        assert p.shift(2, 3) == BivarPoly({(2, 3): 2, (3, 4): 1})

    def test_negative_exponent_rejected(self):
        # every exponent pair is checked, a zero coefficient's too
        for terms in ({(-1, 0): 1}, {(-1, 0): 0}, {(0, 0): 1, (0, -3): 0}, [((2, -1), 0)]):
            with pytest.raises(ValueError, match="exponents must be non-negative"):
                BivarPoly(terms)

    def test_big_coefficients(self):
        big = 10**40
        p = BivarPoly({(0, 0): big})
        assert (p * p).coeff(0, 0) == big * big


class TestSerialization:
    def test_sparse_round_trip(self):
        p = BivarPoly({(3, 3): 1, (4, 3): 2, (3, 4): 10**30})
        data = p.to_sparse_json()
        assert data["terms"][0] == {"q": 3, "t": 3, "c": "1"}
        assert from_sparse(data) == p

    def test_matrix_form_convention(self):
        f22 = BivarPoly({(3, 3): 1, (4, 3): 1, (3, 4): 1})
        assert f22.to_matrix_json() == {
            "shift": [3, 3],
            "matrix": [[1, 1], [1, 0]],
        }
        assert BivarPoly.from_matrix_json(f22.to_matrix_json()) == f22

    def test_matrix_form_zero(self):
        assert BivarPoly.zero().to_matrix_json() == {"shift": [0, 0], "matrix": [[0]]}

    def test_repr_readable(self):
        assert "q^3t^3" in repr(BivarPoly({(3, 3): 1}))


class TestSeries:
    def test_length_checked(self):
        with pytest.raises(ValueError):
            QtSeries(2, (BivarPoly.zero(),))

    def test_indexing(self):
        s = QtSeries(1, (BivarPoly.zero(), BivarPoly.monomial(1, 1)))
        assert s[1] == BivarPoly.monomial(1, 1)


@settings(max_examples=100)
@given(polys, polys, polys)
def test_ring_laws(p, q, r):
    assert (p + q) * r == p * r + q * r
    assert p * q == q * p
    assert (p + q) + r == p + (q + r)


@settings(max_examples=100)
@given(polys)
def test_swap_involution(p):
    assert p.swap_qt().swap_qt() == p


@settings(max_examples=50)
@given(polys, polys, st.integers(-3, 3), st.integers(-3, 3))
def test_eval_is_ring_hom(p, q, x, y):
    assert (p * q).eval_at(x, y) == p.eval_at(x, y) * q.eval_at(x, y)
    assert (p + q).eval_at(x, y) == p.eval_at(x, y) + q.eval_at(x, y)


@settings(max_examples=50)
@given(polys)
def test_json_round_trips(p):
    assert from_sparse(p.to_sparse_json()) == p
    assert BivarPoly.from_matrix_json(p.to_matrix_json()) == p


# -- values from `_from_block` against the dict constructor ---------------------


@st.composite
def blocks(draw):
    """(a0, w0, arr): an int64 or object-dtype block, the latter with
    coefficients beyond int64, with zero margins that may sit at negative
    offsets; every non-zero cell lands at a non-negative exponent."""
    big = draw(st.booleans())
    coeffs = st.integers(-(2**70), 2**70) if big else st.integers(-50, 50)
    h, w = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    cells = draw(st.lists(st.one_of(st.just(0), coeffs), min_size=h * w, max_size=h * w))
    top, left, bottom, right = (draw(st.integers(0, 2)) for _ in range(4))
    dtype = object if big else np.int64
    arr = np.zeros((top + h + bottom, left + w + right), dtype=dtype)
    arr[top : top + h, left : left + w] = np.array(cells, dtype=dtype).reshape(h, w)
    return draw(st.integers(0, 3)) - top, draw(st.integers(0, 3)) - left, arr


def term_dict(a0, w0, arr):
    """The non-zero terms of the block as a plain dict, in row-major order."""
    return {(a0 + int(i), w0 + int(j)): int(arr[i, j]) for i, j in zip(*np.nonzero(arr))}


def dict_twin(a0, w0, arr):
    """The same polynomial through the dict constructor, terms in the
    row-major order of the block."""
    return BivarPoly(term_dict(a0, w0, arr))


def array_or_error(poly, size):
    try:
        return poly_to_array(poly, size)
    except (ValueError, OverflowError) as exc:
        return type(exc), str(exc)


def assert_same(p, q):
    """p and q agree on every view, the iteration order of the terms
    included."""
    assert p == q and q == p
    assert hash(p) == hash(q)
    assert repr(p) == repr(q)
    assert len(p) == len(q)
    assert p.sorted_terms() == q.sorted_terms()
    assert list(p.terms.items()) == list(q.terms.items())
    assert p.is_qt_symmetric() == q.is_qt_symmetric()
    assert (p._block[:2], p.max_degrees()) == (q._block[:2], q.max_degrees())


BLOCKS = settings(max_examples=150, derandomize=True, deadline=None)


class TestBlockBacked:
    @BLOCKS
    @given(blocks())
    def test_matches_dict_constructor(self, block):
        p, d = BivarPoly._from_block(*block), dict_twin(*block)
        assert_same(p, d)
        assert_same(p.swap_qt(), d.swap_qt())
        assert p.swap_qt().swap_qt() == p
        side = max(p.max_degrees()) + 1
        for size in (side - 1, side, side + 2):
            got, want = array_or_error(p, size), array_or_error(d, size)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype and np.array_equal(got, want)
            else:
                assert got == want

    @BLOCKS
    @given(blocks(), blocks())
    def test_arithmetic_and_equality_across_backings(self, b1, b2):
        """Values from `_from_block` (int64 or object) and from the dict
        constructor (object) compute and compare alike."""
        p1, p2 = BivarPoly._from_block(*b1), BivarPoly._from_block(*b2)
        d1, d2 = dict_twin(*b1), dict_twin(*b2)
        assert (p1 == p2) == (d1 == d2) == (p1 == d2) == (d1 == p2)
        for got, want in (
            (p1 + p2, d1 + d2),
            (p1 - p2, d1 - d2),
            (p1 * p2, d1 * d2),
            (p1 + d2, d1 + d2),
            (d1 * p2, d1 * d2),
        ):
            assert_same(got, want)

    @BLOCKS
    @given(blocks(), st.integers(0, 2), st.integers(0, 2))
    def test_offsets_count_in_equality(self, block, dq, dt):
        a0, w0, arr = block
        p, moved = BivarPoly._from_block(*block), BivarPoly._from_block(a0 + dq, w0 + dt, arr)
        d, d_moved = dict_twin(*block), dict_twin(a0 + dq, w0 + dt, arr)
        assert (p == moved) == (d == d_moved) == (not len(d) or (dq, dt) == (0, 0))
        # a symmetric block is a q,t-symmetric value only on the q = t line
        k = min(arr.shape)
        square = arr[:k, :k] + arr[:k, :k].T
        sym, d_sym = BivarPoly._from_block(dq, dt, square), dict_twin(dq, dt, square)
        assert sym.is_qt_symmetric() == d_sym.is_qt_symmetric() == (dq == dt or not square.any())

    @BLOCKS
    @given(blocks())
    def test_source_array_writes_do_not_reach_the_value(self, block):
        a0, w0, arr = block
        p = BivarPoly._from_block(a0, w0, arr)
        want = dict_twin(a0, w0, arr.copy())
        arr += 1
        assert_same(p, want)
        with pytest.raises(ValueError):
            p._block[2][...] = 0

    def test_zero_block(self):
        for arr in (np.zeros((0, 0), dtype=np.int64), np.zeros((3, 2), dtype=object)):
            p = BivarPoly._from_block(-5, 7, arr)
            assert_same(p, BivarPoly.zero())
            assert p.is_zero() and p.is_qt_symmetric() and p.swap_qt() == p
            assert np.array_equal(poly_to_array(p, 2), np.zeros((2, 2), dtype=np.int64))

    def test_terms_in_sorted_order(self):
        assert list(BivarPoly({(2, 0): 1, (0, 0): 1}).terms) == [(0, 0), (2, 0)]

    @pytest.mark.parametrize(
        "copy_of", [lambda p: pickle.loads(pickle.dumps(p)), copy.deepcopy], ids=["pickle", "deepcopy"]
    )
    def test_pickle_and_deepcopy(self, copy_of):
        for p in (
            BivarPoly({(3, 3): 1, (4, 3): -2}),
            narayana_poly(4, 5),
            BivarPoly._from_block(1, 2, np.array([[2**64, 0], [0, -1]], dtype=object)),
        ):
            got = copy_of(p)
            assert got == p and hash(got) == hash(p)
            assert not got._block[2].flags.writeable

    def test_negative_exponent_rejected(self):
        arr = np.array([[0, 0], [0, 3]])
        assert BivarPoly._from_block(-1, -1, arr) == BivarPoly.monomial(0, 0, 3)
        with pytest.raises(ValueError, match="exponents must be non-negative"):
            BivarPoly._from_block(-2, 0, arr)


class TestTermsView:
    @BLOCKS
    @given(blocks())
    def test_matches_dict_twin(self, block):
        p, want = BivarPoly._from_block(*block), term_dict(*block)
        terms = p.terms
        assert terms == want and want == terms
        assert terms == dict_twin(*block).terms
        assert list(terms) == list(terms.keys()) == list(want)
        assert list(terms.items()) == list(want.items())
        assert list(terms.values()) == [c for _, c in terms.items()]
        assert len(terms) == len(terms.items()) == len(terms.values()) == len(want) == len(p)
        assert repr(terms) == repr(want)
        assert dict(terms) == want
        assert BivarPoly(terms) == p

    @BLOCKS
    @given(blocks())
    def test_lookup_reads_one_cell(self, block):
        p, want = BivarPoly._from_block(*block), term_dict(*block)
        terms = p.terms
        (a0, w0), (a1, w1) = p._block[:2], p.max_degrees()
        # every cell of the trimmed box and a ring of cells around it
        for key in ((a, w) for a in range(a0 - 1, a1 + 2) for w in range(w0 - 1, w1 + 2)):
            if key in want:
                assert key in terms and terms[key] == terms.get(key) == want[key]
            else:
                assert key not in terms and terms.get(key) is None and terms.get(key, 0) == 0
                with pytest.raises(KeyError):
                    terms[key]

    @BLOCKS
    @given(blocks())
    def test_values_are_python_ints(self, block):
        terms = BivarPoly._from_block(*block).terms
        assert all(type(c) is int for c in terms.values())
        assert all(type(a) is int and type(b) is int and type(c) is int for (a, b), c in terms.items())

    def test_big_and_negative_values(self):
        arr = np.array([[2**64, 0, -3], [0, 0, -(2**70)]], dtype=object)
        p = BivarPoly._from_block(1, 2, arr)
        want = {(1, 2): 2**64, (1, 4): -3, (2, 4): -(2**70)}
        assert list(p.terms.items()) == list(want.items())
        assert list(p.terms.values()) == list(want.values())
        assert all(type(c) is int for c in p.terms.values())
        assert p.terms[(2, 4)] == -(2**70)
        with pytest.raises(KeyError):
            p.terms[(1, 3)]
        with pytest.raises(KeyError):
            p.terms[(0, 2)]

    def test_read_only(self):
        terms = BivarPoly({(1, 1): 2}).terms
        with pytest.raises(TypeError):
            terms[(1, 1)] = 3
        with pytest.raises(TypeError):
            del terms[(1, 1)]
        assert terms == {(1, 1): 2}

    def test_zero_is_empty(self):
        terms = BivarPoly.zero().terms
        assert terms == {} and len(terms) == 0 and not terms
        assert list(terms) == list(terms.items()) == list(terms.values()) == []
        assert (0, 0) not in terms and repr(terms) == "{}"

    def test_other_keys_are_missing(self):
        terms = BivarPoly({(0, 0): 1}).terms
        for key in ((0,), (0, 0, 0), 0, "ab", None):
            assert key not in terms


def sum_blocks_four_pass(parts, dtype):
    """The bounding box by four passes over the parts, into a fresh block."""
    a0 = min(a for a, _, _ in parts)
    w0 = min(w for _, w, _ in parts)
    a1 = max(a + arr.shape[0] for a, _, arr in parts)
    w1 = max(w + arr.shape[1] for _, w, arr in parts)
    out = np.zeros((a1 - a0, w1 - w0), dtype=dtype)
    for a, w, arr in parts:
        out[a - a0 : a - a0 + arr.shape[0], w - w0 : w - w0 + arr.shape[1]] += arr
    return a0, w0, out


@st.composite
def part_lists(draw):
    """(parts, dtype): int64 or object parts at offsets that may be negative;
    int64 parts may be summed into object dtype."""
    big = draw(st.booleans())
    dtype = object if big else draw(st.sampled_from([np.int64, object]))
    coeffs = st.integers(-(2**70), 2**70) if big else st.integers(-50, 50)
    parts = []
    for _ in range(draw(st.integers(1, 5))):
        h, w = draw(st.integers(1, 3)), draw(st.integers(1, 3))
        cells = draw(st.lists(coeffs, min_size=h * w, max_size=h * w))
        arr = np.array(cells, dtype=object if big else np.int64).reshape(h, w)
        parts.append((draw(st.integers(-3, 3)), draw(st.integers(-3, 3)), arr))
    return parts, dtype


class TestSumBlocks:
    @BLOCKS
    @given(part_lists())
    def test_matches_four_pass_form(self, drawn):
        parts, dtype = drawn
        (a0, w0, got), (b0, v0, want) = _sum_blocks(parts, dtype), sum_blocks_four_pass(parts, dtype)
        assert (a0, w0, got.shape, got.dtype) == (b0, v0, want.shape, want.dtype)
        assert got.tolist() == want.tolist()

    def test_sole_part_of_the_dtype_is_shared(self):
        for arr, dtype in ((np.arange(6).reshape(2, 3), np.int64), (np.ones((2, 2), dtype=object), object)):
            a0, w0, out = _sum_blocks([(4, -1, arr)], dtype)
            assert (a0, w0) == (4, -1) and out is arr

    def test_sole_part_of_another_dtype_is_converted(self):
        arr = np.arange(6, dtype=np.int64).reshape(2, 3)
        a0, w0, out = _sum_blocks([(1, 2, arr)], object)
        assert (a0, w0) == (1, 2) and out.dtype == object
        assert not np.shares_memory(out, arr) and out.tolist() == arr.tolist()

    def test_no_route_writes_a_handed_over_block(self, monkeypatch):
        """Every block `_sum_blocks` returns is marked read-only; a route
        that wrote into one, through a shared sole part or a later sum,
        would raise."""

        def routes():
            out = [transfer_matrix_F(m, 12) for m in range(1, 7)]
            out += [
                series_of_form(RATIONAL_FORMS[name], order).coeffs
                for name, order in (("F2", 60), ("F3", 57), ("F4", 21), ("F5", 13), ("F6", 9))
            ]
            arrays = list(rational_series_arrays(RATIONAL_FORMS["F2"], 30))
            return out, arrays

        want, want_arrays = routes()
        real = bivar._sum_blocks

        def frozen(parts, dtype):
            block = real(parts, dtype)
            block[2].flags.writeable = False
            return block

        monkeypatch.setattr(bivar, "_sum_blocks", frozen)
        monkeypatch.setattr(qt, "_sum_blocks", frozen)
        got, got_arrays = routes()
        assert got == want
        assert [k for k, _ in got_arrays] == [k for k, _ in want_arrays]
        for (_, a), (_, b) in zip(got_arrays, want_arrays):
            assert a.dtype == b.dtype and np.array_equal(a, b)
