"""q,t-Narayana polynomials: enumeration, closed forms, transfer matrix, swap."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara import polyomino, qt
from sandnara.bivar import BivarPoly
from sandnara.config import DEFAULT_MAX_OBJECTS, Check
from sandnara.errors import NotInDomain, ResourceLimit
from sandnara.polyomino import (
    ParaPolyomino,
    count_para,
    enumerate_para,
    narayana_number,
    para_from_paths,
)
from sandnara.qt import (
    check_mn_symmetry,
    check_qt_symmetry,
    fit_numerator,
    min_weight_domain,
    narayana_m2_array,
    narayana_poly,
    poly_to_array,
    rational_series_arrays,
    rational_qt_series,
    ribbon_swap,
    ribbon_swap_inv,
    series_of_form,
    transfer_matrix_F,
)
from sandnara.tables import RATIONAL_FORMS, RationalForm, matrix_poly


class TestNarayanaPoly:
    def test_smallest(self):
        assert narayana_poly(1, 1) == BivarPoly.monomial(1, 1)

    def test_two_two(self):
        assert narayana_poly(2, 2) == matrix_poly(2, 2)
        assert narayana_poly(2, 2).to_matrix_json() == {
            "shift": [3, 3],
            "matrix": [[1, 1], [1, 0]],
        }

    def test_three_three(self):
        assert narayana_poly(3, 3) == matrix_poly(3, 3)

    def test_matches_object_enumeration(self):
        # every box with m + n <= 10; the object route is the per-object
        # bounce_seq, independent of the batch kernel
        for (m, n) in [(m, s - m) for s in range(2, 11) for m in range(1, s)]:
            acc = {}
            for p in enumerate_para(m, n):
                key = (p.area, p.bounce_weight)
                acc[key] = acc.get(key, 0) + 1
            assert narayana_poly(m, n) == BivarPoly(acc)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 4), (4, 4), (5, 2)])
    def test_specializes_to_narayana_numbers(self, m, n):
        assert narayana_poly(m, n).eval_at(1, 1) == narayana_number(m + n - 1, m)

    @pytest.mark.parametrize("m,n", [(1, 9), (2, 9), (3, 6), (4, 5), (5, 4), (6, 4)])
    def test_split_batches(self, monkeypatch, m, n):
        # With 7 rows per batch the lower profiles of one upper profile span
        # several batches; the result and the order must not change.
        want = narayana_poly(m, n)
        pairs = list(polyomino._iter_profiles(m, n))
        monkeypatch.setattr(polyomino, "_CHUNK_ROWS", 7)
        chunks = list(polyomino._profile_chunks(m, n))
        assert all(top.shape[1] <= 7 for top, _ in chunks)
        tops = [(top[:, 0].tolist(), top[:, -1].tolist()) for top, _ in chunks]
        split = [a[1] == b[0] for a, b in zip(tops, tops[1:])]
        assert any(split) or m == 1
        assert list(polyomino._iter_profiles(m, n)) == pairs
        assert narayana_poly(m, n) == want

    @pytest.mark.parametrize("m,n", [(3, 0), (0, 3), (-1, 2)])
    def test_box_sizes_checked(self, m, n):
        with pytest.raises(ValueError, match=f"m={m}, n={n}"):
            narayana_poly(m, n)

    def test_int64_bounds(self):
        # heights past int16 and int32 are held exactly; a box whose count
        # exceeds int64 is refused before anything is enumerated
        assert narayana_poly(1, 2**30) == BivarPoly.monomial(2**30, 2**30)
        assert narayana_poly(1, 2**31) == BivarPoly.monomial(2**31, 2**31)
        assert count_para(40, 40) > np.iinfo(np.int64).max
        with mock.patch.object(qt, "_profile_chunks", side_effect=AssertionError("enumerated")):
            with pytest.raises(ValueError, match="int64"):
                narayana_poly(40, 40, max_objects=10**50)

    def test_block_cells_charged(self):
        # the 100 x 100 block of F_{2,100} and its trimmed copy are charged
        # as 20,000 cells before anything is enumerated; its 5,050
        # polyominoes alone pass the cap
        with mock.patch.object(qt, "_profile_chunks", side_effect=AssertionError("enumerated")):
            with pytest.raises(ResourceLimit, match="cells exceeds cap 19999"):
                narayana_poly(2, 100, max_objects=19_999)
        assert narayana_poly(2, 100, max_objects=20_000) == narayana_poly(2, 100)

    @pytest.mark.parametrize("n", [150, 400])
    def test_many_distinct_terms(self, n):
        # every term of F_{2,n} is distinct, so these boxes fill many batches
        # with new (area, weight) cells; the closed form is independent
        assert np.array_equal(
            poly_to_array(narayana_poly(2, n), 2 * n + 3), narayana_m2_array(n)
        )


class TestTables:
    @pytest.mark.parametrize("key", sorted({(2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 5), (4, 4)}))
    def test_matrices_match_enumeration(self, key):
        m, n = key
        assert matrix_poly(m, n) == narayana_poly(m, n)

    def test_shifts_are_minimal_area(self):
        from sandnara.tables import MATRIX_FORMS

        for (m, n), (shift, _) in MATRIX_FORMS.items():
            assert shift == m + n - 1


class TestSymmetryReports:
    def test_qt_holds_small(self):
        assert check_qt_symmetry(2, 2).holds
        assert check_qt_symmetry(4, 4).holds

    def test_mn_holds_small(self):
        rep = check_mn_symmetry(3, 5)
        assert rep.holds
        assert rep.name == "mn-symmetry 3,5"
        assert rep.detail == ""

    def test_offending_term_reported(self):
        from sandnara.qt import _first_difference

        a = BivarPoly({(1, 2): 1})
        assert _first_difference(a, a.swap_qt()) == (1, 2)

    @pytest.mark.parametrize(
        "poly",
        [BivarPoly({(1, 2): 1, (3, 3): 4}), BivarPoly._from_block(1, 2, np.array([[1, 0], [0, 0], [0, 4]]))],
        ids=["dict", "block"],
    )
    def test_failed_check_names_the_term(self, poly):
        want = Check("qt-symmetry 1,1", False, "first offending term (1, 2)")
        with mock.patch.object(qt, "narayana_poly", return_value=poly):
            assert check_qt_symmetry(1, 1) == want
        assert qt._symmetry_check("qt-symmetry 1,1", poly, poly.swap_qt()) == want

    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (2, 5), (4, 3)])
    def test_t_to_one_specialization_is_box_symmetric(self, m, n):
        # transposing the box preserves area, so the q-marginals agree
        # as exact polynomials even without the full conjecture
        def q_marginal(p):
            out = {}
            for (a, _), c in p.terms.items():
                out[a] = out.get(a, 0) + c
            return out

        assert q_marginal(narayana_poly(m, n)) == q_marginal(narayana_poly(n, m))


class TestRationalSeries:
    def test_f2_low_coefficients(self):
        series = series_of_form(RATIONAL_FORMS["F2"], 4)
        assert series[1] == BivarPoly.monomial(2, 2)  # the single 2 x 1 shape
        assert series[2] == narayana_poly(2, 2)

    @pytest.mark.parametrize("name,m", [("F2", 2), ("F3", 3), ("F4", 4), ("F5", 5), ("F6", 6)])
    def test_matches_enumeration_low_order(self, name, m):
        series = series_of_form(RATIONAL_FORMS[name], 6)
        for n in range(1, 7):
            assert series[n] == narayana_poly(m, n), (name, n)

    def test_raw_interface(self):
        series = rational_qt_series([(1, 2, 2, 1)], [(1, 1), (2, 1), (1, 2)], 3)
        assert series[3] == narayana_poly(2, 3)

    def test_fit_recovers_f3_numerator(self):
        data = [BivarPoly.zero()] + [narayana_poly(3, n) for n in range(1, 11)]
        num = fit_numerator(data, RATIONAL_FORMS["F3"].factors, 4)
        assert num == ((1, 3, 3, 1), (-1, 7, 7, 3))

    def test_fit_rejects_wrong_denominator(self):
        data = [BivarPoly.zero()] + [narayana_poly(3, n) for n in range(1, 11)]
        assert fit_numerator(data, RATIONAL_FORMS["F2"].factors, 4) is None

    def test_expansion_past_int64_is_exact(self):
        # the bound 2**52 * C(46, 6) exceeds int64, and so do the coefficients
        # themselves; fit_numerator multiplies back with BivarPoly arithmetic
        form = RationalForm(
            "synthetic",
            numerator=((2**52, 1, 1, 1),),
            factors=((1, 1), (1, 2), (2, 1), (1, 1), (1, 2), (2, 1)),
        )
        order = 40
        arrays = [BivarPoly.zero()]
        for _, arr in rational_series_arrays(form, order):
            assert arr.dtype == object
            arrays.append(BivarPoly({(a, w): int(arr[a, w]) for a, w in zip(*np.nonzero(arr))}))
        assert max(arrays[order].terms.values()) > 2**63
        assert arrays == list(series_of_form(form, order).coeffs)
        assert fit_numerator(arrays, form.factors, 1) == form.numerator

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            rational_qt_series([(1, -1, 0, 1)], [(1, 1)], 3)
        form = RationalForm("negative", ((1, -1, 0, 1),), ((1, 1),))
        with pytest.raises(ValueError, match="non-negative"):
            list(rational_series_arrays(form, 3))

    def test_int64_while_the_bound_fits(self):
        for _, arr in rational_series_arrays(RATIONAL_FORMS["F2"], 5):
            assert arr.dtype == np.int64


class TestTransferMatrix:
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_matches_enumeration(self, m):
        polys = transfer_matrix_F(m, 7)
        for n in range(1, 8):
            assert polys[n - 1] == narayana_poly(m, n), (m, n)

    def test_m6_spot_check(self):
        polys = transfer_matrix_F(6, 4)
        for n in range(1, 5):
            assert polys[n - 1] == narayana_poly(6, n)

    def test_counts_line_up(self):
        polys = transfer_matrix_F(3, 12)
        for n in range(1, 13):
            assert polys[n - 1].eval_at(1, 1) == narayana_number(n + 2, 3)

    @pytest.mark.parametrize("m,n_max", [(1, 5), (3, 9), (5, 8)])
    def test_object_dtype_path(self, monkeypatch, m, n_max):
        want = transfer_matrix_F(m, n_max)
        monkeypatch.setattr(qt, "_INT64_LIMIT", 0)
        assert qt._coeff_dtype(1) is object
        assert transfer_matrix_F(m, n_max) == want

    def test_cost_estimate_is_guarded(self):
        cells = qt._transfer_plan(5, 12, None)[2]
        with pytest.raises(ResourceLimit, match=f": {cells} cells exceeds cap {cells - 1}$"):
            transfer_matrix_F(5, 12, max_objects=cells - 1)
        assert len(transfer_matrix_F(5, 12, max_objects=cells)) == 12

    def test_object_cells_weigh_more(self, monkeypatch):
        cells = qt._transfer_plan(5, 12, None)[2]
        monkeypatch.setattr(qt, "_INT64_LIMIT", 0)
        assert qt._transfer_plan(5, 12, None)[2] > cells

    @pytest.mark.parametrize("m,n_max,rows_built", [(100, 10, 0), (30, 12, 30)])
    def test_wide_box_refused_before_its_moves(self, monkeypatch, m, n_max, rows_built):
        # (100, 10) is refused on its output and first row alone; (30, 12)
        # after the moves of row 1, before the ~5000 states of row 2 expand
        calls = []
        real = qt._transfer_moves

        def spy(state):
            calls.append(state)
            return real(state)

        monkeypatch.setattr(qt, "_transfer_moves", spy)
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        with pytest.raises(ResourceLimit, match="cells exceeds cap"):
            transfer_matrix_F(m, n_max)
        assert len(calls) == rows_built

    def test_f_6_100_at_default_cap(self, monkeypatch):
        # output cells are charged at their dtype weight, like the sweep's
        # own blocks (one cell each in int64), so the whole run fits the cap
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        last = transfer_matrix_F(6, 100)[-1]
        assert last.is_qt_symmetric()
        assert last.eval_at(1, 1) == narayana_number(105, 6)

    def test_box_over_the_estimate_refused(self, monkeypatch):
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        with pytest.raises(ResourceLimit, match=r"F_\{8,100\}: at least \d+ cells exceeds cap"):
            transfer_matrix_F(8, 100)

    # (8, 100) needs object dtype; its full estimate is 1263651450 cells
    F_8_100 = 1263651450

    @pytest.mark.parametrize("cap", [10**8, 2 * 10**8, 362726250])
    def test_early_refusal_reports_a_lower_bound(self, cap):
        # a check that refuses before the row scan ends knows only part of
        # the estimate; only the plan is built, the sweep is never run
        with pytest.raises(ResourceLimit) as exc:
            qt._transfer_plan(8, 100, cap)
        found = re.fullmatch(
            rf"transfer matrix F_\{{8,100\}}: at least (\d+) cells exceeds cap {cap}",
            str(exc.value),
        )
        assert found, str(exc.value)
        assert cap < int(found[1]) < self.F_8_100

    def test_last_check_reports_the_full_estimate(self):
        assert qt._transfer_plan(8, 100, self.F_8_100)[2] == self.F_8_100
        with pytest.raises(ResourceLimit, match=f": {self.F_8_100} cells exceeds cap {self.F_8_100 - 1}$"):
            qt._transfer_plan(8, 100, self.F_8_100 - 1)

    def test_cost_estimate_bounds_every_block(self, monkeypatch):
        # every block the sweep builds fits the estimate's per-state box
        m, n_max = 4, 9
        shapes = []
        real = qt._sum_blocks

        def spy(parts, dtype):
            block = real(parts, dtype)
            shapes.append(block[2].shape)
            return block

        monkeypatch.setattr(qt, "_sum_blocks", spy)
        transfer_matrix_F(m, n_max)
        assert max(a for a, _ in shapes) <= (m - 1) * n_max + 1
        assert max(w for _, w in shapes) <= m * (m + n_max) - n_max + 1

    def test_f_6_30_at_default_cap(self, monkeypatch):
        monkeypatch.delenv("SANDPILE_MAX_OBJECTS", raising=False)
        assert qt._transfer_plan(6, 30, None)[2] <= DEFAULT_MAX_OBJECTS
        last = transfer_matrix_F(6, 30)[-1]
        assert last.eval_at(1, 1) == narayana_number(35, 6)
        assert last.is_qt_symmetric()

    @pytest.mark.parametrize("m,n_max", [(3, 0), (0, 3)])
    def test_sizes_checked(self, m, n_max):
        with pytest.raises(ValueError, match="m, n >= 1"):
            transfer_matrix_F(m, n_max)


# Box heights the three routes compare on, per width m <= 6:
# |Para_{m,n}| <= 2 * 10^4, and n <= 60, which bounds the one-column boxes
# and keeps every draw cheap.  The width is drawn first, so wide boxes are
# drawn as often as narrow ones.
DIFFERENTIAL_HEIGHTS = {
    m: [n for n in range(1, 61) if narayana_number(m + n - 1, m) <= 2 * 10**4]
    for m in range(1, 7)
}
differential_boxes = st.integers(1, 6).flatmap(
    lambda m: st.tuples(st.just(m), st.sampled_from(DIFFERENTIAL_HEIGHTS[m]))
)


# Batch-kernel draws: a batch bound of 1..64 rows, a width m <= 8, and a
# height n <= 60 with |Para_{m,n}| <= 2 * 10^4.  The box is also held to at
# most 256 batches of the drawn bound, which keeps one-row batches cheap.
KERNEL_SIZES = {m: [(n, narayana_number(m + n - 1, m)) for n in range(1, 61)] for m in range(1, 9)}
kernel_draws = st.tuples(st.integers(1, 64), st.integers(1, 8)).flatmap(
    lambda rm: st.tuples(
        st.just(rm[0]),
        st.just(rm[1]),
        st.sampled_from(
            [n for n, size in KERNEL_SIZES[rm[1]] if size <= min(2 * 10**4, 256 * rm[0])]
        ),
    )
)


class TestBatchKernel:
    @settings(max_examples=50, derandomize=True, deadline=None)
    @given(kernel_draws)
    def test_matches_per_object_statistics(self, draw):
        # the per-object bounce_seq is independent of the batch kernel;
        # small batch bounds split a box over many batches
        rows, m, n = draw
        want: dict[tuple[int, int], int] = {}
        for p in enumerate_para(m, n):
            key = (p.area, p.bounce_weight)
            want[key] = want.get(key, 0) + 1
        with mock.patch.object(polyomino, "_CHUNK_ROWS", rows):
            got = narayana_poly(m, n)
        assert got == BivarPoly(want)


class TestRoutesAgree:
    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(differential_boxes)
    def test_enumeration_transfer_series(self, box):
        m, n = box
        enum = narayana_poly(m, n)
        assert transfer_matrix_F(m, n)[n - 1] == enum
        if m >= 2:
            assert series_of_form(RATIONAL_FORMS[f"F{m}"], n)[n] == enum


# Swap draws: a box with m + n <= 24 and an upper profile; the lower
# profile is all 0 for a minimal-weight polyomino (the bounce weight is
# m + n - 1 exactly when the first south run reaches the bottom edge) and
# bot[i] = top[i-1] - 1 for a ribbon, whose columns overlap in one cell.
@st.composite
def upper_profiles(draw):
    m = draw(st.integers(1, 23))
    n = draw(st.integers(1, 24 - m))
    top = sorted(draw(st.lists(st.integers(1, n), min_size=m - 1, max_size=m - 1))) + [n]
    return m, n, tuple(top)


min_weight_draws = upper_profiles().map(lambda d: ParaPolyomino(*d, (0,) * d[0]))
ribbon_draws = upper_profiles().map(
    lambda d: ParaPolyomino(*d, (0,) + tuple(t - 1 for t in d[2][:-1]))
)


class TestRibbonSwap:
    def test_worked_six_by_six(self):
        d = (1, 2, 3, 3, 3, 4, 3, 3, 3, 2, 1)
        # rebuild the minimal-weight shape with this diagonal profile
        src = None
        for p in enumerate_para(6, 6):
            if min_weight_domain(p) and p.diaglen() == d:
                src = p
                break
        assert src is not None
        assert (src.area, src.bounce_weight) == (28, 11)
        img = ribbon_swap(src)
        assert img.is_ribbon()
        assert (img.area, img.bounce_weight) == (11, 28)
        want_cells = {
            (1, 1),
            (1, 2), (2, 2), (3, 2),
            (4, 2), (4, 3), (4, 4),
            (4, 5), (5, 5),
            (5, 6), (6, 6),
        }
        assert img.cells().cells == frozenset(want_cells)
        assert ribbon_swap_inv(img) == src

    def test_single_cell_fixed_point(self):
        cell = para_from_paths("NE", "EN")
        assert ribbon_swap(cell) == cell
        assert ribbon_swap_inv(cell) == cell

    def test_domain_errors(self):
        # the notched shape has bounce weight 4 > 3; the full square is no ribbon
        notched = para_from_paths("NNEE", "ENEN")
        assert notched.bounce_weight == 4
        with pytest.raises(NotInDomain):
            ribbon_swap(notched)
        square = para_from_paths("NNEE", "EENN")
        with pytest.raises(NotInDomain):
            ribbon_swap_inv(square)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (3, 4), (4, 3), (2, 6), (4, 5)])
    def test_exhaustive_swap_bijection(self, m, n):
        src = [p for p in enumerate_para(m, n) if min_weight_domain(p)]
        ribbons = [p for p in enumerate_para(m, n) if p.is_ribbon()]
        images = []
        for p in src:
            img = ribbon_swap(p)
            assert (img.area, img.bounce_weight) == (p.bounce_weight, p.area)
            assert ribbon_swap_inv(img) == p
            images.append(img)
        assert len(set(images)) == len(src) == len(ribbons)
        assert set(images) == set(ribbons)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(min_weight_draws)
    def test_swap_draws_past_exhaustive(self, p):
        # boxes up to m + n = 24, past the exhaustive m + n <= 12
        assert min_weight_domain(p)
        img = ribbon_swap(p)
        assert img.is_ribbon()
        assert (img.area, img.bounce_weight) == (p.bounce_weight, p.area)
        assert ribbon_swap_inv(img) == p

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(ribbon_draws)
    def test_inverse_draws_past_exhaustive(self, r):
        assert r.is_ribbon()
        pre = ribbon_swap_inv(r)
        assert min_weight_domain(pre)
        assert (pre.area, pre.bounce_weight) == (r.bounce_weight, r.area)
        assert ribbon_swap(pre) == r


class TestRegularExpressionWeights:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_two_column_row_words(self, n):
        # rows of a 2 x n shape read top to bottom form a word a^i b^j c d^k
        # with weights a -> qt, b -> q^2 t, c -> q^2 t^2, d -> q t^2
        acc = {}
        for i in range(n):
            for j in range(n - i):
                k = n - 1 - i - j
                key = (i + 2 * j + 2 + k, i + j + 2 + 2 * k)
                acc[key] = acc.get(key, 0) + 1
        assert BivarPoly(acc) == narayana_poly(2, n)


class TestVectorizedTwin:
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 40, 111, 200])
    def test_array_enumeration_matches_generic(self, n):
        arr = narayana_m2_array(n)
        want = poly_to_array(narayana_poly(2, n), arr.shape[0])
        assert np.array_equal(arr, want)

    @pytest.mark.parametrize("n,extra", [(1, 1), (5, 4), (40, 9), (200, 17)])
    def test_array_larger_size(self, n, extra):
        size = 2 * n + 3 + extra
        arr = narayana_m2_array(n, size)
        assert arr.shape == (size, size) and arr.dtype == np.int64
        assert np.array_equal(arr, poly_to_array(narayana_poly(2, n), size))

    def test_array_too_small(self):
        with pytest.raises(ValueError, match="too small"):
            narayana_m2_array(4, 10)

    @pytest.mark.parametrize("size", [0, 5, 8])
    def test_poly_to_array_too_small(self, size):
        # F_{2,4} reaches q^8 t^8, so it needs a side of at least 9
        block = narayana_poly(2, 4)
        for poly in (block, BivarPoly(block.terms)):
            with pytest.raises(ValueError, match="array too small for the exponent range"):
                poly_to_array(poly, size)
        assert np.array_equal(poly_to_array(block, 11), narayana_m2_array(4))

    def test_array_series_matches_generic(self):
        generic = series_of_form(RATIONAL_FORMS["F2"], 12)
        for k, arr in rational_series_arrays(RATIONAL_FORMS["F2"], 12):
            want = poly_to_array(generic[k], arr.shape[0])
            assert np.array_equal(arr, want)
