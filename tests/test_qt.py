"""q,t-Narayana polynomials: enumeration, closed forms, transfer matrix, swap."""

import numpy as np
import pytest

from sandnara import polyomino
from sandnara.bivar import BivarPoly
from sandnara.errors import NotInDomain
from sandnara.polyomino import enumerate_para, narayana_number, para_from_paths
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
from sandnara.tables import RATIONAL_FORMS, matrix_poly


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
        assert all(len(top) <= 7 for top, _ in chunks)
        tops = [(top[0].tolist(), top[-1].tolist()) for top, _ in chunks]
        split = [a[1] == b[0] for a, b in zip(tops, tops[1:])]
        assert any(split) or m == 1
        assert list(polyomino._iter_profiles(m, n)) == pairs
        assert narayana_poly(m, n) == want

    @pytest.mark.parametrize("m,n", [(3, 0), (0, 3), (-1, 2)])
    def test_box_sizes_checked(self, m, n):
        with pytest.raises(ValueError, match=f"m={m}, n={n}"):
            narayana_poly(m, n)

    def test_int64_bounds(self):
        # heights past int16 are held exactly; a key past int64 raises
        assert narayana_poly(1, 2**30) == BivarPoly.monomial(2**30, 2**30)
        with pytest.raises(ValueError, match="int64"):
            narayana_poly(1, 2**31)


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
    @pytest.mark.parametrize("n", [1, 2, 3, 7, 19, 40])
    def test_array_enumeration_matches_generic(self, n):
        arr = narayana_m2_array(n)
        want = poly_to_array(narayana_poly(2, n), arr.shape[0])
        assert np.array_equal(arr, want)

    def test_array_series_matches_generic(self):
        generic = series_of_form(RATIONAL_FORMS["F2"], 12)
        for k, arr in rational_series_arrays(RATIONAL_FORMS["F2"], 12):
            want = poly_to_array(generic[k], arr.shape[0])
            assert np.array_equal(arr, want)
