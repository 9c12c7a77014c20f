"""Polyomino geometry, characterizations, bounce path and enumeration."""

import itertools

import pytest

from sandnara.errors import NotMonotone, PathsCross, ResourceLimit
from sandnara.polyomino import (
    HeightSeqs,
    ParaPolyomino,
    bounce_weight_of_runs,
    cells_from_heights,
    count_para,
    ebounce,
    enumerate_para,
    is_para_partitions,
    is_para_sequences,
    narayana_number,
    obounce,
    para_from_paths,
)

P1_UPPER = "NENEENEENEE"
P1_LOWER = "EEENENEENEN"


def all_height_seqs(m, n):
    a_opts = [
        tuple(a)
        for a in itertools.combinations_with_replacement(range(n), m - 1)
    ]
    b_opts = [
        tuple(b)
        for b in itertools.combinations_with_replacement(range(m), n)
    ]
    for a in a_opts:
        for b in b_opts:
            yield HeightSeqs(m, n, a, b)


class TestConstruction:
    def test_worked_pair(self):
        p = para_from_paths(P1_UPPER, P1_LOWER)
        assert (p.m, p.n) == (7, 4)

    def test_single_cell(self):
        p = para_from_paths("NE", "EN")
        assert (p.m, p.n) == (1, 1)
        assert p.cells().cells == frozenset({(1, 1)})

    def test_crossing_pair_rejected(self):
        # upper and lower share the interior vertex (2, 1)
        with pytest.raises(PathsCross):
            para_from_paths("NEEN", "EENN")

    def test_wrong_multiset_rejected(self):
        with pytest.raises(NotMonotone):
            para_from_paths("NNE", "EN")
        with pytest.raises(NotMonotone):
            para_from_paths("NEE", "ENN")

    def test_swapped_roles_rejected(self):
        with pytest.raises(PathsCross):
            para_from_paths("EN", "NE")

    def test_bad_step_letter(self):
        with pytest.raises(NotMonotone):
            para_from_paths("NX", "EN")

    def test_json_round_trip(self):
        p = para_from_paths(P1_UPPER, P1_LOWER)
        assert ParaPolyomino.from_json(p.to_json()) == p


class TestCellsFromHeights:
    def test_disconnected_example(self):
        h = HeightSeqs(7, 4, (0, 0, 1, 2, 2, 2), (1, 1, 5, 6))
        cs = cells_from_heights(h)
        assert cs.cells == frozenset(
            {(1, 1), (2, 1), (4, 3), (5, 3), (6, 3), (7, 4)}
        )
        assert cs.as_para() is None

    def test_single_cell(self):
        cs = cells_from_heights(HeightSeqs(1, 1, (), (0,)))
        assert cs.cells == frozenset({(1, 1)})

    def test_full_square(self):
        cs = cells_from_heights(HeightSeqs(2, 2, (1,), (1, 1)))
        assert cs.cells == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})
        assert cs.as_para().area == 4

    def test_cellset_json_sorted(self):
        cs = cells_from_heights(HeightSeqs(2, 2, (1,), (1, 1)))
        data = cs.to_json()
        assert data["cells"] == sorted(data["cells"])


class TestHeightSeqsValidation:
    @pytest.mark.parametrize(
        "m,n,a,b,message",
        [
            # every rule is broken; the length check comes first
            (3, 2, (5, 9, 1), (7, 0), "sequence lengths must be m-1 and n"),
            # range of a and b broken, both out of order: a's range first
            (3, 2, (5, 0), (7, 0), "a entries must lie in [0, n-1]"),
            (3, 2, (-1, 0), (7, 0), "a entries must lie in [0, n-1]"),
            (3, 2, (1, 0), (7, 0), "b entries must lie in [0, m-1]"),
            (3, 2, (1, 0), (-1, 0), "b entries must lie in [0, m-1]"),
            (3, 2, (1, 0), (2, 0), "a must be weakly increasing"),
            (3, 2, (0, 1), (2, 0), "b must be weakly increasing"),
        ],
    )
    def test_first_fault_reported(self, m, n, a, b, message):
        with pytest.raises(ValueError) as exc:
            HeightSeqs(m, n, a, b)
        assert str(exc.value) == message

    def test_edges_accepted(self):
        assert HeightSeqs(1, 1, (), (0,)).a == ()
        assert HeightSeqs(3, 2, (0, 1), (0, 2)).b == (0, 2)


class TestSequenceCharacterization:
    def test_big_example_true(self):
        h = HeightSeqs(9, 7, (2, 3, 4, 4, 5, 6, 6, 6), (0, 0, 2, 4, 4, 6, 8))
        assert is_para_sequences(h)

    def test_disconnected_example_false(self):
        assert not is_para_sequences(
            HeightSeqs(7, 4, (0, 0, 1, 2, 2, 2), (1, 1, 5, 6))
        )

    def test_single_cell(self):
        assert is_para_sequences(HeightSeqs(1, 1, (), (0,)))

    def test_matches_geometry_exhaustive(self):
        for s in range(2, 10):
            for m in range(1, s):
                n = s - m
                for h in all_height_seqs(m, n):
                    assert is_para_sequences(h) == (
                        cells_from_heights(h).as_para() is not None
                    )


class TestPartitionCharacterization:
    def test_first_shape(self):
        assert is_para_partitions((3, 2, 2, 1, 1, 0, 0), (4, 3, 1, 0))

    def test_ribbon_shape(self):
        assert is_para_partitions((2, 2, 2, 1, 1, 1, 0), (6, 3, 0, 0))

    def test_trivial(self):
        assert is_para_partitions((0,), (0,))

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (2, 4)])
    def test_agrees_with_sequences(self, m, n):
        for h in all_height_seqs(m, n):
            lam = tuple(n - 1 - v for v in h.a) + (0,)
            mu = tuple(m - 1 - v for v in h.b)
            lam_sorted = tuple(sorted(lam, reverse=True))
            if lam != lam_sorted or mu != tuple(sorted(mu, reverse=True)):
                continue
            assert is_para_partitions(lam, mu) == is_para_sequences(h)


class TestAreas:
    def test_single_cell(self):
        p = para_from_paths("NE", "EN")
        assert (p.area, p.uarea, p.larea) == (1, 0, 0)

    def test_full_square(self):
        p = cells_from_heights(HeightSeqs(2, 2, (1,), (1, 1))).as_para()
        assert p.area == 4

    def test_ribbon_area_is_minimal(self):
        h = HeightSeqs(7, 4, (1, 1, 1, 2, 2, 2), (0, 3, 6, 6))
        p = cells_from_heights(h).as_para()
        assert p.area == 7 + 4 - 1 == 10
        assert p.is_ribbon()

    def test_area_partition_of_box(self):
        for s in range(2, 11):
            for m in range(1, s):
                n = s - m
                for p in enumerate_para(m, n):
                    assert p.larea + p.area + p.uarea == m * n


class TestBounce:
    def test_seven_three_example(self):
        # reconstructed from its height sequences; lives in a 7 x 3 box
        h = HeightSeqs(7, 3, (0, 0, 1, 2, 2, 2), (3, 3, 6))
        p = cells_from_heights(h).as_para()
        assert p.bounce_seq() == (1, 3, 2, 3)
        assert p.bounce_path() == "SWWWSSWWW"

    def test_nine_seven_example(self):
        h = HeightSeqs(9, 7, (2, 3, 4, 4, 5, 6, 6, 6), (0, 0, 2, 4, 4, 6, 8))
        p = cells_from_heights(h).as_para()
        assert p.bounce_seq() == (1, 3, 1, 1, 2, 3, 1, 1, 2)

    def test_single_cell(self):
        p = para_from_paths("NE", "EN")
        assert p.bounce_seq() == (1,)
        assert p.bounce_path() == "S"

    def test_five_five_shape_exists(self):
        # twelve polyominoes in the 5 x 5 box have this bounce sequence
        hits = [
            p for p in enumerate_para(5, 5) if p.bounce_seq() == (2, 3, 1, 1, 2)
        ]
        assert len(hits) == 12

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_run_sums(self, m, n):
        for p in enumerate_para(m, n):
            runs = p.bounce_seq()
            assert sum(obounce(runs)) == n
            assert sum(ebounce(runs)) == m - 1
            assert all(c >= 1 for c in runs)


class TestBounceCharact:
    def test_nine_seven(self):
        h = HeightSeqs(9, 7, (2, 3, 4, 4, 5, 6, 6, 6), (0, 0, 2, 4, 4, 6, 8))
        p = cells_from_heights(h).as_para()
        xs, ys = p.bounce_charact()
        assert xs == (0, 1, 4, 5, 8, 9)
        assert ys == (0, 2, 3, 5, 6, 7)

    def test_seven_three(self):
        # ends on a west run, so y_1 = 0 duplicates y_0
        h = HeightSeqs(7, 3, (0, 0, 1, 2, 2, 2), (3, 3, 6))
        p = cells_from_heights(h).as_para()
        xs, ys = p.bounce_charact()
        assert xs == (0, 3, 6, 7)
        assert ys == (0, 0, 2, 3)

    def test_single_cell(self):
        xs, ys = para_from_paths("NE", "EN").bounce_charact()
        assert xs == (0, 1)
        assert ys == (0, 1)

    @pytest.mark.parametrize("m,n", [(m, n) for m in range(1, 5) for n in range(1, 5)])
    def test_round_trip_to_runs(self, m, n):
        for p in enumerate_para(m, n):
            xs, ys = p.bounce_charact()
            k = len(xs) - 2
            assert xs[0] == 0 and xs[k] == m - 1 and xs[k + 1] == m
            assert ys[0] == 0 and ys[k + 1] == n
            rebuilt = []
            for i in range(k, -1, -1):
                rebuilt.append(ys[i + 1] - ys[i])
                if i:
                    rebuilt.append(xs[i] - xs[i - 1])
            if rebuilt and rebuilt[-1] == 0:
                rebuilt.pop()
            assert tuple(rebuilt) == p.bounce_seq()


class TestBounceWeight:
    def test_fixture_runs(self):
        assert bounce_weight_of_runs((1, 3, 1, 1, 2, 3, 1, 1, 2)) == 41
        assert bounce_weight_of_runs((1, 4, 1, 3)) == 13

    def test_single_cell(self):
        assert para_from_paths("NE", "EN").bounce_weight == 1

    def test_minimal_value(self):
        for p in enumerate_para(3, 4):
            assert p.bounce_weight >= 3 + 4 - 1


class TestDiaglen:
    def test_single_cell(self):
        assert para_from_paths("NE", "EN").diaglen() == (1,)

    def test_full_square(self):
        p = cells_from_heights(HeightSeqs(2, 2, (1,), (1, 1))).as_para()
        assert p.diaglen() == (1, 2, 1)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2), (2, 5)])
    def test_sums_to_area(self, m, n):
        for p in enumerate_para(m, n):
            d = p.diaglen()
            assert sum(d) == p.area
            assert len(d) == m + n - 1
            assert all(v >= 1 for v in d)


class TestEnumeration:
    def test_counts(self):
        assert sum(1 for _ in enumerate_para(2, 2)) == 3
        assert sum(1 for _ in enumerate_para(1, 7)) == 1
        assert sum(1 for _ in enumerate_para(4, 4)) == 175 == count_para(4, 4)

    def test_narayana_values(self):
        assert narayana_number(3, 2) == 3
        assert narayana_number(7, 4) == 175

    def test_canonical_order(self):
        words = [(p.upper, p.lower) for p in enumerate_para(2, 2)]
        assert words == [("NNEE", "ENEN"), ("NNEE", "EENN"), ("NENE", "EENN")]

    @pytest.mark.parametrize("m,n", [(3, 3), (2, 4)])
    def test_order_is_word_lexicographic(self, m, n):
        # lexicographic with N sorting before E, upper word first
        def key(p):
            return tuple(
                [0 if ch == "N" else 1 for ch in p.upper]
                + [0 if ch == "N" else 1 for ch in p.lower]
            )

        keys = [key(p) for p in enumerate_para(m, n)]
        assert keys == sorted(keys)

    def test_no_duplicates(self):
        seen = set(enumerate_para(3, 4))
        assert len(seen) == count_para(3, 4)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            list(enumerate_para(10, 10, max_objects=100))

    def test_trusted_objects_equal_validated(self):
        # enumerate_para skips re-validation; its objects must be exactly the
        # validated constructions, field types included
        for s in range(2, 10):
            for m in range(1, s):
                for p in enumerate_para(m, s - m):
                    q = ParaPolyomino(p.m, p.n, p.top, p.bot)
                    assert p == q and hash(p) == hash(q)
                    assert type(p.top) is tuple and type(p.bot) is tuple
                    assert all(type(v) is int for v in p.top + p.bot)

    @pytest.mark.parametrize("m,n", [(3, 0), (0, 3), (-1, 2)])
    def test_box_sizes_checked(self, m, n):
        with pytest.raises(ValueError, match=f"m={m}, n={n}"):
            count_para(m, n)
        with pytest.raises(ValueError, match=f"m={m}, n={n}"):
            list(enumerate_para(m, n))


class TestTranspose:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (4, 2)])
    def test_area_preserving_bijection(self, m, n):
        image = {p.transpose() for p in enumerate_para(m, n)}
        assert image == set(enumerate_para(n, m))
        for p in enumerate_para(m, n):
            assert p.transpose().area == p.area
