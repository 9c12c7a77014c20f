"""Minanz classes, bicomposition matrices, interval orders, counting."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sandnara

from sandnara.classes import (
    BicompMatrix,
    IntervalOrder,
    config_of_matrix,
    config_of_poset,
    count_minanz,
    count_minimal,
    count_nonzero_star,
    count_sqrec,
    dual_poset,
    enumerate_minanz,
    is_minanz,
    is_minimal,
    is_top_heavy,
    is_two_plus_two_free,
    matrix_of_config,
    matrix_of_poset,
    poset_of_matrix,
    stirling2,
    wave,
    _count_all_minanz,
)
from sandnara.errors import (
    InvalidMatrix,
    NotIntervalOrder,
    NotMinanz,
    NotRecurrent,
    NotUpperTriangular,
    ResourceLimit,
    VertexNotToppled,
)
from sandnara.polyomino import enumerate_para, narayana_number
from sandnara.sandpile import BipartiteConfig, cell_image, enumerate_rec_star

SQREC8 = BipartiteConfig(8, 8, (4, 5, 6, 1, 4, 5, 4, 0, 7, 1, 1, 4, 6, 1, 7))
SQREC5 = BipartiteConfig(5, 5, (4, 3, 4, 1, 0, 2, 1, 4, 1))


def sqrec_matrices(n):
    """All bicomposition matrices on {1..n-1} as (rows, cols) ordered partitions."""
    ground = list(range(1, n))

    def ordered_partitions(items, k):
        if k == 1:
            yield (frozenset(items),)
            return
        for size in range(1, len(items) - k + 2):
            for first in itertools.combinations(items, size):
                rest = [x for x in items if x not in first]
                for tail in ordered_partitions(rest, k - 1):
                    yield (frozenset(first),) + tail

    for k in range(1, n):
        for rows_part in ordered_partitions(ground, k):
            for cols_part in ordered_partitions(ground, k):
                yield BicompMatrix.from_lists(
                    [[rows_part[i] & cols_part[j] for j in range(k)] for i in range(k)]
                )


class TestPredicates:
    def test_small_cases(self):
        cfg = BipartiteConfig(2, 2, (0, 1, 1))
        assert is_minimal(cfg)
        assert not is_minanz(cfg)

    def test_worked_square_examples(self):
        assert is_minanz(SQREC8)
        assert is_minanz(SQREC5)

    def test_not_recurrent_raises(self):
        with pytest.raises(NotRecurrent):
            is_minimal(BipartiteConfig(2, 2, (0, 0, 0)))

    def test_minanz_forces_structure(self):
        # every minanz state has v_m empty, the bottom-left 3 corner cells
        # present, and a bounce path ending west-then-south
        for (m, n) in [(3, 3), (4, 3), (3, 4), (4, 4), (2, 5)]:
            for cfg in enumerate_minanz(m, n):
                assert cfg.heights[m - 1] == 0
                cells = cell_image(cfg).cells
                assert {(1, 1), (1, 2), (2, 2)} <= cells
                poly = cell_image(cfg).as_para()
                assert poly.bounce_path().endswith("WS")

    def test_top_heavy_examples(self):
        # the poset-worked configuration is top-heavy by construction
        cfg = BipartiteConfig(
            8, 8, (4, 7, 7, 1, 4, 1, 7, 0, 2, 4, 7, 2, 4, 2, 4)
        )
        assert is_top_heavy(cfg)
        assert not is_top_heavy(SQREC8)

    def test_top_heavy_needs_square(self):
        with pytest.raises(NotMinanz):
            is_top_heavy(BipartiteConfig(2, 3, (1, 0, 1, 1)))


class TestWave:
    def test_worked_trace(self):
        assert wave(SQREC5, 8) == 1
        assert wave(SQREC5, 1) == 1
        assert wave(SQREC5, 3) == 1
        assert wave(SQREC5, 6) == 2
        assert wave(SQREC5, 2) == 2
        assert wave(SQREC5, 4) == 3
        assert wave(SQREC5, 5) == 4

    def test_never_toppled(self):
        with pytest.raises(VertexNotToppled):
            wave(BipartiteConfig(2, 2, (0, 0, 0)), 1)


class TestMatrixCorrespondence:
    def test_sqrec8_matrix(self):
        mat = matrix_of_config(SQREC8)
        want = [
            [[], [], [], [3]],
            [[], [], [], [2, 6]],
            [[1, 7], [5], [], []],
            [[], [], [4], []],
        ]
        assert mat.to_json()["rows"] == want

    def test_sqrec5_matrix(self):
        mat = matrix_of_config(SQREC5)
        assert mat.to_json()["rows"] == [
            [[3], [1], []],
            [[], [], [2]],
            [[], [], [4]],
        ]

    def test_two_vertex_case(self):
        mats = list(sqrec_matrices(2))
        assert len(mats) == 1
        cfg = config_of_matrix(mats[0])
        assert cfg.heights == (1, 0, 1)
        assert matrix_of_config(cfg) == mats[0]

    def test_inverse_on_worked_examples(self):
        assert config_of_matrix(matrix_of_config(SQREC8)) == SQREC8
        assert config_of_matrix(matrix_of_config(SQREC5)) == SQREC5

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_bijection_both_directions(self, n):
        mats = list(sqrec_matrices(n))
        assert len(mats) == count_sqrec(n)
        seen = set()
        for mat in mats:
            cfg = config_of_matrix(mat)
            assert is_minanz(cfg)
            assert matrix_of_config(cfg) == mat
            seen.add(cfg.heights)
        assert len(seen) == len(mats)
        sq = {cfg.heights for cfg in enumerate_minanz(n, n)}
        assert seen == sq

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_upper_triangular_iff_top_heavy(self, n):
        for cfg in enumerate_minanz(n, n):
            assert matrix_of_config(cfg).is_upper_triangular() == is_top_heavy(cfg)

    def test_rejects_non_minanz(self):
        with pytest.raises(NotMinanz):
            matrix_of_config(BipartiteConfig(2, 2, (1, 1, 1)))
        with pytest.raises(NotMinanz):
            matrix_of_config(BipartiteConfig(2, 3, (1, 0, 1, 1)))

    def test_rejects_n_1(self):
        # the one state of K_{1,1} is minanz and top-heavy, but has no matrix
        cfg = BipartiteConfig(1, 1, (0,))
        assert list(enumerate_minanz(1, 1)) == [cfg] and is_top_heavy(cfg)
        with pytest.raises(NotMinanz, match="needs n >= 2"):
            matrix_of_config(cfg)

    def test_invalid_matrices(self):
        with pytest.raises(InvalidMatrix):
            BicompMatrix.from_lists([[set(), {1}], [set(), {2}]])  # empty column
        with pytest.raises(InvalidMatrix):
            BicompMatrix.from_lists([[{1}, {1}]])  # not disjoint
        with pytest.raises(InvalidMatrix):
            BicompMatrix.from_lists([[{1}, {3}]])  # not a partition of {1..N}

    @pytest.mark.parametrize(
        "rows,message",
        [
            ([[{2}, {1, 2}]], "matrix must be square"),
            ([[{1}, {1}], [set(), set()]], "entries must be pairwise disjoint"),
            ([[{1}, {3}], [set(), set()]], "entries must partition {1..N}"),
            ([[set(), set()], [set(), set()]], "entries must partition {1..N}"),
            ([[{1}, set()], [set(), set()]], "row 2 is empty"),
            ([[set(), set()], [{1}, {2}]], "row 1 is empty"),
            ([[{1}, set()], [{2}, set()]], "column 2 is empty"),
        ],
    )
    def test_first_fault_reported(self, rows, message):
        # the checks run in a fixed order; a matrix with several faults
        # reports the first
        with pytest.raises(InvalidMatrix) as exc:
            BicompMatrix.from_lists(rows)
        assert str(exc.value) == message

    def test_words_of_the_worked_matrix(self):
        # element x sits in cell (row_of[x-1], col_of[x-1])
        mat = BicompMatrix(3, (1, 0, 0, 2, 1, 2, 0), (2, 1, 0, 2, 1, 2, 1))
        want = TestPosetCorrespondence.MAT
        assert mat == want and hash(mat) == hash(want)
        assert mat.rows == want.rows

    @pytest.mark.parametrize(
        "k,row_of,col_of,message",
        [
            (0, (), (), "dimension mismatch"),
            (True, (0,), (0,), "dimension mismatch"),
            (1, [0], [0], "row and column words must be tuples of equal length"),
            (1, (0,), [0], "row and column words must be tuples of equal length"),
            (1, (0, 0), (0,), "row and column words must be tuples of equal length"),
            (2, (0, 2), (0, 1), "row and column indices must be ints in range(2)"),
            (2, (0, 1), (-1, 1), "row and column indices must be ints in range(2)"),
            (2, (0, True), (0, 1), "row and column indices must be ints in range(2)"),
            (2, (0, 1.0), (0, 1), "row and column indices must be ints in range(2)"),
            (1, (), (), "row 1 is empty"),
            (2, (0, 0), (0, 1), "row 2 is empty"),
            (2, (0, 1), (1, 1), "column 1 is empty"),
        ],
    )
    def test_word_faults(self, k, row_of, col_of, message):
        with pytest.raises(InvalidMatrix) as exc:
            BicompMatrix(k, row_of, col_of)
        assert str(exc.value) == message

    @pytest.mark.parametrize("entry", [True, 1.0])
    def test_bool_and_float_entries_are_invalid(self, entry):
        # True and 1.0 compare equal to 1, so only a type check tells them apart
        with pytest.raises(InvalidMatrix, match=r"^entries must partition \{1\.\.N\}$"):
            BicompMatrix.from_lists([[{entry}]])
        with pytest.raises(InvalidMatrix, match="partition"):
            BicompMatrix.from_lists([[{entry, 2}, set()], [set(), {3}]])

    def test_non_int_entry_is_invalid_under_any_hash_seed(self):
        # a str among the entries fails the partition check as InvalidMatrix;
        # the outcome must not depend on the set iteration order
        code = (
            "from sandnara.classes import BicompMatrix\n"
            "from sandnara.errors import InvalidMatrix\n"
            "try:\n"
            "    BicompMatrix.from_lists([[{1, 'a'}]])\n"
            "except InvalidMatrix as exc:\n"
            "    print(type(exc).__name__, exc)\n"
        )
        src = str(Path(sandnara.__file__).resolve().parent.parent)
        outs = set()
        for seed in ("0", "3"):
            env = {**os.environ, "PYTHONHASHSEED": seed, "PYTHONPATH": src}
            done = subprocess.run(
                [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
            )
            assert done.returncode == 0, done.stderr
            outs.add(done.stdout.strip())
        assert outs == {"InvalidMatrix entries must partition {1..N}"}

    def test_top_heavy_images_are_ribbons(self):
        for n in (3, 4, 5):
            for cfg in enumerate_minanz(n, n):
                if is_top_heavy(cfg):
                    assert cell_image(cfg).as_para().is_ribbon()

    def test_top_heavy_counts_match_poset_counts(self):
        # labeled (2+2)-free posets on 1, 2, 3, 4 points: 1, 3, 19, 207
        got = [
            sum(1 for cfg in enumerate_minanz(n, n) if is_top_heavy(cfg))
            for n in (2, 3, 4, 5)
        ]
        assert got == [1, 3, 19, 207]


class TestPosetCorrespondence:
    MAT = BicompMatrix.from_lists(
        [[{3}, {7, 2}, set()], [set(), {5}, {1}], [set(), set(), {4, 6}]]
    )

    def test_worked_relations(self):
        order = poset_of_matrix(self.MAT)
        pairs = order.relation_pairs()
        want = {(3, y) for y in (1, 4, 5, 6)} | {
            (x, y) for x in (2, 5, 7) for y in (4, 6)
        }
        assert pairs == frozenset(want)

    def test_single_element(self):
        order = poset_of_matrix(BicompMatrix.from_lists([[{1}]]))
        assert order.relation_pairs() == frozenset()

    def test_two_chain(self):
        order = poset_of_matrix(BicompMatrix.from_lists([[{1}, set()], [set(), {2}]]))
        assert order.relation_pairs() == frozenset({(1, 2)})

    def test_requires_upper_triangular(self):
        with pytest.raises(NotUpperTriangular):
            poset_of_matrix(matrix_of_config(SQREC8))
        # element 1 below the diagonal, in cell (1, 0)
        with pytest.raises(NotUpperTriangular):
            IntervalOrder(BicompMatrix(2, (1, 0), (0, 1)))

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_round_trip(self, n):
        for mat in sqrec_matrices(n):
            if not mat.is_upper_triangular():
                continue
            order = poset_of_matrix(mat)
            assert is_two_plus_two_free(order.n, order.relation_pairs())
            assert matrix_of_poset(order) == mat

    def test_chain_form_from_relation(self):
        order = poset_of_matrix(self.MAT)
        rebuilt = IntervalOrder.from_relation(7, order.relation_pairs())
        assert rebuilt == order


class TestTwoPlusTwoFree:
    def test_two_disjoint_chains(self):
        assert not is_two_plus_two_free(4, [(1, 2), (3, 4)])

    def test_chain_plus_isolated(self):
        assert is_two_plus_two_free(3, [(1, 2)])

    def test_antichain(self):
        assert is_two_plus_two_free(4, [])

    def test_matches_brute_force_search(self):
        # every strict partial order on 4 points, chain test vs direct search
        points = [1, 2, 3, 4]
        pairs = list(itertools.permutations(points, 2))
        count = 0
        for bits in itertools.product([0, 1], repeat=len(pairs)):
            rel = {p for p, b in zip(pairs, bits) if b}
            if any((y, x) in rel for (x, y) in rel):
                continue
            if any(
                (x, z) not in rel
                for (x, y) in rel
                for (y2, z) in rel
                if y2 == y
            ):
                continue
            count += 1
            brute_free = not any(
                (a, b) in rel
                and (c, d) in rel
                and all(
                    (x, y) not in rel and (y, x) not in rel
                    for x in (a, b)
                    for y in (c, d)
                )
                for (a, b) in rel
                for (c, d) in rel
                if {a, b} & {c, d} == set()
            )
            assert is_two_plus_two_free(4, rel) == brute_free
        assert count == 219  # labeled posets on 4 points


class TestDual:
    def test_antichain_self_dual(self):
        order = IntervalOrder.from_relation(3, [])
        assert dual_poset(order) == order

    def test_worked_dual_heights(self):
        order = poset_of_matrix(TestPosetCorrespondence.MAT)
        dual = dual_poset(order)
        # bottom heights of the worked configuration come off the dual levels
        cfg = config_of_poset(order, 8)
        assert cfg.heights[8:] == (2, 4, 7, 2, 4, 2, 4)
        assert dual.relation_pairs() == frozenset(
            (y, x) for (x, y) in order.relation_pairs()
        )

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_structural_dual_matches_reversed_relation(self, n):
        for mat in sqrec_matrices(n):
            if not mat.is_upper_triangular():
                continue
            order = poset_of_matrix(mat)
            via_formula = dual_poset(order)
            via_relation = IntervalOrder.from_relation(
                order.n, [(y, x) for (x, y) in order.relation_pairs()]
            )
            assert via_formula == via_relation
            assert dual_poset(via_formula) == order


class TestConfigOfPoset:
    def test_worked_fifteen_heights(self):
        order = poset_of_matrix(TestPosetCorrespondence.MAT)
        cfg = config_of_poset(order, 8)
        assert cfg.heights == (4, 7, 7, 1, 4, 1, 7, 0, 2, 4, 7, 2, 4, 2, 4)
        assert is_top_heavy(cfg)

    def test_single_element(self):
        order = IntervalOrder.from_relation(1, [])
        assert config_of_poset(order, 2).heights == (1, 0, 1)

    def test_two_chain(self):
        order = IntervalOrder.from_relation(2, [(1, 2)])
        cfg = config_of_poset(order, 3)
        mat = matrix_of_poset(order)
        assert cfg == config_of_matrix(mat)

    def test_ground_size_checked(self):
        order = IntervalOrder.from_relation(2, [(1, 2)])
        with pytest.raises(NotIntervalOrder):
            config_of_poset(order, 5)

    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_agrees_with_matrix_route(self, n):
        for mat in sqrec_matrices(n):
            if not mat.is_upper_triangular():
                continue
            order = poset_of_matrix(mat)
            assert config_of_poset(order, n) == config_of_matrix(mat)


class TestCounts:
    def test_minimal(self):
        assert count_minimal(2, 2) == 2
        for (m, n) in [(2, 2), (3, 3), (3, 4), (4, 4), (2, 6)]:
            ribbons = sum(1 for p in enumerate_para(m, n) if p.is_ribbon())
            assert ribbons == count_minimal(m, n)

    def test_minanz(self):
        assert count_minanz(3, 3) == 2
        for (m, n) in [(2, 2), (3, 3), (3, 4), (4, 4), (2, 6), (5, 3)]:
            inc = sum(1 for c in enumerate_rec_star(m, n) if is_minanz(c))
            assert inc == count_minanz(m, n)

    def test_sqrec(self):
        # 1, 5, 73, 2069: pairs of equal-length ordered set partitions
        assert [count_sqrec(n) for n in (2, 3, 4, 5)] == [1, 5, 73, 2069]
        for n in (2, 3, 4):
            assert sum(1 for _ in enumerate_minanz(n, n)) == count_sqrec(n)

    def test_minanz_guard_charges_the_exact_count(self):
        # sum_k k! S(m-1, k) * k! S(n-1, k), pairs of ordered set partitions
        # with k parts each; (4, 7) has 3613, more than Narayana(10, 4) = 1764
        for s in range(2, 11):
            for m in range(1, s):
                got = sum(1 for _ in enumerate_minanz(m, s - m))
                assert got == _count_all_minanz(m, s - m), (m, s - m)
        assert sum(1 for _ in enumerate_minanz(4, 7, max_objects=3613)) == 3613
        with pytest.raises(ResourceLimit):
            next(enumerate_minanz(4, 7, max_objects=3612))

    def test_stirling(self):
        assert stirling2(0, 0) == 1
        assert stirling2(4, 2) == 7
        assert stirling2(5, 3) == 25
        assert stirling2(3, 5) == 0

    def test_narayana(self):
        assert narayana_number(4, 2) == 6
        assert narayana_number(9, 5) == 1764


class TestNonzeroStar:
    def test_reports(self):
        r2 = count_nonzero_star(2)
        assert (r2.count, r2.formula_value, r2.matches) == (1, 1, True)
        r3 = count_nonzero_star(3)
        assert r3.count == 8
        assert r3.formula_value == 12
        assert not r3.matches
        r4 = count_nonzero_star(4)
        assert (r4.count, r4.formula_value) == (75, 140)

    def test_counts_match_walk_numbers(self):
        # independent oracle: walks of length 2n-3 from (0,0) to (0,1) with
        # unit steps staying in the upper half-plane
        from functools import lru_cache

        def walks(n):
            length = 2 * n - 3

            @lru_cache(maxsize=None)
            def count(k, x, y):
                if k == length:
                    return 1 if (x, y) == (0, 1) else 0
                total = 0
                for dx, dy in ((0, 1), (0, -1), (1, 0), (-1, 0)):
                    if y + dy >= 0:
                        total += count(k + 1, x + dx, y + dy)
                return total

            return count(0, 0, 0)

        for n in range(2, 7):
            assert count_nonzero_star(n).count == walks(n)
