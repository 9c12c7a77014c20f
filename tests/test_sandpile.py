"""Sandpile dynamics, recurrence, and the decorated-polyomino correspondence."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara import sandpile
from sandnara.classes import (
    config_of_matrix,
    config_of_poset,
    is_minanz,
    is_top_heavy,
    matrix_of_config,
    poset_of_matrix,
    wave,
)
from sandnara.errors import NotRecurrent, ResourceLimit
from sandnara.polyomino import HeightSeqs, cells_from_heights, para_from_paths
from sandnara.sandpile import (
    BipartiteConfig,
    DecoratedPolyomino,
    burn,
    canon_top,
    cell_image,
    config_of_para,
    count_rec,
    count_stable,
    decorate,
    enumerate_rec,
    enumerate_rec_star,
    inc_decomp,
    is_recurrent,
    level,
    stabilize,
    topple_random,
    undecorate,
)


def all_stable(m, n):
    for t in itertools.product(range(n), repeat=m - 1):
        for b in itertools.product(range(m), repeat=n):
            yield BipartiteConfig(m, n, t + b)


class TestStabilize:
    def test_worked_example(self):
        final, counts = stabilize(BipartiteConfig(3, 4, (2, 0, 3, 2, 1, 3)))
        assert final.heights == (1, 3, 1, 0, 2, 1)

    def test_second_example(self):
        final, _ = stabilize(BipartiteConfig(3, 4, (0, 2, 2, 3, 2, 3)))
        assert final.heights == (0, 2, 1, 2, 1, 2)

    def test_already_stable(self):
        cfg = BipartiteConfig(2, 2, (1, 1, 0))
        final, counts = stabilize(cfg)
        assert final == cfg
        assert counts == (0, 0, 0)

    def test_abelian_random_policies(self):
        rng = random.Random(7)
        for m in range(1, 13):
            for n in range(1, 13):
                heights = tuple(rng.randrange(0, 2 * (m + n)) for _ in range(m + n - 1))
                cfg = BipartiteConfig(m, n, heights)
                assert topple_random(cfg, rng) == stabilize(cfg)


class TestCanonTop:
    def test_non_recurrent_example(self):
        trace = canon_top(BipartiteConfig(3, 4, (2, 0, 2, 1, 0, 2)))
        assert trace.to_json()["waves"] == [
            {"side": "bottom", "vertices": [3, 6]},
            {"side": "top", "vertices": [1]},
            {"side": "bottom", "vertices": [4]},
        ]

    def test_recurrent_example(self):
        trace = canon_top(BipartiteConfig(3, 4, (0, 2, 1, 2, 1, 2)))
        assert trace.bottom_waves() == (frozenset({4, 6}), frozenset({3, 5}))
        assert trace.top_waves() == (frozenset({2}), frozenset({1}))

    def test_empty_trace(self):
        assert canon_top(BipartiteConfig(2, 2, (0, 0, 0))).waves == ()

    def test_unstable_rejected(self):
        with pytest.raises(ValueError):
            canon_top(BipartiteConfig(2, 2, (5, 0, 0)))


class TestRecurrence:
    def test_examples(self):
        assert is_recurrent(BipartiteConfig(3, 4, (0, 2, 1, 2, 1, 2)))
        assert not is_recurrent(BipartiteConfig(3, 4, (2, 0, 2, 1, 0, 2)))
        assert not is_recurrent(
            BipartiteConfig(7, 4, (2, 1, 2, 0, 0, 2, 6, 1, 5, 1))
        )

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3), (3, 4)])
    def test_image_polyomino_iff_recurrent(self, m, n):
        for cfg in all_stable(m, n):
            assert is_recurrent(cfg) == (cell_image(cfg).as_para() is not None)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3), (2, 4)])
    def test_wave_sizes_equal_bounce_runs(self, m, n):
        for cfg in all_stable(m, n):
            if not is_recurrent(cfg):
                continue
            poly = cell_image(cfg).as_para()
            assert canon_top(cfg).sizes() == poly.bounce_seq()

    def test_stable_count(self):
        assert sum(1 for _ in all_stable(3, 2)) == count_stable(3, 2) == 36


@st.composite
def stable_states(draw):
    """A stable state on K_{m,n}, 2 <= m, n <= 12.  Half of the draws add it
    to the maximal stable state and stabilize, which always lands in Rec."""
    m, n = draw(st.integers(2, 12)), draw(st.integers(2, 12))
    top = draw(st.lists(st.integers(0, n - 1), min_size=m - 1, max_size=m - 1))
    bottom = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    if draw(st.booleans()):
        top = [h + n - 1 for h in top]
        bottom = [h + m - 1 for h in bottom]
        return stabilize(BipartiteConfig(m, n, top + bottom))[0]
    return BipartiteConfig(m, n, top + bottom)


class TestBurningRoutes:
    """The burning run against the cell-image route at random sizes."""

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(stable_states())
    def test_burning_matches_cell_image(self, cfg):
        poly = cell_image(cfg).as_para()
        assert is_recurrent(cfg) == (poly is not None)
        if poly is not None:
            assert canon_top(cfg).sizes() == poly.bounce_seq()
            dec = decorate(cfg)
            assert decorate(undecorate(dec)) == dec


class TestOneBurn:
    """Each predicate and map reads one burning run."""

    TOP_HEAVY = BipartiteConfig(8, 8, (4, 7, 7, 1, 4, 1, 7, 0, 2, 4, 7, 2, 4, 2, 4))

    @pytest.fixture
    def burns(self, monkeypatch):
        calls = []
        real = sandpile.burn

        def counted(config):
            calls.append(config)
            return real(config)

        monkeypatch.setattr(sandpile, "burn", counted)
        return calls

    @pytest.mark.parametrize(
        "fn",
        [is_recurrent, canon_top, decorate, is_minanz, is_top_heavy, matrix_of_config],
        ids=lambda fn: fn.__name__,
    )
    def test_burns_once(self, burns, fn):
        assert fn(self.TOP_HEAVY)
        assert len(burns) == 1

    def test_unstable(self, burns):
        cfg = BipartiteConfig(8, 8, (9,) + self.TOP_HEAVY.heights[1:])
        assert is_recurrent(cfg) is False
        with pytest.raises(ValueError):
            canon_top(cfg)

    def test_unstable_is_not_recurrent(self):
        # burn refuses an unstable state; the callers that need Rec say why
        cfg = BipartiteConfig(8, 8, (9,) + self.TOP_HEAVY.heights[1:])
        with pytest.raises(NotRecurrent, match="is not recurrent"):
            sandpile._require_recurrent(cfg)
        with pytest.raises(NotRecurrent):
            is_minanz(cfg)

    @pytest.mark.parametrize(
        "fn", [is_minanz, decorate, matrix_of_config], ids=lambda fn: fn.__name__
    )
    def test_not_recurrent(self, burns, fn):
        with pytest.raises(NotRecurrent):
            fn(BipartiteConfig(8, 8, (0,) * 15))
        assert len(burns) == 1


class TestBurnMemo:
    """The burning run is kept on the configuration object that was burnt."""

    TOP_HEAVY = TestOneBurn.TOP_HEAVY

    @pytest.fixture
    def runs(self, monkeypatch):
        """Configurations that `burn` actually ran on (not answered from
        the memo)."""
        ran = []
        real = sandpile.burn

        def counted(config):
            if config._burnt is None:
                ran.append(config)
            return real(config)

        monkeypatch.setattr(sandpile, "burn", counted)
        return ran

    def fresh(self):
        return BipartiteConfig(8, 8, self.TOP_HEAVY.heights)

    def test_same_result_object(self):
        cfg = self.fresh()
        assert cfg._burnt is None
        burnt = burn(cfg)
        assert burn(cfg) is burnt and cfg._burnt is burnt

    def test_maps_share_one_run(self, runs):
        cfg = self.fresh()
        assert is_recurrent(cfg) and is_minanz(cfg) and is_top_heavy(cfg)
        decorate(cfg)
        canon_top(cfg)
        matrix_of_config(cfg)
        assert [wave(cfg, v) for v in (1, 2, 8)] == [2, 1, 4]
        assert runs == [cfg]

    def test_equal_objects_burn_separately(self, runs):
        a, b = self.fresh(), self.fresh()
        assert is_recurrent(a) and is_recurrent(b)
        assert len(runs) == 2 and runs[0] is a and runs[1] is b

    def test_unstable_keeps_nothing(self):
        cfg = BipartiteConfig(8, 8, (9,) + self.TOP_HEAVY.heights[1:])
        for _ in range(2):
            with pytest.raises(ValueError, match="requires a stable configuration"):
                burn(cfg)
            assert cfg._burnt is None

    def test_outputs_come_back_unburned(self):
        cfg = self.fresh()
        mat = matrix_of_config(cfg)
        dec = decorate(cfg)
        outputs = [
            stabilize(BipartiteConfig(3, 4, (2, 0, 3, 2, 1, 3)))[0],
            stabilize(cfg)[0],
            undecorate(dec),
            config_of_matrix(mat),
            config_of_poset(poset_of_matrix(mat), 8),
            config_of_para(dec.poly),
        ]
        for out in outputs:
            assert out._burnt is None, out
        assert outputs[1] == outputs[3] == outputs[4] == cfg


class TestIncDecomp:
    def test_worked_example(self):
        cfg = BipartiteConfig(5, 7, (5, 2, 1, 2, 4, 2, 1, 3, 2, 2, 1))
        inc, perm = inc_decomp(cfg)
        assert inc.heights == (1, 2, 2, 5, 1, 1, 2, 2, 2, 3, 4)
        assert perm == (4, 2, 1, 3, 11, 7, 5, 10, 8, 9, 6)

    def test_already_increasing(self):
        cfg = BipartiteConfig(3, 3, (0, 1, 0, 1, 2))
        inc, perm = inc_decomp(cfg)
        assert inc == cfg
        assert perm == (1, 2, 3, 4, 5)

    def test_small_case(self):
        inc, perm = inc_decomp(BipartiteConfig(2, 2, (1, 1, 0)))
        assert inc.heights == (1, 0, 1)
        assert perm == (1, 3, 2)

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 2)])
    def test_round_trip(self, m, n):
        for cfg in all_stable(m, n):
            inc, perm = inc_decomp(cfg)
            assert inc.top == tuple(sorted(inc.top))
            assert inc.bottom == tuple(sorted(inc.bottom))
            rebuilt = tuple(inc.heights[perm[i] - 1] for i in range(m + n - 1))
            assert rebuilt == cfg.heights

    def test_wave_sizes_invariant_under_sorting(self):
        for cfg in all_stable(3, 3):
            inc, _ = inc_decomp(cfg)
            assert canon_top(cfg).sizes() == canon_top(inc).sizes()

    @pytest.mark.parametrize("m,n", itertools.product(range(1, 4), repeat=2))
    def test_perm_is_lexicographically_smallest(self, m, n):
        # brute force over every block-preserving pi with sorted[pi(i)] = u_i
        for heights in itertools.product(range(3), repeat=m + n - 1):
            cfg = BipartiteConfig(m, n, heights)
            want_inc = tuple(sorted(cfg.top)) + tuple(sorted(cfg.bottom))
            fits = [
                top + bottom
                for top in itertools.permutations(range(1, m))
                for bottom in itertools.permutations(range(m, m + n))
                if all(want_inc[p - 1] == u for p, u in zip(top + bottom, heights))
            ]
            inc, perm = inc_decomp(cfg)
            assert inc.heights == want_inc
            assert perm == min(fits)


class TestCellImage:
    def test_disconnected_example(self):
        cfg = BipartiteConfig(7, 4, (2, 1, 2, 0, 0, 2, 6, 1, 5, 1))
        inc, _ = inc_decomp(cfg)
        assert inc.heights == (0, 0, 1, 2, 2, 2, 1, 1, 5, 6)
        cells = cell_image(cfg)
        assert cells == cells_from_heights(
            HeightSeqs(7, 4, (0, 0, 1, 2, 2, 2), (1, 1, 5, 6))
        )
        assert cells.as_para() is None

    def test_l_shape(self):
        cfg = BipartiteConfig(2, 2, (0, 1, 1))
        assert is_recurrent(cfg)
        cells = cell_image(cfg)
        assert cells.cells == frozenset({(1, 1), (2, 1), (2, 2)})

    def test_full_square(self):
        cells = cell_image(BipartiteConfig(2, 2, (1, 1, 1)))
        assert cells.cells == frozenset({(1, 1), (1, 2), (2, 1), (2, 2)})


class TestConfigOfPara:
    def test_full_square(self):
        p = cell_image(BipartiteConfig(2, 2, (1, 1, 1))).as_para()
        assert config_of_para(p).heights == (1, 1, 1)

    def test_single_cell(self):
        p = para_from_paths("NE", "EN")
        assert config_of_para(p).heights == (0,)

    def test_first_worked_shape(self):
        p = para_from_paths("NENEENEENEE", "EEENENEENEN")
        cfg = config_of_para(p)
        assert cfg.heights == (0, 1, 1, 2, 2, 3, 2, 3, 5, 6)
        assert is_recurrent(cfg)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 3), (2, 4), (4, 2)])
    def test_mutual_inverse_with_cell_image(self, m, n):
        for cfg in enumerate_rec_star(m, n):
            poly = cell_image(cfg).as_para()
            assert config_of_para(poly) == cfg


class TestLevel:
    def test_examples(self):
        assert level(BipartiteConfig(2, 2, (0, 1, 1))) == 0
        assert level(BipartiteConfig(2, 2, (1, 1, 1))) == 1

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (3, 3), (2, 4)])
    def test_equals_area_offset(self, m, n):
        for cfg in enumerate_rec(m, n):
            poly = cell_image(cfg).as_para()
            assert level(cfg) == poly.area - (m + n - 1)


class TestDecorated:
    def test_worked_example(self):
        dec = decorate(BipartiteConfig(3, 4, (0, 2, 1, 2, 1, 2)))
        assert dec.A == (frozenset({2}), frozenset({1}))
        assert dec.B == (frozenset({4, 6}), frozenset({3, 5}))

    def test_display_triple_is_well_formed(self):
        # 7 x 3 shape with bounce (1, 3, 2, 3) and a hand-picked decoration
        h = HeightSeqs(7, 3, (0, 0, 1, 2, 2, 2), (3, 3, 6))
        poly = cells_from_heights(h).as_para()
        dec = DecoratedPolyomino(
            poly,
            (frozenset({1, 4, 5}), frozenset({2, 3, 6})),
            (frozenset({8}), frozenset({7, 9})),
        )
        cfg = undecorate(dec)
        assert decorate(cfg) == dec

    def test_smallest_graph(self):
        dec = decorate(BipartiteConfig(1, 1, (0,)))
        assert dec.A == ()
        assert dec.B == (frozenset({1}),)
        assert dec.poly == para_from_paths("NE", "EN")

    def test_type_mismatch_rejected(self):
        poly = cell_image(BipartiteConfig(2, 2, (1, 1, 1))).as_para()
        # bounce is (2, 1): B needs one part of size 2
        with pytest.raises(ValueError):
            DecoratedPolyomino(poly, (frozenset({1}),), (frozenset({2}), frozenset({3})))

    def test_not_recurrent_rejected(self):
        with pytest.raises(NotRecurrent):
            decorate(BipartiteConfig(2, 2, (0, 0, 0)))

    @pytest.mark.parametrize("m,n", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_section_round_trip(self, m, n):
        # decorate is onto the decorated family and undecorate is a section:
        # undecorate(decorate(u)) shares the decoration, and decorate o
        # undecorate is the identity on decorations.
        images = set()
        for cfg in enumerate_rec(m, n):
            dec = decorate(cfg)
            images.add((dec.poly, dec.A, dec.B))
            again = undecorate(dec)
            assert decorate(again) == dec
            assert inc_decomp(again)[0] == inc_decomp(cfg)[0]

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_preimage_counts(self, m, n):
        # decorate loses the ordering of equal-wave vertices with distinct
        # heights; the preimage count of a decoration is the product over
        # waves of multiset permutation counts of the wave heights.
        by_dec: dict = {}
        for cfg in enumerate_rec(m, n):
            dec = decorate(cfg)
            by_dec.setdefault((dec.poly, dec.A, dec.B), []).append(cfg)
        total = 0
        for (poly, A, B), cfgs in by_dec.items():
            expected = 1
            sample = cfgs[0]
            trace = canon_top(sample)
            for side_waves in (trace.top_waves(), trace.bottom_waves()):
                for wave_set in side_waves:
                    vals = sorted(sample.heights[v - 1] for v in wave_set)
                    perms = math.factorial(len(vals))
                    for v in set(vals):
                        perms //= math.factorial(vals.count(v))
                    expected *= perms
            assert len(cfgs) == expected
            total += len(cfgs)
        assert total == count_rec(m, n)


class TestDistinctPerms:
    def test_matches_sorted_permutation_set(self):
        # every multiset over {0, 1, 2} of length 0..7, given in descending order
        for k in range(8):
            for vals in itertools.combinations_with_replacement(range(3), k):
                want = sorted(set(itertools.permutations(vals)))
                assert list(sandpile._distinct_perms(vals[::-1])) == want


class TestEnumerateRec:
    def test_counts(self):
        assert sum(1 for _ in enumerate_rec(2, 2)) == 4
        assert sum(1 for _ in enumerate_rec_star(2, 2)) == 3
        assert sum(1 for _ in enumerate_rec(3, 4)) == 432 == count_rec(3, 4)

    @pytest.mark.parametrize("m,n", [(2, 2), (3, 2), (2, 3), (3, 3)])
    def test_matches_burning_filter(self, m, n):
        got = sorted(cfg.heights for cfg in enumerate_rec(m, n))
        want = sorted(cfg.heights for cfg in all_stable(m, n) if is_recurrent(cfg))
        assert got == want

    def test_all_yielded_recurrent_and_distinct(self):
        seen = set()
        for cfg in enumerate_rec(3, 3):
            assert is_recurrent(cfg)
            seen.add(cfg.heights)
        assert len(seen) == count_rec(3, 3)

    def test_star_yields_increasing(self):
        for cfg in enumerate_rec_star(3, 4):
            assert cfg.top == tuple(sorted(cfg.top))
            assert cfg.bottom == tuple(sorted(cfg.bottom))
            assert is_recurrent(cfg)

    def test_cap(self):
        with pytest.raises(ResourceLimit):
            list(enumerate_rec(6, 6, max_objects=10))
