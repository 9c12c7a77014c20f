"""Complete-graph sandpile, Dyck paths, Haglund bounce, Catalan link."""

import itertools
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara.bivar import BivarPoly
from sandnara.errors import NotRecurrent, NotSorted
from sandnara.kn import (
    DyckPath,
    KnConfig,
    bounce_link_check,
    catalan,
    cn_poly,
    diag,
    diag_from_dyck,
    dyck_area,
    dyck_of,
    enumerate_dyck,
    enumerate_sorted_recurrent,
    haglund_bounce,
    haglund_bounce_stat,
    is_parking_function,
    kn_canon_top,
    kn_is_recurrent,
    kn_is_recurrent_burning,
    olson_check,
    sn_poly,
)


class TestParking:
    def test_examples(self):
        assert is_parking_function((1, 1, 2))
        assert not is_parking_function((2, 2))
        assert is_parking_function((1,) * 9)

    @settings(max_examples=200)
    @given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
    def test_matches_permutation_definition(self, seq):
        brute = any(
            all(i + 1 >= seq[pi[i]] for i in range(len(seq)))
            for pi in itertools.permutations(range(len(seq)))
        )
        assert is_parking_function(seq) == brute


def _pollak_parking(word: list[int]) -> list[int]:
    """The parking function among the cyclic shifts of a word over
    Z_{k+1} of length k (Pollak: exactly one shift parks), with values
    1..k; a uniform word gives a uniform parking function."""
    k = len(word)
    for shift in range(k + 1):
        cand = [(v + shift) % (k + 1) + 1 for v in word]
        if is_parking_function(cand):
            return cand
    raise AssertionError("no parking rotation")  # pragma: no cover - Pollak


# K_n draws for n <= 30: a word over Z_n of length n - 1, read either as a
# parking function by Pollak's rotation, whose complement is recurrent, or
# reduced mod n - 1 to an arbitrary stable state.
kn_draws = st.integers(2, 30).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1),
        st.booleans(),
    )
)


class TestRecurrence:
    def test_three_vertex_classification(self):
        rec = {
            x
            for x in itertools.product(range(2), repeat=2)
            if kn_is_recurrent(KnConfig(3, x))
        }
        assert rec == {(0, 1), (1, 0), (1, 1)}
        assert not kn_is_recurrent(KnConfig(3, (0, 0)))

    def test_six_vertex_example(self):
        assert kn_is_recurrent(KnConfig(6, (4, 4, 3, 2, 0)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_parking_equals_burning(self, n):
        for x in itertools.product(range(n - 1), repeat=n - 1):
            cfg = KnConfig(n, x)
            assert kn_is_recurrent(cfg) == kn_is_recurrent_burning(cfg)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(kn_draws)
    def test_parking_equals_burning_draws(self, draw):
        # past the exhaustive n <= 5, up to n = 30
        n, word, parking = draw
        if parking:
            heights = [n - 1 - v for v in _pollak_parking(word)]
        else:
            heights = [v % (n - 1) for v in word]
        cfg = KnConfig(n, heights)
        assert kn_is_recurrent(cfg) == kn_is_recurrent_burning(cfg)
        assert kn_is_recurrent_burning(cfg) or not parking

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7])
    def test_recurrent_count(self, n):
        cnt = sum(
            1
            for x in itertools.product(range(n - 1), repeat=n - 1)
            if kn_is_recurrent(KnConfig(n, x))
        )
        assert cnt == n ** (n - 2)


class TestCanonTop:
    def test_worked_example(self):
        waves = kn_canon_top(KnConfig(6, (4, 4, 3, 2, 0)))
        assert waves == (frozenset({1, 2}), frozenset({3, 4}), frozenset({5}))

    def test_smallest(self):
        assert kn_canon_top(KnConfig(2, (0,))) == (frozenset({1}),)

    def test_pair_wave(self):
        assert kn_canon_top(KnConfig(3, (1, 1))) == (frozenset({1, 2}),)

    def test_not_recurrent(self):
        with pytest.raises(NotRecurrent):
            kn_canon_top(KnConfig(3, (0, 0)))


class TestSortedRecurrent:
    def test_three_vertices(self):
        got = {cfg.heights for cfg in enumerate_sorted_recurrent(3)}
        assert got == {(1, 0), (1, 1)}

    def test_two_vertices(self):
        assert [c.heights for c in enumerate_sorted_recurrent(2)] == [(0,)]

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8])
    def test_catalan_count(self, n):
        assert sum(1 for _ in enumerate_sorted_recurrent(n)) == catalan(n - 1)

    def test_members_satisfy_inequalities(self):
        for cfg in enumerate_sorted_recurrent(5):
            assert cfg.is_sorted()
            assert all(
                v >= 5 - 1 - i for i, v in enumerate(cfg.heights, start=1)
            )
            assert kn_is_recurrent(cfg)


class TestDiagrams:
    def test_worked_seven_vertex(self):
        poly = diag(KnConfig(7, (5, 5, 3, 2, 2, 1)))
        assert (poly.m, poly.n) == (7, 6)
        assert poly.area == 15
        assert dyck_of(poly).word == "SSWWSWSSWSWW"

    def test_smallest(self):
        poly = diag(KnConfig(2, (0,)))
        assert poly.cells().cells == frozenset({(1, 1), (2, 1)})
        assert dyck_of(poly).word == "SW"

    def test_three_vertex_paths(self):
        assert dyck_of(diag(KnConfig(3, (1, 1)))).word == "SSWW"
        assert dyck_of(diag(KnConfig(3, (1, 0)))).word == "SWSW"

    def test_unsorted_rejected(self):
        with pytest.raises(NotSorted):
            diag(KnConfig(3, (0, 1)))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_dyck_round_trip(self, n):
        words = set()
        for cfg in enumerate_sorted_recurrent(n):
            path = dyck_of(diag(cfg))
            assert diag_from_dyck(path) == cfg
            words.add(path.word)
        assert len(words) == catalan(n - 1)


class TestDyckPath:
    def test_validation(self):
        with pytest.raises(ValueError):
            DyckPath("WS")
        with pytest.raises(ValueError):
            DyckPath("SWW")
        with pytest.raises(ValueError):
            DyckPath("SX")

    def test_json(self):
        p = DyckPath("SSWW")
        assert p.to_json() == {"n": 2, "word": "SSWW"}
        assert DyckPath.from_json(p.to_json()) == p

    def test_enumeration_order_and_count(self):
        words = [p.word for p in enumerate_dyck(3)]
        assert words[0] == "SSSWWW"
        assert words[-1] == "SWSWSW"
        assert len(words) == catalan(3) == 5


class TestHaglundBounce:
    def test_worked_example(self):
        path = DyckPath("SSWSWSWWSW")
        assert dyck_area(path) == 3
        assert haglund_bounce(path) == (2, 2, 1)
        assert haglund_bounce_stat(path) == 4

    def test_staircase(self):
        path = DyckPath("SW" * 4)
        assert dyck_area(path) == 0
        assert haglund_bounce(path) == (1, 1, 1, 1)

    def test_full_corner(self):
        path = DyckPath("SSSSWWWW")
        assert dyck_area(path) == 6
        assert haglund_bounce(path) == (4,)
        assert haglund_bounce_stat(path) == 0

    def test_no_turn_at_mere_vertex(self):
        # the third south run passes the shared vertex (3, 2) and only turns
        # at the west step leaving (3, 1)
        path = DyckPath("SSWSWSWWSW")
        assert haglund_bounce(path)[1] == 2


class TestPolynomials:
    def test_c2(self):
        assert cn_poly(2) == BivarPoly({(1, 0): 1, (0, 1): 1})

    def test_s3(self):
        assert sn_poly(3) == BivarPoly({(5, 4): 1, (4, 6): 1})

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_olson_identity(self, n):
        assert olson_check(n).holds

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bounce_link(self, n):
        assert bounce_link_check(n).holds

    def test_cn_specializes_to_catalan(self):
        for n in (2, 3, 4, 5):
            assert cn_poly(n).eval_at(1, 1) == catalan(n)

    def test_cn_memory_follows_terms(self):
        # 16,796 Dyck paths fold into 725 terms; holding one entry per path
        # would peak above 2 MB
        cn_poly(3)
        tracemalloc.start()
        try:
            p = cn_poly(10)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(p) == 725 and p.eval_at(1, 1) == catalan(10)
        assert peak < 1_000_000


class TestAreaRelation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_affine_constant(self, n):
        for cfg in enumerate_sorted_recurrent(n):
            poly = diag(cfg)
            assert poly.area == sum(cfg.heights) + (n - 1) * (6 - n) // 2
            assert poly.area == dyck_area(dyck_of(poly)) + 2 * (n - 1)

    def test_fixture_file(self):
        import importlib.resources as resources
        import json

        with resources.files("sandnara").joinpath(
            "data/kn_area_relation.json"
        ).open() as fh:
            data = json.load(fh)
        for key, val in data["constants"].items():
            n = int(key)
            assert val == (n - 1) * (6 - n) // 2
        assert data["closed_form_matches_all_constants"]
        assert data["validated_max_n"] == 8
