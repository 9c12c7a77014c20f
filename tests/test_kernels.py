"""The per-object sandpile kernels and polyomino conversions against
reference transcriptions of their definitions (tests/sandpile_oracles.py):
exhaustively on small boxes, and drawn at random sizes up to 12."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara.classes import (
    BicompMatrix,
    IntervalOrder,
    config_of_matrix,
    config_of_poset,
    dual_poset,
    enumerate_minanz,
    matrix_of_config,
    matrix_of_poset,
    poset_of_matrix,
)
from sandnara.errors import (
    NotIntervalOrder,
    NotRecurrent,
    NotUpperTriangular,
    SandnaraError,
)
from sandnara.kn import DyckPath, KnConfig, diag, diag_from_dyck, dyck_of, enumerate_dyck
from sandnara.polyomino import (
    CellSet,
    HeightSeqs,
    ParaPolyomino,
    cells_from_heights,
    enumerate_para,
)
from sandnara.sandpile import (
    BipartiteConfig,
    DecoratedPolyomino,
    burn,
    cell_image,
    decorate,
    stabilize,
)

from sandpile_oracles import (
    burn_waves,
    chain_form_by_rules,
    chain_of_rows,
    check_bicomp_words,
    check_bipartite_heights,
    check_decoration,
    check_kn_heights,
    dual_chain,
    heights_of_chain,
    heights_of_matrix,
    kn_diag_profiles,
    kn_dyck_word,
    kn_heights_of_dyck,
    matrix_rows_of_config,
    profiles_by_column_scan,
    rows_of_chain,
    sorted_cell_profiles,
    stabilize_sweeps,
    wave_word_of,
)

SIZES = st.integers(1, 12)
DIFFERENTIAL = settings(max_examples=50, derandomize=True, deadline=None)


def _into_rec(cfg):
    """Add the maximal stable state and stabilize, which always lands in Rec."""
    m, n = cfg.m, cfg.n
    loaded = [h + n - 1 for h in cfg.top] + [h + m - 1 for h in cfg.bottom]
    return stabilize(BipartiteConfig(m, n, loaded))[0]


@st.composite
def stable_states(draw):
    """A stable state on K_{m,n}, half of the draws pushed into Rec."""
    m, n = draw(SIZES), draw(SIZES)
    top = draw(st.lists(st.integers(0, n - 1), min_size=m - 1, max_size=m - 1))
    bottom = draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    cfg = BipartiteConfig(m, n, top + bottom)
    return _into_rec(cfg) if draw(st.booleans()) else cfg


@st.composite
def loaded_states(draw):
    """Any state on K_{m,n}, up to several topples per vertex."""
    m, n = draw(SIZES), draw(SIZES)
    heights = draw(st.lists(st.integers(0, 4 * (m + n)), min_size=m + n - 1, max_size=m + n - 1))
    return BipartiteConfig(m, n, heights)


@st.composite
def cell_sets(draw):
    """Cell sets that are polyominoes (cell images of recurrent states), cell
    images of arbitrary sorted heights, and column runs with gaps, empty
    columns and crossing profiles."""
    kind = draw(st.sampled_from(["recurrent", "heights", "columns"]))
    if kind == "recurrent":
        return cell_image(_into_rec(draw(stable_states())))
    m, n = draw(SIZES), draw(SIZES)
    if kind == "heights":
        a = sorted(draw(st.lists(st.integers(0, n - 1), min_size=m - 1, max_size=m - 1)))
        b = sorted(draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n)))
        return cells_from_heights(HeightSeqs(m, n, tuple(a), tuple(b)))
    cells = set()
    for i in range(1, m + 1):
        low = draw(st.integers(1, n))
        rows = set(range(low, draw(st.integers(low - 1, n)) + 1))  # may be empty
        if rows and draw(st.booleans()):
            rows.discard(draw(st.sampled_from(sorted(rows))))  # gap or shorter run
        cells |= {(i, j) for j in rows}
    return CellSet(m, n, frozenset(cells))


@st.composite
def bicomp_matrices(draw, upper=False):
    """A k x k bicomposition matrix on {1..n-1}, 2 <= n <= 12: two random
    surjections onto k blocks give each element its row and column.  With
    upper=True the matrix is upper-triangular: the first element drawn for
    each row sits on the diagonal, the others on or right of it."""
    ground = draw(st.integers(1, 11))
    k = draw(st.integers(1, ground))

    def surjection():
        labels = draw(st.permutations(range(1, ground + 1)))
        return {
            x: pos if pos < k else draw(st.integers(0, k - 1))
            for pos, x in enumerate(labels)
        }

    rows = surjection()
    if upper:
        cols, on_diagonal = {}, set()
        for x in draw(st.permutations(range(1, ground + 1))):
            if rows[x] in on_diagonal:
                cols[x] = draw(st.integers(rows[x], k - 1))
            else:
                on_diagonal.add(rows[x])
                cols[x] = rows[x]
    else:
        cols = surjection()
    cells = [[set() for _ in range(k)] for _ in range(k)]
    for x in range(1, ground + 1):
        cells[rows[x]][cols[x]].add(x)
    return BicompMatrix.from_lists(cells)


class TestAgainstOracles:
    @DIFFERENTIAL
    @given(stable_states())
    def test_burn(self, cfg):
        check_burn(cfg)

    def test_burn_exhaustive(self):
        for s in range(2, 8):
            for m in range(1, s):
                n = s - m
                for t in itertools.product(range(n), repeat=m - 1):
                    for b in itertools.product(range(m), repeat=n):
                        check_burn(BipartiteConfig(m, n, t + b))

    @DIFFERENTIAL
    @given(loaded_states())
    def test_stabilize(self, cfg):
        final, counts = stabilize(cfg)
        assert (final.heights, counts) == stabilize_sweeps(cfg.m, cfg.n, cfg.heights)

    @DIFFERENTIAL
    @given(cell_sets())
    def test_as_para(self, cells):
        poly = cells.as_para()
        want = profiles_by_column_scan(cells.m, cells.n, cells.cells)
        if want is None:
            assert poly is None
        else:
            assert poly == ParaPolyomino(cells.m, cells.n, *want)
            assert poly.cells() == cells

    @DIFFERENTIAL
    @given(bicomp_matrices())
    def test_config_of_matrix(self, mat):
        check_matrix_and_poset(mat)

    @DIFFERENTIAL
    @given(bicomp_matrices(upper=True))
    def test_poset_maps(self, mat):
        check_matrix_and_poset(mat)

    def test_matrix_and_poset_maps_exhaustive(self):
        # every bicomposition matrix on {1..n-1}, n <= 5, is the image of
        # exactly one square minanz state
        for n in range(2, 6):
            for cfg in enumerate_minanz(n, n):
                mat = matrix_of_config(cfg)
                assert config_of_matrix(mat) == cfg
                check_matrix_and_poset(mat)


def check_burn(cfg):
    """Verdict, waves and wave word of `burn` against the literal waves."""
    burnt = burn(cfg)
    recurrent, waves = burn_waves(cfg.m, cfg.n, cfg.heights)
    assert (burnt.recurrent, burnt.trace.waves) == (recurrent, waves)
    assert burnt.wave_word == wave_word_of(cfg.m, cfg.n, waves)


def _same_value(a, b):
    assert a == b and hash(a) == hash(b)


def _chain_json(n, downsets, levels):
    return {
        "n": n,
        "downsets": [sorted(d) for d in downsets],
        "levels": [sorted(lv) for lv in levels],
    }


def check_matrix_and_poset(mat):
    """The word-based matrix and poset maps on one matrix against the
    set-based references, through every construction route."""
    rows = mat.rows
    k = len(rows)
    assert mat.to_json() == {"k": k, "rows": [[sorted(c) for c in r] for r in rows]}
    _same_value(BicompMatrix.from_json(mat.to_json()), mat)
    _same_value(BicompMatrix.from_lists(rows), mat)
    cfg = config_of_matrix(mat)
    assert cfg.heights == heights_of_matrix(rows)
    assert matrix_rows_of_config(cfg.n, cfg.heights) == rows
    _same_value(matrix_of_config(cfg), mat)
    upper = not any(rows[i][j] for i in range(k) for j in range(i))
    assert mat.is_upper_triangular() == upper
    if not upper:
        with pytest.raises(NotUpperTriangular):
            poset_of_matrix(mat)
        return
    chain = chain_of_rows(rows)
    order = poset_of_matrix(mat)
    assert (order.n, order.downsets, order.levels) == chain
    assert order.to_json() == _chain_json(*chain)
    _same_value(IntervalOrder.from_json(order.to_json()), order)
    _same_value(IntervalOrder.from_relation(order.n, order.relation_pairs()), order)
    assert matrix_of_poset(order).rows == rows_of_chain(*chain)
    dual = dual_poset(order)
    assert (dual.n, dual.downsets, dual.levels) == dual_chain(*chain)
    assert dual.to_json() == _chain_json(*dual_chain(*chain))
    assert config_of_poset(order, cfg.n).heights == heights_of_chain(cfg.n, *chain[1:])


# -- conversions between polyomino representations ---------------------------


def _outcome(f, *args):
    """f(*args), or the type of the error it raises."""
    try:
        return f(*args)
    except (SandnaraError, ValueError) as exc:
        return type(exc)


def _decorated(cfg):
    dec = decorate(cfg)
    return (dec.poly.top, dec.poly.bot), dec.A, dec.B


def _decorated_by_oracles(cfg):
    recurrent, waves = burn_waves(cfg.m, cfg.n, cfg.heights)
    if not recurrent:
        raise NotRecurrent("not recurrent")
    return (
        sorted_cell_profiles(cfg.m, cfg.n, cfg.heights),
        tuple(s for side, s in waves if side == "top"),
        tuple(s for side, s in waves if side == "bottom"),
    )


def check_decorate(cfg):
    assert _outcome(_decorated, cfg) == _outcome(_decorated_by_oracles, cfg)
    poly = cell_image(cfg).as_para()
    got = None if poly is None else (poly.top, poly.bot)
    assert got == sorted_cell_profiles(cfg.m, cfg.n, cfg.heights)


def _diag_profiles(n, x):
    poly = diag(KnConfig(n, x))
    return poly.top, poly.bot


def check_kn_diag(n, x):
    want = _outcome(kn_diag_profiles, n, x)
    assert _outcome(_diag_profiles, n, x) == want
    if not isinstance(want, type):
        poly = ParaPolyomino(n, n - 1, *want)
        assert dyck_of(poly).word == kn_dyck_word(n, n - 1, *want)


def check_diag_from_dyck(word):
    want = _outcome(kn_heights_of_dyck, word)
    got = _outcome(lambda: diag_from_dyck(DyckPath(word)).heights)
    assert got == want


@st.composite
def kn_states(draw):
    """Heights in [0, n-1] on K_n, 2 <= n <= 12: half sorted, and half of
    those pushed up to the recurrent minimum x_i >= n-1-i."""
    n = draw(st.integers(2, 12))
    x = draw(st.lists(st.integers(0, n - 1), min_size=n - 1, max_size=n - 1))
    if draw(st.booleans()):
        x.sort(reverse=True)
        if draw(st.booleans()):
            x = [min(n - 2, max(v, n - 2 - i)) for i, v in enumerate(x)]
    return n, tuple(x)


@st.composite
def dyck_words(draw):
    """A Dyck word of semi-length 0..11, one free step choice per draw."""
    k = draw(st.integers(0, 11))
    word, s, w = [], 0, 0
    while w < k:
        south = s < k and (w == s or draw(st.booleans()))
        word.append("S" if south else "W")
        s, w = s + south, w + (not south)
    return "".join(word)


class TestConversionsAgainstOracles:
    def test_decorate_and_cell_image_exhaustive(self):
        for s in range(2, 7):
            for m in range(1, s):
                n = s - m
                for t in itertools.product(range(n), repeat=m - 1):
                    for b in itertools.product(range(m), repeat=n):
                        check_decorate(BipartiteConfig(m, n, t + b))

    @pytest.mark.parametrize("n", range(2, 6))
    def test_kn_diag_exhaustive(self, n):
        for x in itertools.product(range(n), repeat=n - 1):
            check_kn_diag(n, x)

    def test_dyck_of_exhaustive(self):
        for m in range(2, 6):
            for poly in enumerate_para(m, m - 1):
                want = _outcome(kn_dyck_word, m, m - 1, poly.top, poly.bot)
                got = _outcome(lambda: dyck_of(poly).word)
                assert got == want

    def test_diag_from_dyck_exhaustive(self):
        for k in range(7):
            for path in enumerate_dyck(k):
                check_diag_from_dyck(path.word)

    @DIFFERENTIAL
    @given(stable_states())
    def test_decorate(self, cfg):
        check_decorate(cfg)

    @DIFFERENTIAL
    @given(kn_states())
    def test_kn_diag(self, state):
        check_kn_diag(*state)

    @DIFFERENTIAL
    @given(dyck_words())
    def test_diag_from_dyck(self, word):
        check_diag_from_dyck(word)


# -- constructor checks against their element-by-element forms ---------------


def _fault(f, *args):
    """None when f(*args) returns, else the type and message of its error."""
    try:
        f(*args)
    except (SandnaraError, ValueError) as exc:
        return type(exc), str(exc)
    return None


def _same_fault(cls, oracle, *args):
    assert _fault(cls, *args) == _fault(oracle, *args), args


def _words(letters, max_len):
    for size in range(max_len + 1):
        yield from itertools.product(letters, repeat=size)


def _decorations(lo, hi, parts):
    """Sequences of up to `parts` sets of at most two labels in lo..hi."""
    sets = [
        frozenset(c) for size in range(3) for c in itertools.combinations(range(lo, hi + 1), size)
    ]
    for count in range(parts + 1):
        yield from itertools.product(sets, repeat=count)


class TestCheckForms:
    """Each constructor reports the same fault, or none, as the element-by-
    element form of its checks, on every small input, out-of-range values
    included."""

    def test_bipartite_config(self):
        for m, n in itertools.product(range(4), repeat=2):
            for heights in _words(range(-1, 3), 5):
                _same_fault(BipartiteConfig, check_bipartite_heights, m, n, heights)

    def test_kn_config(self):
        for n in range(5):
            for heights in _words(range(-1, 3), 4):
                _same_fault(KnConfig, check_kn_heights, n, heights)

    def test_decorated_polyomino(self):
        for m, n in [(1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (3, 1)]:
            for poly in enumerate_para(m, n):
                for A in _decorations(0, m, 2):
                    for B in _decorations(m - 1, m + n, 2):
                        _same_fault(DecoratedPolyomino, check_decoration, poly, A, B)

    def test_bicomp_matrix(self):
        for k in range(4):
            for size, letters in [(2, (-1, 0, 1, 2, True, 1.0)), (3, (-1, 0, 1, 2))]:
                for rows in _words(letters, size):
                    for cols in itertools.product(letters, repeat=len(rows)):
                        _same_fault(BicompMatrix, check_bicomp_words, k, rows, cols)


def _subsets(items):
    return [frozenset(c) for r in range(len(items) + 1) for c in itertools.combinations(items, r)]


def _same_chain_verdict(n, downsets, levels) -> bool:
    """`_from_chain` accepts the form exactly when the eight rules do, and
    then builds the matrix L_i & (D_{j+1} - D_j); returns the verdict."""
    try:
        order = IntervalOrder._from_chain(n, downsets, levels)
    except NotIntervalOrder:
        order = None
    ok = chain_form_by_rules(n, downsets, levels)
    assert (order is not None) == ok, (n, downsets, levels)
    if ok:
        assert order.matrix.rows == rows_of_chain(n, downsets, levels)
    return ok


def _interval_chain_form(rng):
    """Chain form of the interval order of n random intervals, x < y iff x
    ends before y starts, read off the intervals with no library call."""
    n = rng.randint(1, 9)
    ends = [sorted(rng.sample(range(2 * n + 2), 2)) for _ in range(n)]
    down = {
        x: frozenset(y for y in range(1, n + 1) if ends[y - 1][1] < ends[x - 1][0])
        for x in range(1, n + 1)
    }
    downsets = sorted(set(down.values()), key=len)
    return n, downsets, [frozenset(x for x in down if down[x] == d) for d in downsets]


def _mutated(rng, n, downsets, levels):
    """One or two random edits of the down-sets or the levels: toggle an
    element (0 and n + 1 included), swap, drop or insert a set, or move an
    element from one set to another."""
    d, lv = list(downsets), list(levels)
    for _ in range(rng.randint(1, 2)):
        seq = rng.choice((d, lv))
        op = rng.randrange(5)
        if op == 0 and seq:
            i = rng.randrange(len(seq))
            seq[i] = seq[i] ^ {rng.randint(0, n + 1)}
        elif op == 1 and len(seq) > 1:
            i, j = rng.sample(range(len(seq)), 2)
            seq[i], seq[j] = seq[j], seq[i]
        elif op == 2 and seq:
            del seq[rng.randrange(len(seq))]
        elif op == 3:
            copy = seq and rng.random() < 0.5
            seq.insert(rng.randrange(len(seq) + 1), rng.choice(seq) if copy else frozenset())
        elif op == 4 and seq:
            i, j = rng.randrange(len(seq)), rng.randrange(len(seq))
            if seq[i]:
                x = rng.choice(sorted(seq[i]))
                seq[i], seq[j] = seq[i] - {x}, seq[j] | {x}
    return tuple(d), tuple(lv)


class TestChainFormAgainstRules:
    """`IntervalOrder._from_chain` checks a chain form only by its round trip
    through the matrix; it must give the verdict of the eight rules the form
    has to meet, and the same matrix whenever it accepts."""

    def test_every_small_form(self):
        # (n, extra elements outside {1..n}, most down-sets or levels)
        domains = [(0, 1, 3), (1, 1, 3), (2, 1, 2), (2, 0, 3), (3, 0, 2)]
        accepted = []
        for n, extra, most in domains:
            sets = _subsets(range(1, n + extra + 1))
            accepted.append(0)
            for k in range(most + 1):
                for count in range(max(0, k - 1), min(most, k + 1) + 1):
                    for downsets in itertools.product(sets, repeat=k):
                        for levels in itertools.product(sets, repeat=count):
                            accepted[-1] += _same_chain_verdict(n, downsets, levels)
        # none on 0 points (a matrix has a row), the 1 and 3 labeled interval
        # orders on 1 and 2 points, and on 3 points the 13 of the 19 with at
        # most two levels (the six chains need three)
        assert accepted == [0, 1, 3, 3, 13]

    def test_mutations_of_valid_forms(self):
        rng = random.Random(23)
        verdicts = []
        for _ in range(2000):
            n, downsets, levels = _interval_chain_form(rng)
            assert _same_chain_verdict(n, tuple(downsets), tuple(levels))
            for _ in range(10):
                verdicts.append(_same_chain_verdict(n, *_mutated(rng, n, downsets, levels)))
        assert 0 < sum(verdicts) < len(verdicts)
