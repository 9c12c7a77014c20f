"""The per-object sandpile kernels against reference transcriptions of their
definitions (tests/sandpile_oracles.py), drawn at random sizes 1 <= m, n <= 12."""

from hypothesis import given, settings
from hypothesis import strategies as st

from sandnara.classes import BicompMatrix, config_of_matrix, matrix_of_config
from sandnara.polyomino import CellSet, HeightSeqs, ParaPolyomino, cells_from_heights
from sandnara.sandpile import BipartiteConfig, burn, cell_image, stabilize

from sandpile_oracles import (
    burn_waves,
    heights_of_matrix,
    profiles_by_column_scan,
    stabilize_sweeps,
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
def bicomp_matrices(draw):
    """A k x k bicomposition matrix on {1..n-1}, 2 <= n <= 12: two random
    surjections onto k blocks give each element its row and column."""
    ground = draw(st.integers(1, 11))
    k = draw(st.integers(1, ground))

    def surjection():
        labels = draw(st.permutations(range(1, ground + 1)))
        return {
            x: pos if pos < k else draw(st.integers(0, k - 1))
            for pos, x in enumerate(labels)
        }

    rows, cols = surjection(), surjection()
    cells = [[set() for _ in range(k)] for _ in range(k)]
    for x in range(1, ground + 1):
        cells[rows[x]][cols[x]].add(x)
    return BicompMatrix.from_lists(cells)


class TestAgainstOracles:
    @DIFFERENTIAL
    @given(stable_states())
    def test_burn(self, cfg):
        burnt = burn(cfg)
        assert (burnt.recurrent, burnt.trace.waves) == burn_waves(cfg.m, cfg.n, cfg.heights)

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
        cfg = config_of_matrix(mat)
        assert cfg.heights == heights_of_matrix(mat.rows)
        assert matrix_of_config(cfg) == mat
