"""Sandpile model on complete bipartite graphs, parallelogram polyomino
bijections, and exact q,t-Narayana polynomials."""

from . import errors
from .bivar import BivarPoly, QtSeries
from .classes import (
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
)
from .kn import (
    DyckPath,
    KnConfig,
    cn_poly,
    diag,
    dyck_area,
    dyck_of,
    enumerate_dyck,
    enumerate_sorted_recurrent,
    haglund_bounce,
    haglund_bounce_stat,
    is_parking_function,
    kn_canon_top,
    kn_is_recurrent,
    olson_check,
    sn_poly,
)
from .polyomino import (
    CellSet,
    HeightSeqs,
    ParaPolyomino,
    bounce_weight_of_runs,
    cells_from_heights,
    count_para,
    enumerate_para,
    is_para_partitions,
    is_para_sequences,
    narayana_number,
    para_from_paths,
)
from .qt import (
    check_mn_symmetry,
    check_qt_symmetry,
    narayana_poly,
    rational_qt_series,
    ribbon_swap,
    ribbon_swap_inv,
    transfer_matrix_F,
)
from .sandpile import (
    BipartiteConfig,
    DecoratedPolyomino,
    TopplingTrace,
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

__version__ = "0.1.0"
