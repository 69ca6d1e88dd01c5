"""Least signless-Laplacian eigenvalue toolkit.

Construct the extremal families (cycle-stem-broom minimizers, pendant-
decorated clique maximizers), compute Q-spectra with LAPACK (through numpy)
cross-checked by an exact characteristic-polynomial oracle,
verify first-eigenvector structure, search graph classes exhaustively at
small order, and evaluate the closed-form bounds.
"""

from .bounds import (
    BoundRow,
    bound_lima,
    bound_pendant,
    bound_pendant_general,
    bound_submatrix,
    compare_bounds,
)
from .charpoly import charpoly_coeffs, charpoly_oracle, smallest_real_root
from .errors import (
    CapacityExceededError,
    DegenerateSpectrumError,
    InvalidParameterError,
    ParseError,
    QminlabError,
)
from .families import (
    KLandmarks,
    PendantProfile,
    ULandmarks,
    UParams,
    balanced_profile,
    build_K,
    build_U,
    build_U_std,
    majorizes,
)
from .graph6 import decode_graph6, encode_graph6, format_edge_list, parse_edge_list
from .graphs import (
    Graph,
    StructureReport,
    TwoColoring,
    attach_pendants,
    coalesce,
    complete_graph,
    cycle_graph,
    is_isomorphic,
    path_graph,
    structure_report,
)
from .patterns import (
    BranchSpec,
    MajorizationScan,
    PatternReport,
    RelocationResult,
    alpha,
    check_bipartite_branch,
    check_tree_monotone,
    check_U_pattern,
    interlacing_check,
    majorization_scan,
    relocation_experiment,
    split_branches,
)
from .search import ClassQuery, SearchResult, find_extremal
from .spectra import (
    Spectrum,
    eig_sym,
    q_matrix,
    q_min_of,
    qmin_stack,
    rayleigh,
    residual,
)

__version__ = "0.1.0"
