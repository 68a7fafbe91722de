"""Tripartite graph families with local antimagic chromatic number 3:
constructions, closed-form color certificates, an exhaustive tiny-graph
oracle, and file/CLI plumbing."""

from .families import (
    SwapError,
    SwapMove,
    apply_crossing,
    apply_merge,
    apply_swap,
    build_base_graph,
    build_family,
    iter_connecting_swaps,
)
from .formulas import (
    ColorTriple,
    DistinctnessCertificate,
    color_triple,
    distinctness_certificate,
)
from .graph import (
    ColorReport,
    GraphError,
    LabeledGraph,
    Role,
    VertexId,
    chromatic_lower_bound,
    edge,
    graph_stats,
    induced_colors,
    verify_local_antimagic,
)
from .matrices import (
    Family,
    FamilyParams,
    LabelMatrix,
    ParamError,
    build_matrix,
    matrix_column_sums,
)
from .oracle import (
    OracleResult,
    book_graph,
    cross_check,
    exhaustive_chi_la,
    path_p2,
)

__version__ = "0.1.0"

__all__ = [
    "ColorReport",
    "ColorTriple",
    "DistinctnessCertificate",
    "Family",
    "FamilyParams",
    "GraphError",
    "LabelMatrix",
    "LabeledGraph",
    "OracleResult",
    "ParamError",
    "Role",
    "SwapError",
    "SwapMove",
    "VertexId",
    "apply_crossing",
    "apply_merge",
    "apply_swap",
    "book_graph",
    "build_base_graph",
    "build_family",
    "build_matrix",
    "chromatic_lower_bound",
    "color_triple",
    "cross_check",
    "distinctness_certificate",
    "edge",
    "exhaustive_chi_la",
    "iter_connecting_swaps",
    "graph_stats",
    "induced_colors",
    "matrix_column_sums",
    "path_p2",
    "verify_local_antimagic",
]
