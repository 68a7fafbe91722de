"""Tripartite graph families with local antimagic chromatic number 3:
constructions, closed-form color certificates, an exhaustive tiny-graph
oracle, and file/CLI plumbing.

The public names load on first use (PEP 562), so a process compiles only
the modules it calls: the oracle alone needs neither the constructions
nor the file formats."""

import importlib

__version__ = "0.1.0"

# The module that defines each public name.
_MODULE_OF = {
    name: module
    for module, names in (
        ("families", "SwapError SwapMove apply_crossing apply_merge apply_swap"
                     " build_base_graph build_family iter_connecting_swaps"),
        ("formulas", "ColorTriple color_triple"),
        ("graph", "ColorReport GraphError LabeledGraph Role VertexId"
                  " chromatic_lower_bound edge graph_stats induced_colors"
                  " verify_local_antimagic"),
        ("matrices", "Family FamilyParams LabelMatrix ParamError build_matrix"
                     " matrix_column_sums"),
        ("oracle", "OracleResult book_graph exhaustive_chi_la path_p2"),
    )
    for name in names.split()
}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # Not bound here: the package hands out the defining module's current
    # attribute, the one a caller that patches that module has replaced.
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
