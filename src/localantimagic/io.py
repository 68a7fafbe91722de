"""File formats: JSON graphs, matrices, certificates, swap-move lists,
sweep reports and oracle answers, CSV matrices, DOT and graph6 exports,
and the reading of input files.

This is the one module that knows the JSON layout and its
`format_version`.  All emitters iterate in sorted structural order so
output is byte-stable; the JSON graph format round-trips exactly.
"""
from __future__ import annotations

import json
from operator import itemgetter
from typing import TYPE_CHECKING, Dict, List, Optional

from .graph import ColorReport, Edge, GraphError, LabeledGraph, VertexId, edge
from .matrices import LabelMatrix, row_names

if TYPE_CHECKING:
    from .families import SwapMove
    from .oracle import OracleResult
    from .sweep import SweepReport

FORMAT_VERSION = 1


class ParseError(ValueError):
    pass


def _document(body: Dict[str, object]) -> str:
    """A JSON document: format_version, then body's keys, indented by 2."""
    return json.dumps({"format_version": FORMAT_VERSION, **body}, indent=2) + "\n"


def read_text(path: str) -> str:
    """The text of the file at path; a file that is not UTF-8 is a ParseError."""
    try:
        with open(path) as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from exc


# ---------------------------------------------------------------- graphs

def _names(g: LabeledGraph) -> List[str]:
    """str() of each vertex, by position."""
    return list(map(str, g._vertices))


def _labeled_edges(g: LabeledGraph):
    """(u name, v name, label or None) per edge, in sorted order."""
    names = _names(g)
    return [(names[a], names[b], lab) for a, b, lab in zip(g._eu, g._ev, g._label)]


def _json_list(items: List[str]) -> str:
    """A JSON list of already indented items, in json.dumps(indent=2)'s
    layout one level down."""
    return "[\n" + ",\n".join(items) + "\n  ]" if items else "[]"


def graph_to_json(g: LabeledGraph) -> str:
    """The graph as json.dumps(..., indent=2) would print it, written
    directly: with indent, the json module falls back to its pure-Python
    encoder.  Vertex names are canonical ids ([a-z]+:[0-9]+:[0-9]+) and
    parts and labels are ints, so nothing needs escaping."""
    names = _names(g)
    vertices = [f'    {{\n      "id": "{v}",\n      "part": {c}\n    }}'
                for v, c in zip(names, g._part)]
    edges = [
        f'    {{\n      "u": "{names[a]}",\n      "v": "{names[b]}"'
        + ("\n    }" if lab is None else f',\n      "label": {lab}\n    }}')
        for a, b, lab in zip(g._eu, g._ev, g._label)
    ]
    return (f'{{\n  "format_version": {FORMAT_VERSION},\n'
            f'  "vertices": {_json_list(vertices)},\n'
            f'  "edges": {_json_list(edges)}\n}}\n')


def _load(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc


def _int(item: Dict[str, object], key: str) -> int:
    """item[key], which must be a JSON integer (not a float or a bool)."""
    value = item[key]
    if type(value) is not int:
        raise ParseError(f"{key} must be an integer, got {value!r}")
    return value


def _two(item: object, what: str, parse):
    """parse() of each element of item, which must be a list of two."""
    if not isinstance(item, list) or len(item) != 2:
        raise ParseError(f"{what} must be a list of two, got {item!r}")
    return parse(item[0]), parse(item[1])


def _check_version(data: Dict[str, object]) -> None:
    if _int(data, "format_version") != FORMAT_VERSION:
        raise ParseError(f"unsupported format_version {data['format_version']}")


def graph_from_json(text: str) -> LabeledGraph:
    data = _load(text)
    try:
        _check_version(data)
        listed = sorted((VertexId.parse(item["id"]), _int(item, "part"), item["id"])
                        for item in data["vertices"])
        # ids are canonical, so an endpoint's text finds its vertex exactly
        at = {s: i for i, (_, _, s) in enumerate(listed)}
        ends = []
        for item in data["edges"]:
            u, v = item["u"], item["v"]
            if not (type(u) is type(v) is str and u in at and v in at):
                u, v = edge(VertexId.parse(u), VertexId.parse(v))
                raise GraphError(f"edge ({u}, {v}) has endpoint outside vertex set")
            a, b, lab = at[u], at[v], _int(item, "label") if "label" in item else None
            ends.append((a, b, lab) if a < b else (b, a, lab))
        ends.sort(key=itemgetter(0, 1))  # stable; never compares the labels
        return LabeledGraph._from_arrays([v for v, _, _ in listed], [c for _, c, _ in listed],
                                         *([e[i] for e in ends] for i in range(3)))
    except (KeyError, TypeError, ValueError, GraphError) as exc:
        raise ParseError(f"bad graph file: {exc}") from exc


def graph_to_dot(g: LabeledGraph) -> str:
    lines = ["graph G {"]
    fills = {1: "lightblue", 2: "lightpink", 3: "lightgray"}
    for v, c in zip(_names(g), g._part):
        lines.append(f'  "{v}" [label="{v}", fillcolor={fills[c]}, style=filled];')
    for a, b, lab in _labeled_edges(g):
        attr = f' [label="{lab}"]' if lab is not None else ""
        lines.append(f'  "{a}" -- "{b}"{attr};')
    lines.append("}")
    return "\n".join(lines) + "\n"


def graph_to_graph6(g: LabeledGraph) -> str:
    """graph6 line for the unlabeled simple graph; vertices numbered in
    sorted structural order.  Labels are dropped (format limitation);
    pair with labels_sidecar() to keep them."""
    n = len(g._vertices)
    if n <= 62:
        size = [n]
    elif n <= 258047:
        size = [63, n >> 12 & 63, n >> 6 & 63, n & 63]
    else:
        size = [63, 63] + [n >> shift & 63 for shift in (30, 24, 18, 12, 6, 0)]
    # Bit i + j(j-1)/2 is the pair i < j (edges are normalized): the upper
    # triangle column by column, six bits per character from the high bit,
    # plus 63 ("?").  Edges are distinct, so adding sets each bit once.
    data = bytearray(b"?" * ((n * (n - 1) // 2 + 5) // 6))
    for i, j in zip(g._eu, g._ev):
        bit = i + j * (j - 1) // 2
        data[bit // 6] += 32 >> bit % 6
    return (bytes(d + 63 for d in size) + data).decode("ascii") + "\n"


def labels_sidecar(g: LabeledGraph) -> str:
    """One 'u v label' line per labeled edge, in sorted edge order."""
    lines = [f"{a} {b} {lab}" for a, b, lab in _labeled_edges(g) if lab is not None]
    return "\n".join(lines) + "\n"


# -------------------------------------------------------------- matrices

def matrix_to_csv(mat: LabelMatrix) -> str:
    return "".join(",".join(map(str, row)) + "\n" for row in mat.rows)


def matrix_to_json(mat: LabelMatrix) -> str:
    p = mat.params
    rows = [
        {"role": role, "leaf": leaf, "values": values}
        for (role, leaf), values in zip(row_names(p), mat.rows)
    ]
    return _document({"family": p.family.value, "n": p.n, "k": p.k, "rows": rows})


# ---------------------------------------------------------- certificates

def certificate_to_json(g: LabeledGraph, report: ColorReport) -> str:
    lower, upper = report.chi_la_bracket
    return _document(
        {
            "q": g.q,
            "bijection_ok": report.bijection_ok,
            "bad_labels": report.bad_labels,
            "conflict_edges": [[str(a), str(b)] for a, b in report.conflict_edges],
            "is_local_antimagic": report.is_local_antimagic,
            "c_f": report.c_f,
            "distinct_colors": report.distinct_colors,
            "colors": dict(zip(_names(g), report.sums)),
            "chi_lower": report.chi_lower,
            "chi_la_bracket": [lower, upper],
        }
    )


# ----------------------------------------------------------- swap moves

def _edge_json(e: Edge) -> List[str]:
    return [str(e[0]), str(e[1])]


def _edge_parse(item: object) -> Edge:
    return edge(*_two(item, "an edge", VertexId.parse))


def swaps_to_json(moves: List[SwapMove], g: Optional[LabeledGraph] = None) -> str:
    out = []
    for mv in moves:
        item: Dict[str, object] = {
            "center_a": str(mv.center_a),
            "center_b": str(mv.center_b),
            "pair_a": [_edge_json(e) for e in mv.pair_a],
            "pair_b": [_edge_json(e) for e in mv.pair_b],
        }
        if g is not None:
            la, lb = mv.label_pairs(g)
            item["labels_a"] = list(la)
            item["labels_b"] = list(lb)
        out.append(item)
    return _document({"moves": out})


def swaps_from_json(text: str) -> List[SwapMove]:
    # Only a swap list needs `families`; the oracle and verify commands
    # read and write files without loading it.
    from .families import SwapMove

    data = _load(text)
    try:
        _check_version(data)
        return [
            SwapMove(
                center_a=VertexId.parse(item["center_a"]),
                center_b=VertexId.parse(item["center_b"]),
                pair_a=_two(item["pair_a"], "a swap pair", _edge_parse),
                pair_b=_two(item["pair_b"], "a swap pair", _edge_parse),
            )
            for item in data["moves"]
        ]
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad swap list: {exc}") from exc


# ------------------------------------------------------ sweeps, oracle

def sweep_report_to_json(report: SweepReport) -> str:
    cells = []
    for c in report.cells:
        p = c.params
        r, s = p.factorization or (None, None)
        cells.append({"family": p.family.value, "n": p.n, "k": p.k, "r": r, "s": s,
                      "stage": c.stage, "verified": c.verified, "colors": list(c.colors),
                      "components": c.components, "regular": c.regular,
                      "runtime_ms": c.runtime_ms, "failures": c.failures})
    return _document({"grid": cells,
                      "summary": {"pass": report.passed, "fail": report.failed}})


def oracle_to_json(result: OracleResult) -> str:
    witness = None if result.witness is None else {
        f"{a} {b}": lab for (a, b), lab in sorted(result.witness.items())}
    return _document({"chi_la": result.chi_la, "witness": witness,
                      "labelings_tried": result.labelings_tried,
                      "valid_labelings": result.valid_labelings})
