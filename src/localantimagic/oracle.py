"""Exhaustive computation of the local antimagic chromatic number on tiny
graphs, by enumerating edge-label bijections."""
from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import _kernels
from .graph import (
    Edge,
    LabeledGraph,
    Role,
    VertexId,
    edge,
    verify_local_antimagic,
)
from .matrices import ParamError

HARD_EDGE_LIMIT = 12


class BudgetError(ValueError):
    pass


@dataclass
class OracleResult:
    chi_la: Optional[int]
    witness: Optional[Dict[Edge, int]]
    labelings_tried: int
    valid_labelings: int


def _edge_order(g: LabeledGraph) -> List[Edge]:
    """Edges by decreasing endpoint degree, ties broken structurally;
    front-loads saturation so pruning cuts early."""
    deg = {v: g.degree(v) for v in g.part}
    return sorted(
        g.sorted_edges(),
        key=lambda e: (-max(deg[e[0]], deg[e[1]]), -min(deg[e[0]], deg[e[1]]), e),
    )


def _kernel_inputs(g: LabeledGraph) -> Tuple[List[Edge], tuple]:
    """The search order of g's edges and the kernel's array arguments
    (eu, ev, degrees, adj_off, adj_flat, q, n) for that order."""
    of, adj = g.index.of, g.index.adj
    order = _edge_order(g)
    eu = np.array([of[e[0]] for e in order], dtype=np.int64)
    ev = np.array([of[e[1]] for e in order], dtype=np.int64)
    degrees = np.array([len(nbrs) for nbrs in adj], dtype=np.int64)
    adj_off = np.concatenate(([0], np.cumsum(degrees))).astype(np.int64)
    adj_flat = np.array([w for nbrs in adj for w in nbrs] or [0], dtype=np.int64)
    return order, (eu, ev, degrees, adj_off, adj_flat, len(order), len(adj))


def exhaustive_chi_la(
    g: LabeledGraph, edge_budget: int = 10, prune: bool = True
) -> OracleResult:
    """Try every bijection from the edges of g onto [1,q].

    Runtime is O(q!) in the worst case, hence the budget; the hard cap
    at 12 edges is a safety net, not a tunable.
    """
    q = g.q
    budget = min(edge_budget, HARD_EDGE_LIMIT)
    if q > budget:
        capped = f" (hard limit; {edge_budget} requested)" if edge_budget > budget else ""
        raise BudgetError(
            f"graph has {q} edges, over the budget of {budget}{capped}; "
            f"the oracle enumerates q! bijections and refuses large inputs"
        )
    order, inputs = _kernel_inputs(g)
    if q == 0:
        return OracleResult(chi_la=None, witness=None, labelings_tried=0, valid_labelings=0)
    best, best_labels, tried, valid = _kernels.search(*inputs, prune)
    if best == 0:
        return OracleResult(
            chi_la=None, witness=None, labelings_tried=int(tried), valid_labelings=int(valid)
        )
    witness = {order[i]: int(best_labels[i]) for i in range(q)}
    return OracleResult(
        chi_la=int(best),
        witness=witness,
        labelings_tried=int(tried),
        valid_labelings=int(valid),
    )


def _plain_valid(g: LabeledGraph) -> bool:
    """Validity check written independently of the main verifier."""
    q = len(g.edges)
    labs = sorted(g.labels.get(e) for e in g.edges)
    if None in labs or labs != list(range(1, q + 1)):
        return False
    sums: Dict[VertexId, int] = {}
    for (a, b), lab in g.labels.items():
        sums[a] = sums.get(a, 0) + lab
        sums[b] = sums.get(b, 0) + lab
    return all(sums.get(a, 0) != sums.get(b, 0) for a, b in g.edges)


def cross_check(g: LabeledGraph, samples: int = 50, seed: int = 0) -> bool:
    """True iff the main verifier and the oracle-side validity check agree
    on g's labeling and on `samples` random relabelings of it."""
    rng = random.Random(seed)
    order = g.sorted_edges()
    labelings = [[g.labels[e] for e in order]]
    base = list(range(1, g.q + 1))
    for _ in range(samples):
        labelings.append(rng.sample(base, g.q))
    for labs in labelings:
        h = LabeledGraph(
            part=dict(g.part),
            edges=set(g.edges),
            labels=dict(zip(order, labs)),
        )
        if verify_local_antimagic(h).is_local_antimagic != _plain_valid(h):
            raise AssertionError(
                f"verifier/oracle disagreement on labeling {labs}"
            )
    return True


def book_graph(a: int, m: int) -> LabeledGraph:
    """aP_2 v O_m: a disjoint labeled edges u_iv_i joined to m shared
    leaves, every leaf adjacent to every u_i and v_i.  Unlabeled."""
    if a < 1 or m < 0:
        raise ParamError(f"need a >= 1, m >= 0, got a={a}, m={m}")
    part: Dict[VertexId, int] = {}
    edges = set()
    for i in range(1, a + 1):
        u = VertexId(Role.U, i)
        v = VertexId(Role.V, i)
        part[u] = 1
        part[v] = 2
        edges.add(edge(u, v))
    for j in range(1, m + 1):
        x = VertexId(Role.X, 1, j)
        part[x] = 3
        for i in range(1, a + 1):
            edges.add(edge(VertexId(Role.U, i), x))
            edges.add(edge(VertexId(Role.V, i), x))
    return LabeledGraph(part=part, edges=edges)


def path_p2() -> LabeledGraph:
    u = VertexId(Role.U, 1)
    v = VertexId(Role.V, 1)
    return LabeledGraph(part={u: 1, v: 2}, edges={edge(u, v)})


PRESETS = {
    "book": book_graph,
    "p2": lambda a=1, m=0: path_p2(),
}
