"""Exhaustive computation of the local antimagic chromatic number on tiny
graphs, by enumerating edge-label bijections."""
from __future__ import annotations

import random
from typing import Dict, List, NamedTuple, Optional, Tuple

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


class OracleResult(NamedTuple):
    chi_la: Optional[int]
    witness: Optional[Dict[Edge, int]]
    labelings_tried: int
    valid_labelings: int


def _search_order(g: LabeledGraph) -> List[int]:
    """Edge positions by decreasing endpoint degree, ties broken
    structurally; front-loads saturation so pruning cuts early."""
    deg = list(map(len, g.index.adj))
    ends = [(deg[a], deg[b]) for a, b in zip(g._eu, g._ev)]
    return sorted(
        range(g.q), key=lambda e: (-max(ends[e]), -min(ends[e]), e)
    )


def _chi_floor(eu: List[int], ev: List[int], n: int) -> int:
    """3 if the edges close an odd cycle, else 2: a floor on the colors of
    any valid labeling.  A parity union-find of the oracle's own, so it
    never reads the verifier's bipartiteness."""
    up, odd = list(range(n)), [0] * n  # parent; parity of the path to it
    for a, b in zip(eu, ev):
        p = 1  # the edge, then each end's path to its root
        while up[a] != a:
            p ^= odd[a]
            a = up[a]
        while up[b] != b:
            p ^= odd[b]
            b = up[b]
        if a != b:
            up[a], odd[a] = b, p
        elif p:  # the cycle closed by (a, b) is odd
            return 3
    return 2


def _kernel_inputs(g: LabeledGraph) -> Tuple[List[Edge], tuple, List[Tuple[int, int]]]:
    """The search order of g's edges, the kernel's arguments
    (eu, ev, checks, low, q, n, floor) for that order, and the twin pairs
    whose swaps `low` breaks.

    sums[a] - sums[b] is final once every edge at a or b other than (a, b)
    itself is labeled, so the check of (a, b) goes into checks at the
    latest position among those edges, or at 0 if there are none.

    Twins x < y (vertex positions with N(x) - {y} equal to N(y) - {x}, not
    empty) are taken in order, and a pair is kept when its swap, (x, w) <->
    (y, w) for each common neighbour w, moves no edge that a kept pair
    moves.  The swap maps valid labelings to valid ones with as many
    colors; for its first moved position p, low[swap(p)] = p bounds the
    search to labelings with the smaller label at p."""
    order = _search_order(g)
    q, n = len(order), len(g._vertices)
    eu = [g._eu[e] for e in order]
    ev = [g._ev[e] for e in order]
    top = [[-1, -1] for _ in range(n)]  # the two latest positions per vertex
    for pos, (a, b) in enumerate(zip(eu, ev)):
        top[a] = [pos, top[a][0]]
        top[b] = [pos, top[b][0]]
    checks: List[List[Tuple[int, int]]] = [[] for _ in order]
    at = {}  # the search position of each edge, by its ends
    for pos, (a, b) in enumerate(zip(eu, ev)):
        other = max(top[a][top[a][0] == pos], top[b][top[b][0] == pos])
        checks[max(other, 0)].append((a, b))
        at[a, b] = at[b, a] = pos
    low = [q] * q
    twins: List[Tuple[int, int]] = []
    nbrs = [set(adj) for adj in g.index.adj]
    moved: set = set()
    for x in range(n):
        for y in range(x + 1, n):
            common = nbrs[x] - {y}
            if not common or common != nbrs[y] - {x}:
                continue
            swap = {at[x, w]: at[y, w] for w in common}
            swap.update({b: a for a, b in swap.items()})
            if moved.isdisjoint(swap):
                moved.update(swap)
                p = min(swap)
                low[swap[p]] = p
                twins.append((x, y))
    inputs = (eu, ev, checks, low, q, n, _chi_floor(eu, ev, n))
    return [g._edge_list[e] for e in order], inputs, twins


def exhaustive_chi_la(g: LabeledGraph, edge_budget: int = 10) -> OracleResult:
    """Try every bijection from the edges of g onto [1,q].

    Runtime is O(q!) in the worst case, hence the budget; the hard cap
    at 12 edges is a safety net, not a tunable.  A branch is cut at its
    first adjacent-sum clash, and the k kept twin swaps (see
    `_kernel_inputs`) commute and move disjoint edges, so each orbit of
    2^k labelings has exactly one member that the search visits; validity
    and colors are the same across an orbit, so the valid count is the
    kernel's times 2^k.  The lexicographically first labeling with the
    fewest colors is the first of its orbit, so the search still visits
    it.  labelings_tried equals the valid count; it is kept for the JSON
    schema.  An edgeless graph has one labeling, the empty map, which is
    valid.
    """
    q = g.q
    budget = min(edge_budget, HARD_EDGE_LIMIT)
    if q > budget:
        capped = f" (hard limit; {edge_budget} requested)" if edge_budget > budget else ""
        raise BudgetError(
            f"graph has {q} edges, over the budget of {budget}{capped}; "
            f"the oracle enumerates q! bijections and refuses large inputs"
        )
    order, inputs, twins = _kernel_inputs(g)
    best, best_labels, valid = _kernels.search(*inputs)
    valid <<= len(twins)
    return OracleResult(
        chi_la=best if valid else None,
        witness=dict(zip(order, best_labels)) if valid else None,
        labelings_tried=valid,
        valid_labelings=valid,
    )


def _plain_valid(g: LabeledGraph) -> bool:
    """Validity check written independently of the main verifier."""
    q = len(g.edges)
    labs = [g.labels.get(e) for e in g.edges]
    if None in labs or sorted(labs) != list(range(1, q + 1)):
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
    return book_graph(1, 0)


PRESETS = {
    "book": book_graph,
    "p2": lambda a=1, m=0: path_p2(),
}
