"""Exhaustive computation of the local antimagic chromatic number on tiny
graphs, by enumerating edge-label bijections."""
from __future__ import annotations

from typing import Dict, List, NamedTuple, Optional, Tuple

from . import _kernels
from .graph import Edge, LabeledGraph, Role, VertexId
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


def _symmetry(nbrs: List[set]) -> Tuple[List[int], List[List[int]]]:
    """A group of automorphisms that moves some edge unless it is the
    identity, as a block per vertex and a list of vertex permutations.

    The blocks are the twin classes, every other vertex alone: false twins
    share N(x), true twins share N(x) + {x}, and twins x, y have N(x) - {y}
    not empty.  Every permutation inside the blocks is an automorphism.
    The list holds the automorphisms of the twin quotient that keep each
    class's size and its members' degree, lifted by mapping class members
    in sorted order; with the block permutations they make the group.  The
    degree also keeps the kind: with the neighbouring classes' sizes kept,
    it differs between true and false twins.  Isolated vertices and the
    ends of lone edges stay out of the quotient, since moving them moves no
    edge."""
    n = len(nbrs)
    by_open: Dict[frozenset, List[int]] = {}  # vertices by N(x)
    by_closed: Dict[frozenset, List[int]] = {}  # and by N(x) + {x}
    for x, nb in enumerate(nbrs):
        by_open.setdefault(frozenset(nb), []).append(x)
        by_closed.setdefault(frozenset(nb | {x}), []).append(x)
    blk = list(range(n))
    members: Dict[int, List[int]] = {}  # the quotient's vertices: class heads
    label = {}
    for x, nb in enumerate(nbrs):
        if blk[x] < x or not nb or len(nb) == 1 == len(nbrs[next(iter(nb))]):
            continue  # in an earlier class, isolated, or an end of a lone edge
        cls = by_open[frozenset(nb)]
        if len(cls) == 1 and len(nb) > 1:
            cls = by_closed[frozenset(nb | {x})]
        for y in cls:
            blk[y] = x
        members[x], label[x] = cls, (len(cls), len(nb))
    qadj = {r: {blk[y] for y in nbrs[r]} - {r} for r in members}
    order: List[int] = []  # breadth first: each vertex after a neighbour
    for r in members:  # unless it starts a component
        if r not in order:
            order.append(r)
            for u in order:  # also visits what the loop appends
                order += [s for s in qadj[u] if s not in order]
    lifts: List[List[int]] = []
    img: Dict[int, int] = {}

    def extend(k: int) -> None:
        if k == len(order):
            t = list(range(n))
            for r, s in img.items():
                for x, y in zip(members[r], members[s]):
                    t[x] = y
            lifts.append(t)
            return
        r, used = order[k], set(img.values())
        mapped = {img[u] for u in qadj[r] if u in img}
        for s in qadj[next(iter(mapped))] if mapped else members:
            if label[s] == label[r] and s not in used and qadj[s] & used == mapped:
                img[r] = s
                extend(k + 1)
                del img[r]

    extend(0)
    return blk, lifts


def _orbit_bounds(eu: List[int], ev: List[int], nbrs: List[set]) -> Tuple[List[int], int]:
    """The kernel's low for the edges (eu[p], ev[p]) in search order, and
    the order of the automorphism group G, `_symmetry`'s, that it breaks.

    Let G_p be the elements of G that fix every edge before position p,
    K_p those that also keep each vertex in its block, and T_p a list with
    G_p = K_p T_p.  The K_p-orbit of an edge is every edge with its ends in
    the same two blocks, so the G_p-orbit of edge p is the union of the
    K_p-orbits of t(edge p) over t in T_p; each other position o in it
    gets low[o] = p, and |G| is the product of the orbit sizes.  T_{p+1}
    keeps each t that maps edge p into its K_p-orbit, followed by at most
    two swaps inside blocks that map it back, and K_{p+1} splits the ends
    of edge p off their blocks (off a shared block together).  Of each
    orbit of labelings under G, exactly one meets every bound: the
    lexicographically first."""
    q, n = len(eu), len(nbrs)
    blk, lifts = _symmetry(nbrs)

    def blocks(c: int, d: int) -> Tuple[int, int]:
        return (blk[c], blk[d]) if blk[c] < blk[d] else (blk[d], blk[c])

    low, size = [q] * q, 1
    for p, (a, b) in enumerate(zip(eu, ev)):
        if len(lifts) == 1 and len(set(blk)) == n:
            break  # G_p is the identity alone
        home, images, kept = blocks(a, b), set(), []
        for t in lifts:
            image = blocks(t[a], t[b])
            images.add(image)
            if image == home:
                t = t[:]
                for v, w in ((a, a), (b, b)) if blk[t[a]] == blk[a] else ((a, b), (b, a)):
                    t[t.index(w)], t[v] = t[v], w
                kept.append(t)
        orbit = [o for o in range(p, q) if blocks(eu[o], ev[o]) in images]
        for o in orbit[1:]:
            low[o] = p
        size *= len(orbit)
        lifts = kept
        if blk[a] == blk[b]:
            blk[a] = blk[b] = n + 2 * p
        else:
            blk[a], blk[b] = n + 2 * p, n + 2 * p + 1
    return low, size


def _kernel_inputs(g: LabeledGraph) -> Tuple[List[Edge], tuple, int]:
    """The search order of g's edges, the kernel's arguments
    (eu, ev, checks, low, q, n, floor) for that order, and the order of the
    automorphism group whose symmetry `low` breaks (`_orbit_bounds`).

    sums[a] - sums[b] is final once every edge at a or b other than (a, b)
    itself is labeled, so the check of (a, b) goes into checks at the
    latest position among those edges, or at 0 if there are none.

    A graph over HARD_EDGE_LIMIT edges, which the oracle refuses, gets no
    bounds and the order 1: `_symmetry` lists the lifted automorphisms one
    by one, and a large graph can have too many."""
    order = _search_order(g)
    q, n = len(order), len(g._vertices)
    eu = [g._eu[e] for e in order]
    ev = [g._ev[e] for e in order]
    top = [[-1, -1] for _ in range(n)]  # the two latest positions per vertex
    for pos, (a, b) in enumerate(zip(eu, ev)):
        top[a] = [pos, top[a][0]]
        top[b] = [pos, top[b][0]]
    checks: List[List[Tuple[int, int]]] = [[] for _ in order]
    for pos, (a, b) in enumerate(zip(eu, ev)):
        other = max(top[a][top[a][0] == pos], top[b][top[b][0] == pos])
        checks[max(other, 0)].append((a, b))
    low, size = ([q] * q, 1) if q > HARD_EDGE_LIMIT else _orbit_bounds(
        eu, ev, [set(adj) for adj in g.index.adj]
    )
    inputs = (eu, ev, checks, low, q, n, _chi_floor(eu, ev, n))
    return [g._edge_list[e] for e in order], inputs, size


def check_budget(q: int, edge_budget: int) -> None:
    """Raise BudgetError unless a graph of q edges is within the budget."""
    if type(edge_budget) is not int:  # not isinstance: True is an int too
        raise BudgetError(f"budget must be an int, got {edge_budget!r}")
    if edge_budget < 0:
        raise BudgetError(f"budget must be >= 0, got {edge_budget}")
    budget = min(edge_budget, HARD_EDGE_LIMIT)
    if q > budget:
        capped = f" (hard limit; {edge_budget} requested)" if edge_budget > budget else ""
        raise BudgetError(
            f"graph has {q} edges, over the budget of {budget}{capped}; "
            f"the oracle enumerates q! bijections and refuses large inputs"
        )


def exhaustive_chi_la(g: LabeledGraph, edge_budget: int = 10) -> OracleResult:
    """Try every bijection from the edges of g onto [1,q].

    Runtime is O(q!) in the worst case, hence the budget; the hard cap
    at 12 edges is a safety net, not a tunable.  A branch is cut at its
    first adjacent-sum clash, and the bounds of `_orbit_bounds` keep
    one labeling of each orbit under a group of automorphisms in which only
    the identity fixes a labeling, so each orbit has as many members as
    the group.  Validity and colors are the same across an orbit, so
    the valid count is the kernel's times the group's order.  The
    lexicographically first labeling with the fewest colors is the first
    of its orbit, so the search still visits it.  labelings_tried equals
    the valid count; it is kept for the JSON schema.  An edgeless graph
    has one labeling, the empty map, which is valid.
    """
    check_budget(g.q, edge_budget)
    order, inputs, size = _kernel_inputs(g)
    best, best_labels, valid = _kernels.search(*inputs)
    valid *= size
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


def book_size(a: int, m: int) -> int:
    """The edge count a(2m+1) of `book_graph(a, m)`, after checking a and m."""
    for name, value in (("a", a), ("m", m)):
        if type(value) is not int:  # not isinstance: True is an int too
            raise ParamError(f"{name} must be an int, got {value!r}")
    if a < 1 or m < 0:
        raise ParamError(f"need a >= 1, m >= 0, got a={a}, m={m}")
    return a * (2 * m + 1)


def book_graph(a: int, m: int) -> LabeledGraph:
    """aP_2 v O_m: a disjoint labeled edges u_iv_i joined to m shared
    leaves, every leaf adjacent to every u_i and v_i.  Unlabeled."""
    book_size(a, m)
    # sorted: u_1..u_a, v_1..v_a, then the leaves; each u_i's edges to v_i
    # and the leaves, then each v_i's edges to the leaves
    vertices = [VertexId(role, i) for role in (Role.U, Role.V) for i in range(1, a + 1)]
    vertices += [VertexId(Role.X, 1, j) for j in range(1, m + 1)]
    leaves = range(2 * a, 2 * a + m)
    eu: List[int] = []
    ev: List[int] = []
    for i in range(a):
        eu += [i] * (m + 1)
        ev += [a + i, *leaves]
    for i in range(a, 2 * a):
        eu += [i] * m
        ev += leaves
    return LabeledGraph._from_arrays(vertices, [1] * a + [2] * a + [3] * m,
                                     eu, ev, [None] * len(eu))


def path_p2() -> LabeledGraph:
    return book_graph(1, 0)
