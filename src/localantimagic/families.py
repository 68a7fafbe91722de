"""Graph family constructions: base disjoint joins, the crossing step,
the leaf-merge step, and label-preserving 2-swaps."""
from __future__ import annotations

from bisect import bisect_left, bisect_right
from itertools import chain, combinations
from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .graph import Edge, GraphError, LabeledGraph, Role, VertexId, _graph, _join
from .matrices import FamilyParams, LabelMatrix, ParamError, build_matrix


def _layout(params: FamilyParams, stage: str) -> list:
    """The `_join` layout of the given stage of params: this function only
    chooses the block maps u_block, v_block and the block names.  With
    c = 2k+1 copies and m leaves per block, u_i and v_i have degree m+1.

    - Base: copy i has its own block x_i on both sides.  So each leaf has
      degree 2, and each copy with its block is one of 2k+1 components.
    - Crossed: the blocks are x_{k+1}, y_1..y_k, z_1..z_k.  u_i is joined
      to y_i (i <= k), x_{k+1} (i = k+1) or z_{2k+2-i} (i >= k+2), and v_i
      to the block of u_{2k+2-i}: u_block is a permutation of 0..2k and
      v_block its reverse.  So each leaf has degree 2.  Copies i and
      2k+2-i, with the blocks of u_i and u_{2k+2-i}, make one component,
      touched by no other side, so there are k+1 components.  u_{k+1} and
      v_{k+1} are both joined to x_{k+1}, so u_{k+1}, v_{k+1}, x_{k+1,1}
      is a triangle and chi >= 3.
    - Merged: `into` sends y_b and z_b to MY_t and MZ_t, named
      my_{t(2s+1)+1} and mz_{t(2s+1)+1}, for the run t = (b-1) // (2s+1)
      of b when t < r, and to MX, named mx_{k+1}, otherwise; x_{k+1} goes
      to MX.  2k+1 = (2r+1)(2s+1) gives k = r(2s+1)+s, so MY_t and MZ_t
      take run t's 2s+1 blocks each, and MX takes x_{k+1} and the s
      leftover y and z blocks: 2s+1 crossed blocks each, whose u and v
      sides are all distinct.  So a merged leaf has degree 2(2s+1).  The
      crossed component of copies i and 2k+2-i (i <= k) holds y_i and z_i,
      which go to one merged pair; so MY_t with MZ_t (t < r), and MX, each
      make one component with the crossed components they take: r+1
      components.  The triangle stays, on mx_{k+1,1}.
    - Regularity: m3 has m = 2n+1, so u and v have degree 2n+2 and a merged
      leaf 4s+2; it is (2n+2)-regular exactly when n = 2s.  In m2, m+1 is
      odd and every leaf degree even, so it is never regular."""
    k, m, c = params.k, params.leaves_per_copy, params.copies
    if stage == "base":
        return _join(c, m, range(c), range(c), [(Role.X, i) for i in range(1, c + 1)])
    u_block = [*range(1, k + 1), 0, *range(2 * k, k, -1)]
    if stage == "crossed":
        blocks = [(Role.X, k + 1)]
        blocks += [(role, i) for role in (Role.Y, Role.Z) for i in range(1, k + 1)]
    else:
        if params.factorization is None:
            raise ParamError("merge requires a factorization (r, s)")
        r, s = params.factorization
        block = 2 * s + 1
        blocks = [(role, t * block + 1) for role in (Role.MY, Role.MZ) for t in range(r)]
        blocks.append((Role.MX, k + 1))
        # merged block of each crossed one (x, y_1..y_k, z_1..z_k),
        # where the merged blocks are my_1..my_r, mz_1..mz_r, mx
        runs = [(b - 1) // block for b in range(1, k + 1)]
        into = [2 * r] + [t if t < r else 2 * r for t in runs]
        into += [r + t if t < r else 2 * r for t in runs]
        u_block = [into[b] for b in u_block]
    return _join(c, m, u_block, u_block[::-1], blocks)


def _restage(g: LabeledGraph, params: FamilyParams, before: str, after: str) -> LabeledGraph:
    """g's labels on the `after` layout of params.  GraphError unless g has
    the vertices, parts and edges of the `before` layout.  The `after`
    layout is built first, so a merge without (r, s) raises ParamError."""
    layout = _layout(params, after)
    if [g._vertices, g._part, g._eu, g._ev] != _layout(params, before):
        raise GraphError(f"not the {before} graph of {params}")
    return _graph(layout, g._label)


def _labels(mat: LabelMatrix) -> List[int]:
    """The labels in sorted edge order, the same at every stage: copy by
    copy, column i's uv cell then its ux cells; then, copy by copy, column
    i's vx cells."""
    return [*chain.from_iterable(zip(mat.uv, *mat.ux)),
            *chain.from_iterable(zip(*mat.vx))]


def build_base_graph(mat: LabelMatrix) -> LabeledGraph:
    """2k+1 disjoint copies of P_2 v O_m, copy i labeled by column i.

    u vertices get part 1, v part 2, leaves part 3.
    """
    return _graph(_layout(mat.params, "base"), _labels(mat))


def apply_crossing(g: LabeledGraph, params: FamilyParams) -> LabeledGraph:
    """Exchange the v-to-leaf edges between copies i and 2k+2-i.

    Each v-to-leaf edge v_i x_{i,j} with i != k+1 keeps its label and moves
    to leaf j of copy 2k+2-i.  Leaves of copies i <= k become y_{i,j},
    leaves of copies i >= k+2 become z_{2k+2-i,j}, and copy k+1 keeps x.
    Edges keep their sorted positions, so only the far ends change.
    """
    return _restage(g, params, "base", "crossed")


def apply_merge(g: LabeledGraph, params: FamilyParams) -> LabeledGraph:
    """Identify each run of 2s+1 same-role leaves into a single vertex.

    Requires 2k+1 = (2r+1)(2s+1); edge labels are untouched, only leaf
    identities change.  Copies b <= k fall in blocks of 2s+1 starting at
    lo; the first r blocks merge into MY/MZ(lo), and the last block, which
    straddles copy k+1, merges with x_{k+1} into MX(k+1).  The merged
    graph has r+1 components.
    """
    return _restage(g, params, "crossed", "merged")


class SwapMove(NamedTuple):
    """Exchange two equal-sum edge pairs between two center vertices,
    keeping labels and far endpoints; all induced colors are preserved.

    A tuple: it compares equal to the plain tuple of its four fields."""

    center_a: VertexId
    center_b: VertexId
    pair_a: Tuple[Edge, Edge]
    pair_b: Tuple[Edge, Edge]

    def label_pairs(self, g: LabeledGraph) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        la = tuple(sorted(g.labels[e] for e in self.pair_a))
        lb = tuple(sorted(g.labels[e] for e in self.pair_b))
        return la, lb  # type: ignore[return-value]


class SwapError(Exception):
    pass


def _slot(eu: List[int], ev: List[int], a: int, b: int) -> int:
    """Where edge (a, b) is, or would go, in the sorted arrays eu, ev."""
    lo = bisect_left(eu, a)
    return bisect_left(ev, b, lo, bisect_right(eu, a, lo))


def _edge_at(g: LabeledGraph, e: Edge) -> Optional[int]:
    """Position of edge e in g's sorted edge arrays, or None."""
    try:
        a, b = g._position(e[0]), g._position(e[1])
    except KeyError:
        return None
    i = _slot(g._eu, g._ev, a, b)
    return i if i < g.q and (g._eu[i], g._ev[i]) == (a, b) else None


def _validate_swap(g: LabeledGraph, move: SwapMove) -> List[int]:
    """The positions of the move's four edges, pair_a first; SwapError
    unless the move is well formed and keeps every color."""
    if move.center_a == move.center_b:
        raise SwapError("centers must be distinct")
    pos = []
    for e in (*move.pair_a, *move.pair_b):
        p = _edge_at(g, e)
        if p is None:
            raise SwapError(f"edge ({e[0]}, {e[1]}) not in graph")
        pos.append(p)
    if move.pair_a[0] == move.pair_a[1] or move.pair_b[0] == move.pair_b[1]:
        raise SwapError("each pair needs two distinct edges")
    if set(move.pair_a) & set(move.pair_b):
        raise SwapError("pairs share an edge")
    for e in move.pair_a:
        if move.center_a not in e:
            raise SwapError(f"edge ({e[0]}, {e[1]}) not incident to {move.center_a}")
    for e in move.pair_b:
        if move.center_b not in e:
            raise SwapError(f"edge ({e[0]}, {e[1]}) not incident to {move.center_b}")
    labs = [g._label[p] for p in pos]
    if None in labs:
        raise SwapError("swap edges must be labeled")
    sum_a, sum_b = labs[0] + labs[1], labs[2] + labs[3]
    if sum_a != sum_b:
        raise SwapError(f"pair sums differ: {sum_a} != {sum_b}")
    return pos


def apply_swap(g: LabeledGraph, move: SwapMove) -> LabeledGraph:
    """Re-home pair_a's edges to center_b and pair_b's to center_a, each
    keeping its label and far endpoint, at their new sorted positions.
    SwapError if a re-homed edge would join one part, or the result would
    not be simple."""
    pos = _validate_swap(g, move)
    ca, cb = g._position(move.center_a), g._position(move.center_b)
    vs, part = g._vertices, g._part
    moved = []
    for p, old, new in zip(pos, (ca, ca, cb, cb), (cb, cb, ca, ca)):
        far = g._eu[p] ^ g._ev[p] ^ old
        if part[far] == part[new]:  # also a loop, far == new
            raise SwapError(f"{vs[far]} shares a part with {vs[new]}")
        moved.append((min(far, new), max(far, new), g._label[p]))
    eu, ev, label = list(g._eu), list(g._ev), list(g._label)
    for p in sorted(pos, reverse=True):
        del eu[p], ev[p], label[p]
    for a, b, lab in moved:
        i = _slot(eu, ev, a, b)
        eu.insert(i, a)
        ev.insert(i, b)
        label.insert(i, lab)
    try:
        return LabeledGraph._from_arrays(vs, part, eu, ev, label)
    except GraphError as exc:  # a re-homed edge that g already has
        raise SwapError(f"swap result is not simple: {exc}") from exc


def connecting_center_pairs(g: LabeledGraph) -> Iterator[tuple]:
    """(center_a, center_b, pairs_a, pairs_b) for each pair of part-3
    centers of equal degree in different components, in (center_a,
    center_b) order.

    pairs_a is center_a's list of (label sum, (edge, edge)), one entry per
    pair of its incident edges, each pair and the list in label order.
    pairs_b maps each label sum to center_b's pairs of that sum, in label
    order.  Each center's list and map are built once and shared by all
    of its center pairs.  The connecting moves of the center pair are
    (center_a, center_b, pa, pb) for each (s, pa) in pairs_a and each pb
    in pairs_b[s]; see iter_connecting_swaps, which checks that g is
    fully labeled.
    """
    label, edges, inc = g._label, g._edge_list, g._incident_positions()
    centers = [c for c, cls in enumerate(g._part) if cls == 3]
    # made from the edges in label order, the pairs come in (smaller,
    # larger label) order
    pairs: Dict[int, List[Tuple[int, Tuple[Edge, Edge]]]] = {}
    by_sum: Dict[int, Dict[int, List[Tuple[Edge, Edge]]]] = {}
    for c in centers:
        es = sorted(inc[c], key=label.__getitem__)
        seq = pairs[c] = [
            (label[e1] + label[e2], (edges[e1], edges[e2]))
            for i, e1 in enumerate(es)
            for e2 in es[i + 1 :]
        ]
        groups = by_sum[c] = {}
        for s, pair in seq:
            groups.setdefault(s, []).append(pair)
    comp, vs = g.index.component, g._vertices
    for ca, cb in combinations(centers, 2):
        if comp[ca] != comp[cb] and len(inc[ca]) == len(inc[cb]):
            yield vs[ca], vs[cb], pairs[ca], by_sum[cb]


def iter_connecting_swaps(g: LabeledGraph) -> Iterator[SwapMove]:
    """Valid 2-swaps between leaf-class centers in different components,
    in lexicographic (center_a, center_b, labels) order: the moves of each
    center pair of connecting_center_pairs(g).

    Any such swap splices its two components together, so every yielded
    move reduces the component count.  Centers are restricted to part-3
    vertices of equal degree (the only kind of center the construction
    ever re-homes).  For centers in different components of a tripartite
    graph no loop or parallel edge can arise (the far endpoints of one
    pair lie in the other center's component complement and in parts 1/2),
    so equal pair sums are the only surviving constraint.  GraphError
    unless g is tripartite and fully labeled.
    """
    g.check_tripartite()
    g.check_labeled()
    new = tuple.__new__  # a SwapMove without the Python-level call of SwapMove()
    # each pair_a in order, with the pair_bs of its label sum in order: the
    # moves of a center pair in (labels_a, labels_b) order
    return chain.from_iterable(
        [new(SwapMove, (va, vb, pa, pb))
         for s, pa in pairs_a if s in pairs_b for pb in pairs_b[s]]
        for va, vb, pairs_a, pairs_b in connecting_center_pairs(g)
    )


def build_family(
    params: FamilyParams,
    stage: str = "crossed",
    swaps: Optional[List[SwapMove]] = None,
) -> LabeledGraph:
    """The given stage of params, then `swaps` applied in order.

    Builds the stage directly from the matrix's labels and that stage's
    layout; it equals the chain matrix -> base -> crossed [-> merged].
    """
    if stage not in ("base", "crossed", "merged"):
        raise ParamError(f"unknown stage {stage!r}")
    g = _graph(_layout(params, stage), _labels(build_matrix(params)))
    for idx, move in enumerate(swaps or []):
        try:
            g = apply_swap(g, move)
        except SwapError as exc:
            raise SwapError(f"swap #{idx}: {exc}") from exc
    return g
