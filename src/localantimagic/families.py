"""Graph family constructions: base disjoint joins, the crossing step,
the leaf-merge step, and label-preserving 2-swaps."""
from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional, Tuple

from .graph import (
    Edge,
    GraphError,
    LabeledGraph,
    Role,
    VertexId,
    edge,
)
from .matrices import Family, FamilyParams, LabelMatrix, ParamError, build_matrix


class ConstructionError(Exception):
    pass


def build_base_graph(mat: LabelMatrix) -> LabeledGraph:
    """2k+1 disjoint copies of P_2 v O_m, copy i labeled by column i.

    u vertices get part 1, v part 2, leaves part 3.
    """
    p = mat.params
    m = p.leaves_per_copy
    part: Dict[VertexId, int] = {}
    labels: Dict[Edge, int] = {}
    for i in range(1, p.copies + 1):
        u = VertexId(Role.U, i)
        v = VertexId(Role.V, i)
        part[u] = 1
        part[v] = 2
        labels[edge(u, v)] = mat.uv[i - 1]
        for j in range(1, m + 1):
            x = VertexId(Role.X, i, j)
            part[x] = 3
            labels[edge(u, x)] = mat.ux[j - 1][i - 1]
            labels[edge(v, x)] = mat.vx[j - 1][i - 1]
    return LabeledGraph(part=part, edges=set(labels), labels=labels)


def apply_crossing(g: LabeledGraph, params: FamilyParams) -> LabeledGraph:
    """Exchange the v-to-leaf edges between copies i and 2k+2-i.

    Each v-to-leaf edge v_i x_{i,j} with i != k+1 keeps its label and moves
    to leaf j of copy 2k+2-i.  Leaves of copies i <= k become y_{i,j},
    leaves of copies i >= k+2 become z_{2k+2-i,j}, and copy k+1 keeps x.
    """
    if any(v.role not in (Role.U, Role.V, Role.X) for v in g.part):
        raise ConstructionError("crossing already applied")
    k = params.k

    def leaf(i: int, j: int) -> VertexId:
        if i <= k:
            return VertexId(Role.Y, i, j)
        if i >= k + 2:
            return VertexId(Role.Z, 2 * k + 2 - i, j)
        return VertexId(Role.X, i, j)

    rename = {v: leaf(v.copy_index, v.leaf_index) for v in g.part if v.role is Role.X}
    labels: Dict[Edge, int] = {}
    for (a, b), lab in g.labels.items():
        if b.role is Role.X:
            if a.role is Role.V and b.copy_index != k + 1:
                # the mirror leaf, keyed by the field tuple its VertexId equals
                b = (Role.X, 2 * k + 2 - b.copy_index, b.leaf_index)
            b = rename[b]
        labels[edge(a, b)] = lab
    part = {rename.get(v, v): c for v, c in g.part.items()}
    return LabeledGraph(part=part, edges=set(labels), labels=labels)


def _merge_groups(params: FamilyParams) -> Dict[VertexId, VertexId]:
    """Old vertex -> merged vertex for every leaf, per column j.

    Copies b <= k fall in blocks of 2s+1 starting at lo; the first r blocks
    merge into MY/MZ(lo), and the last block, which straddles copy k+1,
    merges with x_{k+1} into MX(k+1).
    """
    r, s = params.factorization  # type: ignore[misc]
    k = params.k
    block = 2 * s + 1
    target: Dict[VertexId, VertexId] = {}
    for j in range(1, params.leaves_per_copy + 1):
        mx = target[VertexId(Role.X, k + 1, j)] = VertexId(Role.MX, k + 1, j)
        for b in range(1, k + 1):
            lo = (b - 1) // block * block + 1
            if b == lo:  # a new block: name its merged leaves once
                middle = lo > r * block
                my = mx if middle else VertexId(Role.MY, lo, j)
                mz = mx if middle else VertexId(Role.MZ, lo, j)
            target[VertexId(Role.Y, b, j)] = my
            target[VertexId(Role.Z, b, j)] = mz
    return target


def apply_merge(g: LabeledGraph, params: FamilyParams) -> LabeledGraph:
    """Identify each run of 2s+1 same-role leaves into a single vertex.

    Requires 2k+1 = (2r+1)(2s+1); edge labels are untouched, only leaf
    identities change.  The merged graph has r+1 components.
    """
    if params.factorization is None:
        raise ParamError("merge requires a factorization (r, s)")
    target = _merge_groups(params)
    part = {target.get(v, v): c for v, c in g.part.items()}
    labels: Dict[Edge, int] = {}
    for (a, b), lab in g.labels.items():
        e = edge(target.get(a, a), target.get(b, b))
        if e in labels:
            raise ConstructionError(f"merge would create parallel edge {e}")
        labels[e] = lab
    return LabeledGraph(part=part, edges=set(labels), labels=labels)


class SwapMove(NamedTuple):
    """Exchange two equal-sum edge pairs between two center vertices,
    keeping labels and far endpoints; all induced colors are preserved.

    A tuple: it compares equal to the plain tuple of its four fields."""

    center_a: VertexId
    center_b: VertexId
    pair_a: Tuple[Edge, Edge]
    pair_b: Tuple[Edge, Edge]

    def far_endpoints(self) -> Tuple[List[VertexId], List[VertexId]]:
        fa = [e[0] if e[1] == self.center_a else e[1] for e in self.pair_a]
        fb = [e[0] if e[1] == self.center_b else e[1] for e in self.pair_b]
        return fa, fb

    def label_pairs(self, g: LabeledGraph) -> Tuple[Tuple[int, int], Tuple[int, int]]:
        la = tuple(sorted(g.labels[e] for e in self.pair_a))
        lb = tuple(sorted(g.labels[e] for e in self.pair_b))
        return la, lb  # type: ignore[return-value]


class SwapError(Exception):
    pass


def _validate_swap(g: LabeledGraph, move: SwapMove) -> None:
    if move.center_a == move.center_b:
        raise SwapError("centers must be distinct")
    for e in (*move.pair_a, *move.pair_b):
        if e not in g.edges:
            raise SwapError(f"edge {e} not in graph")
    if move.pair_a[0] == move.pair_a[1] or move.pair_b[0] == move.pair_b[1]:
        raise SwapError("each pair needs two distinct edges")
    if set(move.pair_a) & set(move.pair_b):
        raise SwapError("pairs share an edge")
    for e in move.pair_a:
        if move.center_a not in e:
            raise SwapError(f"edge {e} not incident to {move.center_a}")
    for e in move.pair_b:
        if move.center_b not in e:
            raise SwapError(f"edge {e} not incident to {move.center_b}")
    sum_a = sum(g.labels[e] for e in move.pair_a)
    sum_b = sum(g.labels[e] for e in move.pair_b)
    if sum_a != sum_b:
        raise SwapError(f"pair sums differ: {sum_a} != {sum_b}")
    fa, fb = move.far_endpoints()
    for w in fa:
        if g.part[w] == g.part[move.center_b]:
            raise SwapError(f"{w} shares a part with {move.center_b}")
    for w in fb:
        if g.part[w] == g.part[move.center_a]:
            raise SwapError(f"{w} shares a part with {move.center_a}")
    if fa[0] == fa[1] or fb[0] == fb[1]:
        raise SwapError("pair edges share a far endpoint")
    removed = {*move.pair_a, *move.pair_b}
    for w in fa:
        if w == move.center_b:
            raise SwapError("swap would create a loop")
        e = edge(w, move.center_b)
        if e in g.edges and e not in removed:
            raise SwapError(f"swap would duplicate edge {e}")
    for w in fb:
        if w == move.center_a:
            raise SwapError("swap would create a loop")
        e = edge(w, move.center_a)
        if e in g.edges and e not in removed:
            raise SwapError(f"swap would duplicate edge {e}")


def apply_swap(g: LabeledGraph, move: SwapMove) -> LabeledGraph:
    _validate_swap(g, move)
    labels = dict(g.labels)
    fa, fb = move.far_endpoints()
    lab_a = [labels.pop(e) for e in move.pair_a]
    lab_b = [labels.pop(e) for e in move.pair_b]
    for w, lab in zip(fa, lab_a):
        labels[edge(w, move.center_b)] = lab
    for w, lab in zip(fb, lab_b):
        labels[edge(w, move.center_a)] = lab
    return LabeledGraph(part=dict(g.part), edges=set(labels), labels=labels)


# ((smaller label, larger label), (edge, edge)) per incident edge pair
PairBucket = List[Tuple[Tuple[int, int], Tuple[Edge, Edge]]]


def swap_pair_buckets(g: LabeledGraph) -> Dict[VertexId, Dict[int, PairBucket]]:
    """Per leaf-class vertex: incident edge pairs grouped by label sum,
    each stored with its (smaller, larger) label pair and in that order."""
    inc = g.incident()
    buckets: Dict[VertexId, Dict[int, PairBucket]] = {}
    for c in sorted(g.part):
        if g.part[c] != 3:
            continue
        edges_c = sorted(inc[c], key=g.labels.__getitem__)
        labs = [g.labels[e] for e in edges_c]
        by_sum: Dict[int, PairBucket] = {}
        for ai, (l1, e1) in enumerate(zip(labs, edges_c)):
            for l2, e2 in zip(labs[ai + 1 :], edges_c[ai + 1 :]):
                by_sum.setdefault(l1 + l2, []).append(((l1, l2), (e1, e2)))
        buckets[c] = by_sum
    return buckets


def iter_connecting_swaps(g: LabeledGraph) -> Iterator[SwapMove]:
    """Valid 2-swaps between leaf-class centers in different components,
    in lexicographic (center_a, center_b, labels) order.

    Any such swap splices its two components together, so every yielded
    move reduces the component count.  Centers are restricted to part-3
    vertices of equal degree (the only kind of center the construction
    ever re-homes).  For centers in different components of a tripartite
    graph no loop or parallel edge can arise (the far endpoints of one
    pair lie in the other center's component complement and in parts 1/2),
    so equal pair sums are the only surviving constraint.
    """
    g.check_tripartite()
    buckets = swap_pair_buckets(g)
    centers = sorted(buckets)
    pos = {c: g.index.of[c] for c in centers}
    comp = {c: g.index.component[i] for c, i in pos.items()}
    degree = {c: len(g.index.adj[i]) for c, i in pos.items()}
    for ai, ca in enumerate(centers):
        by_sum_a = buckets[ca]
        for cb in centers[ai + 1 :]:
            if comp[ca] == comp[cb] or degree[ca] != degree[cb]:
                continue
            by_sum_b = buckets[cb]
            combos = [
                (la, lb, pa, pb)
                for s in by_sum_a.keys() & by_sum_b.keys()
                for la, pa in by_sum_a[s]
                for lb, pb in by_sum_b[s]
            ]
            combos.sort()
            for _, _, pa, pb in combos:
                yield SwapMove(ca, cb, pa, pb)


def build_family(
    params: FamilyParams,
    stage: str = "crossed",
    swaps: Optional[List[SwapMove]] = None,
    mat: Optional[LabelMatrix] = None,
) -> LabeledGraph:
    """Convenience pipeline: matrix -> base -> crossed [-> merged] [-> swaps].

    Pass `mat`, the label matrix of `params`, when the caller has it already.
    """
    if stage not in ("base", "crossed", "merged"):
        raise ParamError(f"unknown stage {stage!r}")
    g = build_base_graph(build_matrix(params) if mat is None else mat)
    if stage != "base":
        g = apply_crossing(g, params)
    if stage == "merged":
        g = apply_merge(g, params)
    for idx, move in enumerate(swaps or []):
        try:
            g = apply_swap(g, move)
        except SwapError as exc:
            raise SwapError(f"swap #{idx}: {exc}") from exc
    return g
