import itertools
import random

import pytest

from localantimagic import (
    LabeledGraph,
    Role,
    VertexId,
    book_graph,
    cross_check,
    edge,
    exhaustive_chi_la,
    path_p2,
    verify_local_antimagic,
)
from localantimagic.oracle import BudgetError, _kernel_inputs, _plain_valid


def test_k3():
    r = exhaustive_chi_la(book_graph(1, 1))
    assert r.chi_la == 3
    assert r.valid_labelings == 6
    assert r.labelings_tried == r.valid_labelings


def test_two_books():
    # 672 of the 720 bijections are valid; test_fallback_kernel_agrees
    # counts them by brute force too
    r = exhaustive_chi_la(book_graph(2, 1))
    assert r.chi_la == 3
    assert r.valid_labelings == 672
    assert r.labelings_tried == r.valid_labelings


def test_p2_has_no_labeling():
    r = exhaustive_chi_la(path_p2())
    assert r.chi_la is None
    assert r.witness is None
    assert r.valid_labelings == 0


def test_p2_component_blocks_labeling():
    # disjoint union of K_3 and P_2: the P_2 forces equal endpoint sums
    g3 = book_graph(1, 1)
    u, v = VertexId(Role.U, 9), VertexId(Role.V, 9)
    part = dict(g3.part)
    part[u] = 1
    part[v] = 2
    g = LabeledGraph(part=part, edges=g3.edges | {edge(u, v)})
    assert exhaustive_chi_la(g).chi_la is None


def test_witness_verifies():
    r = exhaustive_chi_la(book_graph(2, 1))
    g = book_graph(2, 1)
    labeled = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=r.witness)
    rep = verify_local_antimagic(labeled)
    assert rep.is_local_antimagic
    assert rep.c_f == r.chi_la


def test_oracle_deterministic():
    r1 = exhaustive_chi_la(book_graph(2, 1))
    r2 = exhaustive_chi_la(book_graph(2, 1))
    assert r1 == r2


def test_minimum_is_attained():
    # every valid labeling has c_f >= chi_la; spot-check by full enumeration
    from itertools import permutations

    g = book_graph(1, 1)
    order = _kernel_inputs(g)[0]
    best = exhaustive_chi_la(g).chi_la
    counts = []
    for perm in permutations(range(1, 4)):
        labeled = LabeledGraph(
            part=dict(g.part), edges=set(g.edges), labels=dict(zip(order, perm))
        )
        rep = verify_local_antimagic(labeled)
        if rep.is_local_antimagic:
            counts.append(rep.c_f)
    assert min(counts) == best


def test_permutation_invariance():
    # same graph with shuffled vertex identities gives the same chi_la
    g = book_graph(2, 1)
    swapped_part = {}
    mapping = {}
    for v in sorted(g.part):
        nv = VertexId(v.role, v.copy_index + 5, v.leaf_index)
        mapping[v] = nv
        swapped_part[nv] = g.part[v]
    swapped = LabeledGraph(
        part=swapped_part,
        edges={edge(mapping[a], mapping[b]) for a, b in g.edges},
    )
    assert exhaustive_chi_la(swapped).chi_la == exhaustive_chi_la(g).chi_la


def test_budget_refusal():
    with pytest.raises(BudgetError, match="over the budget"):
        exhaustive_chi_la(book_graph(3, 2))  # 15 edges


def test_hard_limit_caps_budget():
    with pytest.raises(BudgetError):
        exhaustive_chi_la(book_graph(3, 2), edge_budget=100)


def _random_tripartite(rng, q):
    """A simple graph with q edges, each between two of three parts."""
    pairs = []
    while len(pairs) < q:
        nv = rng.randint(3, q + 1)
        vs = [VertexId(Role.X, rng.randint(1, 3), i) for i in range(1, nv + 1)]
        pairs = [(a, b) for a, b in itertools.combinations(vs, 2)
                 if a.copy_index != b.copy_index]
    return LabeledGraph(
        part={v: v.copy_index for v in vs},
        edges={edge(a, b) for a, b in rng.sample(pairs, q)},
    )


def _reference_chi_la(g):
    """(chi_la, witness, valid count) by trying every permutation of 1..q
    on the oracle's edge order, in lexicographic order."""
    order = _kernel_inputs(g)[0]
    best, witness, valid = None, None, 0
    for labels in itertools.permutations(range(1, g.q + 1)):
        sums = dict.fromkeys(g.part, 0)
        for (a, b), lab in zip(order, labels):
            sums[a] += lab
            sums[b] += lab
        if any(sums[a] == sums[b] for a, b in order):
            continue
        valid += 1
        colors = len(set(sums.values()))
        if best is None or colors < best:
            best, witness = colors, dict(zip(order, labels))
    return best, witness, valid


def _ring(k, closed=False, isolated=0):
    """The path on k vertices (the cycle when closed) in parts 1, 2
    alternately, part 3 closing an odd cycle, plus isolated part-3
    vertices."""
    vs = [VertexId(Role.X, 1 + i % 2, i + 1) for i in range(k)]
    if closed and k % 2:
        vs[-1] = VertexId(Role.X, 3, k)
    pairs = list(zip(vs, vs[1:])) + ([(vs[-1], vs[0])] if closed else [])
    part = {v: v.copy_index for v in vs}
    part.update((VertexId(Role.Y, 1, j), 3) for j in range(1, isolated + 1))
    return LabeledGraph(part=part, edges={edge(a, b) for a, b in pairs})


# bipartite, q = 7, chi_la = 2: both sides have one sum each (7 and 14)
_TWO_COLORS = LabeledGraph(
    part={VertexId(Role.X, p, i): p for p, i in ((1, 1), (1, 2), (1, 3), (1, 4), (2, 1), (2, 2))},
    edges={edge(VertexId(Role.X, 1, a), VertexId(Role.X, 2, b))
           for a, b in ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1), (4, 1), (4, 2))},
)

REFERENCE_GRAPHS = [book_graph(1, 1), book_graph(1, 2), book_graph(2, 1), book_graph(1, 3),
                    path_p2()]
REFERENCE_GRAPHS += [_random_tripartite(random.Random(seed), q)
                     for seed, q in enumerate((4, 5, 6, 6, 7, 7))]
REFERENCE_GRAPHS += [
    _ring(1),  # q = 0
    _ring(3), book_graph(2, 0),  # q = 2: P_3 and two disjoint edges
    _ring(4), _ring(5), _ring(4, closed=True), _ring(6, closed=True),  # floor 2
    _ring(5, closed=True),  # odd cycle
    _ring(3, isolated=1), _ring(3, closed=True, isolated=1),
    _TWO_COLORS,
]


def _graph(pairs):
    """The graph on the given edges, vertex (p, i) in part p."""
    ends = [(VertexId(Role.X, *a), VertexId(Role.X, *b)) for a, b in pairs]
    return LabeledGraph(part={v: v.copy_index for e in ends for v in e},
                        edges={edge(a, b) for a, b in ends})


# twin pairs: K_{2,3} has four, all overlapping; the triangle with two
# pendants on one corner has two disjoint ones (the pendants, and the
# other two corners, which are adjacent); the star K_{1,3} plus an edge
# between two leaves has one adjacent pair
TWINS = [
    _graph([((1, a), (2, b)) for a in (1, 2) for b in (1, 2, 3)]),
    _graph([((1, 1), (2, 1)), ((1, 1), (3, 1)), ((2, 1), (3, 1)),
            ((1, 1), (2, 2)), ((1, 1), (2, 3))]),
    _graph([((1, 1), (2, 1)), ((1, 1), (3, 1)), ((1, 1), (2, 2)), ((2, 1), (3, 1))]),
]
REFERENCE_GRAPHS += TWINS


def test_fallback_kernel_agrees():
    # the search kernel against a plain enumeration of every bijection, on
    # q = 0..7, bipartite graphs (floor 2), graphs with odd cycles (floor
    # 3), each floor reached by some graph, and graphs with twins.  An
    # isolated vertex's sum 0 is one more color, so graphs with one never
    # reach the floor; those graphs check the color count there.
    assert any(len(g.part) > len({v for e in g.edges for v in e}) for g in REFERENCE_GRAPHS)
    assert {0, 1, 2, 3} <= {g.q for g in REFERENCE_GRAPHS}
    reached = set()
    for g in REFERENCE_GRAPHS:
        chi, witness, valid = _reference_chi_la(g)
        floor = _kernel_inputs(g)[1][-1]
        if chi == floor:
            reached.add(floor)
        assert exhaustive_chi_la(g) == (chi, witness, valid, valid)
    assert reached == {2, 3}


def _twin_pairs(g):
    """Vertex positions x < y with N(x) - {y} == N(y) - {x} != {}, in order."""
    vs = g._vertices
    nbrs = {v: set() for v in vs}
    for a, b in g.edges:
        nbrs[a].add(b)
        nbrs[b].add(a)
    return [(x, y) for x, y in itertools.combinations(range(len(vs)), 2)
            if nbrs[vs[x]] - {vs[y]} == nbrs[vs[y]] - {vs[x]} != set()]


def test_twin_swaps_are_disjoint_automorphisms():
    # each kept pair's vertex swap maps the edge set onto itself, kept
    # pairs move disjoint edges, a candidate is refused only when it moves
    # an edge that an earlier kept pair moves, and low marks the image of
    # each kept swap's first moved position with that position
    kept = {}
    for g in REFERENCE_GRAPHS:
        order, inputs, twins = _kernel_inputs(g)
        low, q = inputs[3], inputs[4]
        at = {e: pos for pos, e in enumerate(order)}
        want_low, moved = [q] * q, set()
        for x, y in _twin_pairs(g):
            swap = {g._vertices[x]: g._vertices[y], g._vertices[y]: g._vertices[x]}
            image = {e: edge(swap.get(e[0], e[0]), swap.get(e[1], e[1])) for e in order}
            assert set(image.values()) == set(order)
            moves = {at[e] for e in order if image[e] != e}
            assert moves
            assert ((x, y) in twins) == moved.isdisjoint(moves)
            if (x, y) in twins:
                moved |= moves
                first = min(moves)
                want_low[at[image[order[first]]]] = first
        assert low == want_low
        kept[id(g)] = (len(twins), len(_twin_pairs(g)))
    k23, pendants, paw = TWINS
    c4 = _ring(4, closed=True)
    assert kept[id(k23)] == (1, 4)
    assert kept[id(pendants)] == (2, 2)
    assert kept[id(paw)] == (1, 1)
    assert _kernel_inputs(c4)[2] == [(0, 1)] and len(_twin_pairs(c4)) == 2
    assert sum(k for k, _ in kept.values()) >= 20


def test_floor_is_two_exactly_on_bipartite_graphs():
    # the oracle's parity union-find against the graph index's BFS
    floors = [_kernel_inputs(g)[1][-1] for g in REFERENCE_GRAPHS]
    assert floors == [2 if g.index.bipartite else 3 for g in REFERENCE_GRAPHS]
    assert floors.count(2) >= 8 and floors.count(3) >= 8


def test_cross_check_valid_triangle():
    g = book_graph(1, 1)
    order = g.sorted_edges()
    labeled = LabeledGraph(
        part=dict(g.part), edges=set(g.edges), labels=dict(zip(order, [1, 2, 3]))
    )
    assert cross_check(labeled)


def test_cross_check_rejects_non_bijection_on_both_sides():
    from localantimagic.oracle import _plain_valid

    g = book_graph(1, 1)
    order = g.sorted_edges()
    labeled = LabeledGraph(
        part=dict(g.part), edges=set(g.edges), labels=dict(zip(order, [1, 2, 2]))
    )
    assert not _plain_valid(labeled)
    assert not verify_local_antimagic(labeled).is_local_antimagic


def test_cross_check_random_samples():
    g = book_graph(2, 1)
    order = g.sorted_edges()
    rng = random.Random(7)
    labeled = LabeledGraph(
        part=dict(g.part),
        edges=set(g.edges),
        labels=dict(zip(order, rng.sample(range(1, 7), 6))),
    )
    assert cross_check(labeled, samples=50, seed=1)


def test_plain_valid_is_false_on_partly_labeled_graphs():
    g = book_graph(1, 1)
    assert not _plain_valid(g)
    first = g.sorted_edges()[0]
    one = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels={first: 1})
    assert not _plain_valid(one)
