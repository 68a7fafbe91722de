import itertools
import math
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
from localantimagic.oracle import BudgetError, _edge_order


def test_k3():
    r = exhaustive_chi_la(book_graph(1, 1), prune=False)
    assert r.chi_la == 3
    assert r.labelings_tried == 6
    assert r.valid_labelings == 6


def test_two_books():
    r = exhaustive_chi_la(book_graph(2, 1), prune=False)
    assert r.chi_la == 3
    assert r.labelings_tried == 720


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
    order = _edge_order(g)
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
    for v in g.vertices():
        nv = VertexId(v.role, v.copy_index + 5, v.leaf_index)
        mapping[v] = nv
        swapped_part[nv] = g.part[v]
    swapped = LabeledGraph(
        part=swapped_part,
        edges={edge(mapping[a], mapping[b]) for a, b in g.edges},
    )
    assert exhaustive_chi_la(swapped).chi_la == exhaustive_chi_la(g).chi_la


def test_prune_matches_no_prune():
    for graph in (book_graph(1, 2), book_graph(2, 1), book_graph(1, 3)):
        a = exhaustive_chi_la(graph, edge_budget=12, prune=True)
        b = exhaustive_chi_la(graph, edge_budget=12, prune=False)
        assert a.chi_la == b.chi_la
        assert a.valid_labelings == b.valid_labelings
        assert a.witness == b.witness


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
    order = _edge_order(g)
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


REFERENCE_GRAPHS = [book_graph(1, 1), book_graph(1, 2), book_graph(2, 1), book_graph(1, 3),
                    path_p2()]
REFERENCE_GRAPHS += [_random_tripartite(random.Random(seed), q)
                     for seed, q in enumerate((4, 5, 6, 6, 7, 7))]


def test_fallback_kernel_agrees():
    # the search kernel against a plain enumeration of every bijection;
    # one random graph has an isolated vertex, whose sum 0 is a color
    assert any(len(g.part) > len({v for e in g.edges for v in e}) for g in REFERENCE_GRAPHS)
    for g in REFERENCE_GRAPHS:
        chi, witness, valid = _reference_chi_la(g)
        for prune in (True, False):
            r = exhaustive_chi_la(g, prune=prune)
            assert (r.chi_la, r.valid_labelings) == (chi, valid)
            assert r.witness == witness
            assert r.labelings_tried == (valid if prune else math.factorial(g.q))


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
