import ast
import itertools
import math
import random
from pathlib import Path

import pytest

from localantimagic import (
    LabeledGraph,
    ParamError,
    Role,
    VertexId,
    book_graph,
    edge,
    exhaustive_chi_la,
    oracle,
    path_p2,
    verify_local_antimagic,
)
from localantimagic.oracle import (
    BudgetError,
    _kernel_inputs,
    _orbit_bounds,
    _plain_valid,
    _symmetry,
)


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
    assert len(rep.distinct_colors) == r.chi_la


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
            counts.append(len(rep.distinct_colors))
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


def test_negative_budget_is_refused_before_the_edge_count():
    empty = LabeledGraph(part={}, edges=set())
    with pytest.raises(BudgetError, match=r"^budget must be >= 0, got -1$"):
        exhaustive_chi_la(empty, edge_budget=-1)
    assert exhaustive_chi_la(empty, edge_budget=0).chi_la == 0


@pytest.mark.parametrize("budget", [10.5, True, "10"], ids=["float", "bool", "str"])
def test_budget_must_be_an_int(budget):
    with pytest.raises(BudgetError, match=rf"^budget must be an int, got {budget!r}$"):
        exhaustive_chi_la(book_graph(1, 1), edge_budget=budget)


@pytest.mark.parametrize(
    "a, m, name",
    [(1.5, 1, "a"), (True, 1, "a"), ("2", 1, "a"), (1, 2.0, "m"), (1, False, "m")],
    ids=["a-float", "a-bool", "a-str", "m-float", "m-bool"],
)
def test_book_sizes_must_be_ints(a, m, name):
    bad = a if name == "a" else m
    with pytest.raises(ParamError, match=rf"^{name} must be an int, got {bad!r}$"):
        book_graph(a, m)


@pytest.mark.parametrize("a, m", itertools.product(range(1, 5), range(5)))
def test_book_graph_is_its_definition(a, m):
    """aP_2 v O_m built in dicts from its definition: the edges u_iv_i, and
    every u_i and v_i joined to every shared leaf.  The books share their
    layout with the family stages, so a fault in it fails here too."""
    us = [VertexId(Role.U, i) for i in range(1, a + 1)]
    vs = [VertexId(Role.V, i) for i in range(1, a + 1)]
    leaves = [VertexId(Role.X, 1, j) for j in range(1, m + 1)]
    edges = {edge(u, v) for u, v in zip(us, vs)}
    edges |= {edge(w, x) for w in us + vs for x in leaves}
    part = {**dict.fromkeys(us, 1), **dict.fromkeys(vs, 2), **dict.fromkeys(leaves, 3)}
    assert book_graph(a, m) == LabeledGraph(part=part, edges=edges)


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


@pytest.fixture(scope="module")
def reference_graphs():
    """Built when a test asks, not while the module is collected, so a
    fault in book_graph fails the tests that use books and leaves the
    others to run."""
    graphs = [book_graph(1, 1), book_graph(1, 2), book_graph(2, 1), book_graph(1, 3),
              path_p2()]
    graphs += [_random_tripartite(random.Random(seed), q)
               for seed, q in enumerate((4, 5, 6, 6, 7, 7))]
    graphs += [
        _ring(1),  # q = 0
        _ring(3), book_graph(2, 0),  # q = 2: P_3 and two disjoint edges
        _ring(4), _ring(5), _ring(4, closed=True), _ring(6, closed=True),  # floor 2
        _ring(5, closed=True),  # odd cycle
        _ring(3, isolated=1), _ring(3, closed=True, isolated=1),
        _TWO_COLORS,
    ]
    return graphs + TWINS


def test_fallback_kernel_agrees(reference_graphs):
    # the search kernel against a plain enumeration of every bijection, on
    # q = 0..7, bipartite graphs (floor 2), graphs with odd cycles (floor
    # 3), each floor reached by some graph, and graphs with twins.  An
    # isolated vertex's sum 0 is one more color, so graphs with one never
    # reach the floor; those graphs check the color count there.
    assert any(len(g.part) > len({v for e in g.edges for v in e}) for g in reference_graphs)
    assert {0, 1, 2, 3} <= {g.q for g in reference_graphs}
    reached = set()
    for g in reference_graphs:
        chi, witness, valid = _reference_chi_la(g)
        floor = _kernel_inputs(g)[1][-1]
        if chi == floor:
            reached.add(floor)
        assert exhaustive_chi_la(g) == (chi, witness, valid, valid)
    assert reached == {2, 3}


def _bounded_count(low, q):
    """The permutations of 1..q whose label at each position p exceeds the
    label at low[p] (no bound when low[p] == q)."""
    return sum(all(lab[p] > lab[low[p]] for p in range(q) if low[p] < q)
               for lab in itertools.permutations(range(1, q + 1)))


def test_bounds_keep_one_labeling_per_orbit(reference_graphs):
    # every bound points back, and the bounded permutations times the group
    # order is q!: one bijection per orbit, and no orbit is smaller
    for g in reference_graphs:
        _, inputs, order = _kernel_inputs(g)
        low, q = inputs[3], inputs[4]
        assert all(low[p] == q or low[p] < p for p in range(q))
        assert _bounded_count(low, q) * order == math.factorial(q)
    assert sum(_kernel_inputs(g)[2] > 1 for g in reference_graphs) >= 20


def _edge_automorphisms(g):
    """The distinct edge permutations that g's vertex automorphisms induce,
    by trying every vertex permutation that keeps degrees."""
    vs = sorted(g.part)
    deg = {v: sum(v in e for e in g.edges) for v in vs}
    classes = [[v for v in vs if deg[v] == d] for d in sorted(set(deg.values()))]
    edges = sorted(g.edges)
    found = set()
    for images in itertools.product(*(itertools.permutations(c) for c in classes)):
        to = {v: w for c, image in zip(classes, images) for v, w in zip(c, image)}
        moved = [edge(to[a], to[b]) for a, b in edges]
        if set(moved) == g.edges:
            found.add(tuple(moved))
    return len(found)


# Q_3 (48 automorphisms, no twins) and two disjoint triangles (each a
# class of true twins, with no edge to another class)
SYMMETRIC = [
    _graph([((1 + bin(a).count("1") % 2, a + 1), (1 + bin(b).count("1") % 2, b + 1))
            for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]),
    _graph([((1, i), (2, i)) for i in (1, 2)] + [((1, i), (3, i)) for i in (1, 2)]
           + [((2, i), (3, i)) for i in (1, 2)]),
]


def test_group_is_every_edge_automorphism_but_lone_edge_moves(reference_graphs):
    # the group is all of Aut(G) acting on the edges, except that lone
    # edges stay put: moving a lone edge's ends does not move the edge, so
    # they are left out, and k lone edges lose the k! ways to permute them
    for g in reference_graphs + SYMMETRIC:
        if len(g.part) > 8:
            continue
        lone = sum(all(sum(v in f for f in g.edges) == 1 for v in e) for e in g.edges)
        assert _edge_automorphisms(g) == _kernel_inputs(g)[2] * math.factorial(lone)
    assert [_kernel_inputs(g)[2] for g in SYMMETRIC] == [48, 72]


def test_bounds_hold_in_any_edge_order():
    # _orbit_bounds moves a kept permutation back onto edge p inside the
    # blocks; the oracle's own edge order has not needed that on any graph
    # tried, and shuffled orders of these graphs do
    k33 = _graph([((1, a), (2, b)) for a in (1, 2, 3) for b in (1, 2, 3)])
    for g in (_ring(4, closed=True), TWINS[0], k33):
        _, (eu, ev, *_), _ = _kernel_inputs(g)
        nbrs = [set(adj) for adj in g.index.adj]
        rng = random.Random(0)
        for _ in range(12):
            ends = list(zip(eu, ev))
            rng.shuffle(ends)
            low, order = _orbit_bounds([a for a, _ in ends], [b for _, b in ends], nbrs)
            assert order == _edge_automorphisms(g)
            if g.q <= 6:
                assert _bounded_count(low, g.q) * order == math.factorial(g.q)


def test_twin_classes_are_taken_whole():
    # the lifts are the quotient's automorphisms alone: book(3, 1) has
    # three classes {u_i, v_i} to permute, K_{1,12} one class of leaves
    for g, lifts in ((book_graph(3, 1), 6), (STAR, 1)):
        assert len(_symmetry([set(adj) for adj in g.index.adj])[1]) == lifts


def _disjoint(copies, pairs):
    """copies disjoint copies of the graph on pairs, as _graph takes them."""
    return _graph([((p, i + c * 20), (r, j + c * 20)) for c in range(copies)
                   for (p, i), (r, j) in pairs])


STAR = _graph([((1, 1), (2, j)) for j in range(1, 13)])  # K_{1,12}
MATCHING = _disjoint(12, [((1, 1), (2, 1))])  # twelve disjoint edges
PATHS = _disjoint(6, [((1, 1), (2, 1)), ((1, 1), (2, 2))])  # six disjoint P_3


def test_group_orders_are_pinned():
    books = {(1, 1): 6, (1, 2): 4, (1, 3): 12, (2, 1): 8, (3, 1): 48,
             (1, 4): 48, (2, 2): 16, (1, 5): 240, (4, 1): 384}
    assert {am: _kernel_inputs(book_graph(*am))[2] for am in books} == books
    assert _kernel_inputs(STAR)[2] == math.factorial(12)
    assert _kernel_inputs(MATCHING)[2] == 1
    assert _kernel_inputs(PATHS)[2] == 46_080  # 6! * 2^6


def test_twelve_edge_graphs_with_large_groups():
    # every bijection is valid on K_{1,12} (each leaf's sum is its label,
    # the center's is 78) and on six disjoint P_3 (a center's sum exceeds
    # both its leaves'); six P_3 need 13 colors, reached when every center
    # sums to 13, as the twelve labels cannot pair into sums of at most 12
    star = exhaustive_chi_la(STAR, edge_budget=12)
    assert (star.chi_la, star.valid_labelings) == (13, math.factorial(12))
    assert exhaustive_chi_la(MATCHING, edge_budget=12).valid_labelings == 0
    paths = exhaustive_chi_la(PATHS, edge_budget=12)
    assert (paths.chi_la, paths.valid_labelings) == (13, math.factorial(12))


@pytest.mark.parametrize("am, valid", [((3, 1), 362_880), ((1, 4), 342_144),
                                       ((2, 2), 2_206_640)])
def test_larger_books_have_chi_la_3(am, valid):
    r = exhaustive_chi_la(book_graph(*am))
    assert (r.chi_la, r.valid_labelings) == (3, valid)


def test_floor_is_two_exactly_on_bipartite_graphs(reference_graphs):
    # the oracle's parity union-find against the graph index's BFS
    floors = [_kernel_inputs(g)[1][-1] for g in reference_graphs]
    assert floors == [2 if g.index.bipartite else 3 for g in reference_graphs]
    assert floors.count(2) >= 8 and floors.count(3) >= 8


def test_oracle_reads_nothing_of_the_verifier():
    """The oracle is the independent side of the verifier-vs-oracle check:
    it names no verifier function or record and reads no component or
    bipartiteness of the graph index (its adjacency stays allowed)."""
    tree = ast.parse(Path(oracle.__file__).read_text())
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    names |= {a.asname or a.name for n in ast.walk(tree) if isinstance(n, ast.ImportFrom)
              for a in n.names}
    attrs = {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)}
    verifier = {"verify_local_antimagic", "chromatic_lower_bound", "ColorReport",
                "induced_colors", "graph_stats", "components_of", "check_tripartite"}
    assert not (names | attrs) & verifier
    assert not attrs & {"bipartite", "component", "components"}
    assert "adj" in attrs  # the walk does see g.index.adj


def test_cross_check_valid_triangle(cross_check):
    g = book_graph(1, 1)
    order = sorted(g.edges)
    labeled = LabeledGraph(
        part=dict(g.part), edges=set(g.edges), labels=dict(zip(order, [1, 2, 3]))
    )
    assert cross_check(labeled)


def test_cross_check_rejects_non_bijection_on_both_sides():
    from localantimagic.oracle import _plain_valid

    g = book_graph(1, 1)
    order = sorted(g.edges)
    labeled = LabeledGraph(
        part=dict(g.part), edges=set(g.edges), labels=dict(zip(order, [1, 2, 2]))
    )
    assert not _plain_valid(labeled)
    assert not verify_local_antimagic(labeled).is_local_antimagic


def test_cross_check_random_samples(cross_check):
    g = book_graph(2, 1)
    order = sorted(g.edges)
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
    first = sorted(g.edges)[0]
    one = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels={first: 1})
    assert not _plain_valid(one)
