"""Randomized and exhaustive property checks on small instances."""
import random
import re
from collections import Counter

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    LabeledGraph,
    SwapError,
    SwapMove,
    apply_swap,
    book_graph,
    build_family,
    induced_colors,
    iter_connecting_swaps,
    path_p2,
)

RNG = random.Random(20240817)


def random_params():
    fam = RNG.choice([Family.M2, Family.M3])
    return FamilyParams(fam, RNG.randint(1, 6), RNG.randint(1, 8))


@pytest.mark.parametrize("trial", range(40))
def test_handshake_on_random_instances(trial):
    params = random_params()
    stage = RNG.choice(["base", "crossed"])
    g = build_family(params, stage)
    colors = induced_colors(g)
    assert sum(colors.values()) == g.q * (g.q + 1)
    assert sorted(g.labels.values()) == list(range(1, g.q + 1))


def test_label_multiset_preserved_through_pipeline():
    for fam in (Family.M2, Family.M3):
        params = FamilyParams(fam, 2, 4, (1, 1))
        base = build_family(params, "base")
        crossed = build_family(params, "crossed")
        merged = build_family(params, "merged")
        want = list(range(1, base.q + 1))
        assert sorted(base.labels.values()) == want
        assert sorted(crossed.labels.values()) == want
        assert sorted(merged.labels.values()) == want


@pytest.mark.parametrize("fam", [Family.M2, Family.M3])
def test_every_swap_on_example_graphs_preserves_colors(fam):
    g = build_family(FamilyParams(fam, 2, 4, (1, 1)), "merged")
    before = induced_colors(g)
    moves = list(iter_connecting_swaps(g))
    assert moves
    for move in moves:
        swapped = apply_swap(g, move)
        assert induced_colors(swapped) == before
        assert sorted(swapped.labels.values()) == sorted(g.labels.values())


def test_crossing_preserves_uv_degrees():
    params = FamilyParams(Family.M3, 3, 2)
    base = build_family(params, "base")
    crossed = build_family(params, "crossed")
    from localantimagic import Role

    for v in base.part:
        if v.role in (Role.U, Role.V):
            assert len(base.index.adj[base._position(v)]) == len(
                crossed.index.adj[crossed._position(v)])


@pytest.mark.parametrize(
    "graph", [book_graph(1, 1), book_graph(2, 1), book_graph(1, 2), path_p2()],
    ids=["k3", "book2", "fan", "p2"],
)
def test_oracle_verifier_agreement_on_random_labelings(graph, cross_check):
    order = sorted(graph.edges)
    labels = dict(zip(order, range(1, graph.q + 1)))
    g = LabeledGraph(part=dict(graph.part), edges=set(graph.edges), labels=labels)
    assert cross_check(g, samples=50, seed=99)


def reference_swap(g, move):
    """(the swapped graph, None) for a valid move, else (None, the reason);
    the graph is rebuilt from g's dict views through the checking
    constructor, and the reasons are tried in apply_swap's order."""
    ca, cb, pa, pb = move
    four = {*pa, *pb}
    if (ca == cb or len(four) < 4 or not four <= g.edges
            or not all(ca in e for e in pa) or not all(cb in e for e in pb)):
        return None, "malformed"
    labels = g.labels
    if labels[pa[0]] + labels[pa[1]] != labels[pb[0]] + labels[pb[1]]:
        return None, "sums differ"
    rehomed = [(e, e[0] if e[1] == old else e[1], new)
               for es, old, new in ((pa, ca, cb), (pb, cb, ca)) for e in es]
    if any(g.part[far] == g.part[new] for _, far, new in rehomed):
        return None, "part clash"
    kept = {e: labels[e] for e in g.edges - four}
    added = {tuple(sorted((far, new))): labels[e] for e, far, new in rehomed}
    if len(added) < 4 or kept.keys() & added.keys():
        return None, "duplicate edge"
    return LabeledGraph(part=dict(g.part), edges=set(kept) | set(added),
                        labels={**kept, **added}), None


SWAP_MESSAGE = {"sums differ": "sums differ", "part clash": "shares a part",
                "duplicate edge": "not simple: .* listed twice"}


def random_move(rng, g, inc):
    """Two edges at each of two random centers (part 3 half the time);
    pair_b has pair_a's label sum when it can, three times in four.  Now
    and then the centers are one vertex or a pair repeats an edge."""
    leaves = [v for v in g.part if g.part[v] == 3]
    ca, cb = (rng.choice(leaves if rng.random() < 0.5 else list(g.part)) for _ in "ab")
    if rng.random() < 0.05:
        cb = ca

    def pair(c):
        return tuple(rng.choices(inc[c], k=2) if rng.random() < 0.1 else rng.sample(inc[c], 2))

    pa = pair(ca)
    total = g.labels[pa[0]] + g.labels[pa[1]]
    even = [(e, f) for e in inc[cb] for f in inc[cb]
            if e != f and g.labels[e] + g.labels[f] == total]
    if even and rng.random() < 0.75:
        return SwapMove(ca, cb, pa, rng.choice(even))
    return SwapMove(ca, cb, pa, pair(cb))


@pytest.mark.parametrize(
    "fam, n, k, rs, swaps_first",
    [(Family.M2, 1, 4, (1, 1), 0), (Family.M3, 1, 4, (1, 1), 0),
     (Family.M2, 1, 7, (2, 1), 0), (Family.M3, 2, 4, (1, 1), 1)],
)
def test_apply_swap_matches_dict_built_reference(fam, n, k, rs, swaps_first):
    g = build_family(FamilyParams(fam, n, k, rs), "merged")
    for _ in range(swaps_first):
        g = apply_swap(g, next(iter_connecting_swaps(g)))
    rng = random.Random(f"{fam.value}-{n}-{k}-{swaps_first}")
    edges = sorted(g.edges)
    inc = {v: [edges[e] for e in es] for v, es in zip(g._vertices, g._incident_positions())}
    reasons, leaf_centers = Counter(), 0
    for _ in range(1000):
        move = random_move(rng, g, inc)
        leaf_centers += 3 in (g.part[move.center_a], g.part[move.center_b])
        want, reason = reference_swap(g, move)
        reasons[reason] += 1
        if want is not None:
            assert apply_swap(g, move) == want
            continue
        with pytest.raises(SwapError) as info:
            apply_swap(g, move)
        if reason in SWAP_MESSAGE:
            assert re.search(SWAP_MESSAGE[reason], str(info.value))
    assert leaf_centers and reasons[None] and all(reasons[r] for r in SWAP_MESSAGE), reasons
