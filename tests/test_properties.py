"""Randomized and exhaustive property checks on small instances."""
import random

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    LabeledGraph,
    apply_swap,
    book_graph,
    build_family,
    cross_check,
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
            assert base.degree(v) == crossed.degree(v)


@pytest.mark.parametrize(
    "graph", [book_graph(1, 1), book_graph(2, 1), book_graph(1, 2), path_p2()],
    ids=["k3", "book2", "fan", "p2"],
)
def test_oracle_verifier_agreement_on_random_labelings(graph):
    order = graph.sorted_edges()
    labels = dict(zip(order, range(1, graph.q + 1)))
    g = LabeledGraph(part=dict(graph.part), edges=set(graph.edges), labels=labels)
    assert cross_check(g, samples=50, seed=99)
