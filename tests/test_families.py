import pytest

from localantimagic import (
    Family,
    FamilyParams,
    GraphError,
    LabeledGraph,
    ParamError,
    Role,
    SwapError,
    SwapMove,
    VertexId,
    apply_crossing,
    apply_merge,
    apply_swap,
    book_graph,
    build_base_graph,
    build_family,
    build_matrix,
    edge,
    graph_stats,
    induced_colors,
    iter_connecting_swaps,
    verify_local_antimagic,
)
from localantimagic.families import connecting_center_pairs
from localantimagic.sweep import grid_cells


def test_base_graph_m2():
    params = FamilyParams(Family.M2, 2, 4)
    g = build_base_graph(build_matrix(params))
    components, degs, _ = graph_stats(g)
    assert components == 9
    assert g.q == 81
    assert sorted(g.labels.values()) == list(range(1, 82))
    # each copy: u, v and 4 leaves; leaf colors vary so this is a precursor
    colors = induced_colors(g)
    assert colors[VertexId(Role.U, 1)] == 205
    assert colors[VertexId(Role.V, 1)] == 169


def test_base_graph_m3_small():
    g = build_base_graph(build_matrix(FamilyParams(Family.M3, 1, 1)))
    components, _, _ = graph_stats(g)
    assert components == 3
    assert g.q == 21
    assert sorted(g.labels.values()) == list(range(1, 22))


@pytest.mark.parametrize("family,n,k", [(Family.M2, 1, 2), (Family.M3, 2, 3)])
def test_base_component_count(family, n, k):
    g = build_base_graph(build_matrix(FamilyParams(family, n, k)))
    assert graph_stats(g)[0] == 2 * k + 1


def test_crossing_g45(g45):
    rep = verify_local_antimagic(g45)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [91, 169, 205]
    assert graph_stats(g45)[0] == 5
    for v, c in induced_colors(g45).items():
        if v.role in (Role.Y, Role.Z, Role.X):
            assert c == 91  # n(8k+4)+4k+3 at n=2, k=4


def test_crossing_g55(g55):
    rep = verify_local_antimagic(g55)
    assert rep.is_local_antimagic
    for v, c in induced_colors(g55).items():
        if v.role in (Role.Y, Role.Z, Role.X):
            assert c == 109  # (2n+2)(4k+2)+1 at n=2, k=4


def test_crossing_component_count():
    for fam in (Family.M2, Family.M3):
        for n, k in [(1, 1), (2, 3), (3, 5)]:
            g = build_family(FamilyParams(fam, n, k), "crossed")
            assert graph_stats(g)[0] == k + 1


CHAIN_CELLS = [
    (FamilyParams(fam, n, k), "crossed")
    for fam in (Family.M2, Family.M3) for n in range(1, 5) for k in range(1, 7)
] + [
    (FamilyParams(fam, n, 2 * r * s + r + s, (r, s)), "merged")
    for fam in (Family.M2, Family.M3) for n in range(1, 5)
    for r in range(1, 4) for s in range(1, 4)
]


@pytest.mark.parametrize("params,stage", CHAIN_CELLS)
def test_build_family_equals_the_staged_chain(params, stage):
    g = build_base_graph(build_matrix(params))
    assert build_family(params, "base") == g
    g = apply_crossing(g, params)
    assert build_family(params, "crossed") == g
    if stage == "merged":
        assert build_family(params, "merged") == apply_merge(g, params)


def reference_stage(params, stage):
    """The stage as the docstrings of build_base_graph, apply_crossing and
    apply_merge describe it, built edge by edge in dicts.  It never calls
    _layout, _graph or build_family, so it checks their layout.

    Copy i is u_i v_i with both ends joined to leaves x_{i,1..m}; its edges
    carry column i of the matrix.  Crossing moves v_i's leaf edge j to
    leaf j of copy 2k+2-i, then renames the leaves of copy i: y_i for
    i <= k, z_{2k+2-i} for i >= k+2, x_{k+1} for copy k+1.  Merging
    identifies the y (and z) leaves of copies in runs of 2s+1 starting at
    lo into MY(lo) (MZ(lo)); the last run straddles copy k+1 and merges
    with x_{k+1} into MX(k+1)."""
    mat = build_matrix(params)
    k, m = params.k, params.leaves_per_copy

    def leaf(i, j):
        if stage == "base":
            return VertexId(Role.X, i, j)
        role, b = ((Role.Y, i) if i <= k else (Role.X, i) if i == k + 1
                   else (Role.Z, 2 * k + 2 - i))
        if stage == "crossed":
            return VertexId(role, b, j)
        block = 2 * params.factorization[1] + 1
        lo = (b - 1) // block * block + 1
        if role is Role.X or lo > params.factorization[0] * block:
            return VertexId(Role.MX, k + 1, j)
        return VertexId(Role.MY if role is Role.Y else Role.MZ, lo, j)

    labels = {}
    for i in range(1, 2 * k + 2):
        u, v = VertexId(Role.U, i), VertexId(Role.V, i)
        labels[edge(u, v)] = mat.uv[i - 1]
        far = i if stage == "base" else 2 * k + 2 - i
        for j in range(1, m + 1):
            labels[edge(u, leaf(i, j))] = mat.ux[j - 1][i - 1]
            labels[edge(v, leaf(far, j))] = mat.vx[j - 1][i - 1]
    part = {w: {Role.U: 1, Role.V: 2}.get(w.role, 3) for e in labels for w in e}
    return LabeledGraph(part=part, edges=set(labels), labels=labels)


# CHAIN_CELLS, the default `sweep` grid and criterion 4's merged grid
REFERENCE_CELLS = list(dict.fromkeys(
    CHAIN_CELLS
    + grid_cells([Family.M2, Family.M3], list(range(1, 7)), list(range(1, 9)))
    + grid_cells([Family.M2, Family.M3], list(range(1, 7)), [], [1, 2, 3])
))


@pytest.mark.parametrize("params,stage", REFERENCE_CELLS)
def test_build_family_equals_the_dict_built_reference(params, stage):
    for each in ("base", "crossed", "merged")[:2 + (stage == "merged")]:
        assert build_family(params, each) == reference_stage(params, each), each


def test_build_family_merged_requires_factorization():
    with pytest.raises(ParamError, match="factorization"):
        build_family(FamilyParams(Family.M2, 2, 4), "merged")


def test_crossing_twice_rejected(g45, g433):
    with pytest.raises(GraphError, match="not the base graph"):
        apply_crossing(g45, FamilyParams(Family.M2, 2, 4))
    with pytest.raises(GraphError, match="not the base graph"):
        apply_crossing(g433, FamilyParams(Family.M2, 2, 4, (1, 1)))


def test_stages_reject_a_graph_of_another_layout():
    base = build_base_graph(build_matrix(FamilyParams(Family.M2, 2, 4)))
    with pytest.raises(GraphError, match="not the base graph"):
        apply_crossing(base, FamilyParams(Family.M2, 2, 3))
    with pytest.raises(GraphError, match="not the crossed graph"):
        apply_merge(base, FamilyParams(Family.M2, 2, 4, (1, 1)))


def test_merge_rejects_a_base_and_a_merged_graph(g433):
    params = FamilyParams(Family.M2, 2, 4, (1, 1))
    for g in (build_family(params, "base"), g433):
        with pytest.raises(GraphError, match="not the crossed graph"):
            apply_merge(g, params)


def test_merge_without_factorization_raises_param_error_first(g45):
    # the merged layout is built before the input is compared, so a graph
    # of the wrong stage gets the ParamError too
    params = FamilyParams(Family.M2, 2, 4)
    for g in (g45, build_family(params, "base")):
        with pytest.raises(ParamError, match="factorization"):
            apply_merge(g, params)


def test_crossing_keeps_two_exchanged_labels():
    """The stage check compares the layout only: a base graph with two
    labels exchanged still crosses, and each edge keeps its label at its
    sorted position."""
    params = FamilyParams(Family.M2, 2, 4)
    base = build_family(params, "base")
    edges = sorted(base.edges)
    labels = dict(base.labels)
    labels[edges[0]], labels[edges[-1]] = labels[edges[-1]], labels[edges[0]]
    changed = LabeledGraph(part=dict(base.part), edges=set(edges), labels=labels)
    crossed = apply_crossing(changed, params)
    assert crossed != build_family(params, "crossed")
    assert [crossed.labels[e] for e in sorted(crossed.edges)] == [labels[e] for e in edges]


def test_crossing_preserves_labels_and_uv_colors():
    params = FamilyParams(Family.M2, 3, 2)
    base = build_base_graph(build_matrix(params))
    crossed = apply_crossing(base, params)
    assert sorted(base.labels.values()) == sorted(crossed.labels.values())
    cb = induced_colors(base)
    cc = induced_colors(crossed)
    for v in base.part:
        if v.role in (Role.U, Role.V):
            assert cb[v] == cc[v]


def test_merge_g433(g433):
    rep = verify_local_antimagic(g433)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [169, 205, 273]
    components, degs, _ = graph_stats(g433)
    assert components == 2
    merged = [v for v in g433.part if v.role in (Role.MY, Role.MZ, Role.MX)]
    assert all(len(g433.index.adj[g433._position(v)]) == 6 for v in merged)
    colors = induced_colors(g433)
    assert all(colors[v] == 273 for v in merged)


def test_merge_g533(g533):
    rep = verify_local_antimagic(g533)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [165, 327, 390]
    components, _, regular = graph_stats(g533)
    assert components == 2
    assert regular == 6


def test_merge_component_count():
    for fam in (Family.M2, Family.M3):
        for n, r, s in [(1, 1, 1), (2, 2, 1), (2, 1, 2)]:
            k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
            g = build_family(FamilyParams(fam, n, k, (r, s)), "merged")
            assert graph_stats(g)[0] == r + 1


def test_merge_requires_factorization(g45):
    with pytest.raises(ParamError, match="factorization"):
        apply_merge(g45, FamilyParams(Family.M2, 2, 4))


def test_merge_preserves_labels(g45, g433):
    assert sorted(g45.labels.values()) == sorted(g433.labels.values())


def test_merged_color_is_sum_of_constituents(g45, g433):
    crossed = induced_colors(g45)
    merged = induced_colors(g433)
    my = VertexId(Role.MY, 1, 1)
    parts = [VertexId(Role.Y, i, 1) for i in (1, 2, 3)]
    assert merged[my] == sum(crossed[v] for v in parts)


def paper_move(g, labels_a, labels_b):
    """Locate the move with the given label pairs in the move list."""
    moves = list(iter_connecting_swaps(g))
    want = {tuple(sorted(labels_a)), tuple(sorted(labels_b))}
    hits = [m for m in moves if set(m.label_pairs(g)) == want]
    assert len(hits) == 1, f"expected exactly one move with labels {want}"
    return hits[0]


def test_paper_swap_g433(g433):
    move = paper_move(g433, (13, 78), (81, 10))
    assert move.center_a == VertexId(Role.MY, 1, 1)
    assert move.center_b == VertexId(Role.MX, 5, 1)
    swapped = apply_swap(g433, move)
    assert graph_stats(swapped)[0] == 1  # connected member of the R family
    assert induced_colors(swapped) == induced_colors(g433)
    rep = verify_local_antimagic(swapped)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [169, 205, 273]


def test_paper_swap_g533(g533):
    move = paper_move(g533, (99, 10), (96, 13))
    swapped = apply_swap(g533, move)
    components, _, regular = graph_stats(swapped)
    assert components == 1
    assert regular == 6
    assert induced_colors(swapped) == induced_colors(g533)
    assert verify_local_antimagic(swapped).is_local_antimagic


def test_swap_preserves_bijection(g433):
    move = next(iter_connecting_swaps(g433))
    swapped = apply_swap(g433, move)
    assert sorted(swapped.labels.values()) == sorted(g433.labels.values())


def test_degenerate_swap_rejected(g433):
    move = next(iter_connecting_swaps(g433))
    self_move = SwapMove(move.center_a, move.center_a, move.pair_a, move.pair_a)
    with pytest.raises(SwapError):
        apply_swap(g433, self_move)


def test_unbalanced_swap_rejected(g433):
    moves = list(iter_connecting_swaps(g433))
    a, b = moves[0], moves[-1]
    mixed = SwapMove(a.center_a, b.center_b, a.pair_a, b.pair_b)
    sums_differ = sum(g433.labels[e] for e in a.pair_a) != sum(
        g433.labels[e] for e in b.pair_b
    )
    assert sums_differ
    with pytest.raises(SwapError, match="sums differ"):
        apply_swap(g433, mixed)


def test_connected_graph_has_no_connecting_moves(g433):
    move = paper_move(g433, (13, 78), (81, 10))
    connected = apply_swap(g433, move)
    assert graph_stats(connected)[0] == 1
    assert list(iter_connecting_swaps(connected)) == []


@pytest.mark.parametrize("labeled, message", [
    (0, "unlabeled edge (u:1:0, v:1:0)"),
    (1, "unlabeled edge (u:1:0, x:1:1)"),
], ids=["unlabeled", "first-edge-labeled"])
def test_connecting_swaps_name_the_first_unlabeled_edge(labeled, message):
    book = book_graph(2, 1)
    g = LabeledGraph(part=dict(book.part), edges=set(book.edges),
                     labels={e: 1 for e in sorted(book.edges)[:labeled]})
    with pytest.raises(GraphError) as info:
        list(iter_connecting_swaps(g))
    assert str(info.value) == message


def test_moves_are_lexicographically_ordered(g533):
    moves = list(iter_connecting_swaps(g533))
    keys = [(m.center_a, m.center_b, m.label_pairs(g533)) for m in moves]
    assert keys == sorted(keys)


def reference_connecting_swaps(g):
    """Every equal-sum pair of edge pairs between two part-3 centers of
    equal degree in different components, sorted by (center_a, center_b,
    labels_a, labels_b); components by union-find, pairs by brute force."""
    root = {v: v for v in g.part}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in g.edges:
        root[find(a)] = find(b)
    inc = {v: [] for v in g.part}
    for e in g.edges:
        for v in e:
            inc[v].append(e)
    pairs = {}
    for c in g.part:
        by_label = sorted(inc[c], key=lambda e: g.labels[e])
        pairs[c] = [(by_label[i], by_label[j]) for i in range(len(by_label))
                    for j in range(i + 1, len(by_label))]
    keyed = []
    centers = sorted(v for v in g.part if g.part[v] == 3)
    for ca in centers:
        for cb in centers:
            if not ca < cb or find(ca) == find(cb) or len(inc[ca]) != len(inc[cb]):
                continue
            for pa in pairs[ca]:
                for pb in pairs[cb]:
                    la = tuple(g.labels[e] for e in pa)
                    lb = tuple(g.labels[e] for e in pb)
                    if sum(la) == sum(lb):
                        keyed.append(((ca, cb, la, lb), SwapMove(ca, cb, pa, pb)))
    keyed.sort(key=lambda item: item[0])
    return [move for _, move in keyed]


@pytest.mark.parametrize(
    "fam, n, r, s, swaps_first",
    [(Family.M2, 1, 1, 1, 0), (Family.M3, 1, 1, 2, 0), (Family.M2, 2, 2, 1, 0),
     (Family.M3, 1, 3, 1, 1)],
)
def test_connecting_swaps_match_slow_reference(fam, n, r, s, swaps_first):
    k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
    g = build_family(FamilyParams(fam, n, k, (r, s)), "merged")
    for _ in range(swaps_first):
        g = apply_swap(g, next(iter_connecting_swaps(g)))
    moves = list(iter_connecting_swaps(g))
    assert moves and moves == reference_connecting_swaps(g)
    assert moves == [
        SwapMove(va, vb, pa, pb)
        for va, vb, pairs_a, pairs_b in connecting_center_pairs(g)
        for s, pa in pairs_a
        for pb in pairs_b.get(s, ())
    ]


def test_swaps_via_build_family(g433):
    move = paper_move(g433, (13, 78), (81, 10))
    g = build_family(
        FamilyParams(Family.M2, 2, 4, (1, 1)), "merged", swaps=[move]
    )
    assert graph_stats(g)[0] == 1


def test_bad_swap_in_sequence_names_index(g433):
    move = paper_move(g433, (13, 78), (81, 10))
    with pytest.raises(SwapError, match="swap #1"):
        build_family(
            FamilyParams(Family.M2, 2, 4, (1, 1)), "merged", swaps=[move, move]
        )


@pytest.mark.parametrize("stale", ["twice", "centers-exchanged"])
def test_bad_swap_names_edges_by_canonical_ids(g433, stale):
    # the second copy of a move finds its edges gone; with the centers
    # exchanged the edges exist but meet the wrong center
    move = paper_move(g433, (13, 78), (81, 10))
    bad = move._replace(center_a=move.center_b, center_b=move.center_a)
    moves, reason = ([move, move], "not in graph") if stale == "twice" else ([bad], "not incident")
    with pytest.raises(SwapError) as info:
        build_family(FamilyParams(Family.M2, 2, 4, (1, 1)), "merged", swaps=moves)
    a, b = move.pair_a[0]
    assert f"edge ({a}, {b}) {reason}" in str(info.value)
    assert "VertexId(" not in str(info.value)


# Move counts per greedy step (enumerate, apply the first move, repeat),
# copied as literals from the benchmark's pinned table.
PINNED_FIRST_STEPS = {
    (Family.M2, 1, 1, 1): (98,),
    (Family.M2, 1, 2, 1): (446, 168),
    (Family.M2, 1, 1, 2): (426,),
    (Family.M2, 2, 1, 1): (382,),
    (Family.M2, 2, 2, 1): (1838, 704),
    (Family.M2, 2, 1, 2): (1664,),
    (Family.M3, 1, 1, 1): (348,),
    (Family.M3, 1, 2, 1): (1386, 636),
    (Family.M3, 1, 1, 2): (1572,),
    (Family.M3, 2, 1, 1): (960,),
    (Family.M3, 2, 2, 1): (3830, 1820),
    (Family.M3, 2, 1, 2): (4320,),
}


def counted_connecting_swaps(g):
    """sum over eligible center pairs and shared label sums s of
    |A_s| * |B_s|, from incident edges and labels alone; components by
    union-find."""
    edges = sorted(g.edges)
    inc = {v: [edges[e] for e in es] for v, es in zip(g._vertices, g._incident_positions())}
    root = {v: v for v in inc}

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for a, b in g.edges:
        root[find(a)] = find(b)
    by_sum = {}
    for c, es in inc.items():
        sums = by_sum[c] = {}
        for i, e1 in enumerate(es):
            for e2 in es[i + 1 :]:
                s = g.labels[e1] + g.labels[e2]
                sums[s] = sums.get(s, 0) + 1
    centers = [v for v in inc if g.part[v] == 3]
    total = 0
    for ca in centers:
        for cb in centers:
            if ca < cb and find(ca) != find(cb) and len(inc[ca]) == len(inc[cb]):
                a, b = by_sum[ca], by_sum[cb]
                total += sum(a[s] * b[s] for s in a.keys() & b.keys())
    return total


@pytest.mark.parametrize("fam, n, r, s", sorted(PINNED_FIRST_STEPS, key=str))
def test_connecting_swap_counts_are_pinned(fam, n, r, s):
    k = ((2 * r + 1) * (2 * s + 1) - 1) // 2
    g = build_family(FamilyParams(fam, n, k, (r, s)), "merged")
    counts = []
    for _ in range(r):
        moves = list(iter_connecting_swaps(g))
        assert len(moves) == counted_connecting_swaps(g)
        counts.append(len(moves))
        g = apply_swap(g, moves[0])
    assert tuple(counts) == PINNED_FIRST_STEPS[fam, n, r, s]
    assert graph_stats(g)[0] == 1
