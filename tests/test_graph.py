import pickle
from functools import cached_property

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    GraphError,
    LabeledGraph,
    Role,
    VertexId,
    book_graph,
    build_family,
    chromatic_lower_bound,
    edge,
    graph_stats,
    induced_colors,
    io,
    iter_connecting_swaps,
    verify_local_antimagic,
)
from localantimagic.graph import components_of
from localantimagic.oracle import _kernel_inputs
from localantimagic.sweep import check_cell


def triangle(labels=(1, 2, 3)):
    u = VertexId(Role.U, 1)
    v = VertexId(Role.V, 1)
    x = VertexId(Role.X, 1, 1)
    lab = {
        edge(u, v): labels[0],
        edge(u, x): labels[1],
        edge(v, x): labels[2],
    }
    return LabeledGraph(part={u: 1, v: 2, x: 3}, edges=set(lab), labels=lab), (u, v, x)


def test_induced_colors_triangle():
    g, (u, v, x) = triangle()
    colors = induced_colors(g)
    assert colors == {u: 3, v: 4, x: 5}


def test_induced_colors_single_edge():
    u, v = VertexId(Role.U, 1), VertexId(Role.V, 1)
    g = LabeledGraph(part={u: 1, v: 2}, edges={edge(u, v)}, labels={edge(u, v): 1})
    assert induced_colors(g) == {u: 1, v: 1}


def test_induced_colors_unlabeled_edge_reports_which():
    u, v = VertexId(Role.U, 1), VertexId(Role.V, 1)
    g = LabeledGraph(part={u: 1, v: 2}, edges={edge(u, v)})
    with pytest.raises(GraphError, match="unlabeled edge"):
        induced_colors(g)


def test_column_sums_from_graph(g45):
    # component-1 u/v colors are the column-1 sums of the example table
    colors = induced_colors(g45)
    assert colors[VertexId(Role.U, 1)] == 78 + 62 + 42 + 22 + 1 == 205
    assert colors[VertexId(Role.V, 1)] == 14 + 36 + 50 + 68 + 1 == 169


def test_verify_triangle():
    g, _ = triangle()
    rep = verify_local_antimagic(g)
    assert rep.is_local_antimagic
    assert rep.c_f == 3
    assert rep.distinct_colors == [3, 4, 5]


def test_verify_path():
    u, v, w = VertexId(Role.U, 1), VertexId(Role.V, 1), VertexId(Role.U, 2)
    lab = {edge(u, v): 1, edge(v, w): 2}
    g = LabeledGraph(part={u: 1, v: 2, w: 1}, edges=set(lab), labels=lab)
    rep = verify_local_antimagic(g)
    assert rep.is_local_antimagic
    assert rep.c_f == 3
    assert rep.color_of == {u: 1, v: 3, w: 2}


def test_verify_g45(g45):
    rep = verify_local_antimagic(g45)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [91, 169, 205]
    assert rep.c_f == 3
    assert rep.chi_la_bracket == (3, 3)


def test_verify_rejects_duplicate_label():
    g, _ = triangle(labels=(1, 2, 2))
    rep = verify_local_antimagic(g)
    assert not rep.is_local_antimagic
    assert not rep.bijection_ok
    assert 2 in rep.bad_labels


def test_verify_rejects_out_of_range_label():
    g, _ = triangle(labels=(1, 2, 7))
    rep = verify_local_antimagic(g)
    assert not rep.bijection_ok
    assert rep.bad_labels == [7]


def test_verify_reports_conflict_edge():
    u, v = VertexId(Role.U, 1), VertexId(Role.V, 1)
    g = LabeledGraph(part={u: 1, v: 2}, edges={edge(u, v)}, labels={edge(u, v): 1})
    rep = verify_local_antimagic(g)
    assert not rep.is_local_antimagic
    assert rep.conflict_edges == [edge(u, v)]


def test_chi_lower_g45(g45):
    assert chromatic_lower_bound(g45) == 3


def test_chi_lower_even_cycle():
    vs = [VertexId(Role.X, i, 1) for i in range(1, 5)]
    part = {v: 3 for v in vs}
    part[vs[0]] = 1
    part[vs[2]] = 1
    edges = {edge(vs[i], vs[(i + 1) % 4]) for i in range(4)}
    g = LabeledGraph(part=part, edges=edges)
    assert chromatic_lower_bound(g) == 2


def test_chi_lower_edgeless():
    part = {VertexId(Role.X, i, 1): 3 for i in range(1, 6)}
    g = LabeledGraph(part=part, edges=set())
    assert chromatic_lower_bound(g) == 1


def test_chi_lower_rejects_improper_partition():
    g, (u, v, x) = triangle()
    bad = LabeledGraph(part={u: 1, v: 1, x: 3}, edges=set(g.edges), labels=dict(g.labels))
    with pytest.raises(GraphError, match="part-1"):
        chromatic_lower_bound(bad)


def test_graph_stats_g45(g45):
    components, _, regular = graph_stats(g45)
    assert components == 5
    assert regular is None


def test_graph_stats_g533(g533):
    components, _, regular = graph_stats(g533)
    assert components == 2
    assert regular == 6


def test_graph_stats_single_vertex():
    g = LabeledGraph(part={VertexId(Role.U, 1): 1}, edges=set())
    assert graph_stats(g) == (1, [0], 0)


def test_handshake_identity(g45):
    colors = induced_colors(g45)
    q = g45.q
    assert sum(colors.values()) == q * (q + 1)


def test_reports_deterministic(g55):
    r1 = verify_local_antimagic(g55)
    r2 = verify_local_antimagic(g55)
    assert r1 == r2


def test_vertex_id_validation():
    with pytest.raises(ValueError, match="no leaf index"):
        VertexId(Role.U, 1, 2)  # U carries no leaf index
    with pytest.raises(ValueError, match="copy_index"):
        VertexId(Role.X, 0, 1)
    with pytest.raises(ValueError, match="leaf_index"):
        VertexId(Role.X, 1, -1)
    with pytest.raises(ValueError, match="no leaf index"):
        VertexId(Role.U, 1)._replace(leaf_index=2)


def test_vertex_id_orders_and_hashes_as_its_field_tuple():
    vs = [
        VertexId(role, c, 0 if role in (Role.U, Role.V) else j)
        for role in (Role.MX, Role.U, Role.Y, Role.V, Role.X)
        for c in (3, 1, 2)
        for j in (2, 1)
    ]
    fields = [(v.role, v.copy_index, v.leaf_index) for v in vs]
    assert [tuple(v) for v in sorted(vs)] == sorted(fields)
    assert [hash(v) for v in vs] == [hash(f) for f in fields]
    assert VertexId(2, 1, 2).role is Role.X  # an int role is coerced


@pytest.mark.parametrize(
    "text", ["u:1_0:0", "u: 2:0", "x:01:1", "x:+1:1", "X:1:1", "x:1:\u0661"]
)
def test_vertex_id_parse_rejects_non_canonical_ids(text):
    # int() and Role[name.upper()] would read each of these as another id
    with pytest.raises(ValueError, match="bad vertex id"):
        VertexId.parse(text)


def test_vertex_id_str_parse_and_pickle_round_trip():
    for v in (VertexId(Role.U, 3), VertexId(Role.MX, 5, 2)):
        assert str(v) in ("u:3:0", "mx:5:2")
        assert VertexId.parse(str(v)) == v
        back = pickle.loads(pickle.dumps(v))
        assert back == v and type(back) is VertexId and back.role is v.role


def test_loop_rejected():
    u = VertexId(Role.U, 1)
    with pytest.raises(ValueError):
        edge(u, u)


@pytest.fixture
def bfs_runs(monkeypatch):
    """ids of the graphs whose index (the one BFS) is built while active."""
    runs = []
    build = LabeledGraph.__dict__["index"].func

    def counting(g):
        runs.append(id(g))
        return build(g)

    prop = cached_property(counting)
    prop.__set_name__(LabeledGraph, "index")
    monkeypatch.setattr(LabeledGraph, "index", prop)
    return runs


@pytest.mark.parametrize(
    "params, stage",
    [
        (FamilyParams(Family.M2, 2, 4), "crossed"),
        (FamilyParams(Family.M3, 2, 4, (1, 1)), "merged"),
    ],
)
def test_check_cell_runs_one_bfs(bfs_runs, params, stage):
    assert check_cell(params, stage).verified
    assert len(bfs_runs) == 1


def test_index_is_built_once_per_graph(bfs_runs, g45):
    g = LabeledGraph(part=dict(g45.part), edges=set(g45.edges), labels=dict(g45.labels))
    verify_local_antimagic(g)
    graph_stats(g)
    components_of(g)
    assert list(iter_connecting_swaps(g))
    io.graph_to_graph6(g)
    assert bfs_runs == [id(g)]


INDEXED = [book_graph(a, m) for a in (1, 2, 3) for m in (0, 1, 3)] + [
    build_family(FamilyParams(fam, n, k, rs), "merged")
    for fam, n, k, rs in (
        (Family.M2, 1, 4, (1, 1)),
        (Family.M3, 2, 4, (1, 1)),
        (Family.M2, 2, 7, (1, 2)),
    )
]


@pytest.mark.parametrize("g", INDEXED)
def test_index_degrees_match_incident_edges_and_kernel_csr(g):
    inc = g.incident()
    assert {v: g.degree(v) for v in g.part} == {v: len(es) for v, es in inc.items()}
    order, (eu, ev, checks, q, n) = _kernel_inputs(g)
    verts = g.vertices()
    assert n == len(verts) and q == g.q == len(order) == len(checks)
    assert [(verts[a], verts[b]) for a, b in zip(eu, ev)] == order
    # each edge is checked once, when the later of its ends saturates:
    # at the last search position among that vertex's incident edges
    pos_of = {e: pos for pos, e in enumerate(order)}
    last = {v: max(map(pos_of.__getitem__, es)) for v, es in inc.items() if es}
    of = {v: i for i, v in enumerate(verts)}
    assert sorted((max(last[a], last[b]), (of[a], of[b])) for a, b in order) == sorted(
        (pos, pair) for pos, pairs in enumerate(checks) for pair in pairs
    )
