import json
import pickle
from functools import cached_property, partial

import pytest

from localantimagic import (
    Family,
    FamilyParams,
    GraphError,
    LabeledGraph,
    ParamError,
    Role,
    VertexId,
    apply_swap,
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
from localantimagic import sweep
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
    assert rep.distinct_colors == [3, 4, 5]


def test_verify_path():
    u, v, w = VertexId(Role.U, 1), VertexId(Role.V, 1), VertexId(Role.U, 2)
    lab = {edge(u, v): 1, edge(v, w): 2}
    g = LabeledGraph(part={u: 1, v: 2, w: 1}, edges=set(lab), labels=lab)
    rep = verify_local_antimagic(g)
    assert rep.is_local_antimagic
    assert len(rep.distinct_colors) == 3
    assert induced_colors(g) == {u: 1, v: 3, w: 2}
    assert rep.sums == [1, 2, 3]  # by position: u, w, v


def test_verify_g45(g45):
    rep = verify_local_antimagic(g45)
    assert rep.is_local_antimagic
    assert rep.distinct_colors == [91, 169, 205]
    assert rep.chi_lower == 3


def test_verify_rejects_duplicate_label():
    g, _ = triangle(labels=(1, 2, 2))
    rep = verify_local_antimagic(g)
    assert not rep.is_local_antimagic
    assert 2 in rep.bad_labels


def test_verify_rejects_out_of_range_label():
    g, _ = triangle(labels=(1, 2, 7))
    rep = verify_local_antimagic(g)
    assert not rep.is_local_antimagic
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


def test_null_graph_chi_lower_is_0():
    """The null graph needs no colors: its bracket is (0, 0), not a lower
    bound above the upper one, as `exhaustive_chi_la` answers 0."""
    g = LabeledGraph(part={}, edges=set())
    assert chromatic_lower_bound(g) == 0
    report = verify_local_antimagic(g)
    assert (report.chi_lower, report.is_local_antimagic, report.distinct_colors) == (0, True, [])
    assert json.loads(io.certificate_to_json(g, report))["chi_la_bracket"] == [0, 0]


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
    with pytest.raises(ValueError, match=r"^copy_index must be an int, got 2\.0$"):
        VertexId(Role.X, 1, 1)._replace(copy_index=2.0)


@pytest.mark.parametrize(
    "args, field",
    [
        ((Role.X, 1.5, 1), "copy_index"),
        ((Role.X, True, 1), "copy_index"),
        ((Role.U, 1, False), "leaf_index"),
        ((Role.X, 2, 1.0), "leaf_index"),
    ],
    ids=["copy-float", "copy-bool", "leaf-bool", "leaf-float"],
)
def test_vertex_id_indices_must_be_ints(args, field):
    """A float or bool index would print an id (x:1.5:1, x:True:1,
    u:1:False) that `VertexId.parse` rejects, so it is refused here."""
    with pytest.raises(ValueError, match=f"^{field} must be an int, got "):
        VertexId(*args)


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


U1, V1, X1 = VertexId(Role.U, 1), VertexId(Role.V, 1), VertexId(Role.X, 1, 1)


@pytest.mark.parametrize(
    "part, edges, labels, message",
    [
        ({U1: 1}, {(U1, U1)}, {}, "loop at u:1:0"),
        ({U1: 1, V1: 2}, {(V1, U1)}, {}, "edge (v:1:0, u:1:0) not normalized"),
        ({U1: 1, X1: 4}, set(), {}, "part class of x:1:1 is 4, expected 1..3"),
        ({U1: 1}, {(U1, V1)}, {}, "edge (u:1:0, v:1:0) has endpoint outside vertex set"),
        ({U1: 1, V1: 2}, set(), {(U1, V1): 1}, "label on non-edge (u:1:0, v:1:0)"),
    ],
    ids=["loop", "not-normalized", "part-4", "dangling", "label-on-non-edge"],
)
def test_dict_constructor_messages(part, edges, labels, message):
    with pytest.raises(GraphError) as info:
        LabeledGraph(part=part, edges=edges, labels=labels)
    assert str(info.value) == message


@pytest.mark.parametrize(
    "eu, ev, message",
    [
        ([0, 1], [1, 1], "loop at v:1:0"),
        ([1], [0], "edge (v:1:0, u:1:0) not normalized"),
        ([0, 0], [1, 1], "edge (u:1:0, v:1:0) listed twice"),
        ([0, 0], [2, 1], "edge (u:1:0, v:1:0) out of order"),
        ([5], [1], "edge endpoint outside vertex set"),
        ([0], [-1], "edge endpoint outside vertex set"),
    ],
    ids=["loop", "not-normalized", "twice", "unsorted", "past-the-end", "negative"],
)
def test_array_constructor_names_the_first_bad_edge(eu, ev, message):
    with pytest.raises(GraphError) as info:
        LabeledGraph._from_arrays([U1, V1, X1], [1, 2, 3], eu, ev, [None] * len(eu))
    assert str(info.value) == message


@pytest.mark.parametrize(
    "vertices, message",
    [
        ([U1, V1, V1], "vertex v:1:0 listed twice"),
        ([U1, X1, V1], "vertex v:1:0 out of order"),
    ],
    ids=["twice", "unsorted"],
)
def test_array_constructor_names_the_first_bad_vertex(vertices, message):
    with pytest.raises(GraphError) as info:
        LabeledGraph._from_arrays(vertices, [1, 2, 3], [], [], [])
    assert str(info.value) == message


def test_graph_pickle_round_trip_after_its_views_are_read():
    g = build_family(FamilyParams(Family.M2, 1, 4, (1, 1)), "merged")
    g.part, g.labels, g.index  # cached on g; a mapping proxy does not pickle
    back = pickle.loads(pickle.dumps(g))
    assert back == g and back.labels == g.labels


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


@pytest.mark.parametrize(
    "params", [FamilyParams(Family.M2, 1, 1), FamilyParams(Family.M3, 2, 4, (1, 1))]
)
def test_check_cell_rejects_the_base_stage(params):
    """The base stage has no claims to check: with or without a
    factorization, check_cell refuses it by name instead of crashing or
    reporting failures that do not apply."""
    with pytest.raises(ParamError, match="'base'"):
        check_cell(params, "base")


@pytest.mark.parametrize(
    "field, failures",
    [
        ("c_v", ["color of v:1:0 is 169, formula says 170"]),
        ("c_center", ["color of x:5:1 is 91, formula says 92"]),
    ],
)
def test_check_cell_names_the_first_vertex_off_its_formula_color(monkeypatch, field, failures):
    """A formula color shifted by one fails the role-color claim at the
    first vertex of that role, in sorted order."""
    true_triple = sweep.color_triple

    def shifted(params):
        triple = true_triple(params)
        return triple._replace(**{field: getattr(triple, field) + 1})

    monkeypatch.setattr(sweep, "color_triple", shifted)
    cell = check_cell(FamilyParams(Family.M2, 2, 4), "crossed")
    assert not cell.verified
    assert cell.failures == failures


FAULT_CELLS = [
    (FamilyParams(Family.M2, 2, 4), "crossed"),
    (FamilyParams(Family.M2, 2, 4, (1, 1)), "merged"),
    (FamilyParams(Family.M3, 2, 3), "crossed"),
    (FamilyParams(Family.M3, 2, 4, (1, 1)), "merged"),
]
FAULT_CELL_IDS = ["m2-crossed", "m2-merged", "m3-crossed", "m3-merged"]


def _relabel(change):
    """A `build_family` whose graph gets `change(labels, sorted edges)`."""
    def build(params, stage):
        g = build_family(params, stage=stage)
        labels = dict(g.labels)
        change(labels, sorted(labels))
        return LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=labels)
    return build


def _exchange(i, j):
    def change(labels, es):
        labels[es[i]], labels[es[j]] = labels[es[j]], labels[es[i]]
    return change


def _duplicate(labels, es):
    labels[es[-1]] = labels[es[0]]


def _faults(params, stage):
    """(name, attribute of `sweep`, replacement factory) per fault injected
    into the cell (params, stage)."""
    for field in ("c_center", "c_u", "c_v"):
        for delta in (1, -1):
            yield f"{field}{delta:+d}", "color_triple", partial(_shift_triple, field, delta)
    for i, j in ((0, 1), (0, -1), (1, -2)):
        yield f"exchange-{i}-{j}", "build_family", partial(_relabel, _exchange(i, j))
    yield "duplicate", "build_family", partial(_relabel, _duplicate)
    for delta in (1, -1):
        yield f"components{delta:+d}", "graph_stats", partial(_shift_stats, 0, delta)
    # check_cell claims regularity only for m3 merged cells at n = 2s
    rs = params.factorization
    if stage == "merged" and params.family is Family.M3 and params.n == 2 * rs[1]:
        yield "regular+1", "graph_stats", partial(_shift_stats, 2, 1)
    yield "chi_lower-2", "verify_local_antimagic", _chi_lower_2


def _shift_triple(field, delta):
    true = sweep.color_triple

    def triple(params):
        t = true(params)
        return t._replace(**{field: getattr(t, field) + delta})
    return triple


def _shift_stats(field, delta):
    """graph_stats with field 0 (components) or 2 (regular degree) + delta."""
    true = sweep.graph_stats

    def stats(g):
        fields = list(true(g))
        fields[field] += delta
        return tuple(fields)
    return stats


def _chi_lower_2():
    true = sweep.verify_local_antimagic

    def verify(g):
        return true(g)._replace(chi_lower=2)
    return verify


def _not_local_antimagic():
    true = sweep.verify_local_antimagic

    def verify(g):
        return true(g)._replace(is_local_antimagic=False)
    return verify


@pytest.mark.parametrize("params, stage", FAULT_CELLS, ids=FAULT_CELL_IDS)
def test_check_cell_fails_every_injected_fault_once_per_claim(monkeypatch, params, stage):
    """Each fault fails the cell, no claim is reported twice, and no two
    faults read the same."""
    assert check_cell(params, stage).verified
    seen = {}
    for name, attr, make in _faults(params, stage):
        with monkeypatch.context() as m:
            m.setattr(sweep, attr, make())
            cell = check_cell(params, stage)
        assert not cell.verified, name
        if attr == "color_triple":  # one formula color off fails one role's line
            assert len(cell.failures) == 1, (name, cell.failures)
        assert len(set(cell.failures)) == len(cell.failures), (name, cell.failures)
        assert tuple(cell.failures) not in seen, (name, seen.get(tuple(cell.failures)))
        seen[tuple(cell.failures)] = name


@pytest.mark.parametrize(
    "params, stage, line",
    [(FamilyParams(Family.M3, 2, 3), "crossed", "color of u:1:0 is 303, formula says 304"),
     (FamilyParams(Family.M3, 2, 4, (1, 1)), "merged", "color of u:1:0 is 389, formula says 390")],
    ids=["crossed", "merged"],
)
def test_check_cell_fails_a_matrix_with_unequal_column_sums(ux_exchanged, params, stage, line):
    """A matrix whose u column sums are not constant, though its cells
    are still a bijection, fails the role-color claim at the first u
    vertex instead of raising."""
    cell = check_cell(params, stage)
    assert not cell.verified
    assert cell.failures[0] == line


@pytest.mark.parametrize("params, stage", FAULT_CELLS, ids=FAULT_CELL_IDS)
def test_check_cell_reads_the_verifiers_verdict(monkeypatch, params, stage):
    """The verdict forced to False, with the sums kept, fails the validity
    claim alone."""
    monkeypatch.setattr(sweep, "verify_local_antimagic", _not_local_antimagic())
    assert check_cell(params, stage).failures == ["labeling is not local antimagic"]


@pytest.mark.parametrize("family", [Family.M2, Family.M3])
def test_crossed_cell_with_a_factorization_keeps_the_unscaled_colors(family):
    """Crossing does not merge, so (r, s) must not scale the leaves'
    predicted color."""
    cell = check_cell(FamilyParams(family, 2, 4, (1, 1)), "crossed")
    assert cell.verified, cell.failures
    assert cell.colors == check_cell(FamilyParams(family, 2, 4), "crossed").colors


def test_index_is_built_once_per_graph(bfs_runs, g45):
    g = LabeledGraph(part=dict(g45.part), edges=set(g45.edges), labels=dict(g45.labels))
    verify_local_antimagic(g)
    graph_stats(g)
    components_of(g)
    assert list(iter_connecting_swaps(g))
    io.graph_to_graph6(g)
    assert bfs_runs == [id(g)]


# built inside the test, so a fault in the matrix or the families fails
# g9..g11 rather than the collection of this module
INDEXED = [partial(book_graph, a, m) for a in (1, 2, 3) for m in (0, 1, 3)] + [
    partial(build_family, FamilyParams(fam, n, k, rs), "merged")
    for fam, n, k, rs in (
        (Family.M2, 1, 4, (1, 1)),
        (Family.M3, 2, 4, (1, 1)),
        (Family.M2, 2, 7, (1, 2)),
    )
]


@pytest.mark.parametrize("build", INDEXED, ids=[f"g{i}" for i in range(len(INDEXED))])
def test_index_degrees_match_incident_edges_and_kernel_csr(build):
    g = build()
    inc = g._incident_positions()
    assert list(map(len, g.index.adj)) == list(map(len, inc))
    order, (eu, ev, checks, _, q, n, floor), _ = _kernel_inputs(g)
    verts = g._vertices
    assert n == len(verts) and q == g.q == len(order) == len(checks)
    assert [(verts[a], verts[b]) for a, b in zip(eu, ev)] == order
    assert floor == (2 if g.index.bipartite else 3)
    # each edge (a, b) is checked once, as soon as sums[a] - sums[b] is
    # final: at the latest search position among the other edges at a or
    # b, or at 0 if there are none
    edges = sorted(g.edges)
    pos_of = {e: pos for pos, e in enumerate(order)}
    at = {v: {pos_of[edges[e]] for e in es} for v, es in zip(verts, inc)}
    of = {v: i for i, v in enumerate(verts)}
    want = [(max((at[a] | at[b]) - {pos_of[a, b]}, default=0), (of[a], of[b])) for a, b in order]
    assert sorted(want) == sorted((pos, pair) for pos, pairs in enumerate(checks) for pair in pairs)


def _swapped(params):
    g = build_family(params, "merged")
    return apply_swap(g, next(iter_connecting_swaps(g)))


# built inside the test, so a fault in the swap enumeration fails g2 and
# g3 rather than the collection of this module
VIEWED = [
    lambda: build_family(FamilyParams(Family.M2, 2, 3), "crossed"),
    lambda: build_family(FamilyParams(Family.M3, 1, 4, (1, 1)), "merged"),
    lambda: _swapped(FamilyParams(Family.M2, 1, 7, (2, 1))),
    lambda: _swapped(FamilyParams(Family.M3, 2, 4, (1, 1))),
]


@pytest.mark.parametrize("build", VIEWED, ids=[f"g{i}" for i in range(len(VIEWED))])
def test_array_built_graph_equals_its_dict_and_json_copies(build):
    g = build()
    assert g == io.graph_from_json(io.graph_to_json(g))
    copy = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=dict(g.labels))
    assert g == copy and copy == g
    assert set(g.labels) == g.edges
    assert sorted(g.part) == g._vertices
    assert g._edge_list == sorted(g.edges)
    e = sorted(g.edges)[0]
    changed = dict(g.labels)
    changed[e] += g.q
    assert g != LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=changed)


def test_views_are_read_only(g45):
    with pytest.raises(TypeError):
        g45.part[VertexId(Role.U, 1)] = 2
    with pytest.raises(TypeError):
        g45.labels[sorted(g45.edges)[0]] = 1
    with pytest.raises(AttributeError):
        g45.edges.add(sorted(g45.edges)[0])
    with pytest.raises(AttributeError):
        g45.labels = {}
