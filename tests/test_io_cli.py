import importlib
import json
import os
import random
import re
import shlex
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from functools import partial
from io import StringIO
from pathlib import Path
from types import SimpleNamespace
from unittest.mock import patch

import pytest

import localantimagic
from localantimagic import (
    Family,
    FamilyParams,
    LabeledGraph,
    Role,
    VertexId,
    book_graph,
    build_family,
    build_matrix,
    edge,
    graph_stats,
    iter_connecting_swaps,
)
from localantimagic import io
from localantimagic.cli import main

GOLDEN = Path(__file__).parent / "golden"


class _Runner:
    """Runs `cli(args)` in-process: stdout and stderr go into one buffer in
    write order, `env` is set for the call only, and a `SystemExit` becomes
    the exit code (and the exception, unless it is 0)."""

    def invoke(self, cli, args, env=None):
        out, code, exception = StringIO(), 0, None
        try:
            with patch.dict(os.environ, env or {}), redirect_stdout(out), redirect_stderr(out):
                cli(args)
        except SystemExit as exc:
            code = exc.code or 0
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
        return SimpleNamespace(exit_code=code, output=out.getvalue(), exception=exception)


@pytest.fixture
def runner():
    return _Runner()


def test_graph_json_round_trip_is_byte_identical(g45):
    text = io.graph_to_json(g45)
    again = io.graph_to_json(io.graph_from_json(text))
    assert again == text


def test_graph_json_round_trip_merged(g533):
    text = io.graph_to_json(g533)
    g = io.graph_from_json(text)
    assert g.part == g533.part
    assert g.edges == g533.edges
    assert g.labels == g533.labels


def _graph_dict(g):
    """The graph file's JSON object, built from the public views."""
    edges = []
    for e in sorted(g.edges):
        item = {"u": str(e[0]), "v": str(e[1])}
        if e in g.labels:
            item["label"] = g.labels[e]
        edges.append(item)
    vertices = [{"id": str(v), "part": g.part[v]} for v in sorted(g.part)]
    return {"format_version": 1, "vertices": vertices, "edges": edges}


def _writer_cases():
    """(name, builder) pairs: each graph is built inside its test, so a
    fault in the matrix or the families fails those cases rather than the
    collection of this module."""
    u, v, x = VertexId(Role.U, 1), VertexId(Role.V, 1), VertexId(Role.X, 1, 1)
    yield "empty", partial(LabeledGraph, part={}, edges=set())
    yield "no edges", partial(LabeledGraph, part={u: 1}, edges=set())
    yield "unlabeled", partial(LabeledGraph, part={u: 1, v: 2, x: 3},
                               edges={(u, v), (u, x)})
    yield "partly labeled", partial(
        LabeledGraph, part={u: 1, v: 2, x: 3}, edges={(u, v), (u, x), (v, x)},
        labels={(u, x): 2, (v, x): 10},
    )
    for fam in (Family.M2, Family.M3):
        params = FamilyParams(fam, 2, 4, (1, 1))
        for stage in ("base", "crossed", "merged"):
            yield f"{fam.value} {stage}", partial(build_family, params, stage)


WRITER_CASES = list(_writer_cases())


@pytest.mark.parametrize("name,build", WRITER_CASES,
                         ids=[f"{name}-g{i}" for i, (name, _) in enumerate(WRITER_CASES)])
def test_graph_json_writer_matches_json_dumps(name, build):
    g = build()
    assert io.graph_to_json(g) == json.dumps(_graph_dict(g), indent=2) + "\n"


def test_graph_json_reader_sorts_what_a_file_lists_out_of_order():
    """Vertices and edges in any order, edges either way round and one
    unlabeled: the file parses equal to the graph of the same dicts."""
    g = build_family(FamilyParams(Family.M2, 1, 1), "crossed")
    data = json.loads(io.graph_to_json(g))
    vertices, edges = list(data["vertices"]), list(data["edges"])
    rng = random.Random(1)
    rng.shuffle(data["vertices"])
    rng.shuffle(data["edges"])
    assert data["vertices"] != vertices and data["edges"] != edges
    for item in data["edges"][::2]:
        item["u"], item["v"] = item["v"], item["u"]
    unlabeled = data["edges"][1]
    del unlabeled["label"]
    dropped = edge(VertexId.parse(unlabeled["u"]), VertexId.parse(unlabeled["v"]))
    labels = {e: lab for e, lab in g.labels.items() if e != dropped}
    want = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=labels)
    assert len(labels) == g.q - 1
    assert io.graph_from_json(json.dumps(data)) == want


def test_graph_json_rejects_garbage():
    with pytest.raises(io.ParseError):
        io.graph_from_json("not json at all")
    with pytest.raises(io.ParseError):
        io.graph_from_json('{"format_version": 99, "vertices": [], "edges": []}')


@pytest.mark.parametrize("parse", [io.graph_from_json, io.swaps_from_json])
def test_parsers_reject_json_nested_too_deep(parse):
    with pytest.raises(io.ParseError, match="not valid JSON"):
        parse("[" * 100000)


def test_graph6_drops_labels_keeps_structure(g433, g45, g533):
    import networkx as nx

    line = io.graph_to_graph6(g433)
    G = nx.from_graph6_bytes(line.strip().encode("ascii"))
    assert G.number_of_nodes() == len(g433.part)
    assert G.number_of_edges() == g433.q
    sidecar = io.labels_sidecar(g433)
    assert len(sidecar.splitlines()) == g433.q
    # networkx as an independent decoder and encoder of the same structure;
    # the book is a triangle, with the pair (0, 1) that no family graph has
    for g in (g433, g45, g533, book_graph(1, 1)):
        line = io.graph_to_graph6(g)
        G = nx.from_graph6_bytes(line.strip().encode("ascii"))
        index = {v: i for i, v in enumerate(sorted(g.part))}
        assert {frozenset(e) for e in G.edges} == {
            frozenset((index[a], index[b])) for a, b in g.edges
        }
        assert line == nx.to_graph6_bytes(G, header=False).decode("ascii")


def test_dot_output(g433):
    dot = io.graph_to_dot(g433)
    assert dot.startswith("graph G {")
    assert '"u:1:0" -- "v:1:0" [label="1"];' in dot


def test_swap_list_round_trip(g433):
    moves = list(iter_connecting_swaps(g433))[:5]
    text = io.swaps_to_json(moves, g433)
    assert io.swaps_from_json(text) == moves


def test_certificate_json(g45):
    from localantimagic import verify_local_antimagic

    cert = json.loads(io.certificate_to_json(g45, verify_local_antimagic(g45)))
    assert cert["is_local_antimagic"] is True
    assert cert["distinct_colors"] == [91, 169, 205]
    assert cert["chi_la_bracket"] == [3, 3]
    assert cert["colors"]["u:1:0"] == 205


# ------------------------------------------------------------------- CLI


def test_cli_matrix_csv_golden(runner):
    for fam, name in (("m2", "m2_n2_k4.csv"), ("m3", "m3_n2_k4.csv")):
        result = runner.invoke(main, ["matrix", "--family", fam, "-n", "2", "-k", "4"])
        assert result.exit_code == 0
        assert result.output == (GOLDEN / name).read_text()


def test_cli_matrix_first_rows(runner):
    result = runner.invoke(main, ["matrix", "--family", "m2", "-n", "2", "-k", "4"])
    assert result.output.splitlines()[0] == "78,79,80,81,73,74,75,76,77"
    result = runner.invoke(main, ["matrix", "--family", "m3", "-n", "2", "-k", "4"])
    assert result.output.splitlines()[0] == "99,98,97,96,95,94,93,92,91"


def test_cli_matrix_bad_params_exit_2(runner):
    result = runner.invoke(main, ["matrix", "--family", "m2", "-n", "0", "-k", "1"])
    assert result.exit_code == 2


def test_cli_matrix_json(runner):
    result = runner.invoke(
        main, ["matrix", "--family", "m2", "-n", "1", "-k", "1", "--format", "json"]
    )
    data = json.loads(result.output)
    assert data["rows"][0] == {"role": "ux", "leaf": 1, "values": [15, 13, 14]}

    result = runner.invoke(
        main, ["matrix", "--family", "m3", "-n", "2", "-k", "4", "--format", "json"]
    )
    data = json.loads(result.output)
    mat = build_matrix(FamilyParams(Family.M3, 2, 4))
    m = mat.params.leaves_per_copy
    names = [(row["role"], row["leaf"]) for row in data["rows"]]
    assert names == (
        [("ux", j) for j in range(1, m + 1)] + [("uv", 0)]
        + [("vx", j) for j in range(1, m + 1)]
    )
    assert [row["values"] for row in data["rows"]] == mat.rows


def test_cli_build_and_verify(runner, tmp_path):
    gfile = tmp_path / "g45.json"
    result = runner.invoke(
        main,
        ["build", "--family", "m2", "-n", "2", "-k", "4", "--stage", "crossed",
         "--out", str(gfile)],
    )
    assert result.exit_code == 0
    g = io.graph_from_json(gfile.read_text())
    assert graph_stats(g)[0] == 5

    result = runner.invoke(main, ["verify", str(gfile)])
    assert result.exit_code == 0
    cert = json.loads(result.output)
    assert cert["distinct_colors"] == [91, 169, 205]


def test_cli_verify_broken_bijection_exit_1(runner, tmp_path):
    g = build_family(FamilyParams(Family.M2, 2, 4), "crossed")
    edges = sorted(g.edges)
    labels = dict(g.labels)
    labels[edges[0]] = labels[edges[1]]  # duplicate one label
    from localantimagic import LabeledGraph

    broken = LabeledGraph(part=dict(g.part), edges=set(g.edges), labels=labels)
    gfile = tmp_path / "broken.json"
    gfile.write_text(io.graph_to_json(broken))
    result = runner.invoke(main, ["verify", str(gfile)])
    assert result.exit_code == 1
    cert = json.loads(result.output)
    assert not cert["bijection_ok"]
    assert cert["bad_labels"] == [labels[edges[0]]]
    assert cert["c_f"] == len(cert["distinct_colors"]) == len(set(cert["colors"].values()))
    assert cert["chi_la_bracket"] == [3, None]


def test_cli_verify_conflict_only_exit_1(runner, tmp_path):
    """A bijection whose one edge joins two equal sums: the labels are
    fine, the coloring is not, so chi_la gets no upper bound."""
    u, v = VertexId(Role.U, 1), VertexId(Role.V, 1)
    g = LabeledGraph(part={u: 1, v: 2}, edges={edge(u, v)}, labels={edge(u, v): 1})
    gfile = tmp_path / "conflict.json"
    gfile.write_text(io.graph_to_json(g))
    result = runner.invoke(main, ["verify", str(gfile)])
    assert result.exit_code == 1
    cert = json.loads(result.output)
    assert cert["bijection_ok"] is True
    assert cert["bad_labels"] == []
    assert cert["conflict_edges"] == [["u:1:0", "v:1:0"]]
    assert cert["is_local_antimagic"] is False
    assert (cert["c_f"], cert["distinct_colors"]) == (1, [1])
    assert cert["chi_la_bracket"] == [2, None]


def test_cli_verify_empty_file_exit_2(runner, tmp_path):
    empty = tmp_path / "empty.json"
    empty.write_text("")
    result = runner.invoke(main, ["verify", str(empty)])
    assert result.exit_code == 2


TRIANGLE = [("u:1:0", "v:1:0", 1), ("u:1:0", "x:1:1", 2), ("v:1:0", "x:1:1", 3)]


def triangle_file(tmp_path, edges, vertices=("u:1:0", "v:1:0", "x:1:1")):
    parts = {"u": 1, "v": 2, "x": 3}
    data = {
        "format_version": 1,
        "vertices": [{"id": v, "part": parts[v[0]]} for v in vertices],
        "edges": [{"u": a, "v": b, "label": lab} for a, b, lab in edges],
    }
    path = tmp_path / "g.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "edges, vertices, message",
    [
        (TRIANGLE + [("u:1:0", "v:1:0", 1)], None, "listed twice"),
        (TRIANGLE + [("v:1:0", "u:1:0", 1)], None, "listed twice"),
        (TRIANGLE, ("u:1:0", "v:1:0", "x:1:1", "u:1:0"), "listed twice"),
        (TRIANGLE + [("u:1:0", "u:2:0", 4)], None, "outside vertex set"),
    ],
    ids=["edge-twice", "edge-twice-reversed", "vertex-twice", "dangling-edge"],
)
@pytest.mark.parametrize("command", ["verify", "oracle"])
def test_cli_rejects_malformed_graph_exit_2(runner, tmp_path, command, edges, vertices, message):
    path = triangle_file(tmp_path, edges, *([vertices] if vertices else []))
    args = ["verify", str(path)] if command == "verify" else ["oracle", "--graph", str(path)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.output.startswith("error:") and message in result.output


def test_cli_verify_and_oracle_accept_the_triangle(runner, tmp_path):
    path = triangle_file(tmp_path, TRIANGLE)
    assert runner.invoke(main, ["verify", str(path)]).exit_code == 0
    result = runner.invoke(main, ["oracle", "--graph", str(path)])
    assert result.exit_code == 0
    assert json.loads(result.output)["chi_la"] == 3


def test_cli_oracle_labels_an_edgeless_graph(runner, tmp_path):
    # the empty map is the one labeling of a graph with no edges: it is
    # valid and its vertices all sum to 0, one color
    path = triangle_file(tmp_path, [])
    result = runner.invoke(main, ["oracle", "--graph", str(path)])
    assert result.exit_code == 0
    assert "no local antimagic labeling" not in result.output
    assert json.loads(result.output) == {
        "format_version": 1, "chi_la": 1, "witness": {},
        "labelings_tried": 1, "valid_labelings": 1,
    }


@pytest.mark.parametrize(
    "section, field, value, message",
    [
        ("vertices", "id", 5, "must be a string"),
        ("vertices", "part", 1.0, "must be an integer"),
        ("vertices", "part", True, "must be an integer"),
        ("edges", "u", ["u:1:0"], "must be a string"),
        ("edges", "label", 1.9, "must be an integer"),
        ("edges", "label", True, "must be an integer"),
        ("edges", "label", "1", "must be an integer"),
        ("edges", "v", "x:01:1", "bad vertex id"),
    ],
    ids=["id-int", "part-float", "part-bool", "endpoint-list", "label-float",
         "label-bool", "label-str", "endpoint-non-canonical"],
)
def test_cli_verify_rejects_non_integer_or_non_string_fields_exit_2(
    runner, tmp_path, section, field, value, message
):
    path = triangle_file(tmp_path, TRIANGLE)
    data = json.loads(path.read_text())
    data[section][0][field] = value
    path.write_text(json.dumps(data))
    result = runner.invoke(main, ["verify", str(path)])
    assert result.exit_code == 2
    assert result.output.startswith("error:") and message in result.output


def _first_move_file(runner, tmp_path, change):
    """A swap file of the first connecting move of G_4(3,3), after change(document)."""
    result = runner.invoke(
        main,
        ["swaps", "--family", "m2", "-n", "2", "-k", "4", "-r", "1", "-s", "1"],
    )
    data = json.loads(result.output)
    data["moves"] = data["moves"][:1]
    change(data)
    path = tmp_path / "moves.json"
    path.write_text(json.dumps(data))
    return path


@pytest.mark.parametrize(
    "change, message",
    [
        (lambda d: d["moves"][0].update(center_a=5), "must be a string"),
        (lambda d: d["moves"][0]["pair_a"].append(d["moves"][0]["pair_b"][0]),
         "list of two"),
        (lambda d: d["moves"][0]["pair_b"][0].append("u:1:0"), "list of two"),
        (lambda d: d.pop("format_version"), "format_version"),
        (lambda d: d.update(format_version=99), "unsupported format_version 99"),
        (lambda d: d.update(format_version="1"), "format_version must be an integer"),
        (lambda d: d.update(format_version=True), "format_version must be an integer"),
    ],
    ids=["center-int", "three-edge-pair", "three-endpoint-edge", "version-missing",
         "version-99", "version-str", "version-bool"],
)
def test_cli_build_rejects_malformed_swap_file_exit_2(runner, tmp_path, change, message):
    path = _first_move_file(runner, tmp_path, change)
    result = runner.invoke(
        main,
        ["build", "--family", "m2", "-n", "2", "-k", "4", "--stage", "merged",
         "-r", "1", "-s", "1", "--swaps", str(path)],
    )
    assert result.exit_code == 2
    assert message in result.output


def test_cli_build_merged_graph6_with_sidecar(runner, tmp_path):
    out = tmp_path / "g533.g6"
    result = runner.invoke(
        main,
        ["build", "--family", "m3", "-n", "2", "-k", "4", "--stage", "merged",
         "-r", "1", "-s", "1", "--format", "graph6", "--out", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text().strip()
    assert (tmp_path / "g533.g6.labels").exists()


def test_cli_build_merged_without_rs_exit_2(runner):
    result = runner.invoke(
        main,
        ["build", "--family", "m2", "-n", "2", "-k", "4", "--stage", "merged"],
    )
    assert result.exit_code == 2


def test_cli_swaps_then_build_with_swaps(runner, tmp_path):
    swfile = tmp_path / "moves.json"
    result = runner.invoke(
        main,
        ["swaps", "--family", "m2", "-n", "2", "-k", "4", "-r", "1", "-s", "1",
         "--out", str(swfile)],
    )
    assert result.exit_code == 0
    data = json.loads(swfile.read_text())
    paper = [
        m for m in data["moves"]
        if sorted(m["labels_a"] + m["labels_b"]) == [10, 13, 78, 81]
    ]
    assert len(paper) == 1

    one = dict(data)
    one["moves"] = paper
    onefile = tmp_path / "paper_move.json"
    onefile.write_text(json.dumps(one))
    gfile = tmp_path / "r433.json"
    result = runner.invoke(
        main,
        ["build", "--family", "m2", "-n", "2", "-k", "4", "--stage", "merged",
         "-r", "1", "-s", "1", "--swaps", str(onefile), "--out", str(gfile)],
    )
    assert result.exit_code == 0
    g = io.graph_from_json(gfile.read_text())
    assert graph_stats(g)[0] == 1  # connected member of the R family


def test_cli_bad_swap_file_names_move_index(runner, tmp_path):
    result = runner.invoke(
        main,
        ["swaps", "--family", "m2", "-n", "2", "-k", "4", "-r", "1", "-s", "1"],
    )
    data = json.loads(result.output)
    doubled = dict(data)
    doubled["moves"] = [data["moves"][0], data["moves"][0]]
    swfile = tmp_path / "bad.json"
    swfile.write_text(json.dumps(doubled))
    result = runner.invoke(
        main,
        ["build", "--family", "m2", "-n", "2", "-k", "4", "--stage", "merged",
         "-r", "1", "-s", "1", "--swaps", str(swfile)],
    )
    assert result.exit_code == 1
    assert "swap #1" in result.output


def test_cli_oracle_presets(runner):
    result = runner.invoke(main, ["oracle", "--preset", "book"])
    assert result.exit_code == 0
    assert json.loads(result.output)["chi_la"] == 3

    result = runner.invoke(main, ["oracle", "--preset", "k3"])
    assert result.exit_code == 2

    result = runner.invoke(main, ["oracle", "--preset", "book", "-a", "2", "-m", "1"])
    assert json.loads(result.output)["chi_la"] == 3

    result = runner.invoke(main, ["oracle", "--preset", "p2"])
    assert "no local antimagic labeling" in result.output
    assert json.loads(result.output.split("no local")[0])["chi_la"] is None


def test_cli_oracle_over_budget_exit_2(runner):
    result = runner.invoke(main, ["oracle", "--preset", "book", "-a", "3", "-m", "2"])
    assert result.exit_code == 2


def test_cli_oracle_refuses_an_over_budget_book_before_building_it(runner, monkeypatch):
    """Building a book costs O(am) time and memory, so a book over the
    budget exits 2 from its edge count a(2m+1) alone."""
    def no_build(a, m):
        raise AssertionError("book_graph called for an over-budget book")

    monkeypatch.setattr("localantimagic.cli.book_graph", no_build)
    result = runner.invoke(main, ["oracle", "--preset", "book", "-a", "10", "-m", "10"])
    assert result.exit_code == 2
    assert result.output.startswith("error: graph has 210 edges, over the budget of 10;")


def test_cli_oracle_names_a_capped_budget(runner):
    book23 = ["oracle", "--preset", "book", "-a", "2", "-m", "3"]  # 14 edges
    result = runner.invoke(main, [*book23, "--budget", "20"])
    assert result.exit_code == 2
    assert "over the budget of 12 (hard limit; 20 requested)" in result.output

    result = runner.invoke(main, [*book23, "--budget", "11"])
    assert result.exit_code == 2
    assert "over the budget of 11" in result.output
    assert "hard limit" not in result.output

    result = runner.invoke(main, ["oracle", "--preset", "book", "-a", "2", "--budget", "20"])
    assert result.exit_code == 0
    assert json.loads(result.output)["chi_la"] == 3


def test_cli_sweep_small(runner, tmp_path):
    rep = tmp_path / "report.json"
    result = runner.invoke(
        main, ["sweep", "-n", "1..2", "-k", "1..2", "--out", str(rep)]
    )
    assert result.exit_code == 0
    data = json.loads(rep.read_text())
    assert data["summary"] == {"pass": 8, "fail": 0}
    assert all(cell["verified"] for cell in data["grid"])


def test_cli_sweep_merged_grid(runner):
    result = runner.invoke(main, ["sweep", "-n", "1..2", "--rs", "1..1"])
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert data["summary"]["fail"] == 0
    assert all(cell["components"] == cell["r"] + 1 for cell in data["grid"])


@pytest.mark.parametrize(
    "args,line",
    [
        (["-n", "2", "-k", "3", "--family", "m2"], "FAIL m2 crossed n=2 k=3: forged"),
        (["-n", "2", "--rs", "1", "--family", "m3"], "FAIL m3 merged n=2 k=4 r=1 s=1: forged"),
    ],
    ids=["crossed", "merged"],
)
def test_cli_sweep_failure_names_family_stage_and_parameters(runner, tmp_path, monkeypatch,
                                                             args, line):
    from localantimagic import sweep

    def failing_cell(params, stage):
        return sweep.CellResult(params, stage, False, (0, 0, 0), 1, None, 0, ["forged"])

    monkeypatch.setattr(sweep, "check_cell", failing_cell)
    result = runner.invoke(main, ["sweep", *args, "--out", str(tmp_path / "r.json")],
                           env={"ANTIMAGIC_THREADS": "1"})
    assert result.exit_code == 1
    assert result.output == line + "\n"


def test_cli_sweep_reports_a_matrix_fault_as_a_failure_line(runner, ux_exchanged):
    """Unequal column sums fail the cell with a FAIL line and exit 1; they
    do not end the sweep with an exception."""
    result = runner.invoke(main, ["sweep", "-n", "2", "-k", "3", "--family", "m3"],
                           env={"ANTIMAGIC_THREADS": "1"})
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)
    assert "FAIL m3 crossed n=2 k=3: color of u:1:0 is 303, formula says 304\n" in result.output


@pytest.mark.parametrize(
    "families,want",
    [(["m2", "m2"], ["m2"]), (["m3", "m2", "m3"], ["m3", "m2"])],
    ids=["twice", "first-given-order"],
)
def test_cli_sweep_repeated_family_runs_once(runner, families, want):
    args = ["sweep", "-n", "1", "-k", "1"]
    for family in families:
        args += ["--family", family]
    result = runner.invoke(main, args, env={"ANTIMAGIC_THREADS": "1"})
    assert result.exit_code == 0
    data = json.loads(result.output)
    assert [cell["family"] for cell in data["grid"]] == want
    assert data["summary"] == {"pass": len(want), "fail": 0}

@pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5"])
def test_cli_sweep_bad_thread_count_exit_2(runner, threads):
    result = runner.invoke(
        main, ["sweep", "-n", "1..2", "-k", "1..2"], env={"ANTIMAGIC_THREADS": threads}
    )
    assert result.exit_code == 2
    assert result.output.startswith("error: ANTIMAGIC_THREADS")


def _sweep_without_runtimes(runner, args, threads):
    result = runner.invoke(main, ["sweep", *args], env={"ANTIMAGIC_THREADS": threads})
    assert result.exit_code == 0
    data = json.loads(result.output)
    for cell in data["grid"]:
        del cell["runtime_ms"]
    return data


def test_cli_sweep_two_threads(runner):
    args = ["-n", "1..2", "-k", "1..2"]
    pooled = _sweep_without_runtimes(runner, args, "2")
    assert pooled["summary"] == {"pass": 8, "fail": 0}
    assert pooled == _sweep_without_runtimes(runner, args, "1")


def test_cli_sweep_merged_two_threads(runner):
    args = ["-n", "1..2", "--rs", "1..1"]
    pooled = _sweep_without_runtimes(runner, args, "2")
    assert pooled["summary"] == {"pass": 4, "fail": 0}
    assert pooled == _sweep_without_runtimes(runner, args, "1")


def test_cold_start_loads_no_process_pool():
    """The package, its CLI and an oracle run (what a fresh `antimagic`
    process does before any multi-worker sweep) leave the process pool,
    multiprocessing, dataclasses and inspect unimported, and load only the
    package modules the oracle and the parser use: no families, formulas,
    io (and with it json) or sweep."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import localantimagic, localantimagic.cli\n"
        "from localantimagic import book_graph, exhaustive_chi_la\n"
        "exhaustive_chi_la(book_graph(1, 1))\n"
        "print(sorted(m for m in sys.modules if m == 'concurrent.futures.process'"
        " or m.split('.')[0] == 'multiprocessing'))\n"
        "print(sorted({m.split('.')[0] for m in set(sys.modules) - before}"
        " - set(sys.stdlib_module_names)))\n"
        "print(sorted((set(sys.modules) - before) & {'dataclasses', 'inspect'}))\n"
        "print(sorted(m for m in set(sys.modules) - before"
        " if m.split('.')[0] in ('localantimagic', 'json')))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    pool, third_party, slow_imports, loaded = proc.stdout.splitlines()
    assert pool == "[]"
    # with no bytecode cache every module loaded is compiled again
    assert loaded == str([
        "localantimagic", "localantimagic._kernels", "localantimagic.cli",
        "localantimagic.graph", "localantimagic.matrices", "localantimagic.oracle",
    ])
    # dataclasses loads inspect (and with it ast, dis and tokenize): about
    # a fifth of a cold start, for records that NamedTuples give for free
    assert slow_imports == "[]"
    # the package needs nothing outside the standard library (what `site`
    # loaded before the import is the environment's, not the package's)
    assert third_party == "['localantimagic']"


@pytest.mark.parametrize("argv", [["oracle", "--preset", "book"], ["verify", "g.json"]])
def test_file_commands_load_no_constructions(argv, tmp_path):
    """`antimagic oracle` and `antimagic verify` read and write files but
    build no family: a fresh process running either loads `io` and no
    families, formulas or sweep."""
    (tmp_path / "g.json").write_text(io.graph_to_json(build_family(
        FamilyParams(Family.M2, 1, 2, None))))
    code = (
        "import sys\n"
        "from localantimagic.cli import main\n"
        "try:\n"
        "    main(sys.argv[1:])\n"
        "finally:\n"
        "    print(sorted(m for m in sys.modules if m.startswith('localantimagic')),"
        " file=sys.stderr)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code, *argv], cwd=tmp_path, env=env, capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines()[-1] == str([
        "localantimagic", "localantimagic._kernels", "localantimagic.cli",
        "localantimagic.graph", "localantimagic.io", "localantimagic.matrices",
        "localantimagic.oracle",
    ])


def test_sweep_loads_no_file_formats():
    """`io` writes the sweep report, so `sweep` needs neither `io` nor
    `json`: a fresh process that imports it, as a pool worker started by
    spawn does, loads neither."""
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import localantimagic.sweep\n"
        "print(sorted((set(sys.modules) - before) & {'localantimagic.io', 'json'}))\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout == "[]\n"

def test_package_names_load_from_their_defining_modules():
    """The package binds its public names lazily (PEP 562): each is its
    defining module's object, a star import binds all of them, dir() lists
    them, and any other name is an AttributeError."""
    for name in localantimagic.__all__:
        obj = getattr(localantimagic, name)
        assert getattr(importlib.import_module(obj.__module__), name) is obj, name
        assert obj.__module__ != "localantimagic", name
    namespace = {}
    exec("from localantimagic import *", namespace)
    assert set(localantimagic.__all__) <= namespace.keys()
    assert set(localantimagic.__all__) <= set(dir(localantimagic))
    with pytest.raises(AttributeError, match="no attribute 'no_such_name'"):
        localantimagic.no_such_name
    assert not hasattr(localantimagic, "_layout")


def test_readme_connected_member_commands(runner, tmp_path, monkeypatch):
    """README's "A connected member" block, line by line: each `antimagic`
    line through `main`, the `python3 -c` line in-process.  The result is
    one component; `build --swaps` with every listed move fails at the
    second, because the list offers alternatives for one step."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("### A connected member", 1)[1].split("```sh\n", 1)[1]
    monkeypatch.chdir(tmp_path)
    for line in block.split("```", 1)[0].splitlines():
        argv = shlex.split(line, comments=True)
        if argv[0] == "antimagic":
            result = runner.invoke(main, argv[1:])
            assert result.exit_code == 0, (line, result.output)
        else:
            assert argv[:2] == ["python3", "-c"]
            exec(argv[2], {})
    g = io.graph_from_json((tmp_path / "connected.json").read_text())
    assert graph_stats(g)[0] == 1
    assert len(json.loads((tmp_path / "moves.json").read_text())["moves"]) == 382
    every = ["build", "--family", "m2", "-n", "2", "-k", "4", "-r", "1", "-s", "1",
             "--stage", "merged", "--swaps", "moves.json"]
    result = runner.invoke(main, every)
    assert result.exit_code == 1
    assert "error: swap #1: edge (v:7:0, my:1:1) not in graph" in result.output


def test_cli_sweep_empty_range_exit_2(runner):
    result = runner.invoke(main, ["sweep", "-n", "3..1", "-k", "1..2"])
    assert result.exit_code == 2


def test_cli_exit_code_contract(runner):
    assert runner.invoke(main, ["matrix", "--family", "bad", "-n", "1", "-k", "1"]).exit_code == 2
    assert runner.invoke(main, ["nonsense"]).exit_code == 2


@pytest.mark.parametrize(
    "args",
    [
        ["sweep", "-n", "0..1"],
        ["sweep", "-n", "1", "--rs", "0..1"],
        ["sweep", "-n", "-1..2"],
        ["sweep", "-n", "1", "--rs", "-1..1"],
        ["build", "--family", "m2", "-n", "1", "-k", "1", "--swaps", "{dir}"],
        ["oracle", "--graph", "{dir}"],
        ["build", "--family", "m2", "-n", "1", "-k", "1", "--out", "{dir}/no/such/x.json"],
        ["verify", "{dir}/latin1.json"],
        ["build", "--family", "m2", "-n", "1", "-k", "1", "-r", "0", "-s", "1",
         "--stage", "merged"],
        ["sweep", "-n", "1", "-k", "7", "--rs", "1", "--family", "m2"],
        ["sweep", "-n", "1", "--rs", "", "--family", "m2"],
        ["oracle", "--preset", "p2", "--budget", "-3"],
    ],
    ids=["sweep-n-0", "sweep-rs-0", "sweep-n-negative", "sweep-rs-negative",
         "swaps-file-is-dir", "graph-file-is-dir",
         "out-dir-missing", "graph-file-not-utf8", "build-r-0", "sweep-k-with-rs",
         "sweep-rs-empty", "oracle-budget-negative"],
)
def test_cli_bad_input_exits_2_with_message(runner, tmp_path, args):
    (tmp_path / "latin1.json").write_bytes('{"id": "é"}'.encode("latin-1"))
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
    assert result.exit_code == 2
    assert result.output.startswith("error:")  # not argparse's usage message
    assert isinstance(result.exception, SystemExit)  # not a traceback
    if args[1:3] == ["-n", "-1..2"]:
        assert "error: n must be >= 1, got -1" in result.output
    if "--budget" in args:
        assert result.output == "error: budget must be >= 0, got -3\n"
    if "-k" in args and "--rs" in args:
        # k is derived from r and s, so a given k would be ignored
        assert result.output == "error: -k does not apply with --rs; k = 2rs + r + s\n"
    elif "" in args:
        assert result.output == "error: bad range ''\n"
    elif "--rs" in args or "-r" in args:
        # the bad factorization is named, not the k derived from it
        assert "r, s must be >= 1" in result.output
        assert "k must" not in result.output


@pytest.mark.parametrize(
    "module, name, args",
    [("families", "build_family", ["build", "--family", "m2", "-n", "300", "-k", "300"]),
     ("sweep", "run_sweep", ["sweep", "-n", "1..30", "-k", "1..30"])],
    ids=["build", "sweep"],
)
def test_cli_unwritable_out_exits_2_before_any_work(runner, tmp_path, monkeypatch,
                                                    module, name, args):
    def never(*_args, **_kwargs):
        raise AssertionError(f"{name} ran before --out was tried")

    monkeypatch.setattr(importlib.import_module(f"localantimagic.{module}"), name, never)
    result = runner.invoke(main, [*args, "--out", str(tmp_path / "no" / "such" / "x.json")])
    assert result.exit_code == 2
    assert result.output.startswith("error: [Errno 2]")


def test_cli_failed_verify_keeps_an_existing_out_file(runner, tmp_path):
    """--out is opened for append before the work, so a command that then
    fails truncates nothing, even when --out names its own input."""
    bad = tmp_path / "bad.json"
    bad.write_text('{"format_version": 1, "vertices": [')
    old = tmp_path / "old.json"
    old.write_text("old content\n")
    for out in (old, bad):
        before = out.read_text()
        result = runner.invoke(main, ["verify", str(bad), "--out", str(out)])
        assert result.exit_code == 2
        assert result.output.startswith("error:")
        assert out.read_text() == before


def _cli_process(*args):
    """`python -m localantimagic.cli ARGS` in a fresh interpreter."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-m", "localantimagic.cli", *args],
        env=env, capture_output=True, text=True,
    )


@pytest.mark.parametrize(
    "args",
    [
        [],
        ["nonsense"],
        ["matrix", "--family", "bad", "-n", "1", "-k", "1"],
        ["matrix", "--fam", "m2", "-n", "1", "-k", "1"],
        ["oracle", "--preset", "book", "-a", "3", "-m", "1", "--graph", "{graph}"],
        ["oracle", "-a", "3", "-m", "1"],
        ["oracle", "--graph", "{graph}", "-a", "3", "-m", "2"],
        ["oracle", "--preset", "p2", "-a", "3", "-m", "2"],
    ],
    ids=["no-command", "unknown-command", "bad-choice", "abbreviated-option",
         "oracle-preset-and-graph", "oracle-no-graph", "oracle-graph-with-sizes",
         "oracle-p2-with-sizes"],
)
def test_cli_process_usage_error_exits_2(args, tmp_path):
    # a valid graph file, so that only the usage can be at fault
    graph = str(triangle_file(tmp_path, TRIANGLE))
    proc = _cli_process(*(arg.replace("{graph}", graph) for arg in args))
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.lower().startswith("usage: ")


def test_cli_process_oracle_stdout_matches_in_process(runner):
    proc = _cli_process("oracle", "--preset", "book")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == runner.invoke(main, ["oracle", "--preset", "book"]).output


def test_cli_process_bad_input_is_an_error_line_not_a_traceback():
    proc = _cli_process("sweep", "-n", "0..1")
    assert proc.returncode == 2
    assert proc.stderr.startswith("error:")
    assert "Traceback" not in proc.stderr


COMMAND_OPTIONS = {
    "matrix": ["--family", "-n", "-k", "--format", "--out"],
    "build": ["--family", "-n", "-k", "-r", "-s", "--stage", "--format", "--swaps", "--out"],
    "verify": ["GRAPH_FILE", "--out"],
    "sweep": ["-n", "-k", "--rs", "--family", "--out"],
    "oracle": ["--preset", "-a", "-m", "--graph", "--budget", "--out"],
    "swaps": ["--family", "-n", "-k", "-r", "-s", "--stage", "--out"],
}


def test_cli_group_help_names_every_command(runner):
    result = runner.invoke(main, ["--help"])
    assert result.exit_code == 0
    for command in COMMAND_OPTIONS:
        assert re.search(rf"^\s+{command}\s", result.output, re.MULTILINE), command


@pytest.mark.parametrize("command", list(COMMAND_OPTIONS))
def test_cli_command_help_names_every_option(runner, command):
    result = runner.invoke(main, [command, "--help"])
    assert result.exit_code == 0
    words = set(re.findall(r"(?<![\w-])-{1,2}[\w-]+|[A-Z_]{2,}", result.output))
    assert set(COMMAND_OPTIONS[command]) <= words
    defaults = {"sweep": ["1..6", "1..8"], "oracle": ["10"]}.get(command, [])
    for value in defaults:
        assert f"[default: {value}]" in result.output
