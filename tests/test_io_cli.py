import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from localantimagic import (
    Family,
    FamilyParams,
    build_family,
    build_matrix,
    graph_stats,
    iter_connecting_swaps,
)
from localantimagic import io
from localantimagic.cli import main

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture
def runner():
    return CliRunner()


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
    # networkx as an independent decoder and encoder of the same structure
    for g in (g433, g45, g533):
        line = io.graph_to_graph6(g)
        G = nx.from_graph6_bytes(line.strip().encode("ascii"))
        index = {v: i for i, v in enumerate(g.vertices())}
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
    edges = g.sorted_edges()
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


@pytest.mark.parametrize("threads", ["abc", "0", "-3", "2.5"])
def test_cli_sweep_bad_thread_count_exit_2(runner, threads):
    result = runner.invoke(
        main, ["sweep", "-n", "1..2", "-k", "1..2"], env={"ANTIMAGIC_THREADS": threads}
    )
    assert result.exit_code == 2
    assert result.output.startswith("error: ANTIMAGIC_THREADS")


def test_cli_sweep_two_threads(runner):
    result = runner.invoke(
        main, ["sweep", "-n", "1..2", "-k", "1..2"], env={"ANTIMAGIC_THREADS": "2"}
    )
    assert result.exit_code == 0
    assert json.loads(result.output)["summary"] == {"pass": 8, "fail": 0}


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
        ["build", "--family", "m2", "-n", "1", "-k", "1", "--swaps", "{dir}"],
        ["oracle", "--graph", "{dir}"],
        ["build", "--family", "m2", "-n", "1", "-k", "1", "--out", "{dir}/no/such/x.json"],
        ["verify", "{dir}/latin1.json"],
        ["build", "--family", "m2", "-n", "1", "-k", "1", "-r", "0", "-s", "1",
         "--stage", "merged"],
    ],
    ids=["sweep-n-0", "sweep-rs-0", "swaps-file-is-dir", "graph-file-is-dir",
         "out-dir-missing", "graph-file-not-utf8", "build-r-0"],
)
def test_cli_bad_input_exits_2_with_message(runner, tmp_path, args):
    (tmp_path / "latin1.json").write_bytes('{"id": "é"}'.encode("latin-1"))
    result = runner.invoke(main, [a.format(dir=tmp_path) for a in args])
    assert result.exit_code == 2
    assert "error:" in result.output
    assert isinstance(result.exception, SystemExit)  # not a traceback
    if "--rs" in args or "-r" in args:
        # the bad factorization is named, not the k derived from it
        assert "r, s must be >= 1" in result.output
        assert "k must" not in result.output
