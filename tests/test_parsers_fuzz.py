"""Fuzz the two JSON parsers: whatever the input, each returns a result or
raises ParseError, never anything else."""
import json

from hypothesis import given, settings, strategies as st

from localantimagic import io

FUZZ = settings(max_examples=60, deadline=None, derandomize=True, database=None)

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=20,
)
arbitrary_text = st.text(max_size=40) | json_values.map(json.dumps)

# Values a near miss puts in place of a node of a valid document.
near_values = (
    st.sampled_from(
        ["u:1:0", "v:2:0", "x:1:2", "y:1:1", "u:1:1", "x:0:1", "q:1:1", "x:1", "",
         1, 2, 3, 0, -1, 99, 1.0, 2.5, True, False, None, "1", [], {}]
    )
    | json_values
)

GRAPH = {
    "format_version": 1,
    "vertices": [
        {"id": "u:1:0", "part": 1}, {"id": "v:1:0", "part": 2}, {"id": "x:1:1", "part": 3},
    ],
    "edges": [
        {"u": "u:1:0", "v": "v:1:0", "label": 1},
        {"u": "u:1:0", "v": "x:1:1", "label": 2},
        {"u": "v:1:0", "v": "x:1:1", "label": 3},
    ],
}
SWAPS = {
    "format_version": 1,
    "moves": [
        {
            "center_a": "x:1:1",
            "center_b": "x:2:1",
            "pair_a": [["u:1:0", "x:1:1"], ["v:1:0", "x:1:1"]],
            "pair_b": [["u:2:0", "x:2:1"], ["v:2:0", "x:2:1"]],
        }
    ],
}


def paths(node, path=()):
    """The key path of every node below the root of a JSON document."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
    else:
        items = ()
    for key, child in items:
        yield path + (key,)
        yield from paths(child, path + (key,))


@st.composite
def near_misses(draw, doc):
    """doc as JSON text, with up to three of its nodes replaced."""
    doc = json.loads(json.dumps(doc))
    for _ in range(draw(st.integers(0, 3))):
        *parents, key = draw(st.sampled_from(list(paths(doc))))
        node = doc
        for parent in parents:
            node = node[parent]
        node[key] = draw(near_values)
    return json.dumps(doc)


def parses_or_refuses(parse, text):
    try:
        return parse(text)
    except io.ParseError:
        return None


@FUZZ
@given(arbitrary_text)
def test_graph_parser_on_arbitrary_input(text):
    parses_or_refuses(io.graph_from_json, text)


@FUZZ
@given(near_misses(GRAPH))
def test_graph_parser_on_near_misses_round_trips_what_it_accepts(text):
    g = parses_or_refuses(io.graph_from_json, text)
    if g is not None:
        assert io.graph_from_json(io.graph_to_json(g)) == g


@FUZZ
@given(arbitrary_text)
def test_swap_parser_on_arbitrary_input(text):
    parses_or_refuses(io.swaps_from_json, text)


@FUZZ
@given(near_misses(SWAPS))
def test_swap_parser_on_near_misses_round_trips_what_it_accepts(text):
    moves = parses_or_refuses(io.swaps_from_json, text)
    if moves is not None:
        assert io.swaps_from_json(io.swaps_to_json(moves)) == moves
