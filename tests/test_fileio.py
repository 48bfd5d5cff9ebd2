"""Graph file format: parsing, writing, and the exact round-trip promise."""

import json
import os
import random
import subprocess
import sys

import pytest
from hypothesis import given, settings, strategies as st

from subcount.cli import _record
from subcount.fileio import (GraphParseError, dumps, format_graph,
                             format_matching, load_model, parse_graph,
                             parse_matching, read_graph, save_model,
                             write_graph)
from subcount.graphs import Graph
from subcount.hardness import state_matrix
from subcount.structural import MinorModel

from helpers import rand_graph


def test_parse_minimal():
    g = parse_graph("g 3\ne 0 1\ne 1 2\n")
    assert g.n == 3 and g.edges == ((0, 1), (1, 2)) and not g.directed
    assert g.vcolors is None and g.ecolors is None


def test_parse_directed_header():
    g = parse_graph("g 2 directed\ne 1 0\n")
    assert g.directed and g.edges == ((1, 0),)


def test_parse_comments_and_blanks():
    text = """
# a triangle
g 3   # three vertices

e 0 1
  e 1 2  # second edge
e 0 2
"""
    g = parse_graph(text)
    assert g.m == 3


def test_parse_vertex_colors():
    g = parse_graph("g 2\ne 0 1\nvc 1 7\nvc 0 5\n")
    assert g.vcolors == (5, 7)


def test_parse_edge_colors():
    g = parse_graph("g 3\ne 0 1 4\ne 1 2 9\n")
    assert g.ecolors == (4, 9)


@pytest.mark.parametrize("text", [
    "e 0 1\n",                          # edge before header
    "g 2\ng 2\n",                       # duplicate header
    "g\n",                              # header missing count
    "g 2 undirected\n",                 # bad header word
    "g -1\n",                           # negative count
    "g two\n",                          # non-integer count
    "g 2\ne 0\n",                       # short edge line
    "g 2\ne 0 1 2 3\n",                 # long edge line
    "g 2\ne 0 x\n",                     # non-integer endpoint
    "g 2\ne 0 2\n",                     # out of range
    "g 2\ne 0 0\n",                     # loop
    "g 2\ne 0 1\ne 0 1\n",              # duplicate edge
    "g 2\ne 1 0\ne 0 1\n",              # duplicate edge, flipped
    "g 3\ne 0 1 5\ne 1 2\n",            # colored then uncolored
    "g 3\ne 0 1\ne 1 2 5\n",            # uncolored then colored
    "g 2\nvc 0 1\n",                    # vertex colors incomplete
    "g 2\nvc 0 1\nvc 0 2\nvc 1 3\n",    # vertex colored twice
    "g 2\nvc 0 1\nvc 1 2\nvc 2 3\n",    # color for missing vertex
    "g 2\nedge 0 1\n",                  # unknown directive
    "",                                 # empty file
    "# only a comment\n",               # no header at all
])
def test_parse_rejects(text):
    with pytest.raises(GraphParseError):
        parse_graph(text)


def test_duplicate_edges_are_parse_errors_not_preconditions():
    # the library class raises PreconditionError for this; at the file
    # boundary the same problem must surface as a parse error
    try:
        parse_graph("g 2\ne 0 1\ne 1 0\n")
    except GraphParseError:
        pass
    else:
        raise AssertionError("duplicate edge accepted")


def test_format_plain():
    g = Graph(3, [(0, 1), (1, 2)])
    assert format_graph(g) == "g 3\ne 0 1\ne 1 2\n"


def test_format_with_colors():
    g = Graph(2, [(0, 1)], vcolors=[4, 4], ecolors=[7])
    assert format_graph(g) == "g 2\ne 0 1 7\nvc 0 4\nvc 1 4\n"


def _same(a, b):
    return (a.n == b.n and a.directed == b.directed and a.edges == b.edges
            and a.vcolors == b.vcolors and a.ecolors == b.ecolors)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(0, 9), st.booleans(), st.booleans())
def test_round_trip(seed, n, with_vc, with_ec):
    import random
    rng = random.Random(seed)
    g = rand_graph(rng, n, 0.4)
    if with_vc and n:
        # empty color tuples have no line to carry them, so only graphs with
        # at least one vertex round-trip their colors
        g = g.with_vertex_colors([rng.randrange(4) for _ in range(n)])
    if with_ec and g.m:
        g = g.with_edge_colors([rng.randrange(4) for _ in range(g.m)])
    assert _same(parse_graph(format_graph(g)), g)


def test_round_trip_via_files(tmp_path):
    g = Graph(4, [(0, 1), (2, 3)], directed=True)
    path = tmp_path / "g.g"
    write_graph(g, path)
    assert _same(read_graph(path), g)


def test_parse_matching():
    assert parse_matching("0-1,2-3") == ((0, 1), (2, 3))
    assert parse_matching(" 4-5 ") == ((4, 5),)
    assert parse_matching("") == ()


@pytest.mark.parametrize("spec", ["0", "0-1-2", "a-b", "0-1,,2-3"])
def test_parse_matching_rejects(spec):
    with pytest.raises(GraphParseError):
        parse_matching(spec)


def test_format_matching_round_trip():
    edges = ((0, 1), (5, 9))
    assert parse_matching(format_matching(edges)) == edges


def test_model_round_trip(tmp_path):
    model = MinorModel([(0, 1), (2,)], discard=(3, 4))
    path = tmp_path / "m.json"
    save_model(model, path)
    branch_sets, discard = load_model(path)
    assert branch_sets == [[0, 1], [2]]
    assert discard == [3, 4]
    back = MinorModel(branch_sets, discard)
    assert back.branch_sets == model.branch_sets
    assert back.discard == model.discard


def test_fileio_loads_only_the_graph_primitives():
    import subcount
    code = ("import sys, subcount.fileio; print(sorted(m for m in sys.modules "
            "if m.startswith('subcount.')))")
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(subcount.__file__)))
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "['subcount.fileio', 'subcount.graphs', 'subcount.polynomials']"


@pytest.mark.parametrize("payload", [
    "not json",
    "[]",
    '{"discard": []}',
    '{"branch_sets": [[0], "x"]}',
    '{"branch_sets": [[0.5]]}',
    '{"branch_sets": [[0]], "discard": ["x"]}',
    '{"branch_sets": [[true], [false]]}',
    '{"branch_sets": [[0]], "discard": [true]}',
])
def test_model_rejects(tmp_path, payload):
    path = tmp_path / "m.json"
    path.write_text(payload)
    with pytest.raises(GraphParseError):
        load_model(path)


def test_result_record_decimal_string():
    rec = json.loads(dumps({**_record(10 ** 40, "brute", 3), "elapsed_ms": 17}))
    assert rec == {"count": "1" + "0" * 40, "algorithm": "brute",
                   "oracle_calls": 3, "elapsed_ms": 17}
    assert "e" not in rec["count"] and "E" not in rec["count"]


def test_files_that_are_not_utf8_are_parse_errors(tmp_path):
    bad = tmp_path / "bad.g"
    bad.write_bytes(b"g 3\ne 0 1\n\xff\n")
    with pytest.raises(GraphParseError, match="not UTF-8"):
        read_graph(bad)
    model = tmp_path / "m.json"
    model.write_bytes(b'{"branch_sets": [[0, 1]], "discard": [], "note": "\xff"}')
    with pytest.raises(GraphParseError, match="model file"):
        load_model(model)


def _records(rng):
    """One of every record shape the CLI prints, with seeded contents."""
    def ints():
        return [rng.randrange(-3, 40) for _ in range(rng.randrange(4))]

    big = rng.randrange(2 ** 64, 2 ** 300)
    ms = rng.randrange(10 ** 5)
    return [
        json.loads(dumps({**_record(big, rng.choice(["brute", "vc", "gadget+brute+vc",
                                                     "colmatch-structured"]),
                                    rng.randrange(10 ** 6)), "elapsed_ms": ms})),
        {"count": str(big), "oracle_calls": big, "elapsed_ms": -ms},
        {"gadget": True, "elapsed_ms": ms},
        {"gadget": False, "counterexample": ints(), "elapsed_ms": ms},
        {"found": True, "matching": format_matching(zip(ints(), ints())), "elapsed_ms": ms},
        {"found": False, "elapsed_ms": ms},
        {"found": True, "kind": "clique", "vertices": ints(), "elapsed_ms": ms},
        {"found": True, "kind": "biclique", "left": ints(), "right": [], "elapsed_ms": ms},
        {"found": True, "kind": "matching", "edges": "", "elapsed_ms": ms},
        {"vertices": rng.randrange(100), "edges": rng.randrange(300), "elapsed_ms": ms},
        {"pattern_vertices": 9, "host_vertices": 48, "host_edges": big, "elapsed_ms": ms},
        {"matrix": state_matrix(rng.randrange(50)), "det": str(big), "elapsed_ms": ms},
        {"branch_sets": [ints() for _ in range(rng.randrange(4))], "discard": ints()},
        {"branch_sets": [[]], "discard": []},
        {}, [], [[]], [1, [2, [3]]], True, False, 0, -big, "",
    ]


@pytest.mark.parametrize("seed", range(20))
def test_dumps_is_json_dumps_byte_for_byte(seed):
    for record in _records(random.Random(seed)):
        assert dumps(record) == json.dumps(record)


@pytest.mark.parametrize("value", [
    'say "hi"', {"key": 'a"b'}, {'a"b': 1}, "back\\slash", "tab\tbed", "bell\x07",
    "del\x7f", "caf\u00e9", {1: 2}, {"x": 1.5}, None, {"x": None}, (1, 2), {1, 2},
    b"bytes",
])
def test_dumps_rejects_what_json_would_escape_or_cannot_print(value):
    with pytest.raises(ValueError):
        dumps(value)
