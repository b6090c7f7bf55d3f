import random
import re

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mixedgraphs.core import LoopEdge, arc, arrow, line
from mixedgraphs.generators import random_lmg
from mixedgraphs.textfmt import (
    DuplicateEdge,
    GraphDocument,
    ParseError,
    UndeclaredNode,
    document_for,
    document_from_json,
    document_to_json,
    graph_from_text,
    parse_graph,
    serialize,
    serialize_graph,
    to_dot,
)


def test_parse_three_edge_kinds():
    doc = parse_graph("a -> b\nb <-> c\nc -- a")
    assert set(doc.nodes) == {"a", "b", "c"}
    assert set(doc.edges) == {arrow("a", "b"), arc("b", "c"), line("a", "c")}


def test_parse_rejects_loop_with_position():
    with pytest.raises(LoopEdge) as err:
        parse_graph("a -> a")
    assert "line 1" in str(err.value)


def test_parse_rejects_undeclared_node():
    with pytest.raises(UndeclaredNode) as err:
        parse_graph("nodes: a b\na -> c")
    assert "'c'" in str(err.value)


def test_parse_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdge):
        parse_graph("a -> b\na -> b")
    # same pair, different type is fine
    doc = parse_graph("a -> b\nb -> a\na <-> b\na -- b")
    assert len(doc.edges) == 4


def test_parse_rejects_garbage_with_location():
    with pytest.raises(ParseError) as err:
        parse_graph("a -> b\nwhat is this")
    assert err.value.lineno == 2


def test_parse_rejects_bad_label():
    with pytest.raises(ParseError):
        parse_graph("a* -> b")


def test_comments_and_blanks_ignored():
    doc = parse_graph("# header\n\na -> b  # trailing\n")
    assert doc.edges == (arrow("a", "b"),)


def test_marks_parsed_and_checked():
    doc = parse_graph("nodes: a b m\na -> b\nmarg: m\ncond: b")
    assert doc.marg == ("m",) and doc.cond == ("b",)
    with pytest.raises(UndeclaredNode):
        parse_graph("a -> b\nmarg: z")


def test_duplicate_directive_rejected():
    with pytest.raises(ParseError):
        parse_graph("nodes: a\nnodes: b")


def test_serialize_empty_graph():
    assert serialize_graph(GraphDocument()) == "nodes:\n"


def test_serialize_canonical_order():
    doc = parse_graph("b -> a\nc -- a\nc <-> b")
    assert serialize_graph(doc) == "nodes: a b c\na -- c\nb <-> c\nb -> a\n"


def test_serialize_emits_marks_after_edges():
    doc = parse_graph("nodes: a b m s\na -> b\nmarg: m\ncond: s")
    assert (
        serialize_graph(doc)
        == "nodes: a b m s\na -> b\nmarg: m\ncond: s\n"
    )


def test_round_trip_is_idempotent():
    rng = random.Random(81)
    for _ in range(200):
        g = random_lmg(rng, rng.randint(1, 6), p=0.3)
        text = serialize(g)
        doc = parse_graph(text)
        assert doc.graph() == g
        assert serialize_graph(doc) == text


names = st.sampled_from("abcde")
raw_edges = st.lists(
    st.tuples(st.sampled_from(["--", "<->", "->"]), names, names), max_size=12
)


@given(raw_edges)
def test_serialization_is_canonical_for_any_graph(specs):
    from mixedgraphs.core import MixedGraph

    edges = []
    for token, x, y in specs:
        if x == y:
            continue
        kind = {"--": line, "<->": arc, "->": arrow}[token]
        edges.append(kind(x, y))
    g = MixedGraph(set("abcde"), edges)
    text = serialize(g)
    assert serialize(parse_graph(text).graph()) == text


def test_parse_serialize_parse_fixpoint():
    messy = "# x\nnodes: d c b a\nb -> a\n\nd <-> a # y\n"
    once = serialize_graph(parse_graph(messy))
    assert serialize_graph(parse_graph(once)) == once


def test_document_round_trips_marks():
    g = graph_from_text("a -> b")
    doc = document_for(g, marg=("b",))
    assert parse_graph(serialize_graph(doc)) == doc


def test_graph_json_round_trip():
    doc = parse_graph("nodes: a b m\nm -> a\nm <-> b\nmarg: m")
    text = document_to_json(doc)
    back = document_from_json(text)
    assert back == doc
    assert document_to_json(back) == text
    # nodes may be omitted; endpoints are derived
    derived = document_from_json('{"edges": [{"kind": "arrow", "a": "x", "b": "y"}]}')
    assert derived.nodes == ("x", "y")
    with pytest.raises(UndeclaredNode):
        document_from_json('{"nodes": ["a"], "edges": [], "marg": ["z"]}')


@pytest.mark.parametrize(
    "text, field",
    [
        ('{"edges": [{"kind": "line", "a": "a", "b": 1}]}', "'b' must be a string"),
        ('{"edges": [{"kind": "line", "a": "a"}]}', "missing field 'b'"),
        ('{"edges": [7]}', "'edges' must be a list of objects"),
        ('{"edges": {"kind": "line"}}', "'edges' must be a list of objects"),
        ('{"nodes": "ab"}', "'nodes' must be a list of strings"),
        ('{"nodes": ["a"], "marg": [["a"]]}', "'marg' must be a list of strings"),
        ('{"name": 3}', "'name' must be a string"),
        ("[]", "must be a JSON object"),
        ('{\n  "edges": ]', "line 2, col 12"),
    ],
)
def test_malformed_graph_json_names_the_field(text, field):
    with pytest.raises(ParseError, match=re.escape(field)):
        document_from_json(text)


def test_to_dot_mentions_every_edge():
    g = graph_from_text("a -> b\nb <-> c\nc -- a")
    dot = to_dot(g)
    assert '"a" -> "b";' in dot
    assert '[dir=both]' in dot and '[dir=none]' in dot
