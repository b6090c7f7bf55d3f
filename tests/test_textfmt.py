import dataclasses
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgraphs.core import (
    ARROW,
    Edge,
    InvalidLabel,
    LoopEdge,
    MixedGraph,
    MixedGraphError,
    UnknownNode,
    arc,
    arrow,
    edge_sort_key,
    line,
)
from mixedgraphs.generators import random_lmg
from mixedgraphs.textfmt import (
    DuplicateEdge,
    GraphDocument,
    ParseError,
    UndeclaredNode,
    document_for,
    document_from_json,
    document_to_json,
    parse_graph,
    serialize_graph,
    to_dot,
)

from .helpers import LABEL_SPLIT_TEXT, mk, parse_graph_oracle


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
        text = serialize_graph(document_for(g))
        doc = parse_graph(text)
        assert doc.graph() == g
        assert serialize_graph(doc) == text


names = st.sampled_from("abcde")
raw_edges = st.lists(
    st.tuples(st.sampled_from(["--", "<->", "->"]), names, names), max_size=12
)


@settings(derandomize=True, database=None)
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
    text = serialize_graph(document_for(g))
    assert serialize_graph(document_for(parse_graph(text).graph())) == text


def test_parse_serialize_parse_fixpoint():
    messy = "# x\nnodes: d c b a\nb -> a\n\nd <-> a # y\n"
    once = serialize_graph(parse_graph(messy))
    assert serialize_graph(parse_graph(once)) == once


def test_document_round_trips_marks():
    g = parse_graph("a -> b").graph()
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


@pytest.mark.parametrize(
    "edges, repeat",
    [
        ([("line", "a", "b"), ("line", "a", "b")], "'a -- b'"),
        ([("line", "a", "b"), ("line", "b", "a")], "'a -- b'"),
        ([("arc", "b", "a"), ("arrow", "a", "b"), ("arc", "a", "b")], "'a <-> b'"),
    ],
)
def test_repeated_json_edge_is_a_duplicate(edges, repeat):
    text = json.dumps({"edges": [{"kind": k, "a": a, "b": b} for k, a, b in edges]})
    with pytest.raises(DuplicateEdge) as exc:
        document_from_json(text)
    assert exc.value.lineno == 0
    assert str(exc.value) == f"edges[{len(edges) - 1}]: duplicate edge {repeat}"


def test_to_dot_mentions_every_edge():
    g = parse_graph("a -> b\nb <-> c\nc -- a").graph()
    assert to_dot(g) == (
        "digraph G {\n"
        '  "a";\n'
        '  "b";\n'
        '  "c";\n'
        '  "a" -> "c" [dir=none];\n'
        '  "b" -> "c" [dir=both];\n'
        '  "a" -> "b";\n'
        "}\n"
    )


def test_to_dot_quotes_a_name_that_is_no_dot_id():
    g = parse_graph("a -> b").graph()
    assert to_dot(g, "chain").startswith("digraph chain {\n")
    assert to_dot(g, "a-b").startswith('digraph "a-b" {\n')
    assert to_dot(g, "2nd").startswith('digraph "2nd" {\n')
    assert to_dot(g, "node").startswith('digraph "node" {\n')
    assert to_dot(g, 'x"y\\z').startswith('digraph "x\\"y\\\\z" {\n')


@pytest.mark.parametrize(
    "text, lineno, col",
    [
        ("a -> -", 1, 6),
        ("nodes: a b*", 1, 10),
        ("a -> b\n  x-y -- a", 2, 3),
        ("marg: a,,b*\na -> b", 1, 10),
        ("a <- b", 1, 3),
        ("a -> b c", 1, 1),
        ("a -> b\n  b -> a\nb -> a", 3, 1),
        ("nodes: a\n  marg: a\n  marg: a", 3, 3),
        ("nodes: a b\nb -> a\na -> zz # note", 3, 6),
        ("a -- b\nmarg: a, zz", 2, 10),
    ],
)
def test_parse_errors_point_at_the_bad_token(text, lineno, col):
    with pytest.raises(ParseError) as err:
        parse_graph(text)
    assert (err.value.lineno, err.value.col) == (lineno, col)


def test_document_for_rejects_marks_outside_the_graph():
    g = parse_graph("a -> b").graph()
    with pytest.raises(UndeclaredNode, match="marg mark on undeclared node 'zz'"):
        document_for(g, marg={"zz"})
    with pytest.raises(UndeclaredNode, match="cond mark on undeclared node 'zz'"):
        document_for(g, marg={"a"}, cond=["b", "zz"])
    # of several undeclared marks, the smallest is named, whatever their order
    with pytest.raises(UndeclaredNode, match="marg mark on undeclared node 'yy'"):
        document_for(g, marg=["zz", "yy", "zx"])


def test_document_for_refuses_a_bare_string():
    g = mk(LABEL_SPLIT_TEXT)
    assert document_for(g, marg={"ab"}).marg == ("ab",)
    for role in ("marg", "cond"):
        with pytest.raises(InvalidLabel, match=f"{role} takes a collection"):
            document_for(g, **{role: "ab"})


def _messy_text(rng, g, marg, cond):
    """g and its marks as a valid file in a random layout: shuffled lines,
    symmetric edges either way round, comments, blank lines, commas and
    stray whitespace. Isolated nodes are always declared."""
    isolated = [n for n in g.nodes if not g.flows(n)]
    lines = []
    for e in g.edges:
        a, b = (e.b, e.a) if e.kind != "arrow" and rng.random() < 0.5 else (e.a, e.b)
        lines.append(f"{a} {e.render().split()[1]} {b}")

    def names(labels):
        labels = list(labels)
        rng.shuffle(labels)
        return rng.choice((" ", ", ", ",", " ,\t")).join(labels)

    if isolated or rng.random() < 0.5:
        lines.append("nodes: " + names(g.nodes))
    for role, labels in (("marg", marg), ("cond", cond)):
        if labels or rng.random() < 0.2:
            lines.append(f"{role}:" + rng.choice(("", " ")) + names(labels))
    lines += rng.choice(([], ["# comment"], ["", "  ", "\t# x"]))
    rng.shuffle(lines)
    return "\n".join(
        rng.choice(("", " ", "\t")) + text + rng.choice(("", "  ", " # note", "#"))
        for text in lines
    )


def _outcome(parse, text):
    """A parser's document, or the class, line and message of its error
    (without the column, which the one-pass parser places on the bad token)."""
    try:
        return parse(text)
    except ParseError as exc:
        return type(exc), exc.lineno, str(exc).split(": ", 1)[-1]
    except MixedGraphError as exc:
        return type(exc), str(exc)


BAD_LINES = (
    "a* -> b",
    "x-y -- a",
    "a <- b",
    "a - b",
    "a -> b c",
    "a",
    "a: -> b",
    "nodes : a",
    "nodesx: a",
    "a -> a",
    "b <-> b",
    "a -> zz",
    "zz -- a",
    "marg: zz",
    "cond: a,zz",
    "nodes: a b*",
    "cond: é",
    "nodes:",
    "marg: a",
    "cond:",
)


def test_parse_graph_matches_the_oracle_parser():
    rng = random.Random(88)
    for k in range(3000):
        g = random_lmg(rng, rng.randint(1, 7), p=0.2)
        marg = rng.sample(g.nodes, rng.randint(0, min(2, len(g.nodes))))
        cond = rng.sample(g.nodes, rng.randint(0, min(2, len(g.nodes))))
        text = _messy_text(rng, g, marg, cond)
        doc = parse_graph(text, name="g")
        assert doc == parse_graph_oracle(text, name="g"), text
        assert (doc.nodes, doc.edges, doc.marg, doc.cond) == (
            g.nodes,
            tuple(g.sorted_edges()),
            tuple(sorted(set(marg))),
            tuple(sorted(set(cond))),
        )
        assert doc.graph() == g
        # the same file with one to three bad, repeated or extra lines
        lines = text.split("\n")
        for _ in range(rng.randint(1, 3)):
            bad = rng.choice(BAD_LINES + tuple(line for line in lines if line.strip()))
            lines.insert(rng.randint(0, len(lines)), bad)
        text = "\n".join(lines)
        want = _outcome(parse_graph_oracle, text)
        assert _outcome(parse_graph, text) == want, text


def test_a_checked_document_keeps_its_checks():
    doc = parse_graph("a -> b")
    with pytest.raises(UnknownNode):
        dataclasses.replace(doc, edges=(Edge("arrow", "a", "zz"),)).graph()
    with pytest.raises(TypeError):
        GraphDocument(_checked=True)
    edges = (arrow("b", "a"), line("a", "b"), arrow("b", "a"))
    messy = GraphDocument("g", ("b", "a", "b"), edges, ("b", "a"), ("a", "a"))
    assert messy.canonical() == GraphDocument(
        "g", ("a", "b"), (line("a", "b"), arrow("b", "a")), ("a", "b"), ("a",)
    )
    assert serialize_graph(messy) == "nodes: a b\na -- b\nb -> a\nmarg: a b\ncond: a\n"
    # the flag is no part of the value
    plain = GraphDocument(nodes=("a", "b"), edges=(arrow("a", "b"),))
    assert doc._checked and not plain._checked
    assert doc == plain and hash(doc) == hash(plain) and repr(doc) == repr(plain)
    assert doc.canonical() is doc


def test_an_unchecked_document_is_checked_before_it_is_written():
    # a document built by hand is checked as outside input when it is
    # written, so neither writer emits text that does not read back
    edges = (Edge("arrow", "a", "zz"), Edge("line", "b", "a"))
    bad_edges = GraphDocument(nodes=("a",), edges=edges, marg=("q",))
    spaced_label = GraphDocument(nodes=("a b", "c"))
    for doc in (bad_edges, spaced_label):
        for write in (GraphDocument.canonical, serialize_graph, document_to_json):
            with pytest.raises(MixedGraphError):
                write(doc)
    good = GraphDocument("g", ("b", "a"), (arrow("b", "a"),), ("b",))
    assert good.canonical()._checked
    assert parse_graph(serialize_graph(good), "g") == good.canonical()
    assert document_from_json(document_to_json(good)) == good.canonical()


def test_checked_documents_hand_their_orders_to_the_graph():
    """A checked document's graph takes the document's node and edge tuples
    as its orders, which equal a fresh sort, and builds no parent index
    until one is read: for documents parsed from scrambled text, read from
    scrambled JSON and made by `document_for`."""
    rng = random.Random(21)
    for k in range(600):
        g = random_lmg(rng, rng.randint(1, 9), p=rng.uniform(0.05, 0.3))
        payload = {
            "nodes": rng.sample(g.nodes, len(g.nodes)),
            "edges": [{"kind": e.kind, "a": e.a, "b": e.b} for e in g.edges],
        }
        rng.shuffle(payload["edges"])
        docs = (
            parse_graph(_messy_text(rng, g, (), ())),
            document_from_json(json.dumps(payload)),
            document_for(MixedGraph(reversed(g.nodes), g.edges)),
        )
        for doc in docs:
            h = doc.graph()
            assert "_parents" not in vars(h)
            assert h._nodes is doc.nodes and h._sorted_edges is doc.edges
            assert h._sorted_edges == tuple(sorted(h.edges, key=edge_sort_key))
            assert h.nodes == tuple(sorted(h.nodes))
            assert h == g
            for n in h.nodes:
                want = {e.a for e in h.edges if e.kind == ARROW and e.b == n}
                assert h.parents(n) == want, (doc, n)
