"""Line-oriented text format for mixed graphs.

Grammar, one item per line::

    # comment (anywhere; rest of line ignored)
    nodes: a b c          optional; declares the node set
    a -> b                arrow
    b <-> c               arc
    c -- a                line
    marg: m1 m2           optional role marks (marginalised nodes)
    cond: s1              optional role marks (conditioned nodes)

Serialization is canonical (sorted nodes, edges sorted by kind then
endpoints) and byte-stable, regardless of input order.

The documents that `parse_graph`, `document_for` and `document_from_json`
return are *checked*: canonical, with every label, endpoint and mark
checked. They are sorted once, when they are made: `canonical()` returns a
checked document as it is, and its `graph()` builds the graph without
checking or sorting it again. A document built any other way
(`GraphDocument(...)`, `dataclasses.replace`) is unchecked, and is checked
and sorted as outside input whenever it is used.
"""

from __future__ import annotations

import itertools
import json
import re
from dataclasses import dataclass, field

from .core import (
    ARC,
    ARROW,
    EDGE_TOKEN,
    KIND_RANK,
    LINE,
    _LABEL_RE,
    Edge,
    LoopEdge,
    MixedGraph,
    MixedGraphError,
    _node_set,
    canonical_edge,
)

# edge tokens by the rank of their kind, the first field of an edge's sort key
_TOKEN_RANK = {EDGE_TOKEN[kind]: rank for kind, rank in KIND_RANK.items()}
_RANK_KIND = {rank: kind for kind, rank in KIND_RANK.items()}
_ARROW_RANK = KIND_RANK[ARROW]
_DIRECTIVES = ("nodes", "marg", "cond")
# the tokens of an edge line, and the names of a directive line
_WORD_RE = re.compile(r"\S+")
_NAME_RE = re.compile(r"[^\s,]+")


class ParseError(MixedGraphError):
    """A malformed document; lineno 0 for a JSON field, which has no line."""

    def __init__(self, message, lineno, col=1):
        super().__init__(f"line {lineno}, col {col}: {message}" if lineno else message)
        self.lineno = lineno
        self.col = col


class DuplicateEdge(ParseError):
    pass


class UndeclaredNode(ParseError):
    pass


@dataclass(frozen=True)
class GraphDocument:
    """A parsed graph file: node/edge lists plus optional role marks."""

    name: str = ""
    nodes: tuple = ()
    edges: tuple = ()
    marg: tuple = ()
    cond: tuple = ()
    # canonical, with every label, endpoint and mark checked; set only by
    # _checked_document
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def graph(self) -> MixedGraph:
        if self._checked:
            return MixedGraph._trusted(self.nodes, self.edges, ordered=True)
        return MixedGraph(self.nodes, self.edges)

    def canonical(self) -> "GraphDocument":
        if self._checked:
            return self
        return document_for(self.graph(), self.name, self.marg, self.cond)


def _checked_document(name, nodes, edges, marg, cond) -> GraphDocument:
    """A document whose fields are canonical and checked already."""
    doc = GraphDocument(name, nodes, edges, marg, cond)
    object.__setattr__(doc, "_checked", True)
    return doc


def _column(pattern, code, k, pos=0):
    """The 1-based column of the k-th token of `pattern` in code from pos on."""
    return next(itertools.islice(pattern.finditer(code, pos), k, None)).start() + 1


def _undeclared(message, lines, lineno, label):
    """UndeclaredNode at the first occurrence of label, on line lineno."""
    code = lines[lineno - 1].partition("#")[0]
    head, colon, _rest = code.partition(":")
    pos = len(head) + 1 if colon and head.lstrip() in _DIRECTIVES else 0
    tokens = _NAME_RE.finditer(code, pos)
    col = next(m.start() for m in tokens if m.group() == label)
    return UndeclaredNode(message, lineno, col + 1)


def parse_graph(text: str, name: str = "") -> GraphDocument:
    """Parse the text format into a checked GraphDocument.

    One pass over the lines. Each distinct label is checked at its first
    occurrence, and `seen` keeps the line of it. Edges are kept as their sort
    keys (kind rank, a, b), so one sort orders them and no second pass over
    the document is needed."""
    seen = {}
    keys = set()
    directives = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        code = raw.partition("#")[0]
        toks = code.split()
        if not toks:
            continue
        if ":" in code:
            head, _, rest = code.partition(":")
            directive = head.lstrip()
            if directive in _DIRECTIVES:
                names = rest.replace(",", " ").split()
                for k, tok in enumerate(names):
                    if tok not in seen:
                        if not _LABEL_RE.match(tok):
                            col = _column(_NAME_RE, code, k, len(head) + 1)
                            raise ParseError(f"bad node label {tok!r}", lineno, col)
                        seen[tok] = lineno
                if directive in directives:
                    col = len(head) - len(directive) + 1
                    raise ParseError(f"duplicate {directive}: line", lineno, col)
                directives[directive] = names
                continue
        if len(toks) != 3 or toks[1] not in _TOKEN_RANK:
            raise ParseError(
                "expected '<node> -> <node>', '<node> <-> <node>' or "
                "'<node> -- <node>'",
                lineno,
                _column(_WORD_RE, code, 1 if len(toks) == 3 else 0),
            )
        a, op, b = toks
        for k, tok in ((0, a), (2, b)):
            if tok not in seen:
                if not _LABEL_RE.match(tok):
                    col = _column(_WORD_RE, code, k)
                    raise ParseError(f"bad node label {tok!r}", lineno, col)
                seen[tok] = lineno
        if a == b:
            raise LoopEdge(f"line {lineno}: loop at node {a!r}")
        rank = _TOKEN_RANK[op]
        key = (rank, b, a) if b < a and rank != _ARROW_RANK else (rank, a, b)
        if key in keys:
            edge = Edge(_RANK_KIND[rank], *key[1:]).render()
            col = _column(_WORD_RE, code, 0)
            raise DuplicateEdge(f"duplicate edge {edge!r}", lineno, col)
        keys.add(key)

    declared = directives.get("nodes")
    if declared is None:
        known = {n for _rank, a, b in keys for n in (a, b)}
    else:
        known = set(declared)
        # every label read is in `seen`: more of them than were declared
        # means an undeclared endpoint or mark
        if len(seen) > len(known):
            ends = {n for _rank, a, b in keys for n in (a, b)}
            for n in sorted(ends - known):
                raise _undeclared(f"undeclared node {n!r}", lines, seen[n], n)
    marg = directives.get("marg", ())
    cond = directives.get("cond", ())
    for role, names in (("marg", marg), ("cond", cond)):
        for n in names:
            if n not in known:
                message = f"{role} mark on undeclared node {n!r}"
                raise _undeclared(message, lines, seen[n], n)
    return _checked_document(
        name,
        tuple(sorted(known)),
        tuple(Edge(_RANK_KIND[rank], a, b) for rank, a, b in sorted(keys)),
        tuple(sorted(set(marg))),
        tuple(sorted(set(cond))),
    )


def serialize_graph(doc: GraphDocument) -> str:
    """Render a document in canonical, byte-stable form."""
    doc = doc.canonical()
    lines = ["nodes: " + " ".join(doc.nodes) if doc.nodes else "nodes:"]
    lines.extend(e.render() for e in doc.edges)
    if doc.marg:
        lines.append("marg: " + " ".join(doc.marg))
    if doc.cond:
        lines.append("cond: " + " ".join(doc.cond))
    return "\n".join(lines) + "\n"


def document_for(graph: MixedGraph, name: str = "", marg=(), cond=()) -> GraphDocument:
    """The checked document of a graph with role marks on its nodes."""
    marks = []
    for role, names in (("marg", marg), ("cond", cond)):
        names = _node_set(names, role)
        if not names <= graph.node_set:
            n = min(map(repr, names - graph.node_set))
            raise UndeclaredNode(f"{role} mark on undeclared node {n}", 0)
        marks.append(tuple(sorted(names)))
    return _checked_document(name, graph.nodes, graph._sorted_edges, *marks)


def document_to_json(doc: GraphDocument) -> str:
    """Canonical JSON rendering: {"name", "nodes", "edges", "marg", "cond"}
    with edges as {"kind", "a", "b"} objects, byte-stable across runs."""
    doc = doc.canonical()
    payload = {
        "name": doc.name,
        "nodes": list(doc.nodes),
        "edges": [{"kind": e.kind, "a": e.a, "b": e.b} for e in doc.edges],
        "marg": list(doc.marg),
        "cond": list(doc.cond),
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


_REQUIRED = object()
_JSON_KINDS = {
    "string": "a string",
    "labels": "a list of strings",
    "objects": "a list of objects",
}


def _json_payload(text: str) -> dict:
    """The top-level object of a JSON document."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(exc.msg, exc.lineno, exc.colno) from None
    if not isinstance(payload, dict):
        raise ParseError("the document must be a JSON object", 0)
    return payload


def _json_field(obj: dict, key, where, kind, default=_REQUIRED):
    """obj[key] from a JSON document, checked to be of `kind` (a key of
    _JSON_KINDS). An absent or null field gives `default`, and is an error
    where there is none. `where` names obj in the message."""
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ParseError(f"{where}: missing field {key!r}", 0)
        return default
    if kind == "string":
        ok = isinstance(value, str)
    else:
        item = str if kind == "labels" else dict
        ok = isinstance(value, list) and all(isinstance(v, item) for v in value)
    if not ok:
        raise ParseError(f"{where}: field {key!r} must be {_JSON_KINDS[kind]}", 0)
    return value


def document_from_json(text: str) -> GraphDocument:
    payload = _json_payload(text)
    edges = set()
    for k, e in enumerate(_json_field(payload, "edges", "document", "objects", [])):
        kind, a, b = (_json_field(e, f, f"edges[{k}]", "string") for f in Edge._fields)
        edge = canonical_edge(Edge(kind, a, b))
        if edge in edges:
            raise DuplicateEdge(f"edges[{k}]: duplicate edge {edge.render()!r}", 0)
        edges.add(edge)
    nodes = _json_field(payload, "nodes", "document", "labels", None)
    if nodes is None:
        nodes = sorted({n for e in edges for n in (e.a, e.b)})
    name = _json_field(payload, "name", "document", "string", "")
    marg = _json_field(payload, "marg", "document", "labels", [])
    cond = _json_field(payload, "cond", "document", "labels", [])
    # MixedGraph checks every label and endpoint, document_for every mark
    return document_for(MixedGraph(nodes, edges), name, marg, cond)


_DOT_ID_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
_DOT_KEYWORDS = {"digraph", "edge", "graph", "node", "strict", "subgraph"}


def _dot_id(name):
    """name as a DOT ID: as it is if it is a plain identifier, else quoted."""
    if _DOT_ID_RE.match(name) and name.lower() not in _DOT_KEYWORDS:
        return name
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


_DOT_ATTRS = {ARROW: "", ARC: " [dir=both]", LINE: " [dir=none]"}


def to_dot(graph: MixedGraph, name: str = "G") -> str:
    """Export-only DOT rendering (arrows directed, arcs dir=both, lines plain)."""
    out = [f"digraph {_dot_id(name or 'G')} {{"]
    for n in graph.nodes:
        out.append(f'  "{n}";')
    for e in graph._sorted_edges:
        out.append(f'  "{e.a}" -> "{e.b}"{_DOT_ATTRS[e.kind]};')
    out.append("}")
    return "\n".join(out) + "\n"
