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
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace

from .core import (
    ARC,
    ARROW,
    LINE,
    _LABEL_RE,
    Edge,
    MixedGraph,
    MixedGraphError,
    canonical_edge,
    edge_sort_key,
)

_TOKEN_KIND = {"->": ARROW, "<->": ARC, "--": LINE}


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

    def graph(self) -> MixedGraph:
        return MixedGraph(self.nodes, self.edges)

    def canonical(self) -> "GraphDocument":
        return replace(
            self,
            nodes=tuple(sorted(set(self.nodes))),
            edges=tuple(sorted(set(self.edges), key=edge_sort_key)),
            marg=tuple(sorted(set(self.marg))),
            cond=tuple(sorted(set(self.cond))),
        )


def _check_label(tok, lineno, col):
    if not _LABEL_RE.match(tok):
        raise ParseError(f"bad node label {tok!r}", lineno, col)
    return tok


def parse_graph(text: str, name: str = "") -> GraphDocument:
    """Parse the text format into a canonical GraphDocument."""
    declared = None
    edges = []
    seen_edges = set()
    marg = None
    cond = None
    endpoints = set()
    first_seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        lin = raw.split("#", 1)[0].rstrip()
        if not lin.strip():
            continue
        stripped = lin.strip()
        for directive in ("nodes", "marg", "cond"):
            if stripped.startswith(directive + ":"):
                names = stripped[len(directive) + 1 :].replace(",", " ").split()
                col = raw.index(directive) + 1
                for tok in names:
                    _check_label(tok, lineno, col)
                    first_seen.setdefault(tok, lineno)
                if directive == "nodes":
                    if declared is not None:
                        raise ParseError("duplicate nodes: line", lineno, col)
                    declared = list(names)
                elif directive == "marg":
                    if marg is not None:
                        raise ParseError("duplicate marg: line", lineno, col)
                    marg = list(names)
                else:
                    if cond is not None:
                        raise ParseError("duplicate cond: line", lineno, col)
                    cond = list(names)
                break
        else:
            toks = stripped.split()
            if len(toks) != 3 or toks[1] not in _TOKEN_KIND:
                raise ParseError(
                    "expected '<node> -> <node>', '<node> <-> <node>' or "
                    "'<node> -- <node>'",
                    lineno,
                )
            a, op, b = toks
            col_a = raw.index(a) + 1
            _check_label(a, lineno, col_a)
            _check_label(b, lineno, raw.index(b, col_a) + 1)
            try:
                edge = canonical_edge(Edge(_TOKEN_KIND[op], a, b))
            except MixedGraphError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            if edge in seen_edges:
                raise DuplicateEdge(f"duplicate edge {edge.render()!r}", lineno)
            seen_edges.add(edge)
            edges.append(edge)
            endpoints.update((a, b))
            first_seen.setdefault(a, lineno)
            first_seen.setdefault(b, lineno)

    known = set(declared) if declared is not None else set(endpoints)
    if declared is not None:
        for n in sorted(endpoints - known):
            raise UndeclaredNode(f"undeclared node {n!r}", first_seen[n])
    for role, names in (("marg", marg), ("cond", cond)):
        for n in names or ():
            if n not in known:
                raise UndeclaredNode(
                    f"{role} mark on undeclared node {n!r}", first_seen[n]
                )

    doc = GraphDocument(
        name=name,
        nodes=tuple(known),
        edges=tuple(edges),
        marg=tuple(marg or ()),
        cond=tuple(cond or ()),
    )
    return doc.canonical()


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
    return GraphDocument(
        name=name,
        nodes=tuple(graph.nodes),
        edges=tuple(graph.sorted_edges()),
        marg=tuple(sorted(marg)),
        cond=tuple(sorted(cond)),
    ).canonical()


def serialize(graph: MixedGraph) -> str:
    return serialize_graph(document_for(graph))


def graph_from_text(text: str) -> MixedGraph:
    """Shorthand: parse and build the graph in one step."""
    return parse_graph(text).graph()


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
    edges = []
    for k, e in enumerate(_json_field(payload, "edges", "document", "objects", [])):
        kind, a, b = (_json_field(e, f, f"edges[{k}]", "string") for f in Edge._fields)
        edges.append(canonical_edge(Edge(kind, a, b)))
    nodes = _json_field(payload, "nodes", "document", "labels", None)
    if nodes is None:
        nodes = sorted({n for e in edges for n in (e.a, e.b)})
    doc = GraphDocument(
        name=_json_field(payload, "name", "document", "string", ""),
        nodes=tuple(nodes),
        edges=tuple(edges),
        marg=tuple(_json_field(payload, "marg", "document", "labels", [])),
        cond=tuple(_json_field(payload, "cond", "document", "labels", [])),
    )
    doc.graph()  # validates edge endpoints against the node list
    for role, names in (("marg", doc.marg), ("cond", doc.cond)):
        for n in names:
            if n not in doc.nodes:
                raise UndeclaredNode(f"{role} mark on undeclared node {n!r}", 0)
    return doc.canonical()


def to_dot(graph: MixedGraph, name: str = "G") -> str:
    """Export-only DOT rendering (arrows directed, arcs dir=both, lines plain)."""
    out = [f"digraph {name or 'G'} {{"]
    for n in graph.nodes:
        out.append(f'  "{n}";')
    for e in graph.sorted_edges():
        if e.kind == ARROW:
            out.append(f'  "{e.a}" -> "{e.b}";')
        elif e.kind == ARC:
            out.append(f'  "{e.a}" -> "{e.b}" [dir=both];')
        else:
            out.append(f'  "{e.a}" -> "{e.b}" [dir=none];')
    out.append("}")
    return "\n".join(out) + "\n"
