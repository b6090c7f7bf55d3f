"""m-separation queries on loopless mixed graphs.

A path m-connects given M and C when every collider inner node is in
C ∪ an(C) and every non-collider inner node is in M (the `allowed` set).
Every query runs on two kernels over the same step rule:

- `_walk` searches walk states (node, arrived with a head). On ribbonless
  graphs a legal walk exists iff a legal path does (connecting-walk
  concatenation only shortcuts through configurations that ribbonlessness
  forces to carry an endpoint-identical edge), so the walk verdict is exact
  there, in time linear in the edges. Its arrival marks are also the Lemma-1
  connection signatures.
- `_paths` enumerates simple paths depth-first. On other graphs walks can
  over-connect — e.g. a->t<-b with a line t--x admits the walk
  a->t--x--t<-b but no connecting path — so `_connected` re-checks each
  walk hit with `_paths` before trusting it. It is also the exhaustive
  witness enumeration and, with inner nodes restricted to colliders in
  an(endpoints), the primitive-inducing-path search.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice

from .core import HEAD, TAIL, MixedGraph, MixedGraphError, signature_edge


class NotDisjoint(MixedGraphError):
    pass


class OverlapError(MixedGraphError):
    pass


@dataclass(frozen=True)
class ConnectionQuery:
    """A source/target connection question given explicit M and C sets."""

    source: str
    target: str
    allowed_noncolliders: frozenset
    collider_enablers: frozenset

    def __post_init__(self):
        object.__setattr__(
            self, "allowed_noncolliders", frozenset(self.allowed_noncolliders)
        )
        object.__setattr__(
            self, "collider_enablers", frozenset(self.collider_enablers)
        )
        if self.source == self.target:
            raise OverlapError("source and target must differ")
        if {self.source, self.target} & self.collider_enablers:
            raise OverlapError("source/target may not be collider enablers")


@dataclass(frozen=True)
class PathWitness:
    """A connecting path: its node sequence and the edge chosen at each step."""

    nodes: tuple
    edges: tuple

    @property
    def colliders(self):
        """Per inner node, whether both of its path edges point into it."""
        return tuple(
            e1.mark_at(v) == HEAD and e2.mark_at(v) == HEAD
            for v, e1, e2 in zip(self.nodes[1:-1], self.edges, self.edges[1:])
        )

    def render(self):
        parts = []
        for u, e in zip(self.nodes, self.edges):
            if e.kind == "arrow":
                token = "->" if e.a == u else "<-"
            elif e.kind == "arc":
                token = "<->"
            else:
                token = "--"
            parts.extend((u, token))
        parts.append(self.nodes[-1])
        return " ".join(parts)


def _walk(g: MixedGraph, source, collider_set, allowed, first_mark=None):
    """Every state (node, arrived with a head) that an m-connecting walk out
    of source reaches, optionally only walks whose first edge carries
    `first_mark` at the source. Leaving an inner node t is legal through a
    collider when t is in collider_set, and otherwise when t is in allowed."""
    flows = g.flows
    states = set()
    stack = []
    for o, mh, mo, _e in flows(source):
        if first_mark is None or mh == first_mark:
            state = (o, mo == HEAD)
            if state not in states:
                states.add(state)
                stack.append(state)
    while stack:
        t, arrived_head = stack.pop()
        tail_ok = t in allowed
        head_ok = t in collider_set if arrived_head else tail_ok
        if not (head_ok or tail_ok):
            continue
        for o, mh, mo, _e in flows(t):
            if head_ok if mh == HEAD else tail_ok:
                state = (o, mo == HEAD)
                if state not in states:
                    states.add(state)
                    stack.append(state)
    return states


def _paths(g: MixedGraph, source, target, collider_set, allowed):
    """Every m-connecting simple path from source to target as (nodes,
    edges) tuples, depth-first in canonical edge order. Same step rule as
    `_walk`; a node that no edge may leave is never entered."""
    flows = g.flows
    nodes, edges, visited = [source], [], {source}

    def rec(t, head_ok, tail_ok):
        for o, mh, mo, e in flows(t):
            if o in visited or not (head_ok if mh == HEAD else tail_ok):
                continue
            nodes.append(o)
            edges.append(e)
            if o == target:
                yield tuple(nodes), tuple(edges)
            else:
                o_tail = o in allowed
                o_head = o in collider_set if mo == HEAD else o_tail
                if o_head or o_tail:
                    visited.add(o)
                    yield from rec(o, o_head, o_tail)
                    visited.discard(o)
            nodes.pop()
            edges.pop()

    yield from rec(source, True, True)


def _connected(g: MixedGraph, source, targets, collider_set, allowed):
    """The targets that some m-connecting path joins to source, in sorted
    order: walk hits, each re-checked by `_paths` unless g is ribbonless."""
    reached = {node for node, _head in _walk(g, source, collider_set, allowed)}
    exact = g.is_ribbonless
    for t in sorted(targets):
        if t in reached and (
            exact
            or next(_paths(g, source, t, collider_set, allowed), None) is not None
        ):
            yield t


def _query_sets(g: MixedGraph, query: ConnectionQuery):
    g._check_node(query.source)
    g._check_node(query.target)
    g._check_nodes(query.allowed_noncolliders)
    g._check_nodes(query.collider_enablers)
    enablers = query.collider_enablers
    return enablers | g.ancestors(enablers)


def connecting_path_exists(g: MixedGraph, query: ConnectionQuery) -> bool:
    """Whether some path m-connects source and target given the query sets."""
    collider_set = _query_sets(g, query)
    hits = _connected(
        g, query.source, (query.target,), collider_set, query.allowed_noncolliders
    )
    return next(hits, None) is not None


def enumerate_connecting_paths(
    g: MixedGraph, query: ConnectionQuery, limit: int = 1_000_000
) -> tuple:
    """Exhaustive oracle: the first `limit` m-connecting simple paths."""
    collider_set = _query_sets(g, query)
    paths = _paths(
        g, query.source, query.target, collider_set, query.allowed_noncolliders
    )
    return tuple(PathWitness(nodes, edges) for nodes, edges in islice(paths, limit))


def m_separated(g: MixedGraph, A, B, C) -> bool:
    """Whether A ⊥_m B | C: no m-connecting path between A and B given C,
    with non-colliders required outside A ∪ B ∪ C."""
    A, B, C = frozenset(A), frozenset(B), frozenset(C)
    if A & B or A & C or B & C:
        raise NotDisjoint("A, B, C must be pairwise disjoint")
    g._check_nodes(A | B | C)
    if not A or not B:
        return True
    collider_set = C | g.ancestors(C)
    allowed = g.node_set - A - B - C
    return not any(
        next(_connected(g, a, B, collider_set, allowed), None) is not None
        for a in sorted(A)
    )


def endpoint_identical_connection(g: MixedGraph, i, j, M, C) -> frozenset:
    """Mark signatures (at i, at j) realized by m-connecting walks given M, C.

    Each signature corresponds to the edge type a connection of that shape
    would generate: tail/tail a line, head/head an arc, and a mixed pair the
    arrow into the head end. Walks rather than simple paths: on multi-edge
    graphs a connecting walk may revisit an endpoint and realize a signature
    no simple path carries (d -> a <-> d <-> b realizes tail-at-d/head-at-b
    when a enables the collider), and it is the walk reading under which
    generated projection edges match connection signatures exactly.
    """
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    if {i, j} & (M | C):
        raise OverlapError("endpoints may not lie in M or C")
    g._check_nodes({i, j} | M | C)
    collider_set = C | g.ancestors(C)
    signatures = set()
    for first in (TAIL, HEAD):
        states = _walk(g, i, collider_set, M, first)
        for mark in (TAIL, HEAD):
            if (j, mark == HEAD) in states:
                signatures.add((first, mark))
    return frozenset(signatures)


def signature_edges(signatures, i, j):
    """Translate mark signatures between i and j into concrete edges."""
    return frozenset(signature_edge(mi, mj, i, j) for mi, mj in signatures)
