"""m-separation queries on loopless mixed graphs.

A path m-connects given M and C when every collider inner node is in
C ∪ an(C) and every non-collider inner node is in M (the `allowed` set).
So a walk leaves an inner node t as a collider (heads on both sides of t)
when t is in C ∪ an(C), and otherwise when t is in M. Every yes/no verdict
runs on one kernel over that step rule:

- `_walk_reach` searches walk states (node, arrived with a head) as
  bitsets over each graph's `_exits`. On ribbonless graphs a legal walk
  exists iff a legal path does (connecting-walk concatenation only
  shortcuts through configurations that ribbonlessness forces to carry an
  endpoint-identical edge), so the walk verdict is exact there, in time
  linear in the edges. It decides separation, the Lemma-1 signatures of
  `endpoint_identical_connection`, primitive inducing paths (`witness`) and
  the connection rows of `independence`.
- `_paths` enumerates simple paths depth-first. On other graphs walks can
  over-connect — e.g. a->t<-b with a line t--x admits the walk
  a->t--x--t<-b but no connecting path — so `_connected` re-checks each
  walk hit with `_paths` before trusting it. It is also the exhaustive
  witness enumeration behind `msep --witness`.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import NamedTuple

from .core import ARROW, EDGE_TOKEN, HEAD, TAIL, MixedGraph, MixedGraphError
from .core import signature_edge


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


class PathWitness(NamedTuple):
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
            # only an arrow walked from its head end reads backwards
            token = "<-" if e.kind == ARROW and e.b == u else EDGE_TOKEN[e.kind]
            parts.extend((u, token))
        parts.append(self.nodes[-1])
        return " ".join(parts)


def _walk_reach(exits, collider_mask, allowed_mask, start):
    """The walk states reachable from the state bitset `start` in zero or
    more steps, under the module's step rule for the collider set and the
    allowed set as node masks. `exits` is the graph's `_exits`: from
    `exits[0][k]`, `exits[1][k]` or `exits[2][k]`, the walks out of node k
    with a first head, a first tail, or either mark there."""
    heads, tails, boths = exits
    n = len(boths)
    # a walk leaves through every edge after a tail at an allowed node or a
    # head at a node in both sets; after a head elsewhere, tails or heads only
    head_any = allowed_mask & collider_mask
    head_tails = allowed_mask & ~collider_mask
    head_heads = collider_mask & ~allowed_mask
    reached = frontier = start
    while frontier:
        arrived_head = frontier >> n
        new = 0
        m = frontier & allowed_mask | arrived_head & head_any
        while m:
            low = m & -m
            new |= boths[low.bit_length() - 1]
            m ^= low
        m = arrived_head & head_tails
        while m:
            low = m & -m
            new |= tails[low.bit_length() - 1]
            m ^= low
        m = arrived_head & head_heads
        while m:
            low = m & -m
            new |= heads[low.bit_length() - 1]
            m ^= low
        frontier = new & ~reached
        reached |= new
    return reached


def _mask(g: MixedGraph, nodes):
    """The bitset of a node set over `g.nodes`."""
    return sum(map(g._bit.__getitem__, nodes))


def _paths(g: MixedGraph, source, target, collider_set, allowed):
    """Every m-connecting simple path from source to target as a
    `PathWitness`, depth-first in canonical edge order on an explicit stack
    (no recursion limit). Same step rule as `_walk_reach`; a node that no edge
    may leave is never entered."""
    flows = g._flows
    nodes, edges, visited = [source], [], {source}
    # per node on the path, the edges it may still be left through
    pending = [iter(flows[source])]
    while True:
        for o, _mh, mo, e in pending[-1]:
            if o in visited:
                continue
            if o == target:
                yield PathWitness((*nodes, o), (*edges, e))
                continue
            o_tail = o in allowed
            o_head = o in collider_set if mo == HEAD else o_tail
            if o_head or o_tail:
                nodes.append(o)
                edges.append(e)
                visited.add(o)
                exits = flows[o]
                if o_head != o_tail:
                    exits = [x for x in exits if (x[1] == HEAD) == o_head]
                pending.append(iter(exits))
                break
        else:
            if not edges:
                return
            pending.pop()
            visited.discard(nodes.pop())
            edges.pop()


def _connected(g: MixedGraph, source, targets, collider_set, allowed) -> bool:
    """Whether some m-connecting path joins source to one of the targets:
    a hit of the bitset walk, re-checked by `_paths` unless g is ribbonless."""
    exits = g._exits
    start = exits[2][g._bit[source].bit_length() - 1]
    reached = _walk_reach(exits, _mask(g, collider_set), _mask(g, allowed), start)
    hits = reached | reached >> len(g.nodes)
    exact = g.is_ribbonless
    for t in sorted(targets):
        if hits & g._bit[t] and (
            exact
            or next(_paths(g, source, t, collider_set, allowed), None) is not None
        ):
            return True
    return False


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
    return _connected(
        g, query.source, (query.target,), collider_set, query.allowed_noncolliders
    )


def enumerate_connecting_paths(
    g: MixedGraph, query: ConnectionQuery, limit: int = 1_000_000
) -> tuple:
    """Exhaustive oracle: the first `limit` m-connecting simple paths."""
    collider_set = _query_sets(g, query)
    paths = _paths(
        g, query.source, query.target, collider_set, query.allowed_noncolliders
    )
    return tuple(islice(paths, limit))


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
    return not any(_connected(g, a, B, collider_set, allowed) for a in sorted(A))


def endpoint_identical_connection(g: MixedGraph, i, j, M, C) -> frozenset:
    """Mark signatures (at i, at j) realized by m-connecting walks given M, C
    that are a single edge or pass a node other than i and j.

    Each signature stands for the edge a connection of that shape would
    generate: tail/tail a line, head/head an arc, a mixed pair the arrow
    into the head end. Walks rather than simple paths: on multi-edge graphs
    a walk may revisit an endpoint and realize a signature no simple path
    carries (d -> a <-> d <-> b gives tail-at-d/head-at-b when a enables the
    collider). A walk that only bounces between i and j (b -> c <-> b <- c)
    does not count, as the Table-1 closure never joins a node to itself.

    So a signature holds when a single edge between i and j carries it, or
    when a walk out of i and a reversed walk out of j, with those end marks,
    meet at some t not in {i, j}: a collider in C ∪ an(C) if both reach t
    with a head, else a node of M.
    """
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    if i == j:
        raise OverlapError("endpoints must differ")
    if {i, j} & (M | C):
        raise OverlapError("endpoints may not lie in M or C")
    g._check_nodes({i, j} | M | C)
    n = len(g.nodes)
    bit = g._bit
    colliders, allowed = _mask(g, C | g.ancestors(C)), _mask(g, M)
    inner = (1 << n) - 1 & ~bit[i] & ~bit[j]
    heads, tails, _boths = exits = g._exits
    ki, kj = bit[i].bit_length() - 1, bit[j].bit_length() - 1
    # per last mark: the state (j, last), and the reversed walks' start
    ends = {TAIL: (bit[j], tails[kj]), HEAD: (bit[j] << n, heads[kj])}
    back = {}
    signatures = set()
    for first, start in ((TAIL, tails[ki]), (HEAD, heads[ki])):
        out = _walk_reach(exits, colliders, allowed, start)
        for last, (state, start_j) in ends.items():
            if not out & state:
                continue
            if not start & state:  # no single edge carries the signature
                if last not in back:
                    back[last] = _walk_reach(exits, colliders, allowed, start_j)
                # the inner nodes each walk reaches with a head, and with a tail
                oh, ot = out >> n & inner, out & inner
                bh, bt = back[last] >> n & inner, back[last] & inner
                if not oh & bh & colliders | (ot & (bt | bh) | oh & bt) & allowed:
                    continue
            signatures.add((first, last))
    return frozenset(signatures)


def signature_edges(signatures, i, j):
    """Translate mark signatures between i and j into concrete edges."""
    return frozenset(signature_edge(mi, mj, i, j) for mi, mj in signatures)
