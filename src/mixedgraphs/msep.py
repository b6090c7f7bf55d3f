"""m-separation queries on loopless mixed graphs.

A path m-connects given M and C when every collider inner node is in
C ∪ an(C) and every non-collider inner node is in M (the `allowed` set).
Every query runs on two kernels over the same step rule:

- `_walk` searches walk states (node, arrived with a head). On ribbonless
  graphs a legal walk exists iff a legal path does (connecting-walk
  concatenation only shortcuts through configurations that ribbonlessness
  forces to carry an endpoint-identical edge), so the walk verdict is exact
  there, in time linear in the edges. Its arrival marks are also the Lemma-1
  connection signatures, from which `project` builds the projections of
  ribbonless graphs, and the end marks of primitive inducing paths, from
  which `witness` decides maximality. `_walk_steps` and `_walk_reach` hold
  the same search as successor bitsets over the walk states, built once per
  pair of sets and shared by every source: `independence` enumerates models
  on them.
- `_paths` enumerates simple paths depth-first. On other graphs walks can
  over-connect — e.g. a->t<-b with a line t--x admits the walk
  a->t--x--t<-b but no connecting path — so `_connected` re-checks each
  walk hit with `_paths` before trusting it. It is also the exhaustive
  witness enumeration behind `msep --witness`.
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
    collider when t is in collider_set, and otherwise when t is in allowed.

    Returns {state: predecessor}: the state whose step first reached it, or
    None for a state one edge from the source. The walk may re-enter the
    source as an inner node."""
    flows = g._flows
    reached = {}
    stack = []
    for o, mh, mo, _e in flows[source]:
        if first_mark is None or mh == first_mark:
            state = (o, mo == HEAD)
            if state not in reached:
                reached[state] = None
                stack.append(state)
    while stack:
        here = stack.pop()
        t, arrived_head = here
        tail_ok = t in allowed
        head_ok = t in collider_set if arrived_head else tail_ok
        if not (head_ok or tail_ok):
            continue
        for o, mh, mo, _e in flows[t]:
            if head_ok if mh == HEAD else tail_ok:
                state = (o, mo == HEAD)
                if state not in reached:
                    reached[state] = here
                    stack.append(state)
    return reached


def _state_exits(g: MixedGraph):
    """Per node k of `g.nodes`, the walk states one edge away as bitsets
    (head exits, tail exits): the edges carrying a head, or a tail, at k.
    State (o, arrived with a head) is bit n + o, (o, arrived with a tail)
    bit o, for node indices o among the n nodes."""
    n = len(g.nodes)
    index = {v: k for k, v in enumerate(g.nodes)}
    flows = g._flows
    exits = []
    for v in g.nodes:
        head = tail = 0
        for o, mh, mo, _e in flows[v]:
            bit = 1 << (index[o] + n if mo == HEAD else index[o])
            if mh == HEAD:
                head |= bit
            else:
                tail |= bit
        exits.append((head, tail))
    return exits


def _walk_steps(exits, collider_mask, allowed_mask):
    """`_walk`'s step rule as one successor bitset per walk state, for the
    collider set and allowed set given as node masks. It depends on those
    sets and not on the source, so every source of a query can share it."""
    n = len(exits)
    steps = [0] * (2 * n)
    for k, (head, tail) in enumerate(exits):
        if allowed_mask >> k & 1:
            steps[k] = head | tail
            steps[n + k] = head | tail if collider_mask >> k & 1 else tail
        elif collider_mask >> k & 1:
            steps[n + k] = head
    return steps


def _walk_reach(steps, start):
    """The walk states reachable from the state bitset `start` in zero or
    more steps; from a source's head and tail exits, the states `_walk`
    reaches."""
    reached = frontier = start
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            new |= steps[low.bit_length() - 1]
            frontier ^= low
        frontier = new & ~reached
        reached |= new
    return reached


def _paths(g: MixedGraph, source, target, collider_set, allowed):
    """Every m-connecting simple path from source to target as (nodes,
    edges) tuples, depth-first in canonical edge order on an explicit stack
    (no recursion limit). Same step rule as `_walk`; a node that no edge may
    leave is never entered."""
    flows = g._flows
    nodes, edges, visited = [source], [], {source}
    # per node on the path, the edges it may still be left through
    pending = [iter(flows[source])]
    while True:
        for o, _mh, mo, e in pending[-1]:
            if o in visited:
                continue
            if o == target:
                yield (*nodes, o), (*edges, e)
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
    """Mark signatures (at i, at j) realized by m-connecting walks given M, C
    that are a single edge or pass a node other than i and j.

    Each signature corresponds to the edge type a connection of that shape
    would generate: tail/tail a line, head/head an arc, and a mixed pair the
    arrow into the head end. Walks rather than simple paths: on multi-edge
    graphs a connecting walk may revisit an endpoint and realize a signature
    no simple path carries (d -> a <-> d <-> b realizes tail-at-d/head-at-b
    when a enables the collider). A walk that only bounces between i and j
    (b -> c <-> b <- c) does not count, as the Table-1 closure never joins a
    node to itself; so generated projection edges match signatures exactly.

    The walk that first reached j (read back through `_walk`'s predecessors)
    settles a signature unless it bounces. Then a walk through some t not in
    {i, j} is sought: a walk out of i and a reversed walk out of j meet at t,
    a collider in C ∪ an(C) if both arrive with a head, else in M.
    """
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    if i == j:
        raise OverlapError("endpoints must differ")
    if {i, j} & (M | C):
        raise OverlapError("endpoints may not lie in M or C")
    g._check_nodes({i, j} | M | C)
    collider_set = C | g.ancestors(C)
    signatures = set()
    for first in (TAIL, HEAD):
        out = _walk(g, i, collider_set, M, first)
        for last in (TAIL, HEAD):
            state = (j, last == HEAD)
            if state not in out:
                continue
            pred = via = out[state]
            while via is not None and via[0] in (i, j):
                via = out[via]
            if pred is None or via is not None:
                signatures.add((first, last))
                continue
            back = _walk(g, j, collider_set, M, last)
            if any(
                (t, h2) in back and (t in collider_set if h1 and h2 else t in M)
                for t, h1 in out
                if t != i and t != j
                for h2 in (False, True)
            ):
                signatures.add((first, last))
    return frozenset(signatures)


def signature_edges(signatures, i, j):
    """Translate mark signatures between i and j into concrete edges."""
    return frozenset(signature_edge(mi, mj, i, j) for mi, mj in signatures)
