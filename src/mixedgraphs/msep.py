"""m-separation queries on loopless mixed graphs.

A path m-connects given M and C when every collider inner node is in
C ∪ an(C) and every non-collider inner node is in M (the `allowed` set).
So a walk leaves an inner node t as a collider (heads on both sides of t)
when t is in C ∪ an(C), and otherwise when t is in M. Every search under
that step rule lives in this module:

- `_walk_reach` searches walk states (node, arrived with a head) as
  bitsets over each graph's `_exits`. On ribbonless graphs a legal walk
  exists iff a legal path does (connecting-walk concatenation only
  shortcuts through configurations that ribbonlessness forces to carry an
  endpoint-identical edge), so the walk verdict is exact there, in time
  linear in the edges. It decides separation, the Lemma-1 signatures of
  `endpoint_identical_connection` and primitive inducing paths (`witness`).
- `_paths` enumerates simple paths depth-first. On other graphs walks can
  over-connect — e.g. a->t<-b with a line t--x admits the walk
  a->t--x--t<-b but no connecting path — so `_connected` re-checks each
  walk hit with `_paths` before trusting it. It is also the exhaustive
  witness enumeration behind `msep --witness`. It takes a node's exit list
  as it enters the node from the graph's `_split_flows`, the `_flows`
  exits split by their mark at the node.
- `_separation_sets` runs both under many conditioning sets at once, a bit
  per set: `_sliced_reach` is the walk, and `_path_checked` the simple-path
  search, reading the same split exit lists. Its bit-sliced separation
  sets are what an `independence` model of a graph is built from, and what
  `witness.is_maximal_literal` sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import islice
from typing import NamedTuple

from .core import ARROW, EDGE_TOKEN, HEAD, TAIL, MixedGraph, MixedGraphError
from .core import _node_set, signature_edge


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
        for what in ("allowed_noncolliders", "collider_enablers"):
            object.__setattr__(self, what, _node_set(getattr(self, what), what))
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


def _sliced_reach(exits, out, col, start, live):
    """`_walk_reach` under many conditioning sets at once. Per node t,
    `out[t]` and `col[t]` are sets of conditioning sets, one bit each: those
    with t outside C (the allowed set), and those with t in C ∪ an(C) (the
    collider set). Returns, per walk state (bit index as in `exits`), the
    sets under which the state is reachable from the state bitset `start`,
    each start state carrying `live`.

    One worklist fixpoint: a state's newly gained sets leave by its tail
    exits where t is allowed, and by its head exits where t is allowed after
    a tail or in the collider set after a head, which is `_walk_reach`'s
    step rule. Every operation is bitwise, so each bit r evolves exactly as
    `_walk_reach` under set r, and the least fixpoint holds, per bit, the
    states that walk reaches. The worklist is first in, first out: a state
    then tends to gain its sets from several sources before it is read, and
    is read fewer times than from a stack."""
    heads, tails, _boths = exits
    n = len(out)
    reach = [0] * (2 * n)
    pending = [0] * (2 * n)
    queue = []
    while start:
        low = start & -start
        s = low.bit_length() - 1
        reach[s] = pending[s] = live
        queue.append(s)
        start ^= low
    # the queue grows as it is read; a state is queued while it has pending sets
    for s in queue:
        new = pending[s]
        pending[s] = 0
        t = s - n if s >= n else s
        on_tail = new & out[t]
        on_head = new & col[t] if s >= n else on_tail
        for m, sets in ((tails[t], on_tail), (heads[t], on_head)):
            if not sets:
                continue
            while m:
                low = m & -m
                o = low.bit_length() - 1
                m ^= low
                gain = sets & ~reach[o]
                if gain:
                    reach[o] |= gain
                    if not pending[o]:
                        queue.append(o)
                    pending[o] |= gain
    return reach


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@lru_cache(maxsize=None)
def _rank_order(n):
    """The n-bit masks in the order of their ascending set-bit index tuples,
    a mask's rank being its position, and per bit p the ranks of the masks
    that hold p, as one 2^n-bit int. Built once per n. Each mask grows by
    bits above its highest in preorder, pushed on a stack, which lists the
    index tuples lexicographically."""
    order = []
    stack = [(0, 0)]
    while stack:
        mask, low = stack.pop()
        order.append(mask)
        stack.extend((mask | 1 << b, b + 1) for b in range(n - 1, low - 1, -1))
    holding = [
        int("".join("1" if m >> p & 1 else "0" for m in reversed(order)), 2)
        for p in range(n)
    ]
    return order, holding


def _separation_sets(g: MixedGraph, fixed, drop):
    """The separation sets of the free nodes of g, those outside `drop`
    (which holds `fixed`), over the conditioning sets C = fixed ∪ D for
    every D over the f free nodes. D is named by its rank (`_rank_order(f)`)
    and a set of Cs is a 2^f-bit int, bit r for the D of rank r. Yields
    (p, q, s) per pair of non-adjacent free nodes at free positions p < q,
    in increasing order of p, then q: s holds the Cs that miss both nodes
    and m-separate them. An adjacent pair has no separating C.

    Per node t: `inc[t]` holds the Cs with t in C (every C for a node of
    `fixed`, none for a marginalised node), `out[t]` the others, and
    `col[t]` the Cs with t in C ∪ an(C): the OR of `inc[d]` over d in
    {t} ∪ de(t), read off the graph's `_ancestor_masks`. One
    `_sliced_reach` per source settles every C at once, and is exact
    on a ribbonless graph. On any other graph each pair's walk set is
    re-checked by simple paths (`_path_checked`). The pairs come one source
    at a time, so a reader may stop early.
    """
    n = len(g.nodes)
    free = [k for k in range(n) if not drop >> k & 1]
    holding = _rank_order(len(free))[1]
    every = (1 << (1 << len(free))) - 1
    inc = [every if fixed >> k & 1 else 0 for k in range(n)]
    for p, k in enumerate(free):
        inc[k] = holding[p]
    out = [every ^ s for s in inc]
    col = inc[:]
    for d, mask in enumerate(g._ancestor_masks.values()):
        for t in _bits(mask):
            col[t] |= inc[d]
    exits = g._exits
    exact = g.is_ribbonless
    for p, k in enumerate(free):
        near = exits[2][k]
        near |= near >> n
        apart = [(q, j) for q, j in enumerate(free) if q > p and not near >> j & 1]
        if not apart:
            continue
        reach = _sliced_reach(exits, out, col, exits[2][k], out[k])
        for q, j in apart:
            outside = out[k] & out[j]
            joined = (reach[j] | reach[n + j]) & outside
            if joined and not exact:
                joined = _path_checked(g, k, j, joined, out, col)
            yield p, q, outside & ~joined


def _path_checked(g: MixedGraph, k, j, walked, out, col):
    """The sets in `walked` under which a simple path m-connects nodes k
    and j, from one depth-first simple-path search out of k.

    Each path prefix carries the sets that its inner nodes allow so far:
    leaving an inner node t by a head after arriving with a head makes t a
    collider, which passes `col[t]`; every other exit passes `out[t]`, as in
    `_sliced_reach`. A node is entered only when some carried set lets
    the path leave it, and its exits are read off `g._split_flows` by which
    of the two is non-empty. Each arrival at j joins the sets it carries,
    and a prefix is extended only while it carries a set not joined yet.

    Exact by definition: the result is the OR over simple k-j paths of
    `walked` ANDed with their inner nodes' sets. A set r that some path P
    carries to j is either joined before the search reaches P's prefixes,
    or is carried along every one of them, none of which is pruned, and is
    joined at j; a joined set was carried to j by a simple path."""
    split, bit = g._split_flows, g._bit
    target = g.nodes[j]
    seen = 1 << k
    path = [g.nodes[k]]
    joined = 0
    # per node on the path: the exits left to try, and the sets a path may
    # leave it with by a head and by a tail
    pending = [(iter(split[path[0]][0]), walked, walked)]
    while True:
        exits, by_head, by_tail = pending[-1]
        for o, mh, mo, _e in exits:
            sets = (by_head if mh == HEAD else by_tail) & ~joined
            if not sets:
                continue
            if o == target:
                joined |= sets
                if joined == walked:
                    return joined
                continue
            b = bit[o]
            if seen & b:
                continue
            t = b.bit_length() - 1
            on_tail = sets & out[t]
            on_head = sets & col[t] if mo == HEAD else on_tail
            if on_head or on_tail:
                seen |= b
                path.append(o)
                # 0: it may leave by both marks, 1: a head only, -1: a tail only
                which = bool(on_head) - bool(on_tail)
                pending.append((iter(split[o][which]), on_head, on_tail))
                break
        else:
            pending.pop()
            if not pending:
                return joined
            seen ^= bit[path.pop()]


def _mask(g: MixedGraph, nodes):
    """The bitset of a node set over `g.nodes`."""
    return sum(map(g._bit.__getitem__, nodes))


def _paths(g: MixedGraph, source, target, collider_set, allowed):
    """Every m-connecting simple path from source to target as a
    `PathWitness`, depth-first in canonical edge order on an explicit stack
    (no recursion limit). Same step rule as `_walk_reach`; a node that no edge
    may leave is never entered. On entering a node it takes the exits it may
    leave by from the graph's `_split_flows`, built for this search alone,
    where they are already split by their mark at the node, in flow order:
    on ladders the search enters the same nodes exponentially often, so it
    builds no list per entry."""
    split = g._split_flows
    nodes, edges, visited = [source], [], {source}
    # per node on the path, the edges it may still be left through
    pending = [iter(split[source][0])]
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
                # 0: it may leave by both marks, 1: a head only, -1: a tail only
                pending.append(iter(split[o][o_head - o_tail]))
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
    A, B, C = _node_set(A, "A"), _node_set(B, "B"), _node_set(C, "C")
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
    M, C = _node_set(M, "M"), _node_set(C, "C")
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
