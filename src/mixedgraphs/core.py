"""Loopless mixed graphs with arrows, arcs, and lines.

The graph value is immutable: every operation returns a new graph, and all
derived structure (sorted edges, walk index, walk tables, ribbon reports,
class tags) is cached on the instance, so graphs are safe to share between
threads.

`MixedGraph(nodes, edges)` checks every label and endpoint and canonicalises
every edge. Graphs the library builds from edges it made itself (closures,
projections, subgraphs) go through the private `MixedGraph._trusted`, which
skips those checks. Construction indexes only the parents, which ancestry and
`cycle_nodes` read; every other adjacency query reads the walk index `_flows`.
Ribbon detection pairs the head exits that `_flows` lists at each candidate
inner node.
"""

from __future__ import annotations

import itertools
import re
from functools import cached_property
from typing import Iterable, NamedTuple

LINE = "line"
ARC = "arc"
ARROW = "arrow"

HEAD = "head"
TAIL = "tail"

KIND_RANK = {LINE: 0, ARC: 1, ARROW: 2}
EDGE_TOKEN = {LINE: "--", ARC: "<->", ARROW: "->"}

_LABEL_RE = re.compile(r"[A-Za-z0-9_]+\Z")


class MixedGraphError(Exception):
    """Base class for all domain errors raised by this package."""


class LoopEdge(MixedGraphError):
    pass


class UnknownNode(MixedGraphError):
    pass


class InvalidLabel(MixedGraphError):
    pass


class Edge(NamedTuple):
    """One edge of a mixed graph.

    Lines and arcs are unordered and stored with endpoints sorted; arrows are
    stored as (tail, head).
    """

    kind: str
    a: str
    b: str

    def mark_at(self, node):
        """Arrowhead status ('head'/'tail') of this edge at one endpoint."""
        if self.kind == LINE:
            return TAIL
        if self.kind == ARC:
            return HEAD
        return HEAD if node == self.b else TAIL

    def other(self, node):
        return self.b if node == self.a else self.a

    def render(self):
        return f"{self.a} {EDGE_TOKEN[self.kind]} {self.b}"


def line(x, y) -> Edge:
    return Edge(LINE, x, y) if x < y else Edge(LINE, y, x)


def arc(x, y) -> Edge:
    return Edge(ARC, x, y) if x < y else Edge(ARC, y, x)


def arrow(tail, head) -> Edge:
    return Edge(ARROW, tail, head)


def canonical_edge(edge: Edge) -> Edge:
    """Normalize endpoint order for symmetric edges; reject loops."""
    kind, a, b = edge
    if not isinstance(kind, str) or kind not in KIND_RANK:
        raise InvalidLabel(f"unknown edge kind {kind!r}")
    if a == b:
        raise LoopEdge(f"loop at node {a!r}")
    if kind != ARROW and a > b:
        return Edge(kind, b, a)
    return Edge(kind, a, b)


def edge_sort_key(edge: Edge):
    return (KIND_RANK[edge.kind], edge.a, edge.b)


def signature_edge(mark_a, mark_b, a, b) -> Edge:
    """The edge whose endpoint marks at (a, b) are (mark_a, mark_b)."""
    if mark_a == HEAD and mark_b == HEAD:
        return arc(a, b)
    if mark_a == TAIL and mark_b == TAIL:
        return line(a, b)
    if mark_b == HEAD:
        return arrow(a, b)
    return arrow(b, a)


def reach(step, seeds) -> set:
    """Nodes reachable from seeds in one or more steps, where step[n] holds
    the nodes one step from n (parents for ancestry, children for descent).
    A seed is included only when some cycle leads back to it."""
    seen = set()
    stack = list(seeds)
    while stack:
        for n in step[stack.pop()]:
            if n not in seen:
                seen.add(n)
                stack.append(n)
    return seen


def _cyclic(parents) -> frozenset:
    """The nodes of `parents` (node -> its parents, each a key) on some
    direction-preserving cycle: those in strongly connected components of
    more than one node, from one iterative Tarjan pass in dict order."""
    # One dict: each entered node's low-link, set to `done` (above every index)
    # once its component is emitted. A work entry carries its node's index
    # and stack position. A node without parents is never entered.
    done = len(parents)
    low, stack, cyclic = {}, [], []
    for root in parents:
        if root in low or not parents[root]:
            continue
        # the stack is empty between roots
        low[root] = i = len(low)
        work = [(root, i, 0, iter(parents[root]))]
        stack.append(root)
        while work:
            v, i, k, succ = work[-1]
            for w in succ:
                lw = low.get(w)
                if lw is None:
                    if not parents[w]:
                        continue
                    low[w] = j = len(low)
                    work.append((w, j, len(stack), iter(parents[w])))
                    stack.append(w)
                    break
                if lw < low[v]:
                    low[v] = lw
            else:
                work.pop()
                if low[v] == i:
                    if len(stack) - k > 1:
                        cyclic.extend(stack[k:])
                    for w in stack[k:]:
                        low[w] = done
                    del stack[k:]
                elif low[v] < low[work[-1][0]]:
                    low[work[-1][0]] = low[v]
    return frozenset(cyclic)


class RibbonReport(NamedTuple):
    """A collider V <h, inner, j> violating ribbonlessness.

    witness_kind is 'line' or 'cycle'; witness_node is the inner node or the
    descendant of it that touches a line / lies on a direction-preserving
    cycle.
    """

    h: str
    inner: str
    j: str
    witness_kind: str
    witness_node: str


class MixedGraph:
    """An immutable loopless mixed graph over labeled nodes.

    At most one edge of each kind per unordered pair (arrows counted per
    direction), no loops. Node order is lexicographic everywhere.
    """

    def __init__(self, nodes: Iterable[str], edges: Iterable[Edge] = ()):
        node_set = set()
        for n in nodes:
            if not isinstance(n, str) or not _LABEL_RE.match(n):
                raise InvalidLabel(f"bad node label {n!r}")
            node_set.add(n)
        canon = set()
        for e in edges:
            try:
                kind, a, b = e
            except (TypeError, ValueError):
                raise InvalidLabel(f"bad edge {e!r}") from None
            # membership first: only declared labels are safe to compare
            for end in (a, b):
                if not isinstance(end, str) or end not in node_set:
                    raise UnknownNode(f"edge endpoint {end!r} not a declared node")
            canon.add(canonical_edge(e))
        self._index(node_set, canon)

    @classmethod
    def _trusted(cls, nodes, edges) -> "MixedGraph":
        """The graph over edges the library built itself, unchecked: every
        label valid, every endpoint among nodes, no loops, and every edge
        canonical (lines and arcs with sorted endpoints)."""
        g = cls.__new__(cls)
        g._index(nodes, edges)
        return g

    def _index(self, nodes, edges):
        self._node_set = frozenset(nodes)
        self._nodes = tuple(sorted(self._node_set))
        self._edges = frozenset(edges)
        # per node, its parents; never mutated, so `parents` hands out copies
        self._parents = parents = {n: set() for n in self._nodes}
        for kind, a, b in self._edges:
            if kind == ARROW:
                parents[b].add(a)

    @cached_property
    def _sorted_edges(self) -> tuple:
        """The edges in canonical edge order, sorted once."""
        return tuple(sorted(self._edges, key=edge_sort_key))

    @cached_property
    def _flows(self) -> dict:
        """Per node, (other endpoint, mark here, mark there, edge) in
        canonical edge order: the walk structure of the separation engine,
        built on first use from the one sorted edge tuple."""
        flows = {n: [] for n in self._nodes}
        for e in self._sorted_edges:
            kind, a, b = e
            if kind == ARROW:
                flows[a].append((b, TAIL, HEAD, e))
                flows[b].append((a, HEAD, TAIL, e))
            else:
                mark = HEAD if kind == ARC else TAIL
                flows[a].append((b, mark, mark, e))
                flows[b].append((a, mark, mark, e))
        return {n: tuple(f) for n, f in flows.items()}

    @cached_property
    def _children(self) -> dict:
        """Per node, its children: built for `children` and `descendants`."""
        return {
            n: frozenset(o for o, mh, mo, _e in f if mh == TAIL and mo == HEAD)
            for n, f in self._flows.items()
        }

    @cached_property
    def _line_ends(self) -> frozenset:
        """The nodes that touch a line."""
        return frozenset(n for e in self._edges if e.kind == LINE for n in (e.a, e.b))

    # --- walk tables of `msep._walk_reach`: node k of `nodes` is bit k -----

    @cached_property
    def _bit(self) -> dict:
        """Per node, its bit: 1 << its index in `nodes`."""
        return {v: 1 << k for k, v in enumerate(self._nodes)}

    @cached_property
    def _exits(self) -> tuple:
        """The walk states one edge from each node k, as three bitset lists
        indexed by k: through the edges with a head at k, with a tail, and
        all of them. State (o, arrived with a head) is bit n + o, and
        (o, arrived with a tail) bit o, for the n nodes' indices o."""
        n = len(self._nodes)
        bit = self._bit
        heads, tails = [0] * n, [0] * n
        for k, v in enumerate(self._nodes):
            for o, mh, mo, _e in self._flows[v]:
                (heads if mh == HEAD else tails)[k] |= bit[o] << (n if mo == HEAD else 0)
        return heads, tails, [head | tail for head, tail in zip(heads, tails)]

    @cached_property
    def _ancestor_masks(self) -> list:
        """Per node k, the mask of its ancestors."""
        bit, parents = self._bit, self._parents
        return [sum(bit[u] for u in reach(parents, (v,))) for v in self._nodes]

    # --- basic accessors -------------------------------------------------

    @property
    def nodes(self) -> tuple:
        return self._nodes

    @property
    def node_set(self) -> frozenset:
        return self._node_set

    @property
    def edges(self) -> frozenset:
        return self._edges

    def sorted_edges(self) -> list:
        return list(self._sorted_edges)

    def __contains__(self, node):
        return node in self._node_set

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self._node_set == other._node_set and self._edges == other._edges

    def __hash__(self):
        return hash((self._node_set, self._edges))

    def __repr__(self):
        edges = ", ".join(e.render() for e in self._sorted_edges)
        return f"MixedGraph(nodes={list(self._nodes)}, edges=[{edges}])"

    def _check_node(self, node):
        if node not in self._node_set:
            raise UnknownNode(f"node {node!r} not in graph")

    def _check_nodes(self, nodes):
        for n in nodes:
            self._check_node(n)

    # --- structural queries ----------------------------------------------

    def parents(self, node) -> frozenset:
        self._check_node(node)
        return frozenset(self._parents[node])

    def children(self, node) -> frozenset:
        self._check_node(node)
        return self._children[node]

    def spouses(self, node) -> frozenset:
        self._check_node(node)
        return frozenset(o for o, mh, mo, _e in self._flows[node] if mh == mo == HEAD)

    def neighbours(self, node) -> frozenset:
        self._check_node(node)
        return frozenset(o for o, mh, mo, _e in self._flows[node] if mh == mo == TAIL)

    def adjacent(self, i, j) -> bool:
        self._check_node(i)
        self._check_node(j)
        return any(o == j for o, _mh, _mo, _e in self._flows[i])

    def edges_between(self, i, j) -> list:
        self._check_node(i)
        self._check_node(j)
        return [e for o, _mh, _mo, e in self._flows[i] if o == j]

    def flows(self, node) -> tuple:
        return self._flows[node]

    def ancestors(self, targets) -> frozenset:
        """Nodes with a direction-preserving arrow path of length >= 1 into
        some target. Lines and arcs never transmit ancestry; the result meets
        the targets only through directed cycles."""
        targets = set(targets)
        self._check_nodes(targets)
        return frozenset(reach(self._parents, targets))

    def descendants(self, targets) -> frozenset:
        targets = set(targets)
        self._check_nodes(targets)
        return frozenset(reach(self._children, targets))

    @cached_property
    def cycle_nodes(self) -> frozenset:
        """Nodes lying on some direction-preserving cycle (`_cyclic`)."""
        return _cyclic(self._parents)

    def induced_subgraph(self, keep) -> "MixedGraph":
        keep = set(keep)
        self._check_nodes(keep)
        return MixedGraph._trusted(
            keep, [e for e in self._edges if e.a in keep and e.b in keep]
        )

    # --- class structure ---------------------------------------------------

    @cached_property
    def ribbons(self) -> tuple:
        return tuple(_ribbon_reports(self))

    @cached_property
    def is_ribbonless(self) -> bool:
        return not self.ribbons

    @cached_property
    def class_tags(self) -> frozenset:
        return _classify(self)


def _ribbon_reports(g: MixedGraph):
    # the inner nodes with a witness: they or a descendant touch a line or
    # lie on a direction-preserving cycle
    touching = g._line_ends | g.cycle_nodes
    if not touching:
        return []
    candidates = touching | g.ancestors(touching)
    reports = []
    for t in sorted(candidates):
        # each collider V at t once, from its head exits in `_flows` order:
        # arcs before arrows and, within one kind, the smaller other end
        # first, so only an arc/arrow V is swapped to list the arrow's end first
        heads = [(o, mo) for o, mt, mo, _e in g._flows[t] if mt == HEAD]
        for (h, mh), (j, mj) in itertools.combinations(heads, 2):
            if mh != mj:
                h, mh, j, mj = j, mj, h, mh
            if h != j and signature_edge(mh, mj, h, j) not in g.edges:
                reports.append(RibbonReport(h, t, j, *_ribbon_witness(g, t)))
    return reports


def _ribbon_witness(g: MixedGraph, inner):
    reach = sorted({inner} | g.descendants({inner}))
    for d in reach:
        if d in g._line_ends:
            return ("line", d)
    return next(("cycle", d) for d in reach if d in g.cycle_nodes)


def _classify(g: MixedGraph) -> frozenset:
    tags = {"LMG"}
    kinds = {e.kind for e in g.edges}
    acyclic = not g.cycle_nodes
    if kinds <= {LINE}:
        tags.add("UG")
    if kinds <= {ARC}:
        tags.add("BG")
    if kinds <= {ARROW} and acyclic:
        tags.add("DAG")
    # per arc endpoint, its spouses, read off the edges without building `_flows`
    spouses = {}
    for kind, a, b in g.edges:
        if kind == ARC:
            spouses.setdefault(a, []).append(b)
            spouses.setdefault(b, []).append(a)
    if acyclic and not any(g._parents[n] or n in spouses for n in g._line_ends):
        # An SG is an RG, with no ribbon search. A ribbon needs a collider V
        # whose inner node, or a descendant of it, touches a line or lies on
        # a cycle. The inner node has a head, so none of its descendants
        # (each with a parent) touches a line, and the graph is acyclic.
        tags.update(("SG", "RG"))
        # Acyclic, so no node is an ancestor of its own parents: an AG needs
        # only that none is an ancestor of a spouse. Simplicity needs no test
        # of its own. A line has no head at either end here, so it is the
        # only edge between its ends, and acyclicity leaves one arrow per
        # pair. The only possible parallel pair is a <-> b with a -> b, where
        # a is an ancestor of its spouse b, which the ancestral test rejects.
        if not any(n in reach(g._parents, s) for n, s in spouses.items()):
            tags.add("AG")
    elif g.is_ribbonless:
        tags.add("RG")
    return frozenset(tags)


def classify(g: MixedGraph) -> frozenset:
    """Class tags of g among {LMG, UG, BG, DAG, RG, SG, AG}."""
    return g.class_tags
