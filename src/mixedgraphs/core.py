"""Loopless mixed graphs with arrows, arcs, and lines.

The graph value is immutable: every operation returns a new graph, and all
derived structure (adjacency maps, ribbon reports, class tags) is cached on
the instance, so graphs are safe to share between threads.

`MixedGraph(nodes, edges)` checks every label and endpoint and canonicalises
every edge. Graphs the library builds from edges it made itself (closures,
projections, subgraphs) go through the private `MixedGraph._trusted`, which
skips those checks. Construction indexes the adjacency sets in one pass over
the edges; the per-node walk index `_flows` is built on first use, and
`cycle_nodes` comes from one strongly-connected-components pass.
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
    x, y = sorted((x, y))
    return Edge(LINE, x, y)


def arc(x, y) -> Edge:
    x, y = sorted((x, y))
    return Edge(ARC, x, y)


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
        # per node, the sets of adjacent nodes by edge kind; private and
        # never mutated, so the accessors hand out frozen copies
        self._parents = parents = {n: set() for n in self._nodes}
        self._children = children = {n: set() for n in self._nodes}
        self._spouses = spouses = {n: set() for n in self._nodes}
        self._neighbours = neighbours = {n: set() for n in self._nodes}
        for kind, a, b in self._edges:
            if kind == ARROW:
                parents[b].add(a)
                children[a].add(b)
            else:
                links = spouses if kind == ARC else neighbours
                links[a].add(b)
                links[b].add(a)

    @cached_property
    def _flows(self) -> dict:
        """Per node, (other endpoint, mark here, mark there, edge) in
        canonical edge order: the walk structure of the separation engine,
        built on first use. One sort of the edges orders every node's list."""
        flows = {n: [] for n in self._nodes}
        for e in sorted(self._edges, key=edge_sort_key):
            kind, a, b = e
            if kind == ARROW:
                flows[a].append((b, TAIL, HEAD, e))
                flows[b].append((a, HEAD, TAIL, e))
            else:
                mark = HEAD if kind == ARC else TAIL
                flows[a].append((b, mark, mark, e))
                flows[b].append((a, mark, mark, e))
        return {n: tuple(f) for n, f in flows.items()}

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
        return sorted(self._edges, key=edge_sort_key)

    def __contains__(self, node):
        return node in self._node_set

    def __eq__(self, other):
        if not isinstance(other, MixedGraph):
            return NotImplemented
        return self._node_set == other._node_set and self._edges == other._edges

    def __hash__(self):
        return hash((self._node_set, self._edges))

    def __repr__(self):
        edges = ", ".join(e.render() for e in self.sorted_edges())
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
        return frozenset(self._children[node])

    def spouses(self, node) -> frozenset:
        self._check_node(node)
        return frozenset(self._spouses[node])

    def neighbours(self, node) -> frozenset:
        self._check_node(node)
        return frozenset(self._neighbours[node])

    def adjacent(self, i, j) -> bool:
        self._check_node(i)
        self._check_node(j)
        return (
            j in self._parents[i]
            or j in self._children[i]
            or j in self._spouses[i]
            or j in self._neighbours[i]
        )

    def edges_between(self, i, j) -> list:
        self._check_node(i)
        self._check_node(j)
        return [e for e in self._flows[i] if e[0] == j]

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
        """Nodes lying on some direction-preserving cycle: those in strongly
        connected components of the arrows with more than one node, from one
        iterative pass of Tarjan's algorithm."""
        children = self._children
        # index and low-link per visited node; `at` holds the stack position
        # of every node still on the component stack. A node without
        # children is a component of its own and is never entered.
        index, low, at, stack, cyclic = {}, {}, {}, [], []
        for root in self._nodes:
            if root in index or not children[root]:
                continue
            index[root] = low[root] = len(index)
            at[root] = len(stack)
            stack.append(root)
            work = [(root, iter(children[root]))]
            while work:
                v, succ = work[-1]
                for w in succ:
                    if w not in index:
                        if not children[w]:
                            continue
                        index[w] = low[w] = len(index)
                        at[w] = len(stack)
                        stack.append(w)
                        work.append((w, iter(children[w])))
                        break
                    if w in at and index[w] < low[v]:
                        low[v] = index[w]
                else:
                    work.pop()
                    if work and low[v] < low[work[-1][0]]:
                        low[work[-1][0]] = low[v]
                    if low[v] == index[v]:
                        k = at[v]
                        if len(stack) - k > 1:
                            cyclic.extend(stack[k:])
                        for w in stack[k:]:
                            del at[w]
                        del stack[k:]
        return frozenset(cyclic)

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


def collider_vs(g: MixedGraph):
    """All collider V-configurations as (h, edge1, inner, edge2, j).

    Each unordered configuration is yielded once; for a mixed arrow/arc
    collider the arrow endpoint is listed first.
    """
    for t in g.nodes:
        head_edges = [e for (_o, mt, _mo, e) in g.flows(t) if mt == HEAD]
        for e1, e2 in itertools.combinations(head_edges, 2):
            o1, o2 = e1.other(t), e2.other(t)
            if o1 == o2:
                continue
            yield _orient_collider(e1, o1, t, e2, o2)


def _orient_collider(e1, h, t, e2, j):
    k1 = ARROW if e1.kind == ARROW else ARC
    k2 = ARROW if e2.kind == ARROW else ARC
    if (k1, k2) == (ARC, ARROW) or (k1 == k2 and h > j):
        return (j, e2, t, e1, h)
    return (h, e1, t, e2, j)


def _ribbon_reports(g: MixedGraph):
    # the inner nodes with a witness: they or a descendant touch a line or
    # lie on a direction-preserving cycle
    touching = {n for n in g.nodes if g._neighbours[n]} | g.cycle_nodes
    if not touching:
        return []
    candidates = touching | g.ancestors(touching)
    reports = []
    for h, e1, t, e2, j in collider_vs(g):
        if t in candidates and (
            signature_edge(e1.mark_at(h), e2.mark_at(j), h, j) not in g.edges
        ):
            kind, node = _ribbon_witness(g, t)
            reports.append(RibbonReport(h, t, j, kind, node))
    return reports


def _ribbon_witness(g: MixedGraph, inner):
    reach = sorted({inner} | g.descendants({inner}))
    for d in reach:
        if g._neighbours[d]:
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
    if g.is_ribbonless:
        tags.add("RG")
    parents, spouses, neighbours = g._parents, g._spouses, g._neighbours
    no_head_at_line = all(
        not (neighbours[n] and (parents[n] or spouses[n])) for n in g.nodes
    )
    if no_head_at_line and acyclic:
        tags.add("SG")
        # Acyclic, so no node is an ancestor of its own parents: an AG needs
        # only that none is an ancestor of a spouse. Simplicity needs no test
        # of its own. A line has no head at either end here, so it is the
        # only edge between its ends, and acyclicity leaves one arrow per
        # pair. The only possible parallel pair is a <-> b with a -> b, where
        # a is an ancestor of its spouse b, which the ancestral test rejects.
        if all(n not in g.ancestors(spouses[n]) for n in g.nodes if spouses[n]):
            tags.add("AG")
    return frozenset(tags)


def classify(g: MixedGraph) -> frozenset:
    """Class tags of g among {LMG, UG, BG, DAG, RG, SG, AG}."""
    return g.class_tags
