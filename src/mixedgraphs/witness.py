"""Constructive converses and maximality.

dagify() rebuilds, for any ribbonless graph H, a DAG plus marginalisation
and conditioning sets that project back onto H exactly: arcs become
source Vs through a fresh marginalised node, lines become collider Vs
through a fresh conditioned node, and direction-preserving cycles are broken
one arrow at a time through a fresh conditioned/marginalised pair.

Maximality is characterized by primitive inducing paths: paths between
non-adjacent endpoints whose inner nodes are all colliders and all ancestors
of an endpoint. Only their end marks matter, and the `msep` walk kernel
gives those for each pair directly. maximalize() inserts the
endpoint-identical edge for each such path until none remain.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    ARC,
    ARROW,
    HEAD,
    LINE,
    TAIL,
    MixedGraph,
    arc,
    arrow,
    edge_sort_key,
    line,
    reach,
    signature_edge,
)
from .core import MixedGraphError
from .independence import TooLarge
from .msep import _walk, m_separated
from .project import NotRibbonless, ProjectionSpec


class NotDagRealizable(MixedGraphError):
    """The graph cannot arise as any DAG projection.

    A pair joined by both antiparallel arrows and an arc, but no line, is
    never produced by the V-rule closure of a DAG: realizing the two arrows
    forces both endpoints to be ancestors of the conditioning set (a DAG
    cannot carry directed paths both ways, so each arrow's generating
    connection must instead run through an enabled collider), and splicing
    the arrow connection into the reversed arc connection at those enabled
    endpoints then yields a tail-tail connection, i.e. the missing line.
    """


@dataclass(frozen=True)
class DagifyResult:
    """A DAG that projects back onto the input, with the fresh node roles."""

    dag: MixedGraph
    marg: frozenset
    cond: frozenset
    origin: dict

    def spec(self) -> ProjectionSpec:
        return ProjectionSpec(self.marg, self.cond)


class _FreshNames:
    def __init__(self, taken, prefix):
        self.taken = set(taken)
        self.prefix = prefix
        self.counter = 0

    def next(self):
        while True:
            self.counter += 1
            name = f"{self.prefix}{self.counter}"
            if name not in self.taken:
                self.taken.add(name)
                return name


def _smallest_cycle_arrow(arrows):
    """The canonically smallest arrow lying on a direction-preserving cycle,
    or None when the arrow subgraph is acyclic."""
    children = {}
    for t, h in arrows:
        children.setdefault(t, set()).add(h)
        children.setdefault(h, set())
    for t, h in sorted(arrows):
        if t in reach(children, (h,)):
            return (t, h)
    return None


def unrealizable_pairs(h: MixedGraph) -> list:
    """Pairs carrying antiparallel arrows and an arc but no line; any such
    pair keeps the graph out of the image of the DAG projection."""
    bad = []
    for pos, a in enumerate(h.nodes):
        for b in h.nodes[pos + 1 :]:
            kinds = {e for _o, _mh, _mo, e in h.flows(a) if _o == b}
            if (
                arrow(a, b) in kinds
                and arrow(b, a) in kinds
                and arc(a, b) in kinds
                and line(a, b) not in kinds
            ):
                bad.append((a, b))
    return bad


def dag_realizable(h: MixedGraph) -> bool:
    """Whether h can be produced by projecting some DAG."""
    return h.is_ribbonless and not unrealizable_pairs(h)


def dagify(h: MixedGraph) -> DagifyResult:
    """Build a DAG G and sets M, C with project_rg(G; M, C) equal to h."""
    if not h.is_ribbonless:
        raise NotRibbonless("dagify requires a ribbonless input")
    bad = unrealizable_pairs(h)
    if bad:
        raise NotDagRealizable(
            f"no DAG projects onto this graph: pair(s) {bad} carry antiparallel"
            " arrows and an arc without the parallel line"
        )
    marg_names = _FreshNames(h.node_set, "_m")
    cond_names = _FreshNames(h.node_set, "_c")
    arrows = {(e.a, e.b) for e in h.edges if e.kind == ARROW}
    origin = {}
    marg = set()
    cond = set()
    extra_nodes = []
    while True:
        pick = _smallest_cycle_arrow(arrows)
        if pick is None:
            break
        t, head = pick
        arrows.discard(pick)
        c = cond_names.next()
        m = marg_names.next()
        extra_nodes.extend((c, m))
        cond.add(c)
        marg.add(m)
        origin[c] = ("cycle-arrow", arrow(t, head))
        origin[m] = ("cycle-arrow", arrow(t, head))
        arrows.update({(t, c), (m, c), (m, head)})
    for e in sorted((e for e in h.edges if e.kind == ARC), key=edge_sort_key):
        m = marg_names.next()
        extra_nodes.append(m)
        marg.add(m)
        origin[m] = ("arc", e)
        arrows.update({(m, e.a), (m, e.b)})
    for e in sorted((e for e in h.edges if e.kind == LINE), key=edge_sort_key):
        c = cond_names.next()
        extra_nodes.append(c)
        cond.add(c)
        origin[c] = ("line", e)
        arrows.update({(e.a, c), (e.b, c)})
    dag = MixedGraph._trusted(
        list(h.nodes) + extra_nodes, [arrow(t, head) for t, head in arrows]
    )
    if dag.cycle_nodes:
        raise AssertionError("dagify produced a cyclic graph")
    return DagifyResult(dag, frozenset(marg), frozenset(cond), origin)


def _pip_edges(g: MixedGraph):
    """The endpoint-identical edge of every primitive inducing path, once
    per non-adjacent pair i < j and end-mark signature. A walk out of i whose
    inner nodes are all colliders in an({i, j}) - {i, j} contains such a path
    with its end marks: cutting each repeat of a node from its first arrival
    to its last departure keeps that node a collider and keeps both ends."""
    nodes = g.nodes
    for pos, i in enumerate(nodes):
        for j in nodes[pos + 1 :]:
            if g.adjacent(i, j):
                continue
            colliders = g.ancestors({i, j}) - {i, j}
            for first in (TAIL, HEAD):
                reached = _walk(g, i, colliders, frozenset(), first)
                for last in (TAIL, HEAD):
                    if (j, last == HEAD) in reached:
                        yield signature_edge(first, last, i, j)


def is_maximal(g: MixedGraph) -> bool:
    """Maximality via the primitive-inducing-path criterion."""
    return next(_pip_edges(g), None) is None


def is_maximal_literal(g: MixedGraph, limit: int = 8) -> bool:
    """Direct check: every non-adjacent pair admits some separating set."""
    if len(g.nodes) > limit:
        raise TooLarge(f"{len(g.nodes)} nodes exceeds enumeration limit {limit}")
    nodes = g.nodes
    for pos, i in enumerate(nodes):
        for j in nodes[pos + 1 :]:
            if g.adjacent(i, j):
                continue
            rest = sorted(g.node_set - {i, j})
            if not any(
                m_separated(g, {i}, {j}, set(sub))
                for sub in _subsets(rest)
            ):
                return False
    return True


def _subsets(items):
    n = len(items)
    for mask in range(1 << n):
        yield [items[k] for k in range(n) if (mask >> k) & 1]


def maximalize_report(g: MixedGraph):
    """maximalize() plus the number of sweeps it took to stabilize."""
    if not g.is_ribbonless:
        raise NotRibbonless("maximalize requires a ribbonless input")
    current = g
    sweeps = 0
    while True:
        additions = set(_pip_edges(current)) - current.edges
        if not additions:
            return current, sweeps
        sweeps += 1
        current = MixedGraph._trusted(current.nodes, current.edges | additions)


def maximalize(g: MixedGraph) -> MixedGraph:
    """Insert endpoint-identical edges for primitive inducing paths until
    none remain; the induced independence model is preserved."""
    return maximalize_report(g)[0]
