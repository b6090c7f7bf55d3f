"""Constructive converses and maximality.

dagify() rebuilds, for any ribbonless graph H, a DAG plus marginalisation
and conditioning sets that project back onto H exactly: arcs become
source Vs through a fresh marginalised node, lines become collider Vs
through a fresh conditioned node, and each arrow on a direction-preserving
cycle, found from the strongly connected components, is cut in one sorted
pass over the arrows through a fresh conditioned/marginalised pair.

On ribbonless graphs, maximality is characterized by primitive inducing
paths (PIPs): paths between non-adjacent endpoints whose inner nodes are all
colliders and all ancestors of an endpoint. Only their end marks matter, and
the `msep` bitset walk gives those per pair, over the graph's walk tables.
maximalize() inserts the endpoint-identical edge of each such path in one
sweep. The literal definition, that every non-adjacent pair is separated by
some set, asks that each such pair's bit-sliced separation set
(`independence._separation_sets`, every conditioning set at once) be
non-empty. The sets come one source walk at a time, so the first pair that
no set separates stops the check; no model is built.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import (
    ARC,
    ARROW,
    HEAD,
    LINE,
    TAIL,
    MixedGraph,
    _components,
    arrow,
    edge_sort_key,
    line,
    signature_edge,
)
from .core import MixedGraphError
from .independence import (
    MODEL_NODE_LIMIT,
    TooLarge,
    _bits,
    _separation_sets,
    _side_pairs,
)
from .msep import _walk_reach
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


def _fresh(prefix, taken):
    """prefix1, prefix2, ... skipping the names in taken."""
    for k in itertools.count(1):
        if f"{prefix}{k}" not in taken:
            yield f"{prefix}{k}"


def unrealizable_pairs(h: MixedGraph) -> list:
    """Pairs carrying antiparallel arrows and an arc but no line; any such
    pair keeps the graph out of the image of the DAG projection. Only a pair
    with an arc can qualify, so the arcs are the candidates; they and the
    nodes both sort by label, so the pairs come out in node order."""
    edges = h.edges
    return sorted(
        (e.a, e.b)
        for e in edges
        if e.kind == ARC
        and arrow(e.a, e.b) in edges
        and arrow(e.b, e.a) in edges
        and line(e.a, e.b) not in edges
    )


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
    marg_names = _fresh("_m", h.node_set)
    cond_names = _fresh("_c", h.node_set)
    arrows = {(e.a, e.b) for e in h.edges if e.kind == ARROW}
    origin, marg, cond = {}, set(), set()

    def fresh(names, role, why):
        """Draw the next name of a role, add it to the role's set and record
        its origin."""
        n = next(names)
        role.add(n)
        origin[n] = why
        return n

    # The cuts read the components pass, not a search: an arrow lies on a
    # cycle exactly when its ends share a multi-node component. Cutting
    # t -> head adds only a sink c and a source m, so it puts no other arrow
    # on a cycle, and cutting the smallest arrow still on one, again and
    # again, cuts in increasing order: one sorted pass suffices. A cut splits
    # at most the component that held the arrow; only that one is redone.
    component = {v: c for c in h._components if len(c) > 1 for v in c}
    for t, head in sorted(arrows):
        held = component.get(t)
        if held is None or component.get(head) is not held:
            continue
        arrows.discard((t, head))
        inside = set(held)
        parents = {
            v: [u for u in h._parents[v] if u in inside and (u, v) in arrows]
            for v in held
        }
        component.update(dict.fromkeys(held))
        component.update((v, c) for c in _components(parents) if len(c) > 1 for v in c)
        why = ("cycle-arrow", arrow(t, head))
        c = fresh(cond_names, cond, why)
        m = fresh(marg_names, marg, why)
        arrows.update({(t, c), (m, c), (m, head)})
    for e in sorted((e for e in h.edges if e.kind == ARC), key=edge_sort_key):
        m = fresh(marg_names, marg, ("arc", e))
        arrows.update({(m, e.a), (m, e.b)})
    for e in sorted((e for e in h.edges if e.kind == LINE), key=edge_sort_key):
        c = fresh(cond_names, cond, ("line", e))
        arrows.update({(e.a, c), (e.b, c)})
    dag = MixedGraph._trusted(
        h.node_set | origin.keys(), [arrow(t, head) for t, head in arrows]
    )
    if dag.cycle_nodes:
        raise AssertionError("dagify produced a cyclic graph")
    return DagifyResult(dag, frozenset(marg), frozenset(cond), origin)


def _pip_edges(g: MixedGraph):
    """The endpoint-identical edge of every primitive inducing path, once
    per non-adjacent pair i < j and end-mark signature, so none is in g. A
    walk out of i, from its head or tail exits, whose inner nodes are all
    colliders in (an(i) | an(j)) - {i, j} contains such a path with its end
    marks: cutting each repeat of a node from its first arrival to its last
    departure keeps that node a collider and keeps both ends.

    The walk has no non-colliders, so it leaves only states entered with a
    head at a collider. When a first mark's start states hold none
    (`not start >> n & colliders`), the walk cannot leave them and reaches
    only `start`: neighbours of i, never the non-adjacent m. That first mark
    is skipped without a walk."""
    nodes = g.nodes
    n = len(nodes)
    heads, tails, _boths = exits = g._exits
    anc = list(g._ancestor_masks.values())
    for k, (i, above) in enumerate(zip(nodes, _unadjacent_above(g))):
        for m in _bits(above):
            colliders = (anc[k] | anc[m]) & ~(1 << k | 1 << m)
            for first, start in ((TAIL, tails[k]), (HEAD, heads[k])):
                if not start >> n & colliders:
                    continue
                reached = _walk_reach(exits, colliders, 0, start)
                for last, state in ((TAIL, 1 << m), (HEAD, 1 << m + n)):
                    if reached & state:
                        yield signature_edge(first, last, i, nodes[m])


def is_maximal(g: MixedGraph) -> bool:
    """Maximality via the primitive-inducing-path criterion: no non-adjacent
    pair is joined by a PIP. The criterion decides maximality only on
    ribbonless graphs; off them it can pass a graph with an inseparable pair.
    `is_maximal_literal` is exact on any graph."""
    return next(_pip_edges(g), None) is None


def is_maximal_literal(g: MixedGraph, limit: int = MODEL_NODE_LIMIT) -> bool:
    """Direct check: every non-adjacent pair admits some separating set.
    Raises `TooLarge` above `limit` nodes, as `independence_model` does."""
    n = len(g.nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    return _separates_every_pair(g)


def _unadjacent_above(g: MixedGraph) -> list:
    """Per node index k, the mask of the nodes j > k not adjacent to it: the
    pairs that maximality asks to be separated, each once."""
    n = len(g.nodes)
    full = (1 << n) - 1
    return [full & ~(s | s >> n | (2 << k) - 1) for k, s in enumerate(g._exits[2])]


def _separates_every_pair(g: MixedGraph) -> bool:
    """The literal maximality verdict: every non-adjacent pair has a
    non-empty separation set. `_separation_sets` yields the pairs one
    source walk at a time, so the first pair that no C separates ends the
    search."""
    return all(sets for _p, _q, sets in _separation_sets(g, 0, 0))


def _separates_every_pair_in(model, g: MixedGraph) -> bool:
    """The literal maximality verdict read off J_m(g), whose masks are over
    g's nodes: every non-adjacent pair i < j has a statement <{i}, {j} | C>,
    the side pair (bit i, bit j)."""
    separated = set(_side_pairs(model))
    return all(
        (1 << k, 1 << j) in separated
        for k, above in enumerate(_unadjacent_above(g))
        for j in _bits(above)
    )


def maximalize(g: MixedGraph) -> MixedGraph:
    """g plus the endpoint-identical edge of every primitive inducing path,
    in one sweep: g itself when there is none. The output keeps g's
    independence model and is maximal, but need not be ribbonless.

    One sweep suffices. Let g be ribbonless, P its PIP edges and g' = g ∪ P.
    (a) Adding P keeps the model: J(g') = J(g). (b) In a ribbonless graph, a
    non-adjacent pair is joined by no PIP exactly when some set separates
    it; this is the pair-by-pair form of the criterion `is_maximal` reads.
    Take x, y non-adjacent in g'. They are non-adjacent in g, and no PIP
    joins them there, or P would hold their edge. By (b), some C separates
    them in J(g) = J(g'). So g' is maximal, whether or not it is ribbonless.
    A second PIP search finds nothing on a ribbonless g'; on a g' with a
    ribbon, where (b) fails, any edge it found would join a separated pair
    and so change the model."""
    if not g.is_ribbonless:
        raise NotRibbonless("maximalize requires a ribbonless input")
    additions = set(_pip_edges(g))
    if not additions:
        return g
    return MixedGraph._trusted(g, g.edges | additions)
