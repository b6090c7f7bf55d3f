"""Latent projection: the RG/SG/AG generating functions.

All three share a first stage that generates, for every V-configuration
whose inner node is marginalised (non-collider case) or lies in C ∪ an(C)
(collider case), the endpoint-identical edge between the V's endpoints,
repeating until stable, and then removes the nodes in M ∪ C. The
summary-graph stage strips arrowheads pointing into the surviving part of
an(C), taken in the closed graph, each round reading only the edges the round
before generated; the ancestral stage resolves arcs whose endpoint is an
ancestor of the other end. The class gates sit at the entry points
(`project_rg`, `project_sg`, `project_ag`, their `_traced` forms, and
`sg_to_ag`), each of which gates and then calls the ungated stages;
`rg_to_sg_traced` and `sg_to_ag_traced` do not check their input's class.
No edge the ancestral stage adds changes who is an ancestor of whom, so it
reads ancestry once, from its input: its collider step, which fires only on
Vs whose second edge is an arc, pairs each arc at an inner node with the
other heads there and runs to a fixpoint, and one pass over the arcs then
turns each arc between an ancestor and its descendant into an arrow.

The two V-closures, Table 1 and the ancestral collider step, share one
round loop (`_rounds`), and the two strip stages, the summary-graph strip
and the ancestral arc step, share one replace step (`_replace`).

On ribbonless inputs the first stage runs by Lemma 1: the closure joins two
survivors by an edge with end marks (m_i, m_j) exactly when some
m-connecting walk between them has those end marks and is a single edge or
passes a third node. So the survivors' edges in the input, and one
predecessor walk search per survivor and first mark, seeded only with the
first states the walk can leave, yield the surviving edges, the survivors
in an(C) and, for the trace, the Table-1 step behind each generated edge.
`table1_closure`, the fixpoint itself, is the route for forced inputs that
are not ribbonless, where walks and the closure can differ, and for the
rare ribbonless input whose search cannot show a third node for some edge.
It is also the tests' oracle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .core import (
    ARC,
    ARROW,
    HEAD,
    TAIL,
    Edge,
    MixedGraph,
    MixedGraphError,
    UnknownNode,
    arc,
    arrow,
    edge_sort_key,
    line,
    signature_edge,
)


class SpecInvalid(MixedGraphError):
    pass


class NotRibbonless(MixedGraphError):
    pass


class NotSummaryGraph(MixedGraphError):
    pass


class NotAncestralGraph(MixedGraphError):
    pass


@dataclass(frozen=True)
class ProjectionSpec:
    """Disjoint marginalised (M) and conditioned (C) node subsets."""

    marg: frozenset = frozenset()
    cond: frozenset = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "marg", frozenset(self.marg))
        object.__setattr__(self, "cond", frozenset(self.cond))
        if self.marg & self.cond:
            raise SpecInvalid("marginalised and conditioned sets overlap")

    def validate_for(self, g: MixedGraph):
        missing = (self.marg | self.cond) - g.node_set
        if missing:
            raise SpecInvalid(f"spec names nodes outside the graph: {sorted(missing)}")

    @property
    def removed(self):
        return self.marg | self.cond


@dataclass(frozen=True)
class TraceStep:
    """One closure event; `removed` is set for replacement steps."""

    rule: str
    inner: str | None
    generated: Edge | None
    removed: Edge | None = None

    def render(self):
        gen = self.generated.render() if self.generated else "-"
        text = f"rule={self.rule} inner={self.inner or '-'} generated={gen}"
        if self.removed is not None:
            text += f" removed={self.removed.render()}"
        return text


def render_trace(trace) -> str:
    return "".join(step.render() + "\n" for step in trace)


# Table-1 row ids keyed by the two edge roles at the inner node (OUT: arrow
# leaving, IN: arrow entering, LINE, ARC). Rows 1-7 are the non-collider
# shapes, 8-10 the collider shapes.
_RULE_ID = {
    ("IN", "OUT"): 1,
    ("LINE", "OUT"): 2,
    ("ARC", "LINE"): 3,
    ("OUT", "OUT"): 4,
    ("ARC", "OUT"): 5,
    ("IN", "LINE"): 6,
    ("LINE", "LINE"): 7,
    ("ARC", "IN"): 8,
    ("ARC", "ARC"): 9,
    ("IN", "IN"): 10,
}

# the role of an edge at a node, keyed by its marks (here, there)
_ROLE = {
    (TAIL, TAIL): "LINE",
    (HEAD, HEAD): "ARC",
    (HEAD, TAIL): "IN",
    (TAIL, HEAD): "OUT",
}


def _rounds(current: MixedGraph, candidates):
    """Apply V-rules round by round until a round adds no edge; returns
    (graph, trace). `candidates(graph)` yields (rule, inner node, lower end,
    upper end, edge) tuples; a round sorts those whose edge is not in the
    graph yet and adds the first candidate for each new edge, with its step."""
    trace = []
    while True:
        edges = current.edges
        fresh = sorted(c for c in candidates(current) if c[4] not in edges)
        if not fresh:
            return current, trace
        edges = set(edges)
        for rule, t, _lo, _hi, gen in fresh:
            if gen not in edges:
                edges.add(gen)
                trace.append(TraceStep(str(rule), t, gen))
        current = MixedGraph._trusted(current.nodes, edges)


def _replace(edges: set, trace: list, rule: str, old: Edge, new: Edge):
    """Swap old for new in edges and trace the removal; returns new, or None
    when new was there already."""
    edges.discard(old)
    generated = None if new in edges else new
    edges.add(new)
    trace.append(TraceStep(rule, None, generated, removed=old))
    return generated


def table1_closure(h: MixedGraph, spec: ProjectionSpec):
    """Least fixpoint of the ten V-rules; nodes are not removed yet.

    Returns (closed graph, trace). Scan order is (rule id, inner node,
    endpoints); the fixpoint itself is order-independent because adding an
    edge never destroys a V. Each round rescans every V of the graph the
    previous round built, so projections use it only for inputs that are not
    ribbonless; on the others it is the oracle for the signature route.
    """
    spec.validate_for(h)
    marg, cond = spec.marg, spec.cond

    def candidates(current):
        enabler = cond | current.ancestors(cond)
        for t, flows in current._flows.items():
            t_marg, t_enab = t in marg, t in enabler
            if not (t_marg or t_enab):
                continue
            for (i, m1, at_i, _), (j, m2, at_j, _) in itertools.combinations(flows, 2):
                rule = _RULE_ID[tuple(sorted((_ROLE[m1, at_i], _ROLE[m2, at_j])))]
                if i != j and (t_enab if rule >= 8 else t_marg):
                    yield rule, t, *sorted((i, j)), signature_edge(at_i, at_j, i, j)

    return _rounds(h, candidates)


def _gate(h, tag, exc, what, force):
    """Raise exc when h lacks the class tag; forced, warn at the line that
    called the entry point, which calls this directly."""
    if tag not in h.class_tags:
        if not force:
            raise exc(f"input graph is not {what}")
        warnings.warn(f"projecting a graph that is not {what}", stacklevel=3)


def _signature_projection(h: MixedGraph, spec: ProjectionSpec, survivors):
    """Stage one on a ribbonless h by Lemma 1, or None when the searches
    leave some generated edge without a witness V.

    One walk search per survivor i and first mark gives every survivor edge
    and every arrow from a survivor into C; the survivors in an(C) of the
    closed graph are those that such arrows lead into C. A state is a node
    and the mark the walk entered it with; leaving an inner node t is legal
    through a collider when t is in C ∪ an(C), and otherwise when t is in M.
    A walk that only bounces along parallel edges between its ends
    (i -> j <-> i <- j) carries a signature the closure cannot generate, and
    such an edge has no witness V.

    Every single edge is a connecting walk, so `edges` starts from h's edges
    between survivors, and the search is seeded only with the first states
    the walk can leave. Dropping the others changes nothing: such a seed
    carries the signature of an h edge, so a predecessor recorded for it
    later reaches only an h edge's step, never a generated edge's; and a
    state the walk cannot leave is popped without pushing anything, so the
    depth-first order among the states it can leave is unchanged. The edges
    and steps are read from the states a step reaches; every popped state is
    tested for an arrow into C, since every seed and every reached state is
    pushed once and popped once, and no node of C survives.

    The trace step for an edge generated between i and j is the V <i, t, j>
    closing the search's first walk to j, where t is the state that walk
    stepped from: its first edge carries the signature of the walk's prefix
    to t and its second edge is in h. A walk reduces to one closure edge
    exactly when it is a single edge or passes a node other than its ends,
    since Table 1 never joins a node to itself. The walk to j passes t, so
    it shows a V unless t is i. The prefix to t is the search's first route
    there, so it is a single edge or passes a third node: a route that
    bounces from t through i back to t reaches no state that t's first
    visit did not."""
    marg, cond = spec.marg, spec.cond
    collider_set = cond | h.ancestors(cond)
    flows = h._flows
    edges = {e for e in h.edges if e.a in survivors and e.b in survivors}
    # h's own edges need no step
    into_cond, steps = set(), dict.fromkeys(edges)
    for i in sorted(survivors):
        for first in (TAIL, HEAD):
            stack = [
                (o, mo)
                for o, mh, mo, _e in flows[i]
                if mh == first and (o in marg or mo == HEAD and o in collider_set)
            ]
            reached = set(stack)
            while stack:
                t, t_mark = stack.pop()
                if first == TAIL and t_mark == HEAD and t in cond:
                    into_cond.add(i)
                tail_ok = t in marg
                head_ok = t in collider_set if t_mark == HEAD else tail_ok
                if not (head_ok or tail_ok):
                    continue
                for j, mh, at_j, _e in flows[t]:
                    if not (head_ok if mh == HEAD else tail_ok):
                        continue
                    state = (j, at_j)
                    if state in reached:
                        continue
                    reached.add(state)
                    stack.append(state)
                    if j == i or j not in survivors:
                        continue
                    gen = signature_edge(first, at_j, i, j)
                    edges.add(gen)
                    if t == i or gen in steps:
                        continue
                    # by the walk's step rule a node of M leaves through either
                    # mark, and any other node as a collider, through a head;
                    # a tail exit into j wins, being legal whenever t is in M
                    exits = (f[:3] for f in flows[t])
                    last = TAIL if tail_ok and (j, TAIL, at_j) in exits else HEAD
                    roles = tuple(sorted((_ROLE[t_mark, first], _ROLE[last, at_j])))
                    steps[gen] = TraceStep(f"{_RULE_ID[roles]}", t, gen)
    generated = sorted(edges - h.edges, key=edge_sort_key)
    if any(e not in steps for e in generated):
        return None
    projected = MixedGraph._trusted(survivors, edges)
    anc_c = into_cond | projected.ancestors(into_cond)
    return projected, anc_c, [steps[e] for e in generated]


def _generate(h: MixedGraph, spec: ProjectionSpec):
    """Stage one of every projection: (the generated graph on the survivors,
    the survivors in an(C) of the closed graph, trace). Ribbonless inputs go
    through the Lemma-1 signatures. Forced other inputs, where walks and the
    closure can differ, and the rare ribbonless input with an edge that no
    witness V shows, go through the closure itself."""
    spec.validate_for(h)
    survivors = h.node_set - spec.removed
    if h.is_ribbonless:
        result = _signature_projection(h, spec, survivors)
        if result is not None:
            return result
    closed, trace = table1_closure(h, spec)
    anc_c = closed.ancestors(spec.cond) & survivors
    return closed.induced_subgraph(survivors), anc_c, trace


def project_rg_traced(h: MixedGraph, spec: ProjectionSpec, force: bool = False):
    _gate(h, "RG", NotRibbonless, "ribbonless", force)
    projected, _anc_c, trace = _generate(h, spec)
    return projected, trace


def project_rg(h: MixedGraph, spec: ProjectionSpec, force: bool = False) -> MixedGraph:
    """Generate the ribbonless graph representing h after marginalisation
    over spec.marg and conditioning on spec.cond."""
    _gate(h, "RG", NotRibbonless, "ribbonless", force)
    return _generate(h, spec)[0]


def rg_to_sg_traced(h: MixedGraph, anc_c):
    anc_c = frozenset(anc_c)
    missing = anc_c - h.node_set
    if missing:
        raise UnknownNode(f"anc_c names unknown nodes: {sorted(missing)}")
    edges, trace = set(h.edges), []
    fresh = sorted(edges, key=edge_sort_key)
    while fresh:
        new = []
        for e in fresh:
            if e.kind == ARROW and e.b in anc_c:
                replacement = line(e.a, e.b)
            elif e.kind == ARC and (e.a in anc_c or e.b in anc_c):
                source = e.a if e.a in anc_c else e.b
                replacement = arrow(source, e.other(source))
            else:
                continue
            new.append(_replace(edges, trace, "sg-step-2", e, replacement))
        fresh = sorted(filter(None, new), key=edge_sort_key)
    return MixedGraph._trusted(h.nodes, edges), trace


def rg_to_sg(h: MixedGraph, anc_c) -> MixedGraph:
    """Strip arrowheads pointing into anc_c to fixpoint: an arrow into anc_c
    becomes a line, an arc loses the head at its anc_c endpoint. A round
    strips every edge it reads that needs it, so only the edges it generates
    can need stripping in the next: the first round reads every edge, each
    later one only the previous round's replacements, in edge order."""
    return rg_to_sg_traced(h, anc_c)[0]


def _project_sg_pipeline(h: MixedGraph, spec: ProjectionSpec):
    restricted, anc_c, trace = _generate(h, spec)
    result, sg_trace = rg_to_sg_traced(restricted, anc_c)
    return result, trace + sg_trace


def project_sg_traced(h: MixedGraph, spec: ProjectionSpec, force: bool = False):
    _gate(h, "SG", NotSummaryGraph, "a summary graph", force)
    return _project_sg_pipeline(h, spec)


def project_sg(h: MixedGraph, spec: ProjectionSpec, force: bool = False) -> MixedGraph:
    """Generate the summary graph for h after marginalisation/conditioning:
    the V-rule closure, node removal, then arrowhead stripping on the
    surviving part of an(C) (an(C) taken in the post-closure graph)."""
    _gate(h, "SG", NotSummaryGraph, "a summary graph", force)
    return _project_sg_pipeline(h, spec)[0]


def sg_to_ag_traced(h: MixedGraph):
    """The ancestral closure of h with its trace; h is not checked to be a
    summary graph, but a result that is not ancestral raises.

    Neither step changes who is an ancestor of whom, so ancestry is read
    once, from h. Step 2 adds an arc, or an arrow o1 -> o2 at a V
    o1 -> k <-> o2 with k in an(o2), where o1 is already an ancestor of o2;
    step 3 adds a -> b only for a in an(b). Every V that step 2 fires on
    holds an arc k <-> o with k in an(o), which step 3 converts, and step 3
    makes no arc. So step 2 runs to its fixpoint, and then one pass of
    step 3 over the arcs in edge order leaves nothing for either step."""
    anc = {}

    def is_ancestor(k, n):
        if n not in anc:
            anc[n] = h.ancestors((n,))
        return k in anc[n]

    # step 2: collider Vs o1 *-> k <-> o2 whose second edge is an arc towards
    # the endpoint the inner node leads to, read per arc at k against every
    # other head edge at k; an arc-arc V is taken once, smaller end first
    def candidates(current):
        for k, flows in current._flows.items():
            heads = [(o, mo) for o, mh, mo, _e in flows if mh == HEAD]
            for o2, m2 in heads:
                if m2 != HEAD:
                    continue
                for o1, m1 in heads:
                    if m1 == HEAD:
                        if o1 >= o2 or not (is_ancestor(k, o1) or is_ancestor(k, o2)):
                            continue
                        gen = arc(o1, o2)
                    elif o1 != o2 and is_ancestor(k, o2):
                        gen = arrow(o1, o2)
                    else:
                        continue
                    yield "ag-step-2", k, min(o1, o2), max(o1, o2), gen

    current, trace = _rounds(h, candidates)
    # step 3: arcs with one endpoint an ancestor of the other become arrows
    edges = set(current.edges)
    for e in current._sorted_edges:
        if e.kind != ARC:
            continue
        if is_ancestor(e.a, e.b):
            _replace(edges, trace, "ag-step-3", e, arrow(e.a, e.b))
        elif is_ancestor(e.b, e.a):
            _replace(edges, trace, "ag-step-3", e, arrow(e.b, e.a))
    result = MixedGraph._trusted(h.nodes, edges)
    if "AG" not in result.class_tags:
        raise NotAncestralGraph(
            f"the ancestral closure of {h!r} is not an ancestral graph"
        )
    return result, trace


def sg_to_ag(h: MixedGraph, force: bool = False) -> MixedGraph:
    """Turn a summary graph into the ancestral graph inducing the same
    independence model."""
    _gate(h, "SG", NotSummaryGraph, "a summary graph", force)
    return sg_to_ag_traced(h)[0]


def project_ag_traced(h: MixedGraph, spec: ProjectionSpec, force: bool = False):
    _gate(h, "AG", NotAncestralGraph, "an ancestral graph", force)
    sgraph, trace = _project_sg_pipeline(h, spec)
    result, ag_trace = sg_to_ag_traced(sgraph)
    return result, trace + ag_trace


def project_ag(h: MixedGraph, spec: ProjectionSpec, force: bool = False) -> MixedGraph:
    """Generate the ancestral graph for h after marginalisation/conditioning
    (the summary-graph stage followed by the ancestral closure)."""
    _gate(h, "AG", NotAncestralGraph, "an ancestral graph", force)
    return sg_to_ag_traced(_project_sg_pipeline(h, spec)[0])[0]


PROJECTORS = {"rg": project_rg, "sg": project_sg, "ag": project_ag}
PROJECTORS_TRACED = {
    "rg": project_rg_traced,
    "sg": project_sg_traced,
    "ag": project_ag_traced,
}
