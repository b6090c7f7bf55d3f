"""Latent projection: the RG/SG/AG generating functions.

All three share a first stage that generates, for every V-configuration
whose inner node is marginalised (non-collider case) or lies in C ∪ an(C)
(collider case), the endpoint-identical edge between the V's endpoints,
repeating until stable, and then removes the nodes in M ∪ C. The
summary-graph stage strips arrowheads pointing into the surviving part of
an(C), taken in the closed graph; the ancestral stage resolves arcs whose
endpoint is an ancestor of the other end. No edge the ancestral stage adds
changes who is an ancestor of whom, so it reads ancestry once, from its
input: its collider step runs to a fixpoint, and one pass over the arcs
then turns each arc between an ancestor and its descendant into an arrow.

On ribbonless inputs the first stage runs by Lemma 1: the closure joins two
survivors by an edge with end marks (m_i, m_j) exactly when some
m-connecting walk between them has those end marks and is a single edge or
passes a third node. So one `msep._walk` search per survivor and first
mark yields the surviving edges, the survivors in an(C) and, for the trace,
the Table-1 step behind each generated edge. `table1_closure`, the fixpoint
itself, is the route for forced inputs that are not ribbonless, where walks
and the closure can differ, and for the rare ribbonless input whose search
cannot show a third node for some edge. It is also the tests' oracle.
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
    collider_vs,
    edge_sort_key,
    line,
    signature_edge,
)
from .msep import _walk


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


def table1_closure(h: MixedGraph, spec: ProjectionSpec):
    """Least fixpoint of the ten V-rules; nodes are not removed yet.

    Returns (closed graph, trace). Scan order is (rule id, inner node,
    endpoints); the fixpoint itself is order-independent because adding an
    edge never destroys a V. Each round rescans every V of the graph the
    previous round built, so projections use it only for inputs that are not
    ribbonless; on the others it is the oracle for the signature route.
    """
    spec.validate_for(h)
    current, trace = h, []
    while True:
        enabler = spec.cond | current.ancestors(spec.cond)
        candidates = []
        for t in current.nodes:
            t_marg = t in spec.marg
            t_enab = t in enabler
            if not (t_marg or t_enab):
                continue
            for (i, at_t1, at_i, _e1), (j, at_t2, at_j, _e2) in itertools.combinations(
                current.flows(t), 2
            ):
                if i == j:
                    continue
                roles = sorted((_ROLE[at_t1, at_i], _ROLE[at_t2, at_j]))
                rule = _RULE_ID[tuple(roles)]
                if not (t_enab if rule >= 8 else t_marg):
                    continue
                gen = signature_edge(at_i, at_j, i, j)
                if gen not in current.edges:
                    candidates.append((rule, t, min(i, j), max(i, j), gen))
        if not candidates:
            return current, trace
        edges = set(current.edges)
        for rule, t, _lo, _hi, gen in sorted(candidates):
            if gen not in edges:
                edges.add(gen)
                trace.append(TraceStep(f"{rule}", t, gen))
        current = MixedGraph._trusted(current.nodes, edges)


def _gate(h, tag, exc, what, force):
    if tag not in h.class_tags:
        if not force:
            raise exc(f"input graph is not {what}")
        warnings.warn(f"projecting a graph that is not {what}", stacklevel=3)


def _witness_step(h: MixedGraph, marg, gen, i, first, pred):
    """The trace step for an edge generated between i and j, from the search
    out of i with first mark `first` that stepped to j from the state `pred`
    (t, arrived with a head): the V <i, t, j> closing the witness walk, whose
    first edge carries the signature of the walk's prefix to t and whose
    second edge is in h. None when t is i.

    A walk reduces to one closure edge exactly when it is a single edge or
    passes a node other than its ends, since Table 1 never joins a node to
    itself. The walk to j passes t. The prefix to t is the search's first
    route there, so it is a single edge or passes a third node: a route that
    bounces from t through i back to t reaches no state that t's first
    visit did not."""
    t, t_head = pred
    if t == i:
        return None
    j = gen.other(i)
    # by the walk's step rule a node of M leaves through either mark, and
    # any other node as a collider, through a head; a tail at t comes first
    # because it is legal whenever t is in M
    last = min(
        (
            mt
            for o, mt, mo, _e in h.flows(t)
            if o == j and mo == gen.mark_at(j) and (mt == HEAD or t in marg)
        ),
        key=lambda mt: mt == HEAD,
    )
    prefix = _ROLE[HEAD if t_head else TAIL, first]
    roles = tuple(sorted((prefix, _ROLE[last, gen.mark_at(j)])))
    return TraceStep(f"{_RULE_ID[roles]}", t, gen)


def _signature_projection(h: MixedGraph, spec: ProjectionSpec, survivors):
    """Stage one on a ribbonless h by Lemma 1, or None when the searches
    leave some generated edge without a witness V.

    One walk search per survivor and first mark gives every survivor edge
    and every arrow from a survivor into C; the survivors in an(C) of the
    closed graph are those that such arrows lead into C. A walk that only
    bounces along parallel edges between its ends (i -> j <-> i <- j)
    carries a signature the closure cannot generate, and such an edge has
    no witness V."""
    collider_set = spec.cond | h.ancestors(spec.cond)
    edges, into_cond, steps = set(), set(), {}
    for i in sorted(survivors):
        for first in (TAIL, HEAD):
            reached = _walk(h, i, collider_set, spec.marg, first)
            for (j, head), pred in reached.items():
                if j in survivors and j != i:
                    gen = signature_edge(first, HEAD if head else TAIL, i, j)
                    edges.add(gen)
                    if pred is not None and gen not in steps:
                        witness = _witness_step(h, spec.marg, gen, i, first, pred)
                        if witness is not None:
                            steps[gen] = witness
                elif head and first == TAIL and j in spec.cond:
                    into_cond.add(i)
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
    return project_rg_traced(h, spec, force)[0]


def rg_to_sg_traced(h: MixedGraph, anc_c):
    anc_c = frozenset(anc_c)
    missing = anc_c - h.node_set
    if missing:
        raise UnknownNode(f"anc_c names unknown nodes: {sorted(missing)}")
    edges = set(h.edges)
    trace = []
    changed = True
    while changed:
        changed = False
        for e in sorted(edges, key=edge_sort_key):
            if e.kind == ARROW and e.b in anc_c:
                replacement = line(e.a, e.b)
            elif e.kind == ARC and (e.a in anc_c or e.b in anc_c):
                source = e.a if e.a in anc_c else e.b
                replacement = arrow(source, e.other(source))
            else:
                continue
            edges.discard(e)
            generated = None
            if replacement not in edges:
                edges.add(replacement)
                generated = replacement
            trace.append(TraceStep("sg-step-2", None, generated, removed=e))
            changed = True
    return MixedGraph._trusted(h.nodes, edges), trace


def rg_to_sg(h: MixedGraph, anc_c) -> MixedGraph:
    """Strip arrowheads pointing into anc_c to fixpoint: an arrow into anc_c
    becomes a line, an arc loses the head at its anc_c endpoint."""
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
    return project_sg_traced(h, spec, force)[0]


def sg_to_ag_traced(h: MixedGraph, force: bool = False):
    """The ancestral closure of h with its trace.

    Neither step changes who is an ancestor of whom, so ancestry is read
    once, from h. Step 2 adds an arc, or an arrow o1 -> o2 at a V
    o1 -> k <-> o2 with k in an(o2), where o1 is already an ancestor of o2;
    step 3 adds a -> b only for a in an(b). Every V that step 2 fires on
    holds an arc k <-> o with k in an(o), which step 3 converts, and step 3
    makes no arc. So step 2 runs to its fixpoint, and then one pass of
    step 3 over the arcs in edge order leaves nothing for either step."""
    _gate(h, "SG", NotSummaryGraph, "a summary graph", force)
    anc = {}

    def is_ancestor(k, n):
        if n not in anc:
            anc[n] = h.ancestors((n,))
        return k in anc[n]

    current, trace = h, []
    # step 2: collider Vs with an arc towards the endpoint the inner node
    # leads to; `collider_vs` lists the arrow end first for a mixed V
    while True:
        candidates = []
        for o1, e1, k, e2, o2 in collider_vs(current):
            if e2.kind != ARC:
                continue
            if e1.kind == ARC:
                if not (is_ancestor(k, o1) or is_ancestor(k, o2)):
                    continue
                gen = arc(o1, o2)
            elif is_ancestor(k, o2):
                gen = arrow(o1, o2)
            else:
                continue
            if gen not in current.edges:
                candidates.append((k, min(o1, o2), max(o1, o2), gen))
        if not candidates:
            break
        edges = set(current.edges)
        for k, _lo, _hi, gen in sorted(candidates):
            if gen not in edges:
                edges.add(gen)
                trace.append(TraceStep("ag-step-2", k, gen))
        current = MixedGraph._trusted(h.nodes, edges)
    # step 3: arcs with one endpoint an ancestor of the other become arrows
    edges = set(current.edges)
    for e in current.sorted_edges():
        if e.kind != ARC:
            continue
        if is_ancestor(e.a, e.b):
            repl = arrow(e.a, e.b)
        elif is_ancestor(e.b, e.a):
            repl = arrow(e.b, e.a)
        else:
            continue
        edges.discard(e)
        generated = None
        if repl not in edges:
            edges.add(repl)
            generated = repl
        trace.append(TraceStep("ag-step-3", None, generated, removed=e))
    result = MixedGraph._trusted(h.nodes, edges)
    if "AG" not in result.class_tags:
        raise NotAncestralGraph(
            f"the ancestral closure of {h!r} is not an ancestral graph"
        )
    return result, trace


def sg_to_ag(h: MixedGraph, force: bool = False) -> MixedGraph:
    """Turn a summary graph into the ancestral graph inducing the same
    independence model."""
    return sg_to_ag_traced(h, force)[0]


def project_ag_traced(h: MixedGraph, spec: ProjectionSpec, force: bool = False):
    _gate(h, "AG", NotAncestralGraph, "an ancestral graph", force)
    sgraph, trace = _project_sg_pipeline(h, spec)
    result, ag_trace = sg_to_ag_traced(sgraph, force=True)
    return result, trace + ag_trace


def project_ag(h: MixedGraph, spec: ProjectionSpec, force: bool = False) -> MixedGraph:
    """Generate the ancestral graph for h after marginalisation/conditioning
    (the summary-graph stage followed by the ancestral closure)."""
    return project_ag_traced(h, spec, force)[0]


PROJECTORS = {"rg": project_rg, "sg": project_sg, "ag": project_ag}
PROJECTORS_TRACED = {
    "rg": project_rg_traced,
    "sg": project_sg_traced,
    "ag": project_ag_traced,
}
