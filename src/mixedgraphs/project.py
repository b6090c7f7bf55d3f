"""Latent projection: the RG/SG/AG generating functions.

All three are fixpoint closures. The common first stage generates, for every
V-configuration whose inner node is marginalised (non-collider case) or lies
in C ∪ an(C) (collider case), the endpoint-identical edge between the V's
endpoints, repeating until stable; an(C) is recomputed as edges are added,
since generated arrows can create new ancestors of C. Nodes in M ∪ C are
then removed. The summary-graph stage strips arrowheads pointing into the
surviving part of an(C); the ancestral stage resolves arcs whose endpoint is
an ancestor of the other end.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass

from .core import (
    ARC,
    ARROW,
    HEAD,
    LINE,
    Edge,
    MixedGraph,
    MixedGraphError,
    UnknownNode,
    arc,
    arrow,
    edge_sort_key,
    line,
    reach,
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


def _edge_role(e: Edge, at):
    if e.kind == LINE:
        return "LINE"
    if e.kind == ARC:
        return "ARC"
    return "IN" if e.b == at else "OUT"


def _incidence(nodes, edges):
    inc = {n: [] for n in nodes}
    for e in edges:
        inc[e.a].append(e)
        inc[e.b].append(e)
    for lst in inc.values():
        lst.sort(key=edge_sort_key)
    return inc


def table1_closure(h: MixedGraph, spec: ProjectionSpec):
    """Least fixpoint of the ten V-rules; nodes are not removed yet.

    Returns (closed graph, trace). Scan order is (rule id, inner node,
    endpoints); the fixpoint itself is order-independent because adding an
    edge never destroys a V.
    """
    spec.validate_for(h)
    nodes = h.nodes
    edges = set(h.edges)
    parents = {n: set(h.parents(n)) for n in nodes}
    trace = []
    while True:
        enabler = spec.cond | reach(parents, spec.cond)
        candidates = []
        inc = _incidence(nodes, edges)
        for t in nodes:
            t_marg = t in spec.marg
            t_enab = t in enabler
            if not (t_marg or t_enab):
                continue
            for e1, e2 in itertools.combinations(inc[t], 2):
                i, j = e1.other(t), e2.other(t)
                if i == j:
                    continue
                roles = tuple(sorted((_edge_role(e1, t), _edge_role(e2, t))))
                rule = _RULE_ID[roles]
                if rule >= 8:
                    if not t_enab:
                        continue
                else:
                    if not t_marg:
                        continue
                gen = signature_edge(e1.mark_at(i), e2.mark_at(j), i, j)
                if gen not in edges:
                    lo, hi = min(i, j), max(i, j)
                    candidates.append((rule, t, lo, hi, gen))
        if not candidates:
            break
        for rule, t, _lo, _hi, gen in sorted(candidates):
            if gen in edges:
                continue
            edges.add(gen)
            if gen.kind == ARROW:
                parents[gen.b].add(gen.a)
            trace.append(TraceStep(f"{rule}", t, gen))
    return MixedGraph(nodes, edges), trace


def _gate(h, tag, exc, what, force):
    if tag not in h.class_tags:
        if not force:
            raise exc(f"input graph is not {what}")
        warnings.warn(f"projecting a graph that is not {what}", stacklevel=3)


def project_rg_traced(h: MixedGraph, spec: ProjectionSpec, force: bool = False):
    _gate(h, "RG", NotRibbonless, "ribbonless", force)
    closed, trace = table1_closure(h, spec)
    survivors = h.node_set - spec.removed
    return closed.induced_subgraph(survivors), trace


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
    return MixedGraph(h.nodes, edges), trace


def rg_to_sg(h: MixedGraph, anc_c) -> MixedGraph:
    """Strip arrowheads pointing into anc_c to fixpoint: an arrow into anc_c
    becomes a line, an arc loses the head at its anc_c endpoint."""
    return rg_to_sg_traced(h, anc_c)[0]


def _project_sg_pipeline(h: MixedGraph, spec: ProjectionSpec):
    closed, trace = table1_closure(h, spec)
    survivors = h.node_set - spec.removed
    anc_c = closed.ancestors(spec.cond) & survivors
    restricted = closed.induced_subgraph(survivors)
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
    _gate(h, "SG", NotSummaryGraph, "a summary graph", force)
    nodes = h.nodes
    edges = set(h.edges)
    parents = {n: set(h.parents(n)) for n in nodes}
    trace = []

    while True:
        grew = False
        # collider Vs with an arc towards the endpoint the inner node leads to
        while True:
            candidates = []
            inc = _incidence(nodes, edges)
            anc = {n: reach(parents, (n,)) for n in nodes}
            for k in nodes:
                head_edges = [e for e in inc[k] if e.mark_at(k) == HEAD]
                for e1, e2 in itertools.combinations(head_edges, 2):
                    o1, o2 = e1.other(k), e2.other(k)
                    if o1 == o2:
                        continue
                    if e1.kind == ARC and e2.kind == ARC:
                        if k in anc[o1] or k in anc[o2]:
                            gen = arc(o1, o2)
                        else:
                            continue
                    elif e1.kind == ARC:
                        if k not in anc[o1]:
                            continue
                        gen = arrow(o2, o1)
                    elif e2.kind == ARC:
                        if k not in anc[o2]:
                            continue
                        gen = arrow(o1, o2)
                    else:
                        continue
                    if gen not in edges:
                        candidates.append((k, min(o1, o2), max(o1, o2), gen))
            if not candidates:
                break
            for k, _lo, _hi, gen in sorted(candidates):
                if gen in edges:
                    continue
                edges.add(gen)
                if gen.kind == ARROW:
                    parents[gen.b].add(gen.a)
                trace.append(TraceStep("ag-step-2", k, gen))
            grew = True
        # arcs with one endpoint an ancestor of the other become arrows
        while True:
            pending = None
            for e in sorted(edges, key=edge_sort_key):
                if e.kind != ARC:
                    continue
                if e.a in reach(parents, (e.b,)):
                    pending = (e, arrow(e.a, e.b))
                    break
                if e.b in reach(parents, (e.a,)):
                    pending = (e, arrow(e.b, e.a))
                    break
            if pending is None:
                break
            e, repl = pending
            edges.discard(e)
            generated = None
            if repl not in edges:
                edges.add(repl)
                generated = repl
            parents[repl.b].add(repl.a)
            trace.append(TraceStep("ag-step-3", None, generated, removed=e))
            grew = True
        if not grew:
            break
    result = MixedGraph(nodes, edges)
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
