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
reads ancestry once, from its input: its collider step fires only on Vs
o1 *-> k <-> o2 with k in an(o2), so it reads only the arcs their inner
node leads along, one ancestry test per arc end, pairs each with the
parents and the other arcs at that node, and runs to a fixpoint without
building the walk index; one pass over the sorted arcs then turns each arc
between an ancestor and its descendant into an arrow.

The two V-closures, Table 1 and the ancestral collider step, share one
round loop (`_rounds`), and the two strip stages, the summary-graph strip
and the ancestral arc step, share one replace step (`_replace`). The
collider step's rounds are semi-naive: after the first, a round reads only
the Vs that hold an edge the round before added. An older V whose edge is
missing was a candidate in the round before, and every candidate's edge was
added then, and ancestry does not change, so no older V can start to fire.
Every round still sorts its candidates, so each trace is that of full
rescans. Table 1 still rescans every V each round. A stage that changes
nothing, the summary-graph strip with no edge to replace or the ancestral
closure with no step to fire, returns its input graph, so the class check
and the writer reuse its parent index and its edge order.

On inputs the gate tagged RG (ribbonless; a DAG or SG is tagged so without a
ribbon search, and never builds its ribbon report) the first stage runs by
Lemma 1: the closure joins two survivors by an edge with end marks
(m_i, m_j) exactly when some m-connecting walk between them has those end
marks and is a single edge or passes a third node. So the survivors' edges in
the input, and one predecessor walk search per survivor and first mark, yield
the surviving edges, the survivors in an(C) and, for the trace, the Table-1
step behind each generated edge; `_signature_projection` states the rules
that keep the search to the work it uses and why it is exact on every
ribbonless input, and hands its graph over in canonical order, so neither
the summary-graph strip nor the writer sorts it. `table1_closure`, the
fixpoint itself, is the route only for forced inputs that are not
ribbonless, where walks and the closure can differ. It is also the tests'
oracle.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass
from typing import NamedTuple

from .core import (
    ARC,
    ARROW,
    HEAD,
    TAIL,
    Edge,
    MixedGraph,
    MixedGraphError,
    UnknownNode,
    _node_set,
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
        if isinstance(self.marg, str) or isinstance(self.cond, str):
            raise SpecInvalid("marg and cond take collections of nodes, not a string")
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


class TraceStep(NamedTuple):
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

# the Table-1 row id of a V keyed by the marks of its first edge (at the inner
# node, at the first end) and of its second (at the inner node, at the second
# end); rows 8-10, the collider rows, are those with a head at the inner node
# on both edges
_V_RULE = {
    (t1, e1, t2, e2): _RULE_ID[tuple(sorted((_ROLE[t1, e1], _ROLE[t2, e2])))]
    for t1, e1 in _ROLE
    for t2, e2 in _ROLE
}

# the same rows as trace text
_STEP_RULE = {marks: str(rule) for marks, rule in _V_RULE.items()}


def _rounds(current: MixedGraph, candidates):
    """Apply V-rules round by round until a round adds no edge; returns
    (graph, trace), the graph being `current` itself when no round adds one.

    `candidates(graph, added)` yields (rule, inner node, lower end, upper
    end, edge) tuples; a round sorts those whose edge is not in the graph yet
    and adds the first candidate for each new edge, with its step. `added` is
    None in the first round, which reads every V, and from then on lists the
    edges the round before added. A generator whose rules' enabling sets do
    not grow may run semi-naive and yield only the Vs that hold one of them:
    an older V whose edge is missing was a candidate in the round before,
    and every candidate's edge was added in that round. Every round still
    sorts its candidates, so the steps are those of full rescans."""
    trace, added = [], None
    while True:
        edges = current.edges
        fresh = sorted(c for c in candidates(current, added) if c[4] not in edges)
        if not fresh:
            return current, trace
        edges, added = set(edges), []
        for rule, t, _lo, _hi, gen in fresh:
            if gen not in edges:
                edges.add(gen)
                added.append(gen)
                trace.append(TraceStep(str(rule), t, gen))
        current = MixedGraph._trusted(current, edges)


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
    previous round built, reading each pair's row from `_V_RULE`, so
    projections use it only for inputs that are not ribbonless; on the
    others it is the oracle for the signature route.
    """
    spec.validate_for(h)
    marg, cond = spec.marg, spec.cond

    def candidates(current, _added):
        enabler = cond | current.ancestors(cond)
        for t, flows in current._flows.items():
            t_marg, t_enab = t in marg, t in enabler
            if not (t_marg or t_enab):
                continue
            for (i, m1, at_i, _), (j, m2, at_j, _) in itertools.combinations(flows, 2):
                if i == j:
                    continue
                rule = _V_RULE[m1, at_i, m2, at_j]
                if t_enab if rule >= 8 else t_marg:
                    gen = signature_edge(at_i, at_j, i, j)
                    yield (rule, t, i, j, gen) if i < j else (rule, t, j, i, gen)

    return _rounds(h, candidates)


def _gate(h, tag, exc, what, force):
    """Raise exc when h lacks the class tag; forced, warn at the line that
    called the entry point, which calls this directly."""
    if tag not in h.class_tags:
        if not force:
            raise exc(f"input graph is not {what}")
        warnings.warn(f"projecting a graph that is not {what}", stacklevel=3)


def _signature_projection(h: MixedGraph, spec: ProjectionSpec, survivors):
    """Stage one on a ribbonless h by Lemma 1: (the generated graph on the
    survivors, the survivors in an(C) of the closed graph, trace steps).

    One walk search per survivor i and first mark gives every survivor edge
    and every arrow from a survivor into C; the survivors in an(C) of the
    closed graph are those that such arrows lead into C. A state is a node
    and the mark the walk entered it with; leaving an inner node t is legal
    through a collider when t is in C ∪ an(C), and otherwise when t is in M.
    A walk that only bounces along parallel edges between its ends
    (i -> j <-> i <- j) carries a signature the closure need not generate:
    such an edge is kept only when another walk with its end marks passes a
    third node.

    Every single edge is a connecting walk, so the result starts from h's
    edges between survivors, and a hit that carries an h edge's signature
    adds nothing. Three rules keep the search to the work whose result it
    keeps. None of them changes the depth-first order among the states a
    walk can leave, so the graph, the survivors in an(C) and the steps are
    those of a search that pushes and tests every state.

    1. A reached state goes on the stack only if the walk can leave it: a
       node of M, or a node of C ∪ an(C) entered with a head. Any other
       state is only marked reached, since popping it would push nothing.
       The seeds follow the same rule: a first state the walk cannot leave
       carries an h edge's signature, so reaching it later builds nothing.
       One pass over `flows[i]` splits the seeds by first mark, and a mark
       with no seed starts no search.
       An arrow into C ends at a node of C entered with a head, which the
       walk can leave, so every such state is popped and tested.
    2. A hit on a survivor j < i builds no edge. Read backwards, a
       connecting walk from i to j connects j to i with the end marks
       swapped, and a generated edge is never a seed. So each generated edge
       is hit from each end, and first by its smaller end's search, which
       gives it its step. The exception is a walk that stepped from the
       smaller end itself: its edge is left pending, keyed by both ends and
       marks. While an edge is pending, the larger end's search reads every
       arrival at a smaller end, not only the first, and the first that did
       not step from the larger end itself closes the edge and gives its
       step. An edge still pending at the end is not in the closure (below)
       and is dropped.
    3. The step's second edge is the exit just taken, except when a head
       exit left a node of M. Only then is `flows[t]` read again, for a
       tail exit into j, which wins, being legal whenever t is in M. The
       step's row is `_STEP_RULE` at the marks of its two edges.

    Dropping is exact. Let e be an edge with marks (a, b) between survivors
    i < j, not in h.
    1. e is left pending only when i first reached (j, b) by a step from i
       along an edge f of h with mark b at j and a head at i, since i, a
       survivor, is left only as a collider.
    2. If the closure has e, Lemma 1 gives an (a, b)-walk W from i to j
       that passes a third node, as e is not in h.
    3. If W's second node x is a third node, W read backwards is a walk of
       j's search, first mark b, that enters (i, a) from x. Reading later
       arrivals, that search closes e.
    4. Otherwise W's second node is j, an inner node and a survivor, so a
       collider: W's first edge g has mark a at i and a head at j. Were a a
       head, f would be e; were a a tail and b a head, g would be e. Neither
       is in h, so a = b = tail: h holds i -> j (g) and j -> i (f), and e
       is i -- j.
    5. So i and j lie on a directed cycle, and as h is ribbonless, every
       collider V at i or j with distinct ends has its endpoint-identical
       edge in h.
    6. W's inner nodes before its first third node x are i and j, all
       colliders. Replacing the last of them, with its two edges, by the
       endpoint-identical edge of its V keeps every mark on the rest of W.
       Done again and again, that yields an (a, b)-walk whose second node
       is x, which step 3 closes. So an edge still pending after the larger
       end's search is not in the closure, and dropping it is exact.

    The projected graph takes sorted node and edge tuples as its orders: h's
    edges between survivors, read in order from `h._sorted_edges`, and the
    generated edges, in one sort. The trace is read off that edge tuple.

    The trace step for an edge generated between i and j is the V <i, t, j>
    closing the first walk to j of i's search, where t is the state that
    walk stepped from: its first edge carries the signature of the walk's
    prefix to t and its second edge is in h. i is the smaller end, unless
    that end's walk stepped from itself; then it is the larger end, and its
    walk the first one to the smaller end that did not step from the larger
    end. A walk reduces to one closure edge exactly when it is a single edge
    or passes a node other than its ends, since Table 1 never joins a node
    to itself. The walk to j passes t, so it shows a V unless t is i. The
    prefix to t is the search's first route there, so it is a single edge or
    passes a third node: a route that bounces from t through i back to t
    reaches no state that t's first visit did not."""
    marg, cond = spec.marg, spec.cond
    collider_set = cond | h.ancestors(cond)
    flows, own = h._flows, h.edges
    order = tuple(sorted(survivors))
    into_cond, steps, pending = set(), {}, {}
    for i in order:
        # rule 1 on the seeds, split by first mark in one pass
        seeds = {TAIL: [], HEAD: []}
        for o, mh, mo, _e in flows[i]:
            if o in marg or mo == HEAD and o in collider_set:
                seeds[mh].append((o, mo))
        for first, stack in seeds.items():
            if not stack:
                continue
            reached = set(stack)
            while stack:
                t, t_mark = stack.pop()
                if first == TAIL and t_mark == HEAD and t in cond:
                    into_cond.add(i)
                tail_ok = t in marg
                head_ok = t in collider_set if t_mark == HEAD else tail_ok
                for j, mh, at_j, _e in flows[t]:
                    if not (head_ok if mh == HEAD else tail_ok):
                        continue
                    state = (j, at_j)
                    if state in reached:
                        # rule 2: a later arrival may close a pending edge
                        if not pending or j > i:
                            continue
                    else:
                        reached.add(state)
                        # rule 1: push only what the walk can leave
                        if j in marg:
                            stack.append(state)
                            continue
                        if at_j == HEAD and j in collider_set:
                            stack.append(state)
                    if j in cond or j == i:
                        continue
                    # rule 2: j's search, earlier, built this edge
                    if j < i:
                        if t == i or not pending:
                            continue
                        gen = pending.pop((j, at_j, i, first), None)
                        if gen is None:
                            continue
                    else:
                        gen = signature_edge(first, at_j, i, j)
                        if gen in own:
                            continue
                        if t == i:
                            pending[i, first, j, at_j] = gen
                            continue
                    # rule 3: a node of M left through a head prefers a tail exit
                    last = mh
                    if mh == HEAD and tail_ok:
                        if (j, TAIL, at_j) in (f[:3] for f in flows[t]):
                            last = TAIL
                    rule = _STEP_RULE[t_mark, first, last, at_j]
                    steps[gen] = TraceStep(rule, t, gen)
    kept = [e for e in h._sorted_edges if e.a in survivors and e.b in survivors]
    edges = tuple(sorted(kept + list(steps), key=edge_sort_key))
    projected = MixedGraph._trusted(order, edges, ordered=True)
    # with no arrow into C, skip the ancestry read and the parent index it builds
    anc_c = into_cond | projected.ancestors(into_cond) if into_cond else into_cond
    return projected, anc_c, [steps[e] for e in edges if e in steps]


def _generate(h: MixedGraph, spec: ProjectionSpec):
    """Stage one of every projection: (the generated graph on the survivors,
    the survivors in an(C) of the closed graph, trace). Every input whose
    class tags, which the entry point's gate read, hold RG goes through the
    Lemma-1 signatures. Forced other inputs, where walks and the closure can
    differ, go through the closure itself."""
    spec.validate_for(h)
    survivors = h.node_set - spec.removed
    if "RG" in h.class_tags:
        return _signature_projection(h, spec, survivors)
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
    anc_c = _node_set(anc_c, "anc_c")
    missing = anc_c - h.node_set
    if missing:
        raise UnknownNode(f"anc_c names unknown nodes: {sorted(missing)}")
    edges, trace = set(h.edges), []
    fresh = h._sorted_edges
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
    return (MixedGraph._trusted(h, edges) if trace else h), trace


def rg_to_sg(h: MixedGraph, anc_c) -> MixedGraph:
    """Strip arrowheads pointing into anc_c to fixpoint: an arrow into anc_c
    becomes a line, an arc loses the head at its anc_c endpoint. A round
    strips every edge it reads that needs it, so only the edges it generates
    can need stripping in the next: the first round reads every edge, each
    later one only the previous round's replacements, in edge order. With
    nothing to strip, h itself is returned."""
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
    """The ancestral closure of h with its trace, h itself when no step
    fires; h is not checked to be a summary graph, but a result that is not
    ancestral raises.

    Neither step changes who is an ancestor of whom, so ancestry is read
    once, from h's ancestor masks (`MixedGraph._ancestor_masks`), one bit
    test per question. Step 2 adds an arc, or an arrow o1 -> o2 at a V
    o1 -> k <-> o2 with k in an(o2), where o1 is already an ancestor of o2;
    step 3 adds a -> b only for a in an(b). Every V that step 2 fires on
    holds an arc k <-> o with k in an(o), which step 3 converts, and step 3
    makes no arc. So step 2 runs to its fixpoint, and then one pass of
    step 3 over the sorted arcs leaves nothing for either step.

    So step 2 reads only the nodes k that lead along some arc k <-> o, with
    one ancestry test per arc end, and pairs each such arc with the heads at
    k: k's parents, from `_parents`, and its other arcs. Its rounds are
    semi-naive (see `_rounds`): a later round pairs a new arc that its end
    leads along with every head there, and a new arrow into k or a new arc
    at k with the arcs k leads along. The walk index `_flows` is never
    built."""
    # k is an ancestor of n when bit[k] & anc[n]
    bit, anc = h._bit, h._ancestor_masks
    # per node, its spouses, and the spouses it is an ancestor of
    spouses, leads = {}, {}

    def step2(k, o2, parents, others):
        # the Vs o1 *-> k <-> o2 whose arc leads from k to o2
        for o1 in parents:
            if o1 != o2:
                yield "ag-step-2", k, min(o1, o2), max(o1, o2), arrow(o1, o2)
        for o1 in others:
            if o1 != o2:
                yield "ag-step-2", k, min(o1, o2), max(o1, o2), arc(o1, o2)

    def candidates(current, added):
        parents = current._parents
        new = current.edges if added is None else added
        for kind, a, b in new:
            if kind == ARC:
                for k, o in ((a, b), (b, a)):
                    spouses.setdefault(k, set()).add(o)
                    if bit[k] & anc[o]:
                        leads.setdefault(k, set()).add(o)
        if added is None:
            for k, targets in leads.items():
                for o2 in targets:
                    yield from step2(k, o2, parents[k], spouses[k])
            return
        for kind, a, b in added:
            if kind == ARROW:
                for o2 in leads.get(b, ()):
                    yield from step2(b, o2, (a,), ())
                continue
            for k, o in ((a, b), (b, a)):
                targets = leads.get(k, ())
                if o in targets:
                    yield from step2(k, o, parents[k], spouses[k])
                for o2 in targets:
                    yield from step2(k, o2, (), (o,))

    current, trace = _rounds(h, candidates)
    # step 3: arcs with one endpoint an ancestor of the other become arrows
    edges = set(current.edges)
    arcs = sorted((e for e in edges if e.kind == ARC), key=edge_sort_key)
    for e in arcs:
        if bit[e.a] & anc[e.b]:
            _replace(edges, trace, "ag-step-3", e, arrow(e.a, e.b))
        elif bit[e.b] & anc[e.a]:
            _replace(edges, trace, "ag-step-3", e, arrow(e.b, e.a))
    result = MixedGraph._trusted(h, edges) if trace else h
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
