"""Shared test machinery: independent oracles and exhaustive enumerators.

Everything here is deliberately written from scratch against the definitions
(not by calling the code paths under test) so the dual-route checks stay
meaningful.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict

from mixedgraphs.core import (
    ARROW,
    HEAD,
    TAIL,
    MixedGraph,
    arc,
    arrow,
    edge_sort_key,
    line,
    signature_edge,
)
from mixedgraphs.generators import node_labels, random_lmg, random_rg
from mixedgraphs.independence import (
    IndependenceModel,
    IndependenceStatement,
    independence_model,
)
from mixedgraphs.msep import PathWitness, _paths, m_separated
from mixedgraphs.project import (
    NotAncestralGraph,
    ProjectionSpec,
    TraceStep,
    _ROLE,
    _RULE_ID,
)
from mixedgraphs.witness import maximalize


def mk(text):
    from mixedgraphs.textfmt import parse_graph

    return parse_graph(text).graph()


# A graph where "ab" names one node: split into characters, it would name a
# and b instead, so every answer given a bare string "ab" would differ.
LABEL_SPLIT_TEXT = "nodes: a b ab c x\nab -> c\nx -> ab"


def all_dags(labels):
    """Every labeled DAG over the given nodes."""
    pairs = [(a, b) for a in labels for b in labels if a != b]
    for r in range(len(pairs) + 1):
        for combo in itertools.combinations(pairs, r):
            g = MixedGraph(labels, [arrow(a, b) for a, b in combo])
            if not g.cycle_nodes:
                yield g


def pair_edge_options(a, b, multi):
    """Edge fillings of one unordered pair: all 16 subsets of the four slots,
    or the 5 at-most-one-edge choices when multi is False."""
    slots = [line(a, b), arc(a, b), arrow(a, b), arrow(b, a)]
    if multi:
        for mask in range(16):
            yield tuple(slots[k] for k in range(4) if (mask >> k) & 1)
    else:
        yield ()
        for s in slots:
            yield (s,)


def all_mixed_graphs(labels, multi=True):
    """Every LMG over the labels (multi=False: at most one edge per pair)."""
    pairs = list(itertools.combinations(labels, 2))
    option_lists = [list(pair_edge_options(a, b, multi)) for a, b in pairs]
    for combo in itertools.product(*option_lists):
        yield MixedGraph(labels, [e for part in combo for e in part])


def model_fingerprint(g_or_model):
    model = (
        g_or_model
        if hasattr(g_or_model, "statements")
        else independence_model(g_or_model)
    )
    return frozenset(s.key for s in model.statements)


def model_oracle(g: MixedGraph):
    """J_m(g) with one `m_separated` call per assignment of every node to A,
    B, C or neither: 4^n assignments, no masks."""
    nodes = g.nodes
    statements = []
    for roles in itertools.product(range(4), repeat=len(nodes)):
        A, B, C = ({v for v, r in zip(nodes, roles) if r == k} for k in range(3))
        if A and B and m_separated(g, A, B, C):
            statements.append(IndependenceStatement(A, B, C))
    return IndependenceModel(g.node_set, statements)


def marginalise_oracle(J: IndependenceModel, M, C):
    """α(J, M, C) statement by statement: <A,B|D> for every <A,B|D ∪ C> in
    J with A ∪ B ∪ D clear of M ∪ C."""
    M, C = frozenset(M), frozenset(C)
    drop = M | C
    return IndependenceModel(
        J.ground - drop,
        [
            IndependenceStatement(s.A, s.B, s.C - C)
            for s in J.statements
            if C <= s.C and not (s.A | s.B | (s.C - C)) & drop
        ],
    )


def model_json_oracle(J: IndependenceModel):
    """`model --json` as one indented stdlib `json.dumps`."""
    payload = {
        "ground": sorted(J.ground),
        "statements": [
            {"A": list(s.key[0]), "B": list(s.key[1]), "C": list(s.key[2])}
            for s in sorted(J.statements)
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def moral_separated(dag: MixedGraph, A, B, C):
    """Moralisation-based separation on DAGs, written independently of the
    walk engine: restrict to ancestors, marry parents, drop directions,
    delete C, test undirected connectivity."""
    A, B, C = set(A), set(B), set(C)
    if not A or not B:
        return True
    keep = A | B | C
    keep |= dag.ancestors(keep)
    sub = dag.induced_subgraph(keep)
    und = {frozenset((e.a, e.b)) for e in sub.edges}
    for n in sub.nodes:
        for x, y in itertools.combinations(sorted(sub.parents(n)), 2):
            und.add(frozenset((x, y)))
    adj = defaultdict(set)
    for fs in und:
        x, y = tuple(fs)
        if x in C or y in C:
            continue
        adj[x].add(y)
        adj[y].add(x)
    seen = set(A)
    frontier = list(A)
    while frontier:
        n = frontier.pop()
        for m in adj[n]:
            if m not in seen:
                seen.add(m)
                frontier.append(m)
    return not (seen & B)


def _mark(e, v):
    """'head' or 'tail': how edge e meets its endpoint v."""
    if e.kind == "line":
        return "tail"
    if e.kind == "arc":
        return "head"
    return "head" if v == e.b else "tail"


def _ancestors(edges, targets):
    """an(targets) by repeated scans of the arrows among the edges."""
    anc = set()
    grew = True
    while grew:
        grew = False
        for e in edges:
            if e.kind == ARROW and (e.b in targets or e.b in anc) and e.a not in anc:
                anc.add(e.a)
                grew = True
    return anc


def flows_oracle(g):
    """Per node, the walk index in its original form: the incident edges in
    `edge_sort_key` order, each as (other end, mark here, mark there, edge)."""
    flows = {}
    for n in g.nodes:
        incident = [e for e in g.edges if n in (e.a, e.b)]
        flows[n] = tuple(
            (e.other(n), e.mark_at(n), e.mark_at(e.other(n)), e)
            for e in sorted(incident, key=edge_sort_key)
        )
    return flows


def adjacency_oracle(g, n):
    """n's parents, children, spouses and neighbours, from the edge list,
    keyed by the name of the `MixedGraph` query for each."""
    sets = {"parents": set(), "children": set(), "spouses": set(), "neighbours": set()}
    for e in g.edges:
        if n not in (e.a, e.b):
            continue
        if e.kind == ARROW:
            sets["parents" if e.b == n else "children"].add(e.other(n))
        else:
            sets["spouses" if e.kind == "arc" else "neighbours"].add(e.other(n))
    return sets


def edges_between_oracle(g, n, m):
    """The edges joining n and m, from the edge list, in `edge_sort_key`
    order."""
    return sorted((e for e in g.edges if {e.a, e.b} == {n, m}), key=edge_sort_key)


def unrealizable_pairs_oracle(g):
    """Every node pair i < j whose edges, scanned from the edge list,
    include both arrows and the arc but not the line."""
    bad = []
    for i, j in itertools.combinations(g.nodes, 2):
        kinds = {(e.kind, e.a) for e in g.edges if {e.a, e.b} == {i, j}}
        arrows = {("arrow", i), ("arrow", j)} <= kinds
        if arrows and ("arc", i) in kinds and ("line", i) not in kinds:
            bad.append((i, j))
    return bad


def descendants_oracle(g, n):
    """de(n) by repeated scans of the arrow list."""
    de = set()
    grew = True
    while grew:
        grew = False
        for e in g.edges:
            if e.kind == ARROW and (e.a == n or e.a in de) and e.b not in de:
                de.add(e.b)
                grew = True
    return de


def cycle_nodes_oracle(g):
    """The nodes that are their own ancestors, by arrow-list scans."""
    return frozenset(n for n in g.nodes if n in _ancestors(g.edges, {n}))


def class_tags_oracle(g):
    """Class tags with the AG test node by node: every node with a parent or
    spouse is checked against the ancestors of both (by arrow-list scans),
    and simplicity takes one `edges_between` count per edge."""
    tags = {"LMG"}
    kinds = {e.kind for e in g.edges}
    acyclic = not g.cycle_nodes
    if kinds <= {"line"}:
        tags.add("UG")
    if kinds <= {"arc"}:
        tags.add("BG")
    if kinds <= {ARROW} and acyclic:
        tags.add("DAG")
    if g.is_ribbonless:
        tags.add("RG")
    no_head_at_line = all(
        not (g.neighbours(n) and (g.parents(n) or g.spouses(n))) for n in g.nodes
    )
    if no_head_at_line and acyclic:
        tags.add("SG")
        simple = all(len(g.edges_between(e.a, e.b)) == 1 for e in g.edges)
        ancestral = all(
            n not in _ancestors(g.edges, g.parents(n) | g.spouses(n))
            for n in g.nodes
            if g.parents(n) or g.spouses(n)
        )
        if simple and ancestral:
            tags.add("AG")
    return frozenset(tags)


def collider_vs_oracle(g):
    """Every collider V of g from the edge list, unordered: (inner node,
    {(end, edge), (end, edge)}) for each two edges with heads at the inner
    node and different other ends."""
    vs = []
    for t in g.nodes:
        heads = [e for e in g.edges if t in (e.a, e.b)]
        heads = [e for e in heads if _mark(e, t) == "head"]
        for e1, e2 in itertools.combinations(heads, 2):
            if e1.other(t) != e2.other(t):
                vs.append((t, frozenset({(e1.other(t), e1), (e2.other(t), e2)})))
    return vs


def simple_paths(g, a, b):
    """Every simple path from a to b as (nodes, edges), straight from the
    edge set: no library traversal is involved."""
    incident = defaultdict(list)
    for e in sorted(g.edges):
        incident[e.a].append((e.b, e))
        incident[e.b].append((e.a, e))
    out = []

    def extend(nodes, edges):
        if nodes[-1] == b:
            out.append((nodes, edges))
            return
        for o, e in incident[nodes[-1]]:
            if o not in nodes:
                extend(nodes + (o,), edges + (e,))

    extend((a,), ())
    return out


def filtering_paths_oracle(g, source, target, collider_set, allowed):
    """The order oracle of `msep._paths`: the same depth-first search over
    `_flows`, which filters a node's exits by their mark on every entry
    instead of reading them off `_split_flows`. Both must yield the same
    `PathWitness` sequence."""
    flows = g._flows
    nodes, edges, visited = [source], [], {source}
    pending = [iter(flows[source])]
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


def path_checked_oracle(g, k, j, walked, out, col):
    """The per-set oracle of `independence._path_checked`: the sets in
    `walked` under which a simple path m-connects nodes k and j, one
    `msep._paths` search per set not yet settled. With no path the set is
    dropped; a path P found settles every set left whose C ∪ an(C) holds
    P's colliders and whose C misses its non-colliders, as P connects under
    exactly those."""
    nodes, bit = g.nodes, g._bit
    joined = 0
    while walked:
        r = (walked & -walked).bit_length() - 1
        colliders = {v for v, s in zip(nodes, col) if s >> r & 1}
        allowed = {v for v, s in zip(nodes, out) if s >> r & 1}
        path = next(_paths(g, nodes[k], nodes[j], colliders, allowed), None)
        if path is None:
            walked ^= 1 << r
            continue
        holds = walked
        for v, collider in zip(path.nodes[1:-1], path.colliders):
            holds &= (col if collider else out)[bit[v].bit_length() - 1]
        joined |= holds
        walked ^= holds
    return joined


def _is_collider(nodes, edges, k):
    return _mark(edges[k - 1], nodes[k]) == "head" and _mark(edges[k], nodes[k]) == "head"


def connecting_paths(g, a, b, M, C):
    """The simple a-b paths whose collider inner nodes lie in C ∪ an(C) and
    whose other inner nodes lie in M."""
    enablers = set(C) | _ancestors(g.edges, set(C))
    return [
        (nodes, edges)
        for nodes, edges in simple_paths(g, a, b)
        if all(
            nodes[k] in (enablers if _is_collider(nodes, edges, k) else M)
            for k in range(1, len(nodes) - 1)
        )
    ]


def primitive_inducing_paths_oracle(g):
    """Every path between non-adjacent i < j whose inner nodes are all
    colliders and ancestors of i or j, as (nodes, edges)."""
    out = []
    for i, j in itertools.combinations(g.nodes, 2):
        if any({e.a, e.b} == {i, j} for e in g.edges):
            continue
        anc = _ancestors(g.edges, {i, j})
        for nodes, edges in simple_paths(g, i, j):
            if all(
                _is_collider(nodes, edges, k) and nodes[k] in anc
                for k in range(1, len(nodes) - 1)
            ):
                out.append((nodes, edges))
    return out


def pip_edges_oracle(g):
    """The endpoint-identical edge of every oracle PIP: a line for tails at
    both ends, an arc for heads at both, else the arrow into the head end."""
    out = set()
    for nodes, edges in primitive_inducing_paths_oracle(g):
        i, j = nodes[0], nodes[-1]
        mi, mj = _mark(edges[0], i), _mark(edges[-1], j)
        if mi == mj:
            out.add((line if mi == "tail" else arc)(i, j))
        else:
            out.add(arrow(i, j) if mj == "head" else arrow(j, i))
    return out


def pip_edges_per_pair_oracle(g):
    """The PIP edges in `witness._pip_edges` order, from the per-pair search
    it replaced: adjacency and an({i, j}) are read afresh for every pair.
    It shares the walk kernel, which `pip_edges_oracle` checks against the
    definition; this oracle checks the sweep around it."""
    out = []
    nodes = g.nodes
    for pos, i in enumerate(nodes):
        for j in nodes[pos + 1 :]:
            if g.adjacent(i, j):
                continue
            colliders = g.ancestors({i, j}) - {i, j}
            for first in ("tail", "head"):
                reached = _walk(g, i, colliders, frozenset(), first)
                for last in ("tail", "head"):
                    if (j, last == "head") in reached:
                        out.append(signature_edge(first, last, i, j))
    return out


def arc_clique(m):
    """c0..c(m-1) pairwise <->, each with i <-> c, c <-> j and c -> j: the
    i..j PIPs run through every ordering of every subset of the clique."""
    c = [f"c{k}" for k in range(m)]
    edges = [arc(a, b) for a, b in itertools.combinations(c, 2)]
    for x in c:
        edges += [arc("i", x), arc(x, "j"), arrow(x, "j")]
    return MixedGraph(c + ["i", "j"], edges)


def path_connects(g, a, b, M, C):
    """Strict simple-path m-connection with an explicit non-collider set."""
    return bool(connecting_paths(g, a, b, set(M), set(C)))


def is_maximal_literal_oracle(g):
    """Every non-adjacent pair is m-separated by some subset of the other
    nodes: one `m_separated` sweep over the subsets per pair."""
    for i, j in itertools.combinations(g.nodes, 2):
        if g.adjacent(i, j):
            continue
        rest = sorted(g.node_set - {i, j})
        if not any(
            m_separated(g, {i}, {j}, set(sub))
            for k in range(len(rest) + 1)
            for sub in itertools.combinations(rest, k)
        ):
            return False
    return True


def literal_maximality_graphs():
    """The literal maximality checks' inputs: every 3-node multigraph, every
    4-node simple graph, then 60 random 5-8-node graphs, each either an RG
    followed by its `maximalize` output or an LMG, ribbons included."""
    yield from all_mixed_graphs(("a", "b", "c"), multi=True)
    yield from all_mixed_graphs(("a", "b", "c", "d"), multi=False)
    rng = random.Random(89)
    for _ in range(60):
        n = rng.randint(5, 8)
        if rng.random() < 0.5:
            g = random_rg(rng, n)
            yield g
            yield maximalize(g)
        else:
            yield random_lmg(rng, n, p=rng.uniform(0.05, 0.25))


def pairwise_path_separated_paper(g, A, B, C):
    """m-separation by exhaustive simple paths, with the non-collider set
    taken as V minus A, B, C (the displayed form of the criterion)."""
    M = g.node_set - set(A) - set(B) - set(C)
    return not any(path_connects(g, a, b, M, C) for a in A for b in B)


def pairwise_path_separated_loose(g, A, B, C):
    """Same, but non-colliders may sit anywhere outside C."""
    M = g.node_set - set(C)
    return not any(path_connects(g, a, b, M - {a, b}, C) for a in A for b in B)


def path_signatures(g, i, j, M, C):
    """End-mark signatures over strict simple paths (the reading under which
    the edge characterization is *not* exact on multi-edge graphs)."""
    return frozenset(
        (_mark(edges[0], i), _mark(edges[-1], j))
        for _nodes, edges in connecting_paths(g, i, j, set(M), set(C))
    )


def _walk(g: MixedGraph, source, collider_set, allowed, first_mark):
    """Every state (node, arrived with a head) that an m-connecting walk out
    of source reaches through a first edge carrying `first_mark` at the
    source, as {state: predecessor}: the state whose step first reached it,
    or None one edge from the source. Leaving an inner node t is legal
    through a collider when t is in collider_set, and otherwise when t is in
    allowed. The walk may re-enter the source as an inner node."""
    flows = g._flows
    reached = {}
    stack = []
    for o, mh, mo, _e in flows[source]:
        if mh == first_mark:
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


def signature_projection_oracle(h: MixedGraph, spec: ProjectionSpec, survivors):
    """`project._signature_projection` by one full `_walk` search per
    survivor and first mark, every state read: (projected graph, survivors
    in an(C), trace steps), or None when some generated edge has no witness
    V. The trace step of an edge is the V closing the first walk to it that
    passes a third node."""
    collider_set = spec.cond | h.ancestors(spec.cond)
    edges, into_cond, steps = set(), set(), {}
    for i in sorted(survivors):
        for first in (TAIL, HEAD):
            reached = _walk(h, i, collider_set, spec.marg, first)
            for (j, head), pred in reached.items():
                if j in survivors and j != i:
                    at_j = HEAD if head else TAIL
                    gen = signature_edge(first, at_j, i, j)
                    edges.add(gen)
                    if pred is None or pred[0] == i or gen in steps:
                        continue
                    t, t_head = pred
                    # a node of M leaves through either mark, any other as a
                    # collider through a head; a tail exit into j wins
                    exits = (f[:3] for f in h.flows(t))
                    last = TAIL if t in spec.marg and (j, TAIL, at_j) in exits else HEAD
                    prefix = _ROLE[HEAD if t_head else TAIL, first]
                    roles = tuple(sorted((prefix, _ROLE[last, at_j])))
                    steps[gen] = TraceStep(f"{_RULE_ID[roles]}", t, gen)
                elif head and first == TAIL and j in spec.cond:
                    into_cond.add(i)
    generated = sorted(edges - h.edges, key=edge_sort_key)
    if any(e not in steps for e in generated):
        return None
    projected = MixedGraph(survivors, edges)
    anc_c = into_cond | projected.ancestors(into_cond)
    return projected, anc_c, [steps[e] for e in generated]


def replay_trace(graph: MixedGraph, spec: ProjectionSpec, trace):
    """Reapply a recorded projection trace mechanically: V-rule additions on
    the full node set, then restriction to the survivors, then the
    replacement steps."""
    edges = set(graph.edges)
    survivors = graph.node_set - spec.removed
    restricted = False
    for step in trace:
        if step.rule.isdigit():
            assert not restricted, "V-rule step after restriction"
            edges.add(step.generated)
            continue
        if not restricted:
            edges = {e for e in edges if e.a in survivors and e.b in survivors}
            restricted = True
        if step.removed is not None:
            edges.discard(step.removed)
        if step.generated is not None:
            edges.add(step.generated)
    if not restricted:
        edges = {e for e in edges if e.a in survivors and e.b in survivors}
    return MixedGraph(survivors, edges)


def dagify_cut_oracle(h: MixedGraph):
    """The arrows `dagify` cuts, in order, by the literal loop: cut the
    smallest arrow still on a direction-preserving cycle, putting the fresh
    arrows t -> c, m -> c and m -> head in its place, until no arrow lies on
    a cycle. Each search is a fresh scan of the current arrow list."""
    arrows = {(e.a, e.b) for e in h.edges if e.kind == ARROW}
    taken = set(h.nodes)
    cuts = []

    def fresh(prefix):
        k = 1
        while f"{prefix}{k}" in taken:
            k += 1
        taken.add(f"{prefix}{k}")
        return f"{prefix}{k}"

    def on_cycle(t, head):
        seen, frontier = {head}, [head]
        while frontier:
            u = frontier.pop()
            for a, b in arrows:
                if a == u and b not in seen:
                    seen.add(b)
                    frontier.append(b)
        return t in seen

    while True:
        pick = next((a for a in sorted(arrows) if on_cycle(*a)), None)
        if pick is None:
            return cuts
        t, head = pick
        arrows.discard(pick)
        c, m = fresh("_c"), fresh("_m")
        arrows |= {(t, c), (m, c), (m, head)}
        cuts.append(arrow(t, head))


def random_cyclic_rg(rng, n):
    """A ribbonless graph with a directed cycle: a sparse random LMG plus a
    directed cycle through some of its nodes, closed by adding, for every
    collider V, the edge between its ends with the V's end marks (any edge
    so added may make new Vs, so this repeats to a fixpoint)."""
    g = random_lmg(rng, n, p=rng.uniform(0.03, 0.15))
    ring = rng.sample(g.nodes, rng.randint(2, n))
    edges = set(g.edges) | {arrow(ring[k - 1], ring[k]) for k in range(len(ring))}
    while True:
        add = set()
        for _t, ends in collider_vs_oracle(MixedGraph(g.nodes, edges)):
            (h, e1), (j, e2) = ends
            add.add(signature_edge(_mark(e1, h), _mark(e2, j), h, j))
        if add <= edges:
            return MixedGraph(g.nodes, edges)
        edges |= add


def random_arc_heavy_rg(rng, n):
    """A ribbonless graph with many arcs, some arrows either way and few
    lines, redrawn until ribbonless: many of its non-adjacent pairs are
    joined by primitive inducing paths."""
    names = node_labels(n)
    while True:
        p_arc = rng.uniform(0.2, 0.6)
        p_arrow = rng.uniform(0.1, 0.5)
        p_line = rng.uniform(0, 0.15)
        edges = []
        for a, b in itertools.combinations(names, 2):
            if rng.random() < p_arc:
                edges.append(arc(a, b))
            if rng.random() < p_arrow:
                edges.append(arrow(*rng.sample((a, b), 2)))
            if rng.random() < p_line:
                edges.append(line(a, b))
        g = MixedGraph(names, edges)
        if g.is_ribbonless:
            return g


def rg_to_sg_oracle(g: MixedGraph, anc_c):
    """The SG strip edge by edge: an arrow into anc_c becomes a line, an arc
    with both ends in anc_c a line, an arc with one end there an arrow out
    of that end; every other edge stays."""
    edges = set()
    for e in g.edges:
        ends_in = [n for n in (e.a, e.b) if n in anc_c]
        into = e.kind == ARROW and e.b in anc_c
        if into or (e.kind == "arc" and len(ends_in) == 2):
            edges.add(line(e.a, e.b))
        elif e.kind == "arc" and ends_in:
            edges.add(arrow(ends_in[0], e.other(ends_in[0])))
        else:
            edges.add(e)
    return MixedGraph(g.nodes, edges)


def table1_closure_oracle(h: MixedGraph, spec: ProjectionSpec):
    """The V-rule closure as its own round loop, kept from before the closure
    shared one with the AG collider step: each round rescans every V of the
    graph the round before built, sorts the candidates by (rule id, inner
    node, endpoints, edge), and adds the first for each new edge with its
    trace step. Returns (closed graph, trace)."""
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


def sg_to_ag_oracle(h: MixedGraph):
    """The ancestral closure as a literal loop: ancestry recomputed from the
    edge set after every edge added; step 2 in rounds to its fixpoint;
    step 3 restarted from the first arc after every arc it converts; and
    both repeated until neither changes the graph. Returns (graph, trace),
    or raises NotAncestralGraph."""
    nodes = h.nodes
    edges = set(h.edges)
    trace = []
    # ancestors per node, computed when asked for and dropped whenever an
    # edge is added
    anc = {}

    def is_ancestor(k, n):
        if n not in anc:
            anc[n] = _ancestors(edges, {n})
        return k in anc[n]

    while True:
        grew = False
        # collider Vs with an arc towards the endpoint the inner node leads to
        while True:
            candidates = []
            for k in nodes:
                head_edges = sorted(
                    (e for e in edges if k in (e.a, e.b) and _mark(e, k) == "head"),
                    key=edge_sort_key,
                )
                for e1, e2 in itertools.combinations(head_edges, 2):
                    o1, o2 = e1.other(k), e2.other(k)
                    if o1 == o2:
                        continue
                    if e1.kind == "arc" and e2.kind == "arc":
                        if is_ancestor(k, o1) or is_ancestor(k, o2):
                            gen = arc(o1, o2)
                        else:
                            continue
                    elif e1.kind == "arc":
                        if not is_ancestor(k, o1):
                            continue
                        gen = arrow(o2, o1)
                    elif e2.kind == "arc":
                        if not is_ancestor(k, o2):
                            continue
                        gen = arrow(o1, o2)
                    else:
                        continue
                    if gen not in edges:
                        candidates.append((k, min(o1, o2), max(o1, o2), gen))
            if not candidates:
                break
            for k, _lo, _hi, gen in sorted(candidates):
                if gen not in edges:
                    edges.add(gen)
                    anc.clear()
                    trace.append(TraceStep("ag-step-2", k, gen))
            grew = True
        # arcs with one endpoint an ancestor of the other become arrows
        while True:
            pending = None
            for e in sorted(edges, key=edge_sort_key):
                if e.kind != "arc":
                    continue
                if is_ancestor(e.a, e.b):
                    pending = (e, arrow(e.a, e.b))
                    break
                if is_ancestor(e.b, e.a):
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
            anc.clear()
            trace.append(TraceStep("ag-step-3", None, generated, removed=e))
            grew = True
        if not grew:
            break
    result = MixedGraph(nodes, edges)
    if "AG" not in class_tags_oracle(result):
        raise NotAncestralGraph("the ancestral closure is not an ancestral graph")
    return result, trace


def closure_random_order(g: MixedGraph, spec: ProjectionSpec, rng):
    """Independent randomized-order reimplementation of the V-rule closure:
    applies one applicable rule at a time, chosen at random."""
    edges = set(g.edges)
    while True:
        parents = defaultdict(set)
        for e in edges:
            if e.kind == ARROW:
                parents[e.b].add(e.a)
        enab = set(spec.cond)
        frontier = list(enab)
        while frontier:
            t = frontier.pop()
            for p in parents[t]:
                if p not in enab:
                    enab.add(p)
                    frontier.append(p)
        enab |= spec.cond
        applicable = []
        for t in g.nodes:
            incident = [e for e in edges if t in (e.a, e.b)]
            for e1, e2 in itertools.combinations(incident, 2):
                i, j = e1.other(t), e2.other(t)
                if i == j:
                    continue
                collider = e1.mark_at(t) == "head" and e2.mark_at(t) == "head"
                if collider and t not in enab:
                    continue
                if not collider and t not in spec.marg:
                    continue
                gen = signature_edge(e1.mark_at(i), e2.mark_at(j), i, j)
                if gen not in edges:
                    applicable.append(gen)
        if not applicable:
            break
        edges.add(rng.choice(applicable))
    return MixedGraph(g.nodes, edges)


def parse_graph_oracle(text, name=""):
    """The text parser as it stood before the one-pass parser: labels checked
    at every occurrence, edges canonicalised one by one, and the document
    sorted by `canonical()` at the end. Kept as the one-pass parser's oracle
    for documents, error classes and line numbers; its columns point at the
    start of a directive rather than at the bad token."""
    from mixedgraphs.core import _LABEL_RE, Edge, MixedGraphError, canonical_edge
    from mixedgraphs.textfmt import (
        DuplicateEdge,
        GraphDocument,
        ParseError,
        UndeclaredNode,
    )

    token_kind = {"->": "arrow", "<->": "arc", "--": "line"}

    def check_label(tok, lineno, col):
        if not _LABEL_RE.match(tok):
            raise ParseError(f"bad node label {tok!r}", lineno, col)
        return tok

    declared = None
    edges = []
    seen_edges = set()
    marg = None
    cond = None
    endpoints = set()
    first_seen = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        lin = raw.split("#", 1)[0].rstrip()
        if not lin.strip():
            continue
        stripped = lin.strip()
        for directive in ("nodes", "marg", "cond"):
            if stripped.startswith(directive + ":"):
                names = stripped[len(directive) + 1 :].replace(",", " ").split()
                col = raw.index(directive) + 1
                for tok in names:
                    check_label(tok, lineno, col)
                    first_seen.setdefault(tok, lineno)
                if directive == "nodes":
                    if declared is not None:
                        raise ParseError("duplicate nodes: line", lineno, col)
                    declared = list(names)
                elif directive == "marg":
                    if marg is not None:
                        raise ParseError("duplicate marg: line", lineno, col)
                    marg = list(names)
                else:
                    if cond is not None:
                        raise ParseError("duplicate cond: line", lineno, col)
                    cond = list(names)
                break
        else:
            toks = stripped.split()
            if len(toks) != 3 or toks[1] not in token_kind:
                raise ParseError(
                    "expected '<node> -> <node>', '<node> <-> <node>' or "
                    "'<node> -- <node>'",
                    lineno,
                )
            a, op, b = toks
            col_a = raw.index(a) + 1
            check_label(a, lineno, col_a)
            check_label(b, lineno, raw.index(b, col_a) + 1)
            try:
                edge = canonical_edge(Edge(token_kind[op], a, b))
            except MixedGraphError as exc:
                raise type(exc)(f"line {lineno}: {exc}") from None
            if edge in seen_edges:
                raise DuplicateEdge(f"duplicate edge {edge.render()!r}", lineno)
            seen_edges.add(edge)
            edges.append(edge)
            endpoints.update((a, b))
            first_seen.setdefault(a, lineno)
            first_seen.setdefault(b, lineno)

    known = set(declared) if declared is not None else set(endpoints)
    if declared is not None:
        for n in sorted(endpoints - known):
            raise UndeclaredNode(f"undeclared node {n!r}", first_seen[n])
    for role, names in (("marg", marg), ("cond", cond)):
        for n in names or ():
            if n not in known:
                raise UndeclaredNode(
                    f"{role} mark on undeclared node {n!r}", first_seen[n]
                )

    doc = GraphDocument(
        name=name,
        nodes=tuple(known),
        edges=tuple(edges),
        marg=tuple(marg or ()),
        cond=tuple(cond or ()),
    )
    return doc.canonical()
