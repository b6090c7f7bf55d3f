"""The three workloads: seeded inputs, the operations run on them, and the
answer checks.

Each operation goes through the library calls behind one CLI command, with
graph text in and canonical text out. Ops are listed in rounds; a round holds
one input of every class, so any prefix of the list keeps the workload's mix.
The timed loop runs the list in order and starts again at the top when it
gets to the end.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from mixedgraphs import independence, msep, project, suites, textfmt, witness
from mixedgraphs.core import classify, edge_sort_key
from mixedgraphs.generators import random_ag, random_rg

import families
from families import (
    ARC_CLIQUE_SIZES,
    DENSE_REMOVAL_FRACTION,
    DENSE_REMOVAL_INSTANCES,
    DENSE_REMOVAL_NODES,
    LADDER_QUERY,
    LADDER_RUNGS,
    SPARSE_REMOVAL_FRACTION,
)


@dataclass(frozen=True)
class Op:
    """One operation. `text` is the canonical graph file the op reads;
    separation ops of one graph share `group`, and so share the parsed graph.
    """

    kind: str
    source: str
    text: str
    round: int
    query: tuple = ()
    group: int = -1


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    exercises: str
    bypasses: str
    build: object
    # Ops in one cycle of the workload's fixed families. A timed pass runs
    # whole cycles, so every pass holds each family instance equally often.
    cycle_ops: int
    # Ops the traced run replays: a fixed prefix of the timed run, so the
    # per-layer counts do not depend on the host's speed.
    trace_ops: int


def graph_text(g, marg=(), cond=()) -> str:
    return textfmt.serialize_graph(textfmt.document_for(g, marg=marg, cond=cond))


def _spec_of(doc):
    return project.ProjectionSpec(doc.marg, doc.cond)


class Session:
    """State one closed-loop client keeps between operations: the graph the
    last separation op parsed, reused while the next ops name the same
    group."""

    def __init__(self):
        self._group = None
        self._graph = None

    def graph(self, op):
        if op.group != self._group:
            self._graph = textfmt.parse_graph(op.text).graph()
            self._group = op.group
        return self._graph


# --- operations -----------------------------------------------------------


def _run_project(op, _session):
    doc = textfmt.parse_graph(op.text)
    kind = op.kind.removeprefix("project_")
    out, _steps = project.PROJECTORS_TRACED[kind](doc.graph(), _spec_of(doc))
    return graph_text(out)


def _run_dagify(op, _session):
    """`dagify`, then `project --type rg` on its output: a round trip."""
    doc = textfmt.parse_graph(op.text)
    result = witness.dagify(doc.graph())
    dag_text = graph_text(result.dag, result.marg, result.cond)
    dag_doc = textfmt.parse_graph(dag_text)
    back = project.project_rg(dag_doc.graph(), _spec_of(dag_doc))
    return dag_text + "--\n" + graph_text(back)


def _run_msep(op, session):
    A, B, C = op.query
    separated = msep.m_separated(session.graph(op), A, B, C)
    return "separated\n" if separated else "connected\n"


def _render_signatures(signatures, i, j):
    edges = sorted(msep.signature_edges(signatures, i, j), key=edge_sort_key)
    return "".join(e.render() + "\n" for e in edges) or "none\n"


def _run_eic(op, session):
    i, j, M, C = op.query
    signatures = msep.endpoint_identical_connection(session.graph(op), i, j, M, C)
    return _render_signatures(signatures, i, j)


def _run_model(op, _session):
    doc = textfmt.parse_graph(op.text)
    return independence.model_to_json(independence.independence_model(doc.graph()))


def _run_marginalise(op, _session):
    doc = textfmt.parse_graph(op.text)
    model = independence.marginalise_condition(
        independence.independence_model(doc.graph()), doc.marg, doc.cond
    )
    return independence.model_to_json(model)


def _run_maximalize(op, _session):
    doc = textfmt.parse_graph(op.text)
    return graph_text(witness.maximalize(doc.graph()))


def _run_check(op, _session):
    """`check --suite maximality` (seeds left at the CLI default)."""
    doc = textfmt.parse_graph(op.text)
    result = suites.maximality_suite(doc.graph(), seeds=20)
    return "".join(line + "\n" for line in [result.summary(), *result.failures])


RUNNERS = {
    "project_rg": _run_project,
    "project_sg": _run_project,
    "project_ag": _run_project,
    "dagify": _run_dagify,
    "msep": _run_msep,
    "eic": _run_eic,
    "model": _run_model,
    "marginalise": _run_marginalise,
    "maximalize": _run_maximalize,
    "check_maximality": _run_check,
}


def run_op(op, session) -> str:
    return RUNNERS[op.kind](op, session)


# --- answer checks (run outside the timed interval) -------------------------
#
# Each returns None when the answer holds, else a message. They use other
# library routes than the op itself, so a wrong answer has to be wrong twice.


def _check_project(op, out):
    doc = textfmt.parse_graph(op.text)
    got = textfmt.parse_graph(out).graph()
    tag = op.kind.removeprefix("project_").upper()
    if tag not in classify(got):
        return f"projected graph lacks the {tag} tag"
    if got.node_set != doc.graph().node_set - set(doc.marg) - set(doc.cond):
        return "projected node set is not the survivors"
    return None


def _check_dagify(op, out):
    dag_text, back_text = out.split("--\n")
    if "DAG" not in classify(textfmt.parse_graph(dag_text).graph()):
        return "dagify output is not a DAG"
    if back_text != op.text:
        return "project_rg(dagify(h)) != h"
    return None


def _check_msep(op, out):
    A, B, C = op.query
    g = textfmt.parse_graph(op.text).graph()
    if op.source.startswith("ladder"):
        (a,), (b,) = A, B
        query = msep.ConnectionQuery(a, b, g.node_set - A - B - C, C)
        connected = bool(msep.enumerate_connecting_paths(g, query, limit=1))
    else:
        connected = not msep.m_separated(g, B, A, C)
    expected = "connected\n" if connected else "separated\n"
    return None if out == expected else f"verdict {out.strip()} disagrees"


def _check_eic(op, out):
    i, j, M, C = op.query
    g = textfmt.parse_graph(op.text).graph()
    reverse = msep.endpoint_identical_connection(g, j, i, M, C)
    mirrored = frozenset((mi, mj) for mj, mi in reverse)
    if _render_signatures(mirrored, i, j) != out:
        return "signatures differ from the reversed query"
    return None


def _check_model(op, out):
    g = textfmt.parse_graph(op.text).graph()
    payload = json.loads(out)
    if set(payload["ground"]) != g.node_set:
        return "model has the wrong ground"
    for s in payload["statements"]:
        if any(g.adjacent(a, b) for a in s["A"] for b in s["B"]):
            return "model separates an adjacent pair"
    return None


def _check_marginalise(op, out):
    doc = textfmt.parse_graph(op.text)
    g = doc.graph()
    if set(json.loads(out)["ground"]) != g.node_set - set(doc.marg) - set(doc.cond):
        return "marginalised model has the wrong ground"
    if g.is_ribbonless:
        projected = project.project_rg(g, _spec_of(doc))
        expected = independence.independence_model(projected)
        if independence.model_to_json(expected) != out:
            return "marginalised model differs from the projected graph's model"
    return None


def _check_maximalize(op, out):
    g = textfmt.parse_graph(op.text).graph()
    got = textfmt.parse_graph(out).graph()
    if not g.edges <= got.edges or not witness.is_maximal(got):
        return "maximalize output is not a maximal supergraph"
    n = len(g.nodes)
    before = independence.independence_model(g, limit=n)
    if before != independence.independence_model(got, limit=n):
        return "maximalize changed the independence model"
    return None


def _check_suite(op, out):
    return None if out.startswith("suite=maximality") and "result=ok" in out else out


CHECKS = {
    "project_rg": _check_project,
    "project_sg": _check_project,
    "project_ag": _check_project,
    "dagify": _check_dagify,
    "msep": _check_msep,
    "eic": _check_eic,
    "model": _check_model,
    "marginalise": _check_marginalise,
    "maximalize": _check_maximalize,
    "check_maximality": _check_suite,
}


def check_op(op, out):
    return CHECKS[op.kind](op, out)


# --- projection -------------------------------------------------------------

# Seeded classes: (label, nodes, removed fraction).
PROJECTION_CLASSES = (
    ("dag20_30", 20, SPARSE_REMOVAL_FRACTION),
    ("dag20_70", 20, DENSE_REMOVAL_FRACTION),
    ("dag40_30", 40, SPARSE_REMOVAL_FRACTION),
    ("dag40_70", 40, DENSE_REMOVAL_FRACTION),
    ("dag80_30", 80, SPARSE_REMOVAL_FRACTION),
    # n=160 only at 30 %: at 70 % the closure's cost explodes.
    ("dag160_30", 160, SPARSE_REMOVAL_FRACTION),
)
PROJECTION_TYPES = ("rg", "sg", "ag")
PROJECTION_ROUNDS = 16 * DENSE_REMOVAL_INSTANCES
PROJECTION_ROUND_OPS = len(PROJECTION_CLASSES) + 2
DAGIFY_NODES = 16


def build_projection(seed):
    rng = random.Random(seed)
    dense = [
        graph_text(g, spec.marg, spec.cond)
        for g, spec in map(families.dense_removal, range(DENSE_REMOVAL_INSTANCES))
    ]
    ops = []
    for r in range(PROJECTION_ROUNDS):
        for c, (label, n, fraction) in enumerate(PROJECTION_CLASSES):
            g, spec = families.removal_instance(rng, n, fraction)
            kind = "project_" + PROJECTION_TYPES[(r + c) % 3]
            ops.append(Op(kind, label, graph_text(g, spec.marg, spec.cond), r))
        k = r % DENSE_REMOVAL_INSTANCES
        kind = "project_" + PROJECTION_TYPES[(r // DENSE_REMOVAL_INSTANCES) % 3]
        ops.append(Op(kind, f"dense_removal{DENSE_REMOVAL_NODES}_{k}", dense[k], r))
        h = families.layered_ribbonless(rng, DAGIFY_NODES, top=4, p=0.2)
        ops.append(Op("dagify", f"ribbonless{DAGIFY_NODES}", graph_text(h), r))
    return ops


PROJECTION = Workload(
    name="projection",
    why=(
        "Seeded DAG projections (n=20/40 at 30 % and 70 % removal, n=80/160 "
        "at 30 %), the fixed dense_removal family (n=80, 70 %), cycling "
        "rg/sg/ag, plus dagify round trips."
    ),
    exercises=(
        "project: the V-rule closure (table1_closure) and the SG/AG stages; "
        "textfmt and core.MixedGraph for every graph; witness.dagify. Each "
        "graph is parsed once and used once, so a per-graph cache pays its "
        "cost here with no reuse."
    ),
    bypasses="msep, independence and witness.maximalize are never called.",
    build=build_projection,
    cycle_ops=DENSE_REMOVAL_INSTANCES * PROJECTION_ROUND_OPS,
    trace_ops=3 * DENSE_REMOVAL_INSTANCES * PROJECTION_ROUND_OPS,
)


# --- separation -------------------------------------------------------------

SEPARATION_ROUNDS = 50  # a multiple of len(LADDER_RUNGS)
QUERIES_PER_GRAPH = 40
RIBBONLESS_NODES = 30
NON_RIBBONLESS_NODES = 16


def _random_query(rng, nodes, kind):
    """One singleton-pair query with a random conditioning set (and, for
    eic, a random marginalised set), all disjoint."""
    a, b, *rest = rng.sample(nodes, len(nodes))
    if kind == "msep":
        C = frozenset(rest[: rng.randint(0, 3)])
        return (frozenset({a}), frozenset({b}), C)
    k_m, k_c = rng.randint(0, 4), rng.randint(0, 2)
    return (a, b, frozenset(rest[:k_m]), frozenset(rest[k_m : k_m + k_c]))


def _ladder_queries(k):
    """Fixed for each k: LADDER_QUERY, then ladder nodes vs b given up to two
    ladder nodes. an(C) never reaches t, so b is separated from every ladder
    node, yet the walk reaches it: each query is an exhaustive oracle search.
    """
    rng = random.Random(k)
    g = families.ladder(k)
    rungs = [n for n in g.nodes if n[0] in "uv"]
    a, b, c = LADDER_QUERY
    queries = [(frozenset({a}), frozenset({b}), frozenset(c))]
    while len(queries) < QUERIES_PER_GRAPH:
        y = rng.choice(rungs)
        C = rng.sample([n for n in rungs if n != y], rng.choice((0, 0, 1, 2)))
        queries.append((frozenset({y}), frozenset({"b"}), frozenset(C)))
    return graph_text(g), queries


def build_separation(seed):
    rng = random.Random(seed)
    ladders = {k: _ladder_queries(k) for k in LADDER_RUNGS}
    ops = []
    group = 0
    for r in range(SEPARATION_ROUNDS):
        rb = families.layered_ribbonless(rng, RIBBONLESS_NODES, top=6, p=0.1)
        nrb = families.non_ribbonless(rng, NON_RIBBONLESS_NODES, p=0.06)
        for label, g in (
            (f"ribbonless{RIBBONLESS_NODES}", rb),
            (f"nonribbonless{NON_RIBBONLESS_NODES}", nrb),
        ):
            text = graph_text(g)
            nodes = list(g.nodes)
            for q in range(QUERIES_PER_GRAPH):
                kind = "eic" if q % 4 == 3 else "msep"
                query = _random_query(rng, nodes, kind)
                ops.append(Op(kind, label, text, r, query, group))
            group += 1
        k = LADDER_RUNGS[r % len(LADDER_RUNGS)]
        text, queries = ladders[k]
        ops.extend(Op("msep", f"ladder{k}", text, r, q, group) for q in queries)
        group += 1
    return ops


SEPARATION = Workload(
    name="separation",
    why=(
        "40 msep/eic queries per graph on ribbonless, non-ribbonless and "
        "ladder (k=8-12) graphs; the ladder's exhaustive oracle sets the tail."
    ),
    exercises=(
        "msep: the walk BFS on every query, the simple-path oracle on "
        "non-ribbonless graphs (short on random ones, exhaustive on ladders), "
        "and core.ancestors once per query. 40 queries read one parsed graph."
    ),
    bypasses="project's closure, independence and witness are never called.",
    build=build_separation,
    cycle_ops=3 * QUERIES_PER_GRAPH * len(LADDER_RUNGS),
    trace_ops=3 * QUERIES_PER_GRAPH * len(LADDER_RUNGS),
)


# --- enumeration ------------------------------------------------------------

MODEL_CLASSES = ("rg", "ag", "nonrg")
MODEL_SIZES = (6, 7, 8)
MAXIMALIZE_NODES = 8
CHECK_NODES = 7
# Each round runs arc_clique m=7 once and alternates m=8 with m=6. Over two
# rounds m=8 is 1 op in 20 and m=7 2 in 20, so the 90th latency percentile
# falls inside the fixed m=7 PIP search, clear of the random inputs.
ENUMERATION_CYCLE = 6  # rounds in which every size and clique recurs
ENUMERATION_ROUNDS = 10 * ENUMERATION_CYCLE
ENUMERATION_ROUND_OPS = 10


def _dense_enough(rng, label, n):
    """A random graph of the class with at least n edges. Sparser draws are
    redrawn: their models run to 15k statements, and one such draw would set
    the run's peak memory."""
    while True:
        if label == "rg":
            g = random_rg(rng, n)
        elif label == "ag":
            g = random_ag(rng, n)
        else:
            g = families.non_ribbonless(rng, n, p=0.15)
        if len(g.edges) >= n:
            return g


def build_enumeration(seed):
    rng = random.Random(seed)
    cliques = {m: graph_text(families.arc_clique(m)) for m in ARC_CLIQUE_SIZES}
    small, mid, large = ARC_CLIQUE_SIZES
    ops = []
    for r in range(ENUMERATION_ROUNDS):
        n = MODEL_SIZES[r % len(MODEL_SIZES)]
        for label in MODEL_CLASSES:
            g = _dense_enough(rng, label, n)
            removed = rng.sample(list(g.nodes), rng.randint(1, 3))
            marg = {x for x in removed if rng.random() < 0.5}
            ops.append(Op("model", f"{label}{n}", graph_text(g), r))
            text = graph_text(g, marg, set(removed) - marg)
            ops.append(Op("marginalise", f"{label}{n}", text, r))
        h = _dense_enough(rng, "rg", MAXIMALIZE_NODES)
        ops.append(Op("maximalize", f"rg{MAXIMALIZE_NODES}", graph_text(h), r))
        for m in (mid, large if r % 2 else small):
            ops.append(Op("maximalize", f"arc_clique{m}", cliques[m], r))
        h = _dense_enough(rng, "rg", CHECK_NODES)
        ops.append(Op("check_maximality", f"rg{CHECK_NODES}", graph_text(h), r))
    return ops


ENUMERATION = Workload(
    name="enumeration",
    why=(
        "model/marginalise on 6-8-node RG, AG and non-RG graphs, maximalize "
        "on arc cliques (m=6-8) and random RGs, check --suite maximality."
    ),
    exercises=(
        "independence.independence_model (thousands of tiny walks); witness: "
        "the PIP search in maximalize, which sets the tail through "
        "arc_clique m=7 and m=8, and is_maximal_literal's m_separated sweeps under "
        "suites.maximality_suite."
    ),
    bypasses="No projection calls outside the marginalise answer check.",
    build=build_enumeration,
    cycle_ops=ENUMERATION_CYCLE * ENUMERATION_ROUND_OPS,
    trace_ops=ENUMERATION_CYCLE * ENUMERATION_ROUND_OPS,
)


WORKLOADS = {w.name: w for w in (PROJECTION, SEPARATION, ENUMERATION)}


def describe():
    """The workload table, as recorded in every run report."""
    return {
        w.name: {"why": w.why, "exercises": w.exercises, "bypasses": w.bypasses}
        for w in WORKLOADS.values()
    }
