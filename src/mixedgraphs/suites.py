"""Property suites behind the CLI `check` command.

Each suite runs checks rooted at one input graph and reports a serialized
reproducer for every counterexample it finds. The checks are randomized,
except those of `maximality`, which compares the primitive-inducing-path
criterion with the literal one read off connection rows, and enumerates
models only when `maximalize` adds an edge.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .core import MixedGraph, MixedGraphError
from .generators import random_spec
from .independence import (
    MODEL_NODE_LIMIT,
    independence_model,
    marginalise_condition,
    model_diff,
    model_equal,
)
from .msep import endpoint_identical_connection, signature_edges
from .project import (
    PROJECTORS,
    ProjectionSpec,
    project_ag,
    project_rg,
    project_sg,
    table1_closure,
)
from .textfmt import document_for, serialize_graph
from .witness import _separates_every_pair, is_maximal, maximalize


class UnsuitableGraph(MixedGraphError):
    pass


@dataclass
class SuiteResult:
    suite: str
    checked: int = 0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.failures

    def fail(self, message, graph=None, spec=None):
        parts = [message]
        if graph is not None:
            parts.append(
                serialize_graph(
                    document_for(
                        graph,
                        marg=spec.marg if spec else (),
                        cond=spec.cond if spec else (),
                    )
                ).rstrip()
            )
        self.failures.append("\n".join(parts))

    def summary(self):
        status = "ok" if self.ok else f"{len(self.failures)} counterexamples"
        return f"suite={self.suite} checked={self.checked} result={status}"


def _rng(k):
    return random.Random(1_000_003 + k)


def _applicable_projectors(g: MixedGraph):
    out = []
    for name, tag in (("rg", "RG"), ("sg", "SG"), ("ag", "AG")):
        if tag in g.class_tags:
            out.append((name, PROJECTORS[name]))
    return out


def _require(condition, message):
    if not condition:
        raise UnsuitableGraph(message)


def _require_small(g, suite):
    _require(
        len(g.nodes) <= MODEL_NODE_LIMIT, f"{suite} needs <= {MODEL_NODE_LIMIT} nodes"
    )


def stability_suite(g: MixedGraph, seeds: int = 20) -> SuiteResult:
    """Projected graphs must induce the marginalised/conditioned model."""
    result = SuiteResult("stability")
    _require_small(g, "stability")
    projectors = _applicable_projectors(g)
    _require(projectors, "stability needs a ribbonless input")
    base_model = independence_model(g)
    for k in range(seeds):
        rng = _rng(k)
        spec = random_spec(rng, g)
        expected = marginalise_condition(base_model, spec.marg, spec.cond)
        for name, projector in projectors:
            got = independence_model(projector(g, spec))
            result.checked += 1
            if not model_equal(expected, got):
                missing, extra = model_diff(expected, got)
                result.fail(
                    f"{name} projection changed the model "
                    f"(missing={sorted(missing)}, extra={sorted(extra)})",
                    g,
                    spec,
                )
    return result


def composition_suite(g: MixedGraph, seeds: int = 20) -> SuiteResult:
    """Two-stage projection must equal the one-stage union projection."""
    result = SuiteResult("composition")
    projectors = _applicable_projectors(g)
    _require(projectors, "composition needs a ribbonless input")
    for k in range(seeds):
        rng = _rng(k)
        first = random_spec(rng, g)
        survivors = g.node_set - first.removed
        rest = sorted(survivors)
        rng.shuffle(rest)
        second_nodes = rest[: rng.randint(0, len(rest))]
        marg1 = {x for x in second_nodes if rng.random() < 0.5}
        second = ProjectionSpec(marg1, set(second_nodes) - marg1)
        union = ProjectionSpec(first.marg | second.marg, first.cond | second.cond)
        for name, projector in projectors:
            staged = projector(projector(g, first), second)
            direct = projector(g, union)
            result.checked += 1
            if staged != direct:
                result.fail(
                    f"{name} two-stage != one-stage for "
                    f"M={sorted(first.marg)},C={sorted(first.cond)} then "
                    f"M1={sorted(second.marg)},C1={sorted(second.cond)}",
                    g,
                    union,
                )
    return result


def correspondence_suite(g: MixedGraph, seeds: int = 20) -> SuiteResult:
    """The RG, SG, and AG projections of a DAG induce the same model."""
    result = SuiteResult("correspondence")
    _require("DAG" in g.class_tags, "correspondence needs a DAG input")
    _require_small(g, "correspondence")
    for k in range(seeds):
        rng = _rng(k)
        spec = random_spec(rng, g)
        models = {
            name: independence_model(projector(g, spec))
            for name, projector in (
                ("rg", project_rg),
                ("sg", project_sg),
                ("ag", project_ag),
            )
        }
        result.checked += 1
        if not (
            model_equal(models["rg"], models["sg"])
            and model_equal(models["rg"], models["ag"])
        ):
            result.fail("projections induce different models", g, spec)
    return result


def lemma1_suite(g: MixedGraph, seeds: int = 20) -> SuiteResult:
    """Edges of the RG projection match endpoint-identical connection
    signatures computed in the input graph, and the Table-1 closure of the
    input restricted to the survivors."""
    result = SuiteResult("lemma1")
    _require("RG" in g.class_tags, "lemma1 needs a ribbonless input")
    for k in range(seeds):
        rng = _rng(k)
        spec = random_spec(rng, g)
        projected = project_rg(g, spec)
        closed = table1_closure(g, spec)[0]
        nodes = projected.nodes
        ok = True
        for pos, i in enumerate(nodes):
            for j in nodes[pos + 1 :]:
                expected = signature_edges(
                    endpoint_identical_connection(g, i, j, spec.marg, spec.cond),
                    i,
                    j,
                )
                actual = frozenset(projected.edges_between(i, j))
                oracle = frozenset(closed.edges_between(i, j))
                if not expected == actual == oracle:
                    ok = False
                    result.fail(
                        f"edges between {i} and {j} differ: "
                        f"signatures give {sorted(e.render() for e in expected)}, "
                        f"the Table-1 closure {sorted(e.render() for e in oracle)}, "
                        f"the projection {sorted(e.render() for e in actual)}",
                        g,
                        spec,
                    )
        result.checked += 1
        if not ok:
            break
    return result


def maximality_suite(g: MixedGraph, seeds: int = 0) -> SuiteResult:
    """PIP-emptiness vs the literal definition, plus maximalize invariants.
    The literal verdicts come from connection-row sweeps. When maximalize
    adds no edge, its output is g: the model is unchanged by identity and
    its literal verdict is g's, so no model is enumerated."""
    result = SuiteResult("maximality")
    _require("RG" in g.class_tags, "maximality needs a ribbonless input")
    _require_small(g, "maximality")
    pip_maximal = is_maximal(g)
    literal = _separates_every_pair(g)
    result.checked += 1
    if pip_maximal != literal:
        result.fail(
            f"PIP criterion says maximal={pip_maximal}, literal says {literal}", g
        )
    maximal = maximalize(g)
    if maximal == g:
        same_model, pairwise = True, literal
    else:
        same_model = model_equal(independence_model(g), independence_model(maximal))
        pairwise = _separates_every_pair(maximal)
    result.checked += 1
    if not same_model:
        result.fail("maximalize changed the independence model", g)
    result.checked += 1
    if not pairwise:
        result.fail("maximalize output is not pairwise Markov", maximal)
    return result


SUITES = {
    "stability": stability_suite,
    "composition": composition_suite,
    "correspondence": correspondence_suite,
    "lemma1": lemma1_suite,
    "maximality": maximality_suite,
}
