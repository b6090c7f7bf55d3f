"""Seeded random graph generation for the property suites and tests.

Ribbonless / summary / ancestral graphs are drawn the way the theory says
they arise: as projections of random DAGs over random marginalisation and
conditioning sets, topped up with rejection-sampled sparse mixed graphs so
that multi-edges and directed cycles stay in the ribbonless pool.
"""

from __future__ import annotations

import itertools
import string

from .core import MixedGraph, arc, arrow, line
from .project import ProjectionSpec, project_ag, project_rg, project_sg

_LABELS = string.ascii_lowercase


def node_labels(n):
    if n > len(_LABELS):
        return [f"v{k}" for k in range(n)]
    return list(_LABELS[:n])


def random_dag(rng, n, p=0.4) -> MixedGraph:
    names = node_labels(n)
    order = names[:]
    rng.shuffle(order)
    edges = [
        arrow(order[i], order[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < p
    ]
    return MixedGraph(names, edges)


def random_lmg(rng, n, p=0.12) -> MixedGraph:
    """Each of the four edge slots per pair filled independently."""
    names = node_labels(n)
    edges = []
    for a, b in itertools.combinations(names, 2):
        if rng.random() < p:
            edges.append(line(a, b))
        if rng.random() < p:
            edges.append(arc(a, b))
        if rng.random() < p:
            edges.append(arrow(a, b))
        if rng.random() < p:
            edges.append(arrow(b, a))
    return MixedGraph(names, edges)


def random_spec(rng, g: MixedGraph) -> ProjectionSpec:
    """A random disjoint (marg, cond) pair over g's nodes that leaves at
    least one node when g has any."""
    k = rng.randint(0, max(0, len(g.nodes) - 1))
    chosen = rng.sample(list(g.nodes), k)
    marg = {x for x in chosen if rng.random() < 0.5}
    return ProjectionSpec(marg, set(chosen) - marg)


def _projected(rng, n, projector):
    extra = rng.randint(0, 3)
    dag = random_dag(rng, n + extra, p=rng.uniform(0.25, 0.55))
    removed = rng.sample(list(dag.nodes), extra)
    marg = {x for x in removed if rng.random() < 0.5}
    spec = ProjectionSpec(marg, set(removed) - marg)
    return projector(dag, spec)


def random_rg(rng, n) -> MixedGraph:
    if rng.random() < 0.5:
        for _ in range(200):
            g = random_lmg(rng, n, p=rng.uniform(0.04, 0.18))
            if g.is_ribbonless:
                return g
    return _projected(rng, n, project_rg)


def random_sg(rng, n) -> MixedGraph:
    return _projected(rng, n, project_sg)


def random_ag(rng, n) -> MixedGraph:
    return _projected(rng, n, project_ag)


RANDOM_BY_CLASS = {
    "rg": random_rg,
    "sg": random_sg,
    "ag": random_ag,
    "dag": random_dag,
}
