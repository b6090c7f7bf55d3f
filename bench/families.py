"""Input families for the benchmark, built on the library's public graph
constructors. The library itself is not changed to hold them.

Every family records its parameters next to it. The named adversarial
families are ``ladder``, ``arc_clique`` and ``dense_removal``.
"""

from __future__ import annotations

import itertools
import random

from mixedgraphs.core import MixedGraph, arc, arrow, line
from mixedgraphs.generators import random_dag, random_lmg
from mixedgraphs.project import ProjectionSpec

# ladder: the exhaustive simple-path oracle. The walk BFS reaches b through
# uk -> t -- x -- t <- b, a walk that is no path, so m_separated has to
# search every simple path out of u0 before it may answer "separated".
# Cost grows about 1.8x per rung: 4 ms at k=8, 43 ms at k=12 (2-core host).
LADDER_RUNGS = (8, 9, 10, 11, 12)


def ladder(k: int) -> MixedGraph:
    """Line ladder u0..uk / v0..vk with rungs ui -- vi, ending in
    uk -> t <- b and vk -> t, with t -- x; not ribbonless."""
    u = [f"u{i}" for i in range(k + 1)]
    v = [f"v{i}" for i in range(k + 1)]
    edges = [line(u[i], u[i + 1]) for i in range(k)]
    edges += [line(v[i], v[i + 1]) for i in range(k)]
    edges += [line(u[i], v[i]) for i in range(k + 1)]
    edges += [arrow(u[k], "t"), arrow("b", "t"), arrow(v[k], "t"), line("t", "x")]
    return MixedGraph(u + v + ["t", "b", "x"], edges)


# The query whose answer needs the full oracle search: u0 vs b given nothing.
LADDER_QUERY = ("u0", "b", ())

# arc_clique: the primitive-inducing-path search in maximalize. Every c has
# i <-> c and c <-> j, c -> j, and the c's are pairwise joined by arcs, so
# the i..j PIPs run through every ordering of every subset of the clique.
# maximalize adds the single edge i <-> j. Cost grows about 7x per clique
# node: 11 ms at m=6, 70 ms at m=7, 470 ms at m=8 (2-core host).
ARC_CLIQUE_SIZES = (6, 7, 8)


def arc_clique(m: int) -> MixedGraph:
    """c0..c(m-1) pairwise <->, each with i <-> c, c <-> j and c -> j."""
    c = [f"c{k}" for k in range(m)]
    edges = [arc(a, b) for a, b in itertools.combinations(c, 2)]
    for x in c:
        edges += [arc("i", x), arc(x, "j"), arrow(x, "j")]
    return MixedGraph(c + ["i", "j"], edges)


# Random DAGs for projection: mean degree DAG_DEGREE, with 30 % or 70 % of
# the nodes removed (each marginalised or conditioned with probability 1/2).
DAG_DEGREE = 2.5
DENSE_REMOVAL_FRACTION = 0.7
SPARSE_REMOVAL_FRACTION = 0.3


def removal_instance(rng, n: int, fraction: float):
    """A random DAG over n nodes with mean degree DAG_DEGREE, and a spec
    removing round(fraction * n) of its nodes."""
    g = random_dag(rng, n, p=DAG_DEGREE / (n - 1))
    removed = rng.sample(list(g.nodes), round(fraction * n))
    marg = {x for x in removed if rng.random() < 0.5}
    return g, ProjectionSpec(marg, set(removed) - marg)


# dense_removal: the V-rule closure at its worst. 80-node DAGs lose 70 % of
# their nodes, and the closure builds edges among the removed nodes before
# they are deleted. One projection takes 6 ms to 0.9 s, depending on the
# draw, so a per-seed draw would let the draw swamp the benchmark's figures.
# The family is therefore DENSE_REMOVAL_INSTANCES fixed draws, made from
# family seeds 0, 1, ..., the same under every workload seed.
DENSE_REMOVAL_NODES = 80
DENSE_REMOVAL_INSTANCES = 6


def dense_removal(k: int):
    """Instance k of the dense_removal family: (DAG, spec)."""
    rng = random.Random(k)
    return removal_instance(rng, DENSE_REMOVAL_NODES, DENSE_REMOVAL_FRACTION)


def layered_ribbonless(rng, n: int, top: int, p: float) -> MixedGraph:
    """A ribbonless graph drawn directly, with no rejection and no projection.

    Nodes are put in a random order. The first `top` nodes carry lines only
    among themselves. Every other pair gets an arrow forward in the order
    with probability p, and pairs of non-top nodes an arc with probability
    p/2. Arrowheads never meet a top node, so every collider lies outside
    the top, and so do all its descendants: none touches a line, and the
    arrows are acyclic, so no collider can form a ribbon.
    """
    order = [f"v{k}" for k in range(n)]
    rng.shuffle(order)
    edges = []
    for i, j in itertools.combinations(range(n), 2):
        a, b = order[i], order[j]
        if j < top:
            if rng.random() < p:
                edges.append(line(a, b))
            continue
        if rng.random() < p:
            edges.append(arrow(a, b))
        if i >= top and rng.random() < p / 2:
            edges.append(arc(a, b))
    return MixedGraph(order, edges)


def non_ribbonless(rng, n: int, p: float) -> MixedGraph:
    """A random loopless mixed graph (each of the four edge slots of a pair
    filled with probability p) that has at least one ribbon."""
    while True:
        g = random_lmg(rng, n, p)
        if not g.is_ribbonless:
            return g
