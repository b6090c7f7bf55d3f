import itertools
import random
from unittest import mock

import pytest

from mixedgraphs import independence, witness
from mixedgraphs.core import MixedGraph, RibbonReport, arc, arrow, classify, line
from mixedgraphs.generators import random_ag, random_lmg, random_rg, random_sg
from mixedgraphs.independence import (
    _separation_sets,
    independence_model,
    model_equal,
)
from mixedgraphs.project import NotRibbonless, project_rg, project_sg
from mixedgraphs.witness import (
    NotDagRealizable,
    dag_realizable,
    dagify,
    is_maximal,
    is_maximal_literal,
    maximalize,
    _pip_edges,
    unrealizable_pairs,
)

from .helpers import (
    all_mixed_graphs,
    arc_clique,
    dagify_cut_oracle,
    is_maximal_literal_oracle,
    literal_maximality_graphs,
    mk,
    model_oracle,
    pip_edges_oracle,
    pip_edges_per_pair_oracle,
    primitive_inducing_paths_oracle,
    random_arc_heavy_rg,
    random_cyclic_rg,
    unrealizable_pairs_oracle,
)


def test_dagify_arc():
    r = dagify(mk("a <-> b"))
    assert r.dag == mk("_m1 -> a\n_m1 -> b")
    assert r.marg == {"_m1"} and r.cond == frozenset()
    assert r.origin["_m1"] == ("arc", arc("a", "b"))


def test_dagify_line():
    r = dagify(mk("a -- b"))
    assert r.dag == mk("a -> _c1\nb -> _c1")
    assert r.cond == {"_c1"} and r.marg == frozenset()


def test_dagify_dag_is_identity():
    g = mk("a -> b\nb -> c")
    r = dagify(g)
    assert r.dag == g and not r.marg and not r.cond


def test_dagify_breaks_directed_cycles():
    g = mk("a -> b\nb -> a")
    r = dagify(g)
    assert not r.dag.cycle_nodes
    assert project_rg(r.dag, r.spec()) == g


def test_dagify_rejects_ribbon_graphs():
    with pytest.raises(NotRibbonless):
        dagify(mk("h -> i\nj -> i\ni -- k"))


def test_dagify_fresh_names_avoid_collisions():
    g = mk("_m1 <-> b")
    r = dagify(g)
    assert "_m2" in r.marg and project_rg(r.dag, r.spec()) == g


def test_dagify_cuts_match_the_smallest_cycle_arrow_loop():
    """The one sorted pass cuts the arrows, in the order, that repeatedly
    cutting the smallest arrow still on a cycle does."""
    rng = random.Random(1972)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        (random_cyclic_rg(rng, rng.randint(3, 9)) for _ in range(400)),
    )
    cut, several = 0, 0
    for g in graphs:
        if not dag_realizable(g):
            error = NotDagRealizable if g.is_ribbonless else NotRibbonless
            with pytest.raises(error):
                dagify(g)
            continue
        r = dagify(g)
        cuts = [e for kind, e in r.origin.values() if kind == "cycle-arrow"]
        assert cuts[::2] == cuts[1::2] == dagify_cut_oracle(g), g
        assert project_rg(r.dag, r.spec()) == g, g
        cut += bool(cuts)
        several += len(cuts) > 2
    assert cut >= 500 and several >= 200


def _two_cycles(count):
    """count disjoint two-cycles v0 <-> v1, v2 <-> v3, ... as arrow pairs."""
    names = [f"v{k}" for k in range(2 * count)]
    edges = []
    for k in range(0, 2 * count, 2):
        edges += [arrow(names[k], names[k + 1]), arrow(names[k + 1], names[k])]
    return MixedGraph(names, edges)


def _dagify_passes(g):
    """dagify(g), with the number of components passes it ran and the
    number of nodes it passed them in all."""
    with mock.patch.object(witness, "_components", wraps=witness._components) as passes:
        r = dagify(g)
    return r, passes.call_count, sum(len(c.args[0]) for c in passes.call_args_list)


def test_dagify_runs_one_search_per_arrow():
    # 100 two-cycles: each cut runs the components pass again
    # over the two-cycle it split, not over every node still on a cycle
    g = _two_cycles(100)
    r, calls, nodes = _dagify_passes(g)
    assert calls <= len(r.cond) and nodes <= 200
    assert len(r.cond) == 100 and project_rg(r.dag, r.spec()) == g


def test_dagify_work_is_linear_in_many_cycles():
    # 1,000 two-cycles: re-running the pass over every node still on a
    # cycle after each cut would pass it about a million nodes
    r, calls, nodes = _dagify_passes(_two_cycles(1000))
    assert len(r.cond) == 1000 and calls <= 1000 and nodes <= 2000


def test_dagify_searches_a_long_cycle_once():
    # one directed cycle of 2,000 nodes: its first cut splits its one
    # component into single nodes, so the components pass runs again once
    # and no later arrow is cut
    names = [f"v{k}" for k in range(2000)]
    g = MixedGraph(names, [arrow(a, b) for a, b in zip(names, names[1:] + names[:1])])
    r, calls, _nodes = _dagify_passes(g)
    assert calls <= 1
    assert len(r.cond) == 1 and project_rg(r.dag, r.spec()) == g


def test_rg_round_trip_random():
    rng = random.Random(61)
    done = 0
    for _ in range(200):
        g = random_rg(rng, rng.randint(2, 6))
        if not dag_realizable(g):
            continue
        r = dagify(g)
        assert "DAG" in classify(r.dag)
        assert project_rg(r.dag, r.spec()) == g, g
        done += 1
    assert done >= 150


def test_dagify_result_structure():
    rng = random.Random(63)
    graphs = [random_rg(rng, rng.randint(2, 5)) for _ in range(60)]
    graphs += [random_cyclic_rg(rng, rng.randint(2, 7)) for _ in range(60)]
    for g in graphs:
        if not dag_realizable(g):
            continue
        r = dagify(g)
        fresh = r.marg | r.cond
        assert set(r.origin) == fresh
        assert not r.marg & r.cond, g
        assert r.dag.node_set == g.node_set | set(r.origin), g
        # each fresh node's role follows from its origin: an arc's node is
        # marginalised, a line's conditioned, and a cut arrow has one of each,
        # its conditioned node drawn first
        cuts = {}
        for n, (why, e) in r.origin.items():
            if why == "arc":
                assert n in r.marg, (g, n)
            elif why == "line":
                assert n in r.cond, (g, n)
            else:
                assert why == "cycle-arrow", (g, n)
                cuts.setdefault(e, []).append(n)
        for e, (c, m) in cuts.items():
            assert c in r.cond and m in r.marg, (g, e)
        # fresh nodes always have degree two
        for n in fresh:
            assert len(r.dag.parents(n)) + len(r.dag.children(n)) == 2, (g, n)
        # among original nodes only original arrows survive
        kept = r.dag.induced_subgraph(g.node_set)
        original_arrows = {e for e in g.edges if e.kind == "arrow"}
        assert kept.edges <= original_arrows, g


def test_unrealizable_pair_is_rejected_with_proof_witness():
    # a directed two-cycle plus a parallel arc (and no parallel line) cannot
    # arise from any DAG: the closure of every candidate preimage also emits
    # the line, as the replayed construction below shows
    g = mk("c -> d\nd -> c\nc <-> d")
    assert "RG" in classify(g)
    assert not dag_realizable(g)
    with pytest.raises(NotDagRealizable):
        dagify(g)
    # replaying the textbook construction shows the forced extra line
    recipe = mk("c -> _c1\n_m1 -> _c1\n_m1 -> d\nd -> c\n_m2 -> c\n_m2 -> d")
    from mixedgraphs.project import ProjectionSpec

    back = project_rg(recipe, ProjectionSpec({"_m1", "_m2"}, {"_c1"}))
    assert back.edges == g.edges | {line("c", "d")}


def test_unrealizable_pairs_match_the_all_pairs_oracle():
    # random RGs, then random graphs given a two-cycle and a parallel arc on
    # some pairs (a parallel line on some of those), so that found, spared
    # and near-miss pairs all occur
    rng = random.Random(83)
    found = 0
    for k in range(300):
        g = random_rg(rng, rng.randint(2, 8))
        if k % 2:
            edges = set(g.edges)
            for a, b in itertools.combinations(g.nodes, 2):
                if rng.random() < 0.3:
                    edges |= {arrow(a, b), arrow(b, a), arc(a, b)}
                    if rng.random() < 0.3:
                        edges.add(line(a, b))
                    if rng.random() < 0.2:
                        edges.discard(arrow(b, a))
            g = MixedGraph(g.nodes, edges)
        pairs = unrealizable_pairs(g)
        assert pairs == unrealizable_pairs_oracle(g), g
        found += len(pairs)
    assert found >= 100


def test_adding_the_parallel_line_restores_realizability():
    g = mk("c -> d\nd -> c\nc <-> d\nc -- d")
    assert dag_realizable(g)
    r = dagify(g)
    assert project_rg(r.dag, r.spec()) == g


def test_sg_round_trip_random():
    rng = random.Random(67)
    for _ in range(150):
        g = random_sg(rng, rng.randint(2, 6))
        r = dagify(g)
        assert project_sg(r.dag, r.spec()) == g, g


def test_ag_round_trip_random():
    # ancestral closure is the identity on ancestral graphs, so the DAG
    # reconstruction inverts the AG projection as well
    from mixedgraphs.generators import random_ag
    from mixedgraphs.project import project_ag

    rng = random.Random(69)
    for _ in range(150):
        g = random_ag(rng, rng.randint(2, 6))
        r = dagify(g)
        assert project_ag(r.dag, r.spec()) == g, g


def test_no_pips_in_complete_graph():
    nodes = "abc"
    g = MixedGraph(set(nodes), [arrow(x, y) for x, y in itertools.combinations(nodes, 2)])
    assert list(_pip_edges(g)) == primitive_inducing_paths_oracle(g) == []
    assert is_maximal(g)


def test_pip_detected():
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    pips = primitive_inducing_paths_oracle(g)
    assert [nodes for nodes, _edges in pips] == [("a", "q", "b")]
    assert list(_pip_edges(g)) == [arc("a", "b")]
    assert not is_maximal(g)
    assert not is_maximal_literal(g)


def test_collider_not_ancestor_is_no_pip():
    g = mk("a -> q\nb -> q")
    assert list(_pip_edges(g)) == primitive_inducing_paths_oracle(g) == []


def test_pip_endpoint_edge_from_marks():
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    assert list(_pip_edges(g)) == [arc("a", "b")]
    assert pip_edges_oracle(g) == {arc("a", "b")}


def test_pip_sweep_matches_the_per_pair_search():
    # one read of each node's neighbours and ancestors per sweep against the
    # per-pair reads it replaced: the same edges in the same order, on every
    # 3-node multigraph, every 4-node simple graph, the arc cliques and random
    # 5-10-node RGs and LMGs
    rng = random.Random(97)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c"), multi=True),
        all_mixed_graphs(("a", "b", "c", "d"), multi=False),
        (arc_clique(m) for m in (6, 7, 8)),
        (random_rg(rng, rng.randint(5, 10)) for _ in range(200)),
        (random_lmg(rng, rng.randint(5, 10), p=rng.uniform(0.1, 0.3)) for _ in range(200)),
    )
    with_pips = 0
    for g in graphs:
        got = list(_pip_edges(g))
        assert got == pip_edges_per_pair_oracle(g), g
        with_pips += bool(got)
    assert with_pips >= 100


def test_any_dag_is_maximal():
    rng = random.Random(71)
    from mixedgraphs.generators import random_dag

    for _ in range(100):
        g = random_dag(rng, rng.randint(2, 6))
        assert is_maximal(g)
        assert is_maximal_literal(g)


def test_maximalize_fixpoint_on_maximal_input():
    g = mk("a -> b\nb -> c")
    assert maximalize(g) is g


def test_maximalize_adds_arc_for_double_headed_pip():
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    out = maximalize(g)
    assert out.edges == g.edges | {arc("a", "b")}
    assert model_equal(independence_model(g), independence_model(out))


def test_maximalize_leaves_ug_unchanged():
    g = mk("a -- q\nq -- b")
    assert maximalize(g) == g


def test_maximalize_mixed_marks_inserts_arrow():
    # no arrowhead at the start, arrowhead at the end: the inserted edge is
    # the arrow toward the head end
    g = mk("j -> q\nq <-> i\nq -> x\nx -> i")
    pips = primitive_inducing_paths_oracle(g)
    assert [nodes for nodes, _edges in pips] == [("i", "q", "j")]
    assert list(_pip_edges(g)) == [arrow("j", "i")]
    out = maximalize(g)
    assert arrow("j", "i") in out.edges
    assert model_equal(independence_model(g), independence_model(out))


def test_no_tail_tail_pips_on_ribbonless_graphs():
    # a path whose inner nodes are all colliders and ancestors of an
    # endpoint, with arrows out of both endpoints, forces a directed cycle
    # under a collider V, i.e. a ribbon; so the line-insertion branch of the
    # end-mark rule is unreachable for gated inputs
    from .helpers import all_mixed_graphs

    for g in all_mixed_graphs(("a", "b", "c")):
        if not g.is_ribbonless:
            continue
        for e in _pip_edges(g):
            assert e.kind != "line", g


def test_pip_criterion_fails_off_the_ribbonless_class():
    # ribbons break the equivalence: no PIP here, yet a and b can never be
    # separated, so the PIP reading and the literal reading disagree
    g = mk("b -- c\na <-> c\nb <-> c")
    assert "RG" not in classify(g)
    assert is_maximal(g)
    assert not is_maximal_literal(g)


def test_literal_check_bound():
    from mixedgraphs.core import MixedGraph
    from mixedgraphs.independence import TooLarge

    g = MixedGraph({f"n{k}" for k in range(9)})
    with pytest.raises(TooLarge):
        is_maximal_literal(g)
    assert is_maximal_literal(g, limit=9)


def test_literal_maximality_stops_at_the_first_separating_sets():
    # one bit-sliced walk per node with a later non-adjacent node (all but
    # n6 and n7) decides every conditioning set at once, where a walk per
    # node and set would run up to 6 * 2^8 times; and the first pair that
    # no set separates ends the search: a and b here, at the first source
    g = mk("n0 -> n1\nn2 -> n1\nn3 <-> n4\nn5 -> n4\nn6 -- n7")
    assert len(g.nodes) == 8
    inseparable = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    for h, verdict, count in ((g, True, 6), (inseparable, False, 1)):
        with mock.patch.object(
            independence, "_sliced_reach", wraps=independence._sliced_reach
        ) as walks:
            assert is_maximal_literal(h) is verdict
        assert walks.call_count == count, h


def test_maximalize_yields_pairwise_markov():
    # one sweep: the output keeps the model and separates every non-adjacent
    # pair, on random RGs and arc-heavy RGs of 2-7 nodes and arc cliques
    rng = random.Random(73)
    graphs = itertools.chain(
        (random_rg(rng, rng.randint(2, 7)) for _ in range(300)),
        (random_arc_heavy_rg(rng, rng.randint(2, 7)) for _ in range(300)),
        (arc_clique(m) for m in range(1, 6)),
    )
    added = 0
    for g in graphs:
        out = maximalize(g)
        assert model_equal(independence_model(g), independence_model(out)), g
        assert is_maximal_literal_oracle(out), (g, out)
        added += out is not g
    assert added >= 100


def test_maximalize_searches_for_pips_once():
    # no confirming search: one `_pip_edges` call per input, also on the
    # inputs that gain edges
    rng = random.Random(75)
    graphs = itertools.chain(
        (arc_clique(m) for m in range(1, 6)),
        (random_arc_heavy_rg(rng, rng.randint(3, 7)) for _ in range(100)),
    )
    added = 0
    with mock.patch.object(witness, "_pip_edges", wraps=witness._pip_edges) as search:
        for g in graphs:
            search.reset_mock()
            added += maximalize(g) is not g
            assert search.call_count == 1, g
    assert added >= 30


def test_maximalize_can_leave_the_ribbonless_class():
    # the added arc b <-> c makes <b, c, d> a collider V whose inner node
    # touches the line c -- d: the output keeps the model and is maximal, but
    # has a ribbon, so it is no input for maximalize
    g = mk("c -- d\na <-> b\na <-> c\na <-> d\nc <-> d\na -> b\nd -> b")
    assert g.is_ribbonless
    out = maximalize(g)
    assert out.edges == g.edges | {arc("b", "c")}
    assert out.ribbons == (RibbonReport("b", "c", "d", "line", "c"),)
    assert model_equal(model_oracle(g), model_oracle(out))
    assert is_maximal_literal_oracle(out)
    with pytest.raises(NotRibbonless):
        maximalize(out)


def _inseparable_pairs(g):
    """The non-adjacent pairs of g that no conditioning set separates: those
    whose separation set is empty."""
    nodes = g.nodes
    return {
        frozenset((nodes[k], nodes[j]))
        for k, j, sets in _separation_sets(g, 0, 0)
        if not sets
    }


def test_pips_join_exactly_the_inseparable_pairs_of_ribbonless_graphs():
    # fact (b) behind maximalize's one sweep, pair by pair: on a ribbonless
    # graph the non-adjacent pairs a PIP joins are those no set separates
    rng = random.Random(79)
    makers = (random_rg, random_sg, random_ag, random_cyclic_rg, random_arc_heavy_rg)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c"), multi=True),
        all_mixed_graphs(("a", "b", "c", "d"), multi=False),
        (arc_clique(m) for m in range(1, 6)),
        (make(rng, rng.randint(4, 7)) for make in makers for _ in range(100)),
    )
    tried = inseparable = 0
    for g in graphs:
        if not g.is_ribbonless:
            continue
        joined = {frozenset((e.a, e.b)) for e in _pip_edges(g)}
        assert joined == _inseparable_pairs(g), g
        tried += 1
        inseparable += bool(joined)
    assert tried >= 10_000 and inseparable >= 200


def test_literal_maximality_matches_the_separation_sweep():
    # the connection-row route against one m_separated sweep per pair, on
    # every 3-node multigraph, every 4-node simple graph, and random RGs
    # and non-RGs with 5-8 nodes, the RGs with their maximalize outputs
    verdicts = set()
    ribbons = 0
    for g in literal_maximality_graphs():
        verdict = is_maximal_literal(g)
        assert verdict == is_maximal_literal_oracle(g), g
        verdicts.add(verdict)
        ribbons += len(g.nodes) >= 5 and not g.is_ribbonless
    assert verdicts == {True, False} and ribbons >= 10


def test_literal_verdict_reads_the_same_off_runs_and_off_triples():
    # the suite's verdict read off a graph's model, which holds runs, equals
    # the one read off its JSON round trip, which holds triples, and the
    # oracle's, on random LMGs and RGs of 3-6 nodes and their maximalizations
    rng = random.Random(31)
    verdicts = set()
    for k in range(80):
        n = rng.randint(3, 6)
        if k % 2:
            graphs = (random_lmg(rng, n, 0.4),)
        else:
            g = random_rg(rng, n)
            graphs = (g, maximalize(g))
        for h in graphs:
            J = independence_model(h)
            K = independence.model_from_json(independence.model_to_json(J))
            assert K._runs is None
            verdict = witness._separates_every_pair_in(J, h)
            assert verdict == witness._separates_every_pair_in(K, h), h
            assert verdict == is_maximal_literal_oracle(h), h
            verdicts.add(verdict)
    assert verdicts == {True, False}
