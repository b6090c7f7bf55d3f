import inspect
import itertools
import random
import sys
import warnings
from unittest import mock

import pytest

from mixedgraphs import project
from mixedgraphs.core import (
    MixedGraph,
    MixedGraphError,
    UnknownNode,
    arc,
    arrow,
    classify,
    edge_sort_key,
    line,
    signature_edge,
)
from mixedgraphs.generators import (
    RANDOM_BY_CLASS,
    random_dag,
    random_lmg,
    random_rg,
    random_sg,
    random_spec,
)
from mixedgraphs.msep import endpoint_identical_connection, signature_edges
from mixedgraphs.project import (
    NotAncestralGraph,
    NotRibbonless,
    NotSummaryGraph,
    PROJECTORS,
    ProjectionSpec,
    SpecInvalid,
    _generate,
    _signature_projection,
    project_ag,
    project_ag_traced,
    project_rg,
    project_rg_traced,
    project_sg,
    project_sg_traced,
    render_trace,
    rg_to_sg,
    rg_to_sg_traced,
    sg_to_ag,
    sg_to_ag_traced,
    table1_closure,
)
from mixedgraphs.textfmt import document_for, parse_graph, serialize_graph

from .helpers import (
    all_dags,
    all_mixed_graphs,
    closure_random_order,
    mk,
    path_signatures,
    replay_trace,
    rg_to_sg_oracle,
    sg_to_ag_oracle,
    signature_projection_oracle,
    table1_closure_oracle,
)


def spec(marg=(), cond=()):
    return ProjectionSpec(frozenset(marg), frozenset(cond))


# --- the ten V rules, one instance each -----------------------------------


def closure_edges(text, marg=(), cond=()):
    g = mk(text)
    closed, _trace = table1_closure(g, spec(marg, cond))
    return closed.edges - g.edges


def test_rule_1_inherits_arrow():
    assert closure_edges("m -> i\nj -> m", marg="m") == {arrow("j", "i")}


def test_rule_2_arrow_from_line_end():
    assert closure_edges("m -> i\nm -- j", marg="m") == {arrow("j", "i")}


def test_rule_3_arc_line_gives_arrow():
    assert closure_edges("i <-> m\nm -- j", marg="m") == {arrow("j", "i")}


def test_rule_4_fork_gives_arc():
    assert closure_edges("m -> i\nm -> j", marg="m") == {arc("i", "j")}


def test_rule_5_arrow_arc_gives_arc():
    assert closure_edges("m -> i\nm <-> j", marg="m") == {arc("i", "j")}


def test_rule_6_line_arrow_gives_line():
    assert closure_edges("i -- m\nj -> m", marg="m") == {line("i", "j")}


def test_rule_7_line_line_gives_line():
    assert closure_edges("i -- m\nm -- j", marg="m") == {line("i", "j")}


def test_rule_8_arc_collider_gives_arrow():
    assert closure_edges("i <-> s\nj -> s", cond="s") == {arrow("j", "i")}


def test_rule_9_arc_arc_gives_arc():
    assert closure_edges("i <-> s\ns <-> j", cond="s") == {arc("i", "j")}


def test_rule_10_collider_gives_line():
    assert closure_edges("i -> s\nj -> s", cond="s") == {line("i", "j")}


def test_collider_rules_fire_on_ancestors_of_cond():
    # inner node in an(C), not just in C
    assert closure_edges("i -> s\nj -> s\ns -> c", cond="c") == {line("i", "j")}


def test_closure_is_monotone():
    rng = random.Random(3)
    for _ in range(100):
        g = random_rg(rng, rng.randint(2, 6))
        s = random_spec(rng, g)
        closed, _ = table1_closure(g, s)
        assert g.edges <= closed.edges
        assert closed.node_set == g.node_set


def test_closure_order_independent():
    rng = random.Random(5)
    for _ in range(60):
        g = random_rg(rng, rng.randint(2, 5))
        s = random_spec(rng, g)
        closed, _ = table1_closure(g, s)
        assert closure_random_order(g, s, rng) == closed


def test_spec_validation():
    with pytest.raises(SpecInvalid):
        ProjectionSpec({"a"}, {"a"})
    with pytest.raises(SpecInvalid):
        project_rg(mk("a -> b"), spec(marg="z"))
    # iterated, "ab" would name the nodes a and b, and "m1" the nodes m and 1
    for bad in ({"marg": "ab"}, {"cond": "ab"}, {"marg": "m1"}):
        with pytest.raises(SpecInvalid):
            ProjectionSpec(**bad)
    g = mk("a -> ab\nab -> b\nb -> c")
    assert project_rg(g, ProjectionSpec(marg=("ab",))) == mk("a -> b\nb -> c")


def test_trace_step_record_contract():
    gen, old = arc("a", "b"), arrow("a", "b")
    step = project.TraceStep("1", "t", gen)
    assert step._fields == ("rule", "inner", "generated", "removed")
    assert step.removed is None
    assert repr(step) == (
        "TraceStep(rule='1', inner='t', "
        "generated=Edge(kind='arc', a='a', b='b'), removed=None)"
    )
    assert step.render() == "rule=1 inner=t generated=a <-> b"
    swap = project.TraceStep("sg-step-2", None, None, removed=old)
    assert swap == project.TraceStep("sg-step-2", None, None, old)
    assert swap.render() == "rule=sg-step-2 inner=- generated=- removed=a -> b"
    again = project.TraceStep(rule="1", inner="t", generated=gen)
    assert again == step and hash(again) == hash(step) and step != swap
    assert len({step, again, swap}) == 2
    # a named tuple: equal to, and hashed like, its plain 4-tuple
    assert step == ("1", "t", gen, None) and hash(step) == hash(("1", "t", gen, None))
    assert tuple(swap) == ("sg-step-2", None, None, old) and swap[3] == old
    with pytest.raises(AttributeError):
        step.rule = "2"


def test_project_rg_identity_on_empty_spec():
    g = mk("a -> b\nb <-> c")
    assert project_rg(g, spec()) == g


def test_projection_identity_per_class():
    rng = random.Random(21)
    from mixedgraphs.generators import RANDOM_BY_CLASS
    from mixedgraphs.project import PROJECTORS

    for cls in ("rg", "sg", "ag"):
        for _ in range(40):
            g = RANDOM_BY_CLASS[cls](rng, rng.randint(2, 6))
            assert PROJECTORS[cls](g, spec()) == g, (cls, g)


def test_project_rg_gate_and_force():
    ribbon = mk("h -> i\nj -> i\ni -- k")
    with pytest.raises(NotRibbonless):
        project_rg(ribbon, spec())
    with pytest.warns(UserWarning):
        assert project_rg(ribbon, spec(), force=True) == ribbon


def test_project_rg_two_stage_fork_chain():
    g = mk("m1 -> a\nm1 -> b\nb -> c\nm2 -> c")
    assert project_rg(g, spec(marg={"m1", "m2"}, cond={"c"})) == mk("a <-> b")


def test_project_rg_conditioning_makes_line_arrow_pair():
    g = mk("3 -> 1\n2 -> 1\n3 -> 2")
    assert project_rg(g, spec(cond={"1"})) == mk("2 -- 3\n3 -> 2")


def test_rg_to_sg_single_head_removal():
    assert rg_to_sg(mk("a <-> b"), {"b"}) == mk("b -> a")


def test_rg_to_sg_double_head_removal():
    assert rg_to_sg(mk("a <-> b"), {"a", "b"}) == mk("a -- b")


def test_rg_to_sg_arrow_becomes_line():
    assert rg_to_sg(mk("a -> b"), {"b"}) == mk("a -- b")


def test_rg_to_sg_drops_duplicate_replacement():
    assert rg_to_sg(mk("2 -- 3\n3 -> 2"), {"2", "3"}) == mk("2 -- 3")


def test_rg_to_sg_rejects_unknown_nodes():
    with pytest.raises(UnknownNode, match="zz"):
        rg_to_sg(mk("a <-> b"), {"zz"})


def test_project_sg_conditioning_line_only():
    g = mk("3 -> 1\n2 -> 1\n3 -> 2")
    assert project_sg(g, spec(cond={"1"})) == mk("2 -- 3")


def test_project_sg_marginalising_common_parent():
    g = mk("3 -> 1\n2 -> 1\n3 -> 2")
    assert project_sg(g, spec(marg={"3"})) == mk("1 <-> 2\n2 -> 1")


def test_project_sg_fork_chain():
    g = mk("m1 -> a\nm1 -> b\nb -> c\nm2 -> c")
    assert project_sg(g, spec(marg={"m1", "m2"}, cond={"c"})) == mk("b -> a")


def test_project_sg_gate():
    with pytest.raises(NotSummaryGraph):
        project_sg(mk("2 -- 3\n3 -> 2"), spec())


def test_sg_to_ag_arc_with_ancestor_becomes_arrow():
    assert sg_to_ag(mk("1 <-> 2\n2 -> 1")) == mk("2 -> 1")


def test_sg_to_ag_resolves_indirect_ancestor_arc():
    g = mk("a <-> b\na -> c\nc -> b")
    out = sg_to_ag(g)
    assert out == mk("a -> b\na -> c\nc -> b")
    assert "AG" in classify(out)


def test_sg_to_ag_fixpoint_on_ancestral_input():
    for text in ("a -> b\nb -> c", "a <-> b", "a -- b\nc -- d"):
        g = mk(text)
        assert sg_to_ag(g) == g


def test_sg_to_ag_step2_generates_collider_edges():
    # j -> k <-> i with k an ancestor of i forces the j -> i arrow
    g = mk("j -> k\nk <-> i\nk -> x\nx -> i")
    out = sg_to_ag(g)
    assert arrow("j", "i") in out.edges
    assert "AG" in classify(out)


def ag_outcome(closure, g):
    """(graph, rendered trace) of an ancestral closure, or the class of the
    domain error it raised."""
    try:
        out, trace = closure(g)
    except MixedGraphError as exc:
        return type(exc), None
    return out, render_trace(trace)


class RoundSpy:
    """Wraps `project._rounds` to count each closure's rounds (the calls of
    its candidate generator) and the candidates yielded from round two on.
    With `semi_naive` set it also checks the semi-naive rule: each of those
    candidates (rule, t, lo, hi, edge) is a V at t holding an edge the round
    before added, between t and lo or hi."""

    def __init__(self, semi_naive):
        self.semi_naive = semi_naive
        self.rounds = []
        self.later = 0
        self._real = project._rounds

    def __call__(self, current, candidates):
        self.rounds.append(0)

        def checked(graph, added):
            self.rounds[-1] += 1
            if added is None:
                yield from candidates(graph, added)
                return
            ends = {frozenset((e.a, e.b)) for e in added}
            for c in candidates(graph, added):
                _rule, t, lo, hi, _gen = c
                assert not self.semi_naive or {t, lo} in ends or {t, hi} in ends, c
                self.later += 1
                yield c

        return self._real(current, checked)


def spy_rounds(monkeypatch, semi_naive):
    spy = RoundSpy(semi_naive)
    monkeypatch.setattr(project, "_rounds", spy)
    return spy


def ancestral_cases():
    """Every 3-node mixed graph, random LMGs and SGs, and the SG projections
    of 30-40-node DAGs, some of whose closures take three rounds."""
    rng = random.Random(31)
    cases = list(all_mixed_graphs(("a", "b", "c")))
    for _ in range(1000):
        p = rng.choice((0.12, 0.25, 0.4))
        cases.append(random_lmg(rng, rng.randint(2, 9), p=p))
    cases += [random_sg(rng, rng.randint(2, 9)) for _ in range(500)]
    for _ in range(60):
        g = random_dag(rng, rng.randint(30, 40), p=0.2)
        cases.append(project_sg(g, removal_spec(rng, g, 0.3, marg=0.8)))
    return cases


def test_ancestral_closure_matches_the_literal_loop(monkeypatch):
    """The one-pass closure on the input's ancestry gives the graph, trace
    or error of the loop that re-reads ancestry after every edge it adds,
    and its output keeps every node's ancestors. Its rounds after the first
    read only Vs at new edges; some closures compared run three rounds, so
    the semi-naive ones are compared past round two."""
    round_spy = spy_rounds(monkeypatch, semi_naive=True)
    fired = set()
    for g in ancestral_cases():
        out, trace = ag_outcome(sg_to_ag_traced, g)
        assert (out, trace) == ag_outcome(sg_to_ag_oracle, g), g
        if isinstance(out, MixedGraph):
            assert all(out.ancestors({v}) == g.ancestors({v}) for v in g.nodes), g
            fired.update(step.split()[0] for step in trace.splitlines())
        else:
            fired.add(out)
    assert fired == {"rule=ag-step-2", "rule=ag-step-3", NotAncestralGraph}
    assert max(round_spy.rounds) >= 3 and round_spy.later > 0


def test_ancestral_closure_without_a_step_returns_its_input():
    # an SG with no arc gives step 2 and step 3 nothing to read: the closure
    # returns its input, never builds the walk index, and the class check
    # reads the parent index the ancestry tests built
    rng = random.Random(47)
    for _ in range(200):
        sg = random_sg(rng, rng.randint(2, 9))
        g = MixedGraph(sg.nodes, [e for e in sg.edges if e.kind != "arc"])
        out, trace = sg_to_ag_traced(g)
        assert out is g and trace == [] and "_flows" not in vars(g), g
    # so does the SG strip that replaces no edge
    g = mk("a -> b\nb <-> c")
    assert rg_to_sg_traced(g, {"a"}) == (g, []) and rg_to_sg(g, {"a"}) is g


def test_sg_strip_matches_the_per_edge_rule():
    cases = [
        (g, set(anc_c))
        for g in all_mixed_graphs(("a", "b", "c"))
        for r in range(4)
        for anc_c in itertools.combinations(g.nodes, r)
    ]
    rng = random.Random(37)
    for _ in range(1000):
        g = random_lmg(rng, rng.randint(2, 9), p=rng.choice((0.12, 0.25, 0.4)))
        cases.append((g, {n for n in g.nodes if rng.random() < 0.4}))
    for g, anc_c in cases:
        assert rg_to_sg(g, anc_c) == rg_to_sg_oracle(g, anc_c), (g, anc_c)


def test_project_ag_examples():
    g = mk("3 -> 1\n2 -> 1\n3 -> 2")
    assert project_ag(g, spec(marg={"3"})) == mk("2 -> 1")
    assert project_ag(g, spec()) == g
    chain = mk("m1 -> a\nm1 -> b\nb -> c\nm2 -> c")
    assert project_ag(chain, spec(marg={"m1", "m2"}, cond={"c"})) == mk("b -> a")


def test_project_ag_gate():
    with pytest.raises(NotAncestralGraph):
        project_ag(mk("1 <-> 2\n2 -> 1"), spec())


def test_forced_project_ag_warns_once_and_gates_nothing_it_built():
    # a -> b -- c is no AG (nor an SG): the forced entry point warns once,
    # the closure of its own SG-stage output is not checked again, and the
    # result, still holding the line with a head at b, is not ancestral
    g = mk("a -> b\nb -- c\nc -> d\nd <-> e")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NotAncestralGraph):
            project_ag(g, spec(), force=True)
    assert [(w.category, str(w.message)) for w in caught] == [
        (UserWarning, "projecting a graph that is not an ancestral graph")
    ]


def test_forced_warnings_point_at_the_caller():
    # every entry point, traced or not, warns once about a forced input, at
    # the line that called it
    ribbon = mk("h -> i\nj -> i\ni -- k")
    for f in (
        project_rg,
        project_sg,
        project_ag,
        project_rg_traced,
        project_sg_traced,
        project_ag_traced,
        sg_to_ag,
    ):
        args = (ribbon,) if f is sg_to_ag else (ribbon, spec())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                f(*args, force=True)
            except NotAncestralGraph:
                pass
        assert [w.filename for w in caught] == [__file__], f.__name__


def test_project_ag_equals_composition():
    rng = random.Random(7)
    for _ in range(60):
        g = random_dag(rng, rng.randint(2, 6))
        s = random_spec(rng, g)
        assert project_ag(g, s) == sg_to_ag(project_sg(g, s))


def test_class_closure_small():
    rng = random.Random(9)
    for _ in range(80):
        g = random_dag(rng, rng.randint(2, 6))
        s = random_spec(rng, g)
        assert "RG" in classify(project_rg(g, s))
        assert "SG" in classify(project_sg(g, s))
        assert "AG" in classify(project_ag(g, s))


def test_traces_replay_to_the_output():
    rng = random.Random(11)
    for traced in (project_rg_traced, project_sg_traced, project_ag_traced):
        for _ in range(40):
            g = random_dag(rng, rng.randint(2, 6))
            s = random_spec(rng, g)
            out, trace = traced(g, s)
            assert replay_trace(g, s, trace) == out


def test_stages_share_their_input_node_orders():
    # a stage that builds its graph over its input's nodes hands over the
    # input's node tuple and set instead of sorting them again
    from mixedgraphs.witness import maximalize

    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    closed, _trace = table1_closure(g, spec(cond={"c"}))
    for out in (closed, rg_to_sg(g, {"a"}), sg_to_ag(g), maximalize(g)):
        assert out != g and out.nodes is g.nodes and out.node_set is g.node_set


def test_stage_one_hands_its_graph_over_in_canonical_order():
    # the Lemma-1 route builds its graph with sorted node and edge tuples and
    # reads its trace off them, so the SG strip's first round sorts nothing,
    # and a DAG, tagged RG by the gate, never runs the ribbon search
    rng = random.Random(23)
    inputs = []
    for k in range(240):
        dag = k % 2 == 1
        g = random_dag(rng, rng.randint(3, 12)) if dag else random_rg(rng, 8)
        s = random_spec(rng, g)
        inputs.append((g, s, dag))
        doc = parse_graph(serialize_graph(document_for(g, s.marg, s.cond)))
        inputs.append((doc.graph(), ProjectionSpec(doc.marg, doc.cond), dag))
    calls = []

    def counting_key(e):
        calls.append(e)
        return edge_sort_key(e)

    searched = 0
    for g, s, dag in inputs:
        if _signature_projection(g, s, g.node_set - s.removed) is None:
            continue
        searched += 1
        projected, anc_c, trace = _generate(g, s)
        assert "_sorted_edges" in vars(projected)
        edges = projected._sorted_edges
        assert edges == tuple(sorted(projected.edges, key=edge_sort_key))
        assert projected.nodes == tuple(sorted(projected.node_set))
        order = {e: k for k, e in enumerate(edges)}
        at = [order[step.generated] for step in trace]
        assert at == sorted(at)
        with mock.patch("mixedgraphs.project.edge_sort_key", counting_key):
            calls.clear()
            _out, sg_trace = rg_to_sg_traced(projected, anc_c)
            # only a later round's new edges are sorted
            assert len(calls) == sum(step.generated is not None for step in sg_trace)
            calls.clear()
            rg_to_sg_traced(projected, ())
            assert not calls
        if dag:
            for project in (project_rg, project_sg, project_ag):
                project(g, s)
            assert "ribbons" not in vars(g) and "is_ribbonless" not in vars(g)
    assert searched > 450


def test_trace_render_format():
    g = mk("m -> i\nj -> m")
    _out, trace = project_rg_traced(g, spec(marg={"m"}))
    text = render_trace(trace)
    assert text == "rule=1 inner=m generated=j -> i\n"


def test_rendered_traces_of_every_stage():
    # the Lemma-1 steps, both SG strip rounds and both AG steps, byte for byte
    cases = (
        # at t two edges leave into j with a head there; the tail exit wins,
        # so the witness V is i -> t -> j (row 1), not i -> t <-> j (row 8)
        (
            project_rg_traced,
            "i -> t\nt -> j\nt <-> j",
            spec(marg={"t"}),
            "rule=1 inner=t generated=i -> j\n",
        ),
        # the arc's strip makes a -> b, which the second round strips into
        # the line that rule 10 already generated
        (
            project_sg_traced,
            "a <-> b\na -> c\nb -> c\nc -> s",
            spec(cond={"s"}),
            "rule=10 inner=c generated=a -- b\n"
            "rule=sg-step-2 inner=- generated=a -> b removed=a <-> b\n"
            "rule=sg-step-2 inner=- generated=a -- c removed=a -> c\n"
            "rule=sg-step-2 inner=- generated=b -- c removed=b -> c\n"
            "rule=sg-step-2 inner=- generated=- removed=a -> b\n",
        ),
        (
            project_ag_traced,
            "m -> a\nm -> k\nk -> b\nn -> k\nn -> b\nb -> s",
            spec(marg={"m", "n"}),
            "rule=4 inner=m generated=a <-> k\n"
            "rule=4 inner=n generated=b <-> k\n"
            "rule=ag-step-2 inner=k generated=a <-> b\n"
            "rule=ag-step-3 inner=- generated=- removed=b <-> k\n",
        ),
    )
    for traced, text, s, want in cases:
        g = mk(text)
        out, trace = traced(g, s)
        assert render_trace(trace) == want, text
        assert replay_trace(g, s, trace) == out, text
    # the first round strips arcs before arrows; the second reads only the
    # two arrows the first generated, in edge order
    _out, trace = rg_to_sg_traced(mk("c <-> d\na <-> b\nb -> c"), "abcd")
    assert render_trace(trace) == (
        "rule=sg-step-2 inner=- generated=a -> b removed=a <-> b\n"
        "rule=sg-step-2 inner=- generated=c -> d removed=c <-> d\n"
        "rule=sg-step-2 inner=- generated=b -- c removed=b -> c\n"
        "rule=sg-step-2 inner=- generated=a -- b removed=a -> b\n"
        "rule=sg-step-2 inner=- generated=c -- d removed=c -> d\n"
    )


def test_closure_walk_signature_divergence_regression():
    # On this multi-edge RG the closure generates d -> b: the signature is
    # realized by the m-connecting walk d -> a <-> d <-> b (a in C enables
    # the collider at a), but by no simple path. The walk-based signature
    # oracle must agree with the closure; the strict path reading must not.
    g = mk("a <-> d\nb <-> d\na -> b\nd -> a\nd -> e\ne -> b")
    assert "RG" in classify(g)
    s = spec(marg={"c"}, cond={"a"})
    g = MixedGraph(set(g.nodes) | {"c"}, g.edges)
    out = project_rg(g, s)
    assert arrow("d", "b") in out.edges
    walk_sigs = endpoint_identical_connection(g, "b", "d", {"c"}, {"a"})
    assert signature_edges(walk_sigs, "b", "d") >= {arrow("d", "b"), arc("b", "d")}
    strict = path_signatures(g, "b", "d", {"c"}, {"a"})
    assert signature_edges(strict, "b", "d") == {arc("b", "d")}


def test_lemma1_signature_match_small():
    rng = random.Random(13)
    for _ in range(120):
        g = random_rg(rng, rng.randint(2, 5))
        s = random_spec(rng, g)
        out = project_rg(g, s)
        nodes = out.nodes
        for pos, i in enumerate(nodes):
            for j in nodes[pos + 1 :]:
                expected = signature_edges(
                    endpoint_identical_connection(g, i, j, s.marg, s.cond), i, j
                )
                actual = {e for e in out.edges if {e.a, e.b} == {i, j}}
                assert expected == actual, (g, s, i, j)


def test_separation_stability_theorems():
    # separation queries against the projection equal queries against the
    # input with the conditioning sets pooled, for all three classes
    rng = random.Random(19)
    from mixedgraphs.generators import RANDOM_BY_CLASS
    from mixedgraphs.msep import m_separated
    from mixedgraphs.project import PROJECTORS

    for cls in ("rg", "sg", "ag"):
        for _ in range(60):
            g = RANDOM_BY_CLASS[cls](rng, rng.randint(2, 6))
            s = random_spec(rng, g)
            projected = PROJECTORS[cls](g, s)
            survivors = sorted(projected.node_set)
            if len(survivors) < 2:
                continue
            rng.shuffle(survivors)
            A = set(survivors[:1])
            B = set(survivors[1 : 1 + rng.randint(1, 2)])
            C1 = set(survivors[3 : 3 + rng.randint(0, 2)])
            left = m_separated(projected, A, B, C1)
            right = m_separated(g, A, B, s.cond | C1)
            assert left == right, (cls, g, s, A, B, C1)



# --- the signature route against the Table-1 closure ------------------------


def closure_pipeline(h, s):
    """The projections by the closure alone: the closure, restriction to the
    survivors, an(C) in the closed graph, the SG strip, the AG closure."""
    closed, _trace = table1_closure(h, s)
    survivors = h.node_set - s.removed
    rg = closed.induced_subgraph(survivors)
    sg = rg_to_sg(rg, closed.ancestors(s.cond) & survivors)
    return {"rg": rg, "sg": sg, "ag": sg_to_ag(sg) if "AG" in h.class_tags else None}


def all_splits(nodes):
    """Every disjoint (M, C) pair over the nodes."""
    for roles in itertools.product("kmc", repeat=len(nodes)):
        yield spec(
            marg={n for n, r in zip(nodes, roles) if r == "m"},
            cond={n for n, r in zip(nodes, roles) if r == "c"},
        )


def removal_spec(rng, g, fraction, marg=0.5):
    """Remove a fraction of g's nodes, each marginalised with chance marg
    and conditioned otherwise."""
    removed = rng.sample(g.nodes, round(fraction * len(g.nodes)))
    marginalised = {x for x in removed if rng.random() < marg}
    return spec(marginalised, set(removed) - marginalised)


def assert_projections_match_closure(g, s):
    """project_rg, the SG projection (forced where g is no SG) and, for an
    AG, project_ag of a ribbonless g equal the closure pipeline."""
    want = closure_pipeline(g, s)
    assert project_rg(g, s) == want["rg"], (g, s)
    assert project_sg(g, s, force=True) == want["sg"], (g, s)
    if "AG" in g.class_tags:
        assert project_ag(g, s) == want["ag"], (g, s)


@pytest.mark.filterwarnings("ignore:projecting a graph that is not a summary graph")
def test_projections_equal_the_closure_pipeline():
    for g in all_dags(("a", "b", "c")):
        for s in all_splits(g.nodes):
            assert_projections_match_closure(g, s)
    # with t marginalised, j -- t -> c generates j -> c: j is in an(C) of the
    # closed graph though no ancestor of c in the input, so x -> j loses its
    # head in the SG stage
    assert_projections_match_closure(mk("x -> j\nj -- t\nt -> c"), spec("t", "c"))
    rng = random.Random(23)
    for k in range(2100):
        g = RANDOM_BY_CLASS[("rg", "sg", "ag")[k % 3]](rng, rng.randint(2, 7))
        assert_projections_match_closure(g, random_spec(rng, g))
    g = random_dag(rng, 80, p=2.5 / 79)
    assert_projections_match_closure(g, removal_spec(rng, g, 0.7))


@pytest.mark.filterwarnings("ignore:projecting a graph that is not a summary graph")
def test_trusted_graphs_equal_validated_ones(monkeypatch):
    """Every graph the library builds unchecked, on the inputs of the
    closure-pipeline check and of the dagify and maximalize tests, equals the
    validated graph over its nodes and edges, with the same hash and walk
    index and orders: no caller hands `_trusted` a symmetric edge stored
    backwards, nor, with `ordered`, tuples out of canonical order.
    Each one also goes through a text round trip, whose parsed document
    builds its graph unchecked too."""
    from . import test_witness

    # the witness tests run here with no arguments, so none may take one
    selected = [
        (name, test)
        for name, test in vars(test_witness).items()
        if name.startswith("test_") and ("dagify" in name or "maximalize" in name)
    ]
    for name, test in selected:
        assert not inspect.signature(test).parameters, (
            f"{name} takes parameters and cannot be run with none here"
        )
    build = MixedGraph._trusted.__func__
    callers = set()

    def checked(cls, nodes, edges, ordered=False):
        out = build(cls, nodes, edges, ordered)
        want = MixedGraph(out.nodes, out.edges)
        assert out == want and hash(out) == hash(want), out
        assert out.nodes == want.nodes and out._sorted_edges == want._sorted_edges
        assert out._flows == want._flows, out
        caller = sys._getframe(1).f_code.co_name
        callers.add(caller)
        if caller != "graph":
            assert parse_graph(serialize_graph(document_for(out))).graph() == out
        return out

    monkeypatch.setattr(MixedGraph, "_trusted", classmethod(checked))
    test_projections_equal_the_closure_pipeline()
    for _name, test in selected:
        test()
    assert callers == {
        "_rounds",
        "_signature_projection",
        "induced_subgraph",
        "rg_to_sg_traced",
        "sg_to_ag_traced",
        "dagify",
        "maximalize_report",
        "graph",
    }


def test_bouncing_walk_signature_is_not_projected():
    # b -> c <-> b <- c m-connects b and c with tails at both ends (b and c
    # are colliders in an(C)), but every V on it has equal ends, so the
    # closure never generates b -- c, neither may the projection, and the
    # Lemma-1 signatures do not count such a walk
    g = mk("b <-> c\nb -> c\nc -> b\nc -> a")
    s = spec(cond={"a"})
    assert ("tail", "tail") not in endpoint_identical_connection(g, "b", "c", (), {"a"})
    want = mk("b <-> c\nb -> c\nc -> b")
    assert project_rg(g, s) == closure_pipeline(g, s)["rg"] == want


def test_signature_projection_matches_the_full_walk_oracle():
    # the Lemma-1 search, seeded only with the states a walk can leave,
    # gives the graph, the survivors in an(C) and the trace steps (or the
    # fallback) of one full predecessor walk per survivor and first mark
    cases = [
        (g, s)
        for g in all_mixed_graphs(("a", "b", "c"), multi=True)
        if g.is_ribbonless
        for s in all_splits(g.nodes)
    ]
    rng = random.Random(31)
    for k in range(2000):
        g = (random_dag, random_rg)[k % 2](rng, rng.randint(4, 9))
        cases.append((g, random_spec(rng, g)))
    fallbacks = 0
    for g, s in cases:
        survivors = g.node_set - s.removed
        want = signature_projection_oracle(g, s, survivors)
        assert _signature_projection(g, s, survivors) == want, (g, s)
        fallbacks += want is None
    assert 0 < fallbacks < len(cases) // 100


def test_larger_end_steps_an_edge_the_smaller_end_reached_from_itself():
    # a's walk a -> b <-> a <- c reaches c by stepping from a itself, so it
    # shows no V for a -- c; c's search, which comes later, gives the step
    # through the collider b in C
    g = mk("a <-> b\na -> b\nc -> a")
    s = spec(cond={"b"})
    survivors = g.node_set - s.removed
    got = _signature_projection(g, s, survivors)
    projected, anc_c, steps = got
    assert projected == mk("a -- c\nc -> a")
    assert anc_c == {"a", "c"}
    assert render_trace(steps) == "rule=10 inner=b generated=a -- c\n"
    assert got == signature_projection_oracle(g, s, survivors)


def test_signature_projection_builds_each_edge_once(monkeypatch):
    # each generated edge is found from both ends, but only the smaller
    # end's search builds it; hits on h's own edges build at most one each
    import mixedgraphs.project as project

    builds = 0

    def counting(*args):
        nonlocal builds
        builds += 1
        return signature_edge(*args)

    monkeypatch.setattr(project, "signature_edge", counting)
    for seed in (3, 4, 5):
        rng = random.Random(seed)
        g = random_dag(rng, 40, 3 / 39)
        removed = rng.sample(g.nodes, 20)
        s = spec(marg=removed[:10], cond=removed[10:])
        builds = 0
        projected, _anc_c, _steps = _signature_projection(g, s, g.node_set - s.removed)
        assert builds <= len(projected.edges), (seed, builds, len(projected.edges))


def closure_cases():
    """Every three-node multigraph under four seeded (M, C) splits, random
    LMGs, ribbonless or not, and 12-20-node LMGs that are not ribbonless,
    whose closures take three rounds or more."""
    rng = random.Random(37)
    cases = []
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        splits = list(all_splits(g.nodes))
        cases.extend((g, s) for s in rng.sample(splits, 4))
    ribbonless = 0
    for _ in range(1200):
        g = random_lmg(rng, rng.randint(4, 9), p=rng.uniform(0.03, 0.25))
        cases.append((g, random_spec(rng, g)))
        ribbonless += g.is_ribbonless
    assert 0 < ribbonless < 1200
    ribbons = 0
    while ribbons < 40:
        g = random_lmg(rng, rng.randint(12, 20), p=rng.uniform(0.1, 0.2))
        if not g.is_ribbonless:
            cases.append((g, random_spec(rng, g)))
            ribbons += 1
    return cases


def test_closure_rounds_match_the_round_loop_oracle(monkeypatch):
    # the shared round loop gives the closed graph and the rendered trace of
    # the closure's own loop; some closures compared run four rounds, so the
    # loops are compared past round two
    round_spy = spy_rounds(monkeypatch, semi_naive=False)
    fired = set()
    for g, s in closure_cases():
        closed, trace = table1_closure(g, s)
        want, want_trace = table1_closure_oracle(g, s)
        assert closed == want, (g, s)
        assert render_trace(trace) == render_trace(want_trace), (g, s)
        fired.update(step.rule for step in trace)
    assert fired == {str(rule) for rule in range(1, 11)}
    assert max(round_spy.rounds) >= 4 and round_spy.later > 0


def test_signatures_are_the_closure_edges_on_every_three_node_multigraph():
    # Lemma 1 exhaustively: on every ribbonless three-node multigraph, under
    # every (M, C) split and in both orders of each surviving pair, the
    # signatures name exactly the closure's edges between the pair
    checked = 0
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        if not g.is_ribbonless:
            continue
        for s in all_splits(g.nodes):
            survivors = sorted(g.node_set - s.removed)
            if len(survivors) < 2:
                continue
            closed, _trace = table1_closure(g, s)
            for i, j in itertools.permutations(survivors, 2):
                signatures = endpoint_identical_connection(g, i, j, s.marg, s.cond)
                want = {e for e in closed.edges if {e.a, e.b} == {i, j}}
                assert signature_edges(signatures, i, j) == want, (g, s, i, j)
                checked += 1
    assert checked == 20_646


# Table-1 rule ids by the roles of the V's two edges at its inner node.
TABLE1_ROLES = {
    1: ("IN", "OUT"),
    2: ("LINE", "OUT"),
    3: ("ARC", "LINE"),
    4: ("OUT", "OUT"),
    5: ("ARC", "OUT"),
    6: ("IN", "LINE"),
    7: ("LINE", "LINE"),
    8: ("ARC", "IN"),
    9: ("ARC", "ARC"),
    10: ("IN", "IN"),
}


def role_at(e, t):
    if e.kind in ("line", "arc"):
        return e.kind.upper()
    return "IN" if e.b == t else "OUT"


def is_table1_v(step, h, closed, s, enablers):
    """Whether step records a V <x, t, y> of the closed graph, with its
    first edge in the closure and its second in h, that generates its edge."""
    gen, t, rule = step.generated, step.inner, int(step.rule)
    if t not in (enablers if rule >= 8 else s.marg):
        return False
    for x, y in ((gen.a, gen.b), (gen.b, gen.a)):
        firsts = [e for e in closed.edges if {e.a, e.b} == {x, t}]
        seconds = [e for e in h.edges if {e.a, e.b} == {t, y}]
        for e1, e2 in itertools.product(firsts, seconds):
            roles = tuple(sorted((role_at(e1, t), role_at(e2, t))))
            if (
                e1.mark_at(x) == gen.mark_at(x)
                and e2.mark_at(y) == gen.mark_at(y)
                and roles == TABLE1_ROLES[rule]
            ):
                return True
    return False


def test_trace_steps_are_table1_vs_of_the_closed_graph():
    rng = random.Random(29)
    cases = [(g, s) for g in all_dags(("a", "b", "c")) for s in all_splits(g.nodes)]
    for k in range(1500):
        g = RANDOM_BY_CLASS[("dag", "rg", "sg")[k % 3]](rng, rng.randint(2, 7))
        cases.append((g, random_spec(rng, g)))
    for n in (40, 80):
        g = random_dag(rng, n, p=2.5 / (n - 1))
        cases.append((g, removal_spec(rng, g, 0.7)))
    steps = 0
    for g, s in cases:
        closed, _trace = table1_closure(g, s)
        enablers = s.cond | closed.ancestors(s.cond)
        _out, trace = project_rg_traced(g, s)
        for step in trace:
            assert is_table1_v(step, g, closed, s, enablers), (g, s, step.render())
            steps += 1
    assert steps > 300  # the corpus generates 450 edges
