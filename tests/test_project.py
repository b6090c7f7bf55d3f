import random

import pytest

from mixedgraphs.core import MixedGraph, arc, arrow, classify, line
from mixedgraphs.generators import random_dag, random_rg, random_spec
from mixedgraphs.msep import endpoint_identical_connection, signature_edges
from mixedgraphs.project import (
    NotAncestralGraph,
    NotRibbonless,
    NotSummaryGraph,
    ProjectionSpec,
    SpecInvalid,
    project_ag,
    project_ag_traced,
    project_rg,
    project_rg_traced,
    project_sg,
    project_sg_traced,
    render_trace,
    rg_to_sg,
    sg_to_ag,
    table1_closure,
)

from .helpers import closure_random_order, mk, path_signatures, replay_trace


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


def test_project_ag_examples():
    g = mk("3 -> 1\n2 -> 1\n3 -> 2")
    assert project_ag(g, spec(marg={"3"})) == mk("2 -> 1")
    assert project_ag(g, spec()) == g
    chain = mk("m1 -> a\nm1 -> b\nb -> c\nm2 -> c")
    assert project_ag(chain, spec(marg={"m1", "m2"}, cond={"c"})) == mk("b -> a")


def test_project_ag_gate():
    with pytest.raises(NotAncestralGraph):
        project_ag(mk("1 <-> 2\n2 -> 1"), spec())


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


def test_trace_render_format():
    g = mk("m -> i\nj -> m")
    _out, trace = project_rg_traced(g, spec(marg={"m"}))
    text = render_trace(trace)
    assert text == "rule=1 inner=m generated=j -> i\n"


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

