from unittest import mock

import pytest

from mixedgraphs import independence, suites, witness
from mixedgraphs.core import MixedGraph, arc, arrow
from mixedgraphs.independence import (
    independence_model,
    marginalise_condition,
    model_equal,
)
from mixedgraphs.project import (
    PROJECTORS,
    ProjectionSpec,
    project_rg,
    project_sg,
    table1_closure,
)
from mixedgraphs.suites import (
    SUITES,
    SuiteResult,
    UnsuitableGraph,
    composition_suite,
    correspondence_suite,
    lemma1_suite,
    maximality_suite,
    stability_suite,
)
from mixedgraphs.textfmt import parse_graph
from mixedgraphs.witness import maximalize

from .helpers import (
    is_maximal_literal_oracle,
    literal_maximality_graphs,
    mk,
    model_oracle,
)


def test_suite_result_reporting():
    result = SuiteResult("stability")
    result.checked = 3
    assert result.ok
    assert result.summary() == "suite=stability checked=3 result=ok"
    result.fail("model changed", mk("a -> b"))
    assert not result.ok
    assert result.summary() == "suite=stability checked=3 result=1 counterexamples"
    assert "model changed" in result.failures[0]
    assert "a -> b" in result.failures[0]


def test_all_suites_clean_on_small_dag():
    g = mk("a -> m\nm -> b\nc -> b")
    for name, suite in SUITES.items():
        result = suite(g, seeds=4)
        assert result.ok, (name, result.failures)
        assert result.checked > 0


def test_suites_reject_unsuitable_graphs():
    ribbon = mk("h -> i\nj -> i\ni -- k")
    with pytest.raises(UnsuitableGraph):
        stability_suite(ribbon)
    with pytest.raises(UnsuitableGraph):
        composition_suite(ribbon)
    with pytest.raises(UnsuitableGraph):
        lemma1_suite(ribbon)
    with pytest.raises(UnsuitableGraph):
        maximality_suite(ribbon)
    with pytest.raises(UnsuitableGraph):
        correspondence_suite(mk("a <-> b"))


def test_suites_apply_only_matching_projectors():
    # an RG that is not an SG: only the RG stability route runs
    g = mk("a -- b\nc -> b")
    result = stability_suite(g, seeds=3)
    assert result.ok
    assert result.checked == 3


def test_maximality_suite_reads_the_literal_verdict_off_the_rows():
    # the suite reads the literal verdict off connection rows, and fails
    # when it differs from the PIP criterion; on the literal maximality
    # inputs it must pass, on maximal and non-maximal graphs
    verdicts = set()
    for g in literal_maximality_graphs():
        if "RG" not in g.class_tags:
            continue
        result = maximality_suite(g)
        assert result.ok and result.checked == 3, (g, result.failures)
        verdicts.add(is_maximal_literal_oracle(g))
    assert verdicts == {True, False}


def test_maximality_suite_enumerates_models_only_when_maximalize_adds_edges():
    # a maximal RG is its own maximalization, so its two model checks hold
    # by identity; a graph that gains an edge has both models enumerated
    for text, added, enumerations in (
        ("a -> c\nb -> c\nc -> d\nd <-> e", False, 0),
        ("a <-> q\nq <-> b\nq -> c\nc -> a", True, 2),
    ):
        g = mk(text)
        assert (maximalize(g) != g) == added
        with mock.patch.object(
            independence, "_enumerate", wraps=independence._enumerate
        ) as enumerate_:
            result = maximality_suite(g)
        assert result.ok and result.checked == 3, result.failures
        assert enumerate_.call_count == enumerations, text


def test_graph_models_count_and_compare_by_their_runs(monkeypatch):
    # with the expansion of runs into triples refused, graph models still
    # count and compare, and the maximality suite still runs, on a graph
    # whose maximalization gains the arc b <-> c (and a ribbon with it)
    g = mk("c -- d\na <-> b\na <-> c\na <-> d\nc <-> d\na -> b\nd -> b")
    maximal = maximalize(g)
    assert maximal.edges - g.edges == {arc("b", "c")}
    # a graph over the same nodes with a model of its own
    other = mk("a -> b\nc -> d")
    want = len(model_oracle(other))

    def refuse(*_args):
        raise AssertionError("the runs were expanded")

    monkeypatch.setattr(independence, "_expand", refuse)
    J, K, L = map(independence_model, (g, maximal, other))
    assert len(J) == len(K) == 0 < len(L) == want
    assert model_equal(J, K) and J == K
    assert not model_equal(J, L) and J != L
    result = maximality_suite(g)
    assert result.ok and result.checked == 3, result.failures


def test_maximality_suite_reads_each_graphs_rows_once():
    # maximalize adds an edge here, so the suite enumerates the models of the
    # 4-node input and of its output, reading each one's separation sets
    # once, and reads both literal verdicts off their singleton statements
    # with no sweep of its own: one bit-sliced walk per node with a later
    # non-adjacent node, a (for b) and b (for c) in the input, b alone in
    # the output, which joins a and b
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    real = independence._separation_sets
    with mock.patch.object(
        independence, "_separation_sets", wraps=real
    ) as model_sets, mock.patch.object(
        witness, "_separation_sets", wraps=real
    ) as sweep_sets, mock.patch.object(
        independence, "_sliced_reach", wraps=independence._sliced_reach
    ) as walks:
        result = maximality_suite(g)
    assert result.ok and result.checked == 3, result.failures
    assert model_sets.call_count == 2 and sweep_sets.call_count == 0
    assert walks.call_count == 3


def test_maximality_suite_reports_a_maximalize_that_adds_no_edge():
    # with maximalize stubbed to return its input, a non-maximal graph keeps
    # its unseparated pair, and the third check reports the output; the PIP
    # verdict is read off the same call, so the first check reports it too
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    with mock.patch("mixedgraphs.suites.maximalize", lambda h: h):
        result = maximality_suite(g)
    assert result.checked == 3
    assert [f.splitlines()[0] for f in result.failures] == [
        "PIP criterion says maximal=True, literal says False",
        "maximalize output is not pairwise Markov",
    ]


def test_maximality_suite_searches_for_pips_once():
    # maximalize's one PIP search also gives the PIP verdict, on inputs that
    # are maximal and on inputs that gain an edge
    for text, added in (
        ("a -> c\nb -> c\nc -> d\nd <-> e", False),
        ("a <-> q\nq <-> b\nq -> c\nc -> a", True),
    ):
        g = mk(text)
        with mock.patch.object(
            witness, "_pip_edges", wraps=witness._pip_edges
        ) as search:
            result = maximality_suite(g)
        assert result.ok and result.checked == 3, result.failures
        assert search.call_count == 1, text
        assert (maximalize(g) is not g) == added


def _less_first_edge(projector):
    """A wrong projector: the right output less its first edge."""

    def wrong(h, spec):
        out = projector(h, spec)
        return MixedGraph(out.nodes, out.sorted_edges()[1:])

    return wrong


def _reproducers(result):
    """(first line, parsed reproducer) of each counterexample reported."""
    out = []
    for failure in result.failures:
        message, _, text = failure.partition("\n")
        out.append((message, parse_graph(text)))
    return out


def test_suites_report_counterexamples_that_replay():
    # each projection suite, run with a projector that drops an edge, and
    # the maximality suite, with a maximalize that adds one, report
    # counterexamples whose reproducers parse back to the input and to a
    # spec under which the wrong stage shows its fault
    g = mk("a -> m\nm -> b\nc -> b\nb -> d")
    wrong_rg, wrong_sg = _less_first_edge(project_rg), _less_first_edge(project_sg)

    def model_of(projector, s):
        return independence_model(projector(g, s))

    def changes_the_model(s):
        want = marginalise_condition(independence_model(g), s.marg, s.cond)
        return not model_equal(want, model_of(wrong_rg, s))

    def splits_the_models(s):
        return not model_equal(model_of(project_rg, s), model_of(wrong_sg, s))

    def misses_a_closure_edge(s):
        closed = table1_closure(g, s)[0]
        return wrong_rg(g, s) != closed.induced_subgraph(g.node_set - s.removed)

    rg_patch = mock.patch.dict(PROJECTORS, rg=wrong_rg)
    runs = (
        (rg_patch, stability_suite, "rg projection changed", changes_the_model),
        (rg_patch, composition_suite, "rg two-stage != one-stage", lambda s: s.removed),
        (
            mock.patch.dict(PROJECTORS, sg=wrong_sg),
            correspondence_suite,
            "projections induce different models",
            splits_the_models,
        ),
        (
            mock.patch.object(suites, "project_rg", wrong_rg),
            lemma1_suite,
            "edges between",
            misses_a_closure_edge,
        ),
    )
    for patch, suite, opening, shows_fault in runs:
        with patch:
            found = _reproducers(suite(g))
        assert found, suite.__name__
        for message, doc in found:
            assert message.startswith(opening) and doc.graph() == g, message
            assert shows_fault(ProjectionSpec(doc.marg, doc.cond)), message
    maximal = mk("a -> c\nb -> c\nc -> d\nd <-> e")

    def adding_a_to_b(h):
        return MixedGraph(h.nodes, h.edges | {arrow("a", "b")})

    with mock.patch.object(suites, "maximalize", adding_a_to_b):
        found = _reproducers(maximality_suite(maximal))
    # the PIP verdict is read off the faulty output too
    assert [(message, doc.graph()) for message, doc in found] == [
        ("PIP criterion says maximal=False, literal says True", maximal),
        ("maximalize changed the independence model", maximal),
    ]
