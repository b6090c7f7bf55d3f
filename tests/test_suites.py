from unittest import mock

import pytest

from mixedgraphs import independence
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
from mixedgraphs.witness import maximalize

from .helpers import is_maximal_literal_oracle, literal_maximality_graphs, mk


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


def test_maximality_suite_reports_a_maximalize_that_adds_no_edge():
    # with maximalize stubbed to return its input, a non-maximal graph keeps
    # its unseparated pair, and the third check reports the output
    g = mk("a <-> q\nq <-> b\nq -> c\nc -> a")
    with mock.patch("mixedgraphs.suites.maximalize", lambda h: h):
        result = maximality_suite(g)
    assert result.checked == 3
    assert [f.splitlines()[0] for f in result.failures] == [
        "maximalize output is not pairwise Markov"
    ]
