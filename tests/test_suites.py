import pytest

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


def test_maximality_suite_reads_the_literal_verdict_off_the_model():
    # the suite reads the literal verdict off the models it enumerates, and
    # fails when it differs from the PIP criterion; on the literal
    # maximality inputs it must pass, on maximal and non-maximal graphs
    verdicts = set()
    for g in literal_maximality_graphs():
        if "RG" not in g.class_tags:
            continue
        result = maximality_suite(g)
        assert result.ok and result.checked == 3, (g, result.failures)
        verdicts.add(is_maximal_literal_oracle(g))
    assert verdicts == {True, False}
