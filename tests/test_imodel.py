import itertools
import random
import re
from unittest import mock

import pytest

from mixedgraphs import independence
from mixedgraphs.core import InvalidLabel, MixedGraph, arc, arrow, line
from mixedgraphs.generators import random_lmg, random_rg, random_spec
from mixedgraphs.independence import (
    GroundMismatch,
    IndependenceModel,
    IndependenceStatement,
    NotInGround,
    TooLarge,
    conforms,
    independence_model,
    marginalise_condition,
    model_diff,
    model_equal,
    model_from_json,
    model_to_json,
)
from mixedgraphs.msep import NotDisjoint, _path_checked, _rank_order, m_separated
from mixedgraphs.textfmt import ParseError
from mixedgraphs.witness import maximalize

from .helpers import (
    LABEL_SPLIT_TEXT,
    all_mixed_graphs,
    marginalise_oracle,
    mk,
    model_json_oracle,
    model_oracle,
    path_checked_oracle,
    path_connects,
)


def S(A, B, C=()):
    return IndependenceStatement(A, B, C)


def test_statement_is_unordered_in_A_B():
    assert S({"b"}, {"a"}) == S({"a"}, {"b"})
    assert S({"b", "c"}, {"a"}) == S({"a"}, {"b", "c"})


def test_statement_requires_nonempty_sides():
    with pytest.raises(ValueError):
        S((), ("a",))


def test_statement_requires_disjoint_sides():
    with pytest.raises(NotDisjoint):
        S({"a"}, {"a"})


@pytest.mark.parametrize("side", range(3))
def test_statement_refuses_a_bare_string(side):
    # "ab" would name the nodes a and b
    sides = [{"a"}, {"b"}, {"c"}]
    assert S(*sides).render() == "a _||_ b | c"
    sides[side] = {"ab"}
    assert "ab" in S(*sides).render()
    sides[side] = "ab"
    with pytest.raises(InvalidLabel, match=f"{'ABC'[side]} takes a collection"):
        S(*sides)


def test_model_of_two_isolated_nodes():
    g = MixedGraph({"a", "b"})
    assert independence_model(g).statements == {S({"a"}, {"b"})}


def test_model_of_single_edge_is_empty():
    assert independence_model(mk("a -> b")).statements == frozenset()


def test_model_of_collider():
    g = mk("a -> c\nb -> c")
    assert independence_model(g).statements == {S({"a"}, {"b"})}


def test_model_enumeration_bound():
    g = MixedGraph({f"n{k}" for k in range(9)})
    with pytest.raises(TooLarge):
        independence_model(g)
    assert len(independence_model(g, limit=9).ground) == 9


def test_model_matches_per_statement_msep():
    rng = random.Random(41)
    for _ in range(60):
        g = random_lmg(rng, rng.randint(2, 5), p=rng.uniform(0.05, 0.4))
        J = independence_model(g)
        nodes = g.nodes
        for assignment in itertools.product(range(4), repeat=len(nodes)):
            A = {n for n, a in zip(nodes, assignment) if a == 0}
            B = {n for n, a in zip(nodes, assignment) if a == 1}
            C = {n for n, a in zip(nodes, assignment) if a == 2}
            if not A or not B:
                continue
            assert (S(A, B, C) in J.statements) == m_separated(g, A, B, C)


def test_marginalise_condition_formula():
    J = IndependenceModel({"a", "b", "c"}, [S({"a"}, {"b"}, {"c"})])
    conditioned = marginalise_condition(J, set(), {"c"})
    assert conditioned.ground == {"a", "b"}
    assert conditioned.statements == {S({"a"}, {"b"})}
    marginalised = marginalise_condition(J, {"c"}, set())
    assert marginalised.statements == frozenset()


def test_marginalise_fork_loses_the_separation():
    J = independence_model(mk("m -> a\nm -> b"))
    assert marginalise_condition(J, {"m"}, set()).statements == frozenset()


def test_marginalise_condition_validation():
    J = IndependenceModel({"a", "b"}, [S({"a"}, {"b"})])
    with pytest.raises(NotDisjoint):
        marginalise_condition(J, {"a"}, {"a"})
    with pytest.raises(NotInGround):
        marginalise_condition(J, {"z"}, set())


def test_marginalise_condition_refuses_a_bare_string():
    J = independence_model(mk(LABEL_SPLIT_TEXT))
    assert marginalise_condition(J, {"ab"}, ()).ground == {"a", "b", "c", "x"}
    with pytest.raises(InvalidLabel, match="M takes a collection"):
        marginalise_condition(J, "ab", ())
    with pytest.raises(InvalidLabel, match="C takes a collection"):
        marginalise_condition(J, (), "ab")


def test_commutativity_of_stages():
    rng = random.Random(43)
    for _ in range(80):
        g = random_lmg(rng, rng.randint(2, 6), p=rng.uniform(0.05, 0.3))
        J = independence_model(g)
        spec = random_spec(rng, g)
        M, C = spec.marg, spec.cond
        direct = marginalise_condition(J, M, C)
        m_then_c = marginalise_condition(marginalise_condition(J, M, set()), set(), C)
        c_then_m = marginalise_condition(marginalise_condition(J, set(), C), M, set())
        assert model_equal(direct, m_then_c)
        assert model_equal(direct, c_then_m)
        assert direct.ground == g.node_set - M - C


def test_decomposition_closure():
    # <A,B|C> in J implies all <A',B'|C> for nonempty subsets
    rng = random.Random(47)
    for _ in range(40):
        g = random_lmg(rng, rng.randint(2, 5), p=rng.uniform(0.1, 0.4))
        J = independence_model(g)
        for s in J.statements:
            for ka in range(1, len(s.A) + 1):
                for kb in range(1, len(s.B) + 1):
                    for A2 in itertools.combinations(sorted(s.A), ka):
                        for B2 in itertools.combinations(sorted(s.B), kb):
                            assert S(A2, B2, s.C) in J.statements


def _random_graphs(rng, count):
    """Every three-node multigraph, then random 4-7-node multigraphs, ribbons
    included."""
    yield from all_mixed_graphs(("a", "b", "c"))
    for _ in range(count):
        yield random_lmg(rng, rng.randint(4, 7), p=rng.uniform(0.05, 0.35))


def test_marginalise_condition_matches_the_statement_filter():
    rng = random.Random(71)
    for g in _random_graphs(rng, 150):
        J = independence_model(g)
        # a sample of J is a model that no graph need induce
        sample = IndependenceModel(
            J.ground, [s for s in J.statements if rng.random() < 0.5]
        )
        for model in (J, sample):
            spec = random_spec(rng, g)
            for M, C in ((spec.marg, spec.cond), ((), ()), ((), spec.marg)):
                got = marginalise_condition(model, M, C)
                want = marginalise_oracle(model, M, C)
                assert got == want and got.statements == want.statements, (g, M, C)


def _splits(nodes, most=3):
    """Every disjoint (M, C) over at most `most` of the nodes."""
    for r in range(most + 1):
        for removed in itertools.combinations(nodes, r):
            for roles in itertools.product((0, 1), repeat=r):
                yield (
                    {v for v, x in zip(removed, roles) if not x},
                    {v for v, x in zip(removed, roles) if x},
                )


def test_sliced_marginals_match_the_filter_and_the_oracle():
    # a model from a graph is sliced: only its C ∪ D conditioning sets are
    # enumerated; the same statements in a model with no graph are filtered
    rng = random.Random(79)
    for g in _random_graphs(rng, 30):
        J = independence_model(g)
        rebuilt = IndependenceModel(g.node_set, J.statements)
        for M, C in _splits(g.nodes):
            sliced = marginalise_condition(J, M, C)
            filtered = marginalise_condition(rebuilt, M, C)
            want = marginalise_oracle(rebuilt, M, C)
            assert sliced == filtered == want, (g, M, C)
            assert sliced.nodes == filtered.nodes == want.nodes, (g, M, C)
            assert model_to_json(sliced) == model_to_json(want), (g, M, C)


def test_graph_models_enumerate_on_first_read(monkeypatch):
    # a model from a graph, and a slice of one, reads its separation sets
    # once, when it is first read, and a slice reads only its own
    calls = []
    separation_sets = independence._separation_sets

    def counting(g, fixed, drop):
        calls.append((fixed, drop))
        return separation_sets(g, fixed, drop)

    monkeypatch.setattr(independence, "_separation_sets", counting)
    g = mk("a -> c\nb -> c\nc -> d")
    J = independence_model(g)
    sliced = marginalise_condition(J, {"d"}, {"c"})
    assert calls == []
    assert sliced.statements == frozenset()
    assert calls == [(0b0100, 0b1100)]
    assert len(J) == len(J.triples) and calls[1:] == [(0, 0)]
    assert marginalise_condition(J, {"d"}, {"c"}) == sliced
    assert calls[2:] == [(0b0100, 0b1100)]


def test_graph_walk_tables_are_built_once():
    # the ancestry and walk exits of a graph-backed model's slices come from
    # the graph's tables: a second slice asks for no ancestry at all
    J = independence_model(mk("a -> c\nb -> c\nc -> d\nd <-> e\na -- b"))
    walk = MixedGraph.ancestors
    with mock.patch.object(
        MixedGraph, "ancestors", autospec=True, side_effect=walk
    ) as anc:
        first = marginalise_condition(J, {"e"}, {"c"})
        len(first)
        calls = anc.call_count
        second = marginalise_condition(J, {"a"}, {"d"})
        len(second)
    assert calls > 0 and anc.call_count == calls
    assert first == marginalise_oracle(J, {"e"}, {"c"})
    assert second == marginalise_oracle(J, {"a"}, {"d"})


def test_too_large_is_raised_before_any_enumeration(monkeypatch):
    def refuse(*_args):
        raise AssertionError("the model was enumerated")

    monkeypatch.setattr(independence, "_enumerate", refuse)
    monkeypatch.setattr(independence, "_separation_sets", refuse)
    g = MixedGraph({f"n{k}" for k in range(9)})
    with pytest.raises(TooLarge):
        independence_model(g)
    with pytest.raises(TooLarge):
        independence_model(mk("a -> b"), limit=1)
    independence_model(g, limit=9)


def test_models_from_json_marginalise_by_the_filter(monkeypatch):
    rng = random.Random(81)
    models = [
        model_from_json(model_to_json(independence_model(g)))
        for g in (
            random_lmg(rng, rng.randint(4, 7), p=rng.uniform(0.05, 0.35))
            for _ in range(20)
        )
    ]

    def refuse(*_args):
        raise AssertionError("the model was enumerated")

    monkeypatch.setattr(independence, "_enumerate", refuse)
    for J in models:
        for M, C in _splits(J.nodes, 2):
            got = marginalise_condition(J, M, C)
            want = marginalise_oracle(J, M, C)
            assert got == want and got.nodes == want.nodes, (J, M, C)


def test_rebuilt_models_equal_the_enumerated_one():
    rng = random.Random(73)
    for g in _random_graphs(rng, 150):
        J = independence_model(g)
        for rebuilt in (
            IndependenceModel(g.node_set, J.statements),
            model_from_json(model_to_json(J)),
        ):
            assert rebuilt == J and hash(rebuilt) == hash(J), g
            assert model_equal(rebuilt, J) and len(rebuilt) == len(J), g
            assert rebuilt.statements == J.statements, g
        assert all(s in J for s in J.statements), g
        for e in g.edges:
            assert S({e.a}, {e.b}) not in J, g
        assert S({"a"}, {"zz"}) not in J and "a" not in J


def _mutant(rng, g):
    """g with one random edge dropped, added, or turned into an edge of a
    random kind between the same ends, which keeps the adjacencies."""
    edges = set(g.edges)
    make = rng.choice((line, arc, arrow))
    if edges and rng.random() < 0.6:
        e = rng.choice(sorted(edges))
        edges.remove(e)
        if rng.random() < 0.5:
            edges.add(make(*rng.sample((e.a, e.b), 2)))
    else:
        edges.add(make(*rng.sample(g.nodes, 2)))
    return MixedGraph(g.nodes, edges)


def test_equality_by_separation_sets_agrees_with_equality_by_triples():
    # graph models and their slices share one table of Cs per node count
    # and compare by their separation sets: on random graphs against their
    # one-edge mutants, and on random RGs against their maximalizations,
    # that agrees with comparing the triples, and with comparing each
    # against the JSON round trip of the other, which holds a table of its
    # own and compares by triples
    rng = random.Random(103)
    pairs = []
    for _ in range(120):
        g = random_lmg(rng, rng.randint(3, 6), p=rng.uniform(0.1, 0.4))
        pairs.append((g, _mutant(rng, g)))
    for _ in range(40):
        g = random_rg(rng, rng.randint(4, 7))
        pairs.append((g, maximalize(g)))
    verdicts = []
    for g, h in pairs:
        J1, J2 = independence_model(g), independence_model(h)
        spec = random_spec(rng, g)
        for K1, K2 in (
            (J1, J2),
            (
                marginalise_condition(J1, spec.marg, spec.cond),
                marginalise_condition(J2, spec.marg, spec.cond),
            ),
        ):
            by_runs = model_equal(K1, K2)
            assert K1._cs is K2._cs
            assert (K1 == K2) == by_runs == (K1.triples == K2.triples), (g, h)
            round_trip = model_from_json(model_to_json(K2))
            assert round_trip._cs is not K1._cs
            assert (K1 == round_trip) == model_equal(K1, round_trip) == by_runs
            assert (round_trip == K1) == by_runs, (g, h)
            verdicts.append(by_runs)
    assert 50 < sum(verdicts) < len(verdicts) - 50
    # the models of every three-node multigraph and one random slice of
    # each: grouping them by their separation sets and by their triples
    # gives one partition; each model equals the first of its group, and
    # the firsts differ
    models = []
    for g in all_mixed_graphs(("a", "b", "c")):
        J = independence_model(g)
        spec = random_spec(rng, g)
        models += [J, marginalise_condition(J, spec.marg, spec.cond)]
    by_sets, by_triples = {}, {}
    for k, J in enumerate(models):
        by_sets.setdefault((J.ground, tuple(map(tuple, J._pairs))), []).append(k)
        by_triples.setdefault((J.ground, J.triples), []).append(k)
    assert sorted(by_sets.values()) == sorted(by_triples.values())
    firsts = [models[group[0]] for group in by_triples.values()]
    assert len(firsts) > 10
    for first, group in zip(firsts, by_triples.values()):
        assert all(models[k] == first for k in group)
    assert not any(J == K for J, K in itertools.combinations(firsts, 2))


def _split_of(rng, nodes):
    """A random disjoint (M, C) over the nodes."""
    roles = {v: rng.randrange(3) for v in nodes}
    return (
        {v for v, r in roles.items() if r == 1},
        {v for v, r in roles.items() if r == 2},
    )


def test_slices_of_slices_are_one_lazy_slice(monkeypatch):
    # the operator composes, so a slice of a slice of a graph model is one
    # slice of the graph: reading it makes one `_separation_sets` call with
    # the composed masks, and nothing is filtered. It equals the one-step
    # marginal and the statement-by-statement oracle applied twice
    calls = []
    separation_sets = independence._separation_sets

    def counting(g, fixed, drop):
        calls.append((fixed, drop))
        return separation_sets(g, fixed, drop)

    def refuse(*_args):
        raise AssertionError("a slice was filtered")

    rng = random.Random(109)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        (
            random_lmg(rng, rng.randint(4, 7), p=rng.uniform(0.05, 0.35))
            for _ in range(60)
        ),
    )
    for g in graphs:
        M1, C1 = _split_of(rng, g.nodes)
        M2, C2 = _split_of(rng, sorted(g.node_set - M1 - C1))
        J = independence_model(g)
        with monkeypatch.context() as patch:
            patch.setattr(independence, "_separation_sets", counting)
            patch.setattr(IndependenceModel, "_from_masks", refuse)
            calls.clear()
            twice = marginalise_condition(marginalise_condition(J, M1, C1), M2, C2)
            assert calls == []
            len(twice)
        fixed = sum(g._bit[v] for v in C1 | C2)
        assert calls == [(fixed, fixed | sum(g._bit[v] for v in M1 | M2))], g
        once = marginalise_condition(J, M1 | M2, C1 | C2)
        oracle = marginalise_oracle(marginalise_oracle(J, M1, C1), M2, C2)
        assert twice == once == oracle and twice.nodes == oracle.nodes, g
        assert twice.triples == once.triples == oracle.triples, g


def test_membership_reads_one_run(monkeypatch):
    # membership finds the run of the statement's side pair and the rank of
    # its C by bisection and reads one bit: no run is expanded into triples
    J = independence_model(mk("a -> c\nb -> c\nc -> d\nd <-> e"))
    round_trip = model_from_json(model_to_json(J))

    def refuse(*_args):
        raise AssertionError("the runs were expanded")

    monkeypatch.setattr(independence, "_expand", refuse)
    for model in (J, round_trip):
        assert S({"a"}, {"b"}) in model and S({"b"}, {"a"}, {"e"}) in model
        assert S({"a"}, {"e"}) in model and S({"a", "b"}, {"e"}) in model
        assert S({"a"}, {"b"}, {"d"}) not in model
        assert S({"a"}, {"e"}, {"d"}) not in model
        assert S({"a"}, {"c"}) not in model and S({"d"}, {"e"}) not in model
        assert S({"a"}, {"zz"}) not in model and "a" not in model


def test_membership_agrees_with_the_triples():
    # on graph models, their JSON round trips and their marginals: random
    # statements are held exactly when their triples are, and every held
    # statement is found
    rng = random.Random(107)
    for g in _random_graphs(rng, 100):
        J = independence_model(g)
        spec = random_spec(rng, g)
        for model in (
            J,
            model_from_json(model_to_json(J)),
            marginalise_condition(J, spec.marg, spec.cond),
        ):
            for _ in range(20):
                roles = [rng.randrange(4) for _ in model.nodes]
                A, B, C = (
                    {v for v, r in zip(model.nodes, roles) if r == k} for k in range(3)
                )
                if A and B:
                    s = S(A, B, C)
                    assert (s in model) == (model._triple(s) in model.triples), g
            assert all(s in model for s in model.statements), g


def test_models_over_a_wide_ground_hold_a_table_of_their_own_cs():
    # a model from statements over 40 nodes whose Cs hold the last node:
    # a table of all 2^40 Cs would not fit, so it holds only the Cs it names
    nodes = [f"n{k:02d}" for k in range(40)]
    last = nodes[-1]
    statements = [
        S({"n00"}, {"n01"}, {last}),
        S({"n00"}, {"n01"}, {"n05", last}),
        S({"n02", "n03"}, {"n10"}, {last}),
        S({"n07"}, {"n38"}, {last}),
    ]
    J = IndependenceModel(nodes, statements)
    assert len(J) == 4 and len(J._cs) == 2
    text = model_to_json(J)
    assert text == model_json_oracle(J)
    K = model_from_json(text)
    assert K._cs is not J._cs and model_to_json(K) == text
    assert K == J and model_equal(K, J) and hash(K) == hash(J)
    fewer = IndependenceModel(nodes, statements[1:])
    assert fewer != J and not model_equal(fewer, J) and len(fewer) == 3
    assert all(s in J for s in statements)
    assert S({"n00"}, {"n01"}) not in J
    assert S({"n00"}, {"n02"}, {last}) not in J
    assert S({"n00"}, {"n01"}, {"n06", last}) not in J
    marginal = marginalise_condition(J, {"n05"}, {last})
    assert marginal == marginalise_oracle(J, {"n05"}, {last})
    assert marginal.sorted_statements() == [
        S({"n00"}, {"n01"}),
        S({"n02", "n03"}, {"n10"}),
        S({"n07"}, {"n38"}),
    ]
    assert S({"n07"}, {"n38"}) in marginal and len(marginal) == 3


def test_model_equal_and_diff():
    J1 = IndependenceModel({"a", "b"}, [])
    J2 = IndependenceModel({"a", "b"}, [S({"a"}, {"b"})])
    assert model_equal(J1, J1)
    assert not model_equal(J1, J2)
    assert model_diff(J1, J2) == (frozenset({S({"a"}, {"b"})}), frozenset())
    with pytest.raises(GroundMismatch):
        model_equal(J1, IndependenceModel({"a"}, []))


def test_models_reject_foreign_statements_and_grounds():
    with pytest.raises(NotInGround):
        IndependenceModel({"a", "b"}, [S({"a"}, {"z"})])
    with pytest.raises(GroundMismatch):
        model_diff(IndependenceModel({"a", "b"}, []), IndependenceModel({"a"}, []))


def test_conforms():
    g = mk("a -> b")
    assert conforms(independence_model(g), g)
    J = IndependenceModel({"a", "b"}, [S({"a"}, {"b"})])
    assert not conforms(J, g)
    assert conforms(IndependenceModel({"a", "b"}, []), g)
    with pytest.raises(GroundMismatch):
        conforms(J, mk("a -> c"))


def test_conformity_holds_for_every_graph_model():
    rng = random.Random(53)
    for _ in range(50):
        g = random_lmg(rng, rng.randint(2, 5), p=0.25)
        assert conforms(independence_model(g), g)


def test_stability_oracle_on_seven_node_dags():
    # model-level stability spot check at the top of the enumeration range
    import random as _random

    from mixedgraphs.generators import random_dag, random_spec
    from mixedgraphs.project import project_rg

    rng = _random.Random(59)
    for _ in range(10):
        g = random_dag(rng, 7)
        spec = random_spec(rng, g)
        expected = marginalise_condition(independence_model(g), spec.marg, spec.cond)
        assert model_equal(expected, independence_model(project_rg(g, spec)))


def test_json_round_trip_and_stability():
    g = mk("a -> c\nb -> c\nc -> d")
    J = independence_model(g)
    text = model_to_json(J)
    assert model_equal(model_from_json(text), J)
    assert model_to_json(model_from_json(text)) == text


@pytest.mark.parametrize(
    "text, field",
    [
        ("[]", "must be a JSON object"),
        ('{"statements": []}', "missing field 'ground'"),
        ('{"ground": ["a"]}', "missing field 'statements'"),
        ('{"ground": "ab", "statements": []}', "'ground' must be a list of strings"),
        ('{"ground": ["a"], "statements": [["a"]]}', "must be a list of objects"),
        (
            '{"ground": ["a", "b"], "statements": [{"A": "a", "B": ["b"]}]}',
            "statements[0]: field 'A' must be a list of strings",
        ),
        (
            '{"ground": ["a", "b"], "statements": [{"A": ["a"]}]}',
            "statements[0]: missing field 'B'",
        ),
        (
            '{"ground": ["a", "b"], "statements": [{"A": [], "B": ["b"]}]}',
            "statements[0]: sides A and B must be nonempty",
        ),
        ('{"ground": [', "line 1, col 13"),
        (
            '{"ground": ["a b", "c"], "statements": [{"A": ["a b"], "B": ["c"]}]}',
            "ground: bad node label 'a b'",
        ),
        (
            '{"ground": ["a", "b"], "statements": ['
            '{"A": ["a"], "B": ["b"]}, {"A": ["a"], "B": ["b"], "C": ["a"]}]}',
            "statements[1]: statement sides must be pairwise disjoint",
        ),
    ],
)
def test_malformed_model_json_names_the_field(text, field):
    with pytest.raises(ParseError, match=re.escape(field)):
        model_from_json(text)


def test_enumeration_matches_the_per_assignment_oracle(monkeypatch):
    emitted = []
    enumerate_triples = independence._enumerate

    def capturing(sep):
        runs = enumerate_triples(sep)
        emitted.append((len(sep), list(runs)))
        return runs

    monkeypatch.setattr(independence, "_enumerate", capturing)
    # multi-edge and non-ribbonless graphs included: the random draws fill
    # each of the four edge slots per pair independently
    rng = random.Random(61)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        (
            random_lmg(rng, rng.randint(4, 6), p=rng.uniform(0.05, 0.35))
            for _ in range(300)
        ),
    )
    for g in graphs:
        emitted.clear()
        J = independence_model(g)
        len(J)  # the model is enumerated when first read
        ((f, runs),) = emitted
        assert f == len(g.nodes) and all(sets for _a, _b, sets in runs), g
        assert len({(a, b) for a, b, _sets in runs}) == len(runs), g
        triples = independence._expand(_rank_order(f)[0], runs)
        # each statement is found once: no triple repeats, with A and B taken
        # either way round
        found = {(frozenset((a, b)), c) for a, b, c in triples}
        assert len(triples) == len(found) == len(J), g
        assert J == model_oracle(g), g


def test_graph_models_and_marginals_come_out_in_key_order(monkeypatch):
    # a model from a graph, and a marginal of one, list their statements in
    # key order as enumerated: in the order of the sorted oracle statements,
    # with no sort on the way, in the enumeration or in `model_to_json`
    def refuse(*_args, **_kwargs):
        raise AssertionError("the statements were sorted")

    rng = random.Random(87)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        (
            random_lmg(rng, rng.randint(4, 6), p=rng.uniform(0.05, 0.35))
            for _ in range(60)
        ),
    )
    for g in graphs:
        oracle = model_oracle(g)
        spec = random_spec(rng, g)
        marginal_oracle = marginalise_oracle(oracle, spec.marg, spec.cond)
        with monkeypatch.context() as patch:
            patch.setattr(independence, "sorted", refuse, raising=False)
            J = independence_model(g)
            text = model_to_json(J)
            marginal = marginalise_condition(J, spec.marg, spec.cond)
            marginal_text = model_to_json(marginal)
            ordered = J.sorted_statements()
            marginal_ordered = marginal.sorted_statements()
        assert ordered == sorted(oracle.statements), g
        assert marginal_ordered == sorted(marginal_oracle.statements), (g, spec)
        assert text == model_json_oracle(oracle), g
        assert marginal_text == model_json_oracle(marginal_oracle), (g, spec)


def test_model_json_matches_the_stdlib_layout():
    rng = random.Random(67)
    # labels the graph grammar, and so `model_from_json`, rejects still
    # write as the stdlib writes them
    escaped = IndependenceModel(
        ["\u00e9", 'a"b', "x\ny", "z"],
        [S({"\u00e9", "z"}, {'a"b'}, {"x\ny"}), S({"x\ny"}, {"z"})],
    )
    graphs = [
        random_lmg(rng, rng.randint(6, 8), p=rng.uniform(0.1, 0.4))
        for _ in range(200)
    ]
    # a model from statements holds a table of only the Cs it names
    wide = IndependenceModel(
        [f"n{k}" for k in range(20)],
        [
            S({"n3", "n12"}, {"n19"}, {"n0"}),
            S({"n3"}, {"n12", "n19"}),
            S({"n2"}, {"n10"}),
        ],
    )
    models = itertools.chain(
        [IndependenceModel((), ()), independence_model(mk("a -> b")), escaped, wide],
        map(independence_model, all_mixed_graphs(("a", "b", "c"))),
        map(independence_model, graphs),
        # marginals enumerated as slices of unread models
        (
            marginalise_condition(independence_model(g), spec.marg, spec.cond)
            for g in graphs
            for spec in [random_spec(rng, g)]
        ),
    )
    for J in models:
        assert model_to_json(J) == model_json_oracle(J)


def _rows_match_the_paths(g):
    """Per pair i < j and C clear of both, <{i},{j}|C> is in J_m(g) exactly
    when no simple path m-connects i and j given C."""
    J = independence_model(g)
    for i, j in itertools.combinations(g.nodes, 2):
        rest = sorted(g.node_set - {i, j})
        for k in range(len(rest) + 1):
            for C in itertools.combinations(rest, k):
                M = g.node_set - {i, j} - set(C)
                separated = not path_connects(g, i, j, M, C)
                assert (S({i}, {j}, C) in J) == separated, (g, i, j, C)


def test_connection_rows_on_non_ribbonless_graphs():
    # a stored path for a and b stops connecting them under a later C: in
    # the first graph C = {y} blocks the non-collider y of a -> y -> b, found
    # under C = {}; in the second, the collider t of a -> t <- b, found under
    # C = {c}, is no ancestor of C = {y}. Under C = {y} the walk
    # a -> t -- x -- t <- b still reaches b in both.
    for text in (
        "a -> t\nb -> t\nt -- x\na -> y\ny -> b",
        "nodes: a b c t x y\na -> t\nb -> t\nt -- x\nt -> c",
    ):
        g = mk(text)
        assert not g.is_ribbonless
        assert S({"a"}, {"b"}, {"y"}) in independence_model(g)
        _rows_match_the_paths(g)
    rng = random.Random(97)
    checked = 0
    while checked < 12:
        g = random_lmg(rng, rng.randint(7, 8), p=rng.uniform(0.08, 0.16))
        if g.is_ribbonless:
            continue
        _rows_match_the_paths(g)
        checked += 1


def _conditioning_slices(g, fixed, free):
    """For C = fixed ∪ D over each D ⊆ free, a bit per C: the number of
    Cs, and per node the Cs that leave it outside C and those with it in
    C ∪ an(C)."""
    conditionings = [
        set(fixed) | set(D)
        for r in range(len(free) + 1)
        for D in itertools.combinations(free, r)
    ]
    closures = [C | g.ancestors(C) for C in conditionings]
    out = [
        sum(1 << r for r, C in enumerate(conditionings) if v not in C)
        for v in g.nodes
    ]
    col = [sum(1 << r for r, C in enumerate(closures) if v in C) for v in g.nodes]
    return len(conditionings), out, col


def _path_checks_agree(g, rng, pairs):
    """For a random split of g's nodes into fixed, marginalised and free
    ones and each pair, with a random set of Cs to check: the one-search
    path check equals the per-set oracle. Returns how many pairs the check
    joined under some C, and under fewer than all."""
    drop = {v for v in g.nodes if rng.random() < 0.4}
    fixed = {v for v in drop if rng.random() < 0.5}
    free = [v for v in g.nodes if v not in drop]
    count, out, col = _conditioning_slices(g, fixed, free)
    every = (1 << count) - 1
    joined = partly = 0
    for k, j in pairs:
        walked = every if rng.random() < 0.5 else rng.getrandbits(count)
        got = _path_checked(g, k, j, walked, out, col)
        assert got == path_checked_oracle(g, k, j, walked, out, col), (g, k, j)
        joined += bool(got)
        partly += 0 < got != walked
    return joined, partly


def test_path_check_matches_the_per_set_oracle():
    # the dual route of the one-search simple-path check: on every three-node
    # multigraph, every ordered pair; on random LMGs (ribbons included), four
    # random pairs; on a line ladder, whose many paths share their prefixes,
    # pairs from one end under every conditioning set
    rng = random.Random(101)
    joined = partly = 0
    for g in all_mixed_graphs(("a", "b", "c")):
        got = _path_checks_agree(g, rng, itertools.permutations(range(3), 2))
        joined, partly = joined + got[0], partly + got[1]
    assert joined > 1000 and partly > 100
    for _ in range(200):
        n = rng.randint(4, 8)
        g = random_lmg(rng, n, p=rng.uniform(0.1, 0.4))
        _path_checks_agree(g, rng, [rng.sample(range(n), 2) for _ in range(4)])
    u, v = ["u0", "u1", "u2"], ["v0", "v1", "v2"]
    edges = [line(u[0], u[1]), line(u[1], u[2]), line(v[0], v[1]), line(v[1], v[2])]
    edges += [line(x, y) for x, y in zip(u, v)]
    edges += [arrow("u2", "t"), arrow("b", "t"), arrow("v2", "t"), line("t", "x")]
    g = MixedGraph(u + v + ["t", "b", "x"], edges)
    count, out, col = _conditioning_slices(g, set(), g.nodes)
    assert count == 512
    every = (1 << count) - 1
    k = g.nodes.index("u0")
    for target in ("b", "t", "x", "v2"):
        j = g.nodes.index(target)
        for walked in (every, rng.getrandbits(count)):
            got = _path_checked(g, k, j, walked, out, col)
            assert got == path_checked_oracle(g, k, j, walked, out, col), target
            assert got == path_checked_oracle(g, j, k, walked, out, col), target
