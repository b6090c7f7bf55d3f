import itertools
import json
import random
import re

import pytest

from mixedgraphs.core import MixedGraph
from mixedgraphs.generators import random_lmg, random_spec
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
from mixedgraphs.msep import NotDisjoint, m_separated
from mixedgraphs.textfmt import ParseError

from .helpers import (
    all_mixed_graphs,
    marginalise_oracle,
    mk,
    model_json_oracle,
    model_oracle,
)


def S(A, B, C=()):
    return IndependenceStatement(A, B, C)


def test_statement_is_unordered_in_A_B():
    assert S("b", "a") == S("a", "b")
    assert S({"b", "c"}, {"a"}) == S({"a"}, {"b", "c"})


def test_statement_requires_nonempty_sides():
    with pytest.raises(ValueError):
        S((), ("a",))


def test_statement_requires_disjoint_sides():
    with pytest.raises(NotDisjoint):
        S("a", "a")


def test_model_of_two_isolated_nodes():
    g = MixedGraph({"a", "b"})
    assert independence_model(g).statements == {S("a", "b")}


def test_model_of_single_edge_is_empty():
    assert independence_model(mk("a -> b")).statements == frozenset()


def test_model_of_collider():
    g = mk("a -> c\nb -> c")
    assert independence_model(g).statements == {S("a", "b")}


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
    J = IndependenceModel({"a", "b", "c"}, [S("a", "b", {"c"})])
    conditioned = marginalise_condition(J, set(), {"c"})
    assert conditioned.ground == {"a", "b"}
    assert conditioned.statements == {S("a", "b")}
    marginalised = marginalise_condition(J, {"c"}, set())
    assert marginalised.statements == frozenset()


def test_marginalise_fork_loses_the_separation():
    J = independence_model(mk("m -> a\nm -> b"))
    assert marginalise_condition(J, {"m"}, set()).statements == frozenset()


def test_marginalise_condition_validation():
    J = IndependenceModel({"a", "b"}, [S("a", "b")])
    with pytest.raises(NotDisjoint):
        marginalise_condition(J, {"a"}, {"a"})
    with pytest.raises(NotInGround):
        marginalise_condition(J, {"z"}, set())


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
            assert S(e.a, e.b) not in J, g
        assert S("a", "zz") not in J and "a" not in J


def test_model_equal_and_diff():
    J1 = IndependenceModel({"a", "b"}, [])
    J2 = IndependenceModel({"a", "b"}, [S("a", "b")])
    assert model_equal(J1, J1)
    assert not model_equal(J1, J2)
    assert model_diff(J1, J2) == (frozenset({S("a", "b")}), frozenset())
    with pytest.raises(GroundMismatch):
        model_equal(J1, IndependenceModel({"a"}, []))


def test_conforms():
    g = mk("a -> b")
    assert conforms(independence_model(g), g)
    J = IndependenceModel({"a", "b"}, [S("a", "b")])
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
    ],
)
def test_malformed_model_json_names_the_field(text, field):
    with pytest.raises(ParseError, match=re.escape(field)):
        model_from_json(text)


def test_enumeration_matches_the_per_assignment_oracle(monkeypatch):
    emitted = []
    from_masks = IndependenceModel._from_masks

    def capturing(nodes, triples):
        emitted.append(list(triples))
        return from_masks(nodes, triples)

    monkeypatch.setattr(IndependenceModel, "_from_masks", staticmethod(capturing))
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
        (triples,) = emitted
        # each statement is found once: no triple repeats, with A and B taken
        # either way round
        found = {(frozenset((a, b)), c) for a, b, c in triples}
        assert len(triples) == len(found) == len(J), g
        assert J == model_oracle(g), g


def test_model_json_matches_the_stdlib_layout():
    rng = random.Random(67)
    escaped = model_from_json(
        json.dumps(
            {
                "ground": ["\u00e9", 'a"b', "x\ny", "z"],
                "statements": [
                    {"A": ["\u00e9", "z"], "B": ['a"b'], "C": ["x\ny"]},
                    {"A": ["x\ny"], "B": ["z"], "C": []},
                ],
            }
        )
    )
    models = itertools.chain(
        [IndependenceModel((), ()), independence_model(mk("a -> b")), escaped],
        map(independence_model, all_mixed_graphs(("a", "b", "c"))),
        (
            independence_model(
                random_lmg(rng, rng.randint(6, 8), p=rng.uniform(0.1, 0.4))
            )
            for _ in range(200)
        ),
    )
    for J in models:
        assert model_to_json(J) == model_json_oracle(J)
