import itertools
import random
from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgraphs import core
from mixedgraphs.core import (
    Edge,
    InvalidLabel,
    LoopEdge,
    MixedGraph,
    RibbonReport,
    UnknownNode,
    arc,
    arrow,
    classify,
    line,
)
from mixedgraphs.generators import random_ag, random_dag, random_lmg, random_sg

from .helpers import (
    LABEL_SPLIT_TEXT,
    _ancestors,
    adjacency_oracle,
    all_mixed_graphs,
    class_tags_oracle,
    cycle_nodes_oracle,
    descendants_oracle,
    edges_between_oracle,
    flows_oracle,
    mk,
)


def test_make_graph_basic():
    g = MixedGraph({"a", "b"}, [arrow("a", "b")])
    assert g.nodes == ("a", "b")
    assert g.edges == frozenset({arrow("a", "b")})


def test_make_graph_dedups_repeated_edge():
    g = MixedGraph({"a", "b"}, [arrow("a", "b"), arrow("a", "b")])
    assert len(g.edges) == 1


def test_make_graph_rejects_loop():
    with pytest.raises(LoopEdge):
        MixedGraph({"a"}, [arrow("a", "a")])


def test_make_graph_rejects_unknown_endpoint():
    with pytest.raises(UnknownNode):
        MixedGraph({"a"}, [arrow("a", "b")])


@pytest.mark.parametrize(
    "edge, error",
    [
        (Edge("line", "a", 1), UnknownNode),
        (Edge("arc", 1, "a"), UnknownNode),
        (Edge("arrow", "a", ["b"]), UnknownNode),
        (("line", "a"), InvalidLabel),
        (7, InvalidLabel),
        (Edge(["line"], "a", "b"), InvalidLabel),
        (Edge("bogus", "a", "b"), InvalidLabel),
    ],
)
def test_malformed_edges_raise_domain_errors(edge, error):
    # endpoints are checked against the declared nodes before being ordered
    with pytest.raises(error):
        MixedGraph(["a", "b"], [edge])


def test_symmetric_edges_are_canonicalized():
    assert line("b", "a") == line("a", "b")
    assert arc("b", "a") == arc("a", "b")
    assert arrow("b", "a") != arrow("a", "b")


def test_local_queries():
    g = mk("a -> b\nb <-> c\nc -- a")
    assert g.parents("b") == {"a"}
    assert g.spouses("b") == {"c"}
    assert g.neighbours("a") == {"c"}
    assert g.children("a") == {"b"}


def test_two_cycle_parents():
    g = mk("a -> b\nb -> a")
    assert g.parents("a") == {"b"}
    assert g.parents("b") == {"a"}


def test_isolated_node_has_empty_sets():
    g = MixedGraph({"a"})
    assert g.parents("a") == g.neighbours("a") == g.spouses("a") == frozenset()


def test_unknown_node_query():
    with pytest.raises(UnknownNode):
        mk("a -> b").parents("z")


@pytest.mark.parametrize(
    "accessor, args",
    [
        ("parents", ("zz",)),
        ("children", ("zz",)),
        ("spouses", ("zz",)),
        ("neighbours", ("zz",)),
        ("flows", ("zz",)),
        ("adjacent", ("a", "zz")),
        ("edges_between", ("zz", "a")),
    ],
)
def test_every_node_accessor_rejects_an_unknown_node(accessor, args):
    with pytest.raises(UnknownNode):
        getattr(mk("a -> b"), accessor)(*args)


def test_ancestors_chain():
    g = mk("a -> b\nb -> c")
    assert g.ancestors({"c"}) == {"a", "b"}


def test_ancestors_only_follow_arrows():
    # arcs and lines never transmit ancestry
    g = mk("a <-> b\nb -- c")
    assert g.ancestors({"c"}) == frozenset()


def test_ancestors_on_directed_cycle_meet_targets():
    g = mk("a -> b\nb -> a")
    assert g.ancestors({"a"}) == {"a", "b"}


@pytest.mark.parametrize("query", ["ancestors", "descendants"])
def test_ancestry_refuses_a_bare_string(query):
    g = mk(LABEL_SPLIT_TEXT)
    assert g.ancestors({"ab"}) == {"x"} and g.descendants({"ab"}) == {"c"}
    with pytest.raises(InvalidLabel, match="targets takes a collection"):
        getattr(g, query)("ab")


def test_graph_refuses_a_bare_string_of_nodes():
    # "ab" would name the nodes a and b; of several bad labels, the smallest
    # by repr is named, whatever the order given
    assert MixedGraph({"ab"}).nodes == ("ab",)
    with pytest.raises(InvalidLabel, match="nodes takes a collection"):
        MixedGraph("ab")
    for labels in (["b-", "a-"], ["a-", "b-"]):
        with pytest.raises(InvalidLabel, match="bad node label 'a-'"):
            MixedGraph(labels)


def test_direction_preserving_cycles():
    assert mk("a -> b\nb -> c").cycle_nodes == frozenset()
    assert mk("a -> b\nb -> a").cycle_nodes == {"a", "b"}
    g = mk("a -> b\nb -> c\nc -> a\nd -> a")
    assert g.cycle_nodes == {"a", "b", "c"}


def test_walk_index_and_cycles_match_the_edge_set_oracles():
    rng = random.Random(1972)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        all_mixed_graphs(("a", "b", "c", "d"), multi=False),
        (
            random_lmg(rng, rng.randint(2, 12), p=rng.uniform(0.05, 0.4))
            for _ in range(1500)
        ),
    )
    for g in graphs:
        assert g._flows == flows_oracle(g), g
        for n in g.nodes:
            for query, want in adjacency_oracle(g, n).items():
                assert getattr(g, query)(n) == want, (g, n, query)
            assert g.descendants({n}) == descendants_oracle(g, n), (g, n)
            for m in g.nodes:
                between = edges_between_oracle(g, n, m)
                assert g.edges_between(n, m) == between, (g, n, m)
                assert g.adjacent(n, m) == bool(between), (g, n, m)
        assert g.cycle_nodes == cycle_nodes_oracle(g), g
        # bit j of a node's mask is set exactly when node j is its ancestor
        for n, mask in g._ancestor_masks.items():
            anc = _ancestors(g.edges, {n})
            assert mask == sum(1 << j for j, m in enumerate(g.nodes) if m in anc), (g, n)


def test_deep_directed_cycle_needs_no_recursion():
    names = [f"v{k}" for k in range(3000)]
    edges = [arrow(names[k - 1], names[k]) for k in range(3000)]
    g = MixedGraph(names + ["x"], edges + [line("v0", "x")])
    assert g.cycle_nodes == frozenset(names)
    # every cycle node has exactly the 3,000 cycle bits, and x none
    cycle = sum(g._bit[v] for v in names)
    masks = dict(g._ancestor_masks)
    assert masks.pop("x") == 0
    assert set(masks.values()) == {cycle}
    assert classify(g) == {"LMG", "RG"}


def test_induced_subgraph():
    g = mk("a -> b\nb -> c")
    assert g.induced_subgraph({"a", "b"}) == mk("a -> b")
    assert g.induced_subgraph(set()) == MixedGraph(set())
    h = mk("a <-> b\na -- c")
    assert h.induced_subgraph({"a", "c"}) == mk("a -- c")


def test_graph_equality_is_labeled():
    assert mk("a -> b") == mk("a -> b")
    assert mk("a -> b") != mk("b -> a")
    # isomorphic but differently labeled graphs are not equal
    g1 = MixedGraph({"a", "b", "c"}, [arrow("a", "b")])
    g2 = MixedGraph({"a", "b", "c"}, [arrow("a", "c")])
    assert g1 != g2


def test_ribbon_detected():
    g = mk("h -> i\nj -> i\ni -- k")
    reports = g.ribbons
    assert [(r.h, r.inner, r.j) for r in reports] == [("h", "i", "j")]
    assert reports[0] == RibbonReport("h", "i", "j", "line", "i")


def test_ribbon_blocked_by_endpoint_identical_line():
    g = mk("h -> i\nj -> i\ni -- k\nh -- j")
    assert g.ribbons == ()


def test_dag_has_no_ribbons():
    g = mk("a -> b\nb -> c\na -> c")
    assert g.ribbons == ()


def test_ribbon_via_cycle_witness():
    g = mk("h -> i\nj -> i\ni -> d\nd -> i")
    reports = g.ribbons
    assert any(r.witness_kind == "cycle" for r in reports)


def test_classify_rg_but_not_sg():
    # arrowheads pointing at a line endpoint keep a graph out of SG
    g = mk("a -- b\nc -> b\nc <-> d\nc -> d")
    tags = classify(g)
    assert "RG" in tags and "SG" not in tags


def test_classify_sg_but_not_ag():
    # an arc whose endpoint is an ancestor of the other endpoint
    g = mk("a <-> b\na -> c\nc -> b")
    tags = classify(g)
    assert "SG" in tags and "AG" not in tags


def test_classify_dag_chain():
    assert classify(mk("a -> b\nb -> c")) == {"LMG", "DAG", "RG", "SG", "AG"}


def test_classify_empty_graph_is_in_every_class():
    assert classify(MixedGraph({"a", "b"})) == {
        "LMG",
        "UG",
        "BG",
        "DAG",
        "RG",
        "SG",
        "AG",
    }


def test_classify_line_arrow_double_edge_not_sg():
    g = mk("2 -- 3\n3 -> 2")
    tags = classify(g)
    assert "RG" in tags and "SG" not in tags


def test_classify_arc_arrow_double_edge_sg_not_ag():
    g = mk("1 <-> 2\n2 -> 1")
    tags = classify(g)
    assert "SG" in tags and "AG" not in tags


names = st.sampled_from("abcdef")
edge_strategy = st.tuples(st.sampled_from(["line", "arc", "arrow"]), names, names)


def build(edge_specs):
    nodes = set("abcdef")
    edges = []
    for kind, x, y in edge_specs:
        if x == y:
            continue
        edges.append({"line": line, "arc": arc, "arrow": arrow}[kind](x, y))
    return MixedGraph(nodes, edges)


@settings(derandomize=True, database=None)
@given(st.lists(edge_strategy, max_size=14), st.sets(names), st.sets(names))
def test_ancestors_monotone_and_closed(edge_specs, s, t):
    g = build(edge_specs)
    small, big = (s, s | t)
    assert g.ancestors(small) <= g.ancestors(big)
    closure = g.ancestors(s) | s
    assert g.ancestors(closure) <= closure


@settings(derandomize=True, database=None)
@given(st.lists(edge_strategy, max_size=14))
def test_dag_tag_iff_arrows_only_acyclic(edge_specs):
    g = build(edge_specs)
    arrows_only = all(e.kind == "arrow" for e in g.edges)
    assert ("DAG" in classify(g)) == (arrows_only and not g.cycle_nodes)


def _bruteforce_ribbons(g):
    """Ribbons straight from the definition, independent of MixedGraph.ribbons:
    scan ordered pairs of edges, classify the V by raw mark lookup, then check
    the endpoint-identical blocker and the descendant witness by exhaustion,
    with de(inner) and the cycle nodes from arrow-list scans. Each V comes out
    once as (h, inner, j, kind at h, kind at j, witness kind, witness node),
    with the arrow's end first for an arrow/arc V and the smaller label first
    for two arrows or two arcs. The witness is the smallest node of
    {inner} ∪ de(inner) that touches a line, else the smallest on a cycle."""
    line_ends = {n for e in g.edges if e.kind == "line" for n in (e.a, e.b)}
    cyclic = cycle_nodes_oracle(g)
    found = []
    for t in g.nodes:
        incident = [e for e in g.edges if t in (e.a, e.b)]
        for e1, e2 in itertools.permutations(incident, 2):
            h, j = e1.other(t), e2.other(t)
            if h == j:
                continue
            if e1.mark_at(t) != "head" or e2.mark_at(t) != "head":
                continue
            if e1.kind == e2.kind:
                if h > j:
                    continue  # handled by the mirrored permutation
                blocker = (line if e1.kind == "arrow" else arc)(h, j) in g.edges
            elif e1.kind == "arrow":
                blocker = arrow(h, j) in g.edges
            else:
                continue  # handled by the mirrored permutation
            if blocker:
                continue
            below = sorted({t} | descendants_oracle(g, t))
            witness = [("line", d) for d in below if d in line_ends]
            witness += [("cycle", d) for d in below if d in cyclic]
            if witness:
                found.append((h, t, j, e1.kind, e2.kind, *witness[0]))
    return found


def test_find_ribbons_matches_bruteforce():
    """Each ribbon V is reported once, as the ordered (h, inner, j) of the
    definition: the arrow's end first for an arrow/arc V, and otherwise the
    smaller label first, with the witness of the definition."""
    rng = random.Random(424242)
    mixed = cycle = 0
    for _ in range(300):
        g = random_lmg(rng, rng.randint(2, 6), p=rng.uniform(0.05, 0.35))
        want = _bruteforce_ribbons(g)
        got = [(r.h, r.inner, r.j, r.witness_kind, r.witness_node) for r in g.ribbons]
        assert Counter(got) == Counter(v[:3] + v[5:] for v in want), g
        mixed += sum(v[3] != v[4] for v in want)
        cycle += sum(v[5] == "cycle" for v in want)
    assert mixed and cycle


def test_ribbon_witness_is_found_once_per_inner_node():
    # 606 ribbons at 39 inner nodes: each inner node's witness is read off
    # the ancestor masks once, at its first ribbon
    g = random_lmg(random.Random(5), 40, 3 / 40)
    with mock.patch.object(core, "_ribbon_witness", wraps=core._ribbon_witness) as w:
        reports = g.ribbons
    inner = {r.inner for r in reports}
    assert len(reports) > len(inner) == w.call_count


def test_classify_consistency_on_random_lmgs():
    # AG implies SG implies RG, across a large random sample
    rng = random.Random(99)
    for _ in range(10_000):
        g = random_lmg(rng, rng.randint(1, 7), p=rng.uniform(0.03, 0.3))
        tags = classify(g)
        if "AG" in tags:
            assert "SG" in tags
        if "SG" in tags:
            assert "RG" in tags
        assert ("RG" in tags) == (not g.ribbons)


def test_class_tags_match_the_per_node_formulation():
    rng = random.Random(2718)
    draws = (random_lmg, random_dag, random_sg, random_ag)
    graphs = itertools.chain(
        all_mixed_graphs(("a", "b", "c")),
        all_mixed_graphs(("a", "b", "c", "d"), multi=False),
        (rng.choice(draws)(rng, rng.randint(2, 12)) for _ in range(4000)),
    )
    for g in graphs:
        assert g.class_tags == class_tags_oracle(g), g
