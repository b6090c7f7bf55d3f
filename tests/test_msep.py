import itertools
import random

import pytest

from mixedgraphs.core import HEAD, TAIL, InvalidLabel, MixedGraph, arrow, line
from mixedgraphs.generators import random_dag, random_lmg, random_rg
from mixedgraphs.msep import (
    ConnectionQuery,
    NotDisjoint,
    OverlapError,
    PathWitness,
    _paths,
    _sliced_reach,
    _walk_reach,
    connecting_path_exists,
    endpoint_identical_connection,
    enumerate_connecting_paths,
    m_separated,
)
from mixedgraphs.witness import _pip_edges

from .helpers import (
    LABEL_SPLIT_TEXT,
    _walk,
    all_mixed_graphs,
    connecting_paths,
    filtering_paths_oracle,
    mk,
    moral_separated,
    pairwise_path_separated_loose,
    pairwise_path_separated_paper,
    path_connects,
    pip_edges_oracle,
    random_cyclic_rg,
)


def q(a, b, M=(), C=()):
    return ConnectionQuery(a, b, frozenset(M), frozenset(C))


def test_chain_connects_through_allowed_noncollider():
    g = mk("a -> m\nm -> b")
    assert connecting_path_exists(g, q("a", "b", M={"m"}))
    assert not connecting_path_exists(g, q("a", "b"))


def test_collider_blocked_until_enabled():
    g = mk("a -> c\nb -> c")
    assert not connecting_path_exists(g, q("a", "b"))
    assert connecting_path_exists(g, q("a", "b", C={"c"}))


def test_collider_enabled_through_descendant():
    g = mk("a -> c\nb -> c\nc -> d")
    assert connecting_path_exists(g, q("a", "b", C={"d"}))


def test_query_validation():
    g = mk("a -> b")
    with pytest.raises(OverlapError):
        q("a", "a")
    with pytest.raises(OverlapError):
        q("a", "b", C={"b"})


def test_enumerate_chain():
    g = mk("a -> m\nm -> b")
    result = enumerate_connecting_paths(g, q("a", "b", M={"m"}))
    assert [w.nodes for w in result] == [("a", "m", "b")]
    assert result[0].colliders == (False,)
    assert len(enumerate_connecting_paths(g, q("a", "b", M={"m"}), limit=2)) == 1


def test_enumerate_blocked_collider_is_empty():
    g = mk("a -> c\nb -> c")
    assert len(enumerate_connecting_paths(g, q("a", "b"))) == 0


def test_witness_collider_flags():
    g = mk("a -> c\nb -> c")
    (w,) = enumerate_connecting_paths(g, q("a", "b", C={"c"}))
    assert w.nodes == ("a", "c", "b")
    assert w.colliders == (True,)


def test_enumerate_two_parallel_routes():
    g = mk("a -> m1\nm1 -> b\na -> m2\nm2 -> b")
    result = enumerate_connecting_paths(g, q("a", "b", M={"m1", "m2"}))
    assert len(result) == 2


def test_enumerate_respects_limit():
    g = mk("a -> m1\nm1 -> b\na -> m2\nm2 -> b")
    query = q("a", "b", M={"m1", "m2"})
    everything = enumerate_connecting_paths(g, query)
    assert len(everything) == 2
    assert enumerate_connecting_paths(g, query, limit=1) == everything[:1]


def test_m_separated_chain():
    g = mk("a -> m\nm -> b")
    assert m_separated(g, {"a"}, {"b"}, {"m"})
    assert not m_separated(g, {"a"}, {"b"}, set())


def test_adjacent_pair_never_separated():
    g = mk("a -> b\nb -> c")
    for csize in range(2):
        for C in itertools.combinations({"c"}, csize):
            assert not m_separated(g, {"a"}, {"b"}, set(C))


def test_empty_side_is_separated():
    g = mk("a -> b")
    assert m_separated(g, set(), {"b"}, set())


def test_m_separated_not_disjoint():
    g = mk("a -> b")
    with pytest.raises(NotDisjoint):
        m_separated(g, {"a"}, {"a"}, set())


def test_symmetry():
    rng = random.Random(17)
    for _ in range(200):
        g = random_lmg(rng, rng.randint(2, 6), p=0.2)
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        A = set(nodes[:1])
        B = set(nodes[1:2])
        C = set(nodes[2:4])
        if not B:
            continue
        assert m_separated(g, A, B, C) == m_separated(g, B, A, C)


def test_engine_matches_path_oracle():
    # walk-state verdicts equal exhaustive path enumeration, including on
    # graphs that are not ribbonless
    rng = random.Random(23)
    for _ in range(1000):
        g = random_lmg(rng, rng.randint(2, 7), p=rng.uniform(0.05, 0.3))
        nodes = list(g.nodes)
        a, b = rng.sample(nodes, 2)
        rest = [x for x in nodes if x not in (a, b)]
        C = {x for x in rest if rng.random() < 0.3}
        M = {x for x in rest if x not in C and rng.random() < 0.6}
        query = q(a, b, M, C)
        assert connecting_path_exists(g, query) == bool(
            enumerate_connecting_paths(g, query)
        )


def test_walk_over_connects_on_ribbon_graphs_is_handled():
    # a->t<-b with a line t--x admits an m-connecting walk but no path; the
    # engine must still return the path verdict
    g = mk("a -> t\nb -> t\nt -- x")
    assert not connecting_path_exists(g, q("a", "b", M={"t", "x"}))
    assert m_separated(g, {"a"}, {"b"}, set())


def test_pairwise_reduction_soundness():
    # the displayed criterion (non-colliders in V minus A,B,C) agrees with
    # the loose variant (non-colliders anywhere outside C), and both agree
    # with m_separated
    rng = random.Random(31)
    for _ in range(250):
        g = random_lmg(rng, rng.randint(2, 6), p=rng.uniform(0.05, 0.3))
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        ka = rng.randint(1, 2)
        kb = rng.randint(1, 2)
        kc = rng.randint(0, 2)
        if ka + kb + kc > len(nodes):
            continue
        A = set(nodes[:ka])
        B = set(nodes[ka : ka + kb])
        C = set(nodes[ka + kb : ka + kb + kc])
        paper = pairwise_path_separated_paper(g, A, B, C)
        loose = pairwise_path_separated_loose(g, A, B, C)
        fast = m_separated(g, A, B, C)
        assert paper == loose == fast, (g, A, B, C)


def test_matches_moralisation_on_dags():
    rng = random.Random(37)
    for _ in range(300):
        g = random_dag(rng, rng.randint(2, 7))
        nodes = list(g.nodes)
        rng.shuffle(nodes)
        A = set(nodes[:1])
        B = set(nodes[1:3])
        C = set(nodes[3 : 3 + rng.randint(0, 3)])
        assert m_separated(g, A, B, C) == moral_separated(g, A, B, C), (g, A, B, C)


def test_signatures_fork_generates_arc():
    g = mk("m -> a\nm -> b")
    assert endpoint_identical_connection(g, "a", "b", {"m"}, set()) == {(HEAD, HEAD)}


def test_signatures_enabled_collider_generates_line():
    g = mk("a -> s\nb -> s")
    assert endpoint_identical_connection(g, "a", "b", set(), {"s"}) == {(TAIL, TAIL)}


def test_signatures_direct_edge():
    g = mk("a -> b")
    assert endpoint_identical_connection(g, "a", "b", set(), set()) == {(TAIL, HEAD)}


def test_signature_validation():
    g = mk("a -> b\nb -> c")
    with pytest.raises(NotDisjoint):
        endpoint_identical_connection(g, "a", "c", {"b"}, {"b"})
    with pytest.raises(OverlapError):
        endpoint_identical_connection(g, "a", "b", {"a"}, set())


def test_signatures_reject_equal_endpoints():
    # a walk out of a comes back to a through a -> b <-> c -> a, but a
    # signature of a with itself would stand for the loop a <-> a
    g = mk("a -> b\nb <-> c\nc -> a")
    with pytest.raises(OverlapError):
        endpoint_identical_connection(g, "a", "a", {"b", "c"}, set())


def test_signature_found_past_a_bouncing_first_walk():
    # the first tail-tail walk from b to c bounces (b -> c <-> b <- c), but
    # b -> a <- c passes a, a collider in C, so b -- c is still generated
    g = mk("b <-> c\nb -> c\nc -> b\nb -> a\nc -> a")
    for i, j in (("b", "c"), ("c", "b")):
        assert (TAIL, TAIL) in endpoint_identical_connection(g, i, j, (), {"a"})


def test_witness_render():
    g = mk("a -> m\nm -> b")
    w = enumerate_connecting_paths(g, q("a", "b", M={"m"}))[0]
    assert w.render() == "a -> m -> b"
    # every token: an arrow walked from its head end, an arc, a line
    g = mk("m -> a\nm <-> x\nx -- b")
    (w,) = enumerate_connecting_paths(g, q("a", "b", M={"m", "x"}))
    assert w.render() == "a <- m <-> x -- b"


def test_path_witness_record_contract():
    g = mk("a -> c\nb -> c")
    assert all(isinstance(p, PathWitness) for p in _paths(g, "a", "b", {"c"}, ()))
    (w,) = enumerate_connecting_paths(g, q("a", "b", C={"c"}))
    nodes, edges = w
    assert nodes == ("a", "c", "b") and edges == (arrow("a", "c"), arrow("b", "c"))
    assert w._fields == ("nodes", "edges")
    assert w.colliders == (True,) and w.render() == "a -> c <- b"
    assert repr(w) == (
        "PathWitness(nodes=('a', 'c', 'b'), edges=(Edge(kind='arrow', a='a', "
        "b='c'), Edge(kind='arrow', a='b', b='c')))"
    )
    again = PathWitness(nodes=nodes, edges=edges)
    assert again == w and hash(again) == hash(w)
    # a named tuple: equal to, and hashed like, its plain pair; indexable
    assert w == (nodes, edges) and hash(w) == hash((nodes, edges))
    assert len({w, (nodes, edges)}) == 1 and w[0] == nodes and len(w) == 2
    assert w != PathWitness(nodes[::-1], edges[::-1])
    with pytest.raises(AttributeError):
        w.nodes = ()


def test_every_three_node_multigraph_matches_definition_oracles():
    # the helpers enumerate paths from the edge set alone, so this checks the
    # walk kernel and the simple-path DFS against the definitions on all
    # 4,096 three-node multigraphs
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        assert set(_pip_edges(g)) == pip_edges_oracle(g), g
        for s, t in itertools.combinations(g.nodes, 2):
            (x,) = set(g.nodes) - {s, t}
            connects = {}
            for M, C in (((), ()), ((x,), ()), ((), (x,))):
                query = q(s, t, M, C)
                want = sorted(connecting_paths(g, s, t, set(M), set(C)))
                got = sorted((w.nodes, w.edges) for w in enumerate_connecting_paths(g, query))
                assert got == want, (g, s, t, M, C)
                assert connecting_path_exists(g, query) == bool(want), (g, s, t, M, C)
                connects[M, C] = bool(want)
            # m-separation of a pair allows exactly the other nodes as
            # non-colliders
            assert m_separated(g, {s}, {t}, ()) != connects[(x,), ()], g
            assert m_separated(g, {s}, {t}, {x}) != connects[(), (x,)], g
            joint = connects[(), ()] or path_connects(g, s, x, (), ())
            assert m_separated(g, {s}, {t, x}, ()) != joint, g


def test_walk_pip_edges_match_the_path_oracle():
    # the walk's inner nodes must be colliders in an({i, j}) other than i and
    # j; checked on every four-node simple graph and on random multigraphs,
    # ribbons included
    for g in all_mixed_graphs(("a", "b", "c", "d"), multi=False):
        assert set(_pip_edges(g)) == pip_edges_oracle(g), g
    rng = random.Random(79)
    for _ in range(2000):
        g = random_lmg(rng, rng.randint(4, 7), p=rng.choice((0.12, 0.2)))
        assert set(_pip_edges(g)) == pip_edges_oracle(g), g


def _bitset_walk_agrees(g, collider_set, allowed):
    # from all of a node's exits, the union of the dict walk's two first
    # marks; from its head or tail exits alone, the walk with that first mark
    nodes = g.nodes
    n = len(nodes)
    exits = g._exits
    colliders = sum(g._bit[v] for v in collider_set)
    allowed_mask = sum(g._bit[v] for v in allowed)
    for k, source in enumerate(nodes):
        want = {}
        for mark, start in ((HEAD, exits[0][k]), (TAIL, exits[1][k])):
            reached = _walk_reach(exits, colliders, allowed_mask, start)
            states = {(nodes[s % n], s >= n) for s in range(2 * n) if reached >> s & 1}
            want[mark] = set(_walk(g, source, collider_set, allowed, mark))
            assert states == want[mark], (g, source, mark, collider_set, allowed)
        reached = _walk_reach(exits, colliders, allowed_mask, exits[2][k])
        states = {(nodes[s % n], s >= n) for s in range(2 * n) if reached >> s & 1}
        assert states == want[HEAD] | want[TAIL], (g, source, collider_set, allowed)


def test_bitset_walk_reaches_the_walk_states():
    # every C with non-colliders outside C, as the model enumeration asks,
    # on all 4,096 three-node multigraphs; then independent collider and
    # allowed sets on random multigraphs, ribbons included
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        for r in range(4):
            for C in itertools.combinations(g.nodes, r):
                C = set(C)
                _bitset_walk_agrees(g, C | g.ancestors(C), g.node_set - C)
    rng = random.Random(83)
    ribbons = 0
    for _ in range(500):
        g = random_lmg(rng, rng.randint(4, 8), p=rng.uniform(0.05, 0.35))
        ribbons += not g.is_ribbonless
        for _ in range(6):
            C = {v for v in g.nodes if rng.random() < 0.3}
            M = {v for v in g.nodes if rng.random() < 0.6}
            _bitset_walk_agrees(g, C | g.ancestors(C), M)
            _bitset_walk_agrees(g, C | g.ancestors(C), g.node_set - C)
    assert ribbons >= 50


def _sliced_walk_agrees(g, rng):
    """For a random split of g's nodes into fixed, marginalised and free
    ones, and C_r = fixed ∪ D for each D over the free nodes in turn: per
    source node, bit r of each state's sliced reach set is `_walk_reach`
    under C_r (collider set C_r ∪ an(C_r), allowed set the nodes outside
    C_r), and a bit outside the start's live sets stays clear."""
    drop = {v for v in g.nodes if rng.random() < 0.4}
    fixed = {v for v in drop if rng.random() < 0.5}
    free = [v for v in g.nodes if v not in drop]
    conditionings = [
        fixed | set(D)
        for r in range(len(free) + 1)
        for D in itertools.combinations(free, r)
    ]
    n, bit = len(g.nodes), g._bit
    colliders = [sum(bit[v] for v in C | g.ancestors(C)) for C in conditionings]
    allowed = [sum(bit[v] for v in g.node_set - C) for C in conditionings]
    out, col = (
        [sum(1 << r for r, m in enumerate(masks) if m >> k & 1) for k in range(n)]
        for masks in (allowed, colliders)
    )
    every = (1 << len(conditionings)) - 1
    exits = g._exits
    for k in range(n):
        live = every if rng.random() < 0.5 else rng.getrandbits(len(conditionings))
        sliced = _sliced_reach(exits, out, col, exits[2][k], live)
        assert len(sliced) == 2 * n
        for r, C in enumerate(conditionings):
            want = 0
            if live >> r & 1:
                want = _walk_reach(exits, colliders[r], allowed[r], exits[2][k])
            got = sum(1 << s for s, sets in enumerate(sliced) if sets >> r & 1)
            assert got == want, (g, g.nodes[k], C)


def test_sliced_walk_matches_the_walk_under_each_conditioning_set():
    # the dual route of the model enumeration's kernel: on all 4,096
    # three-node multigraphs, then random LMGs (ribbons included), RGs and
    # cyclic RGs of 4-7 nodes
    rng = random.Random(89)
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        _sliced_walk_agrees(g, rng)
    makers = (
        lambda rng, n: random_lmg(rng, n, p=rng.uniform(0.05, 0.35)),
        random_rg,
        random_cyclic_rg,
    )
    for make in makers:
        for _ in range(60):
            _sliced_walk_agrees(make(rng, rng.randint(4, 7)), rng)


def _line_ladder(k):
    """The benchmark's ladder shape: a line ladder u0..uk / v0..vk with rungs
    ui -- vi, ending in uk -> t <- b and vk -> t, with t -- x."""
    u = [f"u{i}" for i in range(k + 1)]
    v = [f"v{i}" for i in range(k + 1)]
    edges = [line(u[i], u[i + 1]) for i in range(k)]
    edges += [line(v[i], v[i + 1]) for i in range(k)]
    edges += [line(u[i], v[i]) for i in range(k + 1)]
    edges += [arrow(u[k], "t"), arrow("b", "t"), arrow(v[k], "t"), line("t", "x")]
    return MixedGraph(u + v + ["t", "b", "x"], edges)


def _split_flows_partition(g):
    # each node's exit lists: every exit, then its head and tail exits, each
    # a subsequence of `_flows` in its order, together all of it
    for v, flows in g._flows.items():
        every, heads, tails = g._split_flows[v]
        assert every == flows, (g, v)
        assert all(x[1] == HEAD for x in heads) and all(x[1] == TAIL for x in tails)
        assert len(heads) + len(tails) == len(flows), (g, v)
        for part in (heads, tails):
            rest = iter(flows)
            assert all(x in rest for x in part), (g, v)


def test_path_search_keeps_the_filtering_search_order():
    # the search reads each node's exits off `_split_flows`; the filtering
    # search it replaced must yield the same paths, edges and order, on every
    # three-node multigraph, on the benchmark's ladders and on random LMGs
    def same(g, s, t, collider_set, allowed):
        want = list(filtering_paths_oracle(g, s, t, collider_set, allowed))
        got = list(_paths(g, s, t, collider_set, allowed))
        assert got == want, (g, s, t, collider_set, allowed)
        return len(want)

    # only the third node's membership is read; it goes in the collider set,
    # the allowed set, both or neither
    for g in all_mixed_graphs(("a", "b", "c"), multi=True):
        _split_flows_partition(g)
        for s, t in itertools.permutations(g.nodes, 2):
            (x,) = set(g.nodes) - {s, t}
            for collider_set, allowed in ((), ()), ({x}, ()), ((), {x}), ({x}, {x}):
                same(g, s, t, collider_set, allowed)
    paths = 0
    for k in range(3, 10):
        g = _line_ladder(k)
        _split_flows_partition(g)
        for target in ("b", "x", "t"):
            rest = g.node_set - {"u0", target}
            for collider_set in (set(), {"t"} - {target}):
                paths += same(g, "u0", target, collider_set, rest - collider_set)
                paths += same(g, "u0", target, collider_set, rest)
    assert paths > 1000
    rng = random.Random(89)
    paths = 0
    for _ in range(2000):
        g = random_lmg(rng, rng.randint(3, 9), p=rng.uniform(0.08, 0.25))
        _split_flows_partition(g)
        s, t = rng.sample(g.nodes, 2)
        collider_set = {v for v in g.nodes if rng.random() < 0.3}
        allowed = {v for v in g.nodes if rng.random() < 0.6}
        paths += same(g, s, t, collider_set, allowed)
    assert paths > 1000


def test_m_separated_refuses_a_bare_string():
    g = mk(LABEL_SPLIT_TEXT)
    assert not m_separated(g, {"ab"}, {"c"}, ())
    for A, B, C in (("ab", {"c"}, ()), ({"c"}, "ab", ()), ({"c"}, {"x"}, "ab")):
        with pytest.raises(InvalidLabel, match="takes a collection"):
            m_separated(g, A, B, C)


def test_endpoint_identical_connection_refuses_a_bare_string():
    g = mk(LABEL_SPLIT_TEXT)
    assert endpoint_identical_connection(g, "x", "c", {"ab"}, ()) == {(TAIL, HEAD)}
    with pytest.raises(InvalidLabel, match="M takes a collection"):
        endpoint_identical_connection(g, "x", "c", "ab", ())
    with pytest.raises(InvalidLabel, match="C takes a collection"):
        endpoint_identical_connection(g, "x", "c", (), "ab")


def test_connection_query_refuses_a_bare_string():
    g = mk(LABEL_SPLIT_TEXT)
    assert connecting_path_exists(g, ConnectionQuery("x", "c", {"ab"}, ()))
    with pytest.raises(InvalidLabel, match="allowed_noncolliders takes"):
        ConnectionQuery("x", "c", "ab", ())
    with pytest.raises(InvalidLabel, match="collider_enablers takes"):
        ConnectionQuery("x", "c", (), "ab")
