"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

A model holds its statements as mask triples (a, b, c) over its sorted
ground: node k of the ground is bit k, and a is the side whose sorted labels
come first. Equality, hashing, membership, `model_equal`, `model_diff`,
`conforms` and `marginalise_condition` work on the masks;
`IndependenceStatement` objects are built only when `statements` or
`sorted_statements` is read. A model from a graph lists its triples in
statement key order as it enumerates them. Any other model is sorted by a
rank table: each mask gets its position in sorted label-tuple order, so a
statement sorts by three ints.

`independence_model` returns a model that holds its graph and enumerates
its triples when they are first read. `marginalise_condition` of such a
model enumerates only the statements it keeps, directly over the smaller
ground: the conditioning sets C ∪ D with A, B and D over the nodes outside
M ∪ C. A model with no graph (from `model_from_json` or the constructor) is
marginalised by a mask filter and a bit-compress table.

The enumeration decides every conditioning set at once. Per non-adjacent
pair, `_separation_sets` gives the set of Cs that separate it as one int,
a bit per C: a bit-sliced separation set. It comes from one
`msep._sliced_reach` per source and, on graphs that are not ribbonless,
simple paths, each of which settles every C that it connects under.
`_enumerate` ANDs these sets as it grows A and B in lexicographic preorder,
and reads each C off the set bits in rank order. So the statements come out
in key order, and `model_to_json` writes them in the canonical JSON layout
without a sort.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache

from .core import MixedGraph, MixedGraphError, _node_set
from .msep import NotDisjoint, _paths, _sliced_reach
from .textfmt import ParseError, _json_field, _json_payload


# The default node-count bound on model enumeration.
MODEL_NODE_LIMIT = 8


class TooLarge(MixedGraphError):
    pass


class NotInGround(MixedGraphError):
    pass


class GroundMismatch(MixedGraphError):
    pass


class IndependenceStatement:
    """A triple <A, B | C> of disjoint node sets with A, B nonempty."""

    __slots__ = ("A", "B", "C", "_key")

    def __init__(self, A, B, C=()):
        A, B, C = _node_set(A, "A"), _node_set(B, "B"), _node_set(C, "C")
        if not A or not B:
            raise ValueError("A and B must be nonempty")
        if A & B or A & C or B & C:
            raise NotDisjoint("statement sides must be pairwise disjoint")
        ka, kb = tuple(sorted(A)), tuple(sorted(B))
        if kb < ka:
            A, B = B, A
            ka, kb = kb, ka
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)
        object.__setattr__(self, "_key", (ka, kb, tuple(sorted(C))))

    @classmethod
    def _from_sides(cls, A, ka, B, kb, C, kc):
        """The statement with canonical sides A, B, C and their sorted label
        tuples, unchecked."""
        s = cls.__new__(cls)
        object.__setattr__(s, "A", A)
        object.__setattr__(s, "B", B)
        object.__setattr__(s, "C", C)
        object.__setattr__(s, "_key", (ka, kb, kc))
        return s

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceStatement is immutable")

    @property
    def key(self):
        return self._key

    def __eq__(self, other):
        return isinstance(other, IndependenceStatement) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __lt__(self, other):
        return self._key < other._key

    def __repr__(self):
        return f"<{self.render()}>"

    def render(self):
        ka, kb, kc = self._key
        left = f"{' '.join(ka)} _||_ {' '.join(kb)}"
        return f"{left} | {' '.join(kc)}" if kc else left


def _bits(mask):
    """The indices of the set bits of mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class IndependenceModel:
    """A finite set of independence statements over a ground node set.

    `nodes` is the sorted ground and `triples` the frozenset of canonical
    (A, B, C) mask triples over it, enumerated on first use for a model
    from `independence_model`; `statements` is built from the triples on
    first use."""

    def __init__(self, ground, statements=()):
        ground = frozenset(ground)
        statements = frozenset(statements)
        for s in statements:
            if not (s.A | s.B | s.C) <= ground:
                raise NotInGround(f"statement {s!r} mentions nodes outside ground")
        self.__dict__.update(
            ground=ground, nodes=tuple(sorted(ground)), statements=statements
        )
        self.__dict__["triples"] = frozenset(map(self._triple, statements))

    # the graph a model from `independence_model` enumerates its triples from
    _graph = None

    @classmethod
    def _from_masks(cls, nodes, triples):
        """The model over the sorted ground `nodes` holding the canonical
        mask triples `triples`, unchecked."""
        model = cls.__new__(cls)
        model.__dict__.update(
            ground=frozenset(nodes), nodes=nodes, triples=frozenset(triples)
        )
        return model

    @classmethod
    def _of_graph(cls, g):
        """J_m(g), enumerated when its triples are first read."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=g.node_set, nodes=g.nodes, _graph=g)
        return model

    @classmethod
    def _in_key_order(cls, nodes, triples):
        """The model over the sorted ground `nodes` holding the canonical
        mask triples `triples`, listed once each in statement key order,
        unchecked."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=frozenset(nodes), nodes=nodes, _ordered=triples)
        return model

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

    @cached_property
    def triples(self) -> frozenset:
        # only a model that lists its triples in key order gets here
        return frozenset(self._ordered)

    @cached_property
    def statements(self) -> frozenset:
        return frozenset(self._statements(self.triples))

    @cached_property
    def _bit(self):
        return {v: 1 << k for k, v in enumerate(self.nodes)}

    def _triple(self, statement):
        """The mask triple of a statement; KeyError if it leaves the ground."""
        bit = self._bit
        sides = (statement.A, statement.B, statement.C)
        return tuple(sum(bit[v] for v in side) for side in sides)

    def _statements(self, triples):
        """The statements of mask triples, in order; each side's label set
        and tuple are built once per mask."""
        sides = {}
        for m in {m for triple in triples for m in triple}:
            labels = tuple(self.nodes[k] for k in _bits(m))
            sides[m] = (frozenset(labels), labels)
        return [
            IndependenceStatement._from_sides(*sides[a], *sides[b], *sides[c])
            for a, b, c in triples
        ]

    def __eq__(self, other):
        return (
            isinstance(other, IndependenceModel)
            and self.ground == other.ground
            and self.triples == other.triples
        )

    def __hash__(self):
        return hash((self.ground, self.triples))

    def __len__(self):
        return len(self.triples)

    def __contains__(self, statement):
        if not isinstance(statement, IndependenceStatement):
            return False
        try:
            return self._triple(statement) in self.triples
        except KeyError:
            return False

    def __repr__(self):
        return f"IndependenceModel(ground={list(self.nodes)}, {len(self)} statements)"

    @cached_property
    def _ordered(self) -> list:
        """The triples in statement key order: enumerated in that order for a
        model from a graph (`_enumerate`), else sorted. Each mask ranks by
        its position in sorted label-tuple order; bit order is label order,
        so sorting by the bit indices sorts by the labels. A model with at
        least 2^n triples reads the ranks off the shared table of all 2^n
        masks; a smaller one ranks only the masks it holds."""
        if self._graph is not None:
            return _enumerate(self._graph, 0, 0)
        n = len(self.nodes)
        if 1 << n <= len(self.triples):
            ranks = _rank_table(n)
        else:
            masks = sorted(set().union(*self.triples), key=lambda m: tuple(_bits(m)))
            ranks = {m: r for r, m in enumerate(masks)}
        shift = len(ranks).bit_length()
        return sorted(
            self.triples,
            key=lambda t: (ranks[t[0]] << shift | ranks[t[1]]) << shift | ranks[t[2]],
        )

    def sorted_statements(self):
        return self._statements(self._ordered)


@lru_cache(maxsize=None)
def _rank_order(n):
    """The n-bit masks in the order of their ascending set-bit index tuples,
    a mask's rank being its position, and per bit p the ranks of the masks
    that hold p, as one 2^n-bit int. Built once per n. Each mask grows by
    bits above its highest in preorder, pushed on a stack, which lists the
    index tuples lexicographically."""
    order = []
    stack = [(0, 0)]
    while stack:
        mask, low = stack.pop()
        order.append(mask)
        stack.extend((mask | 1 << b, b + 1) for b in range(n - 1, low - 1, -1))
    holding = [
        int("".join("1" if m >> p & 1 else "0" for m in reversed(order)), 2)
        for p in range(n)
    ]
    return order, holding


@lru_cache(maxsize=None)
def _rank_table(n):
    """Per n-bit mask, its rank in `_rank_order(n)`."""
    table = [0] * (1 << n)
    for r, m in enumerate(_rank_order(n)[0]):
        table[m] = r
    return table


def _separation_sets(g: MixedGraph, fixed, drop):
    """The separation sets of the free nodes of g, those outside `drop`
    (which holds `fixed`), over the conditioning sets C = fixed ∪ D for
    every D over the f free nodes. D is named by its rank (`_rank_order(f)`)
    and a set of Cs is a 2^f-bit int, bit r for the D of rank r. Yields
    (p, q, s) per pair of non-adjacent free nodes at free positions p < q,
    in increasing order of p, then q: s holds the Cs that miss both nodes
    and m-separate them. An adjacent pair has no separating C.

    Per node t: `inc[t]` holds the Cs with t in C (every C for a node of
    `fixed`, none for a marginalised node), `out[t]` the others, and
    `col[t]` the Cs with t in C ∪ an(C): the OR of `inc[d]` over d in
    {t} ∪ de(t), read off the graph's `_ancestor_masks`. One
    `msep._sliced_reach` per source settles every C at once, and is exact
    on a ribbonless graph. On any other graph each pair's walk set is
    re-checked by simple paths (`_path_checked`). The pairs come one source
    at a time, so a reader may stop early.
    """
    n = len(g.nodes)
    free = [k for k in range(n) if not drop >> k & 1]
    holding = _rank_order(len(free))[1]
    every = (1 << (1 << len(free))) - 1
    inc = [every if fixed >> k & 1 else 0 for k in range(n)]
    for p, k in enumerate(free):
        inc[k] = holding[p]
    out = [every ^ s for s in inc]
    col = inc[:]
    for d, mask in enumerate(g._ancestor_masks.values()):
        for t in _bits(mask):
            col[t] |= inc[d]
    exits = g._exits
    exact = g.is_ribbonless
    for p, k in enumerate(free):
        near = exits[2][k]
        near |= near >> n
        apart = [(q, j) for q, j in enumerate(free) if q > p and not near >> j & 1]
        if not apart:
            continue
        reach = _sliced_reach(exits, out, col, exits[2][k], out[k])
        for q, j in apart:
            outside = out[k] & out[j]
            joined = (reach[j] | reach[n + j]) & outside
            if joined and not exact:
                joined = _path_checked(g, k, j, joined, out, col)
            yield p, q, outside & ~joined


def _path_checked(g: MixedGraph, k, j, walked, out, col):
    """The sets in `walked` under which a simple path m-connects nodes k
    and j. The lowest set not yet settled is tried with `msep._paths`:
    with no path it is dropped; a path P found settles every set left
    whose C ∪ an(C) holds P's colliders and whose C misses its
    non-colliders, as P connects under exactly those."""
    nodes, bit = g.nodes, g._bit
    joined = 0
    while walked:
        r = (walked & -walked).bit_length() - 1
        colliders = {v for v, s in zip(nodes, col) if s >> r & 1}
        allowed = {v for v, s in zip(nodes, out) if s >> r & 1}
        path = next(_paths(g, nodes[k], nodes[j], colliders, allowed), None)
        if path is None:
            walked ^= 1 << r
            continue
        holds = walked
        for v, collider in zip(path.nodes[1:-1], path.colliders):
            holds &= (col if collider else out)[bit[v].bit_length() - 1]
        joined |= holds
        walked ^= holds
    return joined


def independence_model(
    g: MixedGraph, limit: int = MODEL_NODE_LIMIT
) -> IndependenceModel:
    """J_m(g): every triple <A,B|C> with A m-separated from B by C.

    The model is enumerated (`_enumerate`) when its statements are first
    read; `marginalise_condition` of it enumerates only the statements it
    keeps. Exponential in the node count; refuses graphs
    above `limit` nodes at once (pass a larger limit to override).
    """
    n = len(g.nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    return IndependenceModel._of_graph(g)


def _enumerate(g: MixedGraph, fixed, drop):
    """The statements <A, B | fixed ∪ D> of J_m(g) with A, B and D over the
    free nodes, those outside `drop` (which holds `fixed`), as mask triples
    (A, B, D) over the free nodes alone, each listed once, in statement key
    order. The whole of J_m(g) is `_enumerate(g, 0, 0)`.

    m-separation models are compositional graphoids, so C separates A and
    B exactly when it separates every pair of a node of A and a node of B:
    their separating sets are the AND of the pairs' `_separation_sets`. A
    grows from its lowest node p by nodes above its highest, carrying per
    node q the sets separating q from all of A; B grows likewise over the
    nodes above p outside A, carrying the sets separating it from A. Growth
    only shrinks the sets, so a branch whose sets are all empty is dropped
    whole. Every set bit left names one C.

    Why this is key order: node positions follow label order, and a
    statement's key compares A's sorted labels, then B's, then C's. A and
    B each grow in preorder, pushed on explicit stacks, which lists sorted
    index tuples lexicographically. With min B > min A, A is the side that
    sorts first, so each statement comes once and with its sides in key
    order. Within one (A, B), the set bits come in rank order, the sorted
    order of the D masks, which are the emitted C.
    """
    f = len(g.nodes) - drop.bit_count()
    sep = [[0] * f for _ in range(f)]
    for p, q, s in _separation_sets(g, fixed, drop):
        sep[p][q] = sep[q][p] = s
    order = _rank_order(f)[0]
    triples = []
    append = triples.append
    for p in range(f):
        # per node q above p and outside A, the sets separating q from A,
        # when there are any
        row = [(q, s) for q, s in enumerate(sep[p]) if q > p and s]
        stack = [(1 << p, p, row)] if row else []
        while stack:
            amask, top, row = stack.pop()
            grow = [(1 << q, i, s) for i, (q, s) in enumerate(row)]
            grow.reverse()
            while grow:
                bmask, i, sets = grow.pop()
                rest = sets
                while rest:
                    low = rest & -rest
                    append((amask, bmask, order[low.bit_length() - 1]))
                    rest ^= low
                for i2 in range(len(row) - 1, i, -1):
                    q, s = row[i2]
                    if sets & s:
                        grow.append((bmask | 1 << q, i2, sets & s))
            for x in range(f - 1, top, -1):
                apart = sep[x]
                grown = [(q, s & apart[q]) for q, s in row if s & apart[q]]
                if grown:
                    stack.append((amask | 1 << x, x, grown))
    return triples


def _check_ground(ground, M, C):
    """Raise NotInGround, naming them sorted, if M or C holds nodes outside
    ground."""
    missing = (M | C) - ground
    if missing:
        raise NotInGround(
            f"M and C name nodes outside the ground set: {sorted(missing)}"
        )


def marginalise_condition(J: IndependenceModel, M, C) -> IndependenceModel:
    """The model after marginalising over M and conditioning on C: keep
    <A,B|D> whenever <A,B|D ∪ C> is in J and A ∪ B ∪ D avoids M ∪ C.

    On masks: keep (a, b, c) when a and b avoid M ∪ C and c meets M ∪ C in
    exactly C, and compress a, b and c onto the remaining nodes. A model
    from `independence_model` enumerates only those triples
    (`_enumerate(g, C, M ∪ C)`); a model with no graph is filtered. Dropping
    nodes keeps every side's label order, so the result stays canonical."""
    M, C = _node_set(M, "M"), _node_set(C, "C")
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    _check_ground(J.ground, M, C)
    cmask = sum(J._bit[v] for v in C)
    drop = cmask | sum(J._bit[v] for v in M)
    kept = [k for k in range(len(J.nodes)) if not drop >> k & 1]
    nodes = tuple(J.nodes[k] for k in kept)
    if J._graph is not None:
        triples = _enumerate(J._graph, cmask, drop)
        return IndependenceModel._in_key_order(nodes, triples)
    triples = [
        (a, b, c) for a, b, c in J.triples if not (a | b) & drop and c & drop == cmask
    ]
    # the bits of C are not kept, so compressing c drops C from it
    compress = {
        m: sum(1 << pos for pos, k in enumerate(kept) if m >> k & 1)
        for m in set().union(*triples)
    }
    return IndependenceModel._from_masks(
        nodes, [(compress[a], compress[b], compress[c]) for a, b, c in triples]
    )


def model_equal(J1: IndependenceModel, J2: IndependenceModel) -> bool:
    if J1.ground != J2.ground:
        raise GroundMismatch("models are over different ground sets")
    return J1.triples == J2.triples


def model_diff(J1: IndependenceModel, J2: IndependenceModel):
    """(missing, extra) relative to J1: statements only in J2, only in J1."""
    if J1.ground != J2.ground:
        raise GroundMismatch("models are over different ground sets")
    return (
        frozenset(J1._statements(J2.triples - J1.triples)),
        frozenset(J1._statements(J1.triples - J2.triples)),
    )


def conforms(J: IndependenceModel, g: MixedGraph) -> bool:
    """Whether no stored statement separates a pair adjacent in g."""
    if J.ground != g.node_set:
        raise GroundMismatch("model ground differs from graph node set")
    n = len(J.nodes)
    adjacent = [s | s >> n for s in g._exits[2]]
    return not any(adjacent[k] & b for a, b, _c in J.triples for k in _bits(a))


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order. Written directly: an indent sends `json` to its
    pure-Python encoder. Each label is quoted once and each distinct side
    list rendered once."""
    quoted = [json.dumps(v) for v in J.nodes]
    triples = J._ordered
    sides = {0: "[]"}
    for m in set().union(*triples) - {0}:
        items = ",\n        ".join(quoted[k] for k in _bits(m))
        sides[m] = f"[\n        {items}\n      ]"
    statements = ",\n".join(
        f'    {{\n      "A": {sides[a]},\n      "B": {sides[b]},\n'
        f'      "C": {sides[c]}\n    }}'
        for a, b, c in triples
    )
    body = f"[\n{statements}\n  ]" if statements else "[]"
    ground = ",\n    ".join(quoted)
    ground = f"[\n    {ground}\n  ]" if quoted else "[]"
    return f'{{\n  "ground": {ground},\n  "statements": {body}\n}}\n'


def model_from_json(text: str) -> IndependenceModel:
    payload = _json_payload(text)
    ground = _json_field(payload, "ground", "model", "labels")
    statements = []
    for k, s in enumerate(_json_field(payload, "statements", "model", "objects")):
        where = f"statements[{k}]"
        A, B = (_json_field(s, side, where, "labels") for side in "AB")
        if not A or not B:
            raise ParseError(f"{where}: sides A and B must be nonempty", 0)
        statements.append(
            IndependenceStatement(A, B, _json_field(s, "C", where, "labels", []))
        )
    return IndependenceModel(ground, statements)
