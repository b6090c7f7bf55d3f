"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

`independence_model` enumerates over bit-mask tables of node sets, with one
`msep` walk search per node and C, and `model_to_json` writes the canonical
JSON layout directly.
"""

from __future__ import annotations

import json

from .core import MixedGraph, MixedGraphError
from .msep import NotDisjoint, _connected


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
        A, B, C = frozenset(A), frozenset(B), frozenset(C)
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


class IndependenceModel:
    """A finite set of independence statements over a ground node set."""

    __slots__ = ("ground", "statements")

    def __init__(self, ground, statements=()):
        ground = frozenset(ground)
        statements = frozenset(statements)
        for s in statements:
            if not (s.A | s.B | s.C) <= ground:
                raise NotInGround(f"statement {s!r} mentions nodes outside ground")
        object.__setattr__(self, "ground", ground)
        object.__setattr__(self, "statements", statements)

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

    def __eq__(self, other):
        return (
            isinstance(other, IndependenceModel)
            and self.ground == other.ground
            and self.statements == other.statements
        )

    def __hash__(self):
        return hash((self.ground, self.statements))

    def __len__(self):
        return len(self.statements)

    def __contains__(self, statement):
        return statement in self.statements

    def __repr__(self):
        return (
            f"IndependenceModel(ground={sorted(self.ground)}, "
            f"{len(self.statements)} statements)"
        )

    def sorted_statements(self):
        return sorted(self.statements, key=lambda s: s._key)


def independence_model(g: MixedGraph, limit: int = 8) -> IndependenceModel:
    """Enumerate J_m(g): every triple <A,B|C> with A m-separated from B by C.

    Node sets are bit masks over the sorted nodes, and `members[m]` holds the
    nodes of mask m. Per C, `conn[k]` is the mask of nodes m-connected to
    node k given C: its neighbours (one edge always m-connects its ends),
    plus what one walk out of k finds among the later non-adjacent nodes.
    The sets A run through the submasks of the nodes outside C in increasing
    order, so the union of `conn` over A extends the union over A minus its
    lowest node. B ranges over the nodes above that lowest one that lie
    outside A and its union, so each statement is found once.

    Exponential in the node count; refuses graphs above `limit` nodes (pass a
    larger limit to override).
    """
    nodes = g.nodes
    n = len(nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    index = {v: k for k, v in enumerate(nodes)}
    members = [frozenset()]
    for v in nodes:
        members += [m | {v} for m in members]
    adjacent = [0] * n
    for e in g.edges:
        a, b = index[e.a], index[e.b]
        adjacent[a] |= 1 << b
        adjacent[b] |= 1 << a
    statements = []
    for cmask, C in enumerate(members):
        collider_set = C | g.ancestors(C)
        allowed = g.node_set - C
        out = ((1 << n) - 1) & ~cmask
        conn = adjacent[:]
        for k, a in enumerate(nodes):
            later = out & ~adjacent[k] & ~((2 << k) - 1)
            if out >> k & 1 and later:
                for b in _connected(g, a, members[later], collider_set, allowed):
                    j = index[b]
                    conn[k] |= 1 << j
                    conn[j] |= 1 << k
        union = [0] * len(members)
        # the nonempty submasks of out in increasing order
        amask = -out & out
        while amask:
            low = amask & -amask
            union[amask] = union[amask ^ low] | conn[low.bit_length() - 1]
            common = out & ~amask & ~union[amask] & ~(low - 1)
            bmask = common
            while bmask:
                statements.append(
                    IndependenceStatement(members[amask], members[bmask], C)
                )
                bmask = (bmask - 1) & common
            amask = (amask - out) & out
    return IndependenceModel(g.node_set, statements)


def marginalise_condition(J: IndependenceModel, M, C) -> IndependenceModel:
    """The model after marginalising over M and conditioning on C: keep
    <A,B|D> whenever <A,B|D ∪ C> is in J and A ∪ B ∪ D avoids M ∪ C."""
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    if not (M | C) <= J.ground:
        raise NotInGround("M and C must be subsets of the ground set")
    drop = M | C
    kept = []
    for s in J.statements:
        if not C <= s.C:
            continue
        D = s.C - C
        if (s.A | s.B | D) & drop:
            continue
        kept.append(IndependenceStatement(s.A, s.B, D))
    return IndependenceModel(J.ground - drop, kept)


def model_equal(J1: IndependenceModel, J2: IndependenceModel) -> bool:
    if J1.ground != J2.ground:
        raise GroundMismatch("models are over different ground sets")
    return J1.statements == J2.statements


def model_diff(J1: IndependenceModel, J2: IndependenceModel):
    """(missing, extra) relative to J1: statements only in J2, only in J1."""
    if J1.ground != J2.ground:
        raise GroundMismatch("models are over different ground sets")
    return (J2.statements - J1.statements, J1.statements - J2.statements)


def conforms(J: IndependenceModel, g: MixedGraph) -> bool:
    """Whether no stored statement separates a pair adjacent in g."""
    if J.ground != g.node_set:
        raise GroundMismatch("model ground differs from graph node set")
    for s in J.statements:
        for a in s.A:
            for b in s.B:
                if g.adjacent(a, b):
                    return False
    return True


def _json_list(labels, indent):
    if not labels:
        return "[]"
    items = ",\n".join(" " * (indent + 2) + json.dumps(v) for v in labels)
    return f"[\n{items}\n{' ' * indent}]"


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order. Written directly: an indent sends `json` to its
    pure-Python encoder, and each distinct side list is rendered only once."""
    ordered = J.sorted_statements()
    sides = {}
    for s in ordered:
        for labels in s._key:
            if labels not in sides:
                sides[labels] = _json_list(labels, 6)
    statements = ",\n".join(
        f'    {{\n      "A": {sides[ka]},\n      "B": {sides[kb]},\n'
        f'      "C": {sides[kc]}\n    }}'
        for ka, kb, kc in (s._key for s in ordered)
    )
    body = f"[\n{statements}\n  ]" if ordered else "[]"
    ground = _json_list(sorted(J.ground), 2)
    return f'{{\n  "ground": {ground},\n  "statements": {body}\n}}\n'


def model_from_json(text: str) -> IndependenceModel:
    payload = json.loads(text)
    return IndependenceModel(
        payload["ground"],
        [
            IndependenceStatement(s["A"], s["B"], s.get("C", ()))
            for s in payload["statements"]
        ],
    )
