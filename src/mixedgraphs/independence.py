"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.
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
        return sorted(self.statements)


def _bits(mask):
    out = []
    k = 0
    while mask:
        if mask & 1:
            out.append(k)
        mask >>= 1
        k += 1
    return out


def independence_model(g: MixedGraph, limit: int = 8) -> IndependenceModel:
    """Enumerate J_m(g): every triple <A,B|C> with A m-separated from B by C.

    Exponential in the node count; refuses graphs above `limit` nodes (pass a
    larger limit to override).
    """
    nodes = g.nodes
    n = len(nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    index = {v: k for k, v in enumerate(nodes)}
    statements = []
    for cmask in range(1 << n):
        C = frozenset(nodes[k] for k in _bits(cmask))
        collider_set = C | g.ancestors(C)
        allowed = g.node_set - C
        out = [v for v in nodes if v not in C]
        conn = [0] * n
        for pos in range(len(out) - 1):
            a = out[pos]
            ai = index[a]
            for b in _connected(g, a, out[pos + 1 :], collider_set, allowed):
                bi = index[b]
                conn[ai] |= 1 << bi
                conn[bi] |= 1 << ai
        out_mask = ((1 << n) - 1) & ~cmask
        amask = out_mask
        while amask:
            common = out_mask & ~amask
            for k in _bits(amask):
                common &= ~conn[k]
            if common:
                bmask = common
                while bmask:
                    combined = amask | bmask
                    if (combined & -combined) & amask:
                        statements.append(
                            IndependenceStatement(
                                (nodes[k] for k in _bits(amask)),
                                (nodes[k] for k in _bits(bmask)),
                                C,
                            )
                        )
                    bmask = (bmask - 1) & common
            amask = (amask - 1) & out_mask
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


def model_to_json(J: IndependenceModel) -> str:
    payload = {
        "ground": sorted(J.ground),
        "statements": [
            {"A": list(s.key[0]), "B": list(s.key[1]), "C": list(s.key[2])}
            for s in J.sorted_statements()
        ],
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def model_from_json(text: str) -> IndependenceModel:
    payload = json.loads(text)
    return IndependenceModel(
        payload["ground"],
        [
            IndependenceStatement(s["A"], s["B"], s.get("C", ()))
            for s in payload["statements"]
        ],
    )
