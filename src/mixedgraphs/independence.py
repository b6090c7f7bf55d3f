"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

A model holds its statements as mask triples (a, b, c) over its sorted
ground: node k of the ground is bit k, and a is the side whose sorted labels
come first. Equality, hashing, membership, `model_equal`, `model_diff`,
`conforms` and `marginalise_condition` (a mask filter plus a bit-compress
table) work on the masks; `IndependenceStatement` objects are built only
when `statements` or `sorted_statements` is read. Ordering uses a rank table:
each mask the model holds gets its position in sorted label-tuple order, so a
statement sorts by three ints.

`_connections` is the enumeration kernel: per conditioning mask C, in
increasing order, the mask of nodes m-connected to each node, from one
bitset walk per source (`msep._walk_reach`) and, on graphs that are not
ribbonless, simple paths that are found once and reused across conditioning
sets. `independence_model` reads the statements off these rows, growing each
A depth-first and dropping a branch once no B is left for it;
`witness.is_maximal_literal` reads the pairwise verdicts.
`model_to_json` writes the canonical JSON layout directly.
"""

from __future__ import annotations

import json
from functools import cached_property
from itertools import repeat

from .core import MixedGraph, MixedGraphError
from .msep import (
    NotDisjoint,
    PathWitness,
    _bit_table,
    _paths,
    _state_exits,
    _walk_reach,
)
from .textfmt import ParseError, _json_field, _json_payload


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
    (A, B, C) mask triples over it; `statements` is built from the triples
    on first use."""

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

    @classmethod
    def _from_masks(cls, nodes, triples):
        """The model over the sorted ground `nodes` holding the canonical
        mask triples `triples`, unchecked."""
        model = cls.__new__(cls)
        model.__dict__.update(
            ground=frozenset(nodes), nodes=nodes, triples=frozenset(triples)
        )
        return model

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

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

    def _ranks(self):
        """{mask: its position in sorted label-tuple order} over the masks
        the model holds: bit order is label order, so sorting by the bit
        indices sorts by the labels."""
        masks = {m for triple in self.triples for m in triple}
        order = sorted(masks, key=lambda m: tuple(_bits(m)))
        return {m: r for r, m in enumerate(order)}

    def _sorted_triples(self, ranks):
        shift = len(ranks).bit_length()
        return sorted(
            self.triples,
            key=lambda t: (ranks[t[0]] << shift | ranks[t[1]]) << shift | ranks[t[2]],
        )

    def sorted_statements(self):
        return self._statements(self._sorted_triples(self._ranks()))


def _connections(g: MixedGraph, bits):
    """The pairwise connection rows of g, per conditioning mask C in
    increasing order: yields (C, conn), where for every node k outside C,
    conn[k] is the mask of k itself and the nodes outside C m-connected to
    k given C, with non-colliders outside C. `bits` is
    `msep._bit_table(len(g.nodes))`.

    an(C) is the union of an(C minus its lowest node) and an(lowest node).
    `msep._walk_reach` walks with collider set C ∪ an(C) and non-colliders
    outside C. Adjacent nodes are always connected; a later non-adjacent
    node is connected when the bitset walk out of k reaches it, checked by
    a simple path unless g is ribbonless. Each path `msep._paths` finds is
    kept per pair as its (collider mask, non-collider mask): it still
    connects under a later C whose C ∪ an(C) holds its colliders and which
    misses its non-colliders, so `_paths` runs only when no kept path
    applies.
    """
    nodes = g.nodes
    n = len(nodes)
    full = (1 << n) - 1
    exits = _state_exits(g)
    starts = exits[2]
    adjacent = [(s | s >> n) & full | 1 << k for k, s in enumerate(starts)]
    # per node, the non-adjacent nodes above it
    apart = [full & ~a & ~((2 << k) - 1) for k, a in enumerate(adjacent)]
    bit = {v: 1 << k for k, v in enumerate(nodes)}
    anc = [0] * (1 << n)
    for k, v in enumerate(nodes):
        anc[1 << k] = sum(bit[u] for u in g.ancestors({v}))
    exact = g.is_ribbonless
    # per pair k < j at k * n + j, the (collider, non-collider) masks of
    # the paths found
    found = [[] for _ in range(n * n)]
    for cmask in range(1 << n):
        low = cmask & -cmask
        anc[cmask] = anc[cmask ^ low] | anc[low]
        colliders = cmask | anc[cmask]
        out = full & ~cmask
        sets = None
        conn = adjacent[:]
        for k in bits[out]:
            later = out & apart[k]
            if not later:
                continue
            reached = _walk_reach(exits, colliders, out, starts[k], bits)
            hits = (reached | reached >> n) & later
            if not exact:
                for j in bits[hits]:
                    kept = found[k * n + j]
                    for co, nc in kept:
                        if not (co & ~colliders or nc & cmask):
                            break
                    else:
                        if sets is None:
                            sets = (
                                {nodes[c] for c in bits[colliders]},
                                {nodes[c] for c in bits[out]},
                            )
                        path = next(_paths(g, nodes[k], nodes[j], *sets), None)
                        if path is None:
                            hits ^= 1 << j
                        else:
                            kept.append(_path_masks(path, bit))
            conn[k] |= hits
            for j in bits[hits]:
                conn[j] |= 1 << k
        yield cmask, conn


def _path_masks(path, bit):
    """The (collider mask, non-collider mask) of a path's inner nodes."""
    w = PathWitness(*path)
    co = nc = 0
    for v, collider in zip(w.nodes[1:-1], w.colliders):
        if collider:
            co |= bit[v]
        else:
            nc |= bit[v]
    return co, nc


def independence_model(g: MixedGraph, limit: int = 8) -> IndependenceModel:
    """Enumerate J_m(g): every triple <A,B|C> with A m-separated from B by C.

    Node sets are bit masks over the sorted nodes. m-separation models are
    compositional graphoids, so A and B are separated by C exactly when no
    node of B lies in the connection row (`_connections`) of a node of A.
    Per C, each A grows depth-first from its lowest node k by nodes above
    its highest one. The B candidates are the nodes above k, outside A,
    and connected to no node of A; adding a node to A only shrinks them,
    so a branch whose candidates run out is dropped whole. Every nonempty
    submask of the candidates is a B, so each statement is found once, as
    a mask triple with its smaller side first.

    Exponential in the node count; refuses graphs above `limit` nodes (pass a
    larger limit to override).
    """
    nodes = g.nodes
    n = len(nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    bits = _bit_table(n)
    full = (1 << n) - 1
    higher = [full & ~((2 << k) - 1) for k in range(n)]
    subsets = {}
    triples = []
    for cmask, conn in _connections(g, bits):
        out = full & ~cmask
        stack = []
        for k in bits[out]:
            above = out & higher[k]
            cand = above & ~conn[k]
            if cand:
                stack.append((1 << k, cand, above))
        while stack:
            amask, cand, grow = stack.pop()
            if cand & (cand - 1):
                bs = subsets.get(cand)
                if bs is None:
                    bs = subsets[cand] = _submasks(cand)
                triples.extend(zip(repeat(amask), bs, repeat(cmask)))
            else:
                triples.append((amask, cand, cmask))
            for x in bits[grow]:
                rest = cand & ~conn[x]
                if rest:
                    stack.append((amask | 1 << x, rest, grow & higher[x]))
    return IndependenceModel._from_masks(nodes, triples)


def _submasks(mask):
    """The nonempty submasks of mask, decreasing."""
    out = []
    sub = mask
    while sub:
        out.append(sub)
        sub = (sub - 1) & mask
    return out


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
    exactly C, and compress a, b and c minus C onto the remaining nodes.
    Dropping nodes keeps every side's label order, so the result stays
    canonical."""
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    _check_ground(J.ground, M, C)
    cmask = sum(J._bit[v] for v in C)
    drop = cmask | sum(J._bit[v] for v in M)
    kept = [k for k in range(len(J.nodes)) if not drop >> k & 1]
    triples = [
        (a, b, c ^ cmask)
        for a, b, c in J.triples
        if not (a | b) & drop and c & drop == cmask
    ]
    compress = {
        m: sum(1 << pos for pos, k in enumerate(kept) if m >> k & 1)
        for m in {m for triple in triples for m in triple}
    }
    return IndependenceModel._from_masks(
        tuple(J.nodes[k] for k in kept),
        [(compress[a], compress[b], compress[c]) for a, b, c in triples],
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
    adjacent = [s | s >> n for s in _state_exits(g)[2]]
    return not any(adjacent[k] & b for a, b, _c in J.triples for k in _bits(a))


def _json_list(labels, indent):
    if not labels:
        return "[]"
    items = ",\n".join(" " * (indent + 2) + json.dumps(v) for v in labels)
    return f"[\n{items}\n{' ' * indent}]"


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order. Written directly: an indent sends `json` to its
    pure-Python encoder, and each distinct side list is rendered only once."""
    ranks = J._ranks()
    nodes = J.nodes
    sides = {m: _json_list([nodes[k] for k in _bits(m)], 6) for m in ranks}
    statements = ",\n".join(
        f'    {{\n      "A": {sides[a]},\n      "B": {sides[b]},\n'
        f'      "C": {sides[c]}\n    }}'
        for a, b, c in J._sorted_triples(ranks)
    )
    body = f"[\n{statements}\n  ]" if statements else "[]"
    return f'{{\n  "ground": {_json_list(nodes, 2)},\n  "statements": {body}\n}}\n'


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
