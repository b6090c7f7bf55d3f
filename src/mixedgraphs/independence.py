"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

A model holds its statements as mask triples (a, b, c) over its sorted
ground: node k of the ground is bit k, and a is the side whose sorted labels
come first. Equality, hashing, membership, `model_equal`, `model_diff`,
`conforms` and `marginalise_condition` (a slice or a mask filter, then a
bit-compress table) work on the masks; `IndependenceStatement` objects are
built only when `statements` or `sorted_statements` is read. Ordering uses a
rank table: each mask gets its position in sorted label-tuple order, so a
statement sorts by three ints.

`independence_model` returns a model that holds its graph and enumerates
its triples when they are first read. `marginalise_condition` of such a
model enumerates only the statements it keeps: the conditioning sets C ∪ D
with A, B and D over the nodes outside M ∪ C. A model with no graph (from
`model_from_json` or the constructor) is marginalised by the mask filter.

`_connections` is the enumeration kernel: per conditioning mask C, in
increasing order, the mask of nodes m-connected to each node, from one
bitset walk per source (`msep._walk_reach`) and, on graphs that are not
ribbonless, simple paths that are found once and reused across conditioning
sets. `_enumerate` reads the statements off these rows, growing each A
depth-first and dropping a branch once no B is left for it. `model_to_json`
writes the canonical JSON layout directly.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache
from itertools import repeat

from .core import MixedGraph, MixedGraphError
from .msep import NotDisjoint, _paths, _walk_reach
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
        """J_m(g), enumerated when `triples` is first read."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=g.node_set, nodes=g.nodes, _graph=g)
        return model

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

    @cached_property
    def triples(self) -> frozenset:
        return frozenset(_enumerate(self._graph, 0, 0))

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

    def _sorted_triples(self):
        """The triples in statement key order. Each mask ranks by its
        position in sorted label-tuple order; bit order is label order, so
        sorting by the bit indices sorts by the labels. A model with at
        least 2^n triples reads the ranks off the shared table of all 2^n
        masks; a smaller one ranks only the masks it holds."""
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
        return self._statements(self._sorted_triples())


@lru_cache(maxsize=None)
def _bit_table(n):
    """Per n-bit mask, the indices of its set bits, ascending: 2^n tuples,
    built once per n."""
    table = [()]
    for k in range(n):
        table += [t + (k,) for t in table]
    return table


@lru_cache(maxsize=None)
def _rank_table(n):
    """Per n-bit mask, its position among all n-bit masks in the order of
    their ascending set-bit index tuples."""
    table = [0] * (1 << n)
    for r, m in enumerate(sorted(range(1 << n), key=_bit_table(n).__getitem__)):
        table[m] = r
    return table


def _connections(g: MixedGraph, fixed, drop):
    """The pairwise connection rows of g, per conditioning mask C = fixed | D
    for every D over the free nodes (those outside `drop`, which holds
    `fixed`), in increasing order of D: yields (C, conn), where for every
    free node k outside C, conn[k] holds k itself, the nodes adjacent to k,
    and the free nodes outside C m-connected to k given C, with
    non-colliders outside C.

    an(C) is the union of an(fixed), an(D minus its lowest node) and an(its
    lowest node), from the graph's `_ancestor_masks`. `msep._walk_reach`
    walks with collider set C ∪ an(C) and non-colliders outside C. Adjacent
    nodes are always connected; a later non-adjacent node is connected when
    the walk out of k reaches it, checked by a simple path unless g is
    ribbonless. Each path `msep._paths` finds is kept per pair as its
    (collider mask, non-collider mask): it still connects under a later C
    whose C ∪ an(C) holds its colliders and which misses its non-colliders,
    so `_paths` runs only when no kept path applies.
    """
    nodes = g.nodes
    n = len(nodes)
    bits = _bit_table(n)
    full = (1 << n) - 1
    free = full & ~drop
    exits = g._exits
    starts = exits[2]
    adjacent = [(s | s >> n) & full | 1 << k for k, s in enumerate(starts)]
    # per node, the free non-adjacent nodes above it
    apart = [free & ~a & ~((2 << k) - 1) for k, a in enumerate(adjacent)]
    single = g._ancestor_masks
    fixed_anc = 0
    for k in bits[fixed]:
        fixed_anc |= single[k]
    # an(D) per D, filled in increasing order
    anc = [0] * (1 << n)
    exact = g.is_ribbonless
    # per pair k < j at k * n + j, the (collider, non-collider) masks of
    # the paths found
    found = [[] for _ in range(n * n)]
    dmask = 0
    while True:
        low = dmask & -dmask
        if low:
            anc[dmask] = anc[dmask ^ low] | single[low.bit_length() - 1]
        cmask = fixed | dmask
        colliders = cmask | fixed_anc | anc[dmask]
        out = full & ~cmask
        live = free & ~dmask
        sets = None
        conn = adjacent[:]
        for k in bits[live]:
            later = live & apart[k]
            if not later:
                continue
            reached = _walk_reach(exits, colliders, out, starts[k])
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
                            kept.append(_path_masks(path, g._bit))
            conn[k] |= hits
            for j in bits[hits]:
                conn[j] |= 1 << k
        yield cmask, conn
        if dmask == free:
            return
        dmask = (dmask - free) & free


def _path_masks(path, bit):
    """The (collider mask, non-collider mask) of a path's inner nodes."""
    inner = path.nodes[1:-1]
    co = sum(bit[v] for v, collider in zip(inner, path.colliders) if collider)
    return co, sum(bit[v] for v in inner) - co


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
    """The mask triples (A, B, C) of J_m(g) with C = fixed | D and A, B and D
    over the free nodes, those outside `drop` (which holds `fixed`); the
    whole of J_m(g) is `_enumerate(g, 0, 0)`.

    Node sets are bit masks over the sorted nodes. m-separation models are
    compositional graphoids, so A and B are separated by C exactly when no
    node of B lies in the connection row (`_connections`) of a node of A.
    Per C, each A grows depth-first from its lowest node k by free nodes
    above its highest one. The B candidates are the free nodes above k,
    outside A, and connected to no node of A; adding a node to A only
    shrinks them, so a branch whose candidates run out is dropped whole.
    Every nonempty submask of the candidates is a B, so each statement is
    found once, as a mask triple with its smaller side first.
    """
    n = len(g.nodes)
    bits = _bit_table(n)
    free = ((1 << n) - 1) & ~drop
    higher = [free & ~((2 << k) - 1) for k in range(n)]
    subsets = {}
    triples = []
    for cmask, conn in _connections(g, fixed, drop):
        out = free & ~cmask
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
    return triples


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
    exactly C, and compress a, b and c onto the remaining nodes. A model
    from `independence_model` enumerates only those triples
    (`_enumerate(g, C, M ∪ C)`); a model with no graph is filtered. Dropping
    nodes keeps every side's label order, so the result stays canonical."""
    M, C = frozenset(M), frozenset(C)
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    _check_ground(J.ground, M, C)
    cmask = sum(J._bit[v] for v in C)
    drop = cmask | sum(J._bit[v] for v in M)
    kept = [k for k in range(len(J.nodes)) if not drop >> k & 1]
    if J._graph is not None:
        triples = _enumerate(J._graph, cmask, drop)
    else:
        triples = [
            (a, b, c)
            for a, b, c in J.triples
            if not (a | b) & drop and c & drop == cmask
        ]
    # the bits of C are not kept, so compressing c drops C from it
    compress = {
        m: sum(1 << pos for pos, k in enumerate(kept) if m >> k & 1)
        for m in set().union(*triples)
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
    adjacent = [s | s >> n for s in g._exits[2]]
    return not any(adjacent[k] & b for a, b, _c in J.triples for k in _bits(a))


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order. Written directly: an indent sends `json` to its
    pure-Python encoder. Each label is quoted once and each distinct side
    list rendered once."""
    quoted = [json.dumps(v) for v in J.nodes]
    triples = J._sorted_triples()
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
