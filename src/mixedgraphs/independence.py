"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

A model holds its statements as runs (A, B, sets) over its sorted ground:
node k of the ground is bit k, A and B are masks with A the side whose
sorted labels come first, and bit r of `sets` names the conditioning set
`_cs[r]`, where `_cs` is the model's table of C masks in key order. There
is one run per side pair, in key order, so runs over one table are
canonical. `len`, membership, `conforms` and `model_to_json` read the runs;
`triples` (the canonical mask triples), `statements` and
`sorted_statements` expand them in key order, and hashing, `model_diff`
and equality of models not both from graphs read the triples.
`IndependenceStatement` objects are built only when `statements` or
`sorted_statements` is read.

A model of a graph is its separation sets. `independence_model` returns a
model that holds only its source (g, fixed, drop): J_m(g) is (g, 0, 0).
Its one table is `_pairs`, per pair of its nodes the set of Cs that
m-separate them as one int, a bit per C, from one `msep._separation_sets`
pass when it is first read. J_m(g) is a compositional graphoid, so C
separates A and B exactly when it separates every pair across them: the
pairs fix the model. Two models of graphs are equal when their `_pairs`
are, and no statement is enumerated to tell. `_runs` is `_enumerate` of
`_pairs`, which ANDs the pairs' sets as it grows A and B in lexicographic
preorder, listing the side pairs in key order, and keeps each pair's sets
whole as its run, so no model of a graph is sorted.

Marginalising and conditioning compose: α(α(J; M1, C1); M2, C2) is
α(J; M1 ∪ M2, C1 ∪ C2). So `marginalise_condition` of a model of a graph
reads nothing: it ORs C into `fixed` and M ∪ C into `drop`, over g's
bits, and the slice stays lazy. Its sets, over the conditioning sets
fixed ∪ D with D over the nodes outside `drop`, already name the Cs of the
slice. Every such model takes `_rank_order(f)[0]`, the shared table of all
masks over its f nodes, as `_cs`. A model from `model_from_json` or the
constructor groups its triples into runs when it is built, over a table of
only the Cs it names, so a wide ground needs no 2^n-bit int; it is
marginalised by a mask filter and a bit-compress table, and the result is
grouped likewise.
"""

from __future__ import annotations

import json
from bisect import bisect_left
from functools import cached_property

from .core import _LABEL_RE, MixedGraph, MixedGraphError, _node_set
from .msep import NotDisjoint, _bits, _mask, _rank_order, _separation_sets
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


class IndependenceModel:
    """A finite set of independence statements over a ground node set.

    `nodes` is the sorted ground. The statements are held as runs `_runs`
    (A, B, sets), one per side pair in statement key order: A and B are
    masks over `nodes`, and bit r of `sets` names the conditioning set
    `_cs[r]`, `_cs` being the model's table of C masks in key order. A
    model of a graph, or a slice of one, holds its source
    `_source = (g, fixed, drop)` and reads it lazily: its separation sets
    `_pairs` first, then the runs `_enumerate` builds from them, over the
    table `_rank_order(f)[0]` of every C over its f nodes. A model from
    statements has no source and groups them into runs over the Cs they
    name when it is built. `triples` is the frozenset of canonical
    (A, B, C) mask triples and `statements` the statements, both built on
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
        self._hold(map(self._triple, statements))

    # (g, fixed, drop) for a model of a graph, or a slice of one
    _source = None

    @classmethod
    def _from_masks(cls, nodes, triples):
        """The model over the sorted ground `nodes` holding the canonical
        mask triples `triples`, unchecked."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=frozenset(nodes), nodes=nodes)
        model._hold(triples)
        return model

    @classmethod
    def _of_graph(cls, g, fixed=0, drop=0):
        """The slice of J_m(g) that conditions on the nodes of `fixed` and
        drops those of `drop` (which holds `fixed`), both masks over g's
        nodes; J_m(g) itself by default. Nothing is read until it is used."""
        nodes = tuple(v for k, v in enumerate(g.nodes) if not drop >> k & 1)
        ground = frozenset(nodes) if drop else g.node_set
        model = cls.__new__(cls)
        model.__dict__.update(ground=ground, nodes=nodes, _source=(g, fixed, drop))
        return model

    def _hold(self, triples):
        """Hold the canonical mask triples `triples` as runs over a table of
        the Cs they name, both sorted into key order: bit order is label
        order, so a mask sorts by its set-bit indices."""
        triples = frozenset(triples)
        cs = sorted({c for _a, _b, c in triples}, key=_indices)
        rank = {c: r for r, c in enumerate(cs)}
        sides = {}
        for a, b, c in triples:
            sides[a, b] = sides.get((a, b), 0) | 1 << rank[c]
        runs = [(a, b, sides[a, b]) for a, b in sorted(sides, key=_side_key)]
        self.__dict__.update(triples=triples, _cs=cs, _runs=runs)

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

    @cached_property
    def _pairs(self):
        """Per pair of nodes, the Cs that m-separate them, a bit per C of
        `_cs`: one `_separation_sets` pass over the source. Only a model
        with a source gets here."""
        f = len(self.nodes)
        sep = [[0] * f for _ in range(f)]
        for p, q, s in _separation_sets(*self._source):
            sep[p][q] = sep[q][p] = s
        return sep

    @cached_property
    def _runs(self):
        # only a model with a source gets here
        return _enumerate(self._pairs)

    @cached_property
    def _cs(self):
        # only a model with a source gets here
        return _rank_order(len(self.nodes))[0]

    @cached_property
    def triples(self) -> frozenset:
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
            and _same_statements(self, other)
        )

    def __hash__(self):
        """Hashes the expanded triples: equal models may hold their runs
        over different tables of Cs."""
        return hash((self.ground, self.triples))

    def __len__(self):
        return sum(sets.bit_count() for _a, _b, sets in self._runs)

    def __contains__(self, statement):
        """Whether the statement is held, read off one bit: the run of its
        side pair and the rank of its C are found by bisecting the runs and
        the table, both in key order."""
        if not isinstance(statement, IndependenceStatement):
            return False
        try:
            a, b, c = self._triple(statement)
        except KeyError:
            return False
        runs, cs = self._runs, self._cs
        i = bisect_left(runs, _side_key((a, b)), key=_side_key)
        r = bisect_left(cs, _indices(c), key=_indices)
        return (
            i < len(runs)
            and runs[i][:2] == (a, b)
            and r < len(cs)
            and cs[r] == c
            and runs[i][2] >> r & 1 == 1
        )

    def __repr__(self):
        return f"IndependenceModel(ground={list(self.nodes)}, {len(self)} statements)"

    @cached_property
    def _ordered(self) -> list:
        """The triples in statement key order, expanded from the runs."""
        return _expand(self._cs, self._runs)

    def sorted_statements(self):
        return self._statements(self._ordered)


def _indices(mask):
    """The set-bit indices of mask, ascending: over a sorted ground, its
    position in key order."""
    return tuple(_bits(mask))


def _side_key(run):
    """The key-order position of a run, or of a side pair (A, B): the
    set-bit indices of A and of B."""
    return _indices(run[0]), _indices(run[1])


def independence_model(
    g: MixedGraph, limit: int = MODEL_NODE_LIMIT
) -> IndependenceModel:
    """J_m(g): every triple <A,B|C> with A m-separated from B by C.

    The model holds g and reads its separation sets when first used;
    `marginalise_condition` of it is a slice that reads only its own.
    Exponential in the node count; refuses graphs above `limit` nodes at
    once (pass a larger limit to override).
    """
    n = len(g.nodes)
    if n > limit:
        raise TooLarge(f"{n} nodes exceeds enumeration limit {limit}")
    return IndependenceModel._of_graph(g)


def _enumerate(sep):
    """The runs of the model whose f × f matrix of separation sets is `sep`
    (a model's `_pairs`): `sep[p][q]` holds the Cs separating nodes p and q,
    a bit per C of rank r in `_rank_order(f)`, and 0 for an adjacent pair.
    Each run (A, B, sets) holds masks A and B over the f nodes and the
    non-empty set of the Cs that separate them. There is one run per side
    pair, in statement key order; `_expand(_rank_order(f)[0], runs)` lists
    the mask triples.

    m-separation models are compositional graphoids, so C separates A and
    B exactly when it separates every pair of a node of A and a node of B:
    their separating sets are the AND of the pairs' sets. A
    grows from its lowest node p by nodes above its highest, carrying per
    node q the sets separating q from all of A; B grows likewise over the
    nodes above p outside A, carrying the sets separating it from A. Growth
    only shrinks the sets, so a branch whose sets are all empty is dropped
    whole. Every set bit left names one C, and a side pair's sets are kept
    whole as its run rather than split into one triple per C.

    Why this is key order: node positions follow label order, and a
    statement's key compares A's sorted labels, then B's, then C's. A and
    B each grow in preorder, pushed on explicit stacks, which lists sorted
    index tuples lexicographically. With min B > min A, A is the side that
    sorts first, so each side pair comes once and with its sides in key
    order. Within one run, the set bits read in rank order are the sorted
    order of the C masks.
    """
    f = len(sep)
    runs = []
    append = runs.append
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
                append((amask, bmask, sets))
                for i2 in range(len(row) - 1, i, -1):
                    q, s = row[i2]
                    if sets & s:
                        grow.append((bmask | 1 << q, i2, sets & s))
            for x in range(f - 1, top, -1):
                apart = sep[x]
                grown = [(q, s & apart[q]) for q, s in row if s & apart[q]]
                if grown:
                    stack.append((amask | 1 << x, x, grown))
    return runs


def _expand(cs, runs):
    """The mask triples (A, B, C) of runs over the table of Cs `cs`, in the
    order of the runs and, within one, of the ranks of their C."""
    return [(a, b, cs[r]) for a, b, sets in runs for r in _bits(sets)]


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

    A model of a graph, or a slice of one, is sliced: the operator
    composes, so the result is the slice of the same graph that also
    conditions on C and drops M ∪ C, read when it is first used. A model
    from statements is filtered on masks: keep (a, b, c) when a and b avoid
    M ∪ C and c meets M ∪ C in exactly C, and compress a, b and c onto the
    remaining nodes; the kept triples are grouped into runs anew. Dropping
    nodes keeps every side's label order, so each kept triple stays
    canonical, but it can reorder the Cs, which are sorted again."""
    M, C = _node_set(M, "M"), _node_set(C, "C")
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    _check_ground(J.ground, M, C)
    if J._source is not None:
        g, fixed, drop = J._source
        cmask = _mask(g, C)
        return IndependenceModel._of_graph(g, fixed | cmask, drop | cmask | _mask(g, M))
    cmask = sum(J._bit[v] for v in C)
    drop = cmask | sum(J._bit[v] for v in M)
    kept = [k for k in range(len(J.nodes)) if not drop >> k & 1]
    nodes = tuple(J.nodes[k] for k in kept)
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


def _same_statements(J1: IndependenceModel, J2: IndependenceModel) -> bool:
    """Whether two models over one ground hold the same statements: by their
    separation sets when both have a source, as a model of a graph is fixed
    by its pairs' sets, else by their triples."""
    if J1._source and J2._source:
        return J1._pairs == J2._pairs
    return J1.triples == J2.triples


def model_equal(J1: IndependenceModel, J2: IndependenceModel) -> bool:
    if J1.ground != J2.ground:
        raise GroundMismatch("models are over different ground sets")
    return _same_statements(J1, J2)


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
    return not any(adjacent[k] & b for a, b, _sets in J._runs for k in _bits(a))


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order, read off its runs. Written directly: an indent
    sends `json` to its pure-Python encoder. Each label is quoted once and
    each distinct side list rendered once. Each run's text up to its C lists
    is built once, and each statement's C list is picked by its rank in the
    model's table of Cs, the set bits read from the highest down."""
    quoted = [json.dumps(v) for v in J.nodes]
    cs, runs = J._cs, J._runs
    used = 0
    for _a, _b, sets in runs:
        used |= sets
    ranks = list(_bits(used))
    # per side and C mask, the text of its list
    text = {}
    masks = {m for a, b, _sets in runs for m in (a, b)}
    for m in masks | {cs[r] for r in ranks}:
        items = ",\n        ".join(quoted[k] for k in _bits(m))
        text[m] = f"[\n        {items}\n      ]" if m else "[]"
    # indexed by a set's bit length: the C list and close of its highest
    # bit's rank, and that bit
    closes = [""] * (used.bit_length() + 1)
    highs = [0] * len(closes)
    for r in ranks:
        closes[r + 1] = text[cs[r]] + "\n    }"
        highs[r + 1] = 1 << r
    # one chunk per run: its statements
    chunks = []
    for a, b, sets in runs:
        head = f'    {{\n      "A": {text[a]},\n      "B": {text[b]},\n      "C": '
        picked = []
        while sets:
            top = sets.bit_length()
            picked.append(closes[top])
            sets ^= highs[top]
        picked.reverse()
        chunks.append(head + (",\n" + head).join(picked))
    body = "[\n" + ",\n".join(chunks) + "\n  ]" if chunks else "[]"
    ground = ",\n    ".join(quoted)
    ground = f"[\n    {ground}\n  ]" if quoted else "[]"
    return f'{{\n  "ground": {ground},\n  "statements": {body}\n}}\n'


def model_from_json(text: str) -> IndependenceModel:
    payload = _json_payload(text)
    ground = _json_field(payload, "ground", "model", "labels")
    bad = [v for v in ground if not _LABEL_RE.match(v)]
    if bad:
        raise ParseError(f"ground: bad node label {bad[0]!r}", 0)
    statements = []
    for k, s in enumerate(_json_field(payload, "statements", "model", "objects")):
        where = f"statements[{k}]"
        A, B = (_json_field(s, side, where, "labels") for side in "AB")
        C = _json_field(s, "C", where, "labels", [])
        if not A or not B:
            raise ParseError(f"{where}: sides A and B must be nonempty", 0)
        try:
            statements.append(IndependenceStatement(A, B, C))
        except NotDisjoint as exc:
            raise ParseError(f"{where}: {exc}", 0) from None
    return IndependenceModel(ground, statements)
