"""Explicit independence models: J_m enumeration and the marginalise/condition
operator over triples <A, B | C>.

Models are stored extensionally. Statements with an empty side are implicit
(always true) and never stored; <A,B|C> and <B,A|C> are the same statement
and kept with the lexicographically smaller side first.

A model holds its statements as mask triples (a, b, c) over its sorted
ground: node k of the ground is bit k, and a is the side whose sorted labels
come first. Hashing, membership, `model_diff` and `marginalise_condition`
work on the masks; `IndependenceStatement` objects are built only when
`statements` or `sorted_statements` is read. A model with no graph is
sorted by a rank table: each mask gets its position in sorted label-tuple
order, so a statement sorts by three ints.

`independence_model` returns a model that holds its graph and enumerates
its statements when they are first read. `marginalise_condition` of such a
model enumerates only the statements it keeps, directly over the smaller
ground: the conditioning sets C ∪ D with A, B and D over the nodes outside
M ∪ C. A model with no graph (from `model_from_json` or the constructor) is
marginalised by a mask filter and a bit-compress table.

The enumeration decides every conditioning set at once. Per non-adjacent
pair, `_separation_sets` gives the set of Cs that separate it as one int,
a bit per C: a bit-sliced separation set. It comes from one
`msep._sliced_reach` per source and, on graphs that are not ribbonless,
one simple-path search per pair whose walk reaches the other node
(`_path_checked`), each path prefix carrying the Cs its inner nodes allow.
`_enumerate` ANDs these sets as it grows A and B in lexicographic preorder.
It keeps the statements as runs (A, B, sets), one per side pair in key
order, each C a set bit named by its rank. A model from a graph, or a
marginal of one, holds these runs: `len`, equality, `model_equal`,
`_side_pairs` and `model_to_json` read them as they are, and `triples`,
`statements` and `sorted_statements` expand them, in key order, so no
graph-backed model is sorted. Runs are canonical, so two models that hold
them are equal exactly when their runs are.
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache

from .core import HEAD, MixedGraph, MixedGraphError, _node_set
from .msep import NotDisjoint, _sliced_reach
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
    (A, B, C) mask triples over it. A model from `independence_model`, or
    a marginal of one, holds its statements as runs (`_enumerate`),
    enumerated on first use for the former, and expands them into
    `triples` when those are first read; `statements` is built from the
    triples on first use."""

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

    # the graph a model from `independence_model` enumerates its runs from
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
        """J_m(g), enumerated when its statements are first read."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=g.node_set, nodes=g.nodes, _graph=g)
        return model

    @classmethod
    def _of_runs(cls, nodes, runs):
        """The model over the sorted ground `nodes` holding the runs `runs`
        of `_enumerate`, over all of its nodes, unchecked."""
        model = cls.__new__(cls)
        model.__dict__.update(ground=frozenset(nodes), nodes=nodes, _runs=runs)
        return model

    def __setattr__(self, name, value):
        raise AttributeError("IndependenceModel is immutable")

    @cached_property
    def _runs(self):
        """The statements as `_enumerate`'s runs, in key order, for a model
        from a graph; None for a model built from triples or statements."""
        g = self._graph
        return None if g is None else _enumerate(g, 0, 0)[1]

    @cached_property
    def triples(self) -> frozenset:
        # only a model that holds runs gets here
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
        return hash((self.ground, self.triples))

    def __len__(self):
        runs = self._runs
        if runs is None:
            return len(self.triples)
        return sum(sets.bit_count() for _a, _b, sets in runs)

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
        """The triples in statement key order: expanded from the runs, which
        are in that order, for a model that holds them, else sorted. Each
        mask ranks by its position in sorted label-tuple order; bit order is
        label order, so sorting by the bit indices sorts by the labels. A
        model with at least 2^n triples reads the ranks off the shared table
        of all 2^n masks; a smaller one ranks only the masks it holds."""
        n = len(self.nodes)
        runs = self._runs
        if runs is not None:
            return _expand(n, runs)
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
    and j, from one depth-first simple-path search out of k.

    Each path prefix carries the sets that its inner nodes allow so far:
    leaving an inner node t by a head after arriving with a head makes t a
    collider, which passes `col[t]`; every other exit passes `out[t]`, as in
    `msep._sliced_reach`. A node is entered only when some carried set lets
    the path leave it, and its exits are read off `g._split_flows` by which
    of the two is non-empty. Each arrival at j joins the sets it carries,
    and a prefix is extended only while it carries a set not joined yet.

    Exact by definition: the result is the OR over simple k-j paths of
    `walked` ANDed with their inner nodes' sets. A set r that some path P
    carries to j is either joined before the search reaches P's prefixes,
    or is carried along every one of them, none of which is pruned, and is
    joined at j; a joined set was carried to j by a simple path."""
    split, bit = g._split_flows, g._bit
    target = g.nodes[j]
    seen = 1 << k
    path = [g.nodes[k]]
    joined = 0
    # per node on the path: the exits left to try, and the sets a path may
    # leave it with by a head and by a tail
    pending = [(iter(split[path[0]][0]), walked, walked)]
    while True:
        exits, by_head, by_tail = pending[-1]
        for o, mh, mo, _e in exits:
            sets = (by_head if mh == HEAD else by_tail) & ~joined
            if not sets:
                continue
            if o == target:
                joined |= sets
                if joined == walked:
                    return joined
                continue
            b = bit[o]
            if seen & b:
                continue
            t = b.bit_length() - 1
            on_tail = sets & out[t]
            on_head = sets & col[t] if mo == HEAD else on_tail
            if on_head or on_tail:
                seen |= b
                path.append(o)
                # 0: it may leave by both marks, 1: a head only, -1: a tail only
                which = bool(on_head) - bool(on_tail)
                pending.append((iter(split[o][which]), on_head, on_tail))
                break
        else:
            pending.pop()
            if not pending:
                return joined
            seen ^= bit[path.pop()]


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
    free nodes, those outside `drop` (which holds `fixed`), as (f, runs):
    f is the number of free nodes, and each run (A, B, sets) holds masks A
    and B over the free nodes alone and the non-empty set of the Ds, a bit
    per D of rank r in `_rank_order(f)`, with <A, B | fixed ∪ D> in J_m(g).
    There is one run per side pair, in statement key order. The whole of
    J_m(g) is `_enumerate(g, 0, 0)`; `_expand` lists the mask triples.

    m-separation models are compositional graphoids, so C separates A and
    B exactly when it separates every pair of a node of A and a node of B:
    their separating sets are the AND of the pairs' `_separation_sets`. A
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
    order of the D masks, which are the statements' C.
    """
    f = len(g.nodes) - drop.bit_count()
    sep = [[0] * f for _ in range(f)]
    for p, q, s in _separation_sets(g, fixed, drop):
        sep[p][q] = sep[q][p] = s
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
    return f, runs


def _expand(f, runs):
    """The mask triples (A, B, D) of runs over f free nodes, in the order
    of the runs and, within one, of the ranks of their D."""
    order = _rank_order(f)[0]
    return [(a, b, order[r]) for a, b, sets in runs for r in _bits(sets)]


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
    from `independence_model` enumerates only those statements, as runs
    over the remaining nodes (`_enumerate(g, C, M ∪ C)`); a model with no
    graph is filtered. Dropping nodes keeps every side's label order, so
    the result stays canonical."""
    M, C = _node_set(M, "M"), _node_set(C, "C")
    if M & C:
        raise NotDisjoint("M and C must be disjoint")
    _check_ground(J.ground, M, C)
    cmask = sum(J._bit[v] for v in C)
    drop = cmask | sum(J._bit[v] for v in M)
    kept = [k for k in range(len(J.nodes)) if not drop >> k & 1]
    nodes = tuple(J.nodes[k] for k in kept)
    if J._graph is not None:
        _f, runs = _enumerate(J._graph, cmask, drop)
        return IndependenceModel._of_runs(nodes, runs)
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
    runs when both hold them, as runs are canonical (key order, one per side
    pair), else by their triples."""
    runs1, runs2 = J1._runs, J2._runs
    if runs1 is not None and runs2 is not None:
        return runs1 == runs2
    return J1.triples == J2.triples


def _side_pairs(J: IndependenceModel):
    """The side mask pairs (A, B) of J's statements: one per run for a model
    that holds runs, else one per triple, repeats included."""
    runs = J._runs
    return ((a, b) for a, b, _c in (J.triples if runs is None else runs))


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
    return not any(adjacent[k] & b for a, b, _c in J.triples for k in _bits(a))


def model_to_json(J: IndependenceModel) -> str:
    """J in the `json.dumps(payload, indent=2, sort_keys=True)` layout,
    statements in key order. Written directly: an indent sends `json` to its
    pure-Python encoder. Each label is quoted once and each distinct side
    list rendered once. A model that holds runs has each run's text up to
    its C lists built once, and picks each statement's C list by rank, the
    set bits read from the highest down."""
    quoted = [json.dumps(v) for v in J.nodes]

    def sides(masks):
        """Per mask, the text of its side list."""
        texts = {}
        for m in masks:
            items = ",\n        ".join(quoted[k] for k in _bits(m))
            texts[m] = f"[\n        {items}\n      ]" if m else "[]"
        return texts

    runs = J._runs
    if runs is None:
        triples = J._ordered
        text = sides(set().union(*triples))
        chunks = [
            f'    {{\n      "A": {text[a]},\n      "B": {text[b]},\n'
            f'      "C": {text[c]}\n    }}'
            for a, b, c in triples
        ]
    else:
        order = _rank_order(len(quoted))[0]
        used = 0
        for _a, _b, sets in runs:
            used |= sets
        ranks = list(_bits(used))
        masks = {m for a, b, _sets in runs for m in (a, b)}
        text = sides(masks | {order[r] for r in ranks})
        # indexed by a set's bit length: the C list and close of its
        # highest bit's rank, and that bit
        closes = [""] * (used.bit_length() + 1)
        highs = [0] * len(closes)
        for r in ranks:
            closes[r + 1] = text[order[r]] + "\n    }"
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
