"""Derandomized fuzz of the parser and of every CLI subcommand: each run ends
with exit code 0, 1, 2 or 3, and nothing escapes as a traceback."""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from mixedgraphs.cli import main
from mixedgraphs.core import MixedGraphError
from mixedgraphs.textfmt import ParseError, parse_graph

FUZZ = settings(derandomize=True, database=None, deadline=None)

LABELS = ("a", "b", "c", "d", "e")
TOKENS = ("->", "<->", "--")


def _mostly(valid, invalid):
    """A draw from `valid` four times in five, else one from `invalid`."""
    return st.tuples(valid, invalid, st.integers(0, 99)).map(
        lambda p: p[0] if p[2] < 80 else p[1]
    )


def _names(label):
    return st.lists(label, max_size=3).map(" ".join)


def _role_lines(label):
    role = st.builds(
        lambda d, names: f"{d}: {names}", st.sampled_from(("marg", "cond")), _names(label)
    )
    return st.lists(role, max_size=2)


names = _names(st.sampled_from(LABELS))
ends = st.lists(st.sampled_from(LABELS), min_size=2, max_size=2, unique=True)
well_formed = st.builds(
    lambda edges, roles: "\n".join(edges + roles),
    st.lists(
        st.builds(lambda e, op: f"{e[0]} {op} {e[1]}", ends, st.sampled_from(TOKENS)),
        max_size=8,
        unique=True,
    ),
    st.lists(st.sampled_from(("marg", "cond")), max_size=2, unique=True).flatmap(
        lambda roles: st.tuples(*(names.map(f"{r}: ".__add__) for r in roles)).map(list)
    ),
)
label = _mostly(st.sampled_from(LABELS), st.sampled_from(("_m1", "x-y", "é", "")))
token = _mostly(st.sampled_from(TOKENS), st.sampled_from(("<-", "-", "")))
noisy_line = st.one_of(
    st.builds(lambda a, op, b: f"{a} {op} {b}", label, token, label),
    _role_lines(label).map("\n".join),
    names.map("nodes: ".__add__),
    st.just("# note"),
    st.text(max_size=8),
)
# three files in four are well formed; the others mix in bad labels, bad
# tokens, loops, repeated edges and role lines, `nodes:` lines, comments and
# free text
graph_text = st.one_of(
    well_formed, well_formed, well_formed, st.lists(noisy_line, max_size=8).map("\n".join)
)


def _flag(name, values):
    return st.one_of(st.just([]), values.map(lambda v: [name, v]))


def _required(name, values):
    return _mostly(values.map(lambda v: [name, v]), st.just([]))


def _switch(name):
    return st.sampled_from(([], [name]))


def _command(name, *parts):
    return st.tuples(*parts).map(lambda ps: [name] + [tok for p in ps for tok in p])


ROLES = (_flag("--marg", names), _flag("--cond", names))
LIMIT = _flag("--limit", st.sampled_from(("-1", "0", "3", "8", "x")))
OUTPUT = st.sampled_from(([], ["--dot"], ["--json"]))
CLASSES = ("rg", "sg", "ag", "dag", "ug", "bg", "zz")
SUITES = ("stability", "composition", "correspondence", "lemma1", "maximality", "zz")

COMMANDS = st.one_of(
    _command("validate", _flag("--class", st.sampled_from(CLASSES))),
    _command(
        "project",
        _required("--type", st.sampled_from(("rg", "sg", "ag", "xg"))),
        *ROLES,
        _switch("--trace"),
        _switch("--force"),
        OUTPUT,
    ),
    _command(
        "msep",
        _required("--A", names),
        _required("--B", names),
        _flag("--C", names),
        _switch("--witness"),
    ),
    _command("model", _switch("--json"), LIMIT),
    _command("marginalise", *ROLES, _switch("--json"), LIMIT),
    _command("dagify", OUTPUT),
    _command("maximalize", OUTPUT),
    _command(
        "check",
        _required("--suite", st.sampled_from(SUITES)),
        _flag("--seeds", st.sampled_from(("0", "1", "2", "-1", "x"))),
    ),
)


@FUZZ
@given(graph_text)
def test_parse_graph_raises_only_domain_errors(text):
    try:
        doc = parse_graph(text)
    except ParseError as exc:
        # every error of the text format sits on an edge or directive line,
        # and its column on a character of that line that is no blank
        line = text.splitlines()[exc.lineno - 1]
        assert 1 <= exc.col <= len(line) and not line[exc.col - 1].isspace(), exc
        return
    except MixedGraphError:
        return
    doc.graph()


def test_every_subcommand_keeps_the_exit_code_contract(tmp_path):
    path = tmp_path / "g.mg"

    @settings(FUZZ, max_examples=150)
    @given(graph_text, _mostly(st.just(b""), st.just(b"\xff")), COMMANDS)
    def run(text, tail, argv):
        path.write_bytes(text.encode("utf-8") + tail)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main([argv[0], str(path), *argv[1:]])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 1, 2, 3), (argv, text)
        assert "Traceback" not in err.getvalue(), (argv, text)

    run()
