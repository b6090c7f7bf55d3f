import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedgraphs
from mixedgraphs import cli, suites
from mixedgraphs.cli import main
from mixedgraphs.core import MixedGraph
from mixedgraphs.independence import model_from_json
from mixedgraphs.textfmt import parse_graph

FIXTURES = Path(__file__).parent / "fixtures"


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def fixture(name):
    return FIXTURES / name


def test_validate_prints_tags(capsys):
    code, out, _ = run(capsys, "validate", fixture("chain.mg"))
    assert code == 0
    assert out == "AG DAG LMG RG SG\n"


def test_validate_class_gate_exit_codes(capsys):
    assert run(capsys, "validate", fixture("chain.mg"), "--class", "dag")[0] == 0
    code, out, _ = run(
        capsys, "validate", fixture("conditioning_common_response.mg"), "--class", "ug"
    )
    assert code == 1


def test_project_rg_conditioning_transcript(capsys):
    code, out, _ = run(
        capsys,
        "project",
        fixture("conditioning_common_response.mg"),
        "--type",
        "rg",
        "--cond",
        "1",
    )
    assert code == 0
    assert out == "nodes: 2 3\n2 -- 3\n3 -> 2\n"


def test_project_sg_and_ag_conditioning_transcript(capsys):
    for kind in ("sg", "ag"):
        code, out, _ = run(
            capsys,
            "project",
            fixture("conditioning_common_response.mg"),
            "--type",
            kind,
            "--cond",
            "1",
        )
        assert code == 0
        assert out == "nodes: 2 3\n2 -- 3\n"


def test_project_marginalisation_transcripts(capsys):
    code, out, _ = run(
        capsys,
        "project",
        fixture("marginalising_common_parent.mg"),
        "--type",
        "sg",
        "--marg",
        "3",
    )
    assert code == 0
    assert out == "nodes: 1 2\n1 <-> 2\n2 -> 1\n"
    code, out, _ = run(
        capsys,
        "project",
        fixture("marginalising_common_parent.mg"),
        "--type",
        "ag",
        "--marg",
        "3",
    )
    assert code == 0
    assert out == "nodes: 1 2\n2 -> 1\n"


def test_project_same_rg_different_sg_transcripts(capsys):
    pair_a = fixture("same_arc_different_sg_a.mg")
    pair_b = fixture("same_arc_different_sg_b.mg")
    args_a = ["--marg", "m1,m2", "--cond", "c"]
    args_b = ["--marg", "m"]
    assert run(capsys, "project", pair_a, "--type", "rg", *args_a)[1] == (
        "nodes: a b\na <-> b\n"
    )
    assert run(capsys, "project", pair_b, "--type", "rg", *args_b)[1] == (
        "nodes: a b\na <-> b\n"
    )
    assert run(capsys, "project", pair_a, "--type", "sg", *args_a)[1] == (
        "nodes: a b\nb -> a\n"
    )
    assert run(capsys, "project", pair_b, "--type", "sg", *args_b)[1] == (
        "nodes: a b\na <-> b\n"
    )


def test_project_identity_echoes_canonically(capsys):
    code, out, _ = run(capsys, "project", fixture("chain.mg"), "--type", "rg")
    assert code == 0
    assert out == "nodes: a b m\na -> m\nm -> b\n"


def test_project_trace_goes_to_stderr(capsys):
    code, out, err = run(
        capsys,
        "project",
        fixture("marginalising_common_parent.mg"),
        "--type",
        "rg",
        "--marg",
        "3",
    )
    assert err == ""
    code, out, err = run(
        capsys,
        "project",
        fixture("marginalising_common_parent.mg"),
        "--type",
        "rg",
        "--marg",
        "3",
        "--trace",
    )
    assert code == 0
    assert "rule=4 inner=3 generated=1 <-> 2" in err


def test_project_trace_of_edges_left_pending(tmp_path, capsys):
    # b's search first reaches c, tails at both ends, by a step from b
    # itself. With b -> a, c's search later enters b from a, and the V
    # b -> a <- c keeps b -- c; without it every such walk bounces between b
    # and c, and no b -- c is generated
    runs = (
        (
            "b -> a\nb -> c\nb <-> c\nc -> a\nc -> b\n",
            "b -- c\n",
            "rule=10 inner=a generated=b -- c\n",
        ),
        ("b -> c\nb <-> c\nc -> a\nc -> b\n", "", ""),
    )
    for text, kept, trace in runs:
        f = tmp_path / "g.mg"
        f.write_text(text + "cond: a\n", encoding="utf-8")
        code, out, err = run(capsys, "project", f, "--type", "rg", "--trace")
        assert (code, err) == (0, trace)
        assert out == f"nodes: b c\n{kept}b <-> c\nb -> c\nc -> b\n"


def test_project_dot_output(capsys):
    code, out, _ = run(
        capsys, "project", fixture("chain.mg"), "--type", "rg", "--dot"
    )
    assert code == 0 and out.startswith("digraph chain {")


def test_project_json_output(capsys):
    from mixedgraphs.textfmt import document_from_json

    code, out, _ = run(
        capsys,
        "project",
        fixture("marginalising_common_parent.mg"),
        "--type",
        "sg",
        "--marg",
        "3",
        "--json",
    )
    assert code == 0
    doc = document_from_json(out)
    assert doc.nodes == ("1", "2")
    assert {e.render() for e in doc.edges} == {"1 <-> 2", "2 -> 1"}


def test_msep_separated_and_connected(capsys):
    code, out, _ = run(
        capsys, "msep", fixture("chain.mg"), "--A", "a", "--B", "b", "--C", "m"
    )
    assert (code, out) == (0, "separated\n")
    code, out, _ = run(capsys, "msep", fixture("chain.mg"), "--A", "a", "--B", "b")
    assert (code, out) == (1, "connected\n")


def test_msep_witness_path(capsys):
    code, out, _ = run(
        capsys, "msep", fixture("chain.mg"), "--A", "a", "--B", "b", "--witness"
    )
    assert code == 1
    assert out == "connected\na -> m -> b\n"


def test_msep_witness_renders_arcs_and_lines(tmp_path, capsys):
    f = tmp_path / "arc_line.mg"
    f.write_text("a <-> m\nm -- b\n", encoding="utf-8")
    code, out, _ = run(capsys, "msep", f, "--A", "a", "--B", "b", "--witness")
    assert (code, out) == (1, "connected\na <-> m -- b\n")


def test_msep_witness_skips_separated_pairs(tmp_path):
    # a1 reaches only a 40-rung line ladder, which holds no path to b, so
    # the witness search must not enumerate a1's paths before trying a2
    k = 40
    lines = ["a1 -- u0", "a2 -- b"]
    lines += [f"{r}{i} -- {r}{i + 1}" for r in "uv" for i in range(k - 1)]
    lines += [f"u{i} -- v{i}" for i in range(k)]
    f = tmp_path / "ladder.mg"
    f.write_text("\n".join(lines) + "\n", encoding="utf-8")
    src = Path(mixedgraphs.__file__).resolve().parent.parent
    argv = ["msep", str(f), "--A", "a1,a2", "--B", "b", "--witness"]
    proc = subprocess.run(
        [sys.executable, "-m", "mixedgraphs", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=30,
    )
    assert (proc.returncode, proc.stdout) == (1, "connected\na2 -- b\n")
    assert "Traceback" not in proc.stderr


def test_model_text_and_json(capsys):
    code, out, _ = run(capsys, "model", fixture("chain.mg"))
    assert code == 0
    assert out == "a _||_ b | m\n"
    code, out, _ = run(capsys, "model", fixture("chain.mg"), "--json")
    model = model_from_json(out)
    assert sorted(model.ground) == ["a", "b", "m"]
    assert json.loads(out)["statements"] == [{"A": ["a"], "B": ["b"], "C": ["m"]}]


def test_model_json_golden_transcript(capsys):
    code, out, _ = run(capsys, "model", fixture("same_arc_different_sg_a.mg"), "--json")
    assert code == 0
    golden = fixture("same_arc_different_sg_a.model.golden")
    assert out == golden.read_text(encoding="utf-8")


def test_marginalise_command(capsys):
    code, out, _ = run(
        capsys, "marginalise", fixture("chain.mg"), "--marg", "m"
    )
    assert code == 0
    assert out == ""  # marginalising the mediator removes the only statement
    code, out, _ = run(
        capsys, "marginalise", fixture("chain.mg"), "--cond", "m", "--json"
    )
    payload = json.loads(out)
    assert payload["statements"] == [{"A": ["a"], "B": ["b"], "C": []}]


def test_marginalise_checks_roles_before_enumerating(tmp_path, capsys, monkeypatch):
    f = tmp_path / "isolated.mg"
    nodes = " ".join(f"n{k}" for k in range(10))
    f.write_text(f"nodes: {nodes}\n", encoding="utf-8")

    def enumerate_model(*_args, **_kwargs):
        raise AssertionError("the model was enumerated")

    monkeypatch.setattr(cli, "independence_model", enumerate_model)
    code, out, err = run(
        capsys, "marginalise", f, "--marg", "zz,n1", "--cond", "yy", "--limit", "10"
    )
    assert (code, out) == (3, "")
    assert err == (
        "NotInGround: M and C name nodes outside the ground set: ['yy', 'zz']\n"
    )


def test_dagify_command_round_trips(tmp_path, capsys):
    f = tmp_path / "arc.mg"
    f.write_text("a <-> b\n", encoding="utf-8")
    code, out, _ = run(capsys, "dagify", f)
    assert code == 0
    assert out == "nodes: _m1 a b\n_m1 -> a\n_m1 -> b\nmarg: _m1\n"
    doc = parse_graph(out)
    assert doc.marg == ("_m1",) and not doc.cond


def test_maximalize_command(capsys):
    code, out, _ = run(capsys, "maximalize", fixture("chain.mg"))
    assert (code, out) == (0, "nodes: a b m\na -> m\nm -> b\n")


def test_maximalize_rejects_a_ribbon(tmp_path, capsys):
    f = tmp_path / "ribbon.mg"
    f.write_text("h -> i\nj -> i\ni -- k\n", encoding="utf-8")
    code, out, err = run(capsys, "maximalize", f)
    assert (code, out) == (3, "")
    assert err.startswith("NotRibbonless: ")


def test_maximalize_output_can_be_refused_as_input(tmp_path, capsys):
    # the one added arc b <-> c gives the output the ribbon <b, c, d>, so
    # maximalizing it again is a domain error
    f = tmp_path / "g.mg"
    f.write_text("c -- d\na <-> b\na <-> c\na <-> d\nc <-> d\na -> b\nd -> b\n")
    code, out, _ = run(capsys, "maximalize", f)
    assert code == 0 and "b <-> c\n" in out
    f.write_text(out)
    code, out, err = run(capsys, "maximalize", f)
    assert (code, out) == (3, "")
    assert err.startswith("NotRibbonless: ")


def test_check_suites_pass_on_chain(capsys):
    for suite in ("stability", "composition", "correspondence", "lemma1", "maximality"):
        code, out, err = run(
            capsys, "check", fixture("chain.mg"), "--suite", suite, "--seeds", "5"
        )
        assert code == 0, (suite, err)
        assert out.startswith(f"suite={suite} checked=")


def test_check_reports_counterexamples_for_unsuitable_graph(capsys):
    # correspondence on a non-DAG is a domain error, exit 3
    code, _, err = run(
        capsys,
        "check",
        fixture("same_arc_different_sg_b.mg"),
        "--suite",
        "correspondence",
    )
    assert code == 0  # this fixture is a DAG, so pick a different one below
    pair = FIXTURES / "not_a_dag.mg"
    pair.write_text("a <-> b\n", encoding="utf-8")
    try:
        code, _, err = run(capsys, "check", pair, "--suite", "correspondence")
        assert code == 3
        assert "UnsuitableGraph" in err
    finally:
        pair.unlink()


def test_check_counterexample_prints_a_reproducer_that_parses_back(
    capsys, monkeypatch
):
    # the suite reads the PIP verdict as "maximalize returned its input", so
    # an equal copy of the maximal input makes that verdict wrong
    monkeypatch.setattr(suites, "maximalize", lambda g: MixedGraph(g.nodes, g.edges))
    code, out, err = run(capsys, "check", fixture("chain.mg"), "--suite", "maximality")
    assert code == 1
    assert out == "suite=maximality checked=3 result=1 counterexamples\n"
    message, reproducer = err.split("\n", 1)
    assert message == "PIP criterion says maximal=False, literal says True"
    chain = parse_graph(fixture("chain.mg").read_text(encoding="utf-8"))
    assert parse_graph(reproducer).graph() == chain.graph()


def test_domain_errors_exit_3(capsys):
    code, _, err = run(
        capsys, "msep", fixture("chain.mg"), "--A", "zz", "--B", "b"
    )
    assert code == 3
    assert "UnknownNode" in err
    ribbon = FIXTURES / "ribbon_tmp.mg"
    ribbon.write_text("h -> i\nj -> i\ni -- k\n", encoding="utf-8")
    try:
        code, _, err = run(capsys, "project", ribbon, "--type", "rg")
        assert code == 3
        assert "NotRibbonless" in err
    finally:
        ribbon.unlink()


def test_usage_errors_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["project", str(fixture("chain.mg"))])  # missing --type
    assert exc.value.code == 2
    assert main(["model", "no_such_file.mg"]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["project", fixture("chain.mg"), "--type", "rg"],
        ["dagify", fixture("chain.mg")],
        ["maximalize", fixture("chain.mg")],
    ],
)
def test_dot_and_json_together_are_a_usage_error(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv] + ["--dot", "--json"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "not allowed with argument" in captured.err


def test_undecodable_graph_file_is_a_parse_error(tmp_path, capsys):
    f = tmp_path / "latin1.mg"
    f.write_bytes("a -> b\nc -> d\u00e9\n".encode("latin-1"))
    code, out, err = run(capsys, "validate", f)
    assert (code, out) == (3, "")
    assert err == "ParseError: line 2, col 7: invalid UTF-8 byte 0xe9\n"


def test_negative_seed_count_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["check", str(fixture("chain.mg")), "--suite", "lemma1", "--seeds", "-3"])
    assert exc.value.code == 2
    assert "--seeds: must be non-negative: -3" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["model", "marginalise"])
@pytest.mark.parametrize(
    "value, message",
    [
        ("11", "--limit: must be at most 10: 11"),
        ("-1", "--limit: must be non-negative: -1"),
    ],
)
def test_out_of_range_model_limit_is_a_usage_error(capsys, command, value, message):
    with pytest.raises(SystemExit) as exc:
        main([command, str(fixture("chain.mg")), "--limit", value])
    assert exc.value.code == 2
    assert message in capsys.readouterr().err


def test_flags_override_file_marks_with_warning(tmp_path, capsys):
    f = tmp_path / "marked.mg"
    f.write_text("nodes: 1 2 3\n2 -> 1\n3 -> 1\n3 -> 2\ncond: 1\n", encoding="utf-8")
    code, out, err = run(capsys, "project", f, "--type", "rg", "--cond", "1")
    assert code == 0
    assert "override" in err
    assert out == "nodes: 2 3\n2 -- 3\n3 -> 2\n"
    # without flags the file marks drive the projection
    code, out, err = run(capsys, "project", f, "--type", "rg")
    assert (code, err) == (0, "")
    assert out == "nodes: 2 3\n2 -- 3\n3 -> 2\n"
    # a flag replaces both file marks, and an empty flag names no node
    g = tmp_path / "roles.mg"
    g.write_text("a -> m\nm -> b\nb -> c\nmarg: m\ncond: c\n", encoding="utf-8")
    code, out, err = run(capsys, "project", g, "--type", "rg", "--cond", "c")
    assert code == 0 and "override" in err
    assert out == "nodes: a b m\na -> m\nm -> b\n"
    code, out, err = run(capsys, "project", g, "--type", "rg", "--marg", "")
    assert (code, err) == (0, "")
    assert out == "nodes: a b\na -> b\n"


def test_forced_ag_projection_failure_is_a_domain_error(tmp_path):
    # a line meeting an arrowhead is outside the SG class, so the forced
    # ancestral closure cannot land in AG; that must be a domain error (exit
    # 3), not an internal assertion escaping as a traceback; the forced run's
    # warning line still comes first, with or without the trace
    f = tmp_path / "g.mg"
    f.write_text("a -- b\na -> b\n", encoding="utf-8")
    src = Path(mixedgraphs.__file__).resolve().parent.parent
    argv = [sys.executable, "-m", "mixedgraphs.cli", "project", str(f), "--type", "ag"]
    for extra in (["--force"], ["--force", "--trace"]):
        proc = subprocess.run(
            argv + extra,
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert proc.stderr == (
            "warning: projecting a graph that is not an ancestral graph\n"
            "NotAncestralGraph: the ancestral closure of MixedGraph(nodes=['a', 'b'],"
            " edges=[a -- b, a -> b]) is not an ancestral graph\n"
        )


def test_forced_projection_warns_in_one_fixed_line(tmp_path):
    # the class gate's warning reaches stderr as one line, with no source
    # path, line number or echoed code
    src = Path(mixedgraphs.__file__).resolve().parent.parent
    runs = (
        ("rg", "a -> b\nc -> b\nb -- d\n", "ribbonless"),
        ("sg", "a -> b\nb -- c\n", "a summary graph"),
        ("ag", "a -> b\na <-> b\n", "an ancestral graph"),
    )
    for kind, text, what in runs:
        f = tmp_path / f"{kind}.mg"
        f.write_text(text, encoding="utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "mixedgraphs", "project", str(f), "--type", kind, "--force"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == f"warning: projecting a graph that is not {what}\n"


def test_package_runs_as_a_module():
    src = Path(mixedgraphs.__file__).resolve().parent.parent
    chain = str(fixture("chain.mg"))
    runs = (
        (["msep", chain, "--A", "a", "--B", "b", "--C", "m"], 0, "separated\n"),
        (["msep", chain, "--A", "a", "--B", "b"], 1, "connected\n"),
        (["msep", chain, "--no-such-flag"], 2, ""),
    )
    for argv, code, out in runs:
        proc = subprocess.run(
            [sys.executable, "-m", "mixedgraphs", *argv],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": str(src)},
            timeout=120,
        )
        assert (proc.returncode, proc.stdout) == (code, out), proc.stderr
        assert "Traceback" not in proc.stderr


def test_lemma1_suite_passes_on_a_bouncing_walk(tmp_path, capsys):
    # b -> c <-> b <- c passes no third node, so it is no Lemma-1 connection
    # and the projection's missing b -- c is right
    f = tmp_path / "bounce.mg"
    f.write_text("b <-> c\nb -> c\nc -> b\nc -> a\n", encoding="utf-8")
    code, out, err = run(capsys, "check", f, "--suite", "lemma1")
    assert (code, err) == (0, "")
    assert out == "suite=lemma1 checked=20 result=ok\n"


def test_long_paths_give_verdicts_without_a_traceback(tmp_path, capsys):
    # a ribbon sends the verdict through the simple-path search, whose depth
    # is then the path length
    ribbon = tmp_path / "ribbon.mg"
    ribbon.write_text(
        "h -> t\nj -> t\nt -- x0\n"
        + "".join(f"x{k} -- x{k + 1}\n" for k in range(1500)),
        encoding="utf-8",
    )
    code, out, err = run(capsys, "msep", ribbon, "--A", "x1500", "--B", "h")
    assert (code, out) == (1, "connected\n")
    assert "Traceback" not in err
    chain = tmp_path / "chain.mg"
    chain.write_text("".join(f"a{k} -> a{k + 1}\n" for k in range(1200)), encoding="utf-8")
    code, out, err = run(capsys, "msep", chain, "--witness", "--A", "a0", "--B", "a1200")
    assert code == 1
    assert out == "connected\n" + " -> ".join(f"a{k}" for k in range(1201)) + "\n"
    assert "Traceback" not in err


def test_every_cli_option_has_help():
    # every optional argument of every subcommand prints a line of help
    parser = cli.build_parser()
    (commands,) = [
        a for a in parser._actions if isinstance(a, argparse._SubParsersAction)
    ]
    assert set(commands.choices) >= {"project", "msep", "model", "marginalise", "check"}
    for name, sub in commands.choices.items():
        for action in sub._actions:
            if action.option_strings:
                assert action.help, (name, action.option_strings)
