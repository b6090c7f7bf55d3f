import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mixedgraphs
from mixedgraphs.cli import main
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


def test_model_text_and_json(capsys):
    code, out, _ = run(capsys, "model", fixture("chain.mg"))
    assert code == 0
    assert out == "a _||_ b | m\n"
    code, out, _ = run(capsys, "model", fixture("chain.mg"), "--json")
    model = model_from_json(out)
    assert sorted(model.ground) == ["a", "b", "m"]
    assert json.loads(out)["statements"] == [{"A": ["a"], "B": ["b"], "C": ["m"]}]


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


def test_forced_ag_projection_failure_is_a_domain_error(tmp_path):
    # a line meeting an arrowhead is outside the SG class, so the forced
    # ancestral closure cannot land in AG; that must be a domain error (exit
    # 3), not an internal assertion escaping as a traceback
    f = tmp_path / "g.mg"
    f.write_text("a -- b\na -> b\n", encoding="utf-8")
    src = Path(mixedgraphs.__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, "-m", "mixedgraphs.cli", "project", str(f), "--type", "ag", "--force"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert proc.returncode == 3
    assert "NotAncestralGraph" in proc.stderr
    assert "Traceback" not in proc.stderr
