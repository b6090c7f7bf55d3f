"""Command-line interface.

Exit codes: 0 success (or "separated" / required class present / suite
clean), 1 negative verdict (connected, class missing, counterexample found),
2 usage errors, 3 domain errors (the error class name goes to stderr).
"""

from __future__ import annotations

import argparse
import itertools
import sys
from pathlib import Path

from .core import MixedGraphError, classify
from .independence import (
    MODEL_NODE_LIMIT,
    _check_ground,
    independence_model,
    marginalise_condition,
    model_to_json,
)
from .msep import ConnectionQuery, enumerate_connecting_paths, m_separated
from .project import PROJECTORS_TRACED, ProjectionSpec, render_trace
from .suites import SUITES
from .textfmt import (
    ParseError,
    document_for,
    document_to_json,
    parse_graph,
    serialize_graph,
    to_dot,
)
from .witness import dagify, maximalize


def _load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]
        bad = exc.object[exc.start]
        lineno = before.count(b"\n") + 1
        col = len(before) - before.rfind(b"\n")
        raise ParseError(f"invalid UTF-8 byte 0x{bad:02x}", lineno, col) from None
    return parse_graph(text, name=Path(path).stem)


def _non_negative(value):
    try:
        count = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {value!r}") from None
    if count < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative: {count}")
    return count


# The worst-case model grows about 4x per node: 10 isolated nodes give
# 465,751 statements, and a sparse 12-node DAG about 1.8 million.
MAX_MODEL_LIMIT = 10


def _model_limit(value):
    count = _non_negative(value)
    if count > MAX_MODEL_LIMIT:
        raise argparse.ArgumentTypeError(f"must be at most {MAX_MODEL_LIMIT}: {count}")
    return count


def _csv(value):
    return [tok for tok in value.replace(",", " ").split() if tok]


def _spec_from(args, doc):
    marg = set(doc.marg)
    cond = set(doc.cond)
    flag_marg = set(_csv(args.marg)) if args.marg else None
    flag_cond = set(_csv(args.cond)) if args.cond else None
    if (flag_marg is not None or flag_cond is not None) and (marg or cond):
        print("warning: command-line roles override file marks", file=sys.stderr)
        marg, cond = set(), set()
    if flag_marg is not None:
        marg = flag_marg
    if flag_cond is not None:
        cond = flag_cond
    return ProjectionSpec(marg, cond)


def _cmd_validate(args):
    doc = _load(args.file)
    tags = sorted(classify(doc.graph()))
    print(" ".join(tags))
    if args.require and args.require.upper() not in tags:
        return 1
    return 0


def _emit_graph(doc, args):
    if args.dot:
        sys.stdout.write(to_dot(doc.graph(), name=doc.name or "G"))
    elif args.json:
        sys.stdout.write(document_to_json(doc))
    else:
        sys.stdout.write(serialize_graph(doc))


def _cmd_project(args):
    doc = _load(args.file)
    graph = doc.graph()
    spec = _spec_from(args, doc)
    projected, trace = PROJECTORS_TRACED[args.type](graph, spec, force=args.force)
    if args.trace:
        sys.stderr.write(render_trace(trace))
    _emit_graph(document_for(projected, name=doc.name), args)
    return 0


def _cmd_msep(args):
    doc = _load(args.file)
    graph = doc.graph()
    A = frozenset(_csv(args.A))
    B = frozenset(_csv(args.B))
    C = frozenset(_csv(args.C)) if args.C else frozenset()
    separated = m_separated(graph, A, B, C)
    print("separated" if separated else "connected")
    if not separated and args.witness:
        allowed = graph.node_set - A - B - C
        for a, b in itertools.product(sorted(A), sorted(B)):
            paths = enumerate_connecting_paths(
                graph, ConnectionQuery(a, b, allowed, C), limit=1
            )
            if paths:
                print(paths[0].render())
                break
    return 0 if separated else 1


def _cmd_model(args):
    doc = _load(args.file)
    model = independence_model(doc.graph(), limit=args.limit)
    _emit_model(model, args.json)
    return 0


def _cmd_marginalise(args):
    doc = _load(args.file)
    graph = doc.graph()
    spec = _spec_from(args, doc)
    _check_ground(graph.node_set, spec.marg, spec.cond)
    model = marginalise_condition(
        independence_model(graph, limit=args.limit), spec.marg, spec.cond
    )
    _emit_model(model, args.json)
    return 0


def _emit_model(model, as_json):
    if as_json:
        sys.stdout.write(model_to_json(model))
    else:
        for statement in model.sorted_statements():
            print(statement.render())


def _cmd_dagify(args):
    doc = _load(args.file)
    result = dagify(doc.graph())
    _emit_graph(
        document_for(result.dag, name=doc.name, marg=result.marg, cond=result.cond),
        args,
    )
    return 0


def _cmd_maximalize(args):
    doc = _load(args.file)
    maximal = maximalize(doc.graph())
    _emit_graph(document_for(maximal, name=doc.name), args)
    return 0


def _cmd_check(args):
    doc = _load(args.file)
    result = SUITES[args.suite](doc.graph(), seeds=args.seeds)
    print(result.summary())
    for failure in result.failures:
        print(failure, file=sys.stderr)
    return 0 if result.ok else 1


def _add_graph_format(p):
    """--dot and --json, which pick one output format for a graph."""
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--dot", action="store_true", help="emit the graph as DOT")
    fmt.add_argument("--json", action="store_true", help="emit the graph as JSON")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mixedgraphs",
        description="Mixed graphs: m-separation, independence models, and "
        "latent projection to ribbonless / summary / ancestral graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="print class tags of a graph file")
    p.add_argument("file")
    p.add_argument(
        "--class",
        dest="require",
        choices=["rg", "sg", "ag", "dag", "ug", "bg"],
        help="exit 1 unless the graph is in this class",
    )
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("project", help="project a graph over marg/cond sets")
    p.add_argument("file")
    p.add_argument("--type", required=True, choices=list(PROJECTORS_TRACED))
    p.add_argument("--marg", help="comma-separated marginalised nodes")
    p.add_argument("--cond", help="comma-separated conditioned nodes")
    p.add_argument(
        "--trace",
        action="store_true",
        help="emit to stderr the Table-1 step behind each generated edge",
    )
    p.add_argument("--force", action="store_true", help="skip the class gate")
    _add_graph_format(p)
    p.set_defaults(func=_cmd_project)

    p = sub.add_parser("msep", help="m-separation query")
    p.add_argument("file")
    p.add_argument("--A", required=True)
    p.add_argument("--B", required=True)
    p.add_argument("--C", default="")
    p.add_argument("--witness", action="store_true", help="print one connecting path")
    p.set_defaults(func=_cmd_msep)

    p = sub.add_parser("model", help="enumerate the induced independence model")
    p.add_argument("file")
    p.add_argument("--json", action="store_true")
    p.add_argument(
        "--limit",
        type=_model_limit,
        default=MODEL_NODE_LIMIT,
        help="node-count enumeration bound",
    )
    p.set_defaults(func=_cmd_model)

    p = sub.add_parser("marginalise", help="marginalise/condition the induced model")
    p.add_argument("file")
    p.add_argument("--marg")
    p.add_argument("--cond")
    p.add_argument("--json", action="store_true")
    p.add_argument("--limit", type=_model_limit, default=MODEL_NODE_LIMIT)
    p.set_defaults(func=_cmd_marginalise)

    p = sub.add_parser("dagify", help="DAG + roles that project back onto the input")
    p.add_argument("file")
    _add_graph_format(p)
    p.set_defaults(func=_cmd_dagify)

    p = sub.add_parser("maximalize", help="insert edges until the graph is maximal")
    p.add_argument("file")
    _add_graph_format(p)
    p.set_defaults(func=_cmd_maximalize)

    p = sub.add_parser("check", help="run a property suite rooted at the graph")
    p.add_argument("file")
    p.add_argument(
        "--suite",
        required=True,
        choices=list(SUITES),
    )
    p.add_argument("--seeds", type=_non_negative, default=20)
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except MixedGraphError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
