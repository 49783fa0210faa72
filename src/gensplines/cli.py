"""Command-line front end: parse graphs and splines, run the
constructions and checks, and emit JSON, text, or DOT.

Exit codes: 0 for success / true verdicts, 1 for false verdicts, 2 for
input errors (unreadable files, malformed JSON, schema violations,
unsupported rings, exceeded budgets), 3 for an internal error, whose
traceback goes to stderr.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from . import analysis, construct, gkm, serialize
from .graphs import EdgeLabeledGraph, GraphError, spanning_subgraph, spanning_tree
from .splines import Spline, decompose_at_vertex, verify

ELIDE_THRESHOLD = 1000


class InputFailure(ValueError):
    """Wraps any bad-input condition; maps to exit code 2."""


def _load(path: str, parse):
    """Read the JSON document at path and parse it; a missing or
    unreadable file, non-UTF-8 text, malformed or too deeply nested
    JSON or a schema error becomes an InputFailure naming path."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle)
    except FileNotFoundError:
        raise InputFailure(f"{path}: no such file")
    except OSError as exc:
        raise InputFailure(f"{path}: {exc.strerror}")
    except (UnicodeDecodeError, RecursionError) as exc:
        raise InputFailure(f"{path}: {exc}")
    except json.JSONDecodeError as exc:
        raise InputFailure(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}"
        )
    try:
        return parse(data)
    except serialize.SchemaError as exc:
        raise InputFailure(f"{path}: {exc}")


def _load_graph(path: str) -> EdgeLabeledGraph:
    return _load(path, serialize.graph_from_json)


def _load_spline(path: str, graph: EdgeLabeledGraph) -> Spline:
    return _load(path, functools.partial(serialize.spline_from_json, graph))


def _emit(document) -> None:
    sys.stdout.write(json.dumps(document, indent=2) + "\n")


def cmd_check(args) -> int:
    graph = _load_graph(args.graph)
    spline = _load_spline(args.spline, graph)
    report = verify(graph, spline)
    if args.format == "text":
        if report.ok:
            print("ok")
        else:
            for (u, v), diff in report.violations:
                print(f"violated: edge {u}-{v}, difference {diff}")
    else:
        _emit(serialize.report_to_json(report))
    return 0 if report.ok else 1


def cmd_flowup(args) -> int:
    graph = _load_graph(args.graph)
    family = construct.flow_up_family(graph, args.root)
    _emit(serialize.family_to_json(family))
    return 0


def cmd_treefam(args) -> int:
    graph = _load_graph(args.graph)
    if not graph.is_tree:
        raise InputFailure("treefam expects a tree")
    try:
        family = construct.path_generating_family(graph)
    except GraphError:
        family = construct.flow_up_family(graph)
    _emit(serialize.family_to_json(family))
    return 0


def cmd_cyclefam(args) -> int:
    graph = _load_graph(args.graph)
    family = construct.cycle_generating_family(graph)
    _emit(serialize.family_to_json(family))
    return 0


def _rows_document(graph, rows):
    return {
        "rows": [
            {
                "edge": list(row.edge),
                "coeffs": list(row.coeffs),
                "rhs": row.rhs_text(graph),
            }
            for row in rows
        ]
    }


def cmd_matrix(args) -> int:
    graph = _load_graph(args.graph)
    matrix = gkm.build_gkm_matrix(graph)
    if args.reduced:
        tree = spanning_tree(graph)
        system = gkm.reduce_via_tree(matrix, tree)
        rows = list(system.tree_rows) + list(system.cycle_rows)
    else:
        rows = [gkm.SystemRow(edge, row, ((1, edge),))
                for edge, row in matrix.rows_by_edge().items()]
    if args.format == "text":
        for row in rows:
            coeffs = " ".join(f"{c:>2}" for c in row.coeffs)
            print(f"[{coeffs} | {row.rhs_text(graph)}]")
    else:
        _emit(_rows_document(graph, rows))
    return 0


def cmd_enumerate(args) -> int:
    graph = _load_graph(args.graph)
    spline_set = analysis.enumerate_splines(graph, args.budget)
    document = {"count": len(spline_set)}
    if len(spline_set) <= ELIDE_THRESHOLD:
        document["members"] = [list(t) for t in spline_set.members]
    else:
        document["elided"] = True
    _emit(document)
    return 0


def cmd_decompose(args) -> int:
    graph = _load_graph(args.graph)
    spline = _load_spline(args.spline, graph)
    if not graph.vertices:
        raise InputFailure("decompose needs a graph with at least one vertex")
    root = args.root if args.root is not None else graph.vertices[0]
    r, part = decompose_at_vertex(graph, spline, root)
    _emit({
        "vertex": root,
        "constant": serialize.element_to_json(r),
        "anchored": serialize.spline_to_json(part),
    })
    return 0


def _report_document(report: analysis.DecompositionReport) -> dict:
    out = {
        "claim": report.claim,
        "verdict": report.verdict,
        "mode": report.mode,
        "subgraphs": [[list(e) for e in edges] for edges in report.subgraphs],
    }
    if report.seed is not None:
        out["seed"] = report.seed
    if report.counterexample is not None:
        bad = report.counterexample
        out["counterexample"] = (
            serialize.spline_to_json(bad) if isinstance(bad, Spline) else list(bad)
        )
    return out


def cmd_selfcheck(args) -> int:
    graph = _load_graph(args.graph)
    reports = []
    per_edge = [spanning_subgraph(graph, [e]) for e in graph.edges]
    reports.append(analysis.check_union_decomposition(
        graph, per_edge, claim="edge-by-edge",
        budget=args.budget, seed=args.seed, samples=args.samples))
    if graph.is_connected and graph.edges:
        trees = analysis.spanning_tree_cover(graph)
        reports.append(analysis.check_union_decomposition(
            graph, trees, claim="spanning-trees",
            budget=args.budget, seed=args.seed, samples=args.samples))
        reports.append(analysis.check_cycle_decomposition(
            graph, spanning_tree(graph),
            budget=args.budget, seed=args.seed, samples=args.samples))
    _emit([_report_document(r) for r in reports])
    return 0 if all(r.verdict for r in reports) else 1


def _quoted(text) -> str:
    """A DOT string; escaping \\ and " keeps an id from ending it early."""
    return '"' + str(text).replace("\\", "\\\\").replace('"', '\\"') + '"'


def emit_dot(graph: EdgeLabeledGraph, spline: Spline | None = None) -> str:
    """Deterministic DOT: edge labels are canonical generators (gray),
    vertex labels are spline values (red) when a spline is given."""
    lines = ["graph splines {"]
    for v in graph.vertices:
        if spline is not None:
            label = _quoted(f"{v}: {spline[v]}")
            lines.append(f"  {_quoted(v)} [label={label}, fontcolor=red];")
        else:
            lines.append(f"  {_quoted(v)};")
    for u, v in graph.edges:
        label = _quoted(f"<{graph.labels[(u, v)].canonical}>")
        lines.append(f"  {_quoted(u)} -- {_quoted(v)} [label={label}, fontcolor=gray];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_dot(args) -> int:
    graph = _load_graph(args.graph)
    spline = _load_spline(args.spline, graph) if args.spline else None
    sys.stdout.write(emit_dot(graph, spline))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gensplines",
        description="Exact computer algebra for generalized splines on "
                    "edge-labeled graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify a spline against a graph")
    p.add_argument("graph")
    p.add_argument("spline")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("flowup", help="flow-up generating family")
    p.add_argument("graph")
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_flowup)

    p = sub.add_parser("treefam", help="generating family for a tree")
    p.add_argument("graph")
    p.set_defaults(func=cmd_treefam)

    p = sub.add_parser("cyclefam", help="generating family for a cycle")
    p.add_argument("graph")
    p.set_defaults(func=cmd_cyclefam)

    p = sub.add_parser("matrix", help="emit the (reduced) GKM system")
    p.add_argument("graph")
    p.add_argument("--reduced", action="store_true")
    p.add_argument("--format", choices=["json", "text"], default="json")
    p.set_defaults(func=cmd_matrix)

    p = sub.add_parser("enumerate", help="list all splines over Z/m")
    p.add_argument("graph")
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("decompose", help="split off the constant part at a vertex")
    p.add_argument("graph")
    p.add_argument("spline")
    p.add_argument("--root", default=None)
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("selfcheck", help="certify the decomposition theorems")
    p.add_argument("graph")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=20)
    p.add_argument("--budget", type=int, default=analysis.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("dot", help="emit the graph (and spline) as DOT")
    p.add_argument("graph")
    p.add_argument("spline", nargs="?", default=None)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # CPython refuses int <-> str conversions of more than 4,300 digits,
    # which valid labels and their products exceed; lift that for the
    # command and restore it for in-process callers
    digit_limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return args.func(args)
    except ValueError as exc:
        # every bad-input error, InputFailure included, is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:
        # the interpreter's printer: importing traceback slows start-up
        sys.__excepthook__(*sys.exc_info())
        return 3
    finally:
        sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
