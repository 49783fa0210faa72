"""Command-line front end: parse graphs and splines, run the
constructions and checks, and emit JSON, text, or DOT.

main is the one driver: it loads GRAPH (and SPLINE, for check, decompose
and dot), calls the subcommand's cmd_*, writes its result to stdout once
and turns its verdict into the exit code.  A cmd_* takes (args, graph,
spline) and returns (result, ok), result being a JSON document or the
finished text.

Each run is one process, so its start-up counts.  The module level loads
rings, graphs, splines and serialize, which main and every subcommand
need; a cmd_* imports the module it runs: construct in flowup, treefam
and cyclefam, gkm in matrix, analysis in enumerate and selfcheck.

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

from . import rings, serialize
from .graphs import EdgeLabeledGraph, spanning_subgraph, spanning_tree
from .splines import Spline, decompose_at_vertex, verify

ELIDE_THRESHOLD = 1000
# The most decimal digits an integer in GRAPH or SPLINE may have.  It is
# refused by its length, before a conversion that takes quadratic time.
INPUT_DIGITS = 100_000


def _load(path: str, parse):
    """Read the JSON document at path and parse it; a missing or
    unreadable file, non-UTF-8 text, malformed or too deeply nested
    JSON, an integer of more than INPUT_DIGITS digits or a schema error
    becomes a ValueError naming path."""
    try:
        with open(path, encoding="utf-8") as handle:
            data = json.load(handle, parse_int=rings.read_decimal)
    except FileNotFoundError:
        raise ValueError(f"{path}: no such file")
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ValueError(
            f"{path}: malformed JSON at line {exc.lineno}, column {exc.colno}"
        )
    except (ValueError, RecursionError) as exc:
        # a UnicodeDecodeError, or a JSON number past the digit bound
        raise ValueError(f"{path}: {exc}")
    try:
        return parse(data)
    except serialize.SchemaError as exc:
        raise ValueError(f"{path}: {exc}")


def cmd_check(args, graph, spline):
    report = verify(graph, spline)
    if args.format == "json":
        return serialize.report_to_json(report), report.ok
    if report.ok:
        return "ok\n", True
    return "".join(f"violated: edge {u}-{v}, difference {diff}\n"
                   for (u, v), diff in report.violations), False


def cmd_flowup(args, graph, spline):
    from . import construct
    return serialize.family_to_json(construct.flow_up_family(graph, args.root)), True


def cmd_treefam(args, graph, spline):
    from . import construct
    return serialize.family_to_json(construct.tree_generating_family(graph)), True


def cmd_cyclefam(args, graph, spline):
    from . import construct
    return serialize.family_to_json(construct.cycle_generating_family(graph)), True


def cmd_matrix(args, graph, spline):
    from . import gkm
    matrix = gkm.build_gkm_matrix(graph)
    if args.reduced:
        system = gkm.reduce_via_tree(matrix, spanning_tree(graph))
        rows = list(system.tree_rows) + list(system.cycle_rows)
    else:
        rows = [gkm.SystemRow(edge, row, ((1, edge),))
                for edge, row in matrix.rows_by_edge().items()]
    if args.format == "text":
        return "".join(
            f"[{' '.join(f'{c:>2}' for c in row.coeffs)} | {row.rhs_text(graph)}]\n"
            for row in rows), True
    return {"rows": [{"edge": list(row.edge), "coeffs": list(row.coeffs),
                      "rhs": row.rhs_text(graph)} for row in rows]}, True


def cmd_enumerate(args, graph, spline):
    from . import analysis
    budget = analysis.DEFAULT_BUDGET if args.budget is None else args.budget
    spline_set = analysis.enumerate_splines(graph, budget)
    document = {"count": len(spline_set)}
    if len(spline_set) <= ELIDE_THRESHOLD:
        document["members"] = [list(t) for t in spline_set.members]
    else:
        document["elided"] = True
    return document, True


def cmd_decompose(args, graph, spline):
    if not graph.vertices:
        raise ValueError("decompose needs a graph with at least one vertex")
    root = args.root if args.root is not None else graph.vertices[0]
    r, part = decompose_at_vertex(graph, spline, root)
    return {
        "vertex": root,
        "constant": serialize.element_to_json(r),
        "anchored": serialize.spline_to_json(part),
    }, True


def _report_document(report) -> dict:
    """The JSON document of an analysis.DecompositionReport."""
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


def cmd_selfcheck(args, graph, spline):
    from . import analysis
    budget = analysis.DEFAULT_BUDGET if args.budget is None else args.budget
    if graph.ring.modulus is not None:  # refuse an over-budget search before any cover
        analysis._edge_divisors(graph, budget)
    covers = {"edge-by-edge": [spanning_subgraph(graph, [e]) for e in graph.edges]}
    if graph.is_connected and graph.edges:
        covers["spanning-trees"] = analysis.spanning_tree_cover(graph)
        covers["tree-plus-cycles"] = analysis.cycle_cover(graph, spanning_tree(graph))
    reports = analysis.check_decompositions(graph, covers, budget=budget, seed=args.seed,
                                            samples=args.samples)
    return [_report_document(r) for r in reports], all(r.verdict for r in reports)


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


def cmd_dot(args, graph, spline):
    return emit_dot(graph, spline), True


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
    # None stands for analysis.DEFAULT_BUDGET, which parsing does not load
    p.add_argument("--budget", type=int, default=None)
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
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_selfcheck)

    p = sub.add_parser("dot", help="emit the graph (and spline) as DOT")
    p.add_argument("graph")
    # an empty SPLINE draws the graph alone, as no SPLINE does
    p.add_argument("spline", nargs="?", default=None, type=lambda path: path or None)
    p.set_defaults(func=cmd_dot)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # Loading runs under INPUT_DIGITS.  Compute and emit lift CPython's
    # int <-> str limit of 4,300 digits, which products of valid labels
    # exceed.  The caller's limit comes back afterwards.
    digit_limit = sys.get_int_max_str_digits()
    try:
        sys.set_int_max_str_digits(INPUT_DIGITS)
        graph = _load(args.graph, serialize.graph_from_json)
        spline = None
        if getattr(args, "spline", None) is not None:
            spline = _load(args.spline, functools.partial(serialize.spline_from_json, graph))
        sys.set_int_max_str_digits(0)
        result, ok = args.func(args, graph, spline)
        if not isinstance(result, str):
            result = json.dumps(result, indent=2) + "\n"
        sys.stdout.write(result)
        return 0 if ok else 1
    except ValueError as exc:
        # every bad-input error is a ValueError
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
