"""Seeded workloads of the gensplines benchmark.

Each ``build_*`` function turns a seed into a fixed batch of operations.  An
operation is a callable that makes one call into the library (or, for
``cli``, runs one CLI process) and a check that decides, outside the
timed call, whether the result is right.  The checks use what is known
from how the inputs were built, or code in this file that does not go
through the library function under test.

Why each workload exists is recorded in ``BENCHMARK.json``.
"""
from __future__ import annotations

import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

# Library functions are reached through their modules at call time, so
# the traced run sees the tracer's wrappers.
from gensplines import analysis, cli, construct, gkm, graphs, rings, serialize, splines

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden_cli.json"
REJECTED = "rejected"


class Op:
    """One operation: ``call()`` is timed, ``check(result)`` is not."""

    __slots__ = ("kind", "call", "check")

    def __init__(self, kind, call, check):
        self.kind = kind
        self.call = call
        self.check = check


class Batch:
    """The fixed batch of a workload, in a seeded order.

    ``ops`` are the measured operations.  ``inproc`` are the operations
    the traced run times: the same ones, except for ``cli``, whose
    traced operations call ``cli.main`` in this process.  ``first`` is
    the position of the first operation built, whose size does not
    depend on the seed; it is the warm-up operation.
    """

    def __init__(self, rng, ops, inproc=None):
        order = list(range(len(ops)))
        rng.shuffle(order)
        self.first = order.index(0)
        self.ops = [ops[i] for i in order]
        self.inproc = self.ops if inproc is None else [inproc[i] for i in order]


# -- seeded inputs --

def _connected_edges(rng, n, n_edges):
    """A random near-balanced tree on 0..n-1 plus random extra edges.

    Vertex i hangs below vertex (i-1)//2 or its successor, so depths,
    and with them the cost of tree paths, vary little between seeds.
    Returns (sorted edge list, the extra edges); every extra edge lies
    on a cycle.
    """
    edges = {(rng.randrange((i - 1) // 2, min(i, (i - 1) // 2 + 2)), i)
             for i in range(1, n)}
    extra = []
    while len(edges) < n_edges:
        i, j = sorted(rng.sample(range(n), 2))
        if (i, j) not in edges:
            edges.add((i, j))
            extra.append((i, j))
    return sorted(edges), extra


def _names(n):
    return [f"v{i}" for i in range(n)]


def _qx_generators(rng, count):
    """Nonzero polynomials of degree <= 2 as integer coefficients.

    The degrees follow a fixed mix (one in eight a unit) in a seeded
    order, so the total degree of a graph's labels does not depend on
    the seed.
    """
    degrees = [(0, 1, 1, 1, 2, 2, 2, 2)[k % 8] for k in range(count)]
    rng.shuffle(degrees)
    return [[rng.randint(-3, 3) for _ in range(d)] + [rng.choice((-3, -2, -1, 1, 2, 3))]
            for d in degrees]


def _z_generators(rng, count):
    """Integers 1..12 in turn (1 a unit), in a seeded order."""
    values = [k % 12 + 1 for k in range(count)]
    rng.shuffle(values)
    return values


def _is_unit(ring, gen):
    if ring.kind == rings.POLY_RATIONAL:
        return len(gen) == 1
    return abs(gen) == 1


class Instance:
    """A seeded graph with the generator chosen for each edge."""

    def __init__(self, ring, n, edges, gens, extra):
        self.ring = ring
        self.names = _names(n)
        self.edges = edges
        self.gens = gens
        self.extra = extra
        self._family = None
        self.graph = graphs.build_graph(ring, self.names, [
            (self.names[i], self.names[j], [ring.element(g)])
            for (i, j), g in zip(edges, gens)])

    def key(self, edge):
        i, j = edge
        return (self.names[i], self.names[j])

    def valid_spline(self, rng):
        """A random combination of the flow-up members, a valid spline."""
        if self._family is None:
            self._family = construct.flow_up_family(self.graph)
        values = {v: self.ring.zero for v in self.names}
        for member in self._family.members:
            c = self.ring.element(rng.randint(-3, 3))
            for v in self.names:
                values[v] = values[v] + c * member[v]
        return splines.Spline(self.graph, values)

    def violated_by_bump(self, vertex):
        """Edge keys a +1 change at vertex breaks: its non-unit edges."""
        return {self.key(e) for e, g in zip(self.edges, self.gens)
                if vertex in e and not _is_unit(self.ring, g)}


def _instance(rng, ring, n, n_edges, generators):
    edges, extra = _connected_edges(rng, n, n_edges)
    return Instance(ring, n, edges, generators(rng, len(edges)), extra)


def _bump(spline, vertex):
    ring = spline.graph.ring
    values = dict(spline.values)
    values[vertex] = values[vertex] + ring.one
    return splines.Spline(spline.graph, values)


# -- construct-qx --

def build_construct_qx(seed, tiny=False):
    """Flow-up families on connected Q[x] graphs with E = 2n - 1."""
    rng = random.Random(seed)
    ring = rings.poly_rational()
    # Thirteen sizes, nine graphs each: the median and the 90th
    # percentile of the latencies fall inside a size, not between two.
    sizes = [6, 7, 8] if tiny else list(range(6, 19)) * 9
    ops = []
    for n in sizes:
        inst = _instance(rng, ring, n, 2 * n - 1, _qx_generators)
        ops.append(Op("flow_up", _flow_up_call(inst.graph),
                      _flow_up_check(inst.graph)))
    return Batch(rng, ops)


def _flow_up_call(graph):
    return lambda: construct.flow_up_family(graph)


def _family_digest(family):
    text = repr([[str(m[v]) for v in family.vertex_order]
                 for m in family.members]
                + [str(x) for x in family.scaling_factors]
                + list(family.vertex_order))
    return hashlib.sha256(text.encode()).hexdigest()


def _flow_up_check(graph):
    """Full check the first time; later results must equal the first."""
    state = {}

    def check(family):
        digest = _family_digest(family)
        if "digest" in state:
            return digest == state["digest"]
        ok = (len(family.members) == len(graph.vertices)
              and sorted(family.vertex_order) == sorted(graph.vertices)
              and analysis.check_triangular_family(family)
              and all(splines.verify(graph, m).ok for m in family.members))
        if ok:
            state["digest"] = digest
        return ok

    return check


# -- verify-mixed --

def build_verify_mixed(seed, tiny=False):
    """Checks of (graph, spline) pairs, half valid and half off by one."""
    rng = random.Random(seed)
    qx, zz = rings.poly_rational(), rings.integers()
    reps = 1 if tiny else 2
    qx_graphs = [_instance(rng, qx, n, 2 * n - 1, _qx_generators)
                 for n in range(6, 11) for _ in range(reps)]
    z_graphs = [_instance(rng, zz, n, 2 * n - 1, _z_generators)
                for n in range(12, 31, 2 if not tiny else 8)]
    trees = [_instance(rng, zz, n, n - 1, _z_generators)
             for n in range(20, 40, 1 if not tiny else 9) for _ in range(reps)]

    def cases(instances, per_graph):
        """(instance, spline, bumped vertex or None, valid spline) cases,
        per_graph of them per instance, valid and bumped in turn."""
        out = []
        for inst in instances:
            for _ in range(per_graph):
                valid = inst.valid_spline(rng)
                if len(out) % 2 == 0:
                    out.append((inst, valid, None, valid))
                else:
                    vertex = rng.randrange(len(inst.names))
                    out.append((inst, _bump(valid, inst.names[vertex]), vertex, valid))
        return out

    mixed = cases(qx_graphs + z_graphs, 2)
    ops = [_verify_op("verify-qx", *c) for c in cases(qx_graphs, 4)]
    ops += [_verify_op("verify-z", *c) for c in cases(z_graphs, 4)]
    ops += [_tree_op(*c) for c in cases(trees, 1)]
    ops += [_gkm_op(rng, *c) for c in mixed]
    ops += [_decompose_op(rng, *c) for c in mixed]
    ops += [_serialize_op(*c) for c in mixed]
    return Batch(rng, ops)


def _verify_op(kind, inst, spline, bumped, valid):
    expected = set() if bumped is None else inst.violated_by_bump(bumped)

    def check(report):
        return (report.ok == (not expected)
                and {e for e, _ in report.violations} == expected)

    return Op(kind, lambda: splines.verify(inst.graph, spline), check)


def _tree_op(inst, spline, bumped, valid):
    expected_ok = bumped is None or not inst.violated_by_bump(bumped)

    def check(report):
        return (report.ok == expected_ok
                and splines.verify(inst.graph, spline).ok == expected_ok
                and bool(report.failures) != expected_ok)

    return Op("tree-z", lambda: construct.tree_membership(inst.graph, spline),
              check)


def _gkm_op(rng, inst, spline, bumped, valid):
    """Reduce the GKM system and test the cycle syzygy on a last column.

    The column holds the edge differences of the valid spline.  For a
    bumped pair one edge on a cycle gets an extra generator multiple:
    the column stays inside every ideal but the syzygy fails.
    """
    graph = inst.graph
    q = {e: valid[e[0]] - valid[e[1]] for e in graph.edges}
    if bumped is not None:
        edge = rng.choice(inst.extra)
        q[inst.key(edge)] = q[inst.key(edge)] + inst.ring.element(
            inst.gens[inst.edges.index(edge)])
    cycles = len(graph.edges) - len(graph.vertices) + 1

    def call():
        tree = graphs.spanning_tree(graph)
        system = gkm.reduce_via_tree(gkm.build_gkm_matrix(graph), tree)
        return system, gkm.syzygy_check(graph, tree, q)

    def check(result):
        system, holds = result
        return (holds == (bumped is None)
                and len(system.cycle_rows) == cycles
                and not any(any(r.coeffs) for r in system.cycle_rows))

    return Op("gkm", call, check)


def _decompose_op(rng, inst, spline, bumped, valid):
    vertex = inst.names[rng.randrange(len(inst.names))]
    rejects = bumped is not None and bool(inst.violated_by_bump(bumped))

    def call():
        try:
            return splines.decompose_at_vertex(inst.graph, spline, vertex)
        except ValueError:
            return REJECTED

    def check(result):
        if rejects:
            return result == REJECTED
        if result == REJECTED:
            return False
        r, part = result
        return r == spline[vertex] and all(
            part[w] == spline[w] - r for w in inst.names)

    return Op("decompose", call, check)


def _serialize_op(inst, spline, bumped, valid):
    graph = inst.graph

    def call():
        text = json.dumps({"graph": serialize.graph_to_json(graph),
                           "spline": serialize.spline_to_json(spline)})
        doc = json.loads(text)
        back = serialize.graph_from_json(doc["graph"])
        return text, back, serialize.spline_from_json(back, doc["spline"])

    def check(result):
        text, back, again = result
        return (back.vertices == graph.vertices and back.edges == graph.edges
                and all(back.labels[e] == graph.labels[e] for e in graph.edges)
                and again.as_tuple() == spline.as_tuple()
                and json.dumps({"graph": serialize.graph_to_json(back),
                                "spline": serialize.spline_to_json(again)}) == text)

    return Op("serialize", call, check)


# -- oracle-zm --

# (m, n) with m^n of about 10^4 to 10^5: seven strata, so the median of
# each certifier's latencies falls inside a stratum, not between two.
ORACLE_SIZES = ((4, 7), (6, 5), (6, 6), (8, 5), (9, 5), (10, 4), (12, 4))


def zm_solutions(m, n, constraints):
    """All residue tuples with (x_i - x_j) % d == 0 per (i, j, d)."""
    earlier = [[] for _ in range(n)]
    for i, j, d in constraints:
        earlier[max(i, j)].append((min(i, j), d))
    out = []
    values = [0] * n

    def place(k):
        if k == n:
            out.append(tuple(values))
            return
        for x in range(m):
            if all((x - values[i]) % d == 0 for i, d in earlier[k]):
                values[k] = x
                place(k + 1)

    place(0)
    return set(out)


def build_oracle_zm(seed, tiny=False):
    """Exhaustive Z/m certifiers on connected graphs with two chords.

    All edges of a graph share one divisor of m, and the divisor cycles
    through the proper divisors of m from graph to graph.  The number of
    splines, which sets the cost of every certifier, then depends on m,
    n and the divisor, not on where the seed puts the edges.
    """
    rng = random.Random(seed)
    ops = []
    for rep in range(1 if tiny else 5):
        for m, n in ((4, 5), (6, 4)) if tiny else ORACLE_SIZES:
            divisors = [d for d in range(2, m) if m % d == 0]
            d = divisors[rep % len(divisors)]
            inst = _instance(rng, rings.integers_mod(m), n, n + 1,
                             lambda rng, count: [d] * count)
            solutions = zm_solutions(m, n, [(i, j, d) for i, j in inst.edges])
            ops += _oracle_ops(inst.graph, fingerprint(solutions),
                               sum(1 for t in solutions if t[0] == 0))
    return Batch(rng, ops)


def fingerprint(tuples):
    """Size and order-free hash of a set of int tuples.

    Int and tuple hashes do not depend on the hash seed, so this is
    reproducible, and it spares holding every expected set in memory.
    """
    tuples = set(tuples)
    return len(tuples), sum(map(hash, tuples)) & 0xFFFFFFFFFFFFFFFF


def _oracle_ops(graph, expected, anchored):
    """The five certifiers; expected is the fingerprint of all splines."""

    def enumerate_call():
        found = analysis.enumerate_splines(graph)
        return found, analysis.count_direct_sum(graph, graph.vertices[0])

    def enumerate_check(result):
        found, counts = result
        return (fingerprint(found.members) == expected
                and counts == (expected[0], anchored))

    def edge_cover():
        subs = [graphs.spanning_subgraph(graph, [e]) for e in graph.edges]
        return analysis.check_union_decomposition(graph, subs, claim="edge-by-edge")

    def tree_cover():
        return analysis.check_union_decomposition(
            graph, analysis.spanning_tree_cover(graph), claim="spanning-trees")

    def cycles():
        return analysis.check_cycle_decomposition(graph, graphs.spanning_tree(graph))

    def matrix_call():
        matrix = gkm.build_gkm_matrix(graph)
        system = gkm.reduce_via_tree(matrix, graphs.spanning_tree(graph))
        return (analysis.matrix_solution_set(matrix),
                analysis.reduced_solution_set(system))

    def holds(report):
        return report.verdict is True and report.mode == "exhaustive"

    return [
        Op("enumerate", enumerate_call, enumerate_check),
        Op("edge-cover", edge_cover, holds),
        Op("tree-cover", tree_cover, holds),
        Op("cycles", cycles, holds),
        Op("matrix", matrix_call,
           lambda r: fingerprint(r[0]) == expected == fingerprint(r[1])),
    ]


# -- cli --

HEAVY_COMMAND = ["selfcheck", "tests/fixtures/k4.json", "--samples", "5"]


def load_golden():
    return json.loads(GOLDEN.read_text())["commands"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write(path, document):
    path.write_text(json.dumps(document, indent=2) + "\n")


def _z_graph_doc(names, edges, gens):
    return {"ring": {"kind": "integers"}, "vertices": names,
            "edges": [{"u": names[i], "v": names[j], "ideal": [str(g)]}
                      for (i, j), g in zip(edges, gens)]}


def _tree_family_check(names, edges, gens):
    def check(code, out):
        if code != 0:
            return False
        doc = json.loads(out)
        members = [m["values"] for m in doc["members"]]
        return (len(members) == len(names)
                and sorted(doc["vertex_order"]) == sorted(names)
                and all((int(m[names[i]]) - int(m[names[j]])) % g == 0
                        for m in members for (i, j), g in zip(edges, gens)))
    return check


def _spline_check_check(names, edges, violated):
    expected = [[names[i], names[j]] for i, j in edges if (i, j) in violated]

    def check(code, out):
        doc = json.loads(out)
        return (code == (1 if expected else 0)
                and doc["ok"] == (not expected)
                and [v["edge"] for v in doc["violations"]] == expected)
    return check


def _golden_check(entry):
    def check(code, out):
        return code == entry["exit"] and _sha(out.encode()) == entry["stdout_sha256"]
    return check


def build_cli(seed, workdir, tiny=False):
    """CLI processes over the fixtures and two seeded documents.

    The sampled selfcheck of the k4 fixture is the one heavy command; it
    runs twice per rotation, so the slowest decile of latencies is made
    of it rather than of start-up jitter.
    """
    rng = random.Random(seed)
    workdir = Path(workdir)
    commands = [(e["argv"], _golden_check(e)) for e in load_golden()]
    commands += [c for c in commands if c[0] == HEAVY_COMMAND]

    n = 10
    edges = sorted((rng.randrange(i), i) for i in range(1, n))
    gens = [rng.randint(2, 9) for _ in edges]
    names = _names(n)
    tree = workdir / "tree.json"
    _write(tree, _z_graph_doc(names, edges, gens))
    commands.append((["treefam", str(tree)], _tree_family_check(names, edges, gens)))

    n = 8
    edges, _ = _connected_edges(rng, n, 2 * n - 1)
    gens = _z_generators(rng, len(edges))
    names = _names(n)
    scale = math.lcm(*gens)
    values = [rng.randint(-3, 3) * scale for _ in names]
    violated = set()
    if rng.random() < 0.5:
        k = rng.randrange(n)
        values[k] += 1
        violated = {e for e, g in zip(edges, gens) if k in e and g != 1}
    graph, spline = workdir / "graph.json", workdir / "spline.json"
    _write(graph, _z_graph_doc(names, edges, gens))
    _write(spline, {"values": {v: str(x) for v, x in zip(names, values)}})
    commands.append((["check", str(graph), str(spline)],
                     _spline_check_check(names, edges, violated)))

    rotation = commands * (1 if tiny else 8)
    ops = [Op(argv[0], _process_call(argv), _unpack(check)) for argv, check in rotation]
    inproc = [Op(argv[0], _main_call(argv), _unpack(check)) for argv, check in rotation]
    return Batch(rng, ops, inproc)


def cli_env():
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"))


def _process_call(argv):
    command = [sys.executable, "-m", "gensplines.cli", *argv]
    env = cli_env()

    def call():
        done = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, timeout=60)
        return done.returncode, done.stdout.decode()

    return call


def _main_call(argv):
    argv = [str(ROOT / a) if a.endswith(".json") else a for a in argv]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue()

    return call


def _unpack(check):
    return lambda result: check(*result)


WORKLOADS = {
    "construct-qx": build_construct_qx,
    "verify-mixed": build_verify_mixed,
    "oracle-zm": build_oracle_zm,
    "cli": build_cli,
}
