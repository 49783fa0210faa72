"""Acceptance suite: nine numbered criteria, each printing one
PASS/FAIL line with its runtime against the stated limit.

Criteria 1-3 and 8-9 are exact golden tests on the worked K4 examples;
criteria 4-7 are seeded batteries certified against the exhaustive
enumeration oracle or the verifier.  No tolerances anywhere: all
arithmetic is exact.
"""
import random
import sys
import time

import pytest

from gensplines import (
    build_graph,
    integers,
    integers_mod,
    lcm,
    poly_rational,
    spanning_tree,
    verify,
)
from gensplines.analysis import (
    check_cycle_decomposition,
    check_triangular_family,
    check_union_decomposition,
    count_direct_sum,
    enumerate_splines,
    matrix_solution_set,
    reduced_solution_set,
    spanning_tree_cover,
)
from gensplines.cli import main as cli_main
from gensplines.construct import (
    cycle_generating_family,
    cycle_spline,
    extend_by_zero_with_factor,
    flow_up_family,
    lcm_scaling_factor,
    tree_generating_family,
    tree_membership,
    trivial_spline,
)
from gensplines.gkm import build_gkm_matrix, path_reduced_form, reduce_via_tree
from gensplines.graphs import restrict, spanning_subgraph, tree_from_edges
from gensplines.rings import Ideal
from gensplines.splines import Spline, scalar_mul, spline_add

from conftest import (
    FIXTURES,
    P,
    random_connected_graph,
    random_cycle,
    random_generator_element,
    random_path,
    random_tree,
)

Z = integers()
QX = poly_rational()

K4 = str(FIXTURES / "k4.json")
K4_SPLINE = str(FIXTURES / "k4-spline.json")
K4_PATH_TUPLE = str(FIXTURES / "k4-path-tuple.json")
K4_CYCLE_TUPLE = str(FIXTURES / "k4-cycle-tuple.json")


@pytest.fixture
def report(request):
    """One PASS/FAIL line per criterion, written through the terminal
    reporter so it survives output capture."""
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")

    def _report(number, name, ok, elapsed, limit):
        line = (f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} "
                f"[{elapsed:.2f}s / limit {limit:.0f}s]")
        if reporter is not None:
            reporter.write_line("")
            reporter.write_line(line)
        else:
            print(line, file=sys.stderr)
        assert ok, line
        assert elapsed < limit, line

    return _report


def test_criterion_1_golden_verification(report):
    start = time.perf_counter()
    code = cli_main(["check", K4, K4_SPLINE])
    elapsed = time.perf_counter() - start
    report(1, "K4 golden spline verifies", code == 0, elapsed, 1.0)


def test_criterion_2_negative_goldens(report, k4_graph, k4_path_tuple, k4_cycle_tuple):
    start = time.perf_counter()
    ok = True
    bold_path = [("v1", "v2"), ("v2", "v3"), ("v3", "v4")]
    bold_cycle = bold_path + [("v1", "v4")]
    for spline, bold in ((k4_path_tuple, bold_path), (k4_cycle_tuple, bold_cycle)):
        whole = verify(k4_graph, spline)
        ok &= not whole.ok
        violated = {frozenset(e) for e, _ in whole.violations}
        outside = {frozenset(e) for e in k4_graph.edges} - {
            frozenset(e) for e in bold}
        ok &= violated == outside
        sub = spanning_subgraph(k4_graph, bold)
        ok &= verify(sub, Spline(sub, spline.values)).ok
    elapsed = time.perf_counter() - start
    report(2, "K4 negative tuples localized", ok, elapsed, 1.0)


def test_criterion_3_derived_splines(report, k4_graph, k4_path_tuple):
    start = time.perf_counter()
    sub = restrict(k4_graph, ["v1", "v2", "v3"], [("v1", "v2"), ("v2", "v3")])
    restricted = Spline(sub, {v: k4_path_tuple[v] for v in sub.vertices})
    ok = verify(sub, restricted).ok
    host = spanning_subgraph(
        k4_graph, [("v1", "v2"), ("v2", "v3"), ("v3", "v4")])
    scaled = scalar_mul(P(0, 0, 0, 0, 1), Spline(host, k4_path_tuple.values))
    ok &= verify(host, scaled).ok
    elapsed = time.perf_counter() - start
    report(3, "restriction and scalar multiple", ok, elapsed, 1.0)


@pytest.mark.filterwarnings("ignore:edge .* contributes a zero factor")
def test_criterion_4_oracle_battery(report):
    start = time.perf_counter()
    failures = []
    instances = 0
    seed = 0
    while instances < 200:
        seed += 1
        rng = random.Random(1000 + seed)
        m = rng.choice([2, 3, 4, 5, 6])
        graph = random_connected_graph(integers_mod(m), rng, n_max=5, e_max=8)
        instances += 1
        try:
            per_edge = [spanning_subgraph(graph, [e]) for e in graph.edges]
            if not check_union_decomposition(graph, per_edge).verdict:
                failures.append((seed, "edge-by-edge"))
            if not check_union_decomposition(
                    graph, spanning_tree_cover(graph)).verdict:
                failures.append((seed, "spanning-trees"))
            tree = spanning_tree(graph)
            if not check_cycle_decomposition(graph, tree).verdict:
                failures.append((seed, "tree-plus-cycles"))
            count_direct_sum(graph, graph.vertices[0])  # raises on mismatch
            base = set(enumerate_splines(graph).members)
            matrix = build_gkm_matrix(graph)
            if matrix_solution_set(matrix) != base:
                failures.append((seed, "matrix-solutions"))
            flips = {e: ((e[1], e[0]) if rng.random() < 0.5 else e)
                     for e in graph.edges}
            if matrix_solution_set(build_gkm_matrix(graph, flips)) != base:
                failures.append((seed, "orientation-invariance"))
            root = rng.choice(graph.vertices)
            system = reduce_via_tree(matrix, spanning_tree(graph, root))
            if reduced_solution_set(system) != base:
                failures.append((seed, "reduction-invariance"))
        except Exception as exc:  # count identity raises AssertionError
            failures.append((seed, repr(exc)))
    elapsed = time.perf_counter() - start
    report(4, f"oracle battery, {instances} instances, {len(failures)} failures",
           not failures, elapsed, 60.0)


@pytest.mark.filterwarnings("ignore:edge .* contributes a zero factor")
def test_criterion_5_constructor_soundness(report):
    start = time.perf_counter()
    failures = 0
    invocations = 0
    rng = random.Random(42)
    rings = [Z, QX]
    while invocations < 1000:
        ring = rng.choice(rings)
        kind = invocations % 5
        try:
            if kind == 0:
                graph = random_cycle(ring, rng, nonzero=True)
                order = list(graph.vertices)
                chord = graph.label(order[0], order[-1]).canonical
                steps = [graph.label(order[i], order[i + 1]).canonical
                         for i in range(len(order) - 1)]
                scale = random_generator_element(ring, rng)
                p = cycle_spline(graph, random_generator_element(ring, rng),
                                 chord * scale, steps)
                ok = verify(graph, p).ok
            elif kind == 1:
                graph = random_path(ring, rng)
                fam = tree_generating_family(graph)
                ok = all(verify(graph, p).ok for p in fam.members)
            elif kind == 2:
                graph = random_cycle(ring, rng, nonzero=True)
                fam = cycle_generating_family(graph)
                ok = all(verify(graph, p).ok for p in fam.members)
            elif kind == 3:
                graph = random_connected_graph(ring, rng)
                tree = spanning_tree(graph)
                sub_vertices = [v for v in graph.vertices
                                if tree.depth[v] <= 1]
                sub_edges = [e for e in tree.tree_edges
                             if e[0] in sub_vertices and e[1] in sub_vertices]
                sub = restrict(graph, sub_vertices, sub_edges)
                p, _ = extend_by_zero_with_factor(
                    graph, sub, trivial_spline(sub, ring.one))
                ok = verify(graph, p).ok
            else:
                graph = random_connected_graph(ring, rng)
                fam = flow_up_family(graph)
                ok = all(verify(graph, p).ok for p in fam.members)
        except Exception:
            ok = False
        failures += not ok
        invocations += 1
    elapsed = time.perf_counter() - start
    report(5, f"constructor soundness, {invocations} invocations, "
           f"{failures} failures", failures == 0, elapsed, 30.0)


def test_criterion_6_free_submodule_certificate(report):
    start = time.perf_counter()
    failures = 0
    for seed in range(100):
        rng = random.Random(5000 + seed)
        graph = random_connected_graph(Z, rng, n_max=8, e_max=12, nonzero=True)
        fam = flow_up_family(graph)
        determinant = Z.one
        for factor in fam.scaling_factors:
            determinant = determinant * factor
        ok = (check_triangular_family(fam)
              and all(not f.is_zero for f in fam.scaling_factors)
              and not determinant.is_zero)
        failures += not ok
    elapsed = time.perf_counter() - start
    report(6, f"free-submodule certificate, 100 graphs, {failures} failures",
           failures == 0, elapsed, 30.0)


@pytest.mark.filterwarnings("ignore:edge .* contributes a zero factor")
def test_criterion_7_tree_equivalence(report):
    start = time.perf_counter()
    disagreements = 0
    trials = 0
    rng = random.Random(7)
    while trials < 500:
        graph = random_tree(Z, rng, n_max=7)
        if trials % 2:
            # random tuple, usually not a spline
            p = Spline(graph, {v: Z.element(rng.randint(-10, 10))
                               for v in graph.vertices})
        else:
            # module combination of the flow-up family, always a spline
            fam = flow_up_family(graph)
            p = trivial_spline(graph, Z.element(0))
            for member in fam.members:
                p = spline_add(p, scalar_mul(
                    Z.element(rng.randint(-3, 3)), member))
        if tree_membership(graph, p).ok != verify(graph, p).ok:
            disagreements += 1
        trials += 1
    elapsed = time.perf_counter() - start
    report(7, f"tree-membership equivalence, {trials} tuples, "
           f"{disagreements} disagreements", disagreements == 0, elapsed, 30.0)


def test_criterion_8_reduced_form_goldens(report, k4_graph):
    start = time.perf_counter()
    ok = True
    # paths P3..P6: row i relates v_i to v_n through the suffix sum
    for n in range(3, 7):
        verts = [f"v{i + 1}" for i in range(n)]
        graph = build_graph(Z, verts, [
            (verts[i], verts[i + 1], Ideal([Z.element(i + 2)]))
            for i in range(n - 1)])
        system = path_reduced_form(build_gkm_matrix(graph))
        for i, row in enumerate(system.tree_rows):
            coeffs = [0] * n
            coeffs[i], coeffs[-1] = 1, -1
            ok &= row.coeffs == tuple(coeffs)
            expect = [(1, (verts[k], verts[k + 1]))
                      for k in range(n - 2, i - 1, -1)]
            ok &= list(row.rhs) == expect
    # K4 with the star tree at v4: the three homogeneous cycle conditions
    star = tree_from_edges(
        k4_graph, [("v1", "v4"), ("v2", "v4"), ("v3", "v4")], root="v4")
    system = reduce_via_tree(build_gkm_matrix(k4_graph), star)
    expected = {
        ("v1", "v2"): {(1, ("v1", "v2")), (-1, ("v1", "v4")), (1, ("v2", "v4"))},
        ("v1", "v3"): {(1, ("v1", "v3")), (-1, ("v1", "v4")), (1, ("v3", "v4"))},
        ("v2", "v3"): {(1, ("v2", "v3")), (-1, ("v2", "v4")), (1, ("v3", "v4"))},
    }
    for row in system.cycle_rows:
        ok &= row.coeffs == (0, 0, 0, 0)
        terms = {(s, e) for s, e in row.rhs}
        flipped = {(-s, e) for s, e in row.rhs}
        ok &= terms == expected[row.edge] or flipped == expected[row.edge]
    elapsed = time.perf_counter() - start
    report(8, "reduced-form goldens (paths and K4)", ok, elapsed, 1.0)


def test_criterion_9_lcm_consistency(report, k4_graph, k4_cycle_tuple):
    start = time.perf_counter()
    perimeter = restrict(
        k4_graph, ["v1", "v2", "v3", "v4"],
        [("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v1", "v4")])
    factor = lcm_scaling_factor(k4_graph, perimeter)
    expected = P(1, 0, 0, 0, 0, 1) * P(1, 0, 0, 0, 0, 0, 1)
    ok = factor == expected
    ok &= factor == lcm(k4_graph.label("v1", "v3").canonical,
                        k4_graph.label("v2", "v4").canonical)
    scaled = scalar_mul(factor, k4_cycle_tuple)
    ok &= verify(k4_graph, scaled).ok
    elapsed = time.perf_counter() - start
    report(9, "lcm scaling factor on K4", ok, elapsed, 1.0)
