"""Metamorphic relations: changes to the input that must not change the answer.

Scaling an edge's generator by a unit names the same ideal, so every
command on the k4 fixture prints the same bytes after its labels are
scaled by a nonzero rational.  An edge labeled by a unit imposes no
condition, so erasing it leaves the spline module and every verdict as
they were.  Declaring the vertices and edges in another order permutes
every solution tuple and renames no violated edge.  Substituting x + a
for x is an automorphism of Q[x] that keeps degrees and leading
coefficients, so it maps every tree verdict, witness and family of a
Q[x] graph to those of the substituted graph.
"""
import hashlib
import json
import random
import warnings
from fractions import Fraction

import pytest

from gensplines import (build_graph, erase_unit_edges, integers, integers_mod, poly_rational,
                        spanning_tree, verify)
from gensplines.analysis import enumerate_splines, matrix_solution_set, reduced_solution_set
from gensplines.cli import main
from gensplines.construct import (cycle_generating_family, flow_up_family,
                                  is_nontrivial_exists, tree_generating_family, tree_membership)
from gensplines.gkm import build_gkm_matrix, reduce_via_tree, syzygy_check
from gensplines.rings import Ideal
from gensplines.splines import Spline

from conftest import (FIXTURES, coefficients, load_fixture, random_connected_graph,
                      random_cycle, random_generator_element, random_tree)

ROOT = FIXTURES.parent.parent
K4 = "tests/fixtures/k4.json"
K4_COMMANDS = [entry for entry in
               json.loads((ROOT / "perfbench" / "golden_cli.json").read_text())["commands"]
               if K4 in entry["argv"]]


def scaled_k4(factor):
    """The k4 document with every edge generator's coefficients times factor."""
    doc = load_fixture("k4.json")
    for edge in doc["edges"]:
        edge["ideal"] = [[str(Fraction(c) * factor) for c in gen] for gen in edge["ideal"]]
    return doc


def test_k4_has_seven_golden_commands():
    assert len(K4_COMMANDS) == 7


@pytest.mark.parametrize("factor", [Fraction(-5, 3), Fraction(7, 2), Fraction(-1),
                                    Fraction(2, 9)], ids=str)
@pytest.mark.parametrize("entry", K4_COMMANDS, ids=[" ".join(e["argv"]) for e in K4_COMMANDS])
def test_scaling_the_k4_labels_changes_no_output(capsys, monkeypatch, tmp_path, factor, entry):
    doc = scaled_k4(factor)
    assert doc["edges"][0]["ideal"] != load_fixture("k4.json")["edges"][0]["ideal"]
    (tmp_path / "k4.json").write_text(json.dumps(doc))
    monkeypatch.chdir(ROOT)
    argv = [str(tmp_path / "k4.json") if arg == K4 else arg for arg in entry["argv"]]
    code = main(argv)
    out = capsys.readouterr().out
    assert code == entry["exit"]
    assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]


def test_erasing_unit_edges_keeps_every_zm_spline():
    erased = 0
    for seed in range(60):
        rng = random.Random(seed)
        graph = random_connected_graph(integers_mod(rng.choice([4, 6, 8, 9, 12])), rng,
                                       n_max=4, e_max=6)
        without = erase_unit_edges(graph)
        erased += len(graph.edges) - len(without.edges)
        assert enumerate_splines(without).members == enumerate_splines(graph).members
    assert erased >= 20


@pytest.mark.parametrize("ring", [integers(), poly_rational()], ids=str)
def test_erasing_unit_edges_keeps_every_verdict(ring):
    """Splines c + L * r, L the product of the labels, and the same tuples
    with one vertex bumped by one, which violates its non-unit edges."""
    verdicts, erased = set(), 0
    for seed in range(60):
        rng = random.Random(seed)
        graph = random_connected_graph(ring, rng, nonzero=True)
        without = erase_unit_edges(graph)
        erased += len(graph.edges) - len(without.edges)
        product = ring.one
        for label in graph.labels.values():
            product = product * label.canonical
        c = ring.element(rng.randint(-3, 3))
        values = {v: c + product * ring.element(rng.randint(-3, 3)) for v in graph.vertices}
        bumped, v = dict(values), rng.choice(graph.vertices)
        bumped[v] += ring.one
        for vals in (values, bumped):
            report = verify(graph, Spline(graph, vals))
            other = verify(without, Spline(without, vals))
            assert (other.ok, other.violations) == (report.ok, report.violations)
            verdicts.add(report.ok)
    assert verdicts == {True, False} and erased >= 10


def redeclared(graph, rng):
    """graph with its vertices and edges declared in shuffled orders, each
    edge named either way round."""
    vertices, edges = list(graph.vertices), [e if rng.random() < 0.5 else e[::-1]
                                             for e in graph.edges]
    rng.shuffle(vertices)
    rng.shuffle(edges)
    return build_graph(graph.ring, vertices,
                       [(u, v, graph.labels[graph.edge_key(u, v)]) for u, v in edges])


def moved(graph, other, tuples):
    """Residue tuples in graph's vertex order, each rewritten in other's,
    sorted."""
    slots = [graph.index(v) for v in other.vertices]
    return sorted(tuple(t[k] for k in slots) for t in tuples)


def renamed(graph, other, by_edge):
    """{edge of graph: p_tail - p_head} keyed by other's edges: a value
    whose edge other names the other way round changes sign."""
    return {other.edge_key(*e): x if other.edge_key(*e) == e else -x
            for e, x in by_edge.items()}


def zm_graphs(count):
    """Seeded connected Z/m graphs with n <= 6, and each redeclared."""
    for seed in range(count):
        rng = random.Random(seed)
        graph = random_connected_graph(integers_mod(rng.choice([2, 3, 4, 6])), rng,
                                       n_max=6, e_max=8)
        yield graph, redeclared(graph, rng), rng


def reduced_set(graph, root):
    return reduced_solution_set(reduce_via_tree(build_gkm_matrix(graph),
                                                spanning_tree(graph, root)))


def test_redeclaring_a_zm_graph_permutes_every_solution_set():
    for graph, other, rng in zm_graphs(60):
        splines = enumerate_splines(graph).members
        assert list(enumerate_splines(other).members) == moved(graph, other, splines)
        assert sorted(matrix_solution_set(build_gkm_matrix(graph))) == list(splines)
        assert sorted(matrix_solution_set(build_gkm_matrix(other))) == moved(
            graph, other, splines)
        root = rng.choice(graph.vertices)
        assert sorted(reduced_set(graph, root)) == list(splines)
        assert sorted(reduced_set(other, root)) == moved(graph, other, splines)


def test_redeclaring_a_zm_graph_keeps_the_syzygy_verdict_at_every_root():
    """The last column is a spline's differences, or each edge's
    generator times a random residue, which most often has no solution."""
    verdicts = []
    for graph, other, rng in zm_graphs(60):
        ring = graph.ring
        if rng.random() < 0.5:
            x = dict(zip(graph.vertices, rng.choice(enumerate_splines(graph).members)))
            q = {(u, v): ring.element(x[u] - x[v]) for u, v in graph.edges}
        else:
            q = {e: graph.labels[e].canonical * ring.element(rng.randrange(ring.modulus))
                 for e in graph.edges}
        seen = {syzygy_check(graph, spanning_tree(graph, r), q) for r in graph.vertices}
        seen |= {syzygy_check(other, spanning_tree(other, r), renamed(graph, other, q))
                 for r in other.vertices}
        assert len(seen) == 1
        verdicts += seen
    assert set(verdicts) == {True, False}


@pytest.mark.parametrize("ring", [integers(), poly_rational()], ids=str)
def test_redeclaring_a_graph_renames_no_violated_edge(ring):
    """Splines c + L * r, L the product of the labels, with one vertex
    bumped by one half the time."""
    violated = 0
    for seed in range(40):
        rng = random.Random(seed)
        graph = random_connected_graph(ring, rng, nonzero=True)
        other = redeclared(graph, rng)
        product = ring.one
        for label in graph.labels.values():
            product = product * label.canonical
        values = {v: ring.element(rng.randint(-3, 3)) * product for v in graph.vertices}
        if rng.random() < 0.5:
            values[rng.choice(graph.vertices)] += ring.one
        report = verify(graph, Spline(graph, values))
        again = verify(other, Spline(other, values))
        assert again.ok == report.ok
        assert dict(again.violations) == renamed(graph, other, dict(report.violations))
        violated += len(report.violations)
    assert violated >= 10


def shifted(x, a):
    """x(t + a) for a Q[x] element x, by Horner's rule in t."""
    out = []
    for c in reversed(coefficients(x)):
        out = [a * y + z for y, z in zip(out + [0], [0] + out)]  # out * (t + a)
        out[0] += c
    return x.ring.element(out)


def shifted_graph(graph, a):
    return build_graph(graph.ring, graph.vertices,
                       [(u, v, Ideal([shifted(g, a) for g in graph.labels[u, v].generators]))
                        for u, v in graph.edges])


def shifted_values(spline, a):
    return {v: shifted(x, a) for v, x in spline.values.items()}


def shifted_graphs(count):
    """Seeded Q[x] trees and cycles, each with its substituted graph and
    a = k/d, k in {-2, -1, 1, 2, 3} and d in {1, 2, 4}."""
    ring = poly_rational()
    for seed in range(count):
        rng = random.Random(seed)
        a = Fraction(rng.choice([-2, -1, 1, 2, 3]), rng.choice([1, 2, 4]))
        graph = (random_tree if seed % 2 else random_cycle)(ring, rng)
        yield graph, shifted_graph(graph, a), a, rng


def test_shifted_x_maps_the_substitution():
    ring, a = poly_rational(), Fraction(-3, 2)
    x = ring.element([Fraction(1, 3), 0, 2])  # 2t^2 + 1/3
    assert shifted(x, a) == ring.element([Fraction(9, 2) + Fraction(1, 3), -6, 2])
    assert shifted(shifted(x, a), -a) == x and shifted(ring.zero, a) == ring.zero


def families(graph):
    """The flow-up family at every root, and the tree or cycle family, with
    the warnings each flow-up family gave."""
    out = []
    for root in graph.vertices:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            out.append((flow_up_family(graph, root), [str(w.message) for w in caught]))
    family = tree_generating_family if graph.is_tree else cycle_generating_family
    return out + [(family(graph), [])]


def test_shifting_x_maps_every_family_member_by_member():
    for graph, other, a, _ in shifted_graphs(30):
        for (family, caught), (image, again) in zip(families(graph), families(other)):
            assert image.vertex_order == family.vertex_order and again == caught
            assert [m.values for m in image.members] == [
                shifted_values(m, a) for m in family.members]
            assert image.scaling_factors == tuple(shifted(x, a) for x in family.scaling_factors)


def test_shifting_x_maps_tree_failures_and_witnesses():
    """Tree family combinations, the same with one vertex bumped by one,
    and random labelings."""
    ring, failed, witnessed = poly_rational(), 0, 0
    for graph, other, a, rng in shifted_graphs(30):
        if not graph.is_tree:
            continue
        members = tree_generating_family(graph).members
        valid = {v: sum((random_generator_element(ring, rng) * m[v] for m in members),
                        ring.zero) for v in graph.vertices}
        bumped = {**valid, graph.vertices[-1]: valid[graph.vertices[-1]] + ring.one}
        drawn = {v: random_generator_element(ring, rng) for v in graph.vertices}
        for values in (valid, bumped, drawn):
            report = tree_membership(graph, Spline(graph, values))
            image = tree_membership(other, Spline(other, shifted_values(Spline(graph, values), a)))
            assert image.failures == report.failures
            assert image.witnesses == {pair: {e: shifted(x, a) for e, x in summands.items()}
                                       for pair, summands in report.witnesses.items()}
            failed += len(report.failures)
            witnessed += len(report.witnesses)
    assert failed >= 100 and witnessed >= 200


def test_shifting_x_maps_violated_edges_and_nontrivial_witnesses():
    """Combinations of the tree or cycle family, the same with the last
    vertex bumped by one, and random labelings: each violated edge keeps
    its name and its difference is substituted.  The extension-by-zero
    witness is a product of labels, so it is substituted too."""
    ring, violated, verdicts, witnesses = poly_rational(), 0, set(), 0
    for graph, other, a, rng in shifted_graphs(30):
        flag, witness = is_nontrivial_exists(graph)
        image_flag, image = is_nontrivial_exists(other)
        assert image_flag == flag and (image is None) == (witness is None)
        if witness is not None:
            assert image.values == shifted_values(witness, a)
            witnesses += 1
        family = tree_generating_family if graph.is_tree else cycle_generating_family
        members = family(graph).members
        valid = {v: sum((random_generator_element(ring, rng) * m[v] for m in members),
                        ring.zero) for v in graph.vertices}
        bumped = {**valid, graph.vertices[-1]: valid[graph.vertices[-1]] + ring.one}
        drawn = {v: random_generator_element(ring, rng) for v in graph.vertices}
        for values in (valid, bumped, drawn):
            report = verify(graph, Spline(graph, values))
            again = verify(other, Spline(other, shifted_values(Spline(graph, values), a)))
            assert again.ok == report.ok
            assert again.violations == tuple((e, shifted(x, a)) for e, x in report.violations)
            violated += len(report.violations)
            verdicts.add(report.ok)
    assert verdicts == {True, False} and violated >= 100 and witnesses >= 20
