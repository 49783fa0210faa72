"""Metamorphic relations: changes to the input that must not change the answer.

Scaling an edge's generator by a unit names the same ideal, so every
command on the k4 fixture prints the same bytes after its labels are
scaled by a nonzero rational.  An edge labeled by a unit imposes no
condition, so erasing it leaves the spline module and every verdict as
they were.
"""
import hashlib
import json
import random
from fractions import Fraction

import pytest

from gensplines import erase_unit_edges, integers, integers_mod, poly_rational, verify
from gensplines.analysis import enumerate_splines
from gensplines.cli import main
from gensplines.splines import Spline

from conftest import FIXTURES, load_fixture, random_connected_graph

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
