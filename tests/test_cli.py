"""End-to-end CLI behavior: exit codes, JSON output, DOT emission."""
import argparse
import dataclasses
import errno
import hashlib
import json
import os
import random
import re
import sys

import pytest

from gensplines import analysis, cli, serialize
from gensplines.cli import main

from conftest import FIXTURES

ROOT = FIXTURES.parent.parent
GOLDEN = json.loads((ROOT / "perfbench" / "golden_cli.json").read_text())["commands"]

K4 = str(FIXTURES / "k4.json")
K4_SPLINE = str(FIXTURES / "k4-spline.json")
K4_PATH_TUPLE = str(FIXTURES / "k4-path-tuple.json")
C3Z4 = str(FIXTURES / "c3-z4.json")


# (argv, (exit code, stdout, stderr)) of --format text, byte for byte
TEXT_OUTPUT = {
    "check": [
        ([K4, K4_SPLINE], (0, "ok\n", "")),
        ([K4, K4_PATH_TUPLE], (1, (
            "violated: edge v1-v3, difference -x^2 - x - 2\n"
            "violated: edge v1-v4, difference -x^3 - x^2 - x - 3\n"
            "violated: edge v2-v4, difference -x^3 - x^2 - 2\n"), "")),
    ],
    "matrix": [
        ([K4], (0, (
            "[ 1 -1  0  0 | q_{v1,v2}*(x + 1)]\n"
            "[ 1  0 -1  0 | q_{v1,v3}*(x^5 + 1)]\n"
            "[ 1  0  0 -1 | q_{v1,v4}*(x^4 + 1)]\n"
            "[ 0  1 -1  0 | q_{v2,v3}*(x^2 + 1)]\n"
            "[ 0  1  0 -1 | q_{v2,v4}*(x^6 + 1)]\n"
            "[ 0  0  1 -1 | q_{v3,v4}*(x^3 + 1)]\n"), "")),
        ([K4, "--reduced"], (0, (
            "[ 1 -1  0  0 | q_{v1,v2}*(x + 1)]\n"
            "[ 1  0 -1  0 | q_{v1,v3}*(x^5 + 1)]\n"
            "[ 1  0  0 -1 | q_{v1,v4}*(x^4 + 1)]\n"
            "[ 0  0  0  0 | q_{v2,v3}*(x^2 + 1) - q_{v1,v3}*(x^5 + 1) + q_{v1,v2}*(x + 1)]\n"
            "[ 0  0  0  0 | q_{v2,v4}*(x^6 + 1) - q_{v1,v4}*(x^4 + 1) + q_{v1,v2}*(x + 1)]\n"
            "[ 0  0  0  0 | q_{v3,v4}*(x^3 + 1) - q_{v1,v4}*(x^4 + 1) + q_{v1,v3}*(x^5 + 1)]\n"
        ), "")),
        ([C3Z4], (0, (
            "[ 1 -1  0 | q_{v1,v2}*(2)]\n"
            "[ 1  0 -1 | q_{v1,v3}*(2)]\n"
            "[ 0  1 -1 | q_{v2,v3}*(2)]\n"), "")),
        ([C3Z4, "--reduced"], (0, (
            "[ 1 -1  0 | q_{v1,v2}*(2)]\n"
            "[ 1  0 -1 | q_{v1,v3}*(2)]\n"
            "[ 0  0  0 | q_{v2,v3}*(2) - q_{v1,v3}*(2) + q_{v1,v2}*(2)]\n"), "")),
    ],
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCheck:
    def test_valid_spline_exits_zero(self, capsys):
        code, out, _ = run(capsys, "check", K4, K4_SPLINE)
        assert code == 0
        assert json.loads(out)["ok"] is True

    def test_violations_exit_one(self, capsys):
        code, out, _ = run(capsys, "check", K4, K4_PATH_TUPLE)
        assert code == 1
        doc = json.loads(out)
        assert doc["ok"] is False
        assert [v["edge"] for v in doc["violations"]] == [
            ["v1", "v3"], ["v1", "v4"], ["v2", "v4"]]

    def test_text_format(self, capsys):
        for argv, expected in TEXT_OUTPUT["check"]:
            assert run(capsys, "check", *argv, "--format", "text") == expected

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, "check", "nope.json", K4_SPLINE)
        assert code == 2 and "no such file" in err

    def test_malformed_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "check", str(bad), K4_SPLINE)
        assert code == 2 and "line 1" in err

    def test_schema_error_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"ring": {"kind": "integers"}}))
        code, _, err = run(capsys, "check", str(bad), K4_SPLINE)
        assert code == 2 and "missing field" in err

    def test_permission_denied_exits_two(self, capsys, monkeypatch):
        def denied(path, *args, **kwargs):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)

        monkeypatch.setattr(cli, "open", denied, raising=False)
        code, out, err = run(capsys, "check", K4, K4_SPLINE)
        assert code == 2 and out == ""
        assert err == f"error: {K4}: Permission denied\n"

    def test_non_utf8_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bin.json"
        bad.write_bytes(b"\xff\xfe")
        code, out, err = run(capsys, "check", str(bad), K4_SPLINE)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: 'utf-8' codec can't decode byte 0xff")

    def test_deeply_nested_json_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "deep.json"
        bad.write_text("[" * 100000)
        code, out, err = run(capsys, "check", str(bad), K4_SPLINE)
        assert code == 2 and out == ""
        assert err.startswith(f"error: {bad}: maximum recursion depth exceeded")

    @pytest.mark.parametrize("argv", [[str(FIXTURES), K4_SPLINE], [K4, str(FIXTURES)]])
    def test_directory_exits_two(self, capsys, argv):
        code, out, err = run(capsys, "check", *argv)
        assert code == 2 and out == ""
        assert err == f"error: {FIXTURES}: Is a directory\n"

    @pytest.mark.parametrize("text", ["1_000", " 3", "1/ 2", "\u0663"])
    def test_integer_outside_the_decimal_grammar_exits_two(self, capsys, tmp_path, text):
        # int() takes underscores, spaces and non-ASCII digits; documents do not
        spline = tmp_path / "spline.json"
        spline.write_text(json.dumps({"values": {"v1": [], "v2": [text]}}))
        graph = tmp_path / "z4.json"
        graph.write_text(json.dumps(_with(["edges", 0, "ideal"], [text])))
        for argv, field in (([K4, str(spline)], f"{spline}: spline.values[v2]: "),
                            ([str(graph), K4_SPLINE], f"{graph}: graph.edges[0].ideal[0]: ")):
            code, out, err = run(capsys, "check", *argv)
            assert (code, out) == (2, "") and err.startswith(f"error: {field}"), err


GOOD_Z4 = {"ring": {"kind": "integers-mod", "modulus": 4}, "vertices": ["a", "b"],
           "edges": [{"u": "a", "v": "b", "ideal": ["2"]}]}


def _with(path, value):
    """A copy of GOOD_Z4 with the field at path (a key sequence) replaced."""
    doc = json.loads(json.dumps(GOOD_Z4))
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


class TestMalformedDocuments:
    @pytest.mark.parametrize("doc, field", [
        (_with(["edges"], 5), "graph.edges"),
        (_with(["edges"], None), "graph.edges"),
        (_with(["ring", "modulus"], "4"), "ring.modulus"),
        (_with(["ring", "modulus"], 4.0), "ring.modulus"),
        (_with(["edges", 0, "u"], ["a"]), "graph.edges[0]"),
        (_with(["edges", 0, "v"], {"x": 1}), "graph.edges[0]"),
    ], ids=["edges-int", "edges-null", "modulus-str", "modulus-float",
            "u-list", "v-object"])
    def test_wrong_json_type_exits_two(self, capsys, tmp_path, doc, field):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, out, err = run(capsys, "flowup", str(bad))
        assert code == 2 and out == ""
        assert err.startswith("error: ") and f"{field}: " in err
        assert "Traceback" not in err


class TestFamilies:
    def test_flowup_k4(self, capsys):
        code, out, _ = run(capsys, "flowup", K4)
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_order"] == ["v1", "v2", "v3", "v4"]
        assert len(doc["members"]) == 4
        # member i vanishes on the vertices after v_i in the flow-up order
        # (the zero polynomial encodes as an empty coefficient array)
        assert doc["members"][0]["values"]["v2"] == []
        assert doc["members"][-1]["values"]["v4"] != []

    def test_flowup_root(self, capsys):
        code, out, _ = run(capsys, "flowup", C3Z4, "--root", "v2")
        assert code == 0
        assert json.loads(out)["vertex_order"][0] == "v2"

    def test_treefam_rejects_non_tree(self, capsys):
        code, _, err = run(capsys, "treefam", K4)
        assert code == 2 and "tree" in err

    def test_treefam_path(self, capsys, tmp_path):
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b", "c"],
               "edges": [{"u": "a", "v": "b", "ideal": ["3"]},
                         {"u": "b", "v": "c", "ideal": ["2"]}]}
        path = tmp_path / "p3.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "treefam", str(path))
        assert code == 0
        fam = json.loads(out)
        assert fam["scaling_factors"] == ["3", "2", "1"]

    @staticmethod
    def star(tmp_path, labels):
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b", "c", "d"],
               "edges": [{"u": "c", "v": w, "ideal": [label]}
                         for w, label in zip("abd", labels)]}
        path = tmp_path / "star.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_treefam_star_gives_the_tree_basis(self, capsys, tmp_path):
        # rooted at d, the vertex a BFS from the first leaf a visits last
        graph = self.star(tmp_path, ["2", "3", "5"])
        code, out, err = run(capsys, "treefam", graph)
        assert code == 0 and err == ""
        fam = json.loads(out)
        assert fam["vertex_order"] == ["b", "a", "c", "d"]
        assert fam["scaling_factors"] == ["3", "2", "5", "1"]
        for i, member in enumerate(fam["members"]):
            spline = tmp_path / f"member{i}.json"
            spline.write_text(json.dumps(member))
            assert run(capsys, "check", graph, str(spline))[0] == 0

    @pytest.mark.filterwarnings("error")
    def test_treefam_star_with_a_zero_label(self, capsys, tmp_path):
        code, out, err = run(capsys, "treefam", self.star(tmp_path, ["2", "0", "5"]))
        assert code == 0 and err == ""
        assert json.loads(out)["scaling_factors"] == ["0", "2", "5", "1"]

    def test_cyclefam(self, capsys):
        code, out, _ = run(capsys, "cyclefam", C3Z4)
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex_order"] == ["v3", "v2", "v1"]
        assert len(doc["members"]) == 3

    @staticmethod
    def triangle(tmp_path, modulus, labels):
        doc = {"ring": {"kind": "integers-mod", "modulus": modulus},
               "vertices": ["a", "b", "c"],
               "edges": [{"u": u, "v": v, "ideal": [label]}
                         for (u, v), label in zip(["ab", "bc", "ac"], labels)]}
        path = tmp_path / "triangle.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_cyclefam_large_prime_modulus(self, capsys, tmp_path):
        code, out, _ = run(capsys, "cyclefam",
                           self.triangle(tmp_path, 2 ** 61 - 1, ["1", "1", "1"]))
        assert code == 0 and len(json.loads(out)["members"]) == 3

    def test_cyclefam_zero_label_needs_primality(self, capsys, tmp_path):
        # a zero choice is refused only over an integral domain, so the
        # modulus must be tested for primality
        code, _, err = run(capsys, "cyclefam",
                           self.triangle(tmp_path, 2 ** 61 - 1, ["1", "0", "1"]))
        assert code == 2 and "zero choices" in err
        code, _, _ = run(capsys, "cyclefam",
                         self.triangle(tmp_path, 2 ** 61, ["1", "0", "1"]))
        assert code == 0
        code, _, err = run(capsys, "cyclefam",
                           self.triangle(tmp_path, 2 ** 127 - 1, ["1", "0", "1"]))
        assert code == 2 and "cannot decide" in err and "Traceback" not in err

    def test_cyclefam_rejects_non_cycle(self, capsys, tmp_path):
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "ideal": ["3"]}]}
        path = tmp_path / "p2.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "cyclefam", str(path))
        assert code == 2


class TestLongIntegers:
    def test_labels_past_the_digit_limit(self, capsys, tmp_path):
        # CPython converts at most 4,300 digits between int and str by
        # default; one label is a bare JSON number, the others strings
        labels = [d * 5000 for d in "3579"]
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b", "c", "d"],
               "edges": [{"u": u, "v": v, "ideal": [label]}
                         for (u, v), label in zip(["ab", "bc", "cd", "ad"], labels)]}
        text = json.dumps(doc).replace(f'"{labels[0]}"', labels[0])
        graph = tmp_path / "c4.json"
        graph.write_text(text)
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "flowup", str(graph))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        fam = json.loads(out)
        assert len(fam["scaling_factors"][0]) > 19000
        for k, member in enumerate(fam["members"]):
            spline = tmp_path / f"member{k}.json"
            spline.write_text(json.dumps(member))
            code, out, _ = run(capsys, "check", str(graph), str(spline))
            assert code == 0 and json.loads(out)["ok"]

    @pytest.mark.parametrize("as_number", [False, True], ids=["string", "number"])
    def test_label_past_the_input_bound_exits_two(self, capsys, tmp_path, as_number):
        # refused by its length while loading, before a quadratic conversion
        label = "7" * 200_000
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b"],
               "edges": [{"u": "a", "v": "b", "ideal": [label]}]}
        text = json.dumps(doc)
        graph = tmp_path / "p2.json"
        graph.write_text(text.replace(f'"{label}"', label) if as_number else text)
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(5000)
        try:
            code, out, err = run(capsys, "flowup", str(graph))
            assert sys.get_int_max_str_digits() == 5000
        finally:
            sys.set_int_max_str_digits(limit)
        field = "" if as_number else "graph.edges[0].ideal[0]: "
        assert (code, out, err) == (2, "", (
            f"error: {graph}: {field}integer of 200000 digits is past the input "
            f"bound of {cli.INPUT_DIGITS} digits\n"))


    def test_output_past_the_input_bound_is_refused_as_input(
            self, capsys, tmp_path, monkeypatch):
        # the bound applies to what is read only: products of valid
        # labels may be longer, and are refused when read back
        monkeypatch.setattr(cli, "INPUT_DIGITS", 640)  # CPython's least limit
        doc = {"ring": {"kind": "integers"}, "vertices": ["a", "b", "c", "d"],
               "edges": [{"u": u, "v": v, "ideal": [d * 250]}
                         for (u, v), d in zip(["ab", "bc", "cd", "ad"], "2357")]}
        graph = tmp_path / "c4.json"
        graph.write_text(json.dumps(doc))
        limit = sys.get_int_max_str_digits()
        code, out, err = run(capsys, "flowup", str(graph))
        assert (code, err) == (0, "")
        assert sys.get_int_max_str_digits() == limit
        member = json.loads(out)["members"][0]
        assert len(member["values"]["a"]) == 999
        spline = tmp_path / "member0.json"
        spline.write_text(json.dumps(member))
        assert run(capsys, "check", str(graph), str(spline)) == (2, "", (
            f"error: {spline}: spline.values[a]: integer of 999 digits is past "
            f"the input bound of 640 digits\n"))
        assert sys.get_int_max_str_digits() == limit


class TestMatrix:
    def test_full_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", C3Z4)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["rows"][0]["coeffs"] == [1, -1, 0]
        assert doc["rows"][0]["rhs"] == "q_{v1,v2}*(2)"

    def test_reduced_matrix(self, capsys):
        code, out, _ = run(capsys, "matrix", C3Z4, "--reduced")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 3
        assert doc["rows"][-1]["coeffs"] == [0, 0, 0]

    def test_text_format(self, capsys):
        for argv, expected in TEXT_OUTPUT["matrix"]:
            assert run(capsys, "matrix", *argv, "--format", "text") == expected


class TestEnumerate:
    def test_c3_z4(self, capsys):
        code, out, _ = run(capsys, "enumerate", C3Z4)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 16
        assert len(doc["members"]) == 16

    def test_more_than_a_thousand_splines_are_elided(self, capsys, tmp_path):
        doc = {"ring": {"kind": "integers-mod", "modulus": 6},
               "vertices": ["a", "b", "c", "d"], "edges": []}
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "enumerate", str(path))
        assert code == 0
        assert json.loads(out) == {"count": 1296, "elided": True}

    def test_budget_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate", C3Z4, "--budget", "10")
        assert code == 2 and "budget" in err

    def test_infinite_ring_exit_two(self, capsys):
        code, _, err = run(capsys, "enumerate", K4)
        assert code == 2

    def test_path_longer_than_the_recursion_limit(self, capsys, tmp_path):
        names = [f"v{i}" for i in range(1100)]
        doc = {"ring": {"kind": "integers-mod", "modulus": 2}, "vertices": names,
               "edges": [{"u": u, "v": v, "ideal": ["0"]}
                         for u, v in zip(names, names[1:])]}
        path = tmp_path / "p1100.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "enumerate", str(path), "--budget", "1" + "0" * 400)
        assert code == 0 and err == ""
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["members"] == [[0] * 1100, [1] * 1100]

    def test_budget_stops_before_the_full_power(self, capsys, tmp_path):
        # m^n here has ten million digits; the guard must not compute it
        modulus = 10**1000 + 7
        names = [f"v{i}" for i in range(10_000)]
        doc = {"ring": {"kind": "integers-mod", "modulus": modulus},
               "vertices": names, "edges": []}
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "enumerate", str(path))
        assert code == 2 and out == ""
        assert err == f"error: {modulus}^10000 tuples exceed the budget of 10000000\n"


class TestDecompose:
    def test_constant_split(self, capsys, tmp_path):
        spline = tmp_path / "p.json"
        spline.write_text(json.dumps(
            {"values": {"v1": "3", "v2": "1", "v3": "1"}}))
        code, out, _ = run(capsys, "decompose", C3Z4, str(spline))
        assert code == 0
        doc = json.loads(out)
        assert doc["vertex"] == "v1" and doc["constant"] == "3"
        assert doc["anchored"]["values"]["v1"] == "0"

    def test_non_spline_exit_two(self, capsys, tmp_path):
        spline = tmp_path / "p.json"
        spline.write_text(json.dumps(
            {"values": {"v1": "0", "v2": "1", "v3": "0"}}))
        code, _, err = run(capsys, "decompose", C3Z4, str(spline))
        assert code == 2

    def test_no_vertices_exit_two(self, capsys, tmp_path):
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(
            {"ring": {"kind": "integers"}, "vertices": [], "edges": []}))
        spline = tmp_path / "p.json"
        spline.write_text(json.dumps({"values": {}}))
        code, out, err = run(capsys, "decompose", str(graph), str(spline))
        assert code == 2 and out == ""
        assert err == "error: decompose needs a graph with at least one vertex\n"


class TestSelfcheck:
    def test_c3_z4_all_pass(self, capsys):
        code, out, _ = run(capsys, "selfcheck", C3Z4)
        assert code == 0
        reports = json.loads(out)
        assert [r["claim"] for r in reports] == [
            "edge-by-edge", "spanning-trees", "tree-plus-cycles"]
        assert all(r["verdict"] for r in reports)

    def test_edgeless_mod_graph_certifies(self, capsys, tmp_path):
        doc = {"ring": {"kind": "integers-mod", "modulus": 4},
               "vertices": ["a", "b"], "edges": []}
        path = tmp_path / "edgeless.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "selfcheck", str(path))
        assert code == 0 and "Traceback" not in err
        reports = json.loads(out)
        assert [r["claim"] for r in reports] == ["edge-by-edge"]
        assert reports[0]["verdict"] is True

    def test_sampled_over_polynomials(self, capsys):
        code, out, _ = run(capsys, "selfcheck", K4, "--samples", "3")
        assert code == 0
        assert all(r["mode"] == "sampled" for r in json.loads(out))


    @pytest.mark.parametrize("graph", [K4, C3Z4], ids=["k4", "c3-z4"])
    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_samples_below_one_exit_two(self, capsys, graph, samples):
        code, out, err = run(capsys, "selfcheck", graph, "--samples", samples)
        assert code == 2 and out == ""
        assert err == f"error: samples must be at least 1, got {samples}\n"

    def test_refuted_exhaustive_claims_exit_one(self, capsys, monkeypatch):
        enumerate_splines = analysis.enumerate_splines

        def padded(graph, budget):
            found = enumerate_splines(graph, budget)
            return dataclasses.replace(found, members=found.members + ((1, 2, 3),))

        monkeypatch.setattr(analysis, "enumerate_splines", padded)
        code, out, _ = run(capsys, "selfcheck", C3Z4)
        assert code == 1
        for report in json.loads(out):
            assert report["verdict"] is False and report["mode"] == "exhaustive"
            assert report["counterexample"] == [1, 2, 3] and "seed" not in report

    def test_refuted_sampled_claims_exit_one(self, capsys, monkeypatch, k4_graph):
        first_draw = analysis.random_member(k4_graph, random.Random(4))
        verify = analysis.verify
        monkeypatch.setattr(analysis, "verify",
                            lambda graph, p: dataclasses.replace(verify(graph, p), ok=False))
        code, out, _ = run(capsys, "selfcheck", K4, "--seed", "4")
        assert code == 1
        reports = json.loads(out)
        assert len(reports) == 3
        for report in reports:
            assert report["verdict"] is False and report["mode"] == "sampled"
            assert report["seed"] == 4
            assert report["counterexample"] == serialize.spline_to_json(first_draw)


class TestGoldenOutput:
    @pytest.mark.parametrize("entry", GOLDEN, ids=[" ".join(e["argv"]) for e in GOLDEN])
    def test_byte_identical(self, capsys, monkeypatch, entry):
        monkeypatch.chdir(ROOT)
        code, out, _ = run(capsys, *entry["argv"])
        assert code == entry["exit"]
        assert hashlib.sha256(out.encode()).hexdigest() == entry["stdout_sha256"]


def readme_usage():
    """{subcommand: its --options} from the README's CLI usage block."""
    readme = (ROOT / "README.md").read_text()
    block = re.search(r"## CLI\n\n```\n(.*?)```", readme, re.S).group(1)
    usage = {}
    for line in block.splitlines():
        name, rest = re.match(r"gensplines (\w+)(.*)", line).groups()
        usage[name] = set(re.findall(r"--[\w-]+", rest))
    return usage


def parser_usage():
    """{subcommand: its --options} from cli.build_parser, --help aside."""
    sub = next(action for action in cli.build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return {name: {s for action in parser._actions for s in action.option_strings
                   if s.startswith("--")} - {"--help"}
            for name, parser in sub.choices.items()}


class TestReadmeUsage:
    def test_readme_lists_every_subcommand_and_option(self):
        assert readme_usage() == parser_usage()


class TestDot:
    def test_graph_only(self, capsys):
        code, out, _ = run(capsys, "dot", C3Z4)
        assert code == 0
        assert out.startswith("graph splines {")
        assert '"v1" -- "v2" [label="<2>", fontcolor=gray];' in out

    def test_with_spline(self, capsys, tmp_path):
        spline = tmp_path / "p.json"
        spline.write_text(json.dumps(
            {"values": {"v1": "0", "v2": "2", "v3": "2"}}))
        code, out, _ = run(capsys, "dot", C3Z4, str(spline))
        assert code == 0
        assert '"v2" [label="v2: 2", fontcolor=red];' in out

    def test_ids_and_labels_escaped(self, capsys, tmp_path):
        doc = {"ring": {"kind": "integers"}, "vertices": ['a"b', "c\\", 'x" [color=red'],
               "edges": [{"u": 'a"b', "v": "c\\", "ideal": ["2"]}]}
        graph = tmp_path / "g.json"
        graph.write_text(json.dumps(doc))
        spline = tmp_path / "p.json"
        spline.write_text(json.dumps(
            {"values": {'a"b': "0", "c\\": "2", 'x" [color=red': "5"}}))
        code, out, _ = run(capsys, "dot", str(graph))
        assert code == 0
        assert out.splitlines()[1:] == [
            '  "a\\"b";', '  "c\\\\";', '  "x\\" [color=red";',
            '  "a\\"b" -- "c\\\\" [label="<2>", fontcolor=gray];', "}"]
        code, out, _ = run(capsys, "dot", str(graph), str(spline))
        assert code == 0
        assert '  "c\\\\" [label="c\\\\: 2", fontcolor=red];' in out
        assert '  "x\\" [color=red" [label="x\\" [color=red: 5", fontcolor=red];' in out

    def test_deterministic(self, capsys):
        _, first, _ = run(capsys, "dot", K4)
        _, second, _ = run(capsys, "dot", K4)
        assert first == second


class TestInternalError:
    def test_library_fault_exits_three(self, capsys, monkeypatch):
        def broken(graph, spline):
            raise RuntimeError("library fault")

        monkeypatch.setattr(cli, "verify", broken)
        code, out, err = run(capsys, "check", K4, K4_SPLINE)
        assert code == 3 and out == ""
        assert err.startswith("Traceback (most recent call last):")
        assert err.endswith("RuntimeError: library fault\n")
