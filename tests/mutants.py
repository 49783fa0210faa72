"""Planted faults: each entry patches one exact text, and the tests it
names must then fail.

    python tests/mutants.py              # every entry
    python tests/mutants.py NAME ...     # the entries named

The repository's files (git ls-files, untracked files that are not
ignored included) are copied once to a temporary directory.  Each entry
then replaces its old text in one file of the copy, runs its tests there,
and restores the file.  An entry is killed when every test it names has a
failing case; a test named by a class or function covers its cases.  An
old text that does not occur exactly once is an error, so a change to the
code an entry patches must update the entry, and the named tests must
pass on the unpatched copy first.  pytest does not collect this file: its
name does not start with test_.
"""
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT = 60  # seconds per pytest run; an entry whose tests hang is an error

# (name, file, old text, new text, the test ids that must fail)
MUTANTS = [
    ("long-division-lets-a-non-exact-step-through", "src/gensplines/rings.py",
     "            if f * lead != x:\n                return None\n            quot[i - nb] = f\n",
     "            quot[i - nb] = f\n",
     ["tests/test_rings.py::TestPolynomialsAgainstSympy::test_matches_sympy"]),
    ("short-division-lets-a-non-exact-step-through", "src/gensplines/rings.py",
     "            if f * lead != x:\n                return None\n            quot.append(f)\n",
     "            quot.append(f)\n",
     ["tests/test_rings.py"]),
    ("short-division-drops-the-older-carry", "src/gensplines/rings.py",
     "c1, c0 = c0 + f * b1, f * b0", "c1, c0 = f * b1, f * b0",
     ["tests/test_rings.py"]),
    ("short-product-drops-the-x2-term", "src/gensplines/rings.py",
     "out.append(x * b0 + p1 * b1 + p2 * b2)", "out.append(x * b0 + p1 * b1)",
     ["tests/test_rings.py"]),
    ("element-skips-mod-m", "src/gensplines/rings.py",
     "        payload %= ring.modulus\n", "        pass\n",
     ["tests/test_rings.py"]),
    ("sampled-draws-from-another-seed", "src/gensplines/analysis.py",
     "_random_members(graph, random.Random(seed))",
     "_random_members(graph, random.Random(seed + 1))",
     ["tests/test_analysis.py::TestSampledReference"]),
    ("tree-failures-reads-the-next-level-modulus", "src/gensplines/levels.py",
     "            m = powers[j + 1]\n", "            m = powers[j + 2]\n",
     ["tests/test_levels.py"]),
    ("reduce-via-tree-reverses-a-step-sign", "src/gensplines/gkm.py",
     "(a, b, sign) if (a, b) in keys else (b, a, -sign)",
     "(a, b, sign) if (a, b) in keys else (b, a, sign)",
     ["tests/test_gkm.py::TestAgainstTheDenseReduction"]),
    ("union-merges-without-its-size-order", "src/gensplines/levels.py",
     "        if len(a) < len(b):\n            u, v, a, b = v, u, b, a\n", "",
     ["tests/test_scale.py::test_tree_membership_on_a_path_declared_backwards_is_linear"]),
    ("tree-rows-with-their-signs-swapped", "src/gensplines/gkm.py",
     "SystemRow(e, {graph.index(tail): 1, graph.index(head): -1}",
     "SystemRow(e, {graph.index(tail): -1, graph.index(head): 1}",
     ["tests/test_gkm.py::TestReorientedMatrices::test_reduce_via_tree_matches_reference",
      "tests/test_gkm.py::TestAgainstTheDenseReduction"]),
    ("dense-writes-n-minus-one-slots", "src/gensplines/gkm.py",
     "range(n), [0] * n", "range(n - 1), [0] * n",
     ["tests/test_gkm.py::TestPathReducedForm", "tests/test_acceptance.py::test_criterion_8_reduced_form_goldens",
      "tests/test_cli.py"]),
    ("reduced-solution-set-drops-a-rows-coefficients", "src/gensplines/analysis.py",
     "form, own = dict(rows[e].coeffs), 0", "form, own = {}, 0",
     ["tests/test_analysis.py::TestCorruptedSystems::test_tree_row_coefficient_doubled"]),
    ("orientation-read-from-any-iterable", "src/gensplines/gkm.py",
     "if not isinstance(ends, (tuple, list)) or tuple(ends) not in ((u, v), (v, u)):",
     "if tuple(ends) not in ((u, v), (v, u)):",
     ["tests/test_gkm.py::TestBuild::test_orientation_that_is_not_a_pair_of_endpoints"]),
    ("tree-from-edges-counts-repeats", "src/gensplines/graphs.py",
     "    edges = {graph.edge_key(u, v) for u, v in edges}\n",
     "    edges = [graph.edge_key(u, v) for u, v in edges]\n",
     ["tests/test_graphs.py::TestSpanningTree::test_tree_from_edges_counts_a_repeat_once"]),
    ("residue-search-keeps-its-search-order", "src/gensplines/analysis.py",
     "return level if back == sorted(back) else sorted(tuple(x[i] for i in back) for x in level)",
     "return sorted(level)",
     ["tests/test_metamorphic.py::test_redeclaring_a_zm_graph_permutes_every_solution_set"]),
    ("witnesses-scale-by-the-reversed-difference", "src/gensplines/construct.py",
     "quotient(p[v].payload - p[u].payload, d)", "quotient(p[u].payload - p[v].payload, d)",
     ["tests/test_construct.py::TestTreeMembershipIncremental"]),
    ("ext-gcd-skips-the-scaling-to-the-normal-gcd", "src/gensplines/rings.py",
     "        x0, y0 = unit * x0, unit * y0\n", "",
     ["tests/test_rings.py::TestGcdLcm::test_ext_gcd_polys"]),
    ("solves-compares-without-mod-m", "src/gensplines/gkm.py",
     "all(graph.ring.same(p[tail].payload - p[head].payload,",
     "all((lambda a, b: a == b)(p[tail].payload - p[head].payload,",
     ["tests/test_gkm.py::TestSolves::test_compares_mod_m_when_the_tail_is_below_the_head"]),
    ("cycle-spline-drops-the-base-check", "src/gensplines/construct.py",
     "    ring.zero._check(base)\n", "",
     ["tests/test_construct.py::TestCycleSpline::test_refuses_a_base_over_another_ring"]),
    ("lcm-scaling-takes-lcm-past-a-zero", "src/gensplines/construct.py",
     "acc = acc if acc.is_zero else lcm(", "acc = lcm(",
     ["tests/test_construct.py::TestLcmScaling::test_two_zero_labels_give_zero"]),
    ("lcm-decides-a-zero-operand-first", "src/gensplines/rings.py",
     "    g = gcd(a, b).payload  # gcd checks the rings and refuses Z/m first\n",
     "    if a.is_zero or b.is_zero:\n        return a.ring.zero\n"
     "    g = gcd(a, b).payload  # gcd checks the rings and refuses Z/m first\n",
     ["tests/test_rings.py::TestGcdLcm::test_lcm_checks_rings_before_zero_operands"]),
    ("read-decimal-asks-for-the-limit-one-digit-late", "src/gensplines/rings.py",
     "    if n > 640 and 0 < (limit", "    if n > 641 and 0 < (limit",
     ["tests/test_rings.py::test_read_decimal_refuses_only_past_the_limit"]),
    ("ideal-cache-keys-every-array", "src/gensplines/serialize.py",
     "        elif type(g) is not str:\n            return None\n", "",
     ["tests/test_serialize.py::test_each_loader_error_names_its_location[graph-z-true-after-1]"]),
    ("spline-reader-skips-its-key-comparison", "src/gensplines/serialize.py",
     "    if parsed.keys() == graph._index.keys():\n", "    if True:\n",
     ["tests/test_serialize.py::test_each_loader_error_names_its_location[spline-missing-vertex]",
      "tests/test_serialize.py::test_each_loader_error_names_its_location[spline-extra-vertex]"]),
    ("spline-reader-reads-every-string", "src/gensplines/serialize.py",
     "            elif (element := read.get(x)) is None:\n", "            elif True:\n",
     ["tests/test_serialize.py::test_a_spline_reads_each_distinct_string_once"]),
    ("element-failure-names-the-next-edge", "src/gensplines/serialize.py",
     'raise SchemaError(f"graph.edges[{k}].ideal[{len(elements)}]: {exc}")',
     'raise SchemaError(f"graph.edges[{k + 1}].ideal[{len(elements)}]: {exc}")',
     ["tests/test_serialize.py::test_each_loader_error_names_its_location"]),
]


def copy_of_the_repository(into: Path) -> None:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, capture_output=True, check=True).stdout
    for name in filter(None, listed.decode().split("\0")):
        source = ROOT / name
        if source.is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(source, into / name)


def failing(copy: Path, ids: list) -> tuple:
    """pytest's exit code on ids, run in copy, and its failed and errored
    ids; a run past TIMEOUT seconds is stopped and raises TimeoutExpired."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    run = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
                          *ids], cwd=copy, env=env, capture_output=True, text=True,
                         timeout=TIMEOUT)
    return run.returncode, [line.split(" ", 1)[1].split(" - ", 1)[0]
                            for line in run.stdout.splitlines()
                            if line.startswith(("FAILED ", "ERROR "))]


def covers(test_id: str, failed: str) -> bool:
    return failed == test_id or failed.startswith((test_id + "::", test_id + "["))


def main(names: list) -> int:
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print("no such entries:", *sorted(unknown))
        return 2
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp)
        copy_of_the_repository(copy)
        for name, path, old, _, _ in chosen:
            count = (copy / path).read_text().count(old)
            if count != 1:
                print(f"ERROR {name}: its old text occurs {count} times in {path}")
                return 2
        ids = sorted({t for m in chosen for t in m[4]})
        code, failed = failing(copy, ids)
        if code:
            print("the named tests fail on the unpatched copy:", *failed, sep="\n  ")
            return 2
        survived = 0
        for name, path, old, new, tests in chosen:
            text = (copy / path).read_text()
            (copy / path).write_text(text.replace(old, new))
            start = perf_counter()
            try:
                _, failed = failing(copy, tests)
            except subprocess.TimeoutExpired:
                print(f"ERROR {name}: its tests ran past {TIMEOUT} s")
                return 2
            finally:
                (copy / path).write_text(text)
            passed = [t for t in tests if not any(covers(t, f) for f in failed)]
            survived += bool(passed)
            print(f"{'SURVIVED' if passed else 'killed  '} {name} ({perf_counter() - start:.1f} s)",
                  *passed, sep="\n  passed: " if passed else "")
    print(f"{len(chosen) - survived} of {len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
