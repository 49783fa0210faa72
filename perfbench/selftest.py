"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload at a tiny size, measured and traced, and checks that
the result line carries exactly the metrics ``BENCHMARK.json`` names,
with their units, that no operation fails, and that two traced runs of
one seed give identical counts.  Then it feeds each workload's checker
a wrong expectation and a raising operation, which must be counted as
failures, and runs the benchmark in a directory without the library,
where it must fail without printing a result.
"""
from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
TIME_UNITS = {"s", "ms"}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=600)


def result_lines(done, what):
    if done.returncode != 0:
        raise AssertionError(f"{what}: exit {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics(result, spec, what):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, what
    assert result["correct"] is True and result["failed"] == 0, what
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1, what
    expected = {m["name"]: m["unit"] for m in spec}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == expected, f"{what}: metrics {got} != {expected}"
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name}"


def measured(workload):
    summary, result = result_lines(
        bench("--workload", workload, "--seed", "3", "--seconds", "1",
              "--trace", "0", "--tiny"), workload)
    check_metrics(result, SPEC["end_to_end"], workload)
    assert summary["fail_ratio"] == 0, workload
    for name, m in result["metrics"].items():
        assert m["value"] > 0, f"{workload}: {name} is not positive"
    for key in ("python", "platform", "nproc", "git_sha", "src_sha256", "seed",
                "batch_ops", "run_seconds"):
        assert key in summary["provenance"], f"{workload}: provenance lacks {key}"


def traced(workload):
    runs = []
    for _ in range(2):
        _, result = result_lines(
            bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", "1", "--tiny"), f"{workload} traced")
        check_metrics(result, SPEC["per_layer"], f"{workload} traced")
        runs.append({name: m["value"] for name, m in result["metrics"].items()
                     if m["unit"] not in TIME_UNITS
                     and name != "trace.overhead_ratio"})
    assert runs[0] == runs[1], f"{workload}: traced counts differ {runs}"
    assert sum(runs[0].values()) > 0, f"{workload}: no counts recorded"


def checkers_can_fail():
    sys.path.insert(0, str(HERE))
    import run

    run.import_library()
    import workloads as w
    from gensplines import rings

    rng = random.Random(5)
    qx, zz = rings.poly_rational(), rings.integers()

    def fails(op):
        with redirect_stderr(io.StringIO()):
            _, _, failures = run.run_pass([op])
        return failures == 1

    g1 = w._instance(rng, qx, 6, 11, w._qx_generators).graph
    g2 = w._instance(rng, qx, 6, 11, w._qx_generators).graph
    assert fails(w.Op("flow_up", w._flow_up_call(g1), w._flow_up_check(g2)))

    inst = w._instance(rng, zz, 8, 15, lambda rng, k: [rng.randint(2, 12)] * k)
    valid = inst.valid_spline(rng)
    bumped = w._bump(valid, inst.names[3])
    # a bumped spline claimed valid, and a valid one claimed bumped
    assert fails(w._verify_op("verify-z", inst, bumped, None, valid))
    assert fails(w._verify_op("verify-z", inst, valid, 3, valid))
    assert fails(w._decompose_op(rng, inst, bumped, None, valid))
    assert not fails(w._verify_op("verify-z", inst, bumped, 3, valid))

    m, n = 6, 4
    inst = w._instance(rng, rings.integers_mod(m), n, n + 1, lambda rng, k: [2] * k)
    right = w.zm_solutions(m, n, [(i, j, 2) for i, j in inst.edges])
    anchored = sum(1 for t in right if t[0] == 0)
    wrong = w.fingerprint(sorted(right)[1:])
    assert all(fails(op) for op in w._oracle_ops(inst.graph, wrong, anchored)
               if op.kind in ("enumerate", "matrix"))
    assert not any(fails(op) for op in
                   w._oracle_ops(inst.graph, w.fingerprint(right), anchored))

    entry = dict(w.load_golden()[0], exit=1)
    assert fails(w.Op("check", w._main_call(entry["argv"]),
                      w._unpack(w._golden_check(entry))))
    assert fails(w.Op("raises", lambda: 1 // 0, lambda result: True))


def bare_directory():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        tmp = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, tmp / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        done = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1",
                     "--trace", "0", cwd=tmp)
        assert done.returncode != 0 and not done.stdout.strip(), done


def main():
    for workload in WORKLOADS:
        measured(workload)
        traced(workload)
        print(f"ok {workload}")
    checkers_can_fail()
    print("ok checkers count failures")
    bare_directory()
    print("ok no result without the library")
    return 0


if __name__ == "__main__":
    sys.exit(main())
