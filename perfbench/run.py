"""gensplines benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
Workloads: construct-qx, verify-mixed, oracle-zm, cli (see
``BENCHMARK.json`` for why each was chosen).

Every workload is a closed loop in one process: one operation in flight,
no threads.  The seed fixes a batch of operations; the measured run
repeats the batch for about ``--seconds`` (at least once), checks every
result outside the timed call, and reports:

    setup_s      median over separate set-up processes of the time from
                 process start to the first timed operation (import,
                 seeded inputs, one warm-up operation)
    wall_s       median over passes of the batch's summed operation time
    op_p50_ms    median operation latency over every pass
    op_p90_ms    90th-percentile operation latency (batch >= 100 ops)
    peak_rss_mb  peak resident memory of this process over set-up and the
                 first pass; for ``cli``, of its child processes
    ok_ratio     operations that passed their check / operations
                 attempted; ``fail_ratio`` = 1 - ok_ratio

The times are scaled to a reference host speed (see ``HostClock``); the
line before the result also gives them unscaled.

With ``--trace 1`` the run instead times two untraced passes and one
traced pass of the batch (``cli`` runs ``cli.main`` in this process for both)
and reports the per-layer metrics of ``tracer.py``.  The tracer is never
installed in a measured run.

The last line of standard output is the result object; the line before
it holds the provenance and every metric, ``fail_ratio`` included.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from bisect import bisect_left
from fractions import Fraction
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5
START_SAMPLES = 7
# Mean times of the two calibration kernels on the reference host
# (2-core x86_64 VM, CPython 3.11.7); see HostClock.
REFERENCE_SLICE_S = 0.0025
REFERENCE_START_S = 0.06

END_TO_END_UNITS = {
    "setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
    "peak_rss_mb": "MB", "ok_ratio": "1",
}


def per_layer_unit(name):
    if name.endswith("self_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith("_ratio"):
        return "1"
    return {"rings.max_degree": "degree", "rings.max_coeff_bits": "bits",
            "serialize.bytes_out": "bytes"}.get(name, "count")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["construct-qx", "verify-mixed", "oracle-zm", "cli"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="a few small operations, for the self-test")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def import_library():
    """Import gensplines from this checkout's src/, or exit with code 2."""
    if not (SRC / "gensplines" / "__init__.py").is_file():
        sys.stderr.write(f"perfbench: no gensplines source under {SRC}\n")
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gensplines

    if Path(gensplines.__file__).resolve().parent != SRC / "gensplines":
        sys.stderr.write(f"perfbench: imported {gensplines.__file__}, not {SRC}\n")
        sys.exit(2)


def set_up(args, workdir):
    """Seeded batch plus one warm-up operation; everything before timing."""
    import workloads

    build = workloads.WORKLOADS[args.workload]
    if args.workload == "cli":
        batch = build(args.seed, workdir, tiny=args.tiny)
    else:
        batch = build(args.seed, tiny=args.tiny)
    try:
        (batch.inproc if args.trace else batch.ops)[batch.first].call()
    except Exception:  # the measured passes count and report the failure
        pass
    return batch


def work_dir():
    base = ROOT / ".perfbench"
    base.mkdir(exist_ok=True)
    return tempfile.TemporaryDirectory(dir=base)


def probe(args):
    """A set-up process: set up, report readiness, exit."""
    import_library()
    with work_dir() as workdir:
        set_up(args, workdir)
        sys.stdout.write("ready\n")
        sys.stdout.flush()


def setup_seconds(args):
    """Median time from process start to readiness over fresh processes."""
    command = [sys.executable, str(Path(__file__).resolve()), "--probe",
               "--workload", args.workload, "--seed", str(args.seed)]
    command += ["--tiny"] if args.tiny else []
    clock = HostClock(bare_start, 0.1, REFERENCE_START_S)
    starts, samples = [], []
    for _ in range(SETUP_PROCESSES):
        t0 = perf_counter()
        starts.append(t0)
        with subprocess.Popen(command, cwd=ROOT, stdout=subprocess.PIPE,
                              stdin=subprocess.DEVNULL) as proc:
            line = proc.stdout.readline()
            samples.append(perf_counter() - t0)
            clock.after(samples[-1])
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != b"ready" or code != 0:
            raise RuntimeError(f"set-up process failed with exit code {code}")
    return statistics.median(clock.scale(starts, samples))


def calibration_slice():
    """Fixed pure-Python work: Fraction, int, tuple and dict operations."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 + 1, i % 11 + 1) * Fraction(3, i % 5 + 1)
        table[(i, i % 13)] = acc.numerator % 97
    return acc


def bare_start():
    """Start and stop a bare interpreter."""
    subprocess.run([sys.executable, "-c", "pass"], cwd=ROOT, stdin=subprocess.DEVNULL,
                   check=True, timeout=60)


class HostClock:
    """Host speed, sampled through the run by a fixed calibration kernel.

    The host's speed drifts by up to 2x within minutes, and the drift
    hits the kernel and the workload alike.  After every ``period_s`` of
    measured time the kernel runs once, so its samples cover the run
    evenly.  ``scale`` multiplies each measured time by the kernel's
    reference time over the mean of the kernel samples taken nearest to
    it: the time it would have taken at the reference host speed.
    In-process work is calibrated with ``calibration_slice``; process
    start-up, which the ``cli`` operations and the set-up processes
    consist of, with ``bare_start``.
    """

    NEIGHBOURS = 16

    def __init__(self, kernel, period_s, reference_s):
        self.kernel = kernel
        self.period_s = period_s
        self.reference_s = reference_s
        self.starts = []
        self.samples = []
        self._owed = 0.0

    def after(self, busy_s):
        self._owed += busy_s
        while self._owed >= self.period_s or not self.samples:
            self._owed = max(0.0, self._owed - self.period_s)
            t0 = perf_counter()
            self.kernel()
            self.starts.append(t0)
            self.samples.append(perf_counter() - t0)

    def scale(self, starts, durations):
        k = self.NEIGHBOURS
        out = []
        for start, duration in zip(starts, durations):
            hi = min(len(self.samples), max(bisect_left(self.starts, start) + k // 2, k))
            near = self.samples[max(0, hi - k):hi]
            out.append(duration * self.reference_s / statistics.fmean(near))
        return out


def run_pass(ops, timed_call=None, clock=None):
    """Run each op once; returns (start times, latencies, failures)."""
    starts, latencies = [], []
    failures = 0
    for op in ops:
        t0 = perf_counter()
        starts.append(t0)
        try:
            result = op.call() if timed_call is None else timed_call(op.call)
            raised = None
        except Exception as exc:
            raised = exc
        latencies.append(perf_counter() - t0)
        if raised is None:
            try:
                ok = op.check(result)
            except Exception as exc:
                ok, raised = False, exc
        else:
            ok = False
        if not ok:
            failures += 1
            if failures == 1:
                sys.stderr.write(f"perfbench: {op.kind} operation failed\n")
                if raised is not None:
                    traceback.print_exception(raised, file=sys.stderr)
        if clock is not None:
            clock.after(latencies[-1])
    return starts, latencies, failures


def measured_run(args, batch):
    import tracer

    if tracer.installed():
        raise RuntimeError("the tracer is installed in a measured run")
    if args.workload == "cli":
        clock = HostClock(bare_start, 0.3, REFERENCE_START_S)
    else:
        clock = HostClock(calibration_slice, 0.012, REFERENCE_SLICE_S)
    passes, failed = [], 0
    start = perf_counter()
    # Another pass starts while at least half of it fits in the time left.
    while perf_counter() - start + (sum(passes[-1][1]) / 2 if passes else 0) <= args.seconds:
        starts, lat, fails = run_pass(batch.ops, clock=clock)
        passes.append((starts, lat))
        failed += fails
        if len(passes) == 1:
            # Later passes repeat the same work; the pass count depends on
            # host speed and must not move the peak.
            who = resource.RUSAGE_CHILDREN if args.workload == "cli" else resource.RUSAGE_SELF
            peak_kb = resource.getrusage(who).ru_maxrss
    duration = perf_counter() - start
    if tracer.installed():
        raise RuntimeError("the tracer was installed during a measured run")
    raw = timing_metrics([lat for _, lat in passes])
    metrics = timing_metrics([clock.scale(*p) for p in passes])
    attempted = sum(len(lat) for _, lat in passes)
    metrics["peak_rss_mb"] = peak_kb / 1024
    metrics["ok_ratio"] = (attempted - failed) / attempted
    extra = {"fail_ratio": failed / attempted, "passes": len(passes),
             "measured_s": duration, "unscaled": raw}
    return attempted, failed, metrics, extra


def timing_metrics(passes):
    """wall_s, op_p50_ms and op_p90_ms from per-pass latency lists."""
    latencies = [x for lat in passes for x in lat]
    return {
        "wall_s": statistics.median(sum(lat) for lat in passes),
        "op_p50_ms": 1000 * statistics.median(latencies),
        "op_p90_ms": 1000 * statistics.quantiles(latencies, n=10)[8],
    }


def start_ms(code):
    """Median milliseconds of a fresh interpreter running code."""
    import workloads

    env = workloads.cli_env()
    samples = []
    for _ in range(START_SAMPLES):
        t0 = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                       stdin=subprocess.DEVNULL, timeout=60)
        samples.append(perf_counter() - t0)
    return 1000 * statistics.median(samples)


def traced_run(args, batch):
    import tracer

    if tracer.installed():
        raise RuntimeError("the tracer is installed before the traced run")
    # The first pass grows the heap; the overhead base is the second.
    _, _, failed = run_pass(batch.inproc)
    _, plain, fails = run_pass(batch.inproc)
    failed += fails
    spans = tracer.Tracer()
    spans.install()
    try:
        _, traced, fails = run_pass(batch.inproc, spans.root)
    finally:
        spans.uninstall()
    if tracer.installed():
        raise RuntimeError("the tracer was not removed")
    failed += fails
    metrics = spans.metrics()
    bare = start_ms("pass")
    metrics["cli.python_start_ms"] = bare
    metrics["cli.import_ms"] = start_ms("import gensplines.cli") - bare
    metrics["cli.command_ms"] = (1000 * statistics.median(spans.command_s)
                                 if spans.command_s else 0.0)
    metrics["trace.overhead_ratio"] = sum(traced) / sum(plain)
    attempted = 3 * len(batch.inproc)
    extra = {"fail_ratio": failed / attempted,
             "untraced_wall_s": sum(plain), "traced_wall_s": sum(traced)}
    return attempted, failed, metrics, extra


def provenance(args, batch, started):
    sources = sorted((SRC / "gensplines").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                             capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        sha = ""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "git_sha": sha or None,
        "src_sha256": digest.hexdigest(),
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "batch_ops": len(batch.ops),
        "run_seconds": args.seconds,
        "elapsed_s": perf_counter() - started,
        "loop": "closed, one operation in flight, no threads",
    }


def main(argv=None):
    started = perf_counter()
    args = parse_args(argv)
    if args.probe:
        probe(args)
        return 0
    import_library()
    with work_dir() as workdir:
        batch = set_up(args, workdir)
        run = traced_run if args.trace else measured_run
        attempted, failed, metrics, extra = run(args, batch)
        if not args.trace:
            metrics["setup_s"] = setup_seconds(args)
    units = {name: (END_TO_END_UNITS[name] if not args.trace else per_layer_unit(name))
             for name in metrics}
    summary = {"provenance": provenance(args, batch, started), **extra,
               "metrics": {name: [metrics[name], units[name]] for name in sorted(metrics)}}
    print(json.dumps(summary))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
