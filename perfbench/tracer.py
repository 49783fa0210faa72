"""Outside-in tracer for the traced benchmark run.

The tracer wraps the public functions of every ``gensplines`` module, in
every module namespace that binds them, plus the ring, ideal, graph and
spline methods that carry the per-layer counts.  The library source is
not touched: ``install`` patches module and class attributes, and
``uninstall`` puts the originals back.

A wrapped call is a span.  Spans nest on a stack, and a layer's self
time is the sum of its spans' durations minus the time of their child
spans.  A layer is the module that defines the wrapped function.
Spans are recorded only while ``active`` is set, so the benchmark's own
correctness checks, which call into the library too, are not counted.

Counts are exact and include nested calls: ``a - b`` counts one
``__sub__`` plus the ``__neg__`` and ``__add__`` it makes.
``analysis.tuples_tested`` is m^n per brute-force call (enumerate_splines,
matrix_solution_set, reduced_solution_set), the base of
``analysis.useful_ratio`` = solutions_found / tuples_tested.
``serialize.bytes_out`` is the compact JSON size of each outermost
``*_to_json`` result.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import Counter, defaultdict
from fractions import Fraction
from time import perf_counter

LAYERS = ("rings", "graphs", "splines", "gkm", "construct", "analysis",
          "serialize", "cli")

# (module, class, method, count key); the count key may be None.
METHODS = (
    ("rings", "RingElement", "__add__", "rings.addsub_calls"),
    ("rings", "RingElement", "__sub__", "rings.addsub_calls"),
    ("rings", "RingElement", "__neg__", "rings.addsub_calls"),
    ("rings", "RingElement", "__mul__", "rings.mul_calls"),
    ("rings", "RingElement", "divides", "rings.div_calls"),
    ("rings", "RingElement", "exact_div", "rings.div_calls"),
    ("rings", "Ideal", "__init__", "rings.ideals_built"),
    ("rings", "Ideal", "contains", "rings.contains_calls"),
    ("graphs", "EdgeLabeledGraph", "__init__", "graphs.graphs_built"),
    ("graphs", "EdgeLabeledGraph", "components", "graphs.bfs_calls"),
    ("splines", "Spline", "__init__", "splines.splines_built"),
)

# Count keys of wrapped module-level functions, by "module.function".
FUNCTION_COUNTS = {
    "rings.gcd": "rings.gcd_calls",
    "rings.lcm": "rings.gcd_calls",
    "rings.ext_gcd": "rings.gcd_calls",
    "graphs.spanning_tree": "graphs.bfs_calls",
    "graphs.tree_from_edges": "graphs.bfs_calls",
    "graphs.tree_path": "graphs.tree_path_calls",
    "splines.verify": "splines.verify_calls",
    "construct.extend_by_zero_with_factor": "construct.extend_calls",
    "analysis.enumerate_splines": "analysis.enumerations",
    "analysis.matrix_solution_set": "analysis.enumerations",
    "analysis.reduced_solution_set": "analysis.enumerations",
}

# Results whose degree and coefficient size feed rings.max_degree and
# rings.max_coeff_bits: every arithmetic result the ring layer returns.
SIZE_OBSERVED = {"__add__", "__sub__", "__neg__", "__mul__", "exact_div",
                 "gcd", "lcm", "ext_gcd"}

COUNT_NAMES = (
    "rings.mul_calls", "rings.addsub_calls", "rings.div_calls",
    "rings.gcd_calls", "rings.contains_calls", "rings.ideals_built",
    "graphs.graphs_built", "graphs.bfs_calls", "graphs.tree_path_calls",
    "splines.verify_calls", "splines.edges_checked", "splines.splines_built",
    "gkm.cycle_rows",
    "construct.members_built", "construct.extend_calls",
    "analysis.enumerations", "analysis.tuples_tested",
    "analysis.solutions_found",
    "serialize.calls", "serialize.bytes_out",
)

MARK = "_perfbench_traced"


def _modules():
    package = importlib.import_module("gensplines")
    return package, {name: importlib.import_module(f"gensplines.{name}")
                     for name in LAYERS}


def installed() -> bool:
    """True if any gensplines namespace or traced class holds a wrapper."""
    package, modules = _modules()
    for module in (package, *modules.values()):
        if any(getattr(obj, MARK, False) for obj in vars(module).values()):
            return True
    for module, cls, method, _ in METHODS:
        if getattr(vars(getattr(modules[module], cls))[method], MARK, False):
            return True
    return False


class Tracer:
    """Span stack, per-layer self time and exact per-layer counts."""

    def __init__(self):
        self.active = False
        self._stack = []
        self._patches = []
        self.self_s = defaultdict(float)
        self.counts = Counter({name: 0 for name in COUNT_NAMES})
        self.max_degree = 0
        self.max_coeff_bits = 0
        self.command_s = []
        self._element_to_json = None
        self._serialize_depth = 0

    # -- spans --

    def root(self, fn):
        """Run fn as a root span of the harness layer, recording enabled."""
        self.active = True
        frame = [0.0]
        self._stack.append(frame)
        t0 = perf_counter()
        try:
            return fn()
        finally:
            dt = perf_counter() - t0
            self._stack.pop()
            self.self_s["bench"] += dt - frame[0]
            self.active = False

    def _wrap(self, fn, layer, key, observe):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack
            frame = [0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                tracer.self_s[layer] += dt - frame[0]
                stack[-1][0] += dt
                if key is not None:
                    tracer.counts[key] += 1
            if observe is not None:
                # Observation time is charged to no layer.
                t1 = perf_counter()
                observe(args, result)
                stack[-1][0] += perf_counter() - t1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    # -- observers: exact counts taken from arguments and results --

    def _observe_size(self, args, result):
        values = result if isinstance(result, tuple) else (result,)
        for x in values:
            payload = getattr(x, "payload", None)
            if isinstance(payload, int):
                bits = abs(payload).bit_length()
            elif isinstance(payload, tuple) and all(
                    type(c) is Fraction for c in payload):
                if len(payload) - 1 > self.max_degree:
                    self.max_degree = len(payload) - 1
                bits = max((max(abs(c.numerator).bit_length(),
                                c.denominator.bit_length()) for c in payload),
                           default=0)
            else:
                bits = self._json_size(x)
            if bits > self.max_coeff_bits:
                self.max_coeff_bits = bits

    def _json_size(self, x):
        """Degree and bits from the public JSON encoding of an element."""
        text = self._element_to_json(x)
        if isinstance(text, list):
            self.max_degree = max(self.max_degree, len(text) - 1)
            coeffs = [Fraction(c) for c in text]
            return max((max(abs(c.numerator).bit_length(),
                            c.denominator.bit_length()) for c in coeffs),
                       default=0)
        return abs(int(text)).bit_length()

    def _observe_verify(self, args, result):
        self.counts["splines.edges_checked"] += len(args[0].edges)

    def _observe_reduce(self, args, result):
        self.counts["gkm.cycle_rows"] += len(result.cycle_rows)

    def _observe_family(self, args, result):
        self.counts["construct.members_built"] += len(result.members)

    def _observe_enumeration(self, args, result):
        graph = getattr(args[0], "graph", args[0])
        self.counts["analysis.tuples_tested"] += (
            graph.ring.modulus ** len(graph.vertices))
        self.counts["analysis.solutions_found"] += len(result)

    def _wrap_serialize(self, fn, name):
        """serialize spans; outermost *_to_json results count their bytes."""
        inner = self._wrap(fn, "serialize", "serialize.calls", None)
        if not name.endswith("_to_json"):
            return inner
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            tracer._serialize_depth += 1
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer._serialize_depth -= 1
            if tracer._serialize_depth == 0:
                t1 = perf_counter()
                tracer.counts["serialize.bytes_out"] += len(json.dumps(result))
                tracer._stack[-1][0] += perf_counter() - t1
            return result

        setattr(wrapper, MARK, True)
        return wrapper

    def _wrap_command(self, fn):
        """cli.main: record each command's span duration."""
        inner = self._wrap(fn, "cli", None, None)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                if tracer.active:
                    tracer.command_s.append(perf_counter() - t0)

        setattr(wrapper, MARK, True)
        return wrapper

    # -- installation --

    def _wrapper_for(self, fn, layer, name):
        qual = f"{layer}.{name}"
        if layer == "serialize":
            return self._wrap_serialize(fn, name)
        if qual == "cli.main":
            return self._wrap_command(fn)
        observe = None
        if name in SIZE_OBSERVED:
            observe = self._observe_size
        elif qual == "splines.verify":
            observe = self._observe_verify
        elif qual in ("gkm.reduce_via_tree", "gkm.path_reduced_form"):
            observe = self._observe_reduce
        elif layer == "construct" and name.endswith("_family"):
            observe = self._observe_family
        elif FUNCTION_COUNTS.get(qual) == "analysis.enumerations":
            observe = self._observe_enumeration
        return self._wrap(fn, layer, FUNCTION_COUNTS.get(qual), observe)

    def install(self):
        if self._patches:
            raise RuntimeError("tracer is already installed")
        package, modules = _modules()
        self._element_to_json = modules["serialize"].element_to_json
        wrappers = {}
        for module in (package, *modules.values()):
            for name, obj in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or not obj.__module__.startswith("gensplines.")):
                    continue
                if obj not in wrappers:
                    layer = obj.__module__.rsplit(".", 1)[1]
                    wrappers[obj] = self._wrapper_for(obj, layer, obj.__name__)
                self._patches.append((module, name, obj))
                setattr(module, name, wrappers[obj])
        for module, cls_name, method, key in METHODS:
            cls = getattr(modules[module], cls_name)
            original = vars(cls)[method]
            observe = self._observe_size if method in SIZE_OBSERVED else None
            self._patches.append((cls, method, original))
            setattr(cls, method, self._wrap(original, module, key, observe))

    def uninstall(self):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()

    # -- results --

    def metrics(self) -> dict:
        """Per-layer self time and counts, as metric name -> value."""
        out = {f"{layer}.self_s": self.self_s[layer] for layer in LAYERS
               if layer != "cli"}
        out.update(self.counts)
        out["rings.max_degree"] = self.max_degree
        out["rings.max_coeff_bits"] = self.max_coeff_bits
        tested = self.counts["analysis.tuples_tested"]
        out["analysis.useful_ratio"] = (
            self.counts["analysis.solutions_found"] / tested if tested else 0.0)
        return out
