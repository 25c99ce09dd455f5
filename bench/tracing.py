"""Span tracer for the benchmark's traced run.

The tracer wraps the public functions of each mmsonline module from the
outside; the library itself is not changed.  Callers import by name (for
example ``value`` is bound in six modules and ``preprocess_low_c`` in two),
so every binding of a function in every ``mmsonline`` module is replaced,
and restored when the tracer is uninstalled.

Each call becomes a span (name, start, end, parent span, op id) kept in
memory.  Self time is the span's duration minus the time its child spans
cover, accumulated while the run goes.  Counters are read from the values
the wrapped functions return.
"""

from __future__ import annotations

import itertools
import json
import operator
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

# Counters derived from a wrapped call's result, f(result, args, kwargs) ->
# {name: amount}.  Names are "<layer>.<function>.<counter>", as in
# BENCHMARK.json; every counter is listed here so that it reads 0, not
# missing, on a workload that never makes the call.
COUNTERS = (
    "stochastic.preprocess_low_c.bags",
    "stochastic.preprocess_low_c.singletons",
    "stochastic.preprocess_low_c.unsaturated_types",
    "stochastic.run_low_c.served",
    "stochastic.run_low_c.arrivals",
    "unknown.random_split.draws",
    "solver.mms_exact.nodes",
    "jsonio.canonical_json.bytes",
    "adversarial.step_adversarial.pool_exhausted",
)


def _low_c_counters(state, _args, _kwargs):
    return {
        "stochastic.preprocess_low_c.bags": state.bag_count,
        "stochastic.preprocess_low_c.singletons": sum(state.singleton_counts),
        "stochastic.preprocess_low_c.unsaturated_types": len(state.unsaturated),
    }


def _served_counters(out, _args, _kwargs):
    return {
        "stochastic.run_low_c.served": sum(1 for b in out if b is not None),
        "stochastic.run_low_c.arrivals": len(out),
    }


def _split_counters(baskets, _args, _kwargs):
    return {"unknown.random_split.draws": len(baskets[0]) + len(baskets[1])}


def _nodes_counter(result, _args, _kwargs):
    return {"solver.mms_exact.nodes": result.nodes}


def _bytes_counter(text, _args, _kwargs):
    return {"jsonio.canonical_json.bytes": len(text)}  # json.dumps output is ASCII


# (module, attribute path, counter function or None).  The span name is
# "<module>.<attribute path>", with "__init__" shown as "init".
TRACED = (
    ("generators", "gen_normalized_random", None),
    ("generators", "sample_arrivals", None),
    ("generators", "all_sequences", None),
    ("core", "NormalizedInstance.__init__", None),
    ("core", "normalize", None),
    ("core", "value", None),
    ("solver", "mms_exact", _nodes_counter),
    ("adversarial", "TentativeState.create", None),
    ("adversarial", "step_adversarial", None),
    ("adversarial", "run_adversarial", None),
    ("stochastic", "preprocess_low_c", _low_c_counters),
    ("stochastic", "universal_items", None),
    ("stochastic", "known_d_engine", None),
    ("stochastic", "run_known_d", None),
    ("stochastic", "run_low_c", _served_counters),
    ("unknown", "run_unknown_d", None),
    ("unknown", "random_split", _split_counters),
    ("unknown", "learn_distribution", None),
    ("unknown", "basket_value_ok", None),
    ("harness", "run_trial", None),
    ("harness", "monte_carlo", None),
    ("jsonio", "normalized_from_obj", None),
    ("jsonio", "canonical_json", _bytes_counter),
    ("exactpow", "pow_sqrt_sum_ge", None),
    ("exactpow", "floor_plus_pow_sqrt", None),
    ("exactpow", "ceil_pow", None),
    ("rng", "substream", None),
    ("rng", "bernoulli", None),
    ("rng", "categorical", None),
)

# Exceptions counted where they are raised: span -> (class name, counter).
COUNTED_ERRORS = {
    "adversarial.step_adversarial": ("PoolExhausted", "adversarial.step_adversarial.pool_exhausted"),
}


class Tracer:
    """In-memory spans plus per-name call counts, self times and counters."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counters: dict[str, int] = dict.fromkeys(COUNTERS, 0)
        self.op = -1
        self._stack: list[list] = []  # [span id, time covered by children]
        self._sequence_counters: list[itertools.count] = []
        self._bindings: list[tuple[object, str, object, object]] | None = None

    # -- spans -----------------------------------------------------------

    def wrap(self, name: str, fn, counter=None):
        name_id = len(self.names)
        self.names.append(name)
        self.calls[name] = 0
        self.self_s[name] = 0.0
        stack = self._stack
        span_name, span_start, span_end = self.span_name, self.span_start, self.span_end
        span_parent, span_op = self.span_parent, self.span_op
        calls, self_s, counters = self.calls, self.self_s, self.counters
        error, error_counter = COUNTED_ERRORS.get(name, (None, None))

        def traced(*args, **kwargs):
            span = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1][0] if stack else -1)
            span_op.append(self.op)
            span_end.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = perf_counter()
            span_start.append(start)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if type(exc).__name__ == error:
                    counters[error_counter] += 1
                raise
            finally:
                end = perf_counter()
                stack.pop()
                span_end[span] = end
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if counter is not None:
                for key, amount in counter(result, args, kwargs).items():
                    counters[key] += amount
            return result

        return traced

    def _count_sequences(self, fn):
        # Counts the tuples a caller actually pulls: zip() draws from the
        # counter only after the product yielded an item.
        def counted(*args, **kwargs):
            pulled = itertools.count()
            self._sequence_counters.append(pulled)
            return map(operator.itemgetter(0), zip(fn(*args, **kwargs), pulled))
        return counted

    def sequence_tuples(self) -> int:
        """Tuples pulled so far; reading advances the counters, so read once."""
        return sum(next(c) for c in self._sequence_counters)

    # -- installation ----------------------------------------------------

    def _plan(self) -> list[tuple[object, str, object, object]]:
        """(owner, key, original, replacement) for every binding to swap.

        Built once, on first install, so that installing again reuses the
        same wrappers and their totals."""
        plan = []
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "mmsonline" or name.startswith("mmsonline."))]
        for module_name, path, counter in TRACED:
            module = sys.modules[f"mmsonline.{module_name}"]
            name = f"{module_name}.{path}".replace("__init__", "init")
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[attr]
                if isinstance(raw, classmethod):
                    plan.append((cls, attr, raw, classmethod(self.wrap(name, raw.__func__, counter))))
                else:
                    plan.append((cls, attr, raw, self.wrap(name, raw, counter)))
                continue
            original = getattr(module, path)
            replacement = self.wrap(name, original, counter)
            if path == "all_sequences":
                replacement = self._count_sequences(replacement)
            for mod in modules:
                for attr, bound in vars(mod).items():
                    if bound is original:
                        plan.append((mod, attr, original, replacement))
                    elif isinstance(bound, dict) and original in bound.values():
                        # registries such as generators.GENERATORS
                        plan.extend((bound, key, original, replacement)
                                    for key, entry in bound.items() if entry is original)
        return plan

    def _swap(self, new_index: int) -> None:
        for entry in self._bindings:
            owner, key, value = entry[0], entry[1], entry[new_index]
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)

    def install(self) -> None:
        if self._bindings is None:
            self._bindings = self._plan()
        self._swap(3)

    def uninstall(self) -> None:
        self._swap(2)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------

    def layer_metrics(self) -> dict[str, float]:
        """Flat "<span>.calls", "<span>.self_s" and counter values (once, at the end)."""
        out: dict[str, float] = {}
        for name in self.names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        out.update(self.counters)
        out["generators.all_sequences.tuples"] = self.sequence_tuples()
        served = self.counters["stochastic.run_low_c.served"]
        arrivals = self.counters["stochastic.run_low_c.arrivals"]
        out["stochastic.run_low_c.served_ratio"] = served / arrivals if arrivals else 0.0
        return out

    def total_self_s(self) -> float:
        return sum(self.self_s.values())

    def write(self, path: Path) -> None:
        """One JSON header line, then the five span columns as raw arrays."""
        columns = (("name", self.span_name), ("start", self.span_start),
                   ("end", self.span_end), ("parent", self.span_parent),
                   ("op", self.span_op))
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "columns": [[col, arr.typecode, arr.itemsize] for col, arr in columns],
            "byteorder": sys.byteorder,
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, arr in columns:
                arr.tofile(fh)
