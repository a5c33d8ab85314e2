"""Span tracer that instruments lienil's layers from the outside.

The tracer replaces each layer entry point listed in LAYERS by a
wrapper at every binding a caller can resolve: the defining module,
every lienil module that imported the function by name, and the class
attribute for methods.  Each call records a span (name, start, end,
parent) in memory; counters for a few layers are read from the call's
arguments and result after the span has closed.  Nothing inside the
package changes, and uninstall() restores every binding.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

# (module under lienil, attribute path) of every traced entry point.
LAYERS = (
    ("_intkernel", "exact_matmul"),
    ("_intkernel", "ScaledRref.insert"),
    ("_intkernel", "ScaledRref.residuals"),
    ("_intkernel", "ScaledRref.insert_rows"),
    ("_intkernel", "ScaledRref.to_subspace"),
    ("exactlin", "inverse"),
    ("exactlin", "kernel"),
    ("exactlin", "random_unimodular"),
    ("nilalg", "NilpotentAlgebra.__init__"),
    ("nilalg", "NilpotentAlgebra.int_tensor"),
    ("nilalg", "change_basis"),
    ("nilalg", "lower_central_series"),
    ("nilalg", "graded"),
    ("nilalg", "graded_pairing"),
    ("nilalg", "bracket"),
    ("nilalg", "right_kernel"),
    ("nilalg", "left_kernel"),
    ("chevalley", "nilradical"),
    ("chevalley", "verify_jacobi"),
    ("rootsys", "build_root_system"),
    ("fingerprint", "identify"),
    ("fingerprint", "fingerprint"),
    ("fingerprint", "bc_discriminator"),
    ("cli", "load_algebra"),
    ("cli", "save_algebra"),
    ("cli", "main"),
)

# Spans the benchmark opens around its own work.
HARNESS_SPANS = ("harness.setup", "harness.item")


def span_name(module: str, attr: str) -> str:
    """Metric-safe span name: no leading underscore, __init__ -> init."""
    return f"{module.lstrip('_')}.{attr.replace('__init__', 'init')}"


def _max_abs(a) -> int:
    return int(abs(a).max()) if a.size else 0


def _count_matmul(c: dict, args, kwargs, result) -> None:
    a, b = args[0], args[1]
    rows, inner = a.shape
    cols = b.shape[1]
    c["madds"] += rows * inner * cols
    if a.size and b.size:
        # exact_matmul(a, b, a_max, b_max, ...): bounds may come
        # positionally or by keyword, and are computed when omitted.
        a_max = args[2] if len(args) > 2 else kwargs.get("a_max")
        b_max = args[3] if len(args) > 3 else kwargs.get("b_max")
        a_max = _max_abs(a) if a_max is None else a_max
        b_max = _max_abs(b) if b_max is None else b_max
        bits = (inner * a_max * b_max).bit_length()
        c["max_bound_bits"] = max(c["max_bound_bits"], bits)


def _count_insert(c: dict, args, kwargs, result) -> None:
    c["useful"] += bool(result)


def _count_insert_rows(c: dict, args, kwargs, result) -> None:
    c["offered"] += args[1].shape[0]
    c["added"] += int(result)


def _count_jacobi(c: dict, args, kwargs, result) -> None:
    c["triples"] += result.triples_checked


COUNTERS = {
    "intkernel.exact_matmul": _count_matmul,
    "intkernel.ScaledRref.insert": _count_insert,
    "intkernel.ScaledRref.insert_rows": _count_insert_rows,
    "chevalley.verify_jacobi": _count_jacobi,
}


class Tracer:
    """Collects spans and counters while installed."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index]
        self.counters: dict[str, Counter] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        counts = self.counters.setdefault(name, Counter())
        count = COUNTERS.get(name)
        clock = time.perf_counter

        # Same bookkeeping as span(), inlined: this runs on every call of
        # a traced layer, some of them ten thousand times per pass.
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            record = [name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(idx)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            counts["calls"] += 1
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        modules = [m for key, m in sys.modules.items()
                   if m is not None and (key == "lienil" or key.startswith("lienil."))]
        for module, attr in LAYERS:
            owner = sys.modules[f"lienil.{module}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = owner.__dict__[leaf]
            wrapper = self._wrap(span_name(module, attr), original)
            if path:  # a method: the class attribute is its only binding
                self._set(owner, leaf, wrapper)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._set(m, key, wrapper)

    def _set(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        while self._restore:
            owner, key, value = self._restore.pop()
            setattr(owner, key, value)

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself around its own work."""
        idx = len(self.spans)
        record = [name, 0.0, 0.0, self._stack[-1] if self._stack else -1]
        self.spans.append(record)
        self._stack.append(idx)
        record[1] = time.perf_counter()
        try:
            yield
        finally:
            record[2] = time.perf_counter()
            self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Per-name sum of span duration minus the children's durations."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, float] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] = out.get(name, 0.0) + (end - start - inner)
        return out

    def layer_metrics(self, setup_s: float, wall_s: float) -> dict[str, tuple[float, str]]:
        """Every per-layer metric as name -> (value, unit), given the
        traced set-up and batch times measured outside the tracer."""
        selfs = self.self_times()
        out: dict[str, tuple[float, str]] = {}
        for module, attr in LAYERS:
            name = span_name(module, attr)
            out[f"{name}.self_s"] = (selfs.get(name, 0.0), "s")
            out[f"{name}.calls"] = (self.counters[name]["calls"], "count")
        mm = self.counters["intkernel.exact_matmul"]
        out["intkernel.exact_matmul.madds"] = (mm["madds"], "count")
        out["intkernel.exact_matmul.max_bound_bits"] = (mm["max_bound_bits"], "bits")
        ins = self.counters["intkernel.ScaledRref.insert"]
        out["intkernel.ScaledRref.insert.useful_ratio"] = (
            _ratio(ins["useful"], ins["calls"]), "ratio")
        rows = self.counters["intkernel.ScaledRref.insert_rows"]
        out["intkernel.ScaledRref.insert_rows.added_ratio"] = (
            _ratio(rows["added"], rows["offered"]), "ratio")
        jac = self.counters["chevalley.verify_jacobi"]
        out["chevalley.verify_jacobi.triples"] = (jac["triples"], "count")
        harness = sum(selfs.get(name, 0.0) for name in HARNESS_SPANS)
        out["harness.self_s"] = (harness, "s")
        out["trace.setup_s"] = (setup_s, "s")
        out["trace.wall_s"] = (wall_s, "s")
        out["trace.coverage"] = (_ratio(sum(selfs.values()), setup_s + wall_s), "ratio")
        return out

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent] JSON rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"], "spans": self.spans}, fh)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
