"""Span recorder for the traced run.

``Tracer`` wraps public tensorbound functions from outside the package:
every module attribute bound to a wrapped function is rebound to the
wrapper (``cli`` and ``sweep`` import names directly, so patching the
defining module alone would miss their calls). Each call records a span
(name, start, end, parent, operation); spans stay in memory until the
operation ends, when ``fold`` adds them to per-name totals and self times.
The spans of the first cycle are kept and written out when the run ends.

A span's self time is its duration minus the durations of its direct
children. ``total_s`` of a name sums only its outermost spans, so nested
calls under one name (the ``cli.render`` functions call each other) are
not counted twice.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter

# (module, attribute) pairs wrapped in the traced run; the span name is
# "<module>.<attribute>" without any "__init__" suffix.
TARGETS = (
    ("linalg", "as_operator"),
    ("linalg", "kron"),
    ("linalg", "hermitian_eig"),
    ("linalg", "spectral_norm"),
    ("linalg", "commutator"),
    ("linalg", "anticommutator"),
    ("families", "validate"),
    ("families", "random_operator"),
    ("graphs", "random_graph_min_degree_one"),
    ("graphs", "graph_constant"),
    ("graphs", "non_edges"),
    ("bounds", "TensorSumInstance.__init__"),
    ("bounds", "phi_table"),
    ("bounds", "weighted_pair_sum"),
    ("bounds", "weighted_edge_sum"),
    ("bounds", "complete_bound"),
    ("bounds", "check_domination"),
    ("bounds", "require_domination"),
    ("bounds", "exact_reference"),
    ("bounds", "build_report"),
    ("certificates", "build_certificate_report"),
    ("certificates", "counting_certificate"),
    ("instance_io", "load_instance"),
    ("instance_io", "save_instance"),
    ("demos", "build_demo"),
    ("sweep", "run_sweep"),
    ("sweep", "run_trial"),
    ("cli", "main"),
)

RENDER_SPAN = "cli.render"
RENDER_SUFFIXES = ("_to_dict", "_text", "_csv")


def _exact_reference_counts(args, kwargs, result):
    inst = args[0]
    n = inst.dim_h * inst.dim_k
    # One dense n x n complex128 term per weight: bytes computed, not measured.
    return {"mb_assembled": inst.m * n * n * 16 / 1e6}


def _build_report_counts(args, kwargs, result):
    inst = args[0]
    cap = kwargs.get("dim_cap", _default_dim_cap())
    return {
        "exact_skipped": int(result.exact_norm_squared is None),
        "above_cap": int(inst.dim_h * inst.dim_k > cap),
    }


def _default_dim_cap() -> int:
    return sys.modules["tensorbound.linalg"].DEFAULT_DIM_CAP


# Counters recorded at the same boundaries as the spans, keyed by span name.
COUNTERS = {
    "bounds.phi_table": lambda a, k, r: {"pairs": r.m * (r.m - 1) // 2},
    "bounds.check_domination": lambda a, k, r: {"non_edges": len(r.checks)},
    "bounds.exact_reference": _exact_reference_counts,
    "bounds.build_report": _build_report_counts,
    "instance_io.load_instance": lambda a, k, r: {"mb_read": os.path.getsize(a[0]) / 1e6},
}


def _span_name(module: str, attr: str) -> str:
    return f"{module}.{attr.removesuffix('.__init__')}"


class Tracer:
    """Records spans for calls into tensorbound while installed."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        # One tuple per span: (name id, start, end, parent index, operation).
        self.spans: list[tuple | None] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.totals: dict[str, float] = defaultdict(float)
        self.kept: list[tuple] = []
        self.op = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, name: str, fn):
        name_id = self._name_id(name)
        counter = COUNTERS.get(name)
        spans, stack, counters = self.spans, self._stack, self.counters

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name_id, start, end, parent, self.op)
            if counter is not None:
                for key, value in counter(args, kwargs, result).items():
                    counters[f"{name}.{key}"] += value
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Rebind every tensorbound binding of each target to its wrapper."""
        modules = {
            name.removeprefix("tensorbound."): mod
            for name, mod in sys.modules.items()
            if name == "tensorbound" or name.startswith("tensorbound.")
        }
        wrappers = {}
        for module, attr in TARGETS:
            mod = modules.get(module)
            if mod is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mod, cls_name, None)
                if cls is not None and meth in vars(cls):
                    self._patch(cls, meth, self.wrap(_span_name(module, attr), vars(cls)[meth]))
                continue
            fn = getattr(mod, attr, None)
            if fn is not None:
                wrappers[id(fn)] = (fn, self.wrap(_span_name(module, attr), fn))
        cli = modules.get("cli")
        if cli is not None:
            for attr, fn in vars(cli).items():
                if callable(fn) and (attr.endswith(RENDER_SUFFIXES) or attr == "_emit_json"):
                    wrappers[id(fn)] = (fn, self.wrap(RENDER_SPAN, fn))
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patch(mod, attr, hit[1])

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def fold(self, keep: bool) -> None:
        """Add the spans recorded since the last fold to the totals and drop
        them, keeping a copy for ``write`` when ``keep`` is set. Call between
        operations, when no span is open."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for name_id, start, end, parent, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals = self.totals
        for idx, (name_id, start, end, parent, _) in enumerate(spans):
            name = self.names[name_id]
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_s"] += end - start - child_time[idx]
            if not self._has_ancestor(parent, name_id):
                totals[f"{name}.total_s"] += end - start
        if keep:
            offset = len(self.kept)
            self.kept.extend(
                (name_id, start, end, parent + offset if parent >= 0 else -1, op)
                for name_id, start, end, parent, op in spans
            )
        spans.clear()

    def stats(self) -> dict[str, float]:
        """calls, total_s and self_s per span name over all folded spans,
        plus the counters."""
        return {**self.totals, **self.counters}

    def _has_ancestor(self, idx: int, name_id: int) -> bool:
        while idx >= 0:
            span = self.spans[idx]
            if span[0] == name_id:
                return True
            idx = span[3]
        return False

    def write(self, path) -> None:
        """Kept spans as tab-separated lines: index, parent, op, name, start, end."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\tparent\top\tname\tstart_s\tend_s\n")
            for idx, (name_id, start, end, parent, op) in enumerate(self.kept):
                fh.write(f"{idx}\t{parent}\t{op}\t{self.names[name_id]}\t{start:.9f}\t{end:.9f}\n")


# Per-layer metrics reported by the traced run, per workload cycle, with
# the workloads on which each must be non-zero.
ALL = ("sweep-small", "exact-dense", "wide-files")
LAYER_METRICS = (
    ("linalg.as_operator.calls", "count/cycle", ("sweep-small",)),
    ("families.validate.total_s", "s/cycle", ("sweep-small",)),
    ("bounds.TensorSumInstance.self_s", "s/cycle", ("sweep-small",)),
    ("families.random_operator.total_s", "s/cycle", ("sweep-small",)),
    ("sweep.run_trial.self_s", "s/cycle", ("sweep-small",)),
    ("bounds.phi_table.self_s", "s/cycle", ("sweep-small", "wide-files")),
    ("bounds.phi_table.pairs", "count/cycle", ("sweep-small", "wide-files")),
    ("bounds.check_domination.self_s", "s/cycle", ("sweep-small", "wide-files")),
    ("bounds.check_domination.non_edges", "count/cycle", ("sweep-small", "wide-files")),
    ("bounds.exact_reference.self_s", "s/cycle", ("exact-dense",)),
    ("bounds.exact_reference.mb_assembled", "MB/cycle", ("exact-dense",)),
    ("linalg.kron.total_s", "s/cycle", ("exact-dense",)),
    ("linalg.hermitian_eig.total_s", "s/cycle", ("exact-dense",)),
    ("linalg.spectral_norm.total_s", "s/cycle", ("exact-dense",)),
    ("instance_io.load_instance.self_s", "s/cycle", ("wide-files",)),
    ("instance_io.load_instance.mb_read", "MB/cycle", ("wide-files",)),
    ("instance_io.save_instance.total_s", "s/cycle", ("exact-dense",)),
    ("bounds.build_report.self_s", "s/cycle", ALL),
    ("bounds.build_report.exact_skipped", "count/cycle", ("wide-files",)),
    ("certificates.build_certificate_report.self_s", "s/cycle", ALL),
    ("graphs.random_graph_min_degree_one.total_s", "s/cycle", ("sweep-small",)),
    ("cli.render.total_s", "s/cycle", ALL),
    ("cli.main.self_s", "s/cycle", ALL),
)
OVERHEAD_METRIC = "trace.overhead_ratio"


def layer_metrics(stats: dict[str, float], cycles: int) -> dict[str, float]:
    """The named per-layer metrics, per cycle."""
    return {name: stats.get(name, 0.0) / cycles for name, _, _ in LAYER_METRICS}


def zero_layers(metrics: dict[str, float], workload: str) -> list[str]:
    """Metrics that must be non-zero on this workload but read zero."""
    return [name for name, _, where in LAYER_METRICS if workload in where and not metrics[name]]
