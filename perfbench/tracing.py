"""Span recorder for the traced run.

The recorder replaces module attributes of hermlab (``torsion_engine.analyze``,
``classifiers.pluriclosed_residual``, ...) with timing wrappers.  hermlab's
internal callers look these names up at call time (``te.analyze``,
``lh.validate``, a module-level ``gradient(...)``), so every call on the
report and descent paths passes through a wrapper.  The names re-exported by
``hermlab/__init__`` are bound at import and are not on those paths.

A span is ``(id, name, start, end, parent_id, op)``; spans stay in memory
until the run writes them out.  A span's self time is its duration minus the
durations of its direct children, which cover disjoint parts of it because
the calls are synchronous.
"""

from __future__ import annotations

import importlib
import statistics
from collections import Counter, defaultdict
from time import perf_counter

# module -> functions wrapped in the traced run.  A name the module no longer
# has stops the traced run (MissingTarget): a change that removes or renames
# one of these functions edits this table in a benchmark change of its own.
TARGETS = {
    "cli": ("parse_input", "build_report", "emit"),
    "lie_hermitian": ("validate", "exterior_d", "unitary_reduction", "frame_change", "complexify"),
    "tensor_algebra": ("cholesky",),
    "torsion_engine": ("analyze", "covariant_derivative_T"),
    "functionals": ("residual_report", "gauduchon_critical_residual",
                    "torsion_critical_residual", "torsion_functional"),
    "classifiers": ("classify", "pluriclosed_residual", "stp_check", "lck_check",
                    "nilpotent_J_check"),
    "optimizer": ("minimize", "gradient"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in TARGETS.items() for fn in fns)


class MissingTarget(Exception):
    """A function named in TARGETS is not in its hermlab module."""


def resolve_targets():
    """[(module, function name, function)] for every entry of TARGETS."""
    out = []
    for mod_name, fns in TARGETS.items():
        module = importlib.import_module(f"hermlab.{mod_name}")
        for fn_name in fns:
            fn = getattr(module, fn_name, None)
            if fn is None:
                raise MissingTarget(f"hermlab.{mod_name} has no {fn_name}; edit tracing.TARGETS")
            out.append((module, fn_name, fn))
    return out


class SpanRecorder:
    def __init__(self):
        self.spans = []
        self.op = None
        self._stack = []
        self._next_id = 0
        self._restore = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(sid)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                self.spans.append((sid, name, t0, t1, parent, self.op))

        return traced

    def install(self):
        for module, fn_name, fn in resolve_targets():
            self._restore.append((module, fn_name, fn))
            mod_name = module.__name__.removeprefix("hermlab.")
            setattr(module, fn_name, self._wrap(f"{mod_name}.{fn_name}", fn))

    def uninstall(self):
        for module, fn_name, fn in reversed(self._restore):
            setattr(module, fn_name, fn)
        self._restore.clear()


def per_op_totals(spans):
    """{op: {name: [self_seconds, calls]}} plus the optimizer's eval split.

    Besides the wrapped functions, each op gets ``optimizer.linesearch_evals``:
    the ``torsion_functional`` evaluations made directly by ``minimize``
    (outside ``gradient``) minus the one at each start point.
    """
    names = {s[0]: s[1] for s in spans}
    if len(names) != len(spans):
        raise ValueError("span ids are not unique; parents would be ambiguous")
    child_time = defaultdict(float)
    for _, _, t0, t1, parent, _ in spans:
        if parent is not None:
            child_time[parent] += t1 - t0
    out = defaultdict(lambda: defaultdict(lambda: [0.0, 0]))
    for sid, name, t0, t1, parent, op in spans:
        slot = out[op][name]
        slot[0] += (t1 - t0) - child_time[sid]
        slot[1] += 1
        if name == "functionals.torsion_functional" and names.get(parent) == "optimizer.minimize":
            out[op]["optimizer.linesearch_evals"][1] += 1
        if name == "optimizer.minimize":
            out[op]["optimizer.linesearch_evals"][1] -= 1
    return out


def layer_metrics(spans, ops):
    """Per-layer metrics over the traced ops, as ``{name: (value, unit)}``.

    ``<layer>.<fn>.self_s`` is the median over ops of the per-op self time,
    ``<layer>.<fn>.calls`` the median (low) of the exact per-op call counts.
    Also returns the call counts summed over the ops, the bases of the ratios.
    """
    totals = per_op_totals(spans)
    metrics = {}
    for name in SPAN_NAMES:
        metrics[f"{name}.self_s"] = (statistics.median(totals[op][name][0] for op in ops), "s")
        metrics[f"{name}.calls"] = (statistics.median_low(totals[op][name][1] for op in ops),
                                    "count")
    counts = Counter()
    for op in ops:
        for name, (_, calls) in totals[op].items():
            counts[name] += calls
    reports = counts["cli.build_report"]
    for name in ("torsion_engine.analyze", "lie_hermitian.validate"):
        metrics[f"{name}_per_report"] = (counts[name] / reports if reports else 0.0, "ratio")
    metrics["optimizer.linesearch_evals"] = (
        statistics.median_low(totals[op]["optimizer.linesearch_evals"][1] for op in ops), "count")
    metrics["optimizer.objective_evals"] = (
        statistics.median_low(totals[op]["functionals.torsion_functional"][1] for op in ops),
        "count")
    return metrics, counts
