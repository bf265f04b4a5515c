"""Per-layer tracing from the benchmark's side of the API.

`Tracer.install()` wraps public functions of the grasscoh modules by
replacing every module attribute that holds one of them, re-imports
included (`dual_class_closed` in `obstruction` and `expr`,
`betti_numbers` in `lefschetz` and `cli`, ...), plus the functions of
the active kernel object.  Layer functions get one span per call; the
hot functions called 1e5-1e6 times per run get counters and aggregated
busy time instead.  A function or memo that is missing is skipped, and
the metrics that depend on it read None, so the benchmark survives its
removal.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

# (layer, module, attribute holder inside the module or None, attribute)
SPANNED = [
    ("freepoly.dual_class_closed", "grasscoh.freepoly", None, "dual_class_closed"),
    ("freepoly.dual_class_recursive", "grasscoh.freepoly", None, "dual_class_recursive"),
    ("obstruction.nontrivial_intersection_report", "grasscoh.obstruction", None,
     "nontrivial_intersection_report"),
    ("partitions.betti_numbers", "grasscoh.partitions", None, "betti_numbers"),
    ("lefschetz.fpp_classification", "grasscoh.lefschetz", None, "fpp_classification"),
    ("ring.reduce_free", "grasscoh.ring", None, "reduce_free"),
    ("ring.giambelli", "grasscoh.ring", None, "giambelli"),
    ("ring.schur_mul", "grasscoh.ring", None, "schur_mul"),
    ("expr.parse", "grasscoh.expr", None, "parse"),
    ("expr.eval_expr", "grasscoh.expr", None, "eval_expr"),
    ("expr.render", "grasscoh.expr", None, "render"),
    ("cli.run_cli", "grasscoh.cli", None, "run_cli"),
]
COUNTED = [
    ("kernel.vertical_strips", "grasscoh._backend", "kernel", "vertical_strips"),
    ("kernel.expvecs_of_weight", "grasscoh._backend", "kernel", "expvecs_of_weight"),
    ("partitions.count_in_box", "grasscoh.partitions", None, "count_in_box"),
    ("freepoly.FreeClass.mul", "grasscoh.freepoly", "FreeClass", "__mul__"),
]
# Sizes recorded next to the call counts: (layer, counter, size function).
ARG_SIZES = {"ring.reduce_free": ("in_monomials", lambda args: len(args[0].terms))}
RESULT_SIZES = {
    "ring.reduce_free": ("out_terms", lambda r: len(r.terms)),
    "freepoly.FreeClass.mul": ("out_terms", lambda r: len(r.terms)),
    "kernel.vertical_strips": ("out", len),
    "kernel.expvecs_of_weight": ("out", len),
}
DISTINCT_ARGS = {"kernel.vertical_strips"}
# lru_cache memos read through cache_info(): (metric prefix, module, attribute)
MEMOS = [
    ("ring.reduce_memo", "grasscoh.ring", "_reduce_monomial"),
    ("partitions.count_in_box", "grasscoh.partitions", "count_in_box"),
]


def _resolve(module, holder, attr):
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None, None
    if holder is not None:
        owner = getattr(owner, holder, None)
    fn = getattr(owner, attr, None) if owner is not None else None
    return owner, fn


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.spans = []        # [name, start, end, parent index, job]
        self.agg_child = {}    # span index -> seconds in counted calls directly under it
        self.counts = {}
        self.agg_busy = {}
        self.distinct = {}
        self.present = set()
        self.memos = {}
        self.job = None
        self._stack = []
        self._agg_depth = 0

    # -- installation ------------------------------------------------

    @classmethod
    def install(cls):
        tracer = cls()
        for prefix, module, attr in MEMOS:
            _, fn = _resolve(module, None, attr)
            if fn is not None and hasattr(fn, "cache_info"):
                tracer.memos[prefix] = fn
        for table, make in ((SPANNED, tracer._spanned), (COUNTED, tracer._counted)):
            for layer, module, holder, attr in table:
                owner, fn = _resolve(module, holder, attr)
                if fn is None:
                    continue
                tracer.present.add(layer)
                wrapper = make(layer, fn)
                setattr(owner, attr, wrapper)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name.startswith("grasscoh") and mod is not None:
                        for name, value in list(vars(mod).items()):
                            if value is fn:
                                setattr(mod, name, wrapper)
        return tracer

    def _bump(self, key, value=1):
        self.counts[key] = self.counts.get(key, 0) + value

    def _spanned(self, layer, fn):
        spans, stack = self.spans, self._stack
        arg_size = ARG_SIZES.get(layer)
        result_size = RESULT_SIZES.get(layer)

        def wrapper(*args, **kwargs):
            self._bump(layer + ".calls")
            if arg_size:
                self._bump(f"{layer}.{arg_size[0]}", arg_size[1](args))
            span = [layer, 0.0, 0.0, stack[-1] if stack else None, self.job]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if result_size:
                self._bump(f"{layer}.{result_size[0]}", result_size[1](result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, layer, fn):
        stack, agg_child, agg_busy = self._stack, self.agg_child, self.agg_busy
        result_size = RESULT_SIZES.get(layer)
        seen = self.distinct.setdefault(layer, set()) if layer in DISTINCT_ARGS else None
        calls_key = layer + ".calls"
        depth = 0

        def wrapper(*args):
            nonlocal depth
            self.counts[calls_key] = self.counts.get(calls_key, 0) + 1
            if seen is not None:
                seen.add(args)
            outer = self._agg_depth == 0
            self._agg_depth += 1
            depth += 1
            start = perf_counter()
            try:
                result = fn(*args)
            finally:
                elapsed = perf_counter() - start
                depth -= 1
                self._agg_depth -= 1
            if depth == 0:
                agg_busy[layer] = agg_busy.get(layer, 0.0) + elapsed
            if outer and stack:
                agg_child[stack[-1]] = agg_child.get(stack[-1], 0.0) + elapsed
            if result_size:
                self._bump(f"{layer}.{result_size[0]}", result_size[1](result))
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- readout -----------------------------------------------------

    def memo_snapshot(self):
        return {prefix: tuple(fn.cache_info()[:2]) for prefix, fn in self.memos.items()}

    def summary(self, memo_before=None):
        """Counts, busy and self seconds per layer, memo deltas and the
        distinct-argument counts of this process."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for span in spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        busy, self_s = {}, {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            dur = end - start
            self_s[name] = (self_s.get(name, 0.0) + dur - child_time[i]
                            - self.agg_child.get(i, 0.0))
            # busy time is the union over nested calls of one layer
            p = parent
            while p is not None and spans[p][0] != name:
                p = spans[p][3]
            if p is None:
                busy[name] = busy.get(name, 0.0) + dur
        busy.update(self.agg_busy)
        memo_before = memo_before or {}
        memos = {}
        for prefix, (hits, misses) in self.memo_snapshot().items():
            h0, m0 = memo_before.get(prefix, (0, 0))
            memos[prefix] = [hits - h0, misses - m0]
        return {
            "present": sorted(self.present),
            "counts": dict(self.counts),
            "busy_s": busy,
            "self_s": self_s,
            "memos": memos,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
        }
