"""Spans around the public functions of each detsing module, from outside.

`Tracer.install()` replaces every binding of each traced function, in every
loaded `detsing` module, with a wrapper that records a span (name, start,
end, parent span, op id) and the work counters of `_TARGETS`.
`Tracer.restore()` puts the original objects back.  Nothing in the program
is edited; with no tracer installed the program runs its own functions.
"""

from __future__ import annotations

import sys
import time
from collections import Counter


ORDERS = ("grevlex", "lex")


def _buchberger_name(args, kwargs):
    order = args[1] if len(args) > 1 else kwargs.get("order")
    kind = order.kind if order is not None else "grevlex"
    return f"grobner.buchberger.{kind}"


def _buchberger_counts(args, kwargs, result):
    ideal = args[0] if args else kwargs["ideal"]
    return {"gens_in": len(ideal.generators),
            "basis_out": len(result.polynomials)}


def _minors_counts(args, kwargs, result):
    return {"out_polys": len(result),
            "out_terms": sum(len(p.terms) for p in result)}


def _weights_counts(args, kwargs, result):
    polys = args[0] if args else kwargs["polys"]
    return {"rows": sum(len(p.terms) - 1 for p in polys if p)}


def _classify_counts(args, kwargs, result):
    return {"points_found": len(result.singular_points)}


# (module, attribute path, the stats printed for it, counter function of
# (args, kwargs, result) giving the stats other than calls and self_ms).
# buchberger's spans and stats are split by its `order` argument.
_CALLS_SELF = ("calls", "self_ms")
_TARGETS = (
    ("polyalg", "parse_polynomial", _CALLS_SELF, None),
    ("polyalg", "minors", (*_CALLS_SELF, "out_polys", "out_terms"),
     _minors_counts),
    ("polyalg", "Polynomial.shift", _CALLS_SELF, None),
    ("polyalg", "rank_at_point", _CALLS_SELF, None),
    ("grobner", "buchberger", (*_CALLS_SELF, "gens_in", "basis_out"),
     _buchberger_counts),
    ("grobner", "s_polynomial", ("calls",), None),
    ("grobner", "ideal_dimension", _CALLS_SELF, None),
    ("grobner", "quotient_dimension", _CALLS_SELF, None),
    ("grobner", "normal_form", _CALLS_SELF, None),
    ("grobner", "quasi_homogeneous_weights", (*_CALLS_SELF, "rows"),
     _weights_counts),
    ("detvar", "classify", (*_CALLS_SELF, "points_found"), _classify_counts),
    ("detvar", "chart_ideal", _CALLS_SELF, None),
    ("detvar", "is_point_on_variety", _CALLS_SELF, None),
    ("topo", "chi_smoothing", _CALLS_SELF, None),
    ("indexcalc", "cstar_fixed_points", _CALLS_SELF, None),
    ("indexcalc", "global_identity", _CALLS_SELF, None),
    ("cli", "load_input", _CALLS_SELF, None),
    ("cli", "main", ("self_ms",), None),
)

MODULES = ("polyalg", "grobner", "detvar", "topo", "indexcalc", "cli")


def _span_names(module, path):
    base = f"{module}.{path}"
    if path == "buchberger":
        return [f"{base}.{order}" for order in ORDERS]
    return [base]


# per-layer metric names, in print order, with their units
LAYER_METRICS = (
    [(f"{name}.{stat}", "ms" if stat.endswith("_ms") else "count")
     for module, path, stats, _ in _TARGETS
     for name in _span_names(module, path)
     for stat in stats]
    + [("cli.import_ms", "ms")]
    + [(f"{module}.share", "ratio") for module in MODULES]
)

# counters that depend only on the inputs, so they repeat exactly per seed
DETERMINISTIC = (
    "grobner.s_polynomial.calls",
    "grobner.buchberger.grevlex.gens_in",
    "grobner.buchberger.grevlex.basis_out",
    "grobner.buchberger.lex.gens_in",
    "grobner.buchberger.lex.basis_out",
    "polyalg.minors.out_terms",
    "grobner.quasi_homogeneous_weights.rows",
    "detvar.classify.points_found",
)


def _resolve(module, path):
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class Tracer:
    """In-memory span recorder; spans are [name, start, end, parent, op, counts]."""

    def __init__(self):
        self.spans = []
        self.op_id = None
        self._stack = []
        self._saved = []

    def _wrap(self, fn, name, counts):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            span = [label, 0.0, 0.0, stack[-1] if stack else None,
                    self.op_id, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if counts is not None:
                span[5] = counts(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self):
        """Wrap every binding of every traced function in the loaded package."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        import detsing.cli  # noqa: F401  loads every module of the package
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "detsing" or n.startswith("detsing.")]
        for module_name, path, _stats, counts in _TARGETS:
            owner, attr = _resolve(sys.modules[f"detsing.{module_name}"], path)
            original = vars(owner)[attr]
            name = (_buchberger_name if path == "buchberger"
                    else f"{module_name}.{path}")
            wrapper = self._wrap(original, name, counts)
            owners = [owner] if owner not in modules else modules
            for holder in owners:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._saved.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def restore(self):
        """Put every original binding back."""
        for holder, key, original in reversed(self._saved):
            setattr(holder, key, original)
        self._saved.clear()

    def layer_metrics(self, op_count):
        """Per-op calls, self time and counters, plus each module's share.

        A span's self time is its duration minus the durations of its direct
        children; calls never overlap on one thread, so self times add up to
        the root spans' total.
        """
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[3] is not None:
                child_time[span[3]] += span[2] - span[1]
        totals = Counter()
        module_self = Counter()
        root_total = 0.0
        for i, (name, start, end, parent, _op, counts) in enumerate(self.spans):
            self_s = (end - start) - child_time[i]
            if parent is None:
                root_total += end - start
            module_self[name.split(".")[0]] += self_s
            totals[f"{name}.calls"] += 1
            totals[f"{name}.self_ms"] += self_s * 1000
            for key, value in (counts or {}).items():
                totals[f"{name}.{key}"] += value
        out = {}
        for metric, unit in LAYER_METRICS:
            if unit == "ratio":
                module = metric.split(".")[0]
                value = module_self[module] / root_total if root_total else 0.0
            else:
                value = totals[metric] / op_count
            out[metric] = value
        return out

    def dump(self):
        return [{"name": s[0], "start": s[1], "end": s[2], "parent": s[3],
                 "op": s[4], "counts": s[5]} for s in self.spans]
