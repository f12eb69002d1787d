"""Per-layer spans recorded from outside the library.

The tracer replaces module attributes that the pipeline looks up at call
time (decide._step, hull.convex_hull, ...) with wrappers that record a span:
name, start, end, parent span and op id.  Spans stay in memory until the run
writes them out.  A span's self time is its duration minus the time its
child spans cover.  Leaving the `with` block puts every original object back.

linalg is not wrapped: a planar-exact sweep makes about 10^6 linalg calls,
so a wrapper there would measure itself.  Its cost shows in the self time of
its callers.  cli._step is not wrapped either: only the iterate command,
which no workload runs, calls it.
"""

from __future__ import annotations

import importlib
import os
import statistics
import time
from fractions import Fraction

# (module, attribute, span name).  Every target of a span name must exist,
# or that span's metrics are reported absent: a count over some of its
# call sites would read as a change in the work done.
TARGETS = (
    ("fractalhull.cli", "parse_model", "cli.parse"),
    ("fractalhull.cli", "write_report", "cli.report"),
    ("fractalhull.cli", "render_svg", "render.render"),
    ("fractalhull.decide", "analyze_model", "decide.analyze"),
    ("fractalhull.decide", "decide_polytope", "decide.decide"),
    ("fractalhull.decide", "inverse_eigenvalue_classes", "spectral.classify"),
    ("fractalhull.decide", "cross_check", "spectral.cross_check"),
    ("fractalhull.decide", "_step", "ifs.step"),
    ("fractalhull.ifs", "_step", "ifs.step"),
    ("fractalhull.decide", "evaluate_ep_address", "ifs.evaluate"),
    ("fractalhull.decide", "extract_ep_addresses", "decide.extract"),
    ("fractalhull.decide", "certify_polytope", "decide.certify"),
    ("fractalhull.hull", "convex_hull", "hull.convex_hull"),
    ("fractalhull.hull", "contains", "hull.contains"),
    ("fractalhull.hull", "hausdorff", "hull.hausdorff"),
)


def _bits(value):
    return value.numerator.bit_length() + value.denominator.bit_length()


def _step_attrs(args, kwargs, result, exc):
    model, ledger = args[0], args[1]
    attrs = {"candidates": ledger.count * model.digit_count}
    coords = [c for point, _ in result[0].entries for c in point if isinstance(c, Fraction)]
    if coords:
        attrs["max_bits"] = max(_bits(c) for c in coords)
    return attrs


def _decide_attrs(args, kwargs, result, exc):
    return {"steps_search": len(result[1].counts)}


def _cross_check_attrs(args, kwargs, result, exc):
    checks = result.result.checks if result.result is not None else ()
    k_cap = result.result.k_cap if result.result is not None else 0
    return {"normal_powers": sum(k_cap if c.k_found is None else c.k_found for c in checks)}


def _hull_attrs(args, kwargs, result, exc):
    return {"points_in": len(args[0]), "vertices_out": len(result.vertices)}


def _extract_attrs(args, kwargs, result, exc):
    return {"failures": int(exc is not None)}


def _certify_attrs(args, kwargs, result, exc):
    return {"failures": int(not result.ok)}


def _report_attrs(args, kwargs, result, exc):
    return {"bytes": os.path.getsize(args[2])}


def _render_attrs(args, kwargs, result, exc):
    return {"bytes": os.path.getsize(result)}


# Hooks read counts from a span's arguments and result after its end time is
# taken; hook time is charged to neither the span nor its parent.
HOOKS = {
    "ifs.step": _step_attrs,
    "decide.decide": _decide_attrs,
    "spectral.cross_check": _cross_check_attrs,
    "hull.convex_hull": _hull_attrs,
    "decide.extract": _extract_attrs,
    "decide.certify": _certify_attrs,
    "cli.report": _report_attrs,
    "render.render": _render_attrs,
}

# Span fields: name, parent index, op id, start, end, end after the hook, attrs.
NAME, PARENT, OP, START, END, OUTER_END, ATTRS = range(7)


class Tracer:
    """Install span wrappers on entry and restore the originals on exit.

    A tracer may be entered again; its spans accumulate across entries.
    """

    def __init__(self, targets=TARGETS):
        self.targets = targets
        self.spans = []
        self.missing = {}  # span name -> reason its metrics are absent
        self.hook_errors = {}  # span name -> first hook error
        self._stack = []
        self._op = None
        self._saved = []

    def __enter__(self):
        try:
            for module_name, attr, span_name in self.targets:
                try:
                    module = importlib.import_module(module_name)
                except ImportError:
                    self.missing.setdefault(span_name, f"module {module_name} not found")
                    continue
                original = getattr(module, attr, None)
                if original is None:
                    self.missing.setdefault(span_name, f"{module_name}.{attr} not found")
                    continue
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(original, span_name))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info):
        self.restore()
        return False

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def _wrap(self, original, name):
        spans = self.spans
        stack = self._stack
        hook = HOOKS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, stack[-1] if stack else None, tracer._op, 0.0, 0.0, 0.0, None]
            spans.append(span)
            stack.append(index)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                span[END] = time.perf_counter()
                stack.pop()
                tracer._run_hook(span, hook, args, kwargs, None, exc)
                raise
            span[END] = time.perf_counter()
            stack.pop()
            tracer._run_hook(span, hook, args, kwargs, result, None)
            return result

        traced.__wrapped__ = original
        traced.__name__ = getattr(original, "__name__", name)
        return traced

    def _run_hook(self, span, hook, args, kwargs, result, exc):
        if hook is not None:
            try:
                span[ATTRS] = hook(args, kwargs, result, exc)
            except Exception as error:  # noqa: BLE001 - a broken hook marks its metrics absent
                self.hook_errors.setdefault(span[NAME], f"{type(error).__name__}: {error}")
        span[OUTER_END] = time.perf_counter()

    def begin_op(self, op_id):
        """Open the root span of one op."""
        self._op = op_id
        index = len(self.spans)
        self.spans.append(["op", None, op_id, time.perf_counter(), 0.0, 0.0, None])
        self._stack.append(index)

    def end_op(self):
        index = self._stack.pop()
        span = self.spans[index]
        span[END] = span[OUTER_END] = time.perf_counter()
        self._op = None


def self_times(spans):
    """Self time in seconds of every span, in span order."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span[PARENT] is not None:
            covered[span[PARENT]] += span[OUTER_END] - span[START]
    return [span[END] - span[START] - c for span, c in zip(spans, covered)]


def aggregate(spans, selfs, lo=0, hi=None):
    """Per span name: calls, self seconds, summed attrs and the largest max_bits."""
    out = {}
    for index in range(lo, len(spans) if hi is None else hi):
        span = spans[index]
        entry = out.setdefault(span[NAME], {"calls": 0, "self_s": 0.0})
        entry["calls"] += 1
        entry["self_s"] += selfs[index]
        for key, value in (span[ATTRS] or {}).items():
            if key == "max_bits":
                entry[key] = max(entry.get(key, 0), value)
            else:
                entry[key] = entry.get(key, 0) + value
    return out


def _ms(span):
    return lambda agg: 1000.0 * agg.get(span, {}).get("self_s", 0.0)


def _count(span, key="calls"):
    return lambda agg: agg.get(span, {}).get(key, 0)


def _ratio(num, den):
    def value(agg):
        d = den(agg)
        if not d:
            return None
        return num(agg) / d

    return value


# name -> (spans it needs, value from one sweep's aggregate).  Units are in
# BENCHMARK.json; a name ending in _ms is a time, every other one a count
# or a ratio of counts.
LAYER_METRICS = {
    "spectral.classify_ms": (("spectral.classify",), _ms("spectral.classify")),
    "spectral.classify_calls": (("spectral.classify",), _count("spectral.classify")),
    "spectral.cross_check_ms": (("spectral.cross_check",), _ms("spectral.cross_check")),
    "spectral.cross_check_calls": (("spectral.cross_check",), _count("spectral.cross_check")),
    "spectral.normal_powers": (
        ("spectral.cross_check",), _count("spectral.cross_check", "normal_powers")
    ),
    "ifs.step_ms": (("ifs.step",), _ms("ifs.step")),
    "ifs.steps": (("ifs.step",), _count("ifs.step")),
    "ifs.steps_search": (("decide.decide",), _count("decide.decide", "steps_search")),
    "ifs.step_useful_ratio": (
        ("ifs.step", "decide.decide"),
        _ratio(_count("decide.decide", "steps_search"), _count("ifs.step")),
    ),
    "ifs.candidates": (("ifs.step",), _count("ifs.step", "candidates")),
    # 0 where no ledger point has a rational coordinate (float arithmetic).
    "ifs.max_bits": (("ifs.step",), _count("ifs.step", "max_bits")),
    "ifs.evaluate_ms": (("ifs.evaluate",), _ms("ifs.evaluate")),
    "ifs.evaluate_calls": (("ifs.evaluate",), _count("ifs.evaluate")),
    "hull.convex_hull_ms": (("hull.convex_hull",), _ms("hull.convex_hull")),
    "hull.convex_hull_calls": (("hull.convex_hull",), _count("hull.convex_hull")),
    "hull.points_in": (("hull.convex_hull",), _count("hull.convex_hull", "points_in")),
    "hull.vertices_out": (("hull.convex_hull",), _count("hull.convex_hull", "vertices_out")),
    "hull.keep_ratio": (
        ("hull.convex_hull",),
        _ratio(_count("hull.convex_hull", "vertices_out"), _count("hull.convex_hull", "points_in")),
    ),
    "hull.contains_ms": (("hull.contains",), _ms("hull.contains")),
    "hull.contains_calls": (("hull.contains",), _count("hull.contains")),
    "hull.hausdorff_ms": (("hull.hausdorff",), _ms("hull.hausdorff")),
    "hull.hausdorff_calls": (("hull.hausdorff",), _count("hull.hausdorff")),
    "decide.extract_ms": (("decide.extract",), _ms("decide.extract")),
    "decide.extract_attempts": (("decide.extract",), _count("decide.extract")),
    "decide.extract_failures": (("decide.extract",), _count("decide.extract", "failures")),
    "decide.certify_ms": (("decide.certify",), _ms("decide.certify")),
    "decide.certify_calls": (("decide.certify",), _count("decide.certify")),
    "decide.certify_failures": (("decide.certify",), _count("decide.certify", "failures")),
    "decide.self_ms": (
        ("decide.analyze", "decide.decide"),
        lambda agg: _ms("decide.analyze")(agg) + _ms("decide.decide")(agg),
    ),
    "cli.parse_ms": (("cli.parse",), _ms("cli.parse")),
    "cli.report_ms": (("cli.report",), _ms("cli.report")),
    "cli.report_bytes": (("cli.report",), _count("cli.report", "bytes")),
    "render.self_ms": (("render.render",), _ms("render.render")),
    "render.svg_bytes": (("render.render",), _count("render.render", "bytes")),
}


def layer_values(tracer, sweep_aggs):
    """(values, absent) over the traced sweeps.

    Counts are taken from the first sweep and must repeat in every later one;
    times are the median over sweeps.  A metric is absent, with its reason,
    when a span it needs could not be wrapped, when a hook failed, or when
    the workload gives it nothing to measure.
    """
    values, absent = {}, {}
    for name, (needs, compute) in LAYER_METRICS.items():
        reasons = [tracer.missing[s] for s in needs if s in tracer.missing]
        reasons += [f"hook for {s} failed: {tracer.hook_errors[s]}" for s in needs
                    if s in tracer.hook_errors]
        if reasons:
            absent[name] = "; ".join(reasons)
            continue
        per_sweep = [compute(agg) for agg in sweep_aggs]
        if any(v is None for v in per_sweep):
            absent[name] = "the workload makes no call this ratio divides by"
            continue
        if name.endswith("_ms"):
            values[name] = statistics.median(per_sweep)
        elif len(set(per_sweep)) > 1:
            absent[name] = f"differs between sweeps: {per_sweep}"
        else:
            values[name] = per_sweep[0]
    return values, absent
