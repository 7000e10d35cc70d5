"""Tracing nisim from outside the package.

``Tracer`` wraps every public function of each nisim module and patches the
wrapper into every module that holds the name, so calls the package makes
internally are caught as well.  Each call becomes a span (name, layer,
start, end, parent span, op index); spans stay in memory until ``write``.
``metrics`` reduces them to the per-layer metrics: a layer's self time is
the duration of its spans minus the time their child spans cover.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
import warnings
from collections import defaultdict

MODULES = ("codes", "fourier", "distance", "model", "bounds", "oracle", "verify", "cli")

_CLOSED_FORM = (
    "normalize_instance", "theorem1_bounds", "theta_plus", "theta_minus",
    "symmetric_bounds", "maximal_correlation_bounds",
)
LAYER_OF = {
    "codes.canonical_form": "codes.canonical",
    "codes.canonical_pair": "codes.canonical",
    "codes.make_code": "codes.make_code",
    "fourier.fwht": "fourier.fwht",
    "fourier.spectrum": "fourier.spectrum",
    "fourier.level_sums": "fourier.level_sums",
    "distance.dual_distribution": "distance.dual",
    "model.collision_prob": "model.collision",
    "bounds.hc_bounds": "bounds.hc",
    **{f"bounds.{name}": "bounds.closed_form" for name in _CLOSED_FORM},
    "oracle.exhaustive_extremes": "oracle.exhaustive",
    "oracle.local_search": "oracle.local",
    "oracle.construction_value": "oracle.construction",
    "verify.run_verify": "verify.run",
}

# The spectral check of collision_prob: these children of a collision_prob
# span are the always-on second path.
_CHECK_CHILDREN = ("fourier.spectrum", "fourier.level_sums", "fourier.theta_from_levels")

# (name, unit, better), in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("codes.canonical.calls", "count", "lower"),
    ("codes.canonical.self_s", "s", "lower"),
    ("codes.make_code.self_s", "s", "lower"),
    ("fourier.fwht.calls", "count", "lower"),
    ("fourier.fwht.self_s", "s", "lower"),
    ("fourier.fwht.butterflies", "count", "lower"),
    ("fourier.fwht.bytes_computed", "B", "lower"),
    ("fourier.spectrum.self_s", "s", "lower"),
    ("fourier.level_sums.self_s", "s", "lower"),
    ("distance.pairwise.calls", "count", "lower"),
    ("distance.pairwise.self_s", "s", "lower"),
    ("distance.pairwise.pairs", "count", "lower"),
    ("distance.transform.calls", "count", "lower"),
    ("distance.transform.self_s", "s", "lower"),
    ("distance.dual.self_s", "s", "lower"),
    ("model.collision.calls", "count", "lower"),
    ("model.collision.self_s", "s", "lower"),
    ("model.collision.check_s", "s", "lower"),
    ("bounds.hc.calls", "count", "lower"),
    ("bounds.hc.self_s", "s", "lower"),
    ("bounds.hc.warned", "count", "lower"),
    ("bounds.hc.clean_ratio", "fraction", "higher"),
    ("bounds.closed_form.self_s", "s", "lower"),
    ("oracle.exhaustive.calls", "count", "lower"),
    ("oracle.exhaustive.self_s", "s", "lower"),
    ("oracle.exhaustive.orbits", "count", "lower"),
    ("oracle.exhaustive.pairs", "count", "lower"),
    ("oracle.local.calls", "count", "lower"),
    ("oracle.local.self_s", "s", "lower"),
    ("oracle.local.steps", "count", "lower"),
    ("oracle.construction.self_s", "s", "lower"),
    ("verify.run.self_s", "s", "lower"),
    ("verify.checks", "count", "higher"),
    ("cli.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _fwht_counts(args, kwargs, result) -> dict:
    """n * 2^(n-1) butterflies; bytes computed from array sizes, not measured:
    the float64 copy-in plus one read and one write of the array per stage."""
    size = len(result)
    stages = size.bit_length() - 1
    return {
        "fourier.fwht.butterflies": stages * size // 2,
        "fourier.fwht.bytes_computed": 16 * size * (stages + 1),
    }


def _exhaustive_counts(args, kwargs, result) -> dict:
    return {
        "oracle.exhaustive.orbits": result.orbits_enumerated,
        "oracle.exhaustive.pairs": result.pairs_evaluated,
    }


def _local_counts(args, kwargs, result) -> dict:
    return {"oracle.local.steps": result.pairs_evaluated}


def _verify_counts(args, kwargs, result) -> dict:
    return {"verify.checks": sum(f.checked for f in result.families)}


_COUNTS = {
    "fourier.fwht": _fwht_counts,
    "oracle.exhaustive_extremes": _exhaustive_counts,
    "oracle.local_search": _local_counts,
    "verify.run_verify": _verify_counts,
}


def _layer(name: str) -> str:
    module = name.split(".")[0]
    if module == "cli":
        return "cli"
    return LAYER_OF.get(name, f"{module}.other")


class Tracer:
    """Records spans while entered: ``with tracer:`` installs the wrappers
    and the exit removes them.  Spans accumulate across entries."""

    def __init__(self, nisim):
        self.nisim = nisim
        self.spans: list[list] = []
        self.op = -1
        self._stack: list[int] = []
        wrappers = {}
        for mod_name in MODULES:
            module = getattr(nisim, mod_name)
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrappers[obj] = self._wrap(obj, f"{mod_name}.{name}")
        # (module, attribute, original, wrapper) for every module holding a name
        self._patches = [
            (holder, name, obj, wrappers[obj])
            for holder in [nisim] + [getattr(nisim, m) for m in MODULES]
            for name, obj in vars(holder).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def __enter__(self):
        for holder, name, _, wrapper in self._patches:
            setattr(holder, name, wrapper)
        return self

    def __exit__(self, *exc_info):
        for holder, name, original, _ in self._patches:
            setattr(holder, name, original)

    def _wrap(self, fn, name: str):
        if name == "distance.distance_distribution":
            return self._wrap_distance(fn, name)
        layer = _layer(name)
        counts = _COUNTS.get(name)
        call = _call_counting_warnings if name == "bounds.hc_bounds" else _call
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, None]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result, extra = call(fn, args, kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if counts is not None:
                extra = counts(args, kwargs, result)
            span[6] = extra
            return result

        return wrapper

    def _wrap_distance(self, fn, name: str):
        """distance_distribution is split by path, as the package chooses it:
        pairwise when |A|*|B| <= distance.PAIRWISE_LIMIT, else transform."""
        spans, stack = self.spans, self._stack
        limit = self.nisim.distance.PAIRWISE_LIMIT

        @functools.wraps(fn)
        def wrapper(a, b=None):
            pairs = a.size * (a if b is None else b).size
            if pairs <= limit:
                layer, extra = "distance.pairwise", {"distance.pairwise.pairs": pairs}
            else:
                layer, extra = "distance.transform", None
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.op, extra]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                return fn(a, b)
            finally:
                span[3] = time.perf_counter()
                stack.pop()

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Self time of every layer seen, including the ``.other`` buckets."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span[4] >= 0:
                covered[span[4]] += span[3] - span[2]
        out: dict[str, float] = defaultdict(float)
        for span, children in zip(self.spans, covered):
            out[span[1]] += span[3] - span[2] - children
        return dict(sorted(out.items()))

    def metrics(self, overhead_s: float) -> dict[str, float]:
        spans = self.spans
        self_s = defaultdict(float, self.self_times())
        calls: dict[str, int] = defaultdict(int)
        counts: dict[str, int] = defaultdict(int)
        check_s = 0.0
        for name, layer, start, end, parent, _, extra in spans:
            calls[layer] += 1
            for key, value in (extra or {}).items():
                counts[key] += value
            if name in _CHECK_CHILDREN and parent >= 0 and spans[parent][0] == "model.collision_prob":
                check_s += end - start
        hc_calls = calls["bounds.hc"]
        warned = counts["bounds.hc.warned"]
        derived = {
            "model.collision.check_s": check_s,
            "bounds.hc.warned": warned,
            "bounds.hc.clean_ratio": 1.0 - warned / hc_calls if hc_calls else 1.0,
            "trace.overhead_s": overhead_s,
        }
        out = {}
        for metric, _, _ in PER_LAYER:
            layer, _, field = metric.rpartition(".")
            if metric in derived:
                out[metric] = derived[metric]
            elif field == "calls":
                out[metric] = calls[layer]
            elif field == "self_s":
                out[metric] = self_s[layer]
            else:
                out[metric] = counts[metric]
        return out

    def write(self, path) -> None:
        origin = self.spans[0][2] if self.spans else 0.0
        rows = [
            [name, layer, round(start - origin, 9), round(end - origin, 9), parent, op]
            for name, layer, start, end, parent, op, _ in self.spans
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"columns": ["name", "layer", "start_s", "end_s", "parent", "op"],
                       "spans": rows}, handle)
            handle.write("\n")


def _call(fn, args, kwargs):
    return fn(*args, **kwargs), None


def _call_counting_warnings(fn, args, kwargs):
    """Run hc_bounds, note whether it warned, and emit its warnings again so
    callers (combined_report records them) see the same messages."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno, source=w.source)
    return result, {"bounds.hc.warned": 1 if caught else 0}
