"""Spans and counters around the public functions of each prudentpoly module.

Only the traced benchmark run imports this; the timed runs install nothing.
Every span records its name, start, end and parent span.  Spans are kept in
memory and written out, one JSON array per line, when the call is done.  A
span's self time is its duration minus the durations of its child spans,
which, in this single-threaded program, are nested inside it and disjoint.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("cli", "enumeration", "oracle", "asymptotics", "series", "_intpoly")

# Constructors timed as `series.construct_s`.
SERIES_CLASSES = ("Series1", "Series2", "Series3", "FloatSeries1")

# Public functions whose span name carries the route they were asked for.
ROUTE_ARGUMENT = {
    "prudentpoly.enumeration.pa3_series": ("method", 1, "theorem"),
    "prudentpoly.asymptotics.gf_eval": ("method", 1, "taylor"),
}

# Per-layer time metric -> the span names whose self times it sums.
SELF_TIME_METRICS = {
    "enumeration.pa3_theorem_s": ["enumeration.pa3_series.theorem"],
    "enumeration.pa3_scaled_float_s": ["enumeration.pa3_scaled_float"],
    "enumeration.pa3_functional_s": ["enumeration.pa3_series.functional",
                                     "enumeration.w_series"],
    "enumeration.pa4_system_solution_s": ["enumeration.pa4_system_solution"],
    "oracle.enumerate_prudent_polygons_s": ["oracle.enumerate_prudent_polygons"],
    "asymptotics.residuals_s": ["asymptotics.residuals",
                                "asymptotics.omega_scaled",
                                "asymptotics.omega_coefficients"],
    "asymptotics.fourier_extract_detrended_s":
        ["asymptotics.fourier_extract_detrended"],
    "asymptotics.exponent_fit_s": ["asymptotics.exponent_fit"],
    "asymptotics.gf_eval.taylor_s": ["asymptotics.gf_eval.taylor"],
    "asymptotics.gf_eval.meromorphic_s": ["asymptotics.gf_eval.meromorphic"],
    "asymptotics.gf_eval.doublesum_s": ["asymptotics.gf_eval.doublesum"],
    "asymptotics.gf_eval.singular_s": ["asymptotics.gf_eval.singular"],
    "asymptotics.pochhammer_s": ["asymptotics.pochhammer"],
    "asymptotics.pi_eval_s": ["asymptotics.pi_eval"],
    "asymptotics.constants_s": [
        "asymptotics.kappa", "asymptotics.kappa0",
        "asymptotics.oscillation_amplitude", "asymptotics.poles",
        "asymptotics.theta_root", "asymptotics.U_eval"],
    "series.construct_s": [f"series.{c}" for c in SERIES_CLASSES],
    "intpoly.self_s": None,       # every span of prudentpoly._intpoly
    "cli.main_self_s": ["cli.main", "cli.build_parser"],
}

# Per-layer count metric -> unit.
COUNT_METRICS = {
    "enumeration.pa3_terms": "count",
    "enumeration.pa3_max_bits": "bits",
    "enumeration.pa4_blocks": "count",
    "oracle.side_checks": "count",
    "asymptotics.pochhammer_calls": "count",
}


def _short(qualified: str) -> str:
    """'prudentpoly.series.Series1' -> 'series.Series1'."""
    return qualified.split(".", 1)[1]


class Tracer:
    """Collects spans and counts for one call in this process."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []        # [span index, time covered by children]
        self.self_s: defaultdict = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.max_bits = 0
        self._wrapped: dict = {}

    # -- wrapping ----------------------------------------------------------

    def _span(self, fn, label: str, route=None, post=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = label
            if route is not None:
                key, position, default = route
                value = args[position] if len(args) > position \
                    else kwargs.get(key, default)
                name = f"{label}.{value}"
            index = len(self.spans)
            self.spans.append(None)
            frame = [index, 0.0]
            parent = self._stack[-1][0] if self._stack else None
            self._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                duration = end - start
                if self._stack:
                    self._stack[-1][1] += duration
                self.spans[index] = (index, name, start, end, parent)
                self.self_s[name] += duration - frame[1]
                self.calls[name] += 1
            if post is not None:
                post(args, kwargs, result)
            return result
        return wrapper

    def _wrap_function(self, fn):
        qualified = f"{fn.__module__}.{fn.__name__}"
        if qualified not in self._wrapped:
            post = {
                "prudentpoly.enumeration.pa3_series": self._after_pa3,
                "prudentpoly.enumeration.pa3_scaled_float": self._after_pa3,
                "prudentpoly.enumeration.pa4_system_solution":
                    self._after_pa4,
            }.get(qualified)
            self._wrapped[qualified] = self._span(
                fn, _short(qualified), ROUTE_ARGUMENT.get(qualified), post)
        return self._wrapped[qualified]

    def install(self) -> None:
        """Wrap every public function of every module, imported names too."""
        modules = {name: importlib.import_module(f"prudentpoly.{name}")
                   for name in MODULES}
        for module in modules.values():
            for name, obj in list(vars(module).items()):
                if (not name.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__.startswith("prudentpoly.")):
                    setattr(module, name, self._wrap_function(obj))
        series = modules["series"]
        for cls_name in SERIES_CLASSES:
            cls = getattr(series, cls_name)
            cls.__init__ = self._span(cls.__init__, f"series.{cls_name}")
        membership = modules["oracle"].SideMembership
        side_of = membership.of

        def counted_of(point, box):
            self.counts["oracle.side_checks"] += 1
            return side_of(point, box)
        membership.of = staticmethod(counted_of)

    def exclude(self, seconds: float) -> None:
        """Keep time spent outside the program out of the open span's self time."""
        if self._stack:
            self._stack[-1][1] += seconds

    # -- counters read from arguments and results --------------------------

    def _after_pa3(self, args, kwargs, result) -> None:
        order = args[0] if args else kwargs["order"]
        self.counts["enumeration.pa3_terms"] += order
        values = getattr(result, "counts", None)
        if values is None:
            values = result.mantissas
        widest = max((abs(v).bit_length() for v in values), default=0)
        self.max_bits = max(self.max_bits, widest)

    def _after_pa4(self, args, kwargs, result) -> None:
        self.counts["enumeration.pa4_blocks"] += sum(
            len(s.blocks()) for s in result)

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """Every per-layer metric of this call, 0 where a layer did no work."""
        out = {}
        for metric, names in SELF_TIME_METRICS.items():
            if names is None:
                names = [n for n in self.self_s if n.startswith("_intpoly.")]
            out[metric] = sum(self.self_s.get(n, 0.0) for n in names)
        out["enumeration.pa3_terms"] = self.counts["enumeration.pa3_terms"]
        out["enumeration.pa3_max_bits"] = self.max_bits
        out["enumeration.pa4_blocks"] = self.counts["enumeration.pa4_blocks"]
        out["oracle.side_checks"] = self.counts["oracle.side_checks"]
        out["asymptotics.pochhammer_calls"] = self.calls["asymptotics.pochhammer"]
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
