"""Per-layer counts and self times, wrapped around npolylog from outside.

The tracer replaces public functions and methods of a freshly imported
package with wrappers.  A function is replaced in every module
namespace that binds it (``npolylog.polylog.euler_deriv`` as well as
``npolylog.ratpoly.euler_deriv``), so calls made inside the package are
seen.  Spans nest: a span's self time is its duration minus the time
of the spans it encloses.  Constructors and the cheapest helpers are
counted without a span, to keep the overhead down.  Spans are summed
per name in memory, not kept one by one.
"""

from __future__ import annotations

import time
from types import ModuleType
from typing import Any, Callable

# metric prefix -> (module, function or Class.method, timed with a span)
LAYERS = {
    "ratpoly.ratfun_new": ("npolylog.ratpoly", "RatFun.__init__", False),
    "ratpoly.ratfun_add": ("npolylog.ratpoly", "RatFun.__add__", True),
    "ratpoly.ratfun_mul": ("npolylog.ratpoly", "RatFun.__mul__", True),
    "ratpoly.euler_deriv": ("npolylog.ratpoly", "euler_deriv", True),
    "ratpoly.geom_mul": ("npolylog.ratpoly", "geom_mul", False),
    "ratpoly.taylor_coeffs": ("npolylog.ratpoly", "taylor_coeffs", True),
    "freealg.ncpoly_new": ("npolylog.freealg", "NcPoly.__init__", False),
    "freealg.ncpoly_add": ("npolylog.freealg", "NcPoly.__add__", True),
    "freealg.ncpoly_mul": ("npolylog.freealg", "NcPoly.__mul__", True),
    "freealg.poly_x_to_y": ("npolylog.freealg", "poly_x_to_y", True),
    "magnus.grade_report": ("npolylog.magnus", "grade_report", True),
    "magnus.magnus_poly": ("npolylog.magnus", "magnus_poly", True),
    "magnus.array_binom": ("npolylog.magnus", "array_binom", True),
    "magnus.dual_array_binom": ("npolylog.magnus", "dual_array_binom", True),
    "magnus.basis_word": ("npolylog.magnus", "basis_word", False),
    "polylog.polylog_rational": ("npolylog.polylog", "polylog_rational", True),
    "polylog.polylog_map": ("npolylog.polylog", "polylog_map", True),
    "polylog.series_coeffs": ("npolylog.polylog", "series_coeffs", True),
    "polylog.verify_relation": ("npolylog.polylog", "verify_relation", True),
    "polylog.kernel_element": ("npolylog.polylog", "kernel_element", True),
    "polylog.relation_from_record": ("npolylog.polylog", "relation_from_record", True),
    "polylog.relation_record": ("npolylog.polylog", "relation_record", True),
    "words.parse_index": ("npolylog.words", "parse_index", True),
    "cli.main": ("npolylog.cli", "main", True),
}

# Metrics that are not plain call counts or self times, after the layer
# whose wrapper measures them.
_DERIVED = {
    "ratpoly.taylor_coeffs": [("ratpoly.max_dpow", "exponent", "lower"), ("ratpoly.max_num_bits", "bits", "lower")],
    "polylog.polylog_rational": [("polylog.polylog_rational.distinct_ratio", "ratio", "higher")],
    "polylog.series_coeffs": [("polylog.series_coeffs.coeffs", "count", "lower")],
    "cli.main": [("trace.overhead_ratio", "ratio", "lower")],
}

# (name, unit, better) of every metric Tracer.metrics reports, in order.
METRICS = [
    metric
    for name, (_, _, spanned) in LAYERS.items()
    for metric in (
        [(f"{name}.calls", "count", "lower")]
        + ([(f"{name}.self_s", "s", "lower")] if spanned else [])
        + _DERIVED.get(name, [])
    )
]


class Tracer:
    """Counters and span totals that outlive the package imports they wrap."""

    def __init__(self) -> None:
        self.calls = {name: 0 for name in LAYERS}
        self.self_s = {name: 0.0 for name, (_, _, spanned) in LAYERS.items() if spanned}
        self.scaled_self_s = dict(self.self_s)
        self.max_dpow = 0
        self.max_num_bits = 0
        self.coeffs = 0
        self.distinct = 0
        self.missing: set[str] = set()
        self._seen: set[Any] = set()
        self._stack: list[float] = []

    def install(self, modules: dict[str, ModuleType]) -> None:
        """Wrap one fresh import of the package (all its modules, by name).

        Arguments of polylog_rational are counted as distinct per
        import, because each import starts with empty caches.
        """
        self.distinct += len(self._seen)
        self._seen = set()
        hooks: dict[str, Callable[[tuple, dict, Any], None]] = {
            "ratpoly.ratfun_add": self._ratfun,
            "ratpoly.ratfun_mul": self._ratfun,
            "ratpoly.euler_deriv": self._ratfun,
            "polylog.polylog_rational": self._index,
            "polylog.series_coeffs": self._series,
        }
        for name, (mod, attr, spanned) in LAYERS.items():
            self._patch(modules, name, mod, attr, spanned, hooks.get(name))

    def _patch(self, modules, name, mod, attr, spanned, hook) -> None:
        module = modules.get(mod)
        owner_name, _, method = attr.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        fn = vars(owner).get(method) if owner is not None else None
        if fn is None:
            self.missing.add(name)
            return
        wrapper = self._span(name, fn, hook) if spanned else self._counted(name, fn)
        if owner_name:
            setattr(owner, method, wrapper)
            return
        for namespace in modules.values():
            for key, value in list(vars(namespace).items()):
                if value is fn:
                    setattr(namespace, key, wrapper)

    def _counted(self, name: str, fn: Callable) -> Callable:
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _span(self, name: str, fn: Callable, hook) -> Callable:
        calls, self_s, stack, clock = self.calls, self.self_s, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if hook is not None:
                # Hook time is booked as a child of the enclosing span,
                # so it lands in no layer's self time.
                hook_start = clock()
                hook(args, kwargs, result)
                if stack:
                    stack[-1] += clock() - hook_start
            return result

        return wrapper

    def take_self_times(self) -> dict[str, float]:
        """Self times measured since the last call, which are then reset."""
        taken = dict(self.self_s)
        for name in self.self_s:
            self.self_s[name] = 0.0
        return taken

    def add_scaled(self, self_times: dict[str, float], factor: float) -> None:
        """Add self times, scaled to the reference speed, to the totals."""
        for name, t in self_times.items():
            self.scaled_self_s[name] += t * factor

    def _ratfun(self, args: tuple, kwargs: dict, result: Any) -> None:
        num, dpow = getattr(result, "num", None), getattr(result, "dpow", None)
        if num is None or dpow is None:
            self.missing.update(("ratpoly.max_dpow", "ratpoly.max_num_bits"))
            return
        self.max_dpow = max(self.max_dpow, dpow)
        for c in num:
            bits = abs(c.numerator).bit_length()
            if bits > self.max_num_bits:
                self.max_num_bits = bits

    def _index(self, args: tuple, kwargs: dict, result: Any) -> None:
        self._seen.add(args[0] if args else kwargs.get("s"))

    def _series(self, args: tuple, kwargs: dict, result: Any) -> None:
        self.coeffs += len(result)

    def metrics(self, overhead_ratio: float) -> dict[str, float]:
        """Every metric in METRICS, by name."""
        out: dict[str, float] = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update({f"{name}.self_s": t for name, t in self.scaled_self_s.items()})
        rational_calls = self.calls["polylog.polylog_rational"]
        distinct = self.distinct + len(self._seen)
        out["ratpoly.max_dpow"] = self.max_dpow
        out["ratpoly.max_num_bits"] = self.max_num_bits
        out["polylog.polylog_rational.distinct_ratio"] = distinct / rational_calls if rational_calls else 0.0
        out["polylog.series_coeffs.coeffs"] = self.coeffs
        out["trace.overhead_ratio"] = overhead_ratio
        return out
