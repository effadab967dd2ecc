"""Outside-in tracing of nesthilb's layers, and the per-layer metrics.

`Tracer.install()` replaces functions of the already imported nesthilb
modules with timing wrappers.  A function is replaced under every name
that binds it in any nesthilb module, because callers look it up in their
own namespace (engine imports `chern_poly`, characters imports
`linear_power`).  Spans are aggregated in memory per name: calls, total
seconds, and self seconds, which is the total minus the time covered by
wrapped calls made inside the span.  `report()` returns plain JSON data;
`layer_metrics()` turns one report into the named per-layer metrics.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time

# span name -> (module, attribute) targets; "Class.method" patches the class
SPANS = {
    "cli": [("cli", "main"), ("cli", "build_parser"), ("cli", "cmd_integrate"),
            ("cli", "cmd_series"), ("cli", "cmd_verify")],
    "toric.load": [("toric", "load_surface_config"), ("toric", "builtin_surface")],
    "toric.chern_numbers": [("toric", "chern_numbers")],
    "partitions.enumerate": [("partitions", "enumerate_partitions"),
                             ("partitions", "enumerate_nested_pairs")],
    "engine.enumerate": [("engine", "enumerate_global_fixed_points"),
                         ("engine", "enumerate_product_fixed_points")],
    "engine.invariant": [("engine", "multi_bundle_invariant"), ("engine", "invariant_record"),
                         ("engine", "z_nest_series")],
    "engine.closed_form": [("engine", "closed_form_series")],
    "characters.chern_poly": [("characters", "chern_poly")],
    "characters.euler_class": [("characters", "euler_class")],
    "series.linear_power": [("series", "linear_power")],
    "series.graded_mul": [("series", "GradedPoly.__mul__"), ("series", "GradedPoly.divide")],
    "series.series2": [("series", f"Series2.{m}") for m in
                       ("__add__", "__sub__", "__neg__", "__mul__", "log", "exp", "pow", "inverse")]
                      + [("series", "product_formula"), ("series", "binomial_factor_series")],
    "laurent.mul": [("laurent", "LaurentPoly.__mul__")],
    "laurent.add": [("laurent", "LaurentPoly.__add__")],
    "fock.gamma_operator": [("fock", "gamma_operator")],
    "fock.apply_alpha": [("fock", "apply_alpha")],
    "fock.w_trace": [("fock", "w_trace")],
    "fock.checks": [("fock", "heisenberg_check"), ("fock", "gamma_commutation_check"),
                    ("fock", "qn_conjugation_check"), ("fock", "trace_matches_product"),
                    ("fock", "trace_product_series")],
    "verify.suite": [("verify", "run_suite")],
}

# (module, function) -> counter of the items it returns or yields
ITEM_COUNTS = {
    ("engine", "enumerate_global_fixed_points"): "engine.fixed_points.nested",
    ("engine", "enumerate_product_fixed_points"): "engine.fixed_points.product",
    ("fock", "basis_states"): "fock.basis_states",
}

# (module, function) -> counter of its calls
CALL_COUNTS = {
    ("engine", "draw_specialization"): "engine.specializations",
    ("engine", "_dual_spec_graded"): "engine.dual_spec_sums",
}

# verify check labels by prefix; the trace checks are numbered in suite order
CHECK_SLUGS = (
    ("Heisenberg commutation", "heisenberg"),
    ("half-vertex exchange", "gamma_exchange"),
    ("grading-operator conjugation", "qn_conjugation"),
    ("graded trace equals closed product", "trace"),
    ("untwisted trace degenerates", "euler_product"),
)
CHECK_NAMES = ("heisenberg", "gamma_exchange", "qn_conjugation",
               *(f"trace_{i}" for i in range(1, 6)), "euler_product", "other")

# per-layer metrics that are exact counts for a fixed seed
COUNT_METRICS = (
    "engine.fixed_points.nested", "engine.fixed_points.product", "engine.specializations",
    "engine.redraws", "characters.chern_poly.calls", "characters.euler_class.calls",
    "characters.block_cache.size", "series.linear_power.calls", "series.graded_mul.calls",
    "laurent.mul.calls", "laurent.add.calls", "fock.gamma_operator.calls",
    "fock.apply_alpha.calls", "fock.basis_states",
)
EMPTY_TRACE = {"spans": {}, "counts": {k: 0 for k in [*ITEM_COUNTS.values(), *CALL_COUNTS.values()]},
               "checks": [], "caches": {}}


def _module(name):
    return sys.modules[f"nesthilb.{name}"]


def _rebind(original, wrapper, owner=None):
    """Replace every binding of `original` in the nesthilb modules (or in one class)."""
    if owner is not None:
        spaces = [owner]
    else:
        spaces = [m for n, m in list(sys.modules.items())
                  if m is not None and (n == "nesthilb" or n.startswith("nesthilb."))]
    for space in spaces:
        for key, value in list(vars(space).items()):
            if value is original:
                setattr(space, key, wrapper)


class Tracer:
    def __init__(self):
        self.stack = []  # one [child seconds] cell per open span
        self.spans = {}  # name -> [calls, total seconds, self seconds]
        self.counts = dict(EMPTY_TRACE["counts"])
        self.checks = []  # [label, seconds since the previous check]
        self._check_mark = None
        self._caches = {}

    def _timed(self, name, fn):
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        stack = self.stack
        clock = time.perf_counter

        def timed(*args, **kwargs):
            cell = [0.0]
            stack.append(cell)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - cell[0]

        return timed

    def _wrap(self, fn, span, counter, per_item):
        counts = self.counts
        if per_item and inspect.isgeneratorfunction(fn):
            # a generator's work happens as its consumer pulls each item
            step = self._timed(span, next) if span else next

            def pulled(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    try:
                        item = step(it)
                    except StopIteration:
                        return
                    counts[counter] += 1
                    yield item

            return functools.wraps(fn)(pulled)
        wrapper = fn
        if counter:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                counts[counter] += len(result) if per_item else 1
                return result

            wrapper = counted
        if span:
            wrapper = self._timed(span, wrapper)
        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap the nesthilb functions in place; nesthilb.cli must be imported."""
        import nesthilb.cli  # noqa: F401  (imports engine and verify too)

        for name, attr in (("block_character", "characters"), ("_global_block", "engine")):
            self._caches[name] = getattr(_module(attr), name)
        span_of = {target: span for span, targets in SPANS.items() for target in targets}
        for mod, attr in {**span_of, **ITEM_COUNTS, **CALL_COUNTS}:
            owner_name, _, method = attr.partition(".")
            owner = getattr(_module(mod), owner_name)
            fn = vars(owner)[method] if method else owner
            counter = ITEM_COUNTS.get((mod, attr)) or CALL_COUNTS.get((mod, attr))
            wrapper = self._wrap(fn, span_of.get((mod, attr)), counter,
                                 (mod, attr) in ITEM_COUNTS)
            _rebind(fn, wrapper, owner if method else None)

        verify = _module("verify")
        check_cls, run_suite = verify.Check, verify.run_suite

        def timed_check(*args, **kwargs):
            now = time.perf_counter()
            check = check_cls(*args, **kwargs)
            self.checks.append([check.label, now - self._check_mark])
            self._check_mark = now
            return check

        def suite(*args, **kwargs):
            self._check_mark = time.perf_counter()
            return run_suite(*args, **kwargs)

        verify.Check = timed_check
        verify.run_suite = functools.wraps(run_suite)(suite)

    def report(self):
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = {"hits": info.hits, "misses": info.misses, "size": info.currsize}
        return {"spans": self.spans, "counts": self.counts, "checks": self.checks,
                "caches": caches}


def _check_metrics(checks):
    out = {f"verify.check.{name}.s": 0.0 for name in CHECK_NAMES}
    traces = 0
    for label, seconds in checks:
        slug = next((s for prefix, s in CHECK_SLUGS if label.startswith(prefix)), "other")
        if slug == "trace":
            traces += 1
            slug = f"trace_{traces}"
        name = f"verify.check.{slug}.s"
        out[name if name in out else "verify.check.other.s"] += seconds
    return out


def unit_of(name):
    if name in COUNT_METRICS:
        return "count"
    return "ratio" if name.endswith(("ratio", "speedup", "overhead")) else "s"


def layer_metrics(report):
    """Named per-layer metrics {name: value} of one traced invocation."""
    spans, counts = report["spans"], report["counts"]

    def span(name, field):
        return spans.get(name, [0, 0.0, 0.0])[field]

    hits = sum(c["hits"] for c in report["caches"].values())
    lookups = hits + sum(c["misses"] for c in report["caches"].values())
    m = {
        "engine.fixed_points.nested": counts["engine.fixed_points.nested"],
        "engine.fixed_points.product": counts["engine.fixed_points.product"],
        "engine.enumerate.self_s": span("engine.enumerate", 2),
        "engine.specializations": counts["engine.specializations"],
        "engine.redraws": counts["engine.specializations"] - 2 * counts["engine.dual_spec_sums"],
        "engine.invariant.self_s": span("engine.invariant", 2),
        "engine.closed_form.s": span("engine.closed_form", 1),
        "characters.block_cache.hit_ratio": hits / lookups if lookups else 0.0,
        "characters.block_cache.size": sum(c["size"] for c in report["caches"].values()),
        "series.series2.self_s": span("series.series2", 2),
        "partitions.enumerate.self_s": span("partitions.enumerate", 2),
        "fock.w_trace.s": span("fock.w_trace", 1),
        "fock.basis_states": counts["fock.basis_states"],
        "fock.checks.self_s": span("fock.checks", 2),
        "toric.load.s": span("toric.load", 1),
        "toric.chern_numbers.s": span("toric.chern_numbers", 1),
        "verify.suite.self_s": span("verify.suite", 2),
        "cli.self_s": span("cli", 2),
    }
    for name in ("characters.chern_poly", "characters.euler_class", "series.linear_power",
                 "series.graded_mul", "laurent.mul", "laurent.add", "fock.gamma_operator",
                 "fock.apply_alpha"):
        m[f"{name}.calls"] = span(name, 0)
        m[f"{name}.self_s"] = span(name, 2)
    m.update(_check_metrics(report["checks"]))
    return m
