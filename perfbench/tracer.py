"""Per-layer tracing of the torusrep package, installed from outside it.

`Tracer.install` replaces every binding through which a traced function is
reached -- the defining module, each `from .x import f` copy in the other
modules and the package namespace, and each alias of a method in its class
(`__rmul__` is `__mul__`) -- with a wrapper, and `uninstall` puts the
originals back.  An `lru_cache` function is wrapped outside its cache, so a
hit is a call too, and its hit ratio comes from `cache_info()`; the wrapper
keeps `cache_info` and `cache_clear`, so `clear_caches` still reaches it.

Each call of a traced function records a span (name, start, end, parent).
The hot leaves `CycNum.mul` and `CycNum.add` run hundreds of thousands of
times per job, so they are timed in aggregate instead: their time is added
to the enclosing span.  A function's self time is the length of its spans
minus the spans and leaf time directly inside them.

A function the package no longer has is skipped and reports zero calls.
"""

from __future__ import annotations

import importlib
import time
from collections import Counter, defaultdict

#: prefix of the stats line a traced child writes last to standard error
MARKER = "@@perfbench-trace"

MODULES = ("cyclotomic", "qint", "skein_poly", "rep", "fp_rep", "identities", "cli")

#: metric prefix -> attribute path inside the module named by its first part
LAYERS = {
    "cyclotomic.field_inverse": "field_inverse",
    "cyclotomic.exact_div": "exact_div",
    "cyclotomic.h_valuation": "h_valuation",
    "cyclotomic.truncate": "truncate",
    "cyclotomic.CycNum.mul": "CycNum.__mul__",
    "cyclotomic.CycNum.add": "CycNum.__add__",
    "qint.scalars": "scalars",
    "skein_poly.C_closed": "C_closed",
    "skein_poly.C_recursive": "C_recursive",
    "skein_poly.verify_product_expansion": "verify_product_expansion",
    "skein_poly.multiply_mod": "multiply_mod",
    "rep.RepMatrix.matmul": "RepMatrix.__matmul__",
    "rep.invert": "invert",
    "rep.b_term": "b_term",
    "rep.ratio_R": "ratio_R",
    "rep.t_matrix": "t_matrix",
    "rep.tstar_matrix": "tstar_matrix",
    "rep.tstar_oracle": "tstar_oracle",
    "rep.verify_relations": "verify_relations",
    "rep.eval_word": "eval_word",
    "fp_rep.rho0_matrices": "rho0_matrices",
    "fp_rep.verify_intertwine": "verify_intertwine",
    "fp_rep.irreducibility_check": "irreducibility_check",
    "fp_rep.FpMatrix.matmul": "FpMatrix.__matmul__",
    "identities.verify_identity_grid": "verify_identity_grid",
    "cli.main": "main",
}
HOT = frozenset({"cyclotomic.CycNum.mul", "cyclotomic.CycNum.add"})
HIT_RATIOS = ("cyclotomic.field_inverse", "skein_poly.C_closed")
#: functions whose result is a matrix over Z[zeta_p], scanned for coefficient size
MATRIX_RESULTS = frozenset({
    "rep.RepMatrix.matmul", "rep.invert", "rep.t_matrix", "rep.tstar_matrix",
    "rep.tstar_oracle",
})


def _modules():
    return [importlib.import_module("torusrep")] + [
        importlib.import_module(f"torusrep.{m}") for m in MODULES
    ]


def package_caches() -> list:
    """Every lru_cache function of the package, each once."""
    seen: dict[int, object] = {}
    for mod in _modules():
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_info", None)):
                seen.setdefault(id(obj), obj)
    return list(seen.values())


def clear_caches() -> None:
    for fn in package_caches():
        fn.cache_clear()


def _coeff_bits(matrix) -> int:
    try:
        return max(
            (max(map(abs, e.nums)).bit_length() for row in matrix.entries for e in row),
            default=0,
        )
    except (AttributeError, TypeError, ValueError):
        return 0


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, leaf time]
        self._open: list[int] = []
        self._hot: dict[str, list] = {}  # name -> [calls, seconds]
        self._patched: list[tuple] = []
        self._caches: dict[str, tuple] = {}  # name -> (function, info at install)
        self._cache_counts: dict[str, list] = {}  # name -> [hits, misses] while installed
        self.quotients = 0
        self.coeff_bits_max = 0
        self.cache_entries_at_start = None

    def install(self) -> None:
        """Patch the bindings.  Install and uninstall may alternate; the
        stats add up over every installed period."""
        mods = _modules()
        if self.cache_entries_at_start is None:
            self.cache_entries_at_start = sum(
                fn.cache_info().currsize for fn in package_caches())
        for name, path in LAYERS.items():
            owner = importlib.import_module(f"torusrep.{name.split('.')[0]}")
            *classes, attr = path.split(".")
            for cls in classes:
                owner = getattr(owner, cls, None)
            original = getattr(owner, attr, None)
            if original is None:
                continue
            if callable(getattr(original, "cache_info", None)):
                self._caches[name] = (original, original.cache_info())
            wrapper = self._wrap(name, original)
            for target in ([owner] if classes else mods):
                for key, value in list(vars(target).items()):
                    if value is original:
                        self._patched.append((target, key, original))
                        setattr(target, key, wrapper)

    def _bank_cache_counts(self, name) -> None:
        fn, before = self._caches[name]
        now = fn.cache_info()
        counts = self._cache_counts.setdefault(name, [0, 0])
        counts[0] += now.hits - before.hits
        counts[1] += now.misses - before.misses
        self._caches[name] = (fn, now)

    def uninstall(self) -> None:
        for name in self._caches:
            self._bank_cache_counts(name)
        self._caches.clear()
        for target, key, original in reversed(self._patched):
            setattr(target, key, original)
        self._patched.clear()

    def _wrap(self, name, fn):
        spans, open_, clock = self.spans, self._open, time.perf_counter
        if name in HOT:
            acc = self._hot.setdefault(name, [0, 0.0])

            def leaf(*args, **kwargs):
                t0 = clock()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = clock() - t0
                    acc[0] += 1
                    acc[1] += dt
                    if open_:
                        spans[open_[-1]][4] += dt

            return leaf

        scan = name in MATRIX_RESULTS
        quotient = name == "cyclotomic.exact_div"

        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, open_[-1] if open_ else -1, 0.0]
            spans.append(span)
            open_.append(index)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                open_.pop()
            if quotient and result is not None:
                self.quotients += 1
            if scan:
                self.coeff_bits_max = max(self.coeff_bits_max, _coeff_bits(result))
                # the scan is tracing work: keep it out of the caller's self time
                if open_:
                    spans[open_[-1]][4] += clock() - span[2]
            return result

        if callable(getattr(fn, "cache_info", None)):

            def cache_clear():
                # clearing also zeroes cache_info(): bank the counts first
                self._bank_cache_counts(name)
                fn.cache_clear()
                self._caches[name] = (fn, fn.cache_info())

            traced.cache_info, traced.cache_clear = fn.cache_info, cache_clear
        return traced

    def stats(self) -> dict:
        """Calls and self seconds per traced function, cache hits and misses
        while installed, and the exact counters; call after uninstall."""
        inside = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inside[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        for i, (name, start, end, _, leaf) in enumerate(self.spans):
            calls[name] += 1
            self_s[name] += end - start - inside[i] - leaf
        for name, (n, seconds) in self._hot.items():
            calls[name] += n
            self_s[name] += seconds
        return {
            "calls": dict(calls),
            "self_s": dict(self_s),
            "cache": self._cache_counts,
            "quotients": self.quotients,
            "coeff_bits_max": self.coeff_bits_max,
            "spans": len(self.spans),
            "cache_entries_at_start": self.cache_entries_at_start,
        }


def merge(stats_list) -> dict:
    """Add up the stats of several traced jobs for `layer_metrics`."""
    out = {"calls": Counter(), "self_s": defaultdict(float), "cache": {},
           "quotients": 0, "coeff_bits_max": 0}
    for st in stats_list:
        out["calls"].update(st["calls"])
        for name, s in st["self_s"].items():
            out["self_s"][name] += s
        for name, (hits, misses) in st["cache"].items():
            h, m = out["cache"].get(name, (0, 0))
            out["cache"][name] = [h + hits, m + misses]
        out["quotients"] += st["quotients"]
        out["coeff_bits_max"] = max(out["coeff_bits_max"], st["coeff_bits_max"])
    return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0


#: (metric name, unit, better) for every per-layer metric, in report order
METRICS = [
    (f"{name}.{stat}", unit, "lower")
    for name in LAYERS
    for stat, unit in (("calls", "count"), ("self_s", "s"))
] + [
    (f"{name}.hit_ratio", "ratio", "higher") for name in HIT_RATIOS
] + [
    ("cyclotomic.exact_div.quotient_ratio", "ratio", "higher"),
    ("rep.coeff_bits_max", "bits", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
]


def layer_metrics(stats: dict, overhead_frac: float) -> dict:
    """Every per-layer metric as {name: {"value", "unit"}}."""
    values = {}
    for name in LAYERS:
        values[f"{name}.calls"] = stats["calls"].get(name, 0)
        values[f"{name}.self_s"] = stats["self_s"].get(name, 0.0)
    for name in HIT_RATIOS:
        hits, misses = stats["cache"].get(name, (0, 0))
        values[f"{name}.hit_ratio"] = _ratio(hits, hits + misses)
    values["cyclotomic.exact_div.quotient_ratio"] = _ratio(
        stats["quotients"], stats["calls"].get("cyclotomic.exact_div", 0))
    values["rep.coeff_bits_max"] = stats["coeff_bits_max"]
    values["trace.overhead_frac"] = overhead_frac
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in METRICS}
