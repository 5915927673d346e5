"""Spans around calls into prodex's layers, recorded from outside.

`Tracer.install()` swaps each layer's public functions and methods for
wrappers that record one span per call: name, duration, self time and
the span that caused it.  Module-level functions are replaced in every
prodex module that imported them, so calls between layers are seen
too.  `uninstall()` puts the originals back, so untraced runs execute
unmodified code.  Spans are aggregated in memory as they close.

Nothing here edits prodex; a function or method that a later version
no longer has is simply not traced.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict

_now = time.perf_counter_ns

# module, function name, span name
FUNCTIONS = (
    ("prodex.scenario", "load_scenario", "scenario.load"),
    ("prodex.engine", "expect", "engine.expect"),
    ("prodex.martingale", "g_n", "martingale.g_n"),
    ("prodex.martingale", "find_strong_approx", "martingale.find"),
    ("prodex.martingale", "trace", "martingale.trace"),
    ("prodex.tailclass", "hull_estimate", "tailclass.hull"),
    ("prodex.tailclass", "classify", "tailclass.classify"),
    ("prodex.tailclass", "construct_weak_zero", "tailclass.construct"),
    ("prodex.tailclass", "weak_zero_from_sample", "tailclass.weak_zero"),
    ("prodex.harness", "verify_strong", "harness.verify"),
    ("prodex.harness", "verify_weak", "harness.verify"),
    ("prodex.games", "purify", "games.purify"),
    ("prodex.games", "best_response_value", "games.best_response"),
    ("prodex.games", "naming_game_value", "games.naming_value"),
    ("prodex.games", "naming_game_exploit", "games.naming_exploit"),
)

# class, method name, span name
METHODS = (
    ("prodex.functions", "Cylinder", "bounds_over",
     "functions.bounds_over.cylinder"),
    ("prodex.functions", "DiscountedSum", "bounds_over",
     "functions.bounds_over.discounted_sum"),
    ("prodex.functions", "ProductIndicator", "bounds_over",
     "functions.bounds_over.product_indicator"),
    ("prodex.functions", "TailFunction", "eval_soft", "functions.eval_soft"),
    ("prodex.model", "HybridMeasure", "measures_then_point", "model.hybrid"),
)

PERCENTILE_SPANS = ("martingale.find",)


class Stat:
    __slots__ = ("count", "total")

    def __init__(self):
        self.count = self.total = 0


class Tracer:
    def __init__(self):
        self.stack = []  # frames: [name, start_ns, child_ns, children]
        self.stats = defaultdict(Stat)
        self.edges = defaultdict(Stat)  # (parent name, name) -> Stat
        self.durations = defaultdict(list)
        self.counters = defaultdict(int)
        self.ops = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def begin(self, name):
        self.stack.append([name, _now(), 0, None])

    def end(self):
        name, start, child, children = self.stack.pop()
        dur = _now() - start
        st = self.stats[name]
        st.count += 1
        st.total += dur
        if name in PERCENTILE_SPANS:
            self.durations[name].append(dur)
        if self.stack:
            parent = self.stack[-1]
            parent[2] += dur
            edge = self.edges[(parent[0], name)]
            edge.count += 1
            edge.total += dur
            if parent[3] is not None:
                parent[3][name] = parent[3].get(name, 0) + dur
        return name, dur, dur - child, children

    def begin_op(self):
        self.begin("cli.main")
        self.stack[-1][3] = {}

    def end_op(self, kind, units, report_bytes, profiles=0):
        _, dur, self_ns, children = self.end()
        self.ops.append({"kind": kind, "ns": dur, "self_ns": self_ns,
                         "children": children, "units": units,
                         "report_bytes": report_bytes, "profiles": profiles})
        return dur

    # -- patching ----------------------------------------------------------

    def _span(self, name, fn, observe=None):
        tracer = self

        def traced(*args, **kwargs):
            tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.end()
                raise
            dur = tracer.end()[1]
            if observe is not None:
                observe(args, result, dur)
            return result
        return traced

    def _observe_expect(self, args, res, dur):
        c = self.counters
        family = getattr(args[0], "family", "other")
        if getattr(res, "oracle_used", False):
            c["oracle_calls"] += 1
            c[f"oracle_ns.{family}"] += dur
            c[f"oracle_count.{family}"] += 1
        else:
            c["generic_nodes"] += getattr(res, "nodes_expanded", 0)
            c["generic_ns"] += dur
            c["generic_calls"] += 1
        if getattr(res, "status", "") == "budget_exhausted":
            c["budget_exhausted"] += 1
        iv = getattr(res, "interval", None)
        if iv is not None:
            bits = max(iv.lo.denominator.bit_length(),
                       iv.hi.denominator.bit_length())
            c["denom_bits_max"] = max(c["denom_bits_max"], bits)

    def _observe_hull(self, args, res, dur):
        if getattr(res, "exhaustive", False):
            self.counters["hull_exhaustive"] += 1

    def _observe_classify(self, args, res, dur):
        if getattr(res, "certified", False):
            self.counters["straddles"] += 1

    def _observe_weak_zero(self, args, res, dur):
        # it returns only once a hull has straddled the target
        self.counters["straddles"] += 1

    def _observe_purify(self, args, res, dur):
        self.counters["purify_attempts"] += getattr(res, "attempt", 0) + 1

    def _replace(self, original, replacement):
        for modname, mod in list(sys.modules.items()):
            if modname != "prodex" and not modname.startswith("prodex."):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._saved.append((mod, attr, original))

    def install(self):
        observers = {
            "engine.expect": self._observe_expect,
            "tailclass.hull": self._observe_hull,
            "tailclass.classify": self._observe_classify,
            "tailclass.weak_zero": self._observe_weak_zero,
            "games.purify": self._observe_purify,
        }
        for modname, fname, span in FUNCTIONS:
            fn = getattr(sys.modules.get(modname), fname, None)
            if fn is not None:
                self._replace(fn, self._span(span, fn, observers.get(span)))
        for modname, cname, mname, span in METHODS:
            cls = getattr(sys.modules.get(modname), cname, None)
            if cls is None or not hasattr(cls, mname):
                continue
            own = cls.__dict__.get(mname)
            raw = own if own is not None else getattr(cls, mname)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._span(span, raw.__func__))
            else:
                wrapped = self._span(span, raw)
            setattr(cls, mname, wrapped)
            self._saved.append((cls, mname, own))
        self._install_realize()

    def _install_realize(self):
        cls = getattr(sys.modules.get("prodex.model"), "LazyPoint", None)
        raw = None if cls is None else cls.__dict__.get("coordinate")
        if raw is None:
            return
        tracer = self

        def coordinate(point, i):
            cache = getattr(point, "_cache", None)
            if cache is not None and i in cache:
                return raw(point, i)
            tracer.begin("model.realize")
            try:
                return raw(point, i)
            finally:
                tracer.end()
        cls.coordinate = coordinate
        self._saved.append((cls, "coordinate", raw))

    def uninstall(self):
        while self._saved:
            obj, attr, original = self._saved.pop()
            if original is None:
                delattr(obj, attr)  # the method was inherited
            else:
                setattr(obj, attr, original)

    # -- metrics -----------------------------------------------------------

    def count(self, name):
        st = self.stats.get(name)
        return st.count if st else 0

    def mean_us(self, name):
        n = self.count(name)
        return self.stats[name].total / n / 1e3 if n else None


def _ratio(num, den):
    return None if not den else num / den


def layer_metrics(t: Tracer) -> dict:
    """Per-layer metrics of one tracer; None where the layer was not used."""
    c, ops = t.counters, t.ops
    units = sum(op["units"] for op in ops)
    m = {}
    load = t.mean_us("scenario.load")
    m["scenario.load_ms"] = None if load is None else load / 1e3
    m["cli.self_ms"] = (statistics.median(op["self_ns"] for op in ops) / 1e6
                        if ops else None)
    m["cli.report_kb"] = (statistics.fmean(op["report_bytes"] for op in ops)
                          / 1e3 if ops else None)
    m["model.realize_us"] = t.mean_us("model.realize")
    m["model.hybrid_us"] = t.mean_us("model.hybrid")
    calls = t.count("engine.expect")
    m["engine.oracle_calls"] = _ratio(c["oracle_calls"], units) if calls else None
    for family in ("discounted_sum", "product_indicator"):
        n = c[f"oracle_count.{family}"]
        m[f"engine.oracle_us.{family}"] = _ratio(c[f"oracle_ns.{family}"] / 1e3, n)
    m["engine.generic_nodes"] = (_ratio(c["generic_nodes"], units)
                                 if c["generic_calls"] else None)
    m["engine.generic_us_per_node"] = _ratio(c["generic_ns"] / 1e3,
                                             c["generic_nodes"])
    m["engine.budget_exhausted"] = (_ratio(c["budget_exhausted"], units)
                                    if calls else None)
    for family in ("cylinder", "discounted_sum", "product_indicator"):
        m[f"functions.bounds_over_us.{family}"] = t.mean_us(
            f"functions.bounds_over.{family}")
    m["functions.eval_soft_us"] = t.mean_us("functions.eval_soft")
    finds = t.durations.get("martingale.find")
    if finds and len(finds) >= 2:
        q = statistics.quantiles(finds, n=10)
        m["martingale.find_us.p50"] = statistics.median(finds) / 1e3
        m["martingale.find_us.p90"] = q[8] / 1e3
    else:
        m["martingale.find_us.p50"] = m["martingale.find_us.p90"] = None
    gn = t.edges.get(("martingale.find", "martingale.g_n"))
    m["martingale.gn_evals"] = _ratio(gn.count if gn else 0,
                                      t.count("martingale.find"))
    m["numeric.denom_bits_max"] = c["denom_bits_max"] if calls else None
    hulls = t.count("tailclass.hull")
    evals = sum(st.count for (parent, name), st in t.edges.items()
                if parent == "tailclass.hull"
                and name.startswith("functions."))
    m["tailclass.hull_us"] = t.mean_us("tailclass.hull")
    m["tailclass.hull_evals"] = _ratio(evals, hulls)
    m["tailclass.exhaustive_frac"] = _ratio(c["hull_exhaustive"], hulls)
    m["tailclass.straddle_ratio"] = _ratio(c["straddles"], hulls)
    m["tailclass.construct_us"] = t.mean_us("tailclass.construct")
    ref = t.edges.get(("harness.verify", "engine.expect"))
    m["harness.reference_ms"] = (ref.total / ref.count / 1e6
                                 if ref and ref.count else None)
    purify = t.mean_us("games.purify")
    m["games.purify_ms"] = None if purify is None else purify / 1e3
    m["games.purify_attempts"] = _ratio(c["purify_attempts"],
                                        t.count("games.purify"))
    naming = [op for op in ops if op["profiles"]]
    profile_ns = sum(op["ns"] - op["children"].get("scenario.load", 0)
                     - op["children"].get("games.naming_value", 0)
                     for op in naming)
    m["games.naming_profile_us"] = _ratio(
        profile_ns / 1e3, sum(op["profiles"] for op in naming))
    return m
