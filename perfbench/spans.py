"""Spans and counters around the public functions of each bircharts module.

Tracing is installed from outside the package: each wrapper replaces the
original wherever a caller looks the name up (the defining module, every
module that imported it by name, and the package namespace), and class
methods are replaced on the class.  No source file of the package changes.

A span is (name, start, end, parent span, op id).  Spans are kept in
memory as parallel arrays and written out once, when the run ends.  A
function that calls itself directly (the cofactor determinant) gets one
span for the outermost call; every call is still counted.

The RatFunc and MultiPoly operators are the boundary into the exact
kernel from every other module.  They are too hot for a span per call, so
all operator calls that one span makes directly are summed into a single
child span ``exact_arith.arith``: its start is the first call and its
duration the sum of the calls.  Operators called from inside the kernel
are not traced separately; their time stays with the kernel span that
called them.  Calls never overlap in one thread, so self time is the
duration minus the sum of the children's durations.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
from array import array
from collections import Counter
from fractions import Fraction
from time import perf_counter

MODULES = ("exact_arith", "root_data", "sl_realization", "braid_engine",
           "membership", "exprparse", "cli")

# Functions that get a span, per module.  ``_det`` is the cofactor
# determinant behind gen_minor and GroupMatrix.inverse.
SPANNED = {
    "exact_arith": ("substitute", "poly_gcd", "ratfunc_normalize",
                    "poly_exact_div", "is_polynomial", "is_laurent_in"),
    "sl_realization": ("chart_U", "chart_GmodU", "chart_G", "lift", "generator",
                       "twist", "gen_minor", "gauss_decompose", "iota", "_det",
                       "GroupMatrix.det", "GroupMatrix.inverse",
                       "GroupMatrix.__matmul__"),
    "membership": ("decide_O_U", "decide_O_GmodU", "decide_O_G", "pullback_U",
                   "check_invariance"),
    "braid_engine": ("transition", "word_path", "apply_move"),
    "root_data": ("verify_lemmas", "cartan", "distinguished_word", "is_reduced",
                  "weyl_from_word"),
    "exprparse": ("parse_expression",),
    "cli": ("run_command",),
}

# Operators summed into one ``exact_arith.arith`` span per calling span.
ARITH = "exact_arith.arith"
OPERATORS = {
    "RatFunc": ("__init__", "__add__", "__radd__", "__neg__", "__sub__", "__rsub__",
                "__mul__", "__rmul__", "__truediv__", "__rtruediv__", "inv",
                "__pow__", "__eq__"),
    "MultiPoly": ("__add__", "__radd__", "__neg__", "__sub__", "__rsub__", "__mul__",
                  "__rmul__", "__pow__", "__eq__", "scale"),
}

# Functions that are only counted: too hot or too small for a span.
COUNTED = {
    "exact_arith.MultiPoly.__init__": "exact_arith.MultiPoly.constructed",
    "braid_engine.available_moves": "braid_engine.available_moves.calls",
}

CHART_BUILDS = ("sl_realization.chart_U", "sl_realization.chart_GmodU",
                "sl_realization.chart_G")


def _value_key(x):
    """Hashable value of a build argument: RatFuncs by universe and
    canonical text, torus points by their coordinates."""
    if isinstance(x, (int, str, Fraction)) or x is None:
        return x
    if isinstance(x, (list, tuple)):
        return tuple(_value_key(e) for e in x)
    if hasattr(x, "universe") and hasattr(x, "num"):
        return ("R", x.universe, str(x))
    if hasattr(x, "coords"):
        return ("T", _value_key(x.coords))
    return ("?", repr(x))


def _gcd_hook(tracer):
    def hook(args, kwargs):
        p, q = args[0], args[1]
        if not (p.is_const and q.is_const):
            tracer.counts["exact_arith.poly_gcd.nonconst"] += 1
    return hook


def _build_hook(tracer, group):
    seen = set()

    def hook(args, kwargs):
        key = (_value_key(args), _value_key(sorted(kwargs.items())))
        tracer.counts[f"{group}.builds"] += 1
        if key in seen:
            tracer.counts[f"{group}.repeats"] += 1
        else:
            seen.add(key)
    return hook


class Tracer:
    """In-memory spans and counters for one traced pass."""

    def __init__(self):
        self.names: list = []
        self._ids: dict = {}
        self.name = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.stack: list = []
        self.kernel_depth = 0
        self._arith: dict = {}  # calling span -> its exact_arith.arith span
        self.op_id = -1
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.import_s: list = []
        self._installed: list = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int, t: float) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.op.append(self.op_id)
        self.start.append(t)
        self.end.append(t)
        return i

    def span(self, name: str, fn, hook=None):
        nid = self.name_id(name)
        kernel = name.startswith("exact_arith.")
        calls, stack, names, ends = self.calls, self.stack, self.name, self.end

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] += 1
            if hook is not None:
                hook(args, kwargs)
            if stack and names[stack[-1]] == nid:
                return fn(*args, **kwargs)
            i = self._open(nid, 0.0)
            stack.append(i)
            self.kernel_depth += kernel
            self.start[i] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                self.kernel_depth -= kernel
                stack.pop()
        return wrapper

    def arith(self, fn):
        """Operator wrapper: outside the kernel, add the call's duration to
        the calling span's single ``exact_arith.arith`` child."""
        nid = self.name_id(ARITH)
        calls, stack, ends, children = self.calls, self.stack, self.end, self._arith

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.kernel_depth:
                return fn(*args, **kwargs)
            calls[ARITH] += 1
            key = stack[-1] if stack else (-1, self.op_id)
            i = children.get(key)
            if i is None:
                i = children[key] = self._open(nid, perf_counter())
            stack.append(i)
            self.kernel_depth += 1
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] += perf_counter() - t0
                self.kernel_depth -= 1
                stack.pop()
        return wrapper

    def counter(self, metric: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[metric] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation --------------------------------------------------

    def install(self, package) -> None:
        """Wrap every target; ``package`` is the imported bircharts package."""
        mods = {m: importlib.import_module(f"{package.__name__}.{m}") for m in MODULES}
        namespaces = [package, *mods.values()]
        hooks = {"exact_arith.poly_gcd": _gcd_hook(self),
                 "sl_realization.lift": _build_hook(self, "sl_realization.lift")}
        chart_hook = _build_hook(self, "sl_realization.chart")
        for name in CHART_BUILDS:
            hooks[name] = chart_hook
        for module, fns in SPANNED.items():
            for fn in fns:
                full = f"{module}.{fn}"
                self._wrap(mods[module], fn, namespaces,
                           lambda orig, full=full: self.span(full, orig, hooks.get(full)))
        for cls_name, attrs in OPERATORS.items():
            cls = getattr(mods["exact_arith"], cls_name)
            for attr in attrs:
                if attr in cls.__dict__:
                    self._wrap(mods["exact_arith"], f"{cls_name}.{attr}", namespaces,
                               self.arith)
        for full, metric in COUNTED.items():
            module, fn = full.split(".", 1)
            self._wrap(mods[module], fn, namespaces,
                       lambda orig, metric=metric: self.counter(metric, orig))

    def _wrap(self, module, dotted: str, namespaces, make) -> None:
        if "." in dotted:
            cls_name, attr = dotted.split(".")
            cls = getattr(module, cls_name)
            orig = cls.__dict__[attr]
            setattr(cls, attr, make(orig))
            self._installed.append((cls, attr, orig))
            return
        orig = getattr(module, dotted)
        wrapped = make(orig)
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is orig:
                    setattr(ns, attr, wrapped)
                    self._installed.append((ns, attr, orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._installed):
            setattr(owner, attr, orig)
        self._installed.clear()

    # -- export and merge ----------------------------------------------

    def to_dict(self) -> dict:
        return {
            "names": self.names,
            "name": list(self.name), "start": list(self.start),
            "end": list(self.end), "parent": list(self.parent),
            "op": list(self.op),
            "calls": dict(self.calls), "counts": dict(self.counts),
            "import_s": self.import_s,
        }

    def merge(self, data: dict, op_id: int) -> None:
        """Append a child process's trace, re-basing its span indices and
        tagging every span with ``op_id``."""
        base = len(self.start)
        ids = [self.name_id(n) for n in data["names"]]
        self.name.extend(ids[k] for k in data["name"])
        self.start.extend(data["start"])
        self.end.extend(data["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in data["parent"])
        self.op.extend(op_id for _ in data["op"])
        self.calls.update(data["calls"])
        self.counts.update(data["counts"])
        self.import_s.extend(data["import_s"])

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, separators=(",", ":"))


# -- derived figures --------------------------------------------------------


def self_times(start, end, parent) -> list:
    """Each span's duration minus the durations of its direct children."""
    own = [e - s for s, e in zip(start, end)]
    out = list(own)
    for c, p in enumerate(parent):
        if p >= 0:
            out[p] -= own[c]
    return out


def self_by_name(tracer: Tracer) -> dict:
    totals: Counter = Counter()
    names = tracer.names
    for nid, s in zip(tracer.name, self_times(tracer.start, tracer.end, tracer.parent)):
        totals[names[nid]] += s
    return totals


def inclusive_by_name(tracer: Tracer) -> dict:
    """Time inside each function, counting a nest of same-name spans once."""
    totals: Counter = Counter()
    names, parent = tracer.name, tracer.parent
    for i in range(len(names)):
        p = parent[i]
        while p >= 0 and names[p] != names[i]:
            p = parent[p]
        if p < 0:
            totals[tracer.names[names[i]]] += tracer.end[i] - tracer.start[i]
    return totals


def ratio(num: float, base: float) -> float:
    return num / base if base else 0.0


def per_layer_metric_names() -> list:
    """Every per-layer metric, in the order printed, with its unit."""
    out = []
    for module, fns in SPANNED.items():
        for fn in fns:
            out.append((f"{module}.{fn}.calls", "count"))
            out.append((f"{module}.{fn}.self_s", "s"))
    out += [(f"{ARITH}.calls", "count"), (f"{ARITH}.self_s", "s"),("exact_arith.MultiPoly.constructed", "count"),
            ("exact_arith.poly_gcd.nonconst_ratio", "ratio"),
            ("sl_realization.chart.builds", "count"),
            ("sl_realization.chart.repeat_ratio", "ratio"),
            ("sl_realization.lift.repeat_ratio", "ratio"),
            ("braid_engine.available_moves.calls", "count"),
            ("cli.import_s", "s")]
    out += [(f"{m}.op_share", "ratio") for m in MODULES]
    out.append(("bench.trace_overhead", "ratio"))
    return out


def per_layer_metrics(tracer: Tracer, op_time: float, overhead: float) -> dict:
    selfs = self_by_name(tracer)
    calls, counts = tracer.calls, tracer.counts
    values = {}
    for module, fns in SPANNED.items():
        for fn in fns:
            values[f"{module}.{fn}.calls"] = calls[f"{module}.{fn}"]
            values[f"{module}.{fn}.self_s"] = selfs[f"{module}.{fn}"]
    values[f"{ARITH}.calls"] = calls[ARITH]
    values[f"{ARITH}.self_s"] = selfs[ARITH]
    values["exact_arith.MultiPoly.constructed"] = counts["exact_arith.MultiPoly.constructed"]
    values["exact_arith.poly_gcd.nonconst_ratio"] = ratio(
        counts["exact_arith.poly_gcd.nonconst"], calls["exact_arith.poly_gcd"])
    values["sl_realization.chart.builds"] = counts["sl_realization.chart.builds"]
    values["sl_realization.chart.repeat_ratio"] = ratio(
        counts["sl_realization.chart.repeats"], counts["sl_realization.chart.builds"])
    values["sl_realization.lift.repeat_ratio"] = ratio(
        counts["sl_realization.lift.repeats"], counts["sl_realization.lift.builds"])
    values["braid_engine.available_moves.calls"] = counts["braid_engine.available_moves.calls"]
    values["cli.import_s"] = statistics.median(tracer.import_s) if tracer.import_s else 0.0
    for share_module, share in module_shares(selfs, op_time).items():
        values[f"{share_module}.op_share"] = share
    values["bench.trace_overhead"] = overhead
    return values


def module_shares(selfs: dict, op_time: float) -> dict:
    """Each module's self time as a share of the traced op time."""
    out = {m: 0.0 for m in MODULES}
    for name, s in selfs.items():
        module = name.split(".", 1)[0]
        if module in out:
            out[module] += s
    return {m: ratio(s, op_time) for m, s in out.items()}
