"""Per-layer timing by rebinding prymdice's module globals from outside.

The library is never edited.  ``Tracer.installed()`` looks each traced
name up in its prymdice module, rebinds every prymdice module global that
holds the same object to a timing wrapper, and puts the originals back on
exit.  Calls the library makes internally therefore go through the
wrappers too and become child spans of the calls around them.

Layer entry points record spans (name, start, end, parent, item).  The
exact-arithmetic kernels and the graph generators, which a corpus sweep
calls millions of times, are aggregated into counters keyed by phase,
name and enclosing span instead, so memory stays bounded.  A name the
library no longer has is recorded as absent rather than failing.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "prymdice"

SPANNED = (
    "segre.fixture",
    "segre.validate_basis_data",
    "prym.prym_dicing",
    "prym.x_minus",
    "prym.vologodsky_check",
    "homology.cographic_dicing_system",
    "homology.cycle_basis",
    "unimod.is_totally_unimodular",
    "unimod.systems_equivalent",
    "unimod.verify_equivalence",
    "unimod.is_cographic",
    "unimod.matroid_equivalent",
)

COUNTED = (
    "exactmat.det",
    "exactmat.hnf",
    "exactmat.rank",
    "exactmat.square_submatrices",
    "unimod.spanning_forest_count",
    "enumerate_graphs.all_multigraphs",
    "enumerate_graphs.connected_multigraphs_any_order",
    "enumerate_graphs.multigraphs_with_cycle_space_rank",
)

# Classes whose constructions are counted, under "<name>.new".
CONSTRUCTED = ("exactmat.IntMatrix",)

# Facts read off a span's return value: name -> ((fact, getter), ...).
OBSERVED = {
    "unimod.is_totally_unimodular": (("refuted", lambda r: not r.is_tu),),
    "prym.vologodsky_check": (("passed", lambda r: r.passed),),
    "unimod.is_cographic": (
        ("graphs_tried", lambda r: r.report.graphs_tried),
        ("forest_matches", lambda r: r.report.forest_count_matches),
    ),
}

TOP = "(item)"


class Tracer:
    """Spans and counters for one process; ``phase`` and ``item`` tag them."""

    def __init__(self, spanned=SPANNED, counted=COUNTED, constructed=CONSTRUCTED):
        self.targets = (spanned, counted, constructed)
        self.phase = "items"
        self.item = None
        self.spans: list[list] = []  # [name, start, end, parent index, item, phase]
        self.counters = defaultdict(lambda: [0, 0.0, 0])  # (phase, name, parent) -> calls, busy s, yielded
        self.observed = defaultdict(int)  # (phase, "name.fact") -> total
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- wrappers -----------------------------------------------------------

    def _parent(self) -> str:
        return self.spans[self._stack[-1]][0] if self._stack else TOP

    def _span(self, name, fn):
        facts = OBSERVED.get(name, ())

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, perf_counter(), None, self._stack[-1] if self._stack else None,
                      self.item, self.phase]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._stack.pop()
            for fact, get in facts:
                try:
                    self.observed[(self.phase, f"{name}.{fact}")] += int(get(result))
                except AttributeError:
                    pass  # the result no longer carries this fact
            return result

        return wrapper

    def _counter(self, name, fn):
        if inspect.isgeneratorfunction(fn):
            return self._generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                c = self.counters[(self.phase, name, self._parent())]
                c[0] += 1
                c[1] += perf_counter() - start

        return wrapper

    def _generator(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            c = self.counters[(self.phase, name, self._parent())]
            c[0] += 1
            gen = fn(*args, **kwargs)
            try:
                while True:
                    start = perf_counter()
                    try:
                        value = next(gen)
                    except StopIteration:
                        c[1] += perf_counter() - start
                        return
                    c[1] += perf_counter() - start
                    c[2] += 1
                    yield value
            finally:
                gen.close()

        return wrapper

    def _constructor(self, name, init):
        @functools.wraps(init)
        def wrapper(obj, *args, **kwargs):
            self.counters[(self.phase, name + ".new", self._parent())][0] += 1
            return init(obj, *args, **kwargs)

        return wrapper

    # -- installation -------------------------------------------------------

    def _lookup(self, qualname):
        modname, attr = qualname.rsplit(".", 1)
        try:
            module = importlib.import_module(f"{PACKAGE}.{modname}")
        except ImportError:
            return None
        return getattr(module, attr, None)

    def _rebind(self, qualname, make):
        original = self._lookup(qualname)
        if not callable(original):
            self.absent.append(qualname)
            return
        wrapper = make(qualname, original)
        for module in list(sys.modules.values()):
            modname = getattr(module, "__name__", None)
            if not isinstance(modname, str) or modname.split(".")[0] != PACKAGE:
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    self._restore.append((module, key, original, True))

    def _rebind_init(self, qualname):
        cls = self._lookup(qualname)
        if not isinstance(cls, type):
            self.absent.append(qualname)
            return
        own = "__init__" in vars(cls)
        original = vars(cls).get("__init__")
        cls.__init__ = self._constructor(qualname, cls.__init__)
        self._restore.append((cls, "__init__", original, own))

    def uninstall(self):
        while self._restore:
            target, key, original, own = self._restore.pop()
            if own:
                setattr(target, key, original)
            else:
                delattr(target, key)

    @contextmanager
    def installed(self):
        spanned, counted, constructed = self.targets
        self.absent = []
        try:
            for qualname in spanned:
                self._rebind(qualname, self._span)
            for qualname in counted:
                self._rebind(qualname, self._counter)
            for qualname in constructed:
                self._rebind_init(qualname)
            yield self
        finally:
            self.uninstall()

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """JSON-ready totals; summaries of several processes add up with ``merge``."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _, _ in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        spans = defaultdict(lambda: [0, 0.0, 0.0])
        for (name, start, end, _, _, phase), inner in zip(self.spans, child_time):
            s = spans[(phase, name)]
            s[0] += 1
            s[1] += end - start
            s[2] += end - start - inner
        return {
            "spans": [[*key, *value] for key, value in sorted(spans.items())],
            "counters": [[*key, *value] for key, value in sorted(self.counters.items())],
            "observed": [[*key, value] for key, value in sorted(self.observed.items())],
            "absent": sorted(set(self.absent)),
        }


def merge(summaries) -> dict:
    """Add up summaries from several processes."""
    spans = defaultdict(lambda: [0, 0.0, 0.0])
    counters = defaultdict(lambda: [0, 0.0, 0])
    observed = defaultdict(int)
    absent = set()
    for s in summaries:
        for phase, name, *values in s["spans"]:
            spans[(phase, name)] = [a + b for a, b in zip(spans[(phase, name)], values)]
        for phase, name, parent, *values in s["counters"]:
            key = (phase, name, parent)
            counters[key] = [a + b for a, b in zip(counters[key], values)]
        for phase, key, value in s["observed"]:
            observed[(phase, key)] += value
        absent.update(s["absent"])
    return {
        "spans": [[*k, *v] for k, v in sorted(spans.items())],
        "counters": [[*k, *v] for k, v in sorted(counters.items())],
        "observed": [[*k, v] for k, v in sorted(observed.items())],
        "absent": sorted(absent),
    }


# Per-layer metrics: (name, unit, source, key).  Item-phase figures are
# divided by the number of traced items; "setup" figures are per run.
PER_LAYER = (
    ("cli.import_s", "s", "given", "import_s"),
    ("segre.fixture.s", "s/item", "span_s", "segre.fixture"),
    ("segre.validate_basis_data.s", "s/item", "span_s", "segre.validate_basis_data"),
    ("prym.prym_dicing.calls", "count/item", "span_calls", "prym.prym_dicing"),
    ("prym.prym_dicing.s", "s/item", "span_s", "prym.prym_dicing"),
    ("prym.prym_dicing.self_s", "s/item", "span_self", "prym.prym_dicing"),
    ("prym.x_minus.s", "s/item", "span_s", "prym.x_minus"),
    ("prym.vologodsky_check.calls", "count/item", "span_calls", "prym.vologodsky_check"),
    ("prym.vologodsky_check.s", "s/item", "span_s", "prym.vologodsky_check"),
    ("prym.vologodsky_check.passed", "count/item", "observed", "prym.vologodsky_check.passed"),
    ("homology.cographic_dicing_system.calls", "count/item", "span_calls",
     "homology.cographic_dicing_system"),
    ("homology.cographic_dicing_system.s", "s/item", "span_s", "homology.cographic_dicing_system"),
    ("homology.cographic_dicing_system.self_s", "s/item", "span_self",
     "homology.cographic_dicing_system"),
    ("homology.cycle_basis.s", "s/item", "span_s", "homology.cycle_basis"),
    ("unimod.is_totally_unimodular.calls", "count/item", "span_calls",
     "unimod.is_totally_unimodular"),
    ("unimod.is_totally_unimodular.s", "s/item", "span_s", "unimod.is_totally_unimodular"),
    ("unimod.is_totally_unimodular.refuted", "count/item", "observed",
     "unimod.is_totally_unimodular.refuted"),
    ("unimod.square_submatrices.items", "count/item", "yielded", "exactmat.square_submatrices"),
    ("unimod.systems_equivalent.calls", "count/item", "span_calls", "unimod.systems_equivalent"),
    ("unimod.systems_equivalent.s", "s/item", "span_s", "unimod.systems_equivalent"),
    ("unimod.systems_equivalent.self_s", "s/item", "span_self", "unimod.systems_equivalent"),
    ("unimod.verify_equivalence.s", "s/item", "span_s", "unimod.verify_equivalence"),
    ("unimod.is_cographic.calls", "count/item", "span_calls", "unimod.is_cographic"),
    ("unimod.is_cographic.s", "s/item", "span_s", "unimod.is_cographic"),
    ("unimod.is_cographic.self_s", "s/item", "span_self", "unimod.is_cographic"),
    ("unimod.is_cographic.graphs_tried", "count/item", "observed",
     "unimod.is_cographic.graphs_tried"),
    ("unimod.is_cographic.forest_matches", "count/item", "observed",
     "unimod.is_cographic.forest_matches"),
    ("unimod.spanning_forest_count.calls", "count/item", "counter_calls",
     "unimod.spanning_forest_count"),
    ("unimod.spanning_forest_count.s", "s/item", "counter_s", "unimod.spanning_forest_count"),
    ("unimod.matroid_equivalent.calls", "count/item", "span_calls", "unimod.matroid_equivalent"),
    ("unimod.matroid_equivalent.s", "s/item", "span_s", "unimod.matroid_equivalent"),
    ("enumerate_graphs.graphs", "count/item", "yielded", "enumerate_graphs."),
    ("enumerate_graphs.s", "s/item", "counter_s", "enumerate_graphs."),
    ("enumerate_graphs.all_multigraphs.s", "s", "setup_s", "enumerate_graphs.all_multigraphs"),
    ("enumerate_graphs.connected_multigraphs_any_order.s", "s", "setup_s",
     "enumerate_graphs.connected_multigraphs_any_order"),
    ("enumerate_graphs.multigraphs_with_cycle_space_rank.s", "s/item", "counter_s",
     "enumerate_graphs.multigraphs_with_cycle_space_rank"),
    ("exactmat.det.calls", "count/item", "counter_calls", "exactmat.det"),
    ("exactmat.det.s", "s/item", "counter_s", "exactmat.det"),
    ("exactmat.hnf.calls", "count/item", "counter_calls", "exactmat.hnf"),
    ("exactmat.hnf.s", "s/item", "counter_s", "exactmat.hnf"),
    ("exactmat.rank.calls", "count/item", "counter_calls", "exactmat.rank"),
    ("exactmat.IntMatrix.new", "count/item", "counter_calls", "exactmat.IntMatrix.new"),
    ("process.cpu_s", "s", "given", "cpu_s"),
    ("process.wait_s", "s", "given", "wait_s"),
    ("trace.items", "count", "given", "items"),
    ("trace.overhead_frac", "ratio", "given", "overhead_frac"),
)


def _matches(name, key):
    # a key ending in "." names every counter of that module
    return name.startswith(key) if key.endswith(".") else name == key


def per_layer_metrics(summary: dict, given: dict) -> tuple[dict, list]:
    """Per-layer metric values and the names whose library function is absent."""
    items = max(given["items"], 1)
    totals = defaultdict(float)
    for phase, name, calls, total, own in summary["spans"]:
        if phase == "items":
            totals[("span_calls", name)] += calls
            totals[("span_s", name)] += total
            totals[("span_self", name)] += own
    for phase, name, _parent, calls, busy, yielded in summary["counters"]:
        if phase == "items":
            totals[("counter_calls", name)] += calls
            totals[("counter_s", name)] += busy
            totals[("yielded", name)] += yielded
        elif phase == "setup":
            totals[("setup_s", name)] += busy
    for phase, key, value in summary["observed"]:
        if phase == "items":
            totals[("observed", key)] += value
    absent_sources = set(summary["absent"])
    metrics, absent = {}, []
    for name, unit, source, key in PER_LAYER:
        if source == "given":
            value = given[key]
        else:
            value = sum(v for (src, n), v in totals.items() if src == source and _matches(n, key))
            if source != "setup_s":
                value /= items
            owner = key.rsplit(".", 1)[0] if source == "observed" else key.removesuffix(".new")
            if owner in absent_sources:
                absent.append(name)
        metrics[name] = {"value": value, "unit": unit}
    return metrics, absent
