"""Outside-in tracer for the zdsemigroups package.

The tracer edits no source.  At run time it replaces selected
cross-module names with timing wrappers and puts the originals back
afterwards.  ``from .tables import is_zd_semigroup`` copies the
reference into the importing module, so a function is replaced in every
package module that bound the same object; methods are replaced once,
on their class.

Spans are kept in memory as ``[name, parent index, start, end]``.
``summary()`` reduces them to per-name totals that can be summed across
processes:

- ``calls``: number of spans;
- ``s``: inclusive time, counting only spans with no same-named
  ancestor, so recursion is not counted twice;
- ``self_s``: span time minus the time of its direct child spans;
- ``under["A>B"]``: number of B spans with an A span among their
  ancestors.

Spans recorded in forked pool workers stay in the workers; only the
process that calls ``summary()`` reports.
"""

from __future__ import annotations

import functools
import importlib
import math
import sys
from collections import Counter
from time import perf_counter

PACKAGE = "zdsemigroups"
MODULES = ("tables", "graphs", "search", "classify", "counting", "reports", "cli")


def _count_enumerate(counters, args, kwargs, result):
    from zdsemigroups.search import seed_partial_table

    target = args[0] if args else kwargs["target"]
    sizes = [len(d) for d in seed_partial_table(target).domains]
    if kwargs.get("root_values") is not None:
        sizes[0] = len(kwargs["root_values"])
    counters["search.prune_free_leaves"] += math.prod(sizes)
    counters["search.leaves_accepted"] += result


def _count_insert(counters, args, kwargs, result):
    counters["classify.new_classes"] += int(result)


def _count_cache_get(counters, args, kwargs, result):
    counters["reports.cache_hits" if result is not None else "reports.cache_misses"] += 1


# (span name, module, attribute or Class.method, counter hook run on return)
PROBES = (
    ("search.enumerate", "search", "enumerate_labeled", _count_enumerate),
    ("search.oracle", "search", "oracle_classes", None),
    ("tables.zd_check", "tables", "is_zd_semigroup", None),
    ("tables.assoc", "tables", "check_associativity", None),
    ("graphs.zd_graph", "graphs", "build_zd_graph", None),
    ("graphs.recognize", "graphs", "recognize_target", None),
    ("classify.pinned", "classify", "pendant_pinned_key", None),
    ("classify.canonical", "classify", "canonical_form", None),
    ("classify.insert", "classify", "ClassCatalog.insert", _count_insert),
    ("counting.gen_zero", "counting", "generate_pendant_square_zero", None),
    ("counting.gen_self", "counting", "generate_pendant_square_self", None),
    ("counting.gen_attach", "counting", "generate_pendant_square_attach", None),
    ("counting.gen_other", "counting", "generate_pendant_square_other", None),
    ("counting.gen_clique", "counting", "generate_clique_classes", None),
    ("counting.formula", "counting", "clique_class_count", None),
    ("counting.formula", "counting", "pendant_total_formula", None),
    ("reports.count_report", "reports", "build_count_report", None),
    ("reports.verify", "reports", "run_verification", None),
    ("reports.cache_get", "reports", "ResultsCache.get_catalog", _count_cache_get),
    ("reports.cache_put", "reports", "ResultsCache.put_catalog", None),
    ("reports.export", "reports", "write_catalog", None),
    ("cli.main", "cli", "main", None),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def _wrap(self, name, fn, count):
        spans, stack, counters = self.spans, self._stack, self.counters

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else -1, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            span[2] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr, value):
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every probed name in every package module that bound it."""
        if self._patched:
            raise RuntimeError("tracer is already installed")
        for mod in MODULES:
            importlib.import_module(f"{PACKAGE}.{mod}")
        package_modules = [
            mod for name, mod in list(sys.modules.items())
            if name == PACKAGE or name.startswith(PACKAGE + ".")
        ]
        for span, mod, attr, count in PROBES:
            owner = sys.modules[f"{PACKAGE}.{mod}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(owner, cls_name)
                self._patch(cls, method, self._wrap(span, cls.__dict__[method], count))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(span, original, count)
            for module in package_modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, name, wrapper)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def summary(self) -> dict:
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: dict[str, dict] = {}
        under: Counter = Counter()
        # lineage[i]: names of span i and all its ancestors
        lineage: list[frozenset] = []
        for i, (name, parent, start, end) in enumerate(spans):
            above = lineage[parent] if parent >= 0 else frozenset()
            lineage.append(above | {name})
            entry = totals.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            duration = end - start
            entry["calls"] += 1
            entry["self_s"] += duration - child_time[i]
            if name not in above:
                entry["s"] += duration
            for ancestor in above:
                under[f"{ancestor}>{name}"] += 1
        return {"spans": totals, "counters": dict(self.counters), "under": dict(under)}


def merge_summaries(summaries) -> dict:
    """Sum per-process summaries (for a session of several processes)."""
    out = {"spans": {}, "counters": Counter(), "under": Counter()}
    for summary in summaries:
        for name, entry in summary["spans"].items():
            total = out["spans"].setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0})
            for key, value in entry.items():
                total[key] += value
        out["counters"].update(summary["counters"])
        out["under"].update(summary["under"])
    return {"spans": out["spans"], "counters": dict(out["counters"]), "under": dict(out["under"])}
