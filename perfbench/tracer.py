"""Span tracing and timing marks for hybridreid, installed from outside the
package: nothing under ``src/`` is edited.

``Tracer`` wraps every public function defined in a ``hybridreid`` module at
every module attribute that binds it. ``cli`` and ``trainer`` import
``pseudo_label`` by name, so the wrapper replaces each of those bindings, and
every binding of one function shares one wrapper. ``MLPEncoder.forward`` and
``backward`` are wrapped on the class. Each call appends a span (name, start,
end, parent) to an in-memory list; ``summary()`` turns the spans into counts,
total and self times when the run ends.

``Marks`` records the few timestamps the end-to-end metrics need, with a
wrapper so thin that untraced runs pay nothing measurable for it.

All timestamps come from ``time.monotonic``, the system-wide
CLOCK_MONOTONIC on Linux, so a child process's marks compare with the
parent's spawn and exit times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import pkgutil
import time
import tracemalloc

clock = time.monotonic

PACKAGE = "hybridreid"
METHODS = (("encoder", "MLPEncoder", "forward"), ("encoder", "MLPEncoder", "backward"))
# Calls whose heap peak tracemalloc measures when the tracer tracks peaks.
# tracemalloc slows every Python allocation (DBSCAN's loop ~7x), so peaks
# are taken in other sessions than the timings.
PEAK_MEMORY_SPANS = ("clustering.pseudo_label",)


def _observe_labels(args, result):
    n = result.assignment.shape[0]
    return {"num_clusters": result.num_clusters,
            "kept_frac": (n - result.num_outliers) / n}


def _observe_batches(args, result):
    return {"batches": len(result)}


def _observe_rows(args, result):
    return {"rows": args[1].shape[0]}


# Values read from a call's arguments or result. A refactor that changes
# their shape drops the observation instead of failing the run.
OBSERVERS = {
    "clustering.pseudo_label": _observe_labels,
    "sampler.build_epoch_batches": _observe_batches,
    "encoder.MLPEncoder.forward": _observe_rows,
}


def package_modules(package=PACKAGE):
    """The package and every submodule, imported."""
    root = importlib.import_module(package)
    modules = [root]
    for info in pkgutil.iter_modules(root.__path__, package + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def span_name(fn) -> str:
    """``clustering.pseudo_label`` for hybridreid.clustering.pseudo_label."""
    module = fn.__module__.split(".", 1)[-1]
    return f"{module}.{fn.__qualname__}"


def public_functions(modules, package=PACKAGE):
    """Map each public package function to every (module, attribute) binding it."""
    bindings = {}
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if (inspect.isfunction(value) and not attr.startswith("_")
                    and not value.__name__.startswith("_")
                    and value.__module__.split(".")[0] == package):
                bindings.setdefault(value, []).append((mod, attr))
    return bindings


def rebind(bindings, make_wrapper):
    """Replace every binding of each function with one shared wrapper."""
    for fn, places in bindings.items():
        wrapper = make_wrapper(fn)
        for owner, attr in places:
            setattr(owner, attr, wrapper)


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self, track_peaks=False):
        self.track_peaks = track_peaks
        self.spans = []  # [name, start, end, parent index or -1]
        self.observations = {}  # span name -> list of observer dicts
        self.peaks = {}  # span name -> list of tracemalloc peaks in bytes
        self.installed = set()
        self._stack = []

    def wrap(self, name, fn):
        observe = OBSERVERS.get(name)
        track_peak = self.track_peaks and name in PEAK_MEMORY_SPANS
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            if track_peak:
                tracemalloc.start()
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                if track_peak:
                    self.peaks.setdefault(name, []).append(
                        tracemalloc.get_traced_memory()[1])
                    tracemalloc.stop()
            if observe is not None:
                try:
                    self.observations.setdefault(name, []).append(observe(args, result))
                except (AttributeError, TypeError, IndexError, ZeroDivisionError):
                    pass
            return result

        self.installed.add(name)
        return wrapper

    def install(self, modules, methods=METHODS):
        """Wrap every public function and the listed methods; a method that
        no longer exists is skipped, and shows up as absent in the summary."""
        rebind(public_functions(modules), lambda fn: self.wrap(span_name(fn), fn))
        by_name = {mod.__name__.split(".", 1)[-1]: mod for mod in modules}
        for module, cls_name, method in methods:
            cls = getattr(by_name.get(module), cls_name, None)
            fn = getattr(cls, method, None)
            if inspect.isfunction(fn):
                setattr(cls, method, self.wrap(span_name(fn), fn))

    def summary(self):
        return {
            "spans": self_times(self.spans),
            "observations": self.observations,
            "peaks": self.peaks,
            "installed": sorted(self.installed),
        }


def _covered(intervals, lo, hi):
    """Length of [lo, hi] covered by the union of ``intervals``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans):
    """Per span name: call count, total time, and self time (each span's
    duration minus the part of it that its child spans cover)."""
    children = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = {}
    for i, (name, start, end, _) in enumerate(spans):
        row = out.setdefault(name, {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(i, ()), start, end)
    return out


class Marks:
    """Entry and exit times of training and evaluation in one CLI run.

    ``eval_start`` is the first ``embed_all`` or ``evaluate_retrieval`` entry
    outside ``train``, so the evaluation window covers embedding the query and
    gallery sets plus the retrieval scoring.
    """

    def __init__(self):
        self.train_start = self.train_end = None
        self.eval_start = self.eval_end = None
        self._in_train = False

    def install(self, modules):
        rebind({fn: places for fn, places in public_functions(modules).items()
                if fn.__name__ in ("train", "embed_all", "evaluate_retrieval")},
               self._wrap)

    def _wrap(self, fn):
        kind = fn.__name__

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if kind == "train":
                self._in_train = True
                self.train_start = self.train_start or clock()
            elif not self._in_train:
                self.eval_start = self.eval_start or clock()
            try:
                return fn(*args, **kwargs)
            finally:
                if kind == "train":
                    self._in_train = False
                    self.train_end = clock()
                elif kind == "evaluate_retrieval":
                    self.eval_end = clock()

        return wrapper

    def as_dict(self):
        return {"train_start": self.train_start, "train_end": self.train_end,
                "eval_start": self.eval_start, "eval_end": self.eval_end}
