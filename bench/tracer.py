"""Span tracing of ``lmbd``'s public functions, installed from outside.

``Tracer.install`` replaces every public function (one named in its
module's ``__all__``) on every ``lmbd`` module attribute that refers to
it, including the names other modules bind with ``from .core import
pmf``, so internal calls are traced too.  No file of the library
changes.  Spans are kept in memory as

    (span_id, parent_id, name, start_s, end_s, iterations)

with ``parent_id`` -1 at the top, and written out by the caller when the
run ends.  ``iterations`` is read from results that carry it (FitResult).
"""

from __future__ import annotations

import functools
import inspect
import statistics
import sys
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._stack: list[int] = []
        self._next_id = 0

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, name, start, end,
                              getattr(result, "iterations", None)))

        return traced

    def install(self) -> None:
        """Wrap the public functions of every imported ``lmbd`` module."""
        import lmbd  # noqa: F401  (the package imports its submodules)

        modules = [m for key, m in list(sys.modules.items())
                   if key == "lmbd" or key.startswith("lmbd.")]
        wrappers = {}
        for m in modules:
            short = m.__name__.partition(".")[2]
            for attr in getattr(m, "__all__", ()):
                fn = getattr(m, attr, None)
                if short and inspect.isfunction(fn) and fn.__module__ == m.__name__:
                    wrappers[fn] = self._wrap(f"{short}.{attr}", fn)
        for m in modules:
            for attr, value in list(vars(m).items()):
                if inspect.isfunction(value) and value in wrappers:
                    setattr(m, attr, wrappers[value])


def _calls_per_ancestor(spans, ancestor: str, child: str) -> list[int]:
    """For each ``ancestor`` span, the number of ``child`` spans below it."""
    parent = {s[0]: s[1] for s in spans}
    counts = {s[0]: 0 for s in spans if s[2] == ancestor}
    for s in spans:
        if s[2] != child:
            continue
        p = s[1]
        while p != -1:
            if p in counts:
                counts[p] += 1
            p = parent.get(p, -1)
    return list(counts.values())


_SCALE = {"us": 1e6, "ms": 1e3, "s": 1.0}


def layer_metric(spans, metric: str) -> float:
    """Value of a per-layer metric ``<module>.<function>.<stat>``.

    Stats: ``calls``; ``p50_<unit>`` and ``max_<unit>`` of the span
    durations; ``self_s``, the summed self time; ``pmf_calls_per_fit``;
    ``iterations_p50``.  A span's self time is its duration minus the
    durations of its direct children.  A function that was never called
    reads 0.
    """
    layer, _, stat = metric.rpartition(".")
    mine = [s for s in spans if s[2] == layer]
    if not mine:
        return 0.0
    durations = [s[4] - s[3] for s in mine]
    if stat == "calls":
        return float(len(mine))
    if stat == "self_s":
        child_time: dict = {}
        for s in spans:
            child_time[s[1]] = child_time.get(s[1], 0.0) + s[4] - s[3]
        return sum(d - child_time.get(s[0], 0.0) for s, d in zip(mine, durations))
    if stat == "pmf_calls_per_fit":
        return float(statistics.median_low(_calls_per_ancestor(spans, layer, "core.pmf")))
    if stat == "iterations_p50":
        return float(statistics.median([s[5] for s in mine if s[5] is not None]))
    kind, _, unit = stat.partition("_")
    agg = {"p50": statistics.median, "max": max}[kind]
    return agg(durations) * _SCALE[unit]
