"""Outside-in tracing of the ringmoments layers.

The tracer never edits the library.  It replaces a public name with a
wrapper in every ``ringmoments`` module that holds a reference to it (so
``wg_class_table``, imported by both ``exact_moments`` and ``haar_moments``,
is traced whichever module calls it), keeps spans and counters in memory and
writes them out once, when the traced process exits.

A hook whose target no longer exists (renamed or removed by a later change)
is recorded as absent instead of failing the run.
"""

from __future__ import annotations

import atexit
import importlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable

PACKAGE = "ringmoments"


@dataclass(frozen=True)
class Hook:
    """One traced name.

    ``target`` is ``module:attribute`` or ``module:Class.method``.  ``span``
    hooks record a timed span per call; the others only count calls, for
    functions called hundreds of thousands of times.  ``observe`` sees the
    call's arguments and result and may bump counters.
    """

    name: str
    target: str
    span: bool = True
    observe: Callable | None = None


class Tracer:
    def __init__(self) -> None:
        # one span: [parent's index in spans or -1, hook name, start, end]
        self.spans: list[list] = []
        self.counts: dict[str, int] = {}
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._lru: dict[str, tuple[object, int]] = {}

    def bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _span_wrapper(self, hook: Hook, fn: Callable) -> Callable:
        spans, stack, name = self.spans, self._stack, hook.name
        observe = hook.observe

        def traced(*args, **kwargs):
            span = [stack[-1] if stack else -1, name, 0.0, 0.0]
            stack.append(len(spans))
            spans.append(span)
            self.bump(name + ".calls")
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            if observe is not None:
                observe(self, args, kwargs, result)
            return result

        return traced

    def _count_wrapper(self, hook: Hook, fn: Callable) -> Callable:
        counts, key = self.counts, hook.name + ".calls"
        counts.setdefault(key, 0)

        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, hooks: list[Hook]) -> None:
        for hook in hooks:
            module_name, _, path = hook.target.partition(":")
            try:
                owner = importlib.import_module(module_name)
                *outer, attr = path.split(".")
                for part in outer:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(hook.name)
                continue
            make = self._span_wrapper if hook.span else self._count_wrapper
            wrapper = make(hook, original)
            if hasattr(original, "cache_info"):
                self._lru[hook.name] = (original, original.cache_info().misses)
            if outer:
                # a method: replace it on its class, where every caller looks
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                mod_name = getattr(module, "__name__", "")
                if mod_name != PACKAGE and not mod_name.startswith(PACKAGE + "."):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def cache_builds(self) -> dict[str, int]:
        """Misses of each memoised hook since install: one miss, one build."""
        return {
            name: fn.cache_info().misses - start
            for name, (fn, start) in self._lru.items()
        }

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "counts": self.counts,
            "builds": self.cache_builds(),
            "absent": self.absent,
        }

    def write_at_exit(self, path: str) -> None:
        def write() -> None:
            with open(path, "w") as fh:
                json.dump(self.dump(), fh)

        atexit.register(write)


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per hook name: each span's duration minus the
    durations of its direct children.  Spans come from one call stack, so
    children never overlap."""
    totals: dict[str, float] = {}
    for parent, name, start, end in spans:
        totals[name] = totals.get(name, 0.0) + (end - start)
        if parent >= 0:
            parent_name = spans[parent][1]
            totals[parent_name] -= end - start
    return totals
