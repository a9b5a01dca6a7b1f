"""Span recording for the traced benchmark run.

The benchmark wraps the public functions of each layer from the outside:
:func:`install` replaces a function with a timing wrapper in *every* loaded
``repro`` module (and class) that holds it, because callers often bind the
name at import time (``from repro.transforms.haar import haar_inverse``),
so patching only the defining module would record nothing.

Spans are kept in memory.  A layer's self time is its span's duration minus
the time of the spans nested directly inside it on the same thread; only
synchronous functions are wrapped, so nesting on a thread is exact.
Coroutine functions get a detached span (wall time across ``await``s, not
nested, never subtracted from anything).
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Span names whose time is spent waiting on another process (the load
#: generator's client calls).  They are excluded from coverage.
REMOTE_PREFIX = "client."


class Tracer:
    """In-memory span and counter store for one process."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        # name -> [count, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        # (start, end) of spans that no other recorded span encloses.
        self.intervals: List[Tuple[float, float]] = []
        self._restore: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _stack(self) -> List[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, name: str, start: float, end: float, self_s: float, top: bool) -> None:
        with self._lock:
            entry = self.spans[name]
            entry[0] += 1
            entry[1] += self_s
            if top and not name.startswith(REMOTE_PREFIX):
                self.intervals.append((start, end))

    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += value

    def wrap(
        self,
        function: Callable,
        name: str,
        hook: Optional[Callable] = None,
    ) -> Callable:
        """A timing wrapper around ``function`` recording span ``name``.

        ``hook(tracer, args, kwargs)`` runs before each call and may add
        counters; if it returns a callable, that is called with the result
        after a call that returned.
        """
        if inspect.iscoroutinefunction(function):

            @functools.wraps(function)
            async def detached(*args, **kwargs):
                after = hook(self, args, kwargs) if hook is not None else None
                start = time.perf_counter()
                try:
                    result = await function(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    self._record(name, start, end, end - start, top=False)
                if after is not None:
                    after(result)
                return result

            return detached

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            after = hook(self, args, kwargs) if hook is not None else None
            stack = self._stack()
            start = time.perf_counter()
            stack.append(0.0)
            try:
                result = function(*args, **kwargs)
            finally:
                end = time.perf_counter()
                children = stack.pop()
                duration = end - start
                if stack:
                    stack[-1] += duration
                self._record(name, start, end, duration - children, top=not stack)
            if after is not None:
                after(result)
            return result

        return wrapper

    # ------------------------------------------------------------------
    # Installation
    # ------------------------------------------------------------------
    def install(self, targets) -> int:
        """Wrap every ``(owner, attribute, span, hook)`` target.

        The original object is replaced wherever a loaded ``repro`` module
        or class binds it under any name.  Returns the number of bindings
        patched; a target that patches nothing raises, so a renamed function
        fails loudly instead of silently recording no spans.
        """
        patched = 0
        for owner, attribute, span, hook in targets:
            original = owner.__dict__[attribute]
            unwrapped = original.__func__ if isinstance(original, staticmethod) else original
            wrapper = self.wrap(unwrapped, span, hook)
            if isinstance(original, staticmethod):
                wrapper = staticmethod(wrapper)
            hits = 0
            for holder in _holders():
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, value))
                        setattr(holder, key, wrapper)
                        hits += 1
            if hits == 0:
                raise RuntimeError(f"trace target {owner!r}.{attribute} is bound nowhere")
            patched += hits
        return patched

    def uninstall(self) -> None:
        for holder, key, value in reversed(self._restore):
            setattr(holder, key, value)
        self._restore.clear()

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def summary(self) -> dict:
        """JSON-ready spans, counters and merged top-level intervals."""
        with self._lock:
            return {
                "spans": {name: list(entry) for name, entry in self.spans.items()},
                "counters": dict(self.counters),
                "intervals": merge_intervals(self.intervals),
            }


def _holders():
    """Every loaded ``repro`` module plus the classes defined in them."""
    for module_name, module in list(sys.modules.items()):
        if module is None or not (module_name == "repro" or module_name.startswith("repro.")):
            continue
        yield module
        for value in list(vars(module).values()):
            if isinstance(value, type) and value.__module__ == module_name:
                yield value


def merge_intervals(intervals) -> List[List[float]]:
    merged: List[List[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return merged


def covered_seconds(intervals, window_start: float, window_end: float) -> float:
    """Seconds of ``[window_start, window_end]`` covered by the union."""
    total = 0.0
    for start, end in merge_intervals(intervals):
        lo, hi = max(start, window_start), min(end, window_end)
        if hi > lo:
            total += hi - lo
    return total
