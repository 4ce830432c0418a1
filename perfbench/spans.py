"""In-memory span recorder that wraps the program's public functions.

Each span is ``(id, parent, name, start, end, request_id, attrs)``.  The
parent is the innermost open span of the same thread, and the request id
is inherited from it, so every span below ``PlannerApp.handle`` carries
the id of the request that caused it.  Spans stay in memory until the
run ends; :func:`self_times` derives per-span self time from them.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from typing import Any, Callable, Iterable, Sequence

Span = tuple  # (id, parent, name, start, end, request_id, attrs)


class Recorder:
    """Collects spans and counters from wrapped functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[Any, str, Any]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _patch(self, owner: Any, attr: str, original: Any, replacement: Any) -> None:
        setattr(owner, attr, replacement)
        self._undo.append((owner, attr, original))
        # Modules that imported the function by name hold their own
        # binding; rebind those too so every caller goes through the span.
        if callable(original) and not isinstance(owner, type):
            for module in list(sys.modules.values()):
                name = getattr(module, "__name__", "")
                if module is owner or not name.startswith("repro"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, replacement)
                        self._undo.append((module, key, original))

    def span(
        self,
        owner: Any,
        attr: str,
        name: str,
        *,
        attrs: Callable[[tuple, dict, Any], Any] | None = None,
        request_id: Callable[[tuple, dict], str | None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        recorder = self
        clock = time.perf_counter
        ids = self._ids
        spans = self.spans

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = recorder._stack()
            if stack:
                parent, rid = stack[-1]
            else:
                parent, rid = 0, None
            if request_id is not None:
                rid = request_id(args, kwargs) or rid
            sid = next(ids)
            stack.append((sid, rid))
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
            extra = attrs(args, kwargs, result) if attrs is not None else None
            spans.append((sid, parent, name, start, end, rid, extra))
            return result

        self._patch(owner, attr, original, wrapper)

    def count(self, owner: Any, attr: str, name: str) -> None:
        """Replace ``owner.attr`` with a wrapper that only bumps a counter."""
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        counters = self.counters

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            counters[name] += 1
            return result

        self._patch(owner, attr, original, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in children)
    total = 0.0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _name, start, end, _rid, _attrs in spans:
        if parent:
            children.setdefault(parent, []).append((start, end))
    return {
        sid: (end - start) - covered((start, end), children.get(sid, ()))
        for sid, _parent, _name, start, end, _rid, _attrs in spans
    }
