"""Span recorders wrapped around the program's public callables.

Nothing here touches ``src/``: :func:`install` replaces the public entry
points of each layer (module functions in every ``repro`` module that
imported them, and methods on their classes) with thin wrappers, and
:func:`uninstall` puts the originals back.

A span lives on a per-thread stack from call to return, holding its layer,
start, end and parent (the span below it on the stack).  When it closes,
its self time — its duration minus its children's — is folded into the
recorder's per-layer totals, so memory stays bounded however many spans a
run makes.  Coroutine entry points (the serve handlers) interleave on one
thread, so they are timed start to finish and never parent other spans.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from collections import deque
from typing import Callable, Dict, List, Tuple

perf_counter = time.perf_counter


class Recorder:
    """Per-layer self-time and call-count totals, plus coroutine durations."""

    def __init__(self) -> None:
        self.enabled = True
        self._local = threading.local()
        self._lock = threading.Lock()
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}  # inclusive, for unnested layers
        self.durations: Dict[str, List[float]] = {}
        # The last few oracles built, for their engines' mask-cache counters.
        self.oracles: deque = deque(maxlen=4)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def take(self) -> Tuple[Dict[str, float], Dict[str, int]]:
        """Return and reset the totals accumulated since the last take."""
        with self._lock:
            self_s, calls = self.self_s, self.calls
            self.self_s, self.calls, self.total_s = {}, {}, {}
            return self_s, calls

    def count(self, layer: str) -> None:
        with self._lock:
            self.calls[layer] = self.calls.get(layer, 0) + 1

    def wrap(self, layer: str, fn: Callable) -> Callable:
        if inspect.iscoroutinefunction(fn):
            return self._wrap_async(layer, fn)
        recorder = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not recorder.enabled:
                return fn(*args, **kwargs)
            stack = recorder._stack()
            frame = [0.0]  # children's total duration
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][0] += duration
                with recorder._lock:
                    recorder.self_s[layer] = (
                        recorder.self_s.get(layer, 0.0) + duration - frame[0]
                    )
                    recorder.calls[layer] = recorder.calls.get(layer, 0) + 1
                    recorder.total_s[layer] = (
                        recorder.total_s.get(layer, 0.0) + duration
                    )

        return span

    def _wrap_async(self, layer: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        async def span(*args, **kwargs):
            if not recorder.enabled:
                return await fn(*args, **kwargs)
            start = perf_counter()
            try:
                return await fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                with recorder._lock:
                    recorder.durations.setdefault(layer, []).append(duration)

        return span

    def counter(self, layer: str, fn: Callable) -> Callable:
        recorder = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if recorder.enabled:
                recorder.count(layer)
            return fn(*args, **kwargs)

        return counted

    def keep_oracle(self, fn: Callable) -> Callable:
        """Wrap ``CoverageOracle.__init__`` to remember the oracles built."""
        recorder = self

        @functools.wraps(fn)
        def init(oracle, *args, **kwargs):
            fn(oracle, *args, **kwargs)
            with recorder._lock:
                recorder.oracles.append(oracle)

        return init


def _targets():
    """``(layer, kind, owner, attribute)`` for every wrapped entry point.

    ``kind`` is ``"span"``, ``"count"`` or ``"oracle"``; ``owner`` is a class
    or a module (module functions are also re-pointed in every ``repro``
    module that imported them).
    """
    from repro.core.coverage import CoverageOracle
    from repro.core.dominance import MupDominanceIndex
    from repro.core.engine import planner
    from repro.core.engine.base import CoverageEngine
    from repro.core.incremental import IncrementalMupIndex
    from repro.core.mups import base as mups_base
    from repro.core.pattern import Pattern
    from repro.data.dataset import Dataset
    from repro.serve.service import CoverageService

    targets = [
        ("mups", "span", mups_base, "find_mups"),
        ("pattern.created", "count", Pattern, "__init__"),
        ("dominance", "span", MupDominanceIndex, "add"),
        ("dominance", "span", MupDominanceIndex, "dominated_by_any"),
        ("dominance", "span", MupDominanceIndex, "dominates_any"),
        ("coverage", "span", CoverageOracle, "coverage"),
        ("coverage", "span", CoverageOracle, "coverage_many"),
        ("engine.build", "span", CoverageOracle, "__init__"),
        ("engine.build", "oracle", CoverageOracle, "__init__"),
        ("planner", "span", planner, "plan_engine"),
        ("incremental.add_rows", "span", IncrementalMupIndex, "add_rows"),
        ("data.unique", "span", Dataset, "unique_rows"),
        ("data.fingerprint", "span", Dataset, "content_fingerprint"),
        ("serve.label", "span", CoverageService, "label"),
        ("serve.deliver", "span", CoverageService, "deliver"),
    ]
    engine_methods = ("match_mask", "count", "count_many", "restrict",
                      "restrict_children")
    pending, engines = [CoverageEngine], []
    while pending:
        cls = pending.pop()
        engines.append(cls)
        pending.extend(cls.__subclasses__())
    for cls in engines:
        for name in engine_methods:
            if name in cls.__dict__:
                targets.append(("engine", "span", cls, name))
    return targets


_installed: List[Tuple[object, str, object]] = []


def install(recorder: Recorder) -> None:
    """Wrap every target; call :func:`uninstall` before installing again."""
    if _installed:
        raise RuntimeError("trace wrappers are already installed")
    for layer, kind, owner, name in _targets():
        original = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if kind == "span":
            wrapped = recorder.wrap(layer, original)
        elif kind == "count":
            wrapped = recorder.counter(layer, original)
        else:
            wrapped = recorder.keep_oracle(original)
        if isinstance(owner, type):
            _installed.append((owner, name, original))
            setattr(owner, name, wrapped)
            continue
        for module in list(sys.modules.values()):
            module_name = getattr(module, "__name__", "") or ""
            if module_name.split(".")[0] != "repro":
                continue
            if module.__dict__.get(name) is original:
                _installed.append((module, name, original))
                setattr(module, name, wrapped)


def uninstall() -> None:
    while _installed:
        owner, name, original = _installed.pop()
        setattr(owner, name, original)
