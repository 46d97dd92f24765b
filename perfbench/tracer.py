"""Outside-in tracer: spans recorded around the program's own functions.

The tracer never edits the program.  :meth:`Tracer.install` replaces a
function at every name its callers bind -- the defining module's
attribute, each module global that a ``from ... import`` copied, and
each class (or subclass) attribute holding it -- with a wrapper that
records one span per call, and :meth:`Tracer.uninstall` puts every
original back.

Spans live in memory until the run ends.  Each keeps its name, start,
end, parent span (the enclosing span on the same thread) and the op id
the benchmark set when the span began.  Stacks are thread-local because
the simulated ranks are threads.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, NamedTuple


class Span(NamedTuple):
    """One timed call; ``parent`` is a span id or None at a thread root."""

    id: int
    name: str
    start: float
    end: float
    parent: int | None
    op: int
    thread: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function to wrap, by ``module`` and ``attr``.

    ``attr`` is ``"func"`` for a module function or ``"Class.method"``
    for a method; a method is wrapped on the class and on every
    subclass that overrides it, all under the same span name.  ``hook``
    runs after each call as ``hook(tracer, args, result, exc)`` and may
    add to the tracer's counters.  With ``span=False`` only the hook
    runs; coroutines that interleave on one thread use this, because a
    thread-local stack cannot hold their spans.
    """

    name: str
    module: str
    attr: str
    hook: Callable | None = None
    span: bool = True


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the part of it that child spans cover.

    Overlapping children are counted once and children are clipped to
    the parent's interval.
    """
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for a, b in sorted(children.get(s.id, ())):
            a = max(a, cursor)
            b = min(b, s.end)
            if b > a:
                covered += b - a
                cursor = b
        out[s.id] = s.duration - covered
    return out


class Tracer:
    """Span recorder plus the patch table that feeds it."""

    def __init__(self) -> None:
        #: Set by the benchmark before each op; stamped on new spans.
        self.op = 0
        self.spans: list[Span] = []
        #: op id -> counter name -> sum of what hooks added during it.
        self.counters: dict[int, dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[Any, str, Any]] = []

    # -- recording ----------------------------------------------------
    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> tuple[int, int | None, int, float]:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else None
        stack.append(sid)
        return sid, parent, self.op, time.perf_counter()

    def end(self, name: str, token: tuple) -> None:
        end = time.perf_counter()
        sid, parent, op, start = token
        self._stack().pop()
        self.spans.append(
            Span(sid, name, start, end, parent, op, threading.get_ident())
        )

    def add(self, counter: str, value: float) -> None:
        with self._lock:
            self.counters[self.op][counter] += value

    def total(self, counter: str) -> float:
        """``counter`` summed over every op."""
        return sum(c.get(counter, 0.0) for c in self.counters.values())

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def wrap(self, name: str, fn: Callable, hook=None, span=True):
        """``fn`` with a span around every call (or only the hook)."""
        tracer = self
        if inspect.iscoroutinefunction(fn):
            if span:
                raise TypeError(f"{name}: coroutines take span=False")

            @functools.wraps(fn)
            async def async_hooked(*args, **kwargs):
                result = await fn(*args, **kwargs)
                hook(tracer, args, result, None)
                return result

            return async_hooked

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            token = tracer.begin() if span else None
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as e:
                exc = e
                raise
            finally:
                if token is not None:
                    tracer.end(name, token)
                if hook is not None:
                    hook(tracer, args, result, exc)

        return wrapper

    # -- patching -----------------------------------------------------
    def install(self, targets: list[Target]) -> None:
        """Wrap every target at every binding site in loaded modules."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        try:
            for t in targets:
                wrappers = {}
                for owner, attr, original in _binding_sites(t):
                    if id(original) not in wrappers:
                        wrappers[id(original)] = self.wrap(
                            t.name, original, t.hook, t.span
                        )
                    self._patched.append((owner, attr, original))
                    setattr(owner, attr, wrappers[id(original)])
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    # -- output -------------------------------------------------------
    def summary(self) -> dict[str, dict[str, float]]:
        """Span name -> calls, busy (inclusive) and self seconds."""
        selfs = self_times(self.spans)
        out: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0}
        )
        for s in self.spans:
            row = out[s.name]
            row["calls"] += 1
            row["busy_s"] += s.duration
            row["self_s"] += selfs[s.id]
        return dict(out)

    def op_counts(self) -> dict[int, dict]:
        """Op id -> span calls by name plus that op's counters.

        Counters are rounded to 1e-3: rank threads add fractional flop
        counts in no fixed order, and that order must not show.
        """
        out: dict[int, dict] = defaultdict(lambda: {"calls": {}})
        for s in self.spans:
            calls = out[s.op]["calls"]
            calls[s.name] = calls.get(s.name, 0) + 1
        for op, counters in self.counters.items():
            out[op].update((k, round(v, 3)) for k, v in counters.items())
        return dict(out)

    def write_chrome_trace(self, path) -> None:
        """All spans as Chrome trace-event JSON (opens in Perfetto),
        written one event at a time to keep memory flat."""
        origin = min((s.start for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write('{"displayTimeUnit": "ms", "traceEvents": [')
            for i, s in enumerate(self.spans):
                event = {
                    "name": s.name,
                    "ph": "X",
                    "ts": (s.start - origin) * 1e6,
                    "dur": s.duration * 1e6,
                    "pid": 1,
                    "tid": s.thread,
                    "args": {"id": s.id, "parent": s.parent, "op": s.op},
                }
                fh.write(("," if i else "") + json.dumps(event))
            fh.write("]}\n")


def _binding_sites(t: Target) -> list[tuple[Any, str, Any]]:
    """(owner, attribute, original) for every place ``t`` is bound."""
    module = importlib.import_module(t.module)
    if "." in t.attr:
        cls_name, meth = t.attr.split(".")
        base = getattr(module, cls_name)
        sites = []
        for cls in [base, *_subclasses(base)]:
            fn = cls.__dict__.get(meth)
            if fn is None:
                continue
            if not inspect.isfunction(fn):
                raise TypeError(f"{cls.__name__}.{meth} is not a function")
            sites.append((cls, meth, fn))
        if not sites:
            raise AttributeError(f"{t.module}.{t.attr} not found")
        return sites
    original = getattr(module, t.attr)
    if not callable(original):
        raise TypeError(f"{t.module}.{t.attr} is not callable")
    sites = []
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(mod).items()):
            if value is original:
                sites.append((mod, key, original))
    return sites


def _subclasses(cls: type) -> list[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out
