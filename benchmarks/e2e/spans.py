"""Outside-in span recording: wrap public callables, measure, unwrap.

The benchmark may not edit ``src/``, so layers are measured from outside:
:func:`install` replaces a callable on its owner (a class or a module)
with a timing wrapper via ``setattr`` and :func:`uninstall` puts the
original object back.  Spans stay in memory and are written out by the
caller when the benchmark ends.

A span is ``(name, start, end, parent, ident, kind)`` plus two
accumulators:

* ``busy`` - seconds the span was actually *running*.  For a synchronous
  call that is ``end - start``.  A coroutine is driven step by step (each
  ``send`` into it is timed), so its busy time is the sum of its steps and
  excludes the time it sat suspended while other tasks ran; ``end - start``
  is its *elapsed* time.
* ``child`` - busy seconds of its direct children, so
  ``self = busy - child``.

One thread runs one span segment at a time and segments nest, so every
moment of the timed region is either some span's self time or *idle*: a
gap during which no wrapped callable runs on the main thread (asyncio,
sockets, the benchmark's own loop).  The recorder adds up the gaps from
their own stamps, apart from the per-span arithmetic, so "sum of self
times + idle = wall" is a check that can fail: a span left open, segments
that overlap or time recorded outside the region all break it.  Calls made
on other threads (the sharded server's executor hops) are recorded with
``kind="thread"`` and kept out of both sums: they are elapsed-only,
because they overlap the main thread.
"""

from __future__ import annotations

import inspect
import threading
import time
from dataclasses import dataclass

perf_counter = time.perf_counter


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    ident: object = None
    kind: str = "sync"  # "sync" | "async" | "thread"
    busy: float = 0.0
    child: float = 0.0

    @property
    def self_time(self) -> float:
        return self.busy - self.child

    @property
    def elapsed(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory span store with a per-thread stack of running segments."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Seconds of the timed region in which no span ran on the main
        #: thread: the gaps before, between and after the root segments.
        self.idle = 0.0
        #: Wrappers record only while this is set (see :meth:`begin`).
        self.active = False
        self._idle_since = 0.0
        self._main = threading.get_ident()
        self._local = threading.local()

    def begin(self) -> None:
        """The timed region starts: the workload's epoch calls this, and
        :meth:`end`, so set-up and shutdown stay out of the arithmetic."""
        self.active = True
        self._idle_since = perf_counter()

    def end(self) -> None:
        """The timed region is over (a second call changes nothing)."""
        if self.active:
            self.active = False
            if not self._stack():  # a span still open is not a gap
                self.idle += perf_counter() - self._idle_since

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, ident=None, kind: str = "sync") -> int:
        """Create a span; its parent is the segment running right now."""
        stack = self._stack()
        if threading.get_ident() != self._main:
            kind = "thread"
        span = Span(
            name=name,
            start=perf_counter(),
            parent=stack[-1] if stack else -1,
            ident=ident,
            kind=kind,
        )
        self.spans.append(span)
        return len(self.spans) - 1

    def enter(self, idx: int) -> float:
        """Start running a segment of span ``idx``; returns its start."""
        stack = self._stack()
        now = perf_counter()
        if not stack and threading.get_ident() == self._main:
            self.idle += now - self._idle_since
        stack.append(idx)
        return now

    def leave(self, idx: int, started: float, *, final: bool) -> None:
        """Stop the running segment of span ``idx``."""
        now = perf_counter()
        took = now - started
        stack = self._stack()
        stack.pop()
        span = self.spans[idx]
        span.busy += took
        if final:
            span.end = now
        if stack:
            self.spans[stack[-1]].child += took
        elif span.kind != "thread":
            self._idle_since = now

    # -- queries --------------------------------------------------------
    def named(self, name: str, under: str | None = None) -> list[Span]:
        """Spans called ``name``; ``under`` keeps only those whose direct
        parent is (``under``) or is not (``"!x"``) a span of that name."""
        out = [s for s in self.spans if s.name == name]
        if under is None:
            return out
        negate = under.startswith("!")
        wanted = under.lstrip("!")

        def parent_name(s: Span) -> str | None:
            return self.spans[s.parent].name if s.parent >= 0 else None

        return [s for s in out if (parent_name(s) == wanted) != negate]

    def total_self(self) -> float:
        """Sum of self time over every main-thread span."""
        return sum(s.self_time for s in self.spans if s.kind != "thread")

    def to_json(self) -> list[dict]:
        return [
            {
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "id": s.ident,
                "kind": s.kind,
                "busy": s.busy,
                "self": s.self_time,
            }
            for s in self.spans
        ]


class _TimedAwaitable:
    """Drives a coroutine step by step so each step can be timed."""

    __slots__ = ("_coro", "_rec", "_idx")

    def __init__(self, coro, rec: SpanRecorder, idx: int) -> None:
        self._coro = coro
        self._rec = rec
        self._idx = idx

    def __await__(self):
        rec, idx = self._rec, self._idx
        inner = self._coro.__await__()
        value = exc = None
        while True:
            started = rec.enter(idx)
            try:
                yielded = inner.send(value) if exc is None else inner.throw(exc)
            except StopIteration as stop:
                rec.leave(idx, started, final=True)
                return stop.value
            except BaseException:
                rec.leave(idx, started, final=True)
                raise
            rec.leave(idx, started, final=False)
            try:
                value, exc = (yield yielded), None
            except BaseException as raised:  # noqa: BLE001 - forwarded into the coroutine
                value, exc = None, raised


@dataclass(frozen=True)
class Target:
    """One callable to wrap: ``getattr(owner, attr)`` recorded as ``name``.

    ``name`` may be a function of the call's ``(args, kwargs)`` (e.g. the
    frame's sender, the pipeline's strategy); returning ``None`` skips the
    call.  ``ident`` likewise extracts a window/batch id or a size from the
    arguments, and ``result`` from the return value (synchronous calls).
    """

    owner: object
    attr: str
    name: object
    ident: object = None
    result: object = None


def _wrap(rec: SpanRecorder, target: Target, original):
    """The timing wrapper for ``original`` (a plain function)."""
    name_of = target.name if callable(target.name) else None
    fixed = None if name_of else target.name
    ident_of = target.ident
    result_of = target.result

    if inspect.iscoroutinefunction(original):

        def wrapper(*args, **kwargs):
            coro = original(*args, **kwargs)
            if not rec.active:
                return coro
            name = name_of(args, kwargs) if name_of else fixed
            if name is None:
                return coro
            ident = ident_of(args, kwargs) if ident_of else None
            return _TimedAwaitable(coro, rec, rec.open(name, ident, "async"))

    else:

        def wrapper(*args, **kwargs):
            if not rec.active:
                return original(*args, **kwargs)
            name = name_of(args, kwargs) if name_of else fixed
            if name is None:
                return original(*args, **kwargs)
            ident = ident_of(args, kwargs) if ident_of else None
            idx = rec.open(name, ident)
            started = rec.enter(idx)
            try:
                out = original(*args, **kwargs)
                if result_of is not None:
                    rec.spans[idx].ident = result_of(out)
                return out
            finally:
                rec.leave(idx, started, final=True)

    wrapper.__wrapped__ = original
    wrapper.__name__ = getattr(original, "__name__", target.attr)
    return wrapper


def install(rec: SpanRecorder, targets: list[Target]) -> list[tuple]:
    """Wrap every target; returns the undo list for :func:`uninstall`.

    The raw attribute is read from the owner's ``__dict__`` so that
    ``staticmethod``/``classmethod`` objects are put back exactly as they
    were, and rewrapped in kind.
    """
    undo: list[tuple] = []
    try:
        for target in targets:
            raw = vars(target.owner)[target.attr]
            if isinstance(raw, staticmethod):
                wrapped = staticmethod(_wrap(rec, target, raw.__func__))
            elif isinstance(raw, classmethod):
                raise TypeError(f"cannot wrap classmethod {target.attr}")
            else:
                wrapped = _wrap(rec, target, raw)
            setattr(target.owner, target.attr, wrapped)
            undo.append((target.owner, target.attr, raw))
    except BaseException:
        uninstall(undo)
        raise
    return undo


def uninstall(undo: list[tuple]) -> None:
    """Put every original object back (reverse order)."""
    for owner, attr, raw in reversed(undo):
        setattr(owner, attr, raw)
    undo.clear()
