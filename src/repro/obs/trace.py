"""Low-overhead tracing: spans and tuple-lifecycle events in a ring buffer.

The paper's argument is a visibility argument — Data Triage trades *which*
tuples get exact treatment for bounded latency — and defending it requires
seeing where time and tuples go: queue wait, shed-to-synopsis, shadow-plan
cost, merge.  :class:`Tracer` records that story as

* **spans** — named durations (``drain``, ``exact``, ``shadow``,
  ``merge``, ``run``) with arbitrary JSON-safe args;
* **instants** — point events, most importantly tuple-lifecycle stages
  (``ingest`` → ``enqueue`` → ``shed``/``summarize`` → ``poll`` →
  ``window_close`` → ``emit``);
* **counters** — sampled numeric series (queue depth over time).

Events land in a bounded ring buffer (old events are discarded, with a
dropped-event count kept), so tracing a long run costs O(capacity) memory
no matter the workload.  Tuple-lifecycle events — the bulk of any trace —
are stored as compact ``(stage, source, t, clock, context, extra)`` records
and only become Chrome-trace dicts in :meth:`Tracer.events`, the one place
the ring is read.  A hot loop that can rebuild its events from what it
keeps anyway goes further: :meth:`Tracer.defer` holds one record that
counts as ``n`` events and is expanded only when the ring is read (the
simulator's replay derives its whole trace that way).  Two exports:

* :meth:`Tracer.to_chrome` — the Chrome trace-event JSON format
  (``{"traceEvents": [...]}``), loadable in Perfetto / ``chrome://tracing``;
* :meth:`Tracer.to_jsonl` — one JSON object per line, for ad-hoc grepping.

**No-op fast path.**  Hot loops must pay nothing when tracing is off:
:data:`NULL_TRACER` is a shared :class:`NullTracer` whose ``enabled`` is
False and whose ``span`` returns a reusable null context manager.
Instrumentation sites branch on the ``enabled``/``tuple_events`` booleans
before building event args.

**Cross-process propagation.**  A tuple's life now starts in a client
process and ends in a RESULT fan-out, so traces must survive the wire:

* :func:`new_trace_id` / :func:`new_span_id` mint the identifiers a
  :class:`~repro.service.client.TriageClient` attaches to PUBLISH frames;
* :meth:`Tracer.set_context` installs a ``{trace_id, parent}`` context that
  is merged into every event recorded until :meth:`Tracer.clear_context` —
  the server brackets a traced batch's ingest with it, so queue and window
  events downstream carry the client's trace_id without threading it
  through every call;
* :meth:`Tracer.flow` records Chrome flow events (``s``/``t``/``f``) keyed
  by trace_id, which Perfetto renders as arrows across process tracks;
* every tracer stamps a wall-clock ``epoch`` into metadata events, and
  :func:`merge_jsonl_traces` uses those anchors to rebase two sides'
  monotonic timestamps onto one axis (clock-offset alignment) and emit a
  single Perfetto-loadable document.
"""

from __future__ import annotations

import json
import os
import time
from collections import deque
from contextlib import nullcontext

__all__ = [
    "TraceError",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "new_trace_id",
    "new_span_id",
    "merge_jsonl_traces",
    "validate_chrome_trace",
]

#: Chrome trace-event phase codes used here.
_PH_COMPLETE = "X"
_PH_INSTANT = "i"
_PH_COUNTER = "C"
_PH_METADATA = "M"
#: Flow phases: start / step / end, joined by a shared ``id``.
_PH_FLOW = ("s", "t", "f")


def new_trace_id() -> str:
    """A fresh 16-hex-char trace identifier (random, collision-unlikely)."""
    return os.urandom(8).hex()


def new_span_id() -> str:
    """A fresh 8-hex-char span identifier."""
    return os.urandom(4).hex()


class TraceError(ValueError):
    """Raised when a trace document fails schema validation."""


class _Deferred:
    """``n`` ring events that ``expand`` builds when the ring is read.

    The first ``skip`` of them were evicted; the record leaves the ring
    once all ``n`` are.
    """

    __slots__ = ("expand", "n", "skip")

    def __init__(self, expand, n: int) -> None:
        self.expand = expand
        self.n = n
        self.skip = 0


class _Span:
    """Context manager recording one complete ("X") event on exit."""

    __slots__ = ("_tracer", "_name", "_cat", "_tid", "_args", "_t0")

    def __init__(self, tracer, name, cat, tid, args):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._tid = tid
        self._args = args

    def __enter__(self):
        self._t0 = self._tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb):
        tracer = self._tracer
        tracer._record(
            tracer._complete(
                self._name, self._t0, tracer._clock(), self._cat, self._tid
            ),
            self._args,
        )
        return False


class Tracer:
    """Span/instant/counter recorder over a bounded ring buffer."""

    enabled = True

    def __init__(
        self,
        capacity: int = 65536,
        *,
        tuple_events: bool = True,
        clock=time.perf_counter,
        pid: int = 1,
        label: str = "repro",
        epoch: float | None = None,
    ) -> None:
        """``capacity`` bounds retained events (oldest evicted first);
        ``tuple_events=False`` keeps spans but silences the per-tuple
        lifecycle instants, which dominate event volume on big runs.
        ``label`` names the process track in merged traces; ``epoch`` is the
        wall-clock (``time.time``) anchor paired with the monotonic clock's
        zero, used by :func:`merge_jsonl_traces` for cross-process
        alignment (defaults to the construction instant).
        """
        if capacity < 1:
            raise ValueError(f"tracer capacity must be >= 1: {capacity}")
        self.capacity = capacity
        self.tuple_events = tuple_events
        self.pid = pid
        self.label = label
        self._clock = clock
        self._t0 = clock()
        self.epoch = time.time() if epoch is None else epoch
        # Records oldest first; a deferred one holds several events, so
        # the ring counts the events it holds itself (``_held``).
        self._events: deque[dict | tuple | _Deferred] = deque()
        self._held = 0
        self.emitted = 0  # total events ever recorded (≥ len(events))
        self._context: dict | None = None
        self._drop_counter = None

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def _us(self, t: float) -> float:
        """Clock reading → microseconds since tracer start."""
        return (t - self._t0) * 1e6

    def _record(self, event: dict, args: dict | None) -> None:
        event["pid"] = self.pid
        ctx = self._context
        if ctx is not None:
            args = {**ctx, **args} if args else dict(ctx)
        if args:
            event["args"] = args
        self._push(event, 1)

    def _push(self, record, n: int) -> None:
        """Append a record of ``n`` events, evicting the oldest beyond capacity."""
        self._events.append(record)
        self.emitted += n
        held = self._held + n
        if held > self.capacity:
            self._evict(held - self.capacity)
            held = self.capacity
        self._held = held

    def _evict(self, k: int) -> None:
        """Drop the ``k`` oldest events; a deferred head may lose only some."""
        if self._drop_counter is not None:
            self._drop_counter.inc(float(k))
        events = self._events
        while k:
            head = events[0]
            if type(head) is _Deferred:
                left = head.n - head.skip
                if left > k:
                    head.skip += k
                    return
                k -= left
            else:
                k -= 1
            events.popleft()

    # ------------------------------------------------------------------
    # Cross-process context
    # ------------------------------------------------------------------
    def set_context(self, trace_id: str, parent: str | None = None) -> None:
        """Merge ``{trace_id, parent}`` into every event until cleared.

        Instrumentation downstream of the install site (queue events, window
        spans) then carries the originating client's identifiers without any
        per-call plumbing.  Contexts do not nest: the latest install wins.
        """
        ctx = {"trace_id": trace_id}
        if parent is not None:
            ctx["parent"] = parent
        self._context = ctx

    def clear_context(self) -> None:
        self._context = None

    def bind_drop_counter(self, counter) -> None:
        """Count ring-buffer evictions into ``counter`` (``.inc(k)`` with
        the number of events evicted, as a float) so overflow is visible in
        metrics, not just in the trace document's ``otherData``."""
        self._drop_counter = counter

    def flow(
        self,
        name: str,
        flow_id: str,
        phase: str = "s",
        cat: str = "flow",
        tid: int = 0,
        **args,
    ) -> None:
        """Record a flow event (``s`` start / ``t`` step / ``f`` end).

        Events sharing ``flow_id`` are drawn as arrows in Perfetto — the
        cross-process thread a merged client+server trace hangs on.
        """
        if phase not in _PH_FLOW:
            raise ValueError(f"flow phase must be one of {_PH_FLOW}: {phase!r}")
        event = {
            "name": name,
            "cat": cat,
            "ph": phase,
            "ts": self._us(self._clock()),
            "tid": tid,
            "id": flow_id,
        }
        if phase == "f":
            event["bp"] = "e"  # bind to the enclosing slice
        self._record(event, args)

    def span(self, name: str, cat: str = "pipeline", tid: int = 0, **args):
        """A context manager timing one named duration."""
        return _Span(self, name, cat, tid, args)

    def now(self) -> float:
        """A raw clock reading, for pairing with :meth:`complete`."""
        return self._clock()

    def complete(
        self,
        name: str,
        start: float,
        end: float | None = None,
        cat: str = "pipeline",
        tid: int = 0,
        **args,
    ) -> None:
        """Record a complete event from a :meth:`now` reading taken earlier.

        The manual counterpart of :meth:`span`, for hot paths that only
        decide *after* the work whether the duration is worth an event
        (e.g. a queue drain that polled nothing).  ``end`` defaults to the
        current clock reading.
        """
        if end is None:
            end = self._clock()
        self._record(self._complete(name, start, end, cat, tid), args)

    def instant(self, name: str, cat: str = "event", tid: int = 0, **args) -> None:
        """Record a point event at the current clock reading."""
        self._record(
            {
                "name": name,
                "cat": cat,
                "ph": _PH_INSTANT,
                "ts": self._us(self._clock()),
                "s": "t",  # thread-scoped instant
                "tid": tid,
            },
            args,
        )

    def tuple_event(self, stage: str, source: str, timestamp: float, **args) -> None:
        """One tuple-lifecycle stage (``ingest``/``enqueue``/``shed``/...).

        ``timestamp`` is the tuple's *stream* (virtual-clock) timestamp; the
        event itself is stamped on the tracer's wall clock so Perfetto lays
        lifecycle events out alongside the spans that caused them.
        """
        if not self.tuple_events:
            return
        self._push(
            (stage, source, timestamp, self._clock(), self._context, args or None),
            1,
        )

    def defer(self, expand, n: int) -> None:
        """Record ``n`` events now and build them only when the ring is read.

        ``expand(tuple_event, complete, skip)`` must return those ``n``
        events but the first ``skip`` (the ones the ring has evicted),
        oldest first, as Chrome-trace dicts made by the two builders it is
        handed: ``tuple_event(stage, source, timestamp, clock)`` is
        :meth:`tuple_event` stamped at the clock reading ``clock``, and
        ``complete(name, start, end, cat="pipeline", tid=0, **args)`` takes
        :meth:`complete`'s arguments.  The record counts as ``n`` events for
        eviction, ``len``, ``emitted`` and ``dropped``; once the ring
        overflows, its oldest events are trimmed like any others.  The
        caller keeps whatever ``expand`` reads alive until the record is
        evicted, and its events carry no :meth:`set_context` context.
        """
        if n > 0:
            self._push(_Deferred(expand, n), n)

    def _tuple_event(self, stage, source, timestamp, clock) -> dict:
        """The Chrome-trace dict of one tuple-lifecycle stage."""
        return {
            "name": stage,
            "cat": "tuple",
            "ph": _PH_INSTANT,
            "ts": (clock - self._t0) * 1e6,
            "s": "t",
            "tid": 0,
            "pid": self.pid,
            "args": {"source": source, "t": timestamp},
        }

    def _complete(self, name, start, end, cat="pipeline", tid=0, **args) -> dict:
        """The Chrome-trace dict of one complete event (no context merged)."""
        dur = (end - start) * 1e6
        event = {
            "name": name,
            "cat": cat,
            "ph": _PH_COMPLETE,
            "ts": (start - self._t0) * 1e6,
            "dur": dur if dur > 0.0 else 0.0,
            "tid": tid,
            "pid": self.pid,
        }
        if args:
            event["args"] = args
        return event

    def _expand(self, record: tuple) -> dict:
        """The Chrome-trace dict of one compact :meth:`tuple_event` record."""
        stage, source, timestamp, clock, ctx, extra = record
        event = self._tuple_event(stage, source, timestamp, clock)
        if extra:
            event["args"] = {**extra, **event["args"]}
        if ctx is not None:
            event["args"] = {**ctx, **event["args"]}
        return event

    def counter(self, name: str, value: float, tid: int = 0, **labels) -> None:
        """Record one sample of a numeric series (rendered as a track)."""
        labels[name] = value
        self._record(
            {
                "name": name,
                "cat": "counter",
                "ph": _PH_COUNTER,
                "ts": self._us(self._clock()),
                "tid": tid,
            },
            labels,
        )

    # ------------------------------------------------------------------
    # Introspection & export
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._held

    @property
    def dropped(self) -> int:
        """Events evicted by the ring buffer since construction."""
        return self.emitted - self._held

    def events(self) -> list[dict]:
        """The retained events, oldest first (copies the ring buffer).

        Deferred records are expanded here, on every call.
        """
        expand = self._expand
        out: list[dict] = []
        for e in self._events:
            kind = type(e)
            if kind is dict:
                out.append(e)
            elif kind is tuple:
                out.append(expand(e))
            else:
                records = e.expand(self._tuple_event, self._complete, e.skip)
                if len(records) != e.n - e.skip:
                    raise TraceError(
                        f"deferred record expanded to {len(records)} events, "
                        f"not the {e.n - e.skip} it holds"
                    )
                out += records
        return out

    def meta_events(self) -> list[dict]:
        """Metadata events naming the process track and anchoring its clock.

        ``trace_epoch`` pairs the monotonic timestamp origin (``ts == 0``)
        with a wall-clock reading; :func:`merge_jsonl_traces` subtracts two
        tracers' epochs to align their timelines.
        """
        return [
            {
                "name": "process_name",
                "ph": _PH_METADATA,
                "ts": 0,
                "pid": self.pid,
                "tid": 0,
                "args": {"name": self.label},
            },
            {
                "name": "trace_epoch",
                "ph": _PH_METADATA,
                "ts": 0,
                "pid": self.pid,
                "tid": 0,
                "args": {"epoch": self.epoch, "label": self.label},
            },
        ]

    def clear(self) -> None:
        self._events.clear()
        self._held = 0
        self.emitted = 0

    def to_chrome(self) -> dict:
        """The Chrome trace-event document (Perfetto-loadable)."""
        return {
            "traceEvents": self.meta_events() + self.events(),
            "displayTimeUnit": "ms",
            "otherData": {
                "generator": "repro.obs.trace",
                "emitted": self.emitted,
                "dropped": self.dropped,
            },
        }

    def to_jsonl(self) -> str:
        """One JSON object per line, oldest first (trailing newline).

        The metadata events lead, so a JSONL file is self-describing: the
        ``trace_epoch`` line is what lets :func:`merge_jsonl_traces` align
        this file against another process's export.
        """
        return "".join(
            json.dumps(e) + "\n" for e in self.meta_events() + self.events()
        )

    def write(self, path, fmt: str = "chrome") -> None:
        """Write the trace to ``path`` as ``chrome`` JSON or ``jsonl``."""
        if fmt == "chrome":
            text = json.dumps(self.to_chrome(), indent=1) + "\n"
        elif fmt == "jsonl":
            text = self.to_jsonl()
        else:
            raise ValueError(f"unknown trace format {fmt!r} (chrome|jsonl)")
        with open(path, "w", encoding="utf-8") as fp:
            fp.write(text)


class NullTracer(Tracer):
    """The disabled tracer: every recording entry point is a no-op.

    Shared as :data:`NULL_TRACER`; hot paths check ``tracer.enabled`` (a
    class attribute, so the check is one LOAD_ATTR) and skip instrumentation
    entirely, so a pipeline without observability pays nothing beyond that.
    """

    enabled = False

    def __init__(self) -> None:
        super().__init__(capacity=1)
        self.tuple_events = False
        self._null_cm = nullcontext()

    def span(self, name, cat="pipeline", tid=0, **args):
        return self._null_cm

    def complete(self, name, start, end=None, cat="pipeline", tid=0, **args):
        return None

    def instant(self, name, cat="event", tid=0, **args):
        return None

    def tuple_event(self, stage, source, timestamp, **args):
        return None

    def defer(self, expand, n):
        return None

    def counter(self, name, value, tid=0, **labels):
        return None

    def flow(self, name, flow_id, phase="s", cat="flow", tid=0, **args):
        return None

    def set_context(self, trace_id, parent=None):
        return None


#: Process-wide disabled tracer; the default for every instrumented layer.
NULL_TRACER = NullTracer()


# ---------------------------------------------------------------------------
# Cross-process merge
# ---------------------------------------------------------------------------
def _load_jsonl_events(path) -> list[dict]:
    events: list[dict] = []
    with open(path, "r", encoding="utf-8") as fp:
        for lineno, line in enumerate(fp, 1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TraceError(f"{path}:{lineno}: not JSON: {exc}") from None
            if not isinstance(obj, dict):
                raise TraceError(f"{path}:{lineno}: event is not an object")
            events.append(obj)
    return events


def merge_jsonl_traces(paths, labels=None) -> dict:
    """Stitch per-process JSONL exports into one Chrome trace document.

    Each input file is one :meth:`Tracer.to_jsonl` export.  Timestamps in
    those files are microseconds on each process's *own* monotonic clock;
    the files' ``trace_epoch`` metadata anchors each clock's zero to wall
    time, so the merge rebases every event by ``(epoch_i - min(epoch))``
    — clock-offset alignment good to the wall clocks' mutual skew, which
    for a client and server on one machine is effectively exact.

    Every file gets a distinct ``pid`` (1-based input order) so Perfetto
    renders it as its own process track; ``labels`` overrides the track
    names (defaults to each file's recorded label, then the path).  Returns
    a validated Chrome trace document.
    """
    paths = list(paths)
    if not paths:
        raise TraceError("merge needs at least one JSONL trace")
    sides: list[tuple[str, list[dict], float]] = []
    for i, path in enumerate(paths):
        events = _load_jsonl_events(path)
        epoch = 0.0
        label = str(path)
        for e in events:
            if e.get("name") == "trace_epoch" and e.get("ph") == _PH_METADATA:
                args = e.get("args") or {}
                epoch = float(args.get("epoch", 0.0))
                label = str(args.get("label") or label)
                break
        if labels is not None and i < len(labels) and labels[i]:
            label = labels[i]
        sides.append((label, events, epoch))

    base = min(epoch for _, _, epoch in sides)
    merged: list[dict] = []
    offsets: dict[str, float] = {}
    for i, (label, events, epoch) in enumerate(sides):
        pid = i + 1
        offset_us = (epoch - base) * 1e6
        offsets[label] = offset_us
        merged.append(
            {
                "name": "process_name",
                "ph": _PH_METADATA,
                "ts": 0,
                "pid": pid,
                "tid": 0,
                "args": {"name": label},
            }
        )
        for e in events:
            if e.get("ph") == _PH_METADATA:
                continue  # re-issued above, with the merged pid
            e = dict(e)
            e["pid"] = pid
            e["ts"] = float(e.get("ts", 0.0)) + offset_us
            merged.append(e)
    meta = [e for e in merged if e.get("ph") == _PH_METADATA]
    rest = sorted(
        (e for e in merged if e.get("ph") != _PH_METADATA),
        key=lambda e: e["ts"],
    )
    doc = {
        "traceEvents": meta + rest,
        "displayTimeUnit": "ms",
        "otherData": {
            "generator": "repro.obs.trace.merge",
            "merged_from": [str(p) for p in paths],
            "clock_offsets_us": offsets,
        },
    }
    validate_chrome_trace(doc)
    return doc


# ---------------------------------------------------------------------------
# Validation (used by tests and the CI obs-smoke step)
# ---------------------------------------------------------------------------
_VALID_PHASES = {_PH_COMPLETE, _PH_INSTANT, _PH_COUNTER, "B", "E", "M", *_PH_FLOW}


def validate_chrome_trace(doc: dict) -> list[dict]:
    """Check ``doc`` against the Chrome trace-event schema subset we emit.

    Returns the event list on success; raises :class:`TraceError` naming the
    first offending event otherwise.  Checked invariants: top-level
    ``traceEvents`` array; every event has string ``name``/``cat``, a known
    ``ph``, numeric non-negative ``ts``, integer ``pid``/``tid``; complete
    events carry a numeric non-negative ``dur``; flow events carry a string
    ``id``; args (when present) are JSON-serializable objects.
    """
    if not isinstance(doc, dict) or not isinstance(doc.get("traceEvents"), list):
        raise TraceError("trace document must have a traceEvents array")
    events = doc["traceEvents"]
    for i, e in enumerate(events):
        where = f"traceEvents[{i}]"
        if not isinstance(e, dict):
            raise TraceError(f"{where}: not an object")
        if e.get("ph") not in _VALID_PHASES:
            raise TraceError(f"{where}: unknown phase {e.get('ph')!r}")
        # Metadata events carry no category by convention.
        required = ("name",) if e["ph"] == _PH_METADATA else ("name", "cat")
        for key in required:
            if not isinstance(e.get(key), str) or not e[key]:
                raise TraceError(f"{where}: missing/empty {key!r}")
        if not isinstance(e.get("ts"), (int, float)) or e["ts"] < 0:
            raise TraceError(f"{where}: bad ts {e.get('ts')!r}")
        for key in ("pid", "tid"):
            if not isinstance(e.get(key), int):
                raise TraceError(f"{where}: bad {key} {e.get(key)!r}")
        if e["ph"] == _PH_COMPLETE and (
            not isinstance(e.get("dur"), (int, float)) or e["dur"] < 0
        ):
            raise TraceError(f"{where}: complete event needs dur >= 0")
        if e["ph"] in _PH_FLOW and (
            not isinstance(e.get("id"), str) or not e["id"]
        ):
            raise TraceError(f"{where}: flow event needs a string id")
        if "args" in e:
            if not isinstance(e["args"], dict):
                raise TraceError(f"{where}: args must be an object")
            try:
                json.dumps(e["args"])
            except (TypeError, ValueError) as exc:
                raise TraceError(f"{where}: args not JSON-safe: {exc}") from None
    return events
