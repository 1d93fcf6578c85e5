"""The one triage engine loop every runner drives.

Paper Figure 1 is a single architecture — a triage queue between every
source and the consumer — whether the bottleneck is the query engine's CPU,
a gateway's network link, or a pattern engine.  :class:`TriageCore` owns
the decision all of those share: *which queued tuple the consumer takes
next, and what taking it does to window state*.

* **Intake.**  :meth:`TriageCore.offer` stages a driver's arrivals; each
  source's staged arrivals reach its queue as one ``offer_bulk`` at the
  last moment: a drain that can start, a hand-off, or an explicit
  :meth:`TriageCore.flush` before a driver reads queue state.
* **Order.**  The consumer always takes the globally oldest queued tuple;
  equal timestamps go to the earlier source in the list.  Queue heads live
  in a heap of ``(head timestamp, source index)`` that is revalidated
  lazily: an entry is checked against the live queue head when it reaches
  the top, so a head evicted by a drop policy is simply skipped, never
  consumed out of order.
* **Clock.**  Not a class: :meth:`TriageCore.drain` stops on ``until``
  (virtual time; needs the per-source ``costs`` vector — seconds of
  consumer time one tuple of that source occupies) or on ``budget`` (a
  tuple count; the core is then untimed).  ``busy_until`` carries the
  consumer's finish time across calls.
* **Sink.**  With ``fold=True`` a taken tuple's row is appended to the run
  of every window containing it — windows are assigned by the tuple's own
  timestamp, so backlog processed late still lands in the right window —
  and stamps the window's completion time.  Runs become state once, when
  the window is reported: :meth:`TriageCore.take` is the only way kept
  state leaves the core, and builds each kept bag (and, with
  ``synopses=True``, each kept synopsis the shadow plan will read) in one
  bulk pass.  :meth:`TriageCore.hand_off` wraps it into the one window
  hand-off every runner uses: queue releases, kept state and arrival
  counts as a :class:`~repro.core.merge.WindowPartials`, the input of
  :meth:`~repro.core.pipeline.DataTriagePipeline.evaluate_windows`.
  Windows at or below ``closed_floor`` are already reported:
  late backlog for them is consumed but folds into nothing.
  Independently, ``drain(polled=[...])`` hands the taken tuples back with
  their finish times.

The drivers keep only what is genuinely theirs — arrival replay, load
controllers and tracing (:mod:`repro.core.pipeline`); the budget carry and
pattern feed (:mod:`repro.service.dataplane`); shared dimensions and
per-query cost (:mod:`repro.core.multi_query`); synopsis shipping charged
to the link (:mod:`repro.core.gateway`); the idle-engine budget rule
(:mod:`repro.cep.pipeline`).  The core draws no randomness.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Container, Iterable
from heapq import heappop, heappush, heapreplace
from typing import Sequence

from repro.algebra.multiset import Multiset
from repro.core.merge import WindowPartials
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.synopses.base import Synopsis

__all__ = ["TriageCore", "due_windows", "merge_arrivals", "window_runs"]

#: One replayed arrival: (timestamp, per-source sequence, source, tuple).
Arrival = tuple[float, int, str, StreamTuple]


class TriageCore:
    """Oldest-first drain over a list of triage queues, plus the kept-row runs."""

    def __init__(
        self,
        queues: Sequence[TriageQueue],
        costs: Sequence[float] | None = None,
        *,
        fold: bool = True,
        synopses: bool = False,
    ) -> None:
        """``queues[i]`` is source ``i`` (its position is the tie-break).

        ``costs[i]`` is the consumer time one tuple of source ``i`` takes;
        ``None`` makes the core untimed (drain by ``budget`` only).  Kept
        synopses are built like each queue's own dropped-tuple synopses
        (same factory, dimensions and row positions), which is what keeps
        them joinable in the shadow plan.  ``fold=False`` keeps no kept
        state at all (the consumer reads the ``polled`` hand-back instead).
        """
        self.queues = list(queues)
        self.names = [q.name for q in self.queues]
        self.costs = None if costs is None else list(costs)
        #: When the consumer finishes the work taken so far (timed cores).
        self.busy_until = 0.0
        #: Highest window id already reported; None until :meth:`close`.
        self.closed_floor: int | None = None
        #: window id -> finish time of its last kept tuple (timed cores).
        self.completion: dict[int, float] = {}
        # Per source (by position): window id -> rows taken so far, in poll
        # order (None without ``fold``).  :meth:`take` turns a run into state.
        self._runs: list[dict[int, list]] | None = (
            [{} for _ in self.queues] if fold else None
        )
        # Per source: window id -> the still-empty kept synopsis, created
        # with the run (seeded factories number their creates, so *when* a
        # synopsis is created is behaviour) and filled from it by
        # :meth:`take` (None without ``synopses``).
        self._synopses: list[dict[int, Synopsis]] | None = (
            [{} for _ in self.queues] if fold and synopses else None
        )
        # Every queue of one runner shares one window spec (a shard worker
        # that owns no source has none, and never drains).
        self._window_ids = self.queues[0].window.ids if self.queues else None
        self._heads: list[float | None] = [None] * len(self.queues)
        self._heap: list[tuple[float, int]] = []
        # Source index -> the batches offered since the last flush.
        self._staged: dict[int, list] = {}

    # ------------------------------------------------------------------
    # Intake
    # ------------------------------------------------------------------
    def offer(self, idx: int, tuples) -> None:
        """Stage arrivals of source ``idx`` (tuples or a ColumnBatch).

        Invisible to results: any split into ``offer_bulk`` batches is
        equivalent, and every reader flushes first — :meth:`drain`,
        :meth:`hand_off`, and through :meth:`flush` a driver that reads a
        queue itself (an ack, a controller).
        """
        self._staged.setdefault(idx, []).append(tuples)

    def flush(self, offered: list | None = None) -> None:
        """Hand every source's staged arrivals to its queue, one batch each.

        ``offered``, when given, receives one ``(source, depth before,
        batch)`` per batch: with the queue's capacity, that tells each
        arrival's depth and verdict (a full queue sheds one per arrival).
        """
        staged = self._staged
        if not staged:
            return
        for idx, batches in staged.items():
            batch = batches[0] if len(batches) == 1 else [
                tup for b in batches for tup in b
            ]
            q = self.queues[idx]
            if offered is not None:
                offered.append((self.names[idx], len(q), batch))
            q.offer_bulk(batch)
            self._sync(idx)
        staged.clear()

    # ------------------------------------------------------------------
    # Head tracking
    # ------------------------------------------------------------------
    def _sync(self, idx: int) -> None:
        """Re-register source ``idx`` after an offer may have moved its head.

        Pushes only when the head differs from the last one registered, so
        an offer that changes no head costs one peek and no heap entry.
        """
        ts = self.queues[idx].peek_timestamp()
        if ts != self._heads[idx]:
            self._heads[idx] = ts
            if ts is not None:
                heappush(self._heap, (ts, idx))

    # ------------------------------------------------------------------
    # The loop
    # ------------------------------------------------------------------
    def drain(
        self,
        until: float = math.inf,
        budget: int | None = None,
        polled: list | None = None,
    ) -> int:
        """Take queued tuples oldest-first; return how many were taken.

        Stops when the queues are empty, after ``budget`` tuples, or when
        the next tuple could not *start* before ``until`` (a tuple starts
        at the later of its own timestamp and ``busy_until``).  An idle
        consumer does not bank time: ``busy_until`` only ever moves to the
        finish of real work.  ``polled``, when given, receives one
        ``(source, tuple, finish time)`` per taken tuple, in drain order.
        Staged arrivals are flushed first, unless a timed consumer is busy
        past ``until``: then nothing can start and no queue is touched.
        """
        if self.costs is not None and self.busy_until >= until:
            return 0
        self.flush()
        heap = self._heap
        heads = self._heads
        queues = self.queues
        names = self.names
        costs = self.costs
        timed = costs is not None
        all_runs = self._runs
        all_synopses = self._synopses
        completion = self.completion
        floor = self.closed_floor
        window_ids = self._window_ids
        t = self.busy_until
        n = 0
        while heap and n != budget:
            ts, idx = heap[0]
            q = queues[idx]
            if q.peek_timestamp() != ts:
                # Stale: the head this entry described was evicted by a
                # drop policy since it was registered.
                heappop(heap)
                self._sync(idx)
                continue
            if timed:
                start = ts if ts > t else t
                if start >= until:
                    break
            tup = q.poll()
            # Unconditional re-registration: the successor may carry the
            # *same* timestamp, which _sync()'s change test would miss.
            nts = q.peek_timestamp()
            heads[idx] = nts
            if nts is None:
                heappop(heap)
            else:
                heapreplace(heap, (nts, idx))
            if timed:
                t = start + costs[idx]
            n += 1
            if polled is not None:
                polled.append((names[idx], tup, t))
            if all_runs is None:
                continue
            runs = all_runs[idx]
            for wid in window_ids(tup.timestamp):
                if floor is not None and wid <= floor:
                    continue  # already reported: don't leak per-window state
                if timed:
                    # Consumer time only moves forward, so t is already the
                    # latest finish seen for this window.
                    completion[wid] = t
                run = runs.get(wid)
                if run is None:
                    run = runs[wid] = []
                    if all_synopses is not None:
                        all_synopses[idx][wid] = q.synopsis_factory.create(
                            q.dimensions
                        )
                run.append(tup.row)
        self.busy_until = t
        return n

    def take(
        self,
        wids: Iterable[int] | None = None,
        shed: Container[int] | None = None,
    ) -> tuple[
        dict[str, dict[int, Multiset]],
        dict[str, dict[int, Synopsis | None]] | None,
    ]:
        """Pop the kept state of ``wids``: ``(kept bags, kept synopses)``.

        Both are ``{source: {window id: value}}`` with an entry for every
        asked window (an empty bag / ``None`` where the source kept
        nothing); the synopses half is ``None`` for a core built without
        ``synopses``.  Each bag is one ``Counter`` pass over its run and
        each synopsis one ``insert_bulk`` in poll order — bit-equal to
        folding tuple by tuple.  ``wids=None`` takes every window held.

        The shadow plan reads a kept synopsis only inside ``Q-``, which is
        empty for a window in which no stream dropped anything: a caller
        that knows which of ``wids`` shed something passes them as
        ``shed`` and the other windows' synopses are discarded unfilled
        (``None`` in the result).  ``shed=None`` fills them all — for a
        caller that cannot know, such as a shard worker owning some of the
        query's sources.  Nothing of a taken window stays behind.
        """
        all_runs = self._runs
        all_synopses = self._synopses
        if wids is None:
            wids = sorted({wid for runs in all_runs for wid in runs})
        else:
            wids = list(wids)
        kept_rows: dict[str, dict[int, Multiset]] = {}
        kept_synopses: dict[str, dict[int, Synopsis | None]] | None = (
            None if all_synopses is None else {}
        )
        for idx, name in enumerate(self.names):
            runs = all_runs[idx]
            taken = [runs.pop(wid, ()) for wid in wids]
            kept_rows[name] = dict(zip(wids, map(Multiset, taken)))
            if kept_synopses is None:
                continue
            synopses = all_synopses[idx]
            positions = self.queues[idx].dim_positions
            built = kept_synopses[name] = {}
            for wid, run in zip(wids, taken):
                syn = synopses.pop(wid, None)
                if syn is not None and (shed is None or wid in shed):
                    syn.insert_bulk(run, positions)
                    built[wid] = syn
                else:
                    built[wid] = None
        return kept_rows, kept_synopses

    def hand_off(
        self,
        wids: Iterable[int],
        arrived: dict[str, dict[int, int]],
        *,
        fill_all: bool = False,
    ) -> WindowPartials:
        """The window hand-off: everything ``wids`` leave, as one bundle.

        Every queue releases its dropped synopses and counts, :meth:`take`
        turns the runs into kept bags and synopses, and each source's
        arrival count is popped from the caller's ``arrived``
        (``{source: {window id: count}}``; 0 where absent).  Nothing of a
        handed-off window stays behind in the core, its queues or
        ``arrived``; the synopsis halves are ``None`` for a core built
        without ``synopses``.

        A caller that owns every source of the query knows which windows
        shed something (some queue released a dropped synopsis for them), so
        only those get a filled kept synopsis.  ``fill_all=True`` fills them
        all: for a caller that owns only some of the sources (a shard
        worker: the drop may be another worker's) or that prices every
        synopsis (the shared runtime's cell accounting).
        """
        self.flush()
        wids = list(wids)
        released = {
            name: {w: q.release_window(w) for w in wids}
            for name, q in zip(self.names, self.queues)
        }
        shed = None
        if not fill_all:
            shed = {
                w
                for per_window in released.values()
                for w, ws in per_window.items()
                if ws.synopsis is not None
            }
        kept_rows, kept_synopses = self.take(wids, shed)
        dropped_synopses = None
        if kept_synopses is not None:
            dropped_synopses = {
                name: {w: ws.synopsis for w, ws in per_window.items()}
                for name, per_window in released.items()
            }
        return WindowPartials(
            window_ids=wids,
            kept_rows=kept_rows,
            kept_synopses=kept_synopses,
            dropped_synopses=dropped_synopses,
            dropped_counts={
                name: {w: ws.dropped_count for w, ws in per_window.items()}
                for name, per_window in released.items()
            },
            arrived={
                name: {w: arrived[name].pop(w, 0) for w in wids}
                for name in self.names
            },
        )

    def close(self, wids) -> None:
        """Raise the closed-window floor past ``wids``."""
        for wid in wids:
            self.completion.pop(wid, None)
            if self.closed_floor is None or wid > self.closed_floor:
                self.closed_floor = wid


# ----------------------------------------------------------------------
# Arrival replay shared by the virtual-clock drivers
# ----------------------------------------------------------------------
def merge_arrivals(
    streams: dict[str, list[StreamTuple]], sources: Sequence[str]
) -> list[Arrival]:
    """Interleave per-source arrivals into one deterministic timeline.

    Ordered by timestamp, then source name, then per-source sequence.
    """
    events = [
        (tup.timestamp, seq, source, tup)
        for source in sources
        for seq, tup in enumerate(streams[source])
    ]
    events.sort(key=operator.itemgetter(0, 2, 1))
    return events


def window_runs(
    events: list[Arrival], sources: Sequence[str], window: WindowSpec
) -> tuple[list[int], dict[str, dict[int, int]], dict[tuple[str, int], list]]:
    """One walk of a timeline: who arrived in which window.

    Returns ``(sorted window ids, {source: {window id: arrivals}},
    {(source, window id): rows})``.  A run lists the rows of one source
    that fall in one window, in timeline order; the runs themselves are in
    first-arrival order (the order a per-tuple fold would have created
    per-window state in).  Everything a virtual-clock driver derives from
    the arrivals — the counts, the ideal bags, summarize-only's full
    synopses — is built from these in bulk.
    """
    ids = window.ids
    runs: dict[tuple[str, int], list] = {}
    # Arrivals come in timestamp order, so the window set changes rarely:
    # the runs an arrival joins are looked up once per (window set, source)
    # and remembered as their bound ``append``s.
    current: tuple[int, ...] | None = None
    appends: dict[str, list] = {}
    for ts, _, source, tup in events:
        wids = ids(ts)
        if wids != current:
            current = wids
            appends = {}
        joins = appends.get(source)
        if joins is None:
            joins = appends[source] = [
                runs.setdefault((source, wid), []).append for wid in wids
            ]
        row = tup.row
        for append in joins:
            append(row)
    arrived: dict[str, dict[int, int]] = {s: {} for s in sources}
    for (source, wid), run in runs.items():
        arrived[source][wid] = len(run)
    return sorted({wid for _, wid in runs}), arrived, runs


def due_windows(
    known: Iterable[int],
    heads: Iterable[float | None],
    window: WindowSpec,
    now: float,
    grace: float = 0.0,
) -> list[int]:
    """The close rule: known windows whose end (+grace) has passed and
    whose tuples drained.

    A window stays open while any queue's head still precedes its end —
    backlogged-but-kept tuples must land in their window first.  Windows
    are ordered, so the scan stops at the first not-due window.  Both
    planes apply it, a sharded one to its coordinator's snapshot, and so
    does the gateway before it ships a window's synopsis.
    """
    due: list[int] = []
    heads = [h for h in heads if h is not None]
    for wid in sorted(known):
        _, end = window.bounds(wid)
        if end + grace > now:
            break
        if any(h < end for h in heads):
            break
        due.append(wid)
    return due
