"""The one triage engine loop every runner drives.

Paper Figure 1 is a single architecture — a triage queue between every
source and the consumer — whether the bottleneck is the query engine's CPU,
a gateway's network link, or a pattern engine.  :class:`TriageCore` owns
the decision all of those share: *which queued tuple the consumer takes
next, and what taking it does to window state*.

* **Order.**  The consumer always takes the globally oldest queued tuple;
  equal timestamps go to the earlier source in the list.  Queue heads live
  in a heap of ``(head timestamp, source index)`` that is revalidated
  lazily: an entry is checked against the live queue head when it reaches
  the top, so a head evicted by a drop policy (or by a racing publisher
  thread) is simply skipped, never consumed out of order.
* **Clock.**  Not a class: :meth:`TriageCore.drain` stops on ``until``
  (virtual time; needs the per-source ``costs`` vector — seconds of
  consumer time one tuple of that source occupies) or on ``budget`` (a
  tuple count; the core is then untimed).  ``busy_until`` carries the
  consumer's finish time across calls.
* **Sink.**  With ``fold=True`` a taken tuple joins its windows' kept bag
  (and kept synopsis, with ``synopses=True``) — windows are assigned by
  the tuple's own timestamp, so backlog processed late still lands in the
  right window — and stamps the window's completion time.  Windows at or
  below ``closed_floor`` are already reported: late backlog for them is
  consumed but folds into nothing.  Independently, ``drain(polled=[...])``
  hands the taken tuples back with their finish times.

The drivers keep only what is genuinely theirs — arrival replay, load
controllers and tracing (:mod:`repro.core.pipeline`); the budget carry and
pattern feed (:mod:`repro.service.dataplane`); shared dimensions and
per-query cost (:mod:`repro.core.multi_query`); synopsis shipping charged
to the link (:mod:`repro.core.gateway`); the idle-engine budget rule
(:mod:`repro.cep.pipeline`).  The core draws no randomness.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush, heapreplace
from typing import Sequence

from repro.algebra.multiset import Multiset
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.synopses.base import Synopsis

__all__ = ["TriageCore", "merge_arrivals", "arrivals_per_window"]

#: One replayed arrival: (timestamp, per-source sequence, source, tuple).
Arrival = tuple[float, int, str, StreamTuple]


class TriageCore:
    """Oldest-first drain over a list of triage queues, plus the kept-state fold."""

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
        them joinable in the shadow plan.
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
        #: ``{source: {window id: kept bag}}`` (None without ``fold``).
        self.kept_rows: dict[str, dict[int, Multiset]] | None = (
            {name: {} for name in self.names} if fold else None
        )
        #: ``{source: {window id: kept synopsis}}`` (None without ``synopses``).
        self.kept_synopses: dict[str, dict[int, Synopsis]] | None = (
            {name: {} for name in self.names} if fold and synopses else None
        )
        # Every queue of one runner shares one window spec (a shard worker
        # that owns no source has none, and never drains).
        self._window_ids = self.queues[0].window.ids if self.queues else None
        self._heads: list[float | None] = [None] * len(self.queues)
        self._heap: list[tuple[float, int]] = []
        self.sync_all()

    # ------------------------------------------------------------------
    # Head tracking
    # ------------------------------------------------------------------
    def sync(self, idx: int) -> None:
        """Re-register source ``idx`` after an offer may have moved its head.

        Pushes only when the head differs from the last one registered, so
        an offer that changes no head costs one peek and no heap entry.
        """
        ts = self.queues[idx].peek_timestamp()
        if ts != self._heads[idx]:
            self._heads[idx] = ts
            if ts is not None:
                heappush(self._heap, (ts, idx))

    def sync_all(self) -> None:
        """:meth:`sync` every source (feeders that offer behind our back)."""
        for idx in range(len(self.queues)):
            self.sync(idx)

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
        """
        heap = self._heap
        heads = self._heads
        queues = self.queues
        names = self.names
        costs = self.costs
        timed = costs is not None
        kept_rows = self.kept_rows
        kept_synopses = self.kept_synopses
        completion = self.completion
        floor = self.closed_floor
        window_ids = self._window_ids
        t = self.busy_until
        n = 0
        while heap and n != budget:
            ts, idx = heap[0]
            q = queues[idx]
            if q.peek_timestamp() != ts:
                # Stale: the head this entry described was evicted (drop
                # policy, racing publisher) since it was registered.
                heappop(heap)
                self.sync(idx)
                continue
            if timed:
                start = ts if ts > t else t
                if start >= until:
                    break
            tup = q.poll()
            # Unconditional re-registration: the successor may carry the
            # *same* timestamp, which sync()'s change test would miss.
            nts = q.peek_timestamp()
            heads[idx] = nts
            if nts is None:
                heappop(heap)
            else:
                heapreplace(heap, (nts, idx))
            if tup is None:  # pragma: no cover - racing publisher thread
                continue
            if timed:
                t = start + costs[idx]
            n += 1
            if polled is not None:
                polled.append((names[idx], tup, t))
            if kept_rows is None:
                continue
            row = tup.row
            bags = kept_rows[names[idx]]
            for wid in window_ids(tup.timestamp):
                if floor is not None and wid <= floor:
                    continue  # already reported: don't leak per-window state
                if timed:
                    # Consumer time only moves forward, so t is already the
                    # latest finish seen for this window.
                    completion[wid] = t
                bag = bags.get(wid)
                if bag is None:
                    bag = bags[wid] = Multiset()
                bag.add(row)
                if kept_synopses is not None:
                    synopses = kept_synopses[names[idx]]
                    syn = synopses.get(wid)
                    if syn is None:
                        syn = synopses[wid] = q.synopsis_factory.create(
                            q.dimensions
                        )
                    syn.insert([row[p] for p in q.dim_positions])
        self.busy_until = t
        return n

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
    events.sort(key=lambda e: (e[0], e[2], e[1]))
    return events


def arrivals_per_window(
    events: list[Arrival], sources: Sequence[str], window: WindowSpec
) -> tuple[list[int], dict[str, dict[int, int]]]:
    """``(sorted window ids, {source: {window id: arrivals}})`` of a timeline."""
    ids = window.ids
    wid_set: set[int] = set()
    arrived: dict[str, dict[int, int]] = {s: {} for s in sources}
    for ts, _, source, _ in events:
        wids = ids(ts)
        wid_set.update(wids)
        per_window = arrived[source]
        for wid in wids:
            per_window[wid] = per_window.get(wid, 0) + 1
    return sorted(wid_set), arrived
