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
* **Replay.**  A driver that holds its whole timeline hands it to
  :meth:`TriageCore.replay`: the per-arrival drain / ``offer`` sequence and
  the final drain as one loop, which admits an arrival that finds room on
  the spot and sends only overflow through ``offer_bulk``.  A timed core
  drains by virtual time; an untimed one by a tuple budget banked from the
  arrival clock.

The drivers keep only what is genuinely theirs — load controllers and
tracing (:mod:`repro.core.pipeline`); the budget carry and pattern feed
(:mod:`repro.service.dataplane`); shared dimensions and per-query cost
(:mod:`repro.core.multi_query`); synopsis shipping charged to the link
(:mod:`repro.core.gateway`); the pattern engine's feed and the release of
shed windows (:mod:`repro.cep.pipeline`).  The core draws no randomness.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from collections.abc import Callable, Container, Iterable
from heapq import heappop, heappush, heapreplace
from itertools import chain
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

#: :meth:`TriageCore.replay`'s mark for a source whose arrivals since the
#: last flush all went straight into its queue.
_ADMITTED = object()


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
        batch, shed)`` per batch, ``shed`` being ``offer_bulk``'s count.
        That tells each arrival's depth and verdict: the first ``k =
        len(batch) - shed`` were admitted at depths ``depth+1 … depth+k``,
        and each later one found the queue full and shed one, leaving it at
        ``depth+k`` (a capacity cut below the depth makes ``k`` 0).
        """
        staged = self._staged
        if not staged:
            return
        for idx, batches in staged.items():
            batch = batches[0] if len(batches) == 1 else [
                tup for b in batches for tup in b
            ]
            q = self.queues[idx]
            if offered is None:
                q.offer_bulk(batch)
            else:
                depth = len(q)
                offered.append((self.names[idx], depth, batch, q.offer_bulk(batch)))
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

    def replay(
        self,
        arrivals: Sequence[Arrival],
        *,
        service_time: float | None = None,
        settle: Callable[[float], None] | None = None,
        control: tuple[float, Callable[[int], None]] | None = None,
        flip: Callable[[str], None] | None = None,
        offered: list | None = None,
        marks: list | None = None,
        polled: list | None = None,
        now: Callable[[], float] | None = None,
    ) -> float | None:
        """Replay a timeline, then drain every queue.

        ``arrivals`` are :func:`merge_arrivals` entries.  A timed core
        replays them on the virtual clock: exactly ``drain(ts)``, ``offer(i,
        (tup,))`` per arrival and a final ``drain()``, in one loop whose
        state stays in locals; the arrivals must be in timestamp order.
        An untimed core is paced by ``service_time`` instead:

        * **Pace.**  An arrival stamped past the last stamp seen banks
          ``(ts - last) / service_time`` tuples of consumer work (the first
          arrival's stamp starts the clock).  When the bank holds whole
          tuples, that many are drained before the arrival is admitted, and
          a drain that takes fewer than it asked for forfeits the bank: an
          idle consumer banks no work.  Exactly ``drain(budget=whole)``,
          ``offer(i, (tup,))`` per arrival and a final ``drain()``; the
          arrivals need not be sorted, and no completion time is stamped.
        * **Intake.**  An arrival that finds its queue with room is admitted
          on the spot, as ``offer_bulk``'s free prefix would admit it (and
          filed in the policy's buffer index, if it keeps one): no RNG
          draw, the same ``offered`` / ``high_watermark`` and head.  A queue
          that is full stays full until the next drain step, so the rest of
          its arrivals are staged and reach ``offer_bulk`` unchanged at that
          step — its overflow tail, in first-arrival order across sources —
          and every one of them sheds.
        * **Settle.**  ``settle(now)`` is called just before the first
          overflow tail of a flush reaches ``offer_bulk`` (``now`` is the
          stamp of the arrival being replayed) and once at the end (``now
          = inf``).  A consumer fed from ``polled`` whose state a
          drop policy reads catches up there, once per shed decision
          instead of once per drain step.
        * **Fold.**  Polls come out in timestamp order, so the window set of
          the polled tuples changes only at window boundaries: its runs are
          looked up (and kept synopses created) once per (window set,
          source), and each window's completion is stamped when the set
          moves on.
        * **Control.**  ``control=(dt, step)`` calls ``step(intervals)``
          before staging the first arrival at or past each multiple of
          ``dt`` — after a flush, so ``step`` reads settled queues — with
          the count of intervals that passed.  ``flip``, the sampler's
          phase setter, tags each drain step ``drain`` and the rest
          ``ingest``.
        * **Observation.**  An observed run passes ``offered``, ``marks``
          and the clock ``now`` (and ``polled`` for tuple events).  Each
          flush appends to ``offered`` one ``(source, depth before, batch,
          shed)`` per source that had arrivals since the previous flush
          (``batch`` is all of them, admitted on the spot or not; see
          :meth:`flush`); each drain step that took something appends to
          ``marks`` one ``(start clock, end clock, taken, until,
          len(offered))``; each taken tuple appends to ``polled`` one
          ``(source, tuple, finish time)`` (an untimed core's finish time
          is the arrival clock).  Returns the clock reading at the start
          of the final drain (the stamp of arrivals no later step took
          anything after) when ``now`` is given, else ``None``.
        """
        timed = self.costs is not None
        if not timed and service_time is None:
            raise ValueError("an untimed core replays at a service_time pace")
        self.flush()
        queues = self.queues
        names = self.names
        index = {name: i for i, name in enumerate(names)}
        # The core is the queues' one caller: it reads their buffers
        # directly, so admitting into or polling from one costs no call.
        buffers = [q._buffer for q in queues]
        stats = [q.stats for q in queues]
        indexes = [q.policy_index for q in queues]
        capacity = [q.capacity for q in queues]
        # An untimed core's tuples take no consumer time: its clock ``t``
        # is the arrival clock, moved only by the bank.
        costs = self.costs if timed else [0.0] * len(queues)
        heap = self._heap
        heads = self._heads
        all_runs = self._runs
        completion = self.completion
        floor = self.closed_floor
        window_ids = self._window_ids
        # Source index -> its staged overflow tail, or ADMITTED while every
        # arrival of it since the last flush went straight in.  The dict is
        # in first-arrival order, the order the tails must reach their
        # queues in: seeded synopsis factories and the ledger are shared.
        staged: dict[int, object] = {}
        admitted = _ADMITTED
        overflow = False  # some source has a staged tail
        observed = offered is not None
        lo = 0  # the first arrival since the last flush

        def release(upto: int, stamp: float) -> None:
            """Flush: each staged tail to its queue, then the hand-backs."""
            nonlocal lo
            settled = settle is None
            for idx, tail in staged.items():
                shed = 0
                if tail is not admitted and not settled:
                    settle(stamp)
                    settled = True
                buf = buffers[idx]
                depth = len(buf)
                if tail is not admitted:
                    shed = queues[idx].offer_bulk(tail)
                    self._sync(idx)
                if observed:
                    # The hand-back :meth:`flush` would have made for all of
                    # the source's arrivals since ``lo``; those admitted on
                    # the spot are already counted in ``depth``.
                    name = names[idx]
                    batch = [a[3] for a in arrivals[lo:upto] if a[2] == name]
                    inline = len(batch) - (0 if tail is admitted else len(tail))
                    offered.append((name, depth - inline, batch, shed))
            staged.clear()
            lo = upto

        if control is None:
            dt, step, next_control = 0.0, None, math.inf
        else:
            dt, step = control
            next_control = dt
        # The fold's window set: the polled timestamp it was looked up for,
        # its windows above the closed floor, and per source the appends of
        # their runs (None until the source's first poll in the set).
        fold_ts: float | None = None
        fold_wids: tuple[int, ...] | None = None
        live: list[int] = []
        appends: list = [None] * len(queues)
        if timed:
            t = last = self.busy_until
        else:
            # The arrival clock: the last stamp the bank was credited for.
            t = last = arrivals[0][0] if arrivals else 0.0
        bank = 0.0
        t0 = None
        sentinel = (math.inf, 0, None, None)
        for i, (ts, _, source, tup) in enumerate(chain(arrivals, (sentinel,))):
            if t < ts:
                if timed or tup is None:
                    budget = None  # take what starts in time / catch up fully
                else:
                    bank += (ts - t) / service_time
                    t = ts
                    budget = int(bank)
                    bank -= budget
                if budget != 0:
                    # A drain step: the consumer is free before ``ts`` (timed),
                    # or the bank holds whole tuples (untimed).
                    if flip is not None:
                        flip("drain")
                    if staged:
                        if overflow or observed:
                            release(i, ts)
                            overflow = False
                        else:
                            staged.clear()  # all went straight in
                    if now is not None and tup is None:
                        t0 = now()  # the final drain's start stamps the tail
                    n = 0
                    while heap:
                        hts, idx = heap[0]
                        buf = buffers[idx]
                        if not buf or buf[0].timestamp != hts:
                            # Stale: the head this entry described was
                            # evicted by a drop policy since it was registered.
                            heappop(heap)
                            self._sync(idx)
                            continue
                        if timed:
                            start = hts if hts > t else t
                            if start >= ts:
                                break
                        elif n == budget:
                            break
                        else:
                            start = t  # costs are all 0.0: the clock holds
                        if now is not None and not n and tup is not None:
                            t0 = now()
                        got = buf.popleft()
                        stats[idx].polled += 1
                        filed = indexes[idx]
                        if filed is not None:
                            filed.remove(got)
                        # Unconditional re-registration: the successor may
                        # carry the *same* timestamp.
                        if buf:
                            nts = heads[idx] = buf[0].timestamp
                            heapreplace(heap, (nts, idx))
                        else:
                            heads[idx] = None
                            heappop(heap)
                        t = start + costs[idx]
                        n += 1
                        if polled is not None:
                            polled.append((names[idx], got, t))
                        if all_runs is None:
                            continue
                        gts = got.timestamp
                        if gts != fold_ts:
                            fold_ts = gts
                            wids = window_ids(gts)
                            if wids != fold_wids:
                                if timed:
                                    for wid in live:
                                        completion[wid] = last
                                fold_wids = wids
                                live = [w for w in wids if floor is None or w > floor]
                                appends = [None] * len(queues)
                        joins = appends[idx]
                        if joins is None:
                            joins = appends[idx] = self._run_appends(idx, live)
                        row = got.row
                        for append in joins:
                            append(row)
                        last = t
                    if not timed and n != budget:
                        bank = 0.0  # an idle consumer banks no work
                    if n and marks is not None:
                        marks.append((t0, now(), n, ts, len(offered)))
                    if flip is not None:
                        flip("ingest")
                if tup is None:
                    break
            if ts >= next_control:
                # Charge every interval that passed: after a quiet gap, one
                # interval's worth would inflate the arrival rate.
                intervals = 0
                while next_control <= ts:
                    next_control += dt
                    intervals += 1
                release(i, ts)
                overflow = False
                step(intervals)
                capacity = [q.capacity for q in queues]
            idx = index[source]
            tail = staged.get(idx)
            if tail is None or tail is admitted:
                buf = buffers[idx]
                if len(buf) < capacity[idx]:
                    # Room: admitted as offer_bulk's free prefix would be.
                    if not buf:
                        heads[idx] = tup.timestamp
                        heappush(heap, (tup.timestamp, idx))
                    buf.append(tup)
                    filed = indexes[idx]
                    if filed is not None:
                        filed.add(tup)
                    st = stats[idx]
                    st.offered += 1
                    if len(buf) > st.high_watermark:
                        st.high_watermark = len(buf)
                    if tail is None:
                        staged[idx] = admitted
                    continue
                staged[idx] = [tup]
                overflow = True
            else:
                tail.append(tup)
        if settle is not None:
            settle(math.inf)
        if timed:
            for wid in live:
                completion[wid] = last
            self.busy_until = t
        return t0

    def _run_appends(self, idx: int, wids: list[int]) -> list:
        """The bound ``append`` of source ``idx``'s run in each of ``wids``.

        A run is created (with its empty kept synopsis: seeded factories
        number their creates) at the first poll that needs it.
        """
        runs = self._runs[idx]
        joins = []
        for wid in wids:
            run = runs.get(wid)
            if run is None:
                run = runs[wid] = []
                if self._synopses is not None:
                    q = self.queues[idx]
                    self._synopses[idx][wid] = q.synopsis_factory.create(
                        q.dimensions
                    )
            joins.append(run.append)
        return joins

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

    Ordered by timestamp, then source name, then per-source sequence: the
    sources are concatenated in name order and stable-sorted on the
    timestamp alone, which breaks ties exactly that way.  A source's list
    need not be sorted.
    """
    events: list[Arrival] = []
    for source in sorted(sources):
        events += [
            (tup.timestamp, seq, source, tup)
            for seq, tup in enumerate(streams[source])
        ]
    events.sort(key=operator.itemgetter(0))
    return events


def window_runs(
    streams: dict[str, list[StreamTuple]],
    sources: Sequence[str],
    window: WindowSpec,
) -> tuple[list[int], dict[str, dict[int, int]], dict[tuple[str, int], list]]:
    """Who arrived in which window, cut per window instead of per arrival.

    Returns ``(sorted window ids, {source: {window id: arrivals}},
    {(source, window id): rows})``.  A run lists the rows of one source
    that fall in one window, in timeline order (:func:`merge_arrivals`');
    the runs themselves are in first-arrival order (the order a per-tuple
    fold would have created per-window state in: seeded synopsis factories
    number their creates).  Everything a virtual-clock driver derives from
    the arrivals — the counts, the ideal bags, summarize-only's full
    synopses — is built from these in bulk.

    Each source's timestamps are sorted once and each window's run is one
    slice between two bisections at the window's bounds, checked at its
    ends against :meth:`WindowSpec.ids` (whose answer is the contract).
    """
    ids = window.ids
    found = []
    for source in sources:
        tuples = streams[source]
        if not tuples:
            continue
        stamps = [tup.timestamp for tup in tuples]
        rows = [tup.row for tup in tuples]
        seqs: Sequence[int] = range(len(tuples))
        if any(map(operator.gt, stamps, stamps[1:])):
            seqs = sorted(seqs, key=stamps.__getitem__)
            stamps = [stamps[i] for i in seqs]
            rows = [rows[i] for i in seqs]
        for wid in window.candidate_ids(stamps[0], stamps[-1]):
            start, end = window.bounds(wid)
            lo = bisect_left(stamps, start)
            hi = bisect_left(stamps, end, lo)
            # Within [lo, hi) membership is one contiguous stretch; its
            # ends can only differ from the bounds by float rounding.
            while lo < hi and wid not in ids(stamps[lo]):
                lo += 1
            while hi > lo and wid not in ids(stamps[hi - 1]):
                hi -= 1
            if lo < hi:
                found.append((stamps[lo], source, seqs[lo], wid, rows[lo:hi]))
    found.sort(key=operator.itemgetter(0, 1, 2, 3))
    runs = {(source, wid): run for _, source, _, wid, run in found}
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
