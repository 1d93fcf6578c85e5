"""The triage queue: a bounded buffer that synopsizes its overflow.

Paper Figure 1 / Section 1: *"Data Triage places a triage queue between each
data source and the query processor ...  When a triage queue runs out of
space, the system uses a drop policy to remove less-critical tuples from the
queue, and uses synopses to capture the approximate properties of the
deleted set of tuples.  At the end of each time window ... the triage
subsystem passes these synopses to the query engine."*

Dropped tuples are folded into a per-window synopsis (windows are assigned
by arrival timestamp, so a burst that straddles a boundary is attributed
correctly).  The paper reads that summary at the window boundary, so the
fold happens there too: a victim only joins its windows' pending lists, and
the drop count, the timestamp bounds and the synopsis (one ``insert_bulk``,
in victim order) are brought up to date when the window is looked at or
released — or, for a policy that reads the synopsis while choosing victims,
before each of its decisions.  With ``summarize=False`` the same queue
implements the drop-only baseline — the single-codebase comparison of
Section 5.2.1.

:meth:`TriageQueue.offer_bulk` is the one way in, and
:class:`~repro.core.triage_core.TriageCore`, which stages every driver's
arrivals, is its one caller.

Concurrency contract
--------------------

A ``TriageQueue`` is **single-owner**: the virtual-clock pipeline, the
gateway, the service's event loop (connection handlers and the window
ticker take turns on one thread) and each shard worker all mutate their
queues from exactly one thread, so no synchronization is paid.
"""

from __future__ import annotations

import random
import sys
from collections import deque
from dataclasses import dataclass

from repro.core.policies import DROP_INCOMING, DropPolicy, PolicyContext
from repro.engine.columns import ColumnBatch
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.synopses.base import Dimension, Synopsis, SynopsisFactory


@dataclass
class WindowSynopsis:
    """One window's dropped-tuple summary, as shipped to the shadow query.

    Mirrors the paper's ``R_dropped_syn(syn, earliest, latest)`` stream
    schema, plus the exact drop count for accounting.
    """

    window_id: int
    synopsis: Synopsis | None
    dropped_count: int
    earliest: float | None
    latest: float | None


@dataclass
class QueueStats:
    """Counters the load controller, experiments and metrics export read.

    The queue is the only writer.  Everything the ``triage_*_total`` metric
    family reports is held here and folded into a registry by delta
    (:func:`repro.obs.metrics.fold_queue_stats`), never pushed per tuple.
    """

    offered: int = 0
    dropped: int = 0
    polled: int = 0
    overflows: int = 0
    high_watermark: int = 0
    #: Victims folded into a window synopsis (0 for a drop-only queue).
    summarized: int = 0
    #: Victim decisions: the arriving tuple itself / a buffered tuple.
    drop_incoming: int = 0
    evict_buffered: int = 0
    #: Approximate in-memory bytes of shed rows: each offer charges its
    #: victims at ``sys.getsizeof`` of one of them (rows of a stream are
    #: tuples of one arity, so this equals the per-victim sum).
    shed_bytes: int = 0

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    def snapshot(self) -> tuple[int, ...]:
        """The counters as a plain tuple in field order (pipe-friendly)."""
        return (
            self.offered,
            self.dropped,
            self.polled,
            self.overflows,
            self.high_watermark,
            self.summarized,
            self.drop_incoming,
            self.evict_buffered,
            self.shed_bytes,
        )


class TriageQueue:
    """Bounded tuple queue with drop-to-synopsis overflow behaviour."""

    def __init__(
        self,
        name: str,
        dimensions: list[Dimension],
        dim_positions: list[int],
        capacity: int,
        policy: DropPolicy,
        synopsis_factory: SynopsisFactory,
        window: WindowSpec,
        *,
        summarize: bool = True,
        seed: int = 0,
        audit=None,
    ) -> None:
        """``dimensions[i]`` describes row position ``dim_positions[i]``.

        ``summarize=False`` turns the queue into the drop-only baseline:
        victims are counted but not synopsized.
        ``audit`` is an optional :class:`~repro.obs.audit.DropLedger`; when
        set, every shed decision is recorded with its kind, window ids,
        queue depth, and the policy's score (``PolicyContext.last_score``).
        The ledger never touches the queue's RNG, so drop decisions are
        identical with audit on or off.
        """
        if capacity < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity}")
        if len(dimensions) != len(dim_positions):
            raise ValueError("dimensions and dim_positions must align")
        self.name = name
        self.dimensions = list(dimensions)
        self.dim_positions = tuple(dim_positions)
        self.capacity = capacity
        self.policy = policy
        self.synopsis_factory = synopsis_factory
        self.window = window
        self.summarize = summarize
        #: Optional DropLedger (assignable post-construction; the service
        #: data plane enables auditing on already-built queues).
        self.audit = audit
        self._rng = random.Random(seed)
        self._buffer: deque[StreamTuple] = deque()
        # window id -> victims not yet folded into the three dicts below.
        self._pending: dict[int, list[StreamTuple]] = {}
        self._window_synopses: dict[int, Synopsis] = {}
        self._window_counts: dict[int, int] = {}
        self._window_bounds: dict[int, tuple[float, float]] = {}
        # One reusable context per queue: every field but ``synopsis`` is
        # fixed for the queue's lifetime (and ``synopsis`` is refreshed per
        # decision only for a policy that reads it), so the overflow path
        # pays no dataclass construction per victim decision.  Policies must
        # not retain the context across calls — none do.
        self._policy_context = ctx = PolicyContext(
            rng=self._rng,
            synopsis=None,
            dim_positions=self.dim_positions,
            queue_name=name,
            window=window,
        )
        # The policy's own index of this buffer: ``None`` for most, which
        # then pay one branch per entry/exit.  Asked for once: swapping in
        # an indexing policy after construction is not supported.
        self.policy_index = ctx.index = policy.make_index(ctx)
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._buffer)

    @property
    def is_full(self) -> bool:
        return len(self._buffer) >= self.capacity

    def peek_timestamp(self) -> float | None:
        """Arrival time of the head tuple (None when empty)."""
        return self._buffer[0].timestamp if self._buffer else None

    # ------------------------------------------------------------------
    def offer_bulk(self, batch) -> int:
        """Arrivals from the source, in arrival order; returns drops.

        ``batch`` is a sequence of :class:`StreamTuple` or a
        :class:`~repro.engine.columns.ColumnBatch`, consumed natively: the
        only per-row objects built are the StreamTuples the buffer keeps.

        Any split of an arrival sequence into batches is equivalent — same
        drop decisions (same RNG draws), synopses and :class:`QueueStats`:
        a tuple is admitted while space remains, and once the buffer is
        full each arrival sheds exactly one victim (itself or a buffered
        tuple the policy picks).  The batch shape is exploited twice:

        * **free-prefix admit** — everything that fits goes in with one
          ``extend`` and zero RNG draws or per-tuple dispatch;
        * **one stats update per batch** — the decision, summarize and
          shed-byte counters are summed in locals and added to
          :class:`QueueStats` once after the loop; the batch's victims are
          priced with a single ``sys.getsizeof``.

        A victim joins the pending list of every window containing it; a
        window's synopsis is created at its first victim (seeded factories
        number their creates), everything else waits for :meth:`_fold`.
        """
        n = len(batch)
        if n == 0:
            return 0
        columnar = isinstance(batch, ColumnBatch)
        if not columnar and not isinstance(batch, (list, tuple)):
            batch = list(batch)
        stats = self.stats
        stats.offered += n
        buffer = self._buffer
        index = self.policy_index
        dropped = 0
        drop_incoming = 0
        free = self.capacity - len(buffer)
        k = n if free >= n else (free if free > 0 else 0)
        if k:
            if columnar:
                admit = batch.stream_tuples(0, k)
            else:
                admit = batch if k == n else batch[:k]
            buffer.extend(admit)
            if index is not None:
                for tup in admit:
                    index.add(tup)
        if k < n:
            # The buffer is full for this entire tail: every arrival
            # overflows and sheds exactly one victim.
            tail = batch.stream_tuples(k) if columnar else (
                batch[k:] if k else batch
            )
            stats.overflows += n - k
            ids = self.window.ids
            policy = self.policy
            select = policy.select_victim
            needs_syn = policy.reads_synopsis
            ctx = self._policy_context
            synopses = self._window_synopses
            summarize = self.summarize
            pending = self._pending
            pending_get = pending.get
            audit = self.audit
            audit_record = audit.record if audit is not None else None
            policy_name = policy.name if audit is not None else ""
            for tup in tail:
                if needs_syn:
                    ctx.synopsis = self._current_synopsis(tup.timestamp)
                if audit_record is not None:
                    ctx.last_score = None
                victim_idx = select(buffer, tup, ctx)
                if victim_idx == DROP_INCOMING:
                    victim = tup
                    drop_incoming += 1
                else:
                    victim = buffer[victim_idx]
                    del buffer[victim_idx]
                    buffer.append(tup)
                    if index is not None:
                        index.remove(victim)
                        index.add(tup)
                dropped += 1
                vwids = ids(victim.timestamp)
                if audit_record is not None:
                    audit_record(
                        "drop_incoming" if victim_idx == DROP_INCOMING
                        else "evict_buffered",
                        policy=policy_name,
                        stream=self.name,
                        windows=vwids,
                        timestamp=victim.timestamp,
                        depth=len(buffer),
                        score=ctx.last_score,
                        row=victim.row,
                    )
                for wid in vwids:
                    run = pending_get(wid)
                    if run is None:
                        run = pending[wid] = []
                        if summarize and wid not in synopses:
                            synopses[wid] = self.synopsis_factory.create(
                                self.dimensions
                            )
                    run.append(victim)
            stats.dropped += dropped
            stats.drop_incoming += drop_incoming
            stats.evict_buffered += dropped - drop_incoming
            stats.shed_bytes += dropped * sys.getsizeof(victim.row)
            if summarize:
                stats.summarized += dropped
        # ``high_watermark >= len(buffer)`` holds at every quiescent
        # point (only offers grow the buffer, and they maintain it), so
        # one max at the end equals a max after every append.
        if len(buffer) > stats.high_watermark:
            stats.high_watermark = len(buffer)
        return dropped

    def poll(self) -> StreamTuple | None:
        """The engine pulls the next tuple (FIFO order)."""
        if not self._buffer:
            return None
        self.stats.polled += 1
        tup = self._buffer.popleft()
        if self.policy_index is not None:
            self.policy_index.remove(tup)
        return tup

    # ------------------------------------------------------------------
    def _fold(self, window_id: int) -> None:
        """Bring a window's count, bounds and synopsis up to its last victim."""
        run = self._pending.pop(window_id, None)
        if run is None:
            return
        self._window_counts[window_id] = (
            self._window_counts.get(window_id, 0) + len(run)
        )
        stamps = [victim.timestamp for victim in run]
        lo, hi = min(stamps), max(stamps)
        have = self._window_bounds.get(window_id)
        if have is not None:
            lo, hi = min(lo, have[0]), max(hi, have[1])
        self._window_bounds[window_id] = (lo, hi)
        if self.summarize:
            self._window_synopses[window_id].insert_bulk(
                [victim.row for victim in run], self.dim_positions
            )

    def _current_synopsis(self, timestamp: float) -> Synopsis | None:
        """``PolicyContext.synopsis`` for a policy that reads it."""
        wid = self.window.primary_window(timestamp)
        self._fold(wid)
        return self._window_synopses.get(wid)

    # ------------------------------------------------------------------
    def window_synopsis(self, window_id: int) -> WindowSynopsis:
        """The dropped-tuple summary for one window (empty if no drops)."""
        self._fold(window_id)
        bounds = self._window_bounds.get(window_id)
        return WindowSynopsis(
            window_id=window_id,
            synopsis=self._window_synopses.get(window_id),
            dropped_count=self._window_counts.get(window_id, 0),
            earliest=bounds[0] if bounds else None,
            latest=bounds[1] if bounds else None,
        )

    def windows_with_drops(self) -> list[int]:
        return sorted(self._window_counts.keys() | self._pending.keys())

    def release_window(self, window_id: int) -> WindowSynopsis:
        """Emit and forget a window's synopsis (the end-of-window hand-off)."""
        out = self.window_synopsis(window_id)
        self._window_synopses.pop(window_id, None)
        self._window_counts.pop(window_id, None)
        self._window_bounds.pop(window_id, None)
        return out

    def drain(self) -> list[StreamTuple]:
        """Remove and return everything still buffered (end of run)."""
        out = list(self._buffer)
        self._buffer.clear()
        if self.policy_index is not None:
            self.policy_index.clear()
        return out
