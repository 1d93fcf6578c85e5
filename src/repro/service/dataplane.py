"""The per-process triage data plane: queues, windows, engine emulation.

This is the state a :class:`~repro.service.server.TriageServer` used to hold
inline — per-stream :class:`~repro.core.triage_queue.TriageQueue` instances,
arrival counts, the tuple-budgeted engine emulation (a
:class:`~repro.core.triage_core.TriageCore`, which also holds the
per-(source, window) kept-row runs until :meth:`collect` takes them), and
the window-close bookkeeping — factored out so it can run either in the
server process (``shards=1``, the serial fallback) or once per shard worker
process (:mod:`repro.service.shard`), each worker owning a disjoint subset
of the stream sources.

The split point is exactly the paper's: everything *before* window
evaluation is per-stream and independent (triage, shedding, synopsis
build), so it shards cleanly by source; evaluation wants all sources of a
window together, so the plane stops at :meth:`collect`, which closes a
batch of windows and returns their hand-off — a
:class:`~repro.core.merge.WindowPartials` of kept bags + synopses + counts
that the coordinator merges (:func:`repro.core.merge.merge_partials`) and
feeds to :meth:`DataTriagePipeline.evaluate_windows`.

Determinism contract: queue seeds come from
:meth:`DataTriagePipeline.build_queue`, which derives them from each
source's *global* chain position — a worker that owns only stream ``S``
still seeds ``S``'s queue identically to the serial server.  Since drop
decisions depend only on a queue's own offer/poll interleaving and its own
RNG, a window's kept/dropped partition is byte-identical at any shard
count (given the same drain schedule), which is what the shard
determinism tests pin down.
"""

from __future__ import annotations

from itertools import repeat

from repro.core.merge import WindowPartials
from repro.core.triage_core import TriageCore, due_windows
from repro.core.triage_queue import TriageQueue
from repro.engine.types import SchemaError, StreamTuple

__all__ = ["StreamDataPlane", "due_windows"]


class StreamDataPlane:
    """Triage queues + window accounting for a set of stream sources."""

    def __init__(
        self,
        pipeline,
        *,
        sources: list[str] | None = None,
    ) -> None:
        """``sources=None`` owns every source of the pipeline's query;
        a shard worker passes its assigned subset.  The ledger of
        ``pipeline.obs`` (if any) is shared by every owned queue and the
        hosted pattern engine.
        """
        self.pipeline = pipeline
        self.config = pipeline.config
        self.sources: list[str] = (
            list(pipeline.sources) if sources is None else list(sources)
        )
        self._schemas = {
            s: pipeline.bound.source(s).schema for s in self.sources
        }
        self._owns_query = set(self.sources) >= set(pipeline.sources)
        self.queues: dict[str, TriageQueue] = {
            s: pipeline.build_queue(s) for s in self.sources
        }
        self._index = {s: i for i, s in enumerate(self.sources)}
        # Untimed core: the engine is emulated by a tuple budget per tick.
        self._core = TriageCore(
            list(self.queues.values()),
            synopses=self.config.strategy.summarizes_drops,
        )
        self.arrived: dict[str, dict[int, int]] = {s: {} for s in self.sources}
        self.known_windows: set[int] = set()
        self._budget_carry = 0.0
        # CEP pattern hosting (attach_pattern): the engine consumes drained
        # tuples of its streams alongside the SPJ window accounting.
        self._pattern_engine = None
        self._pattern_sources: frozenset[str] = frozenset()
        self._pattern_matches: list[StreamTuple] = []

    # ------------------------------------------------------------------
    # CEP pattern hosting
    # ------------------------------------------------------------------
    def attach_pattern(
        self,
        pattern,
        *,
        max_runs: int = 1024,
        with_utility: bool = True,
        utility_bins: int = 8,
    ):
        """Host a pattern query beside the SPJ windows; returns its engine.

        ``pattern`` is a :class:`~repro.sql.binder.BoundPattern` whose
        streams must all be sources of this plane.  Drained tuples of those
        sources are fed — in the drain's oldest-head-first order — to a
        :class:`~repro.cep.engine.PatternEngine`; matches accumulate until
        :meth:`take_matches`.  At most one pattern per plane.
        """
        from repro.cep.engine import PatternEngine
        from repro.cep.utility import UtilityModel

        missing = [s for s in pattern.streams if s not in self.sources]
        if missing:
            raise ValueError(
                f"pattern streams {missing} are not sources of this plane "
                f"({self.sources})"
            )
        obs = self.pipeline.obs
        self._pattern_engine = PatternEngine(
            pattern,
            max_runs=max_runs,
            utility=(
                UtilityModel(pattern.within, bins=utility_bins)
                if with_utility
                else None
            ),
            audit=obs.ledger if obs is not None else None,
        )
        self._pattern_sources = frozenset(pattern.streams)
        self._pattern_matches = []
        return self._pattern_engine

    @property
    def pattern_engine(self):
        """The hosted pattern engine, or None."""
        return self._pattern_engine

    def take_matches(self) -> list[StreamTuple]:
        """Pop the pattern matches emitted since the last call."""
        out = self._pattern_matches
        self._pattern_matches = []
        return out

    # ------------------------------------------------------------------
    # Ingest (the publish hot path)
    # ------------------------------------------------------------------
    def ingest(
        self,
        source: str,
        rows,
        timestamps=None,
        now: float = 0.0,
        validate: bool = True,
    ) -> tuple[int, int, int, int]:
        """Validate, window-account, and enqueue one batch.

        Returns ``(accepted, late, queue_depth, queue_dropped_total)`` —
        the ack quad the PUBLISH handler reports as backpressure signals.
        Raises :class:`SchemaError` (prefixed with the row index) if any
        row is invalid; validation runs before anything is enqueued, so a
        bad batch is rejected atomically.  ``validate=False`` skips the
        per-row check for batches already validated column-wise (the
        ``cols`` wire encoding).
        """
        tup_rows = [tuple(row) for row in rows]
        if validate:
            validate_row = self._schemas[source].validate_row
            for i, tup_row in enumerate(tup_rows):
                try:
                    validate_row(tup_row)
                except SchemaError as exc:
                    raise SchemaError(f"row {i}: {exc}") from None
        stamps, keep, late = self._admit(source, len(tup_rows), timestamps, now)
        if timestamps is None:
            stamps = repeat(now)
        batch = list(map(StreamTuple, stamps, tup_rows))
        if keep is not None:
            batch = [batch[i] for i in keep]
        return self._enqueue(source, batch, late)

    def ingest_columns(
        self,
        source: str,
        cols,
        timestamps=None,
        now: float = 0.0,
        validate: bool = True,
    ) -> tuple[int, int, int, int]:
        """Columnar ingest: same contract as :meth:`ingest`, no row pivot.

        ``cols`` is one value list per schema column (the ``cols`` wire
        encoding).  The batch reaches the queue as a
        :class:`~repro.engine.columns.ColumnBatch` — row tuples are only
        materialized by the queue itself, for exactly the tuples it keeps.
        Validation is column-wise (one homogeneous-type scan per column)
        and, like :meth:`ingest`, runs before any window accounting so a
        bad batch is rejected atomically.
        """
        from repro.engine.columns import ColumnBatch

        schema = self._schemas[source]
        # cols == [] is the columnar spelling of an empty batch (a zero-row
        # pivot has no column structure to arity-check); everything below
        # degenerates correctly for n == 0.
        if validate and cols:
            schema.validate_columns(cols)
        n = len(cols[0]) if cols else 0
        stamps, keep, late = self._admit(source, n, timestamps, now)
        batch = ColumnBatch(cols, stamps, schema)
        if keep is not None:
            batch = batch.select(keep)
        return self._enqueue(source, batch, late)

    def _enqueue(self, source: str, batch, late: int) -> tuple[int, int, int, int]:
        """Offer an admitted batch through the core; returns the ack quad."""
        self._core.offer(self._index[source], batch)
        self._core.flush()  # the ack reads the queue
        queue = self.queues[source]
        return len(batch), late, len(queue), queue.stats.dropped

    def _admit(self, source: str, n: int, timestamps, now: float):
        """Stamp ``n`` validated rows, turn the late ones away, count the rest.

        Returns ``(stamps, keep, late)``: the batch's timestamps (the one
        shared ``now`` when the publisher sent none), the indices that land
        in a still-open window (``None`` = all of them) and how many do not.
        Survivors are added to ``arrived`` / ``known_windows``.  Everything
        that can raise does so before the first count is touched, so a
        rejected batch leaves no inflated arrivals or phantom windows.
        """
        ids = self.config.window.ids
        arrived = self.arrived[source]
        known = self.known_windows
        last_closed = self.last_closed_wid
        if timestamps is None:
            # One window lookup for the whole batch.
            wids = ids(now)
            if last_closed is not None and (not wids or wids[0] <= last_closed):
                return now, [], n
            for wid in wids:
                arrived[wid] = arrived.get(wid, 0) + n
                known.add(wid)
            return now, None, 0
        if len(timestamps) != n:
            raise SchemaError(f"timestamps length {len(timestamps)} != rows {n}")
        stamps = [float(t) for t in timestamps]
        keep: list[int] = []
        ka = keep.append
        for i, ts in enumerate(stamps):
            wids = ids(ts)
            if last_closed is not None and (not wids or wids[0] <= last_closed):
                continue
            for wid in wids:
                arrived[wid] = arrived.get(wid, 0) + 1
                known.add(wid)
            ka(i)
        late = n - len(keep)
        return stamps, (keep if late else None), late

    # ------------------------------------------------------------------
    # Engine emulation
    # ------------------------------------------------------------------
    def advance(self, elapsed: float) -> int:
        """One engine step: drain within ``elapsed``'s tuple budget.

        The budget is ``elapsed / service_time`` plus the fractional carry
        from the previous step — the same fixed-cost engine model as the
        virtual-clock pipeline.  Returns the whole-tuple budget spent
        (each shard of a sharded plane runs its own engine, so N shards
        model N cores' worth of drain capacity).
        """
        budget = self._budget_carry + elapsed / self.config.service_time
        whole = int(budget)
        self._budget_carry = budget - whole
        self.drain(whole)
        return whole

    def drain(self, budget: int | None) -> None:
        """Poll up to ``budget`` tuples (None = everything), oldest first.

        Drained tuples of a hosted pattern's sources hit its engine as one
        ``advance_batch`` at the end of the drain (byte-identical to
        per-tuple consume; the engine vectorizes its utility updates and
        local-predicate pre-filter over the batch).
        """
        polled: list | None = None if self._pattern_engine is None else []
        self._core.drain(budget=budget, polled=polled)
        if polled:
            pattern_sources = self._pattern_sources
            feed = [(s, tup) for s, tup, _ in polled if s in pattern_sources]
            if feed:
                self._pattern_matches.extend(
                    self._pattern_engine.advance_batch(feed)
                )

    # ------------------------------------------------------------------
    # Window closing
    # ------------------------------------------------------------------
    def due_windows(self, now: float, grace: float = 0.0) -> list[int]:
        """The windows :meth:`collect` may close now (see :func:`due_windows`)."""
        return due_windows(
            self.known_windows, self.heads().values(), self.config.window, now, grace
        )

    def collect(self, wids: list[int]) -> WindowPartials:
        """Hand off and close a batch of windows.

        Returns their :class:`~repro.core.merge.WindowPartials` and advances
        the closed-window watermark past them: later rows for them are late.
        A shard worker owns only some of the query's sources (the drop may
        be another worker's), so it fills every kept synopsis.
        """
        partials = self._core.hand_off(
            wids, self.arrived, fill_all=not self._owns_query
        )
        self.known_windows.difference_update(wids)
        self._core.close(wids)
        return partials

    @property
    def last_closed_wid(self) -> int | None:
        """Highest window id reported so far (the core's closed floor)."""
        return self._core.closed_floor

    # ------------------------------------------------------------------
    # Introspection (metrics, summaries, coordinator snapshots)
    # ------------------------------------------------------------------
    def depths(self) -> dict[str, int]:
        return {s: len(q) for s, q in self.queues.items()}

    def heads(self) -> dict[str, float | None]:
        return {s: q.peek_timestamp() for s, q in self.queues.items()}

    def capacities(self) -> dict[str, int]:
        return {s: q.capacity for s, q in self.queues.items()}

    def stats_snapshot(self) -> dict[str, tuple[int, ...]]:
        """Monotonic per-queue counters (``QueueStats.snapshot()`` tuples)."""
        return {s: q.stats.snapshot() for s, q in self.queues.items()}

    def totals(self) -> tuple[int, int]:
        """(offered, dropped) across all owned queues."""
        offered = sum(q.stats.offered for q in self.queues.values())
        dropped = sum(q.stats.dropped for q in self.queues.values())
        return offered, dropped
