"""The end-to-end Data Triage pipeline on a virtual clock.

Reproduces the runtime of paper Figures 1 and 2: per-stream triage queues in
front of a single query engine, per-window exact execution over kept tuples,
shadow-plan estimation over synopses of dropped tuples, and merging.

The load experiments (Figures 8/9) measured a real machine; here the engine
is modelled by a *service time* per tuple on a simulated clock (see
DESIGN.md's substitution log): arrivals carry timestamps, the engine
processes queued tuples one at a time at ``config.service_time`` seconds
each, and queues overflow exactly when arrivals outpace that service rate.
This keeps who-wins/where-crossovers behaviour intact while making runs
deterministic under a seed.

Event model (discrete-event simulation):

* arrival events, in timestamp order, push tuples into their stream's
  triage queue (or straight into a window synopsis for summarize-only);
* between arrivals the engine drains the queues — always taking the
  globally oldest queued tuple — charging ``service_time`` per tuple;
* a processed tuple joins its window's kept run (windows are assigned by
  *arrival* time, so backlog processed late still lands in the right
  window, as in TelegraphCQ's windowed operators); the run becomes the
  kept bag and kept synopsis once, when the window is evaluated;
* after the last arrival the engine drains every queue, so at most one
  queue's worth of tuples per stream escapes dropping at saturation — the
  paper's stated maximum-load condition.
"""

from __future__ import annotations

import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.algebra.multiset import Multiset
from repro.core.controller import LoadController
from repro.core.merge import (
    Groups,
    MergeSpec,
    WindowPartials,
    estimate_groups,
    exact_groups,
    merge_groups,
)
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.core.triage_core import TriageCore, merge_arrivals, window_runs
from repro.core.triage_queue import TriageQueue
from repro.engine.catalog import Catalog
from repro.engine.executor import QueryExecutor
from repro.engine.types import StreamTuple
from repro.obs.metrics import fold_queue_stats, record_hook_error
from repro.rewrite.plan import RewriteError, SPJPlan
from repro.rewrite.shadow import ShadowPlan
from repro.sql.ast import SelectStmt
from repro.sql.binder import Binder, BoundQuery
from repro.sql.parser import parse_statement
from repro.synopses.base import Dimension, Synopsis

if TYPE_CHECKING:
    from repro.obs import Observability

_UNOBSERVED = nullcontext()


def _no_phase(window_id: int, phase: str):
    """``Observability.window_phase`` for a pipeline without a bundle."""
    return _UNOBSERVED


@dataclass
class WindowOutcome:
    """Everything known about one window after the run.

    ``result_latency`` is how long after the window closed the engine
    finished processing the window's last kept tuple — the staleness a full
    triage queue imposes (0 when the engine kept up; None when the runner
    does not track time, e.g. summarize-only).
    """

    window_id: int
    merged: Groups
    exact: Groups
    estimated: Groups
    ideal: Groups | None
    arrived: dict[str, int]
    kept: dict[str, int]
    dropped: dict[str, int]
    result_latency: float | None = None
    #: Raw mode (non-aggregate queries) only: the window's exact result rows
    #: and the shadow synopsis of lost result tuples — the inputs the
    #: detail-in-context UI of paper Figure 3 consumes.
    raw_rows: "Multiset | None" = None
    lost_synopsis: "Synopsis | None" = None


@dataclass
class RunResult:
    """Per-window outcomes plus run-level accounting."""

    windows: list[WindowOutcome]
    total_arrived: int
    total_kept: int
    total_dropped: int
    strategy: ShedStrategy
    queue_stats: dict[str, "object"] = field(default_factory=dict)

    @property
    def drop_fraction(self) -> float:
        return self.total_dropped / self.total_arrived if self.total_arrived else 0.0


class DataTriagePipeline:
    """Compile a continuous query once; run it under any load/strategy."""

    def __init__(
        self,
        catalog: Catalog,
        query: str | SelectStmt | BoundQuery,
        config: PipelineConfig,
        domains: dict[str, tuple[int, int]] | None = None,
        *,
        obs: "Observability | None" = None,
    ) -> None:
        """``domains`` maps qualified columns (``'R.a'``) to value bounds;
        unlisted columns default to the paper's 1..100.

        ``obs`` attaches an observability bundle (:class:`repro.obs.Observability`),
        the only attachment point: runs then record queue/engine metrics
        into its registry, spans and tuple-lifecycle events into its tracer,
        per-window phase timings into its ``phase_seconds`` store, every
        shed decision into its ``ledger`` (when it has one) and phase tags
        onto its ``sampler``'s stacks (likewise).  ``None`` (default) keeps
        every hot path uninstrumented.
        """
        self.catalog = catalog
        self.config = config
        self.obs = obs
        #: ``hook(outcome)`` callbacks run once per evaluated
        #: :class:`WindowOutcome` — see :meth:`add_window_hook`.
        self.window_hooks: list = []
        if isinstance(query, str):
            stmt = parse_statement(query)
            query = Binder(catalog).bind(stmt)
        elif isinstance(query, SelectStmt):
            query = Binder(catalog).bind(query)
        if not isinstance(query, BoundQuery):
            raise RewriteError("the pipeline requires a single SPJ SELECT block")
        self.bound = query
        self.plan = SPJPlan.from_bound(query)
        self.shadow = ShadowPlan(self.plan)
        # Aggregate queries merge numerically; non-aggregate queries run in
        # *raw mode* (Future Work §8.1: "queries without aggregates"): each
        # window carries its exact result rows plus the lost-results
        # synopsis, ready for detail-in-context visualization.
        self.merge_spec = (
            MergeSpec.from_plan(self.plan) if query.is_aggregate else None
        )
        self.executor = QueryExecutor(catalog, compiled=config.compiled_plans)
        self._domains = {k.lower(): v for k, v in (domains or {}).items()}
        self._dims: dict[str, list[Dimension]] = {}
        self._dim_positions: dict[str, list[int]] = {}
        for link in self.plan.chain:
            dims, positions = self._dimensions_for(link.source_name)
            self._dims[link.source_name] = dims
            self._dim_positions[link.source_name] = positions

    # ------------------------------------------------------------------
    def _referenced_columns(self, source_name: str) -> set[str]:
        """Bare column names of ``source_name`` the query touches."""
        src = self.bound.source(source_name)
        if self.merge_spec is None:
            # Raw mode: the lost-results synopsis stands in for whole result
            # tuples, so every column participates.
            return {c.name.lower() for c in src.schema.columns}
        out: set[str] = set()
        for link in self.plan.chain:
            for p in link.join_with_prefix:
                if p.left_source == source_name:
                    out.add(p.left_column.lower())
                if p.right_source == source_name:
                    out.add(p.right_column.lower())
        prefix = f"{source_name.lower()}."
        for dim in self.merge_spec.group_dims + tuple(
            d for d in self.merge_spec.agg_dims if d
        ):
            if dim.lower().startswith(prefix):
                out.add(dim.lower()[len(prefix):])
        for expr in self.plan.local_predicates.get(source_name, []):
            for col in expr.columns():
                name = col.rsplit(".", 1)[-1]
                out.add(name)
        return out

    def _dimensions_for(self, source_name: str) -> tuple[list[Dimension], list[int]]:
        src = self.bound.source(source_name)
        referenced = self._referenced_columns(source_name)
        dims: list[Dimension] = []
        positions: list[int] = []
        for pos, col in enumerate(src.schema.columns):
            if col.name.lower() not in referenced:
                continue
            qualified = f"{source_name}.{col.name}"
            lo, hi = self._domains.get(qualified.lower(), (1, 100))
            dims.append(Dimension(qualified, lo, hi))
            positions.append(pos)
        if not dims:
            raise RewriteError(
                f"query references no synopsizable column of {source_name!r}"
            )
        return dims, positions

    # ------------------------------------------------------------------
    # Public hooks for external runners (network service, gateways)
    # ------------------------------------------------------------------
    @property
    def sources(self) -> list[str]:
        """Chain source names, in join order."""
        return [link.source_name for link in self.plan.chain]

    def source_dimensions(self, source: str) -> tuple[list[Dimension], list[int]]:
        """The synopsis dimensions of ``source`` and their row positions.

        External feeders (e.g. :mod:`repro.service.server`) use this to
        build their own triage queues and kept-tuple synopses that stay
        consistent with the compiled shadow plan.
        """
        return list(self._dims[source]), list(self._dim_positions[source])

    def build_queue(
        self,
        source: str,
        *,
        capacity: int | None = None,
        policy=None,
        summarize: bool | None = None,
        seed: int | None = None,
    ) -> TriageQueue:
        """A :class:`TriageQueue` for ``source``, configured like the
        pipeline's own (dimensions, window, synopsis factory, the bundle's
        ledger), for callers that drive arrival/drain themselves instead of
        using :meth:`run`.
        """
        cfg = self.config
        index = self.sources.index(source)
        return TriageQueue(
            name=source,
            dimensions=self._dims[source],
            dim_positions=self._dim_positions[source],
            capacity=cfg.queue_capacity if capacity is None else capacity,
            policy=policy if policy is not None else cfg.policy,
            synopsis_factory=cfg.synopsis_factory,
            window=cfg.window,
            summarize=(
                cfg.strategy.summarizes_drops if summarize is None else summarize
            ),
            seed=(cfg.seed if seed is None else seed) * 7919 + index,
            audit=self.obs.ledger if self.obs is not None else None,
        )

    def add_window_hook(self, hook) -> None:
        """Register ``hook(outcome)``, called once per evaluated window.

        Hooks run after :meth:`evaluate_windows` produces its outcomes, in
        registration order.  They are best-effort: an exception is swallowed
        and counted as ``obs_hook_errors_total{site="window_hook"}``, never
        aborting a run.
        """
        self.window_hooks.append(hook)

    def _dispatch_window_hooks(self, outcomes: list[WindowOutcome]) -> None:
        if not self.window_hooks:
            return
        registry = self.obs.registry if self.obs is not None else None
        for outcome in outcomes:
            for hook in self.window_hooks:
                try:
                    hook(outcome)
                except Exception:
                    record_hook_error("window_hook", registry)

    # ------------------------------------------------------------------
    # Running
    # ------------------------------------------------------------------
    def run(self, streams: dict[str, list[StreamTuple]]) -> RunResult:
        """Simulate the full run and compute every window's composite answer.

        ``streams`` maps chain *source names* to timestamp-sorted arrivals.
        """
        cfg = self.config
        if self.obs is not None and self.obs.sampler is not None:
            self.obs.sampler.start()  # idempotent; whoever attached it stops it
        sources = self.sources
        missing = [s for s in sources if s not in streams]
        if missing:
            raise ValueError(f"no arrivals supplied for sources {missing}")

        events = merge_arrivals(streams, sources)
        # The one walk of the timeline that assigns arrivals to windows:
        # counts, ideal bags and full synopses are all built from its runs.
        window_ids, arrived, runs = window_runs(events, sources, cfg.window)
        ideal_inputs = self._ideal_inputs(runs) if cfg.compute_ideal else None
        if cfg.strategy is ShedStrategy.SUMMARIZE_ONLY:
            return self._run_summarize_only(
                len(events), window_ids, arrived, runs, ideal_inputs
            )
        return self._run_queued(events, window_ids, arrived, ideal_inputs)

    # ------------------------------------------------------------------
    def _run_summarize_only(
        self, total, window_ids, arrived, runs, ideal_inputs
    ) -> RunResult:
        cfg = self.config
        sources = self.sources
        full_syn: dict[str, dict[int, Synopsis]] = {s: {} for s in sources}
        for (source, wid), run in runs.items():
            syn = full_syn[source][wid] = cfg.synopsis_factory.create(
                self._dims[source]
            )
            syn.insert_bulk(run, self._dim_positions[source])

        windows: list[WindowOutcome] = []
        for wid in window_ids:
            result_syn = self.shadow.estimate_full(
                {s: full_syn[s].get(wid) for s in sources}
            )
            estimated: Groups = {}
            if self.merge_spec is not None:
                estimated = estimate_groups(result_syn, self.merge_spec)
            ideal = self._ideal_for(ideal_inputs, wid) if ideal_inputs else None
            windows.append(
                WindowOutcome(
                    window_id=wid,
                    merged=estimated,
                    exact={},
                    estimated=estimated,
                    ideal=ideal,
                    arrived={s: arrived[s].get(wid, 0) for s in sources},
                    kept={s: 0 for s in sources},
                    dropped={s: arrived[s].get(wid, 0) for s in sources},
                    lost_synopsis=result_syn,
                )
            )
        return RunResult(
            windows=windows,
            total_arrived=total,
            total_kept=0,
            total_dropped=total,
            strategy=cfg.strategy,
        )

    # ------------------------------------------------------------------
    def _run_queued(self, events, window_ids, arrived, ideal_inputs) -> RunResult:
        """Replay ``events`` through the triage core on the virtual clock.

        The loop itself (oldest-first drain, kept-row runs) is
        :class:`~repro.core.triage_core.TriageCore`; this driver owns the
        arrival replay, the load controllers and the observability around
        each core call.
        """
        cfg = self.config
        sources = self.sources
        # Observability: `obs is None` is THE fast path — every
        # instrumentation site below is behind that check (or the cheaper
        # booleans derived here), so an unobserved run pays one branch per
        # arrival and nothing per polled tuple.  An observed run keeps its
        # per-tuple work to list appends: queue counters are folded from
        # QueueStats and depths from ``depth_samples`` once the replay ends.
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        trace_on = tracer is not None and tracer.enabled
        tuple_on = trace_on and tracer.tuple_events
        queues = {s: self.build_queue(s) for s in sources}
        core = TriageCore(
            [queues[s] for s in sources],
            [cfg.service_time] * len(sources),
            synopses=cfg.strategy is ShedStrategy.DATA_TRIAGE,
        )

        controllers: dict[str, LoadController] | None = None
        control_dt = 0.0
        next_control = math.inf
        if cfg.adaptive_staleness is not None:
            # React on a fraction of the staleness budget: bursts shorter
            # than the control interval are invisible to the controller.
            controllers = {
                s: LoadController(alpha=0.5, max_staleness=cfg.adaptive_staleness)
                for s in sources
            }
            # Interval: a quarter of the budget, but never slower than ~50
            # tuples of engine work — load can whipsaw inside long budgets.
            control_dt = min(cfg.adaptive_staleness / 4, 50 * cfg.service_time)
            next_control = control_dt

        g_capacity = g_rate = g_frac = h_depth = None
        if obs is not None:
            reg = obs.registry
            g_capacity = reg.gauge(
                "triage_queue_capacity", "Current queue capacity", ("stream",)
            )
            h_depth = reg.histogram(
                "triage_queue_depth", "Depth sampled at each arrival", ("stream",)
            )
            if controllers is not None:
                g_rate = reg.gauge(
                    "controller_arrival_rate", "EWMA arrivals/second", ("stream",)
                )
                g_frac = reg.gauge(
                    "controller_drop_fraction", "EWMA drop fraction", ("stream",)
                )
            for s in sources:
                g_capacity.set(queues[s].capacity, stream=s)
            depth_samples: dict[str, list[int]] = {s: [] for s in sources}
            now = tracer.now
            tuple_event = tracer.tuple_event
        drain_seconds = 0.0
        # The hand-back list exists only for tuple-level ``poll`` events.
        polled: list | None = [] if tuple_on else None
        # What each flush offered: every arrival's depth sample and, with
        # tuple events, its ``ingest`` and ``enqueue``-or-``shed`` verdict.
        offered: list | None = [] if obs is not None else None

        def flush() -> None:
            """``core.flush``, plus what an observed run records per arrival."""
            core.flush(offered)
            if not offered:
                return
            for source, depth, batch in offered:
                # The first ``admitted`` found room; each later one shed one.
                n = len(batch)
                full = max(queues[source].capacity, depth)
                admitted = min(full - depth, n)
                samples = depth_samples[source]
                samples.extend(range(depth + 1, depth + admitted + 1))
                samples.extend([full] * (n - admitted))
                if tuple_on:
                    for i, tup in enumerate(batch):
                        ts = tup.timestamp
                        tuple_event("ingest", source, ts)
                        tuple_event("enqueue" if i < admitted else "shed", source, ts)
            offered.clear()

        def observed_drain(until: float = math.inf) -> None:
            """``core.drain`` plus its span and tuple-level events."""
            nonlocal drain_seconds
            if core.busy_until < until:  # the core's own flush rule
                flush()
            t0 = now()
            n = core.drain(until, polled=polled)
            if not n:
                return
            t1 = now()
            drain_seconds += t1 - t0
            if not trace_on:
                return
            if polled:
                for source, tup, _ in polled:
                    tuple_event("poll", source, tup.timestamp)
                polled.clear()
            if until == math.inf:
                tracer.complete("drain", t0, t1, polled=n, final=True)
            else:
                tracer.complete("drain", t0, t1, polled=n, until=until)

        drain = core.drain if obs is None else observed_drain

        source_index = {s: i for i, s in enumerate(sources)}
        # Ambient phase tags join sampled stacks to the identically-named
        # trace spans; ``flip`` is None unless a sampler is attached.
        with (
            obs.phase_tags("ingest") if obs is not None else nullcontext()
        ) as flip:
            for ts, _, source, tup in events:
                if flip is not None:
                    flip("drain")
                drain(ts)
                if flip is not None:
                    flip("ingest")
                if controllers is not None and ts >= next_control:
                    # Charge every interval that passed: after a quiet gap,
                    # one interval's worth would inflate the arrival rate.
                    intervals = 0
                    while next_control <= ts:
                        next_control += control_dt
                        intervals += 1
                    flush()
                    for s in sources:
                        est = controllers[s].observe(
                            interval_seconds=intervals * control_dt,
                            stats=queues[s].stats,
                        )
                        queues[s].capacity = controllers[s].recommended_capacity(
                            cfg.service_time
                        )
                        if obs is not None:
                            g_capacity.set(queues[s].capacity, stream=s)
                            g_rate.set(est.arrival_rate, stream=s)
                            g_frac.set(est.drop_fraction, stream=s)
                core.offer(source_index[source], (tup,))
            if flip is not None:
                flip("drain")
            drain()
            if obs is not None:
                obs.record_run_phase("drain", drain_seconds)
                fold_queue_stats(
                    reg, {s: q.stats.snapshot() for s, q in queues.items()}, {}
                )
                for s, samples in depth_samples.items():
                    if samples:
                        h_depth.observe_many(samples, stream=s)

        windows = self.evaluate_windows(
            core.hand_off(window_ids, arrived), ideal_inputs
        )
        for w in windows:
            _, end = cfg.window.bounds(w.window_id)
            finished = core.completion.get(w.window_id)
            w.result_latency = max(0.0, finished - end) if finished else 0.0
        # Count tuples, not per-window memberships (overlapping windows
        # hold the same tuple several times).
        total = len(events)
        total_kept = total - sum(q.stats.dropped for q in queues.values())
        return RunResult(
            windows=windows,
            total_arrived=total,
            total_kept=total_kept,
            total_dropped=total - total_kept,
            strategy=cfg.strategy,
            queue_stats={s: queues[s].stats for s in sources},
        )

    # ------------------------------------------------------------------
    # Window evaluation (shared by the built-in runner and the gateway)
    # ------------------------------------------------------------------
    def evaluate_windows(
        self,
        partials: WindowPartials,
        ideal_inputs=None,
        trace_ids: dict[int, list[str]] | None = None,
    ) -> list[WindowOutcome]:
        """Turn one window hand-off into composite answers.

        This is the window-boundary work of Figure 2: execute the exact
        query over the kept bags, run the shadow plan over the synopses
        (when ``partials`` carries them — ``None`` halves mean drop-only
        semantics), and merge.  Only this query's sources are read, so a
        hand-off built over more streams (the shared runtime's) serves
        every query as is.  External shedding layers (e.g. the distributed
        gateway of :mod:`repro.core.gateway`) build their own
        :class:`~repro.core.merge.WindowPartials` and reuse this.

        ``trace_ids`` maps a window id to the distributed-trace ids of the
        PUBLISH batches that landed in it; the window's ``window_close`` and
        ``emit`` events are tagged with them (plus flow steps), which is
        what lets a merged client+server trace connect one publish to the
        window that answered it.  Like all tracing it is decoration only —
        never recorded on outcomes.
        """
        sources = [link.source_name for link in self.plan.chain]
        kept_rows = partials.kept_rows
        kept_synopses = partials.kept_synopses
        dropped_synopses = partials.dropped_synopses
        dropped_counts = partials.dropped_counts
        arrived = partials.arrived
        stream_of = {
            s: self.bound.source(s).stream_name.lower() for s in sources
        }
        # Read-only stand-in for absent windows: scans only iterate their
        # input bag, so one shared empty Multiset is safe and avoids a
        # throwaway Counter per (source, window).
        empty = Multiset()
        # Per-window phase accounting (exact/shadow/merge) goes through the
        # bundle's one phase seam: ``obs.phase_seconds``, the tracer's
        # spans and the sampler's tags.
        obs = self.obs
        tracer = obs.tracer if obs is not None else None
        trace_on = tracer is not None and tracer.enabled
        phase = obs.window_phase if obs is not None else _no_phase
        windows: list[WindowOutcome] = []
        for wid in partials.window_ids:
            wid_traces = trace_ids.get(wid) if trace_ids else None
            if trace_on:
                if wid_traces:
                    tracer.instant(
                        "window_close",
                        cat="window",
                        window=wid,
                        trace_ids=wid_traces,
                    )
                    for tid in wid_traces:
                        tracer.flow(
                            "window_close", tid, phase="t", window=wid
                        )
                else:
                    tracer.instant("window_close", cat="window", window=wid)
            exact_inputs = {
                stream_of[s]: kept_rows[s].get(wid, empty) for s in sources
            }
            with phase(wid, "exact"):
                result = self.executor.execute(self.bound, exact_inputs)

            with phase(wid, "shadow"):
                result_syn: Synopsis | None = None
                if dropped_synopses is not None:
                    assert kept_synopses is not None
                    dropped = {s: dropped_synopses[s].get(wid) for s in sources}
                    # Every term of Q- joins some stream's dropped synopsis:
                    # a window in which nothing was dropped has none to
                    # estimate (and its kept synopses were never filled).
                    if any(syn is not None for syn in dropped.values()):
                        result_syn = self.shadow.estimate_dropped(
                            {s: kept_synopses[s].get(wid) for s in sources},
                            dropped,
                        )

            with phase(wid, "merge"):
                raw_rows = None
                exact: Groups = {}
                estimated: Groups = {}
                if self.merge_spec is None:
                    # Raw mode: carry rows + synopsis; no numeric merge exists.
                    raw_rows = result.rows
                    merged = {}
                else:
                    exact = exact_groups(result.rows, result.schema, self.merge_spec)
                    if dropped_synopses is not None:
                        estimated = estimate_groups(result_syn, self.merge_spec)
                        merged = merge_groups(exact, estimated, self.merge_spec)
                    else:
                        merged = exact

            ideal = None
            if ideal_inputs:
                t0 = time.perf_counter()
                ideal = self._ideal_for(ideal_inputs, wid)
                if obs is not None:
                    obs.record_phase(wid, "ideal", time.perf_counter() - t0)
            if trace_on:
                if wid_traces:
                    tracer.instant(
                        "emit",
                        cat="window",
                        window=wid,
                        rows=len(result.rows),
                        trace_ids=wid_traces,
                    )
                else:
                    tracer.instant(
                        "emit", cat="window", window=wid, rows=len(result.rows)
                    )
            windows.append(
                WindowOutcome(
                    window_id=wid,
                    merged=merged,
                    exact=exact,
                    estimated=estimated,
                    ideal=ideal,
                    arrived={s: arrived[s].get(wid, 0) for s in sources},
                    kept={
                        s: len(kept_rows[s].get(wid, empty)) for s in sources
                    },
                    dropped={
                        s: dropped_counts[s].get(wid, 0) for s in sources
                    },
                    raw_rows=raw_rows,
                    lost_synopsis=result_syn,
                )
            )
        self._dispatch_window_hooks(windows)
        return windows

    # ------------------------------------------------------------------
    # Ideal (no-shedding) reference
    # ------------------------------------------------------------------
    def _ideal_inputs(self, runs):
        """``{source: {window id: bag of every arrival}}`` from
        :func:`~repro.core.triage_core.window_runs`' runs."""
        per_window: dict[str, dict[int, Multiset]] = {s: {} for s in self.sources}
        for (source, wid), run in runs.items():
            per_window[source][wid] = Multiset(run)
        return per_window

    def _ideal_for(self, ideal_inputs, wid: int) -> "Groups | None":
        if self.merge_spec is None:
            return None  # raw mode has no grouped ideal
        empty = Multiset()
        inputs = {
            self.bound.source(s).stream_name.lower(): bags.get(wid, empty)
            for s, bags in ideal_inputs.items()
        }
        result = self.executor.execute(self.bound, inputs)
        return exact_groups(result.rows, result.schema, self.merge_spec)
