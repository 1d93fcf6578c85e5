"""Shared triage across multiple continuous queries (Future Work §8.1).

*"An ambitious aspect of TelegraphCQ is its support for sharing processing
across multiple continuous queries.  While TelegraphCQ can naturally share
processing for our kept tuples, we have not explored the possibility of
sharing synopses of the dropped tuples across queries."*

:class:`SharedTriageRuntime` explores exactly that: N continuous queries run
over the same input streams with **one** triage queue per stream and **one**
set of per-window kept/dropped synopses, built over the *union* of the
columns any query references.  Every query's shadow plan then reads the
shared synopses — joins address their own dimensions by name, extra
dimensions simply ride along and marginalize out — so the synopsis-building
work and memory are paid once instead of once per query.

:meth:`SharedTriageRuntime.sharing_ratio` quantifies the saving against the
per-query alternative.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.pipeline import DataTriagePipeline, RunResult
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.core.triage_core import TriageCore, merge_arrivals, window_runs
from repro.core.triage_queue import TriageQueue
from repro.engine.catalog import Catalog
from repro.engine.types import StreamTuple
from repro.rewrite.plan import RewriteError
from repro.synopses.base import Dimension


@dataclass
class SharedRunResult:
    """Per-query results plus the shared-infrastructure accounting."""

    per_query: dict[str, RunResult]
    shared_synopsis_cells: int
    unshared_synopsis_cells: int
    total_arrived: int
    total_dropped: int

    @property
    def sharing_ratio(self) -> float:
        """Synopsis cells saved: unshared / shared (>= 1.0 when sharing wins)."""
        if self.shared_synopsis_cells == 0:
            return 1.0
        return self.unshared_synopsis_cells / self.shared_synopsis_cells


class SharedTriageRuntime:
    """N queries, one triage queue per stream, shared synopses."""

    def __init__(
        self,
        catalog: Catalog,
        queries: dict[str, str],
        config: PipelineConfig,
        domains: dict[str, tuple[int, int]] | None = None,
    ) -> None:
        if config.strategy is not ShedStrategy.DATA_TRIAGE:
            raise ValueError("the shared runtime is a Data Triage construct")
        self.catalog = catalog
        self.config = config
        self.pipelines: dict[str, DataTriagePipeline] = {}
        for qid, text in queries.items():
            pipe = DataTriagePipeline(catalog, text, config, domains=domains)
            for link in pipe.plan.chain:
                if link.source_name.lower() != link.stream_name.lower():
                    raise RewriteError(
                        f"query {qid!r} aliases stream {link.stream_name!r} as "
                        f"{link.source_name!r}; shared triage requires queries "
                        "to reference streams by their own names"
                    )
            self.pipelines[qid] = pipe

        # Union of referenced dimensions per stream, across all queries.
        self._dims: dict[str, list[Dimension]] = {}
        self._dim_positions: dict[str, list[int]] = {}
        for pipe in self.pipelines.values():
            for link in pipe.plan.chain:
                stream = link.stream_name
                dims = self._dims.setdefault(stream, [])
                positions = self._dim_positions.setdefault(stream, [])
                for dim, pos in zip(*pipe.source_dimensions(link.source_name)):
                    if pos not in positions:
                        positions.append(pos)
                        dims.append(dim)
        self.streams_used = sorted(self._dims)

    # ------------------------------------------------------------------
    def _queries_on(self, stream: str) -> int:
        return sum(
            any(l.stream_name == stream for l in p.plan.chain)
            for p in self.pipelines.values()
        )

    def run(self, streams: dict[str, list[StreamTuple]]) -> SharedRunResult:
        """One pass of shedding; every query evaluated from the shared state.

        The engine pays ``service_time`` once per (tuple, consuming query) —
        kept-tuple processing is per query even when shedding is shared,
        matching TelegraphCQ's shared-scan-but-per-query-work model.
        """
        cfg = self.config
        missing = [s for s in self.streams_used if s not in streams]
        if missing:
            raise ValueError(f"no arrivals supplied for streams {missing}")

        queues: dict[str, TriageQueue] = {}
        for i, stream in enumerate(self.streams_used):
            queues[stream] = TriageQueue(
                name=stream,
                dimensions=self._dims[stream],
                dim_positions=self._dim_positions[stream],
                capacity=cfg.queue_capacity,
                policy=cfg.policy,
                synopsis_factory=cfg.synopsis_factory,
                window=cfg.window,
                summarize=True,
                seed=cfg.seed * 7919 + i,
            )

        events = merge_arrivals(streams, self.streams_used)
        window_ids, arrived, runs = window_runs(
            streams, self.streams_used, cfg.window
        )

        # One engine, one pass: a polled tuple occupies it once per query
        # that consumes its stream.
        core = TriageCore(
            [queues[s] for s in self.streams_used],
            [cfg.service_time * self._queries_on(s) for s in self.streams_used],
            synopses=True,
        )
        core.replay(events)
        # Every kept synopsis is built: the cell accounting below prices
        # them all, read by a shadow plan or not.
        partials = core.hand_off(window_ids, arrived, fill_all=True)
        kept_syn = partials.kept_synopses
        dropped_syn = partials.dropped_synopses

        # Shared-vs-unshared accounting: what per-query synopses would cost.
        shared_cells = sum(
            syn.storage_size()
            for per in list(kept_syn.values()) + list(dropped_syn.values())
            for syn in per.values()
            if syn is not None
        )
        unshared_cells = shared_cells and sum(
            self._queries_on(s)
            * sum(
                syn.storage_size()
                for syn in list(kept_syn[s].values())
                + list(dropped_syn[s].values())
                if syn is not None
            )
            for s in self.streams_used
        )

        per_query: dict[str, RunResult] = {}
        for qid, pipe in self.pipelines.items():
            q_streams = [l.stream_name for l in pipe.plan.chain]
            ideal_inputs = None
            if cfg.compute_ideal:
                ideal_inputs = pipe._ideal_inputs(
                    {key: run for key, run in runs.items() if key[0] in q_streams}
                )
            windows = pipe.evaluate_windows(partials, ideal_inputs)
            q_arrived = sum(
                1 for e in events if e[2] in q_streams
            )
            q_kept = q_arrived - sum(
                queues[s].stats.dropped for s in q_streams
            )
            per_query[qid] = RunResult(
                windows=windows,
                total_arrived=q_arrived,
                total_kept=q_kept,
                total_dropped=q_arrived - q_kept,
                strategy=ShedStrategy.DATA_TRIAGE,
                queue_stats={s: queues[s].stats for s in q_streams},
            )

        total = len(events)
        total_dropped = sum(q.stats.dropped for q in queues.values())
        return SharedRunResult(
            per_query=per_query,
            shared_synopsis_cells=shared_cells,
            unshared_synopsis_cells=unshared_cells,
            total_arrived=total,
            total_dropped=total_dropped,
        )
