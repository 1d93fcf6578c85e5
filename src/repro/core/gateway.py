"""Distributed gateways: triage at the data source, upstream of the network.

Paper Figure 1 and the introduction's fourth design goal: *"keeping
load-shedding logic outside the main query processing datapath and close to
the data source in scenarios where distributed gateways can be deployed."*

A :class:`TriageGateway` wraps one remote stream: tuples enter the gateway's
triage queue; the queue drains at the *link's* transmission rate (the
bottleneck is bandwidth, not CPU); overflow victims are synopsized locally
and only the compact synopsis crosses the wire at each window boundary,
charged against the same bandwidth.  The alternative — shipping everything
and letting the link's buffer tail-drop — is the baseline
(:func:`run_gateway_experiment` runs both over identical inputs).

Result evaluation reuses the pipeline's window machinery
(:meth:`DataTriagePipeline.evaluate_windows`), so gateway results merge
exactly like engine-side triage results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.algebra.multiset import Multiset
from repro.core.merge import WindowPartials
from repro.core.pipeline import DataTriagePipeline, RunResult
from repro.core.policies import DropPolicy, RandomDropPolicy, TailDropPolicy
from repro.core.strategies import ShedStrategy
from repro.core.triage_core import (
    TriageCore,
    due_windows,
    merge_arrivals,
    window_runs,
)
from repro.core.triage_queue import TriageQueue, WindowSynopsis
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.sources.network import NetworkLink
from repro.synopses.base import Dimension, Synopsis, SynopsisFactory


@dataclass
class DeliveredTuple:
    """A tuple that made it across the link.

    ``source_time`` drives window assignment (the tuple's logical time);
    ``delivery_time`` is when the engine received it (latency accounting).
    """

    source_time: float
    delivery_time: float
    row: tuple


@dataclass
class GatewayOutput:
    """Everything one gateway produced for one run."""

    delivered: list[DeliveredTuple]
    synopses: dict[int, WindowSynopsis]  # per-window dropped summaries
    synopsis_delivery: dict[int, float]  # when each synopsis reached the engine
    offered: int
    dropped: int
    max_delivery_lag: float
    #: Engine-side window state the delivered tuples fold into: kept bags,
    #: and (summarizing gateways) kept synopses, per window id.
    kept_rows: dict[int, Multiset] = field(default_factory=dict)
    kept_synopses: dict[int, Synopsis] = field(default_factory=dict)

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0


class TriageGateway:
    """Per-stream gateway: triage queue in front of a constrained link."""

    def __init__(
        self,
        name: str,
        dimensions: list[Dimension],
        dim_positions: list[int],
        link: NetworkLink,
        queue_capacity: int,
        synopsis_factory: SynopsisFactory,
        window: WindowSpec,
        policy: DropPolicy | None = None,
        *,
        summarize: bool = True,
        synopsis_cell_cost: float = 1.0,
        seed: int = 0,
    ) -> None:
        """``synopsis_cell_cost``: link-tuples of bandwidth one synopsis
        storage cell costs to ship (1.0 = a bucket is as big as a tuple).
        """
        self.name = name
        self.link = link
        self.window = window
        self.synopsis_cell_cost = synopsis_cell_cost
        self.queue = TriageQueue(
            name=name,
            dimensions=dimensions,
            dim_positions=dim_positions,
            capacity=queue_capacity,
            policy=policy or RandomDropPolicy(),
            synopsis_factory=synopsis_factory,
            window=window,
            summarize=summarize,
            seed=seed,
        )

    # ------------------------------------------------------------------
    def run(self, tuples: list[StreamTuple]) -> GatewayOutput:
        """Push a full stream through queue + link on the virtual clock.

        The link is the consumer: the core drains the queue at
        ``link.transmission_time`` per tuple, and shipping a window's
        synopsis occupies the same link (``core.busy_until``).
        """
        service = self.link.transmission_time
        latency = self.link.latency
        core = TriageCore([self.queue], [service], synopses=self.queue.summarize)
        sent: list = []
        synopsis_delivery: dict[int, float] = {}
        synopses: dict[int, WindowSynopsis] = {}

        def close_windows(now: float) -> None:
            """Ship the synopses of windows that ended and left the queue
            (:func:`due_windows`): none of their tuples can be evicted later."""
            core.flush()  # the release reads the queue
            queue = self.queue
            heads = [queue.peek_timestamp()]
            for wid in due_windows(queue.windows_with_drops(), heads, self.window, now):
                ws = synopses[wid] = queue.release_window(wid)
                if ws.synopsis is not None:
                    _, end = self.window.bounds(wid)
                    cells = ws.synopsis.storage_size() * self.synopsis_cell_cost
                    core.busy_until = max(core.busy_until, end) + cells * service
                    synopsis_delivery[wid] = core.busy_until + latency

        for tup in tuples:
            core.drain(tup.timestamp, polled=sent)
            close_windows(tup.timestamp)
            core.offer(0, (tup,))
        core.drain(polled=sent)
        close_windows(math.inf)

        delivered = [
            DeliveredTuple(
                source_time=tup.timestamp,
                delivery_time=finish + latency,
                row=tup.row,
            )
            for _, tup, finish in sent
        ]
        max_lag = max(
            (d.delivery_time - d.source_time for d in delivered), default=0.0
        )
        # A gateway cannot see what the other streams' gateways dropped, so
        # every kept synopsis is built.
        kept_rows, kept_synopses = core.take()
        return GatewayOutput(
            delivered=delivered,
            synopses=synopses,
            synopsis_delivery=synopsis_delivery,
            offered=self.queue.stats.offered,
            dropped=self.queue.stats.dropped,
            max_delivery_lag=max_lag,
            kept_rows=kept_rows[self.name],
            kept_synopses=kept_synopses[self.name] if kept_synopses else {},
        )


@dataclass
class GatewayExperimentResult:
    """A RunResult plus gateway-level accounting."""

    run: RunResult
    outputs: dict[str, GatewayOutput]
    max_delivery_lag: float = field(init=False)

    def __post_init__(self) -> None:
        self.max_delivery_lag = max(
            (o.max_delivery_lag for o in self.outputs.values()), default=0.0
        )


def run_gateway_experiment(
    pipeline: DataTriagePipeline,
    streams: dict[str, list[StreamTuple]],
    links: dict[str, NetworkLink],
    *,
    queue_capacity: int = 50,
    summarize: bool = True,
    policy: DropPolicy | None = None,
    synopsis_cell_cost: float = 1.0,
    seed: int = 0,
) -> GatewayExperimentResult:
    """Triage each stream at its gateway, then evaluate windows at the engine.

    ``summarize=False`` with a tail-drop policy models the baseline of a
    plain bounded link buffer (drop at the network, no synopses).  The
    server engine is assumed fast (the bottleneck is the network), matching
    the paper's remote-wrapper scenario.
    """
    cfg = pipeline.config
    sources = pipeline.sources
    outputs: dict[str, GatewayOutput] = {}
    for i, s in enumerate(sources):
        dims, positions = pipeline.source_dimensions(s)
        gw = TriageGateway(
            name=s,
            dimensions=dims,
            dim_positions=positions,
            link=links[s],
            queue_capacity=queue_capacity,
            synopsis_factory=cfg.synopsis_factory,
            window=cfg.window,
            policy=policy or (TailDropPolicy() if not summarize else None),
            summarize=summarize,
            synopsis_cell_cost=synopsis_cell_cost,
            seed=seed * 104729 + i,
        )
        outputs[s] = gw.run(streams[s])

    # The engine-side window hand-off, assembled from what crossed the links.
    events = merge_arrivals(streams, sources)
    window_ids, arrived, runs = window_runs(events, sources, cfg.window)
    dropped_syn: dict[str, dict[int, Synopsis | None]] = {s: {} for s in sources}
    dropped_counts: dict[str, dict[int, int]] = {s: {} for s in sources}
    for s in sources:
        for wid, ws in outputs[s].synopses.items():
            dropped_syn[s][wid] = ws.synopsis
            dropped_counts[s][wid] = ws.dropped_count
    partials = WindowPartials(
        window_ids=window_ids,
        kept_rows={s: outputs[s].kept_rows for s in sources},
        kept_synopses=(
            {s: outputs[s].kept_synopses for s in sources} if summarize else None
        ),
        dropped_synopses=dropped_syn if summarize else None,
        dropped_counts=dropped_counts,
        arrived=arrived,
    )
    windows = pipeline.evaluate_windows(
        partials, pipeline._ideal_inputs(runs) if cfg.compute_ideal else None
    )
    total = sum(o.offered for o in outputs.values())
    total_dropped = sum(o.dropped for o in outputs.values())
    run = RunResult(
        windows=windows,
        total_arrived=total,
        total_kept=total - total_dropped,
        total_dropped=total_dropped,
        strategy=(
            ShedStrategy.DATA_TRIAGE if summarize else ShedStrategy.DROP_ONLY
        ),
    )
    return GatewayExperimentResult(run=run, outputs=outputs)
