"""Ledger ↔ counter reconciliation and audit invisibility (ISSUE 8 gate).

Three contracts, each at every shard count:

* **Reconciliation** — the audit ledger's per-kind event counts equal the
  plane's/queues' own drop accounting *and* the ``triage_*_total`` counters
  folded from it exactly: nothing double-counted, nothing lost, including
  across the shard RPC ship/absorb hop.
* **Invisibility** — results and drop decisions are byte-identical with
  auditing on and off: the ledger has its own RNG and the queues' policy
  RNG chain never sees it.
* **Attribution** — every bucketed shed event lands in exactly one closed
  window's attribution record (plus the windowless unattributed pool), so
  the records partition the event stream.
"""

import asyncio
import contextlib
import inspect
import random

import pytest

from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine.window import WindowSpec
from repro.experiments import (
    PAPER_QUERY,
    ExperimentParams,
    bursty_pipeline,
    paper_catalog,
)
from repro.obs import Observability
from repro.obs.audit import DropLedger, attribute_reports
from repro.obs.metrics import MetricsRegistry, fold_queue_stats
from repro.service import ServiceConfig, TriageServer
from repro.service.dataplane import StreamDataPlane
from repro.service.shard import ShardedDataPlane
from repro.sources.generators import paper_row_generators

STREAMS = ("R", "S", "T")

DROP_KINDS = ("drop_incoming", "evict_buffered")


def make_pipeline(queue_capacity=40, ledger=None, sampler=None):
    """The suite's pipeline; a ledger / sampler rides in on a bundle."""
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=queue_capacity,
        service_time=0.002,
        compute_ideal=False,
    )
    obs = None
    if ledger is not None or sampler is not None:
        obs = Observability(ledger=ledger, sampler=sampler)
    return DataTriagePipeline(paper_catalog(), PAPER_QUERY, config, obs=obs)


def workload(seed=17, n_windows=3, rows_per_batch=120, batches_per_window=2):
    rng = random.Random(seed)
    gens = paper_row_generators()
    schedule = []
    for w in range(n_windows):
        batches = []
        for b in range(batches_per_window):
            for source in STREAMS:
                t0 = float(w) + b * (1.0 / batches_per_window)
                step = 0.4 / (batches_per_window * rows_per_batch)
                rows = [
                    list(gens[source].draw(rng)) for _ in range(rows_per_batch)
                ]
                stamps = [t0 + i * step for i in range(rows_per_batch)]
                batches.append((source, rows, stamps))
        schedule.append(batches)
    return schedule


def outcome_key(outcome):
    return (
        outcome.window_id,
        outcome.merged,
        outcome.exact,
        outcome.estimated,
        outcome.arrived,
        outcome.kept,
        outcome.dropped,
    )


async def settle(result):
    """A plane call's value: a sharded plane's RPC methods are coroutines."""
    return await result if inspect.isawaitable(result) else result


async def drive(plane, pipeline, schedule):
    """Ingest/drain/close the schedule; returns (outcome keys, totals)."""
    outcomes = []
    for w, batches in enumerate(schedule):
        for source, rows, stamps in batches:
            await settle(plane.ingest(source, rows, stamps))
        await settle(plane.advance(1000.0))
        due = plane.due_windows(float(w + 1))
        if due:
            partials = await settle(plane.collect(due))
            outcomes.extend(pipeline.evaluate_windows(partials))
    await settle(plane.advance(1000.0))
    leftovers = sorted(plane.known_windows)
    if leftovers:
        partials = await settle(plane.collect(leftovers))
        outcomes.extend(pipeline.evaluate_windows(partials))
    outcomes.sort(key=lambda o: o.window_id)
    return [outcome_key(o) for o in outcomes], plane.totals()


def folded_counters(plane):
    """``{metric: {label key: value}}`` of the plane's folded queue stats."""
    registry = MetricsRegistry()
    fold_queue_stats(registry, plane.stats_snapshot(), {})
    return {
        name: inst["values"]
        for name, inst in registry.to_dict().items()
        if name.startswith("triage_")
    }


# ---------------------------------------------------------------------------
# Serial plane: ledger counts == folded decision counters, exactly
# ---------------------------------------------------------------------------
def test_serial_ledger_reconciles_with_observer_counters():
    ledger = DropLedger(seed=0)
    pipeline = make_pipeline(ledger=ledger)
    plane = StreamDataPlane(pipeline)
    _, (offered, dropped) = asyncio.run(drive(plane, pipeline, workload()))
    assert dropped > 0, "workload must force shedding to be a real test"

    decisions = folded_counters(plane)["triage_policy_decisions_total"]
    counts = ledger.counts
    for kind in DROP_KINDS:
        assert counts.get(kind, 0) == sum(
            v for key, v in decisions.items() if key.endswith("||" + kind)
        ), kind
    assert sum(counts.get(k, 0) for k in DROP_KINDS) == dropped


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_ledger_reconciles_at_every_shard_count(shards):
    """Fixed seed, shards {1, 2, 4}: the coordinator ledger's counts equal
    the plane's drop total and the folded counters exactly, and all three
    are identical across shard counts."""
    schedule = workload(seed=17)
    reference = DropLedger(seed=0)
    ref_pipeline = make_pipeline(ledger=reference)
    ref_plane = StreamDataPlane(ref_pipeline)
    ref_outcomes, (ref_offered, ref_dropped) = asyncio.run(
        drive(ref_plane, ref_pipeline, schedule)
    )
    ref_counters = folded_counters(ref_plane)
    assert ref_dropped > 0

    if shards == 1:
        counts, dropped, outcomes = reference.counts, ref_dropped, ref_outcomes
        counters = ref_counters
    else:
        ledger = DropLedger(seed=0)
        pipeline = make_pipeline(ledger=ledger)
        plane = ShardedDataPlane(pipeline, shards)

        async def session():
            out = await drive(plane, pipeline, schedule)
            await plane.obs_sync()
            return out

        try:
            outcomes, (_, dropped) = asyncio.run(session())
            counters = folded_counters(plane)
        finally:
            plane.close()
        counts = ledger.counts

    assert sum(counts.get(k, 0) for k in DROP_KINDS) == dropped
    assert counts == reference.counts  # same decisions at any layout
    assert outcomes == ref_outcomes
    # Counters: per stream identical across layouts, totals == plane totals.
    assert counters == ref_counters
    assert set(counters["triage_offered_total"]) == set(STREAMS)
    assert sum(counters["triage_offered_total"].values()) == ref_offered
    assert sum(counters["triage_drops_total"].values()) == dropped
    assert sum(counters["triage_policy_decisions_total"].values()) == dropped
    assert sum(counters["triage_polled_total"].values()) == ref_offered - dropped


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_attribution_partitions_events(shards):
    ledger = DropLedger(seed=0)
    pipeline = make_pipeline(ledger=ledger)
    plane = ShardedDataPlane(pipeline, shards)

    async def session():
        await drive(plane, pipeline, workload())
        await plane.obs_sync()

    try:
        asyncio.run(session())
    finally:
        plane.close()
    taken = ledger.take_windows(ledger.pending_windows())
    bucketed = sum(
        e["count"] for entries in taken.values() for e in entries
    )
    loose = sum(e["count"] for e in ledger.unattributed())
    assert bucketed + loose == ledger.total
    assert bucketed > 0


# ---------------------------------------------------------------------------
# Invisibility: audit on/off is byte-identical
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shards", [1, 2])
def test_audit_is_invisible_to_results(shards):
    schedule = workload(seed=23)

    def run_once(audit):
        pipeline = make_pipeline(ledger=audit)
        if shards == 1:
            return asyncio.run(drive(StreamDataPlane(pipeline), pipeline, schedule))
        plane = ShardedDataPlane(pipeline, shards)
        try:
            return asyncio.run(drive(plane, pipeline, schedule))
        finally:
            plane.close()

    plain = run_once(None)
    audited = run_once(DropLedger(seed=0))
    assert audited == plain


def test_fig9_pipeline_run_reconciles_and_attributes():
    """The paper's bursty Figure 9 run: ledger total == result drop total,
    and the RMS attribution join covers every bucketed event."""
    params = ExperimentParams(n_windows=2)
    ledger = DropLedger(seed=0)
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, 3000.0, params, 0, obs=Observability(ledger=ledger)
    )
    result = pipeline.run(streams)
    dropped = result.total_dropped
    assert dropped > 0
    assert ledger.total == dropped

    from repro.obs.report import build_window_reports

    reports = build_window_reports(result, pipeline.config.window)
    taken = ledger.take_windows(ledger.pending_windows())
    records = attribute_reports(taken, reports)
    assert sum(r["events"] for r in records) + sum(
        e["count"] for e in ledger.unattributed()
    ) == dropped
    assert any(r["basis"] == "rms" for r in records)


# ---------------------------------------------------------------------------
# Server-level: edge sheds, STATS block, SLO wiring
# ---------------------------------------------------------------------------
class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@contextlib.asynccontextmanager
async def serve(queue_capacity=30, **service_kwargs):
    clock = ManualClock()
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=queue_capacity,
        service_time=0.001,
        compute_ideal=False,
    )
    service = ServiceConfig(tick_interval=None, clock=clock, **service_kwargs)
    server = TriageServer(
        paper_catalog(),
        "SELECT a, COUNT(*) AS n FROM R GROUP BY a;",
        config,
        service,
    )
    await server.start()
    server.clock = clock
    try:
        yield server
    finally:
        await server.shutdown()


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_server_counters_match_plane_and_ledger(shards):
    """40 rows into a capacity-5 queue and one tick: the exported counters
    are the plane's queue stats and the ledger's counts, at any shard count
    (sharded servers used to export none — workers cannot call back)."""

    async def main():
        async with serve(queue_capacity=5, shards=shards, audit=True) as server:
            rows = [[i % 9 + 1] for i in range(40)]
            await server.ingest_rows("R", rows, [i / 100 for i in range(40)], now=0.5)
            server.clock.t = 0.9
            await server.tick()
            values = {
                name: inst["values"]
                for name, inst in server.metrics.to_dict().items()
                if name.startswith("triage_") and name.endswith("_total")
            }
            assert values["triage_offered_total"] == {"R": 40.0}
            assert values["triage_drops_total"] == {"R": 35.0}
            assert values["triage_polled_total"] == {"R": 5.0}
            assert values["triage_summarized_total"] == {"R": 35.0}
            assert sum(values["triage_policy_decisions_total"].values()) == 35.0
            assert values["triage_shed_bytes_total"]["R"] > 0
            assert server.plane.stats_snapshot()["R"][:5] == (40, 35, 5, 35, 5)
            assert server.plane.totals() == (40, 35)
            if shards > 1:
                await server.plane.obs_sync()
            assert sum(
                server.obs.ledger.counts.get(k, 0) for k in DROP_KINDS
            ) == 35

    asyncio.run(main())


def test_server_audit_off_has_no_audit_state():
    async def main():
        async with serve() as server:
            assert server.obs is None
            assert "attributed_error_burn" not in server.slo.status()

    asyncio.run(main())


def test_server_audit_counts_edge_sheds_and_attributes_windows():
    async def main():
        async with serve(audit=True) as server:
            rows = [[1] for _ in range(120)]
            ts = [i / 120 for i in range(120)]
            await server.ingest_rows("R", rows, ts, now=0.5)
            server.clock.t = 2.0
            await server.tick()
            # The window is closed: its ledger bucket became an attribution.
            assert server._audit_attributions
            record = server._audit_attributions[-1]
            assert record["basis"] == "shed_fraction"
            assert server.obs.ledger.pending_windows() == []
            # Rows for the closed window are edge sheds in the ledger.
            _, late, _, _ = await server.ingest_rows("R", [[2]], [0.1], now=2.0)
            assert late == 1
            assert server.obs.ledger.counts.get("edge_shed") == 1
            (loose,) = server.obs.ledger.unattributed()
            assert loose["policy"] == "admission"
            # The audit SLO exists and observed the closed window.
            assert "attributed_error_burn" in server.slo.status()

    asyncio.run(main())


def test_attribution_of_a_close_batch_larger_than_the_report_ring():
    """A stall closes 135 shed windows in one batch — more than the 128
    reports the server keeps.  Every window's attribution record must still
    be charged that window's own drop fraction (it used to find no report
    for the oldest windows and record an error of 0.0)."""
    n_windows = 135

    async def main():
        # The grace holds every window open until the one stalled tick, and
        # the telemetry interval keeps that tick's records in the pending
        # batch instead of flushing them to no subscriber.
        async with serve(
            queue_capacity=5, audit=True, grace=1000.0, telemetry_interval=1e6
        ) as server:
            for w in range(n_windows):
                n = 6 + w % 7
                await server.ingest_rows(
                    "R",
                    [[1 + i % 9] for i in range(n)],
                    [w + i / n for i in range(n)],
                    now=w + 0.5,
                )
                await server.tick(now=w + 1.0)  # drains, closes nothing
            frames = await server.tick(now=n_windows + 1001.0)
            return frames, list(server._pending_audit)

    frames, records = asyncio.run(main())
    assert len(frames) == n_windows
    assert len(records) == n_windows  # every window shed something
    shed_fraction = {f["window"]: round(f["drop_fraction"], 9) for f in frames}
    assert len(set(shed_fraction.values())) > 1
    assert {r["window"]: r["error"] for r in records} == shed_fraction


def test_server_stats_reply_carries_audit_block():
    from repro.service import TriageClient

    async def main():
        async with serve(audit=True) as server:
            rows = [[1] for _ in range(80)]
            ts = [i / 80 for i in range(80)]
            await server.ingest_rows("R", rows, ts, now=0.5)
            server.clock.t = 2.0
            await server.tick()
            client = await TriageClient.connect(
                "127.0.0.1", server.port, client_name="audit-test"
            )
            try:
                stats = await client.stats()
            finally:
                await client.close()
            audit = stats["audit"]
            assert audit["summary"]["schema"] == "repro-audit/v1"
            assert audit["summary"]["total"] >= 0
            assert isinstance(audit["attributions"], list)

        async with serve() as server:
            client = await TriageClient.connect(
                "127.0.0.1", server.port, client_name="audit-test"
            )
            try:
                stats = await client.stats()
            finally:
                await client.close()
            assert "audit" not in stats  # audit-off replies are unchanged

    asyncio.run(main())
