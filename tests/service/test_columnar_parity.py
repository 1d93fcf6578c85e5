"""Row-vs-columnar ingest parity: byte-identical at every shard count.

The columnar interior (``ingest_columns`` → :class:`ColumnBatch` →
``offer_bulk``) is an optimization, not a semantic: a randomized workload
published through the ``cols`` path must produce *exactly* the results,
acks, queue stats, and shed counts of the same workload published as row
batches — at shards 1, 2, and 4, with NULLs, empty batches, late rows,
and mid-batch ``DROP_INCOMING`` decisions in play.
"""

import asyncio
import random

import pytest

from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine.window import WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.service.dataplane import StreamDataPlane
from repro.service.shard import ShardedDataPlane
from repro.sources.generators import paper_row_generators
from tests.service.test_audit_reconcile import settle

STREAMS = ("R", "S", "T")


def make_pipeline(strategy=ShedStrategy.DATA_TRIAGE, queue_capacity=40):
    config = PipelineConfig(
        strategy=strategy,
        window=WindowSpec(width=1.0),
        queue_capacity=queue_capacity,
        service_time=0.002,
        compute_ideal=False,
    )
    return DataTriagePipeline(paper_catalog(), PAPER_QUERY, config)


def fuzz_schedule(seed, n_windows=3, with_nulls=False):
    """Random batched schedule: varied batch sizes (including empty),
    capacity-busting bursts (mid-batch shedding, both victim kinds), and a
    few deliberately late rows once a window has closed."""
    rng = random.Random(seed)
    gens = paper_row_generators()
    schedule = []
    for w in range(n_windows):
        batches = []
        for source in STREAMS:
            for _ in range(rng.randint(1, 3)):
                n = rng.choice([0, 1, rng.randint(2, 30), rng.randint(60, 140)])
                rows = [list(gens[source].draw(rng)) for _ in range(n)]
                if with_nulls:
                    for row in rows:
                        if rng.random() < 0.15:
                            row[rng.randrange(len(row))] = None
                stamps = [
                    float(w) + i * (0.9 / n)
                    for i in range(n)
                ]
                # Late rows: stamps behind the already-closed window w-1.
                if w and n and rng.random() < 0.3:
                    for i in rng.sample(range(n), max(1, n // 10)):
                        stamps[i] = float(w) - 1.0 + 0.5 * rng.random()
                batches.append((source, rows, stamps))
        schedule.append(batches)
    return schedule


async def drive(plane, pipeline, schedule, columnar):
    """Ingest/drain/close the schedule; return every observable output."""
    acks = []
    outcomes = []
    for w, batches in enumerate(schedule):
        for source, rows, stamps in batches:
            if columnar:
                cols = [list(c) for c in zip(*rows)] if rows else []
                acks.append(await settle(plane.ingest_columns(source, cols, stamps)))
            else:
                acks.append(await settle(plane.ingest(source, rows, stamps)))
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
    keys = [
        (o.window_id, o.merged, o.exact, o.estimated, o.arrived, o.kept, o.dropped)
        for o in outcomes
    ]
    return keys, acks, plane.stats_snapshot(), plane.totals()


def run_plane(shards, schedule, columnar, strategy=ShedStrategy.DATA_TRIAGE):
    pipeline = make_pipeline(strategy)
    if shards == 1:
        plane = StreamDataPlane(pipeline)
        return asyncio.run(drive(plane, pipeline, schedule, columnar))
    plane = ShardedDataPlane(pipeline, shards)
    try:
        return asyncio.run(drive(plane, pipeline, schedule, columnar))
    finally:
        plane.close()


@pytest.mark.parametrize("shards", [1, 2, 4])
@pytest.mark.parametrize("seed", [11, 42])
def test_columnar_ingest_matches_rows(shards, seed):
    schedule = fuzz_schedule(seed)
    ref = run_plane(shards, schedule, columnar=False)
    got = run_plane(shards, schedule, columnar=True)
    assert got == ref
    keys, acks, stats, (offered, dropped) = ref
    assert keys, "fuzz run closed no windows"
    assert dropped > 0, "fuzz run must force mid-batch shedding"
    assert any(ack[1] for ack in acks), "fuzz run produced no late rows"


@pytest.mark.parametrize("shards", [1, 2, 4])
def test_columnar_ingest_matches_rows_with_nulls(shards):
    # Drop-only strategy: shed tuples are counted, not synopsized, so NULL
    # dimension values flow through shedding and evaluation unharmed.
    schedule = fuzz_schedule(7, with_nulls=True)
    ref = run_plane(shards, schedule, columnar=False, strategy=ShedStrategy.DROP_ONLY)
    got = run_plane(shards, schedule, columnar=True, strategy=ShedStrategy.DROP_ONLY)
    assert got == ref
    assert ref[3][1] > 0  # dropped


def test_columnar_ingest_all_late_batch():
    pipeline = make_pipeline()
    plane = StreamDataPlane(pipeline)
    plane.ingest("R", [[5]], [0.5])
    plane.advance(1000.0)
    plane.collect([0])
    # A shared-timestamp (timestamps=None) batch behind the watermark is
    # all-late under both encodings.
    row_ack = plane.ingest("R", [[1], [2]], None, now=0.2)
    col_ack = plane.ingest_columns("R", [[1, 2]], None, now=0.2)
    assert row_ack == col_ack
    assert col_ack[0] == 0 and col_ack[1] == 2


def test_columnar_ingest_rejects_bad_batch_atomically():
    from repro.engine.types import SchemaError

    pipeline = make_pipeline()
    plane = StreamDataPlane(pipeline)
    with pytest.raises(SchemaError):
        plane.ingest_columns("S", [[1, "oops"], [2, 3]], [0.1, 0.2])
    assert plane.arrived["S"] == {}
    assert plane.known_windows == set()
    accepted, late, _, _ = plane.ingest_columns("S", [[1], [2]], [0.1])
    assert (accepted, late) == (1, 0)


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("stamps", [[0.1, 0.2], [0.1, 0.2, 0.3, 0.4]])
def test_timestamps_length_mismatch_is_rejected_before_accounting(shards, stamps):
    # Three rows with two or four stamps: neither framing may lose a row
    # silently, raise a bare IndexError, or count anything before rejecting.
    from repro.engine.types import SchemaError

    pipeline = make_pipeline()
    if shards == 1:
        plane = StreamDataPlane(pipeline)
    else:
        plane = ShardedDataPlane(pipeline, shards)

    async def main():
        with pytest.raises(SchemaError, match="timestamps length"):
            await settle(plane.ingest("R", [[1], [2], [3]], stamps))
        with pytest.raises(SchemaError, match="timestamps length"):
            await settle(plane.ingest_columns("R", [[1, 2, 3]], stamps))
        await settle(plane.advance(0.0))  # refreshes the sharded coordinator's view
        assert plane.known_windows == set()
        assert plane.stats_snapshot()["R"][0] == 0  # QueueStats.offered
        # The plane (and its worker) still serves a well-formed batch, and
        # the window's arrival count holds nothing from the rejected ones.
        ack = await settle(plane.ingest_columns("R", [[1, 2, 3]], [0.1, 0.2, 0.3]))
        assert ack[:2] == (3, 0)
        await settle(plane.advance(0.0))
        assert plane.known_windows == {0}
        assert (await settle(plane.collect([0]))).arrived["R"] == {0: 3}

    try:
        asyncio.run(main())
    finally:
        if shards > 1:
            plane.close()
