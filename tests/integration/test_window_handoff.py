"""The window hand-off conserves every arrival and forgets every window.

Every runner closes windows through one seam, ``TriageCore.hand_off``, and
gets one :class:`~repro.core.merge.WindowPartials` back.  Random ingest /
advance / close sequences drive the serial plane, a 2-shard plane, the
offline simulator and the shared runtime over tumbling and hopping windows,
and at every close check the two invariants that need no fault schedule:

* **conservation** — per (source, window), ``arrived == len(kept bag) +
  dropped``: every admitted tuple was kept or charged as dropped;
* **boundedness** — nothing of a handed-off window survives it: not in the
  caller's arrival counts, the core's runs / kept synopses / completion
  times, the queues' pending victims / synopses / counts / bounds, nor a
  plane's known windows.

The check is installed on ``TriageCore.hand_off`` itself before any shard
worker forks, so it also runs inside the workers.
"""

import asyncio
import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import DataTriagePipeline, PipelineConfig, SharedTriageRuntime
from repro.core.strategies import ShedStrategy
from repro.core.triage_core import TriageCore
from repro.engine import StreamTuple, WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.service.dataplane import StreamDataPlane
from repro.service.shard import ShardedDataPlane
from repro.sources.generators import paper_row_generators
from tests.service.test_audit_reconcile import settle

STREAMS = ("R", "S", "T")
WINDOWS = {
    "tumbling": WindowSpec(width=1.0),
    "hopping": WindowSpec(width=2.0, slide=1.0),
}
SHARED_QUERIES = {
    "join": PAPER_QUERY,
    "single": "SELECT d, COUNT(*) AS n FROM T GROUP BY d;",
}

ingest = st.tuples(
    st.just("ingest"),
    st.sampled_from(STREAMS),
    st.integers(0, 30),
    st.sampled_from([0.1, 0.5, 1.5]),  # seconds of stream time the batch spans
)
tick = st.tuples(st.just("tick"), st.sampled_from([0.0, 0.05, 0.3, 1.0, 3.0]))
operations = st.lists(st.one_of(ingest, tick), max_size=25)
seeds = st.integers(0, 2**16)


def config(window, strategy=ShedStrategy.DATA_TRIAGE):
    return PipelineConfig(
        strategy=strategy,
        window=WINDOWS[window],
        queue_capacity=6,
        service_time=0.01,
        compute_ideal=False,
    )


def script(ops, seed):
    """Concrete batches: per-source non-decreasing stamps (no fault: a
    source's own tuples never overtake each other)."""
    rng = random.Random(seed)
    gens = paper_row_generators()
    clock = dict.fromkeys(STREAMS, 0.0)
    out = []
    for op in ops:
        if op[0] == "tick":
            out.append(op)
            continue
        _, source, n, span = op
        start = clock[source]
        clock[source] += span
        stamps = [start + span * i / n for i in range(n)]
        rows = [list(gens[source].draw(rng)) for _ in range(n)]
        out.append(("ingest", source, rows, stamps))
    return out


def streams_of(batches):
    streams = {s: [] for s in STREAMS}
    for op in batches:
        if op[0] == "ingest":
            _, source, rows, stamps = op
            streams[source].extend(map(StreamTuple, stamps, map(tuple, rows)))
    return streams


def assert_conserved(partials):
    assert len(partials) == len(partials.window_ids)
    for source, per_window in partials.arrived.items():
        for wid in partials.window_ids:
            kept = len(partials.kept_rows[source][wid])
            dropped = partials.dropped_counts[source][wid]
            assert per_window[wid] == kept + dropped, (source, wid)


@contextlib.contextmanager
def checked_hand_off(handed):
    """Check (and record into ``handed``) every hand-off made inside."""
    real = TriageCore.hand_off

    def hand_off(core, wids, arrived, **kwargs):
        partials = real(core, wids, arrived, **kwargs)
        assert_conserved(partials)
        gone = set(partials.window_ids)
        held = [*arrived.values(), *core._runs, *(core._synopses or [])]
        for queue in core.queues:
            held += [
                queue._pending,
                queue._window_synopses,
                queue._window_counts,
                queue._window_bounds,
            ]
        assert not any(gone & set(h) for h in held)
        handed.append(partials)
        return partials

    with mock.patch.object(TriageCore, "hand_off", hand_off):
        yield


async def drive_plane(plane, batches):
    """Ingest / tick (advance, then close what is due) / final forced close;
    returns every collected hand-off."""
    collected = []

    async def close(wids):
        partials = await settle(plane.collect(wids))
        assert partials.window_ids == wids
        assert_conserved(partials)
        assert not plane.known_windows & set(wids)
        if isinstance(plane, StreamDataPlane):
            assert not plane._core.completion.keys() & set(wids)
        assert plane.last_closed_wid == max(wids)
        collected.append(partials)

    now = 0.0
    for op in batches:
        if op[0] == "ingest":
            _, source, rows, stamps = op
            cols = [list(c) for c in zip(*rows)] if rows else []
            await settle(plane.ingest_columns(source, cols, stamps, now))
        else:
            now += op[1]
            await settle(plane.advance(op[1]))
            due = plane.due_windows(now)
            if due:
                await close(due)
    await settle(plane.drain(None))
    await settle(plane.advance(0.0))  # refreshes a sharded coordinator's snapshot
    if plane.known_windows:
        await close(sorted(plane.known_windows))
    assert not plane.known_windows
    wids = [w for p in collected for w in p.window_ids]
    assert len(wids) == len(set(wids))  # no window closes twice
    return collected


@pytest.mark.parametrize("window", sorted(WINDOWS))
@settings(max_examples=60, deadline=None)
@given(ops=operations, seed=seeds)
def test_serial_plane(window, ops, seed):
    handed = []
    with checked_hand_off(handed):
        pipeline = DataTriagePipeline(paper_catalog(), PAPER_QUERY, config(window))
        plane = StreamDataPlane(pipeline)
        collected = asyncio.run(drive_plane(plane, script(ops, seed)))
    assert len(handed) == len(collected)
    assert all(plane.arrived[s] == {} for s in STREAMS)


@pytest.mark.parametrize("window", sorted(WINDOWS))
@settings(max_examples=10, deadline=None)
@given(ops=operations, seed=seeds)
def test_sharded_plane(window, ops, seed):
    with checked_hand_off([]):  # inherited by the forked workers
        pipeline = DataTriagePipeline(paper_catalog(), PAPER_QUERY, config(window))
        plane = ShardedDataPlane(pipeline, 2)
    try:
        asyncio.run(drive_plane(plane, script(ops, seed)))
    finally:
        plane.close()


@pytest.mark.parametrize("strategy", [ShedStrategy.DATA_TRIAGE, ShedStrategy.DROP_ONLY])
@pytest.mark.parametrize("window", sorted(WINDOWS))
@settings(max_examples=20, deadline=None)
@given(ops=operations, seed=seeds)
def test_pipeline_run(window, strategy, ops, seed):
    handed = []
    streams = streams_of(script(ops, seed))
    pipeline = DataTriagePipeline(
        paper_catalog(), PAPER_QUERY, config(window, strategy)
    )
    with checked_hand_off(handed):
        result = pipeline.run(streams)
    assert [p.window_ids for p in handed] == [[w.window_id for w in result.windows]]
    assert sum(map(len, streams.values())) == result.total_arrived


@pytest.mark.parametrize("window", sorted(WINDOWS))
@settings(max_examples=20, deadline=None)
@given(ops=operations, seed=seeds)
def test_shared_runtime_run(window, ops, seed):
    handed = []
    runtime = SharedTriageRuntime(paper_catalog(), SHARED_QUERIES, config(window))
    with checked_hand_off(handed):
        result = runtime.run(streams_of(script(ops, seed)))
    windows = [w.window_id for w in result.per_query["join"].windows]
    assert [p.window_ids for p in handed] == [windows]
