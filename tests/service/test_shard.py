"""Shard determinism and columnar-framing tests.

The sharded data plane is meant to be invisible: a fixed-seed workload
produces identical composite results — same merged groups, same
tuples_kept/tuples_dropped — at shards {1, 2, 4}, because each worker
owns whole sources and queue RNG seeds come from the source's global
chain position, not the shard layout.  The ``cols`` wire encoding must
round-trip every JSON scalar shape and be rejected in the same places
the row encoding is.
"""

import asyncio
import contextlib
import multiprocessing
import os
import random
import signal
import socket
import threading

import pytest

from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.engine.window import WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.service import ServiceConfig, TriageClient, TriageServer
from repro.service.dataplane import StreamDataPlane
from repro.service.protocol import (
    MAX_BATCH_ROWS,
    ProtocolError,
    decode_frame,
    encode_frame,
    read_frame,
    validate_frame,
)
from repro.service.shard import ShardedDataPlane, shard_of
from repro.sources.generators import paper_row_generators
from tests.service.test_audit_reconcile import audited, settle
from tests.service.test_prof_transparency import profiled

STREAMS = ("R", "S", "T")


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
# Partitioning
# ---------------------------------------------------------------------------
def test_shard_of_is_stable_and_in_range():
    for nshards in (1, 2, 3, 4, 8):
        for source in ("R", "S", "T", "clicks", "sensor-7"):
            first = shard_of(source, nshards)
            assert 0 <= first < nshards
            assert shard_of(source, nshards) == first  # no per-run salt
    assert all(shard_of(s, 1) == 0 for s in STREAMS)


def test_shard_of_is_case_insensitive():
    assert shard_of("Clicks", 4) == shard_of("clicks", 4)


# ---------------------------------------------------------------------------
# Determinism across shard counts (plane-level, fixed seed)
# ---------------------------------------------------------------------------
def make_pipeline(queue_capacity=40):
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=queue_capacity,
        service_time=0.002,
        compute_ideal=False,
    )
    return DataTriagePipeline(paper_catalog(), PAPER_QUERY, config)


def workload(seed=17, n_windows=3, rows_per_batch=120, batches_per_window=2):
    """A deterministic batched schedule: per window, batches for every stream.

    Batches overfill the capacity-40 queues, so in-batch shedding (the
    deterministic part of triage) is exercised, not just pass-through.
    """
    rng = random.Random(seed)
    gens = paper_row_generators()
    schedule = []
    for w in range(n_windows):
        batches = []
        for b in range(batches_per_window):
            for source in STREAMS:
                t0 = float(w) + b * (1.0 / batches_per_window)
                step = 0.4 / (batches_per_window * rows_per_batch)
                rows = [list(gens[source].draw(rng)) for _ in range(rows_per_batch)]
                stamps = [t0 + i * step for i in range(rows_per_batch)]
                batches.append((source, rows, stamps))
        schedule.append(batches)
    return schedule


def outcome_key(outcome):
    """Everything result-bearing about a window, for exact comparison."""
    return (
        outcome.window_id,
        outcome.merged,
        outcome.exact,
        outcome.estimated,
        outcome.arrived,
        outcome.kept,
        outcome.dropped,
    )


async def drive(plane, pipeline, schedule):
    """Ingest/drain/close the schedule; returns (outcome keys, totals)."""
    outcomes = []
    for w, batches in enumerate(schedule):
        for source, rows, stamps in batches:
            await settle(plane.ingest(source, rows, stamps))
        await settle(plane.advance(1000.0))  # full drain: only shed decisions remain
        due = plane.due_windows(float(w + 1))
        if due:
            partials = await settle(plane.collect(due))
            outcomes.extend(pipeline.evaluate_windows(partials))
    # Flush whatever the grace rule held back.
    await settle(plane.advance(1000.0))
    leftovers = sorted(plane.known_windows)
    if leftovers:
        partials = await settle(plane.collect(leftovers))
        outcomes.extend(pipeline.evaluate_windows(partials))
    outcomes.sort(key=lambda o: o.window_id)
    return [outcome_key(o) for o in outcomes], plane.totals()


def serial_reference(schedule):
    pipeline = make_pipeline()
    plane = StreamDataPlane(pipeline)
    return run(drive(plane, pipeline, schedule))


@pytest.mark.parametrize("shards", [2, 4])
def test_sharded_plane_matches_serial(shards):
    schedule = workload(seed=17)
    ref_outcomes, ref_totals = serial_reference(schedule)
    assert ref_outcomes, "reference run closed no windows"
    kept, dropped = ref_totals
    assert dropped > 0, "workload must force shedding to be a real test"

    pipeline = make_pipeline()
    plane = ShardedDataPlane(pipeline, shards)
    try:
        outcomes, totals = run(drive(plane, pipeline, schedule))
    finally:
        plane.close()
    assert outcomes == ref_outcomes
    assert totals == ref_totals


def test_sharded_plane_matches_serial_bursty_seed():
    # A second fixed seed with lopsided per-stream volume, so shards see
    # genuinely different load (the Figure 9 shape: bursts on one stream).
    rng = random.Random(91)
    gens = paper_row_generators()
    schedule = []
    for w in range(2):
        batches = []
        for source, n in (("R", 300), ("S", 60), ("T", 20)):
            rows = [list(gens[source].draw(rng)) for _ in range(n)]
            stamps = [float(w) + i * (0.9 / n) for i in range(n)]
            batches.append((source, rows, stamps))
        schedule.append(batches)

    ref_outcomes, ref_totals = serial_reference(schedule)
    pipeline = make_pipeline()
    plane = ShardedDataPlane(pipeline, 2)
    try:
        outcomes, totals = run(drive(plane, pipeline, schedule))
    finally:
        plane.close()
    assert outcomes == ref_outcomes
    assert totals == ref_totals


def test_sharded_plane_requires_two_shards():
    pipeline = make_pipeline()
    with pytest.raises(ValueError):
        ShardedDataPlane(pipeline, 1)


def test_sharded_plane_facade_and_fresh_start():
    pipeline = make_pipeline(queue_capacity=50)
    plane = ShardedDataPlane(pipeline, 2)

    async def ingest_two():
        await plane.ingest("R", [[1]], [0.1])
        await plane.ingest("S", [[2, 3]], [0.1])

    try:
        assert plane.capacities() == {s: 50 for s in STREAMS}
        run(ingest_two())
        assert plane.depths()["R"] == 1
        assert sum(plane.shard_depths().values()) == 2
        kept, dropped = plane.totals()
        assert (kept, dropped) == (0, 0)  # nothing drained yet
    finally:
        plane.close()
    # Starting over is a new plane, not a reset op: nothing carries across.
    plane = ShardedDataPlane(pipeline, 2)
    try:
        assert plane.depths() == {s: 0 for s in STREAMS}
        assert plane.known_windows == set()
    finally:
        plane.close()


def test_sharded_plane_is_ready_when_constructed():
    # Every worker has answered its ready reply before the constructor
    # returns: none is owed a reply, and nothing is left on any pipe.
    plane = ShardedDataPlane(make_pipeline(), 2)
    try:
        for worker in plane.workers:
            assert worker.process.is_alive()
            assert not worker.waiting
            assert not worker.conn.poll(0)
    finally:
        plane.close()


def test_worker_that_fails_to_start_refuses_the_plane(monkeypatch):
    # Workers are forked, so the patched builder is the one they run.
    import repro.service.shard as shard

    def broken(payload, obs=None):
        raise RuntimeError("no plane today")

    children = set(multiprocessing.active_children())
    monkeypatch.setattr(shard, "build_pipeline_from_payload", broken)
    with pytest.raises(shard.ShardError, match="no plane today"):
        ShardedDataPlane(make_pipeline(), 2)
    assert set(multiprocessing.active_children()) <= children


def test_worker_that_dies_while_starting_refuses_the_plane(monkeypatch):
    import repro.service.shard as shard

    def dead(payload, obs=None):
        os._exit(3)

    children = set(multiprocessing.active_children())
    monkeypatch.setattr(shard, "build_pipeline_from_payload", dead)
    with pytest.raises(shard.ShardError, match="died while starting"):
        ShardedDataPlane(make_pipeline(), 2)
    assert set(multiprocessing.active_children()) <= children


def test_sharded_close_reaches_metrics_registry():
    # A real ingest -> tick -> close cycle on a sharded server must land
    # the shard gauges and the audit counters in the server's registry.
    async def main():
        async with serve(2, obs=audited()) as server:
            for source, rows, stamps in workload(n_windows=1)[0]:
                await server.ingest_rows(source, rows, stamps, now=0.5)
            server.clock.t = 10.0
            frames = await server.tick()
            assert frames
            return server.metrics.to_dict(), server.plane.assignment, len(frames)

    doc, assignment, closed = run(main())
    depth_keys = {tuple(k.split("||")) for k in doc["shard_queue_depth"]["values"]}
    assert depth_keys == {(str(assignment[s]), s) for s in STREAMS}
    merged = doc["shard_windows_merged_total"]["values"]
    assert sum(merged.values()) == 2 * closed
    assert doc["shard_merge_seconds"]["values"][""]["count"] >= 1
    assert sum(doc["audit_events_total"]["values"].values()) > 0
    assert "audit_windows_attributed_total" in doc


def test_sharded_plane_propagates_schema_errors():
    from repro.engine.types import SchemaError

    pipeline = make_pipeline()
    plane = ShardedDataPlane(pipeline, 2)

    async def main():
        with pytest.raises(SchemaError):
            await plane.ingest("S", [["not-an-int", None]], [0.1])
        # The worker survives a rejected batch.
        accepted, late, depth, dropped = await plane.ingest("S", [[1, 2]], [0.1])
        assert accepted == 1 and depth == 1

    try:
        run(main())
    finally:
        plane.close()


def test_ingest_mid_batch_schema_error_leaves_no_accounting_residue():
    # Regression: with explicit timestamps, a batch whose row i validates
    # but row i+1 does not used to leave row i's arrival counts and known
    # windows behind even though the whole batch was rejected — skewing
    # drop-fraction estimation and double-counting a retried batch.
    from repro.engine.types import SchemaError

    pipeline = make_pipeline()
    plane = StreamDataPlane(pipeline)
    with pytest.raises(SchemaError):
        plane.ingest("S", [[1, 2], ["not-an-int", None], [5, 6]], [0.1, 0.2, 0.3])
    assert plane.arrived["S"] == {}
    assert plane.known_windows == set()
    # The client fixes the batch and retries: counts reflect one send only.
    accepted, late, _, _ = plane.ingest("S", [[1, 2], [5, 6]], [0.1, 0.2])
    assert (accepted, late) == (2, 0)
    assert plane.arrived["S"] == {0: 2}


# ---------------------------------------------------------------------------
# RPC reply routing: one FIFO of futures per worker pipe
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def piped_worker():
    """A coordinator-side worker handle whose far end the test plays."""
    from repro.service.shard import _ShardWorker

    parent, child = multiprocessing.Pipe()
    worker = _ShardWorker(0, ["R"], process=None, conn=parent)
    try:
        yield worker, child
    finally:
        worker.detach()
        parent.close()
        child.close()


def answer(child, n):
    """Play the worker: reply to ``n`` commands, in order, naming each."""
    for _ in range(n):
        child.send(("ok", f"reply-{child.recv()[0]}"))


def test_shard_worker_interleaved_requests_get_their_own_replies():
    # A publisher's ingest landing between the ticker's tick broadcast and
    # its reply: the pipe answers in send order, so each future resolves
    # to its own command's reply, whichever conversation awaits first.
    async def main():
        with piped_worker() as (worker, child):
            tick = worker.request(("tick", 1.0))
            ingest = worker.request(("ingest", "R", [], None, 0.0, True))
            answer(child, 2)
            assert await ingest == ("ok", "reply-ingest")
            assert await tick == ("ok", "reply-tick")
            assert not worker.waiting

    run(main())


def test_shard_worker_cancelled_conversation_keeps_its_place():
    # A conversation that gave up still owns the next reply on the pipe:
    # that reply is read and dropped, never handed to the one behind it.
    async def main():
        with piped_worker() as (worker, child):
            abandoned = worker.request(("tick", 1.0))
            abandoned.cancel()
            close = worker.request(("close", [0]))
            answer(child, 2)
            assert await close == ("ok", "reply-close")
            assert not worker.waiting

    run(main())


def test_shard_worker_eof_fails_every_waiting_conversation_at_once():
    from repro.service.shard import ShardError

    async def main():
        with piped_worker() as (worker, child):
            first = worker.request(("tick", 1.0))
            second = worker.request(("close", [0]))
            child.close()  # the worker dies with both replies owed
            for future in (first, second):
                with pytest.raises(ShardError, match="died"):
                    await asyncio.wait_for(future, timeout=5.0)
            with pytest.raises(ShardError):
                worker.request(("tick", 0.0))  # lost for good, no send

    run(main())


def test_shard_worker_never_blocks_the_loop_on_a_full_pipe():
    # The worker is writing a close reply several times the pipe's socket
    # buffer and reads no command until it is out, while publishers queue
    # megabyte ingests behind the close.  A blocking send would wedge the
    # loop, and with it the reader that drains the reply: neither side
    # could move.  Every conversation must get its own reply instead.
    reply = b"r" * (4 << 20)
    blob = b"b" * (1 << 20)
    n_ingests = 4

    def far_end(child):
        try:
            child.recv()  # the close
            child.send(("ok", reply))
            for _ in range(n_ingests):
                child.send(("ok", len(child.recv()[2])))
        except OSError:
            pass  # the watchdog cut the pipe

    async def main(worker):
        close = worker.request(("close", [0]))
        ingests = [
            worker.request(("ingest", "R", blob, None, 0.0, True))
            for _ in range(n_ingests)
        ]
        return await asyncio.wait_for(asyncio.gather(close, *ingests), 30.0)

    with piped_worker() as (worker, child):

        def cut():
            # A wedged loop never reaches wait_for's timeout: shutting the
            # pipe down fails the blocked send instead of hanging the test.
            with socket.socket(fileno=os.dup(child.fileno())) as sock:
                sock.shutdown(socket.SHUT_RDWR)

        peer = threading.Thread(target=far_end, args=(child,), daemon=True)
        watchdog = threading.Timer(30.0, cut)
        peer.start()
        watchdog.start()
        try:
            replies = run(main(worker))
        finally:
            watchdog.cancel()
            peer.join(timeout=5.0)
    assert replies[0] == ("ok", reply)
    assert replies[1:] == [("ok", len(blob))] * n_ingests


def test_sharded_plane_survives_concurrent_ingest_and_ticks():
    # The live version of the interleaving above: publisher tasks ingest
    # through worker pipes while a ticker task advances the same workers;
    # every reply must reach its own conversation and no window partial
    # may be lost.
    rng = random.Random(3)
    gens = paper_row_generators()
    pipeline = make_pipeline(queue_capacity=10_000)  # no drops: exact totals
    plane = ShardedDataPlane(pipeline, 2)
    n_batches, batch_rows = 30, 10
    accepted_counts = []
    batches = {
        source: [
            [list(gens[source].draw(rng)) for _ in range(batch_rows)]
            for _ in range(n_batches)
        ]
        for source in STREAMS
    }

    async def publisher(source):
        for b, rows in enumerate(batches[source]):
            stamps = [0.1 + b * 0.01 + i * 0.001 for i in range(len(rows))]
            accepted, late, _, _ = await plane.ingest(source, rows, stamps)
            accepted_counts.append(accepted + late)

    async def main():
        publishers = asyncio.gather(*(publisher(s) for s in STREAMS))
        while not publishers.done():
            await plane.advance(0.001)  # the ticker's broadcast
        await publishers
        expected = len(STREAMS) * n_batches * batch_rows
        assert sum(accepted_counts) == expected
        # The plane still closes windows cleanly after the contention.
        await plane.advance(1000.0)
        due = plane.due_windows(1000.0)
        assert due
        partials = await plane.collect(due)
        kept = sum(
            sum(len(bag) for bag in per_window.values())
            for per_window in partials.kept_rows.values()
        )
        offered, dropped = plane.totals()
        assert offered == expected
        assert dropped == 0
        assert kept == expected

    try:
        run(main())
    finally:
        plane.close()


# ---------------------------------------------------------------------------
# Determinism across shard counts (server-level, over TCP)
# ---------------------------------------------------------------------------
QUERY = PAPER_QUERY


@contextlib.asynccontextmanager
async def serve(shards, obs=None, **service_kwargs):
    class ManualClock:
        def __init__(self):
            self.t = 0.0

        def __call__(self):
            return self.t

    clock = ManualClock()
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=30,
        service_time=0.002,
        compute_ideal=False,
    )
    service = ServiceConfig(
        tick_interval=None, clock=clock, shards=shards, **service_kwargs
    )
    server = TriageServer(paper_catalog(), QUERY, config, service, obs=obs)
    await server.start()
    server.clock = clock
    try:
        yield server
    finally:
        await server.shutdown()


async def _server_run(shards):
    """Publish a fixed-seed workload; return the RESULT frames' payloads."""
    rng = random.Random(23)
    gens = paper_row_generators()
    results = []
    async with serve(shards) as server:
        client = await TriageClient.connect("127.0.0.1", server.port)
        await client.subscribe()
        for source in STREAMS:
            await client.declare(source)
        acks = []
        for w in range(2):
            for source in STREAMS:
                rows = [list(gens[source].draw(rng)) for _ in range(80)]
                stamps = [float(w) + i * 0.01 for i in range(80)]
                encoding = "cols" if source == "S" else "rows"
                ack = await client.publish(
                    source, rows, timestamps=stamps, encoding=encoding
                )
                acks.append((ack["accepted"], ack["late"]))
            server.clock.t = float(w + 1)
            await server.tick()
        server.clock.t = 10.0
        await server.tick()
        for _ in range(2):
            frame = await client.next_result(timeout=5.0)
            assert frame is not None
            results.append(
                (frame["window"], frame["groups"], frame["kept"], frame["dropped"])
            )
        stats = await client.stats()
        await client.close()
    results.sort(key=lambda r: r[0])
    return acks, results, stats["summary"]


def test_server_results_identical_across_shard_counts():
    acks1, results1, summary1 = run(_server_run(1))
    acks2, results2, summary2 = run(_server_run(2))
    assert results1 == results2
    assert acks1 == acks2
    assert "shards" not in summary1
    # The sharded server reports per-shard queue depths in its summary.
    assert set(summary2["shards"].keys()) == {"0", "1"}


def test_sharded_server_rejects_adaptive_staleness():
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=10,
        adaptive_staleness=0.5,
        compute_ideal=False,
    )
    with pytest.raises(ValueError, match="adaptive staleness"):
        TriageServer(
            paper_catalog(),
            QUERY,
            config,
            ServiceConfig(tick_interval=None, shards=2),
        )


# ---------------------------------------------------------------------------
# A lost worker, and a loop that never leaves its thread
# ---------------------------------------------------------------------------
async def raw_subscriber(server):
    """A bare SUBSCRIBE connection, so the test sees the BYE frame itself."""
    reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
    for frame in ({"type": "HELLO", "version": 1}, {"type": "SUBSCRIBE"}):
        writer.write(encode_frame(frame))
        await writer.drain()
        await read_frame(reader, sender="server")
    return reader, writer


def test_lost_worker_is_an_error_frame_not_a_dropped_connection():
    from repro.service import ServiceError

    async def main():
        tick_errors = None
        frames = []
        async with serve(2, obs=profiled(200.0)) as server:
            reader, writer = await raw_subscriber(server)
            client = await TriageClient.connect("127.0.0.1", server.port)
            for source in STREAMS:
                await client.declare(source)
            victim, survivor = server.plane.workers
            os.kill(victim.process.pid, signal.SIGKILL)
            victim.process.join(timeout=5)

            with pytest.raises(ServiceError) as err:
                await asyncio.wait_for(
                    client.publish(victim.sources[0], [[1]], timestamps=[0.1]),
                    timeout=5.0,
                )
            assert err.value.code == "shard-unavailable"
            # A live profile needs every worker's samples: same answer.
            with pytest.raises(ServiceError) as err:
                await asyncio.wait_for(client.stats(profile=True), timeout=5.0)
            assert err.value.code == "shard-unavailable"
            # Same session, a stream of the surviving worker: still acked.
            stream = survivor.sources[0]
            width = len(server.pipeline.bound.source(stream).schema.columns)
            ack = await asyncio.wait_for(
                client.publish(stream, [[1] * width], timestamps=[0.1]),
                timeout=5.0,
            )
            assert ack["accepted"] == 1

            server.clock.t = 10.0
            assert await asyncio.wait_for(server.tick(), timeout=5.0) == []
            tick_errors = server.metrics.to_dict()[
                "service_tick_errors_total"
            ]["values"]
            await client.close()
        # shutdown() returned; the subscriber got its goodbye.
        while line := await asyncio.wait_for(reader.readline(), timeout=5.0):
            frames.append(decode_frame(line)["type"])
        writer.close()
        return tick_errors, frames

    tick_errors, frames = run(main())
    assert tick_errors == {"ShardError": 1}
    assert frames[-1] == "BYE"


def test_sharded_shutdown_propagates_a_real_bug_and_still_closes_workers(
    monkeypatch,
):
    async def main():
        server = TriageServer(
            paper_catalog(),
            QUERY,
            make_pipeline().config,
            ServiceConfig(tick_interval=None, clock=lambda: 0.5, shards=2),
        )
        await server.start()
        await server.ingest_rows("R", [[1]], [0.1])

        def broken(*args, **kwargs):
            raise ValueError("evaluation bug")

        monkeypatch.setattr(server.pipeline, "evaluate_windows", broken)
        with pytest.raises(ValueError, match="evaluation bug"):
            await server.shutdown()
        return server

    server = run(main())
    assert server.plane._closed
    assert not any(w.process.is_alive() for w in server.plane.workers)


def test_sharded_session_never_leaves_the_event_loop(monkeypatch):
    # Publish, tick, close, a live profile capture and shutdown on a
    # 2-shard server: every worker conversation runs on the loop thread.
    def refuse(self, *args, **kwargs):
        raise AssertionError("a shard conversation went to the executor")

    monkeypatch.setattr(asyncio.BaseEventLoop, "run_in_executor", refuse)

    async def main():
        async with serve(2, obs=profiled(200.0)) as server:
            client = await TriageClient.connect("127.0.0.1", server.port)
            await client.subscribe()
            for source in STREAMS:
                await client.declare(source)
            for source, rows, stamps in workload(n_windows=1)[0]:
                ack = await client.publish(source, rows, timestamps=stamps)
                assert ack["accepted"] == len(rows)
            server.clock.t = 10.0
            await server.tick()
            result = await client.next_result(timeout=5.0)
            assert result["window"] == 0
            stats = await client.stats(profile=True)
            assert "collapsed" in stats["prof"]
            await client.close()

    run(main())


# ---------------------------------------------------------------------------
# Columnar framing: codec round-trip fuzz
# ---------------------------------------------------------------------------
def _publish(cols, **extra):
    frame = {"type": "PUBLISH", "stream": "R", "cols": cols}
    frame.update(extra)
    return frame


def test_cols_round_trip_fuzz():
    rng = random.Random(7)
    scalars = [
        lambda: rng.randint(-(10**9), 10**9),
        lambda: rng.random() * 1e6,
        lambda: rng.choice([True, False]),
        lambda: None,
        lambda: "".join(chr(rng.randint(32, 0x2FA0)) for _ in range(rng.randint(0, 8))),
    ]
    for _ in range(50):
        ncols = rng.randint(1, 5)
        nrows = rng.randint(0, 40)
        cols = [
            [rng.choice(scalars)() for _ in range(nrows)] for _ in range(ncols)
        ]
        frame = _publish(cols)
        if nrows and rng.random() < 0.5:
            frame["timestamps"] = [i * 0.5 for i in range(nrows)]
        validate_frame(frame, sender="client")
        assert decode_frame(encode_frame(frame), sender="client") == frame


def test_cols_empty_batch_round_trips():
    for cols in ([], [[]], [[], []]):
        frame = _publish(cols)
        validate_frame(frame, sender="client")
        assert decode_frame(encode_frame(frame), sender="client") == frame


def test_cols_oversized_batch_rejected():
    frame = _publish([[0] * (MAX_BATCH_ROWS + 1)])
    with pytest.raises(ProtocolError) as err:
        validate_frame(frame, sender="client")
    assert err.value.code == "batch-too-large"


def test_cols_ragged_columns_rejected():
    with pytest.raises(ProtocolError) as err:
        validate_frame(_publish([[1, 2, 3], [4, 5]]), sender="client")
    assert err.value.code == "bad-field"


def test_cols_non_scalar_value_rejected():
    with pytest.raises(ProtocolError) as err:
        validate_frame(_publish([[1, [2]]]), sender="client")
    assert err.value.code == "bad-field"


def test_cols_and_rows_are_mutually_exclusive():
    frame = _publish([[1]], rows=[[1]])
    with pytest.raises(ProtocolError) as err:
        validate_frame(frame, sender="client")
    assert err.value.code == "bad-frame"
    with pytest.raises(ProtocolError) as err:
        validate_frame({"type": "PUBLISH", "stream": "R"}, sender="client")
    assert err.value.code == "bad-frame"


def test_cols_timestamps_length_must_match():
    frame = _publish([[1, 2]], timestamps=[0.0])
    with pytest.raises(ProtocolError) as err:
        validate_frame(frame, sender="client")
    assert err.value.code == "bad-field"


def test_encode_frame_passes_bytes_through():
    frame = {"type": "SUBSCRIBE"}
    payload = encode_frame(frame)
    assert encode_frame(payload) == payload
    assert encode_frame(bytearray(payload)) == payload


# ---------------------------------------------------------------------------
# Columnar framing: server semantics
# ---------------------------------------------------------------------------
async def _cols_vs_rows():
    rng = random.Random(5)
    gens = paper_row_generators()
    rows = [list(gens["S"].draw(rng)) for _ in range(25)]
    async with serve(shards=1) as server:
        client = await TriageClient.connect("127.0.0.1", server.port)
        await client.subscribe()
        await client.declare("S")
        stamps0 = [0.1 + i * 0.01 for i in range(25)]
        stamps1 = [1.1 + i * 0.01 for i in range(25)]
        ack_rows = await client.publish("S", rows, timestamps=stamps0)
        server.clock.t = 0.5  # drain batch one before batch two arrives
        await server.tick()
        cols = [list(c) for c in zip(*rows)]
        ack_cols = await client.publish_columns("S", cols, timestamps=stamps1)
        assert ack_cols["accepted"] == ack_rows["accepted"] == 25
        server.clock.t = 10.0
        await server.tick()
        frames = {}
        for _ in range(2):
            frame = await client.next_result(timeout=5.0)
            frames[frame["window"]] = frame
        # One identical batch per window: identical groups either way.
        assert frames[0]["groups"] == frames[1]["groups"]
        assert frames[0]["kept"] == frames[1]["kept"]

        # A bad column value is rejected atomically, like a bad row.
        with pytest.raises(Exception) as err:
            await client.publish_columns(
                "S", [[1, "oops"], [2, 3]], timestamps=[5.0, 5.0]
            )
        assert getattr(err.value, "code", "") == "bad-row"
        await client.close()


def test_server_cols_publish_matches_rows():
    run(_cols_vs_rows())


async def _empty_batches(shards):
    async with serve(shards=shards) as server:
        client = await TriageClient.connect("127.0.0.1", server.port)
        await client.declare("S")
        # An empty batch must ack identically under every encoding: the
        # zero-row columnar pivot produces cols == [], which the server
        # treats as empty rather than arity-rejecting.
        ack_rows = await client.publish("S", [])
        ack_cols = await client.publish("S", [], encoding="cols")
        ack_native = await client.publish_columns("S", [])
        for ack in (ack_rows, ack_cols, ack_native):
            assert (ack["accepted"], ack["late"]) == (0, 0)
        await client.close()


def test_empty_batch_acks_identically_across_encodings():
    for shards in (1, 2):
        run(_empty_batches(shards))
