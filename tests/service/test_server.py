"""End-to-end server tests over real TCP, on a deterministic manual clock.

Every test runs its own server on an OS-assigned port with the background
ticker disabled; the test advances the window clock and calls
``server.tick()`` itself, so engine budgets, window closes, and latencies
are all reproducible.
"""

import asyncio
import contextlib

import pytest

from repro.core.strategies import PipelineConfig
from repro.engine.window import WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.service import ServiceConfig, ServiceError, TriageClient, TriageServer
from repro.service.protocol import PROTOCOL_VERSION, encode_frame, read_frame

QUERY_R_ONLY = "SELECT a, COUNT(*) AS n FROM R GROUP BY a;"


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@contextlib.asynccontextmanager
async def serve(
    query=QUERY_R_ONLY,
    *,
    queue_capacity=10,
    service_time=0.01,
    window=1.0,
    **service_kwargs,
):
    clock = ManualClock()
    config = PipelineConfig(
        window=WindowSpec(width=window),
        queue_capacity=queue_capacity,
        service_time=service_time,
        compute_ideal=False,
    )
    service = ServiceConfig(tick_interval=None, clock=clock, **service_kwargs)
    server = TriageServer(paper_catalog(), query, config, service)
    await server.start()
    server.clock = clock  # test-side handle
    try:
        yield server
    finally:
        await server.shutdown()


async def connect(server, name="test") -> TriageClient:
    return await TriageClient.connect("127.0.0.1", server.port, client_name=name)


def run(coro):
    return asyncio.run(coro)


# ---------------------------------------------------------------------------
class TestHandshake:
    def test_welcome_carries_schemas_and_window(self):
        async def scenario():
            async with serve(window=2.0) as server:
                client = await connect(server)
                assert client.info["version"] == PROTOCOL_VERSION
                assert client.info["streams"]["R"] == [["a", "integer"]]
                assert client.info["window"]["width"] == 2.0
                await client.close()

        run(scenario())

    def test_version_mismatch_refused(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"type": "HELLO", "version": 99}))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["type"] == "ERROR"
                assert reply["code"] == "version-mismatch"
                assert reply["fatal"]
                writer.close()

        run(scenario())

    def test_first_frame_must_be_hello(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(encode_frame({"type": "SUBSCRIBE"}))
                await writer.drain()
                reply = await read_frame(reader)
                assert reply["code"] == "hello-required"
                writer.close()

        run(scenario())

    def test_admission_control_max_sessions(self):
        async def scenario():
            async with serve(max_sessions=1) as server:
                first = await connect(server)
                with pytest.raises(ServiceError) as exc:
                    await connect(server)
                assert exc.value.code == "too-many-sessions"
                reject = server.metrics.get("service_admission_rejects_total")
                assert reject.value(reason="too-many-sessions") == 1
                await first.close()
                # Slot freed: a new session is admitted again.
                await asyncio.sleep(0.05)
                second = await connect(server)
                await second.close()

        run(scenario())


# ---------------------------------------------------------------------------
class TestPublishing:
    def test_exact_results_when_under_capacity(self):
        async def scenario():
            async with serve(queue_capacity=100) as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe()
                rows = [[1]] * 4 + [[2]] * 3
                ack = await client.publish(
                    "R", rows, timestamps=[0.1 * i for i in range(7)]
                )
                assert ack["accepted"] == 7
                assert ack["queue_dropped_total"] == 0
                server.clock.t = 3.0
                emitted = await server.tick()
                assert len(emitted) == 1
                result = await client.next_result(timeout=2)
                groups = {tuple(g["key"]): g for g in result["groups"]}
                assert groups[(1,)]["aggs"]["n"] == 4
                assert groups[(2,)]["aggs"]["n"] == 3
                est = groups[(1,)]["estimated"]
                assert est is None or est.get("n", 0) == 0
                assert result["dropped"] == {"R": 0}
                await client.close()

        run(scenario())

    def test_declare_required_before_publish(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server)
                with pytest.raises(ServiceError) as exc:
                    await client.publish("R", [[1]])
                assert exc.value.code == "undeclared-stream"
                await client.close()

        run(scenario())

    def test_unknown_stream_refused(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server)
                with pytest.raises(ServiceError) as exc:
                    await client.declare("XYZ")
                assert exc.value.code == "unknown-stream"
                await client.close()

        run(scenario())

    def test_bad_row_refused(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server)
                await client.declare("R")
                with pytest.raises(ServiceError) as exc:
                    await client.publish("R", [[1, 2, 3]])  # wrong arity
                assert exc.value.code == "bad-row"
                with pytest.raises(ServiceError):
                    await client.publish("R", [["not-an-int"]])
                await client.close()

        run(scenario())

    def test_rate_limit_refuses_excess(self):
        async def scenario():
            async with serve(rate_limit=10.0, rate_burst=10.0) as server:
                client = await connect(server)
                await client.declare("R")
                await client.publish("R", [[1]] * 10, timestamps=[0.0] * 10)
                with pytest.raises(ServiceError) as exc:
                    await client.publish("R", [[1]], timestamps=[0.0])
                assert exc.value.code == "rate-limited"
                # The window clock advances; tokens come back.
                server.clock.t = 1.0
                ack = await client.publish("R", [[1]] * 5, timestamps=[0.5] * 5)
                assert ack["accepted"] == 5
                rejects = server.metrics.get("service_admission_rejects_total")
                assert rejects.value(reason="rate-limited") == 1
                await client.close()

        run(scenario())

    def test_late_rows_counted_not_queued(self):
        async def scenario():
            async with serve() as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe()
                await client.publish("R", [[1]], timestamps=[0.5])
                server.clock.t = 2.0
                await server.tick()  # closes window 0
                ack = await client.publish("R", [[9]], timestamps=[0.4])
                assert ack["accepted"] == 0
                assert ack["late"] == 1
                late = server.metrics.get("service_late_rows_total")
                assert late.value(stream="R") == 1
                await client.close()

        run(scenario())


# ---------------------------------------------------------------------------
class TestOverload:
    def test_overload_sheds_into_synopses_not_buffers(self):
        async def scenario():
            async with serve(queue_capacity=10, service_time=0.01) as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe()
                # 300 tuples into a 1s window: engine capacity is 100/s, the
                # queue holds 10 — most of the burst must be shed.
                ts = [i / 300 for i in range(300)]
                ack = await client.publish(
                    "R", [[1 + (i % 4)] for i in range(300)], timestamps=ts
                )
                assert ack["accepted"] == 300
                assert ack["queue_depth"] <= 10  # bounded buffering
                queue = server.queues["R"]
                assert queue.stats.high_watermark <= 10
                assert queue.stats.dropped > 0

                server.clock.t = 2.0
                emitted = await server.tick()
                assert len(emitted) == 1
                result = await client.next_result(timeout=2)
                # Shed tuples were summarized, not lost: the composite
                # answer carries their estimated mass, and accounting adds up.
                assert result["arrived"]["R"] == 300
                assert result["kept"]["R"] + result["dropped"]["R"] == 300
                assert result["dropped"]["R"] > 0
                estimated_mass = sum(
                    g["estimated"]["n"]
                    for g in result["groups"]
                    if g["estimated"]
                )
                merged_mass = sum(g["aggs"]["n"] for g in result["groups"])
                assert estimated_mass > 0
                assert merged_mass == pytest.approx(300, rel=0.05)

                drops = server.metrics.get("triage_drops_total")
                summarized = server.metrics.get("triage_summarized_total")
                assert drops.value(stream="R") == result["dropped"]["R"]
                assert summarized.value(stream="R") == drops.value(stream="R")
                await client.close()

        run(scenario())

    def test_every_window_of_a_sustained_burst_reports(self):
        async def scenario():
            async with serve(queue_capacity=5, service_time=0.05) as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe()
                for w in range(3):
                    ts = [w + i / 60 for i in range(60)]
                    await client.publish(
                        "R", [[1 + (i % 3)] for i in range(60)], timestamps=ts
                    )
                    server.clock.t = w + 1.0
                    await server.tick()
                server.clock.t = 10.0
                await server.tick()
                windows = []
                for _ in range(3):
                    result = await client.next_result(timeout=2)
                    windows.append(result["window"])
                    assert result["arrived"]["R"] == 60
                    assert (
                        result["kept"]["R"] + result["dropped"]["R"] == 60
                    )
                assert windows == [0, 1, 2]
                await client.close()

        run(scenario())

    def test_queue_depth_and_latency_histograms_populated(self):
        async def scenario():
            async with serve(queue_capacity=10, service_time=0.01) as server:
                client = await connect(server)
                await client.declare("R")
                await client.publish(
                    "R", [[1]] * 50, timestamps=[i / 50 for i in range(50)]
                )
                server.clock.t = 1.5
                await server.tick()
                depth = server.metrics.get("triage_queue_depth")
                latency = server.metrics.get("window_latency_seconds")
                assert depth.count(stream="R") > 0
                assert latency.count() == 1
                assert latency.sum() >= 0.5  # closed at 1.5, window ended at 1.0
                await client.close()

        run(scenario())


# ---------------------------------------------------------------------------
class TestStats:
    def test_json_stats_summary(self):
        async def scenario():
            async with serve(queue_capacity=5) as server:
                client = await connect(server)
                await client.declare("R")
                await client.publish(
                    "R", [[1]] * 20, timestamps=[i / 20 for i in range(20)]
                )
                stats = await client.stats()
                assert stats["summary"]["offered"] == 20
                assert stats["summary"]["dropped"] > 0
                assert 0 < stats["summary"]["drop_fraction"] < 1
                assert stats["summary"]["sessions"] == 1
                assert stats["metrics"]["triage_drops_total"]["values"]["R"] > 0
                await client.close()

        run(scenario())

    def test_counters_are_current_before_any_tick(self):
        # The queue counters reach the registry by fold, not per tuple; a
        # STATS reply and a TELEMETRY delta each fold first, so neither
        # waits for a tick to show rows a PUBLISH already delivered.
        async def scenario():
            async with serve(queue_capacity=5) as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe(telemetry=True)
                await client.publish(
                    "R", [[1]] * 20, timestamps=[i / 20 for i in range(20)]
                )
                metrics = (await client.stats())["metrics"]
                assert metrics["triage_offered_total"]["values"] == {"R": 20}
                assert metrics["triage_drops_total"]["values"] == {"R": 15}
                assert metrics["triage_polled_total"]["values"] == {}
                await client.publish("R", [[2]] * 5, timestamps=[0.99] * 5)
                await server._maybe_push_telemetry(0.5)
                frame = await client.next_telemetry(timeout=2)
                assert frame["metrics"]['triage_offered_total{stream="R"}'] == 25
                assert frame["metrics"]['triage_drops_total{stream="R"}'] == 20
                await client.close()

        run(scenario())

    def test_prometheus_stats(self):
        async def scenario():
            async with serve(queue_capacity=5) as server:
                client = await connect(server)
                await client.declare("R")
                await client.publish(
                    "R", [[1]] * 20, timestamps=[i / 20 for i in range(20)]
                )
                server.clock.t = 2.0
                await server.tick()
                stats = await client.stats(format="prometheus")
                text = stats["prometheus"]
                assert "# TYPE triage_drops_total counter" in text
                assert 'triage_drops_total{stream="R"} 15' in text
                assert "# TYPE triage_queue_depth histogram" in text
                assert "# TYPE window_latency_seconds histogram" in text
                assert "window_latency_seconds_count 1" in text
                await client.close()

        run(scenario())


# ---------------------------------------------------------------------------
class TestProtocolRobustness:
    def test_malformed_frame_gets_error_connection_survives(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_frame({"type": "HELLO", "version": PROTOCOL_VERSION})
                )
                await writer.drain()
                welcome = await read_frame(reader)
                assert welcome["type"] == "WELCOME"
                writer.write(b"this is not json\n")
                await writer.drain()
                error = await read_frame(reader)
                assert error["type"] == "ERROR"
                assert error["code"] == "bad-json"
                assert not error["fatal"]
                # Still alive: a valid frame gets a normal reply.
                writer.write(encode_frame({"type": "DECLARE", "stream": "R"}))
                await writer.drain()
                ok = await read_frame(reader)
                assert ok["type"] == "OK"
                errors = server.metrics.get("service_protocol_errors_total")
                assert errors.value(code="bad-json") == 1
                writer.close()

        run(scenario())

    def test_server_frame_type_from_client_is_refused(self):
        async def scenario():
            async with serve() as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode_frame({"type": "HELLO", "version": PROTOCOL_VERSION})
                )
                await writer.drain()
                await read_frame(reader)
                writer.write(
                    encode_frame({"type": "RESULT", "window": 0, "groups": []})
                )
                await writer.drain()
                error = await read_frame(reader)
                assert error["code"] == "unexpected-type"
                writer.close()

        run(scenario())


# ---------------------------------------------------------------------------
class TestGracefulShutdown:
    def test_shutdown_drains_queues_and_flushes_windows(self):
        async def scenario():
            async with serve(queue_capacity=10, service_time=0.01) as server:
                client = await connect(server)
                await client.declare("R")
                await client.subscribe()
                await client.publish(
                    "R",
                    [[1 + (i % 2)] for i in range(40)],
                    timestamps=[i / 40 for i in range(40)],
                )
                # No tick: the window is still open and the queue still
                # holds a backlog when shutdown begins.
                await server.shutdown()
                result = await client.next_result(timeout=2)
                assert result["window"] == 0
                # The final drain processed the whole backlog: kept+dropped
                # covers every arrival, queues are empty.
                assert result["kept"]["R"] + result["dropped"]["R"] == 40
                assert all(len(q) == 0 for q in server.queues.values())
                # ...and the exported counters saw the final drain too.
                polled = server.metrics.get("triage_polled_total")
                assert polled.value(stream="R") == result["kept"]["R"]
                # The results iterator then terminates (server said BYE).
                assert await client.next_result(timeout=2) is None
                await client.close()

        run(scenario())

    def test_shutdown_is_idempotent(self):
        async def scenario():
            async with serve() as server:
                await server.shutdown()
                await server.shutdown()

        run(scenario())


# ---------------------------------------------------------------------------
class TestThreeWayJoinService:
    def test_paper_query_served_end_to_end(self):
        async def scenario():
            async with serve(PAPER_QUERY, queue_capacity=50) as server:
                client = await connect(server)
                for stream in ("R", "S", "T"):
                    await client.declare(stream)
                await client.subscribe()
                ts = [i / 30 for i in range(30)]
                await client.publish(
                    "R", [[1 + (i % 3)] for i in range(30)], timestamps=ts
                )
                await client.publish(
                    "S", [[1 + (i % 3), 5] for i in range(30)], timestamps=ts
                )
                await client.publish("T", [[5]] * 30, timestamps=ts)
                server.clock.t = 3.0
                await server.tick()
                result = await client.next_result(timeout=2)
                assert result["group_names"] == ["a"]
                assert result["arrived"] == {"R": 30, "S": 30, "T": 30}
                total = sum(g["aggs"]["count"] for g in result["groups"])
                # 10 R-tuples per a-value join 10 S (b=a) with c=5, each
                # joining all 30 T tuples: 10*10*30 per group, 3 groups.
                assert total == 10 * 10 * 30 * 3
                await client.close()

        run(scenario())
