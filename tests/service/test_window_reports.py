"""Per-window reports in the live service: STATS export + summary rollup."""

import asyncio
import contextlib

from repro.core.strategies import PipelineConfig
from repro.engine.window import WindowSpec
from repro.experiments import paper_catalog
from repro.obs import Observability
from repro.service import ServiceConfig, TriageClient, TriageServer

QUERY_R_ONLY = "SELECT a, COUNT(*) AS n FROM R GROUP BY a;"


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@contextlib.asynccontextmanager
async def serve(*, queue_capacity=10, obs=None):
    clock = ManualClock()
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=queue_capacity,
        service_time=0.01,
        compute_ideal=False,
    )
    service = ServiceConfig(tick_interval=None, clock=clock)
    server = TriageServer(
        paper_catalog(), QUERY_R_ONLY, config, service, obs=obs
    )
    await server.start()
    server.clock = clock
    try:
        yield server
    finally:
        await server.shutdown()


def run(coro):
    return asyncio.run(coro)


async def publish_two_windows(server):
    """20 rows into window 0 (some shed at capacity 10), 5 into window 1."""
    await server.ingest_rows("R", [[1]] * 20, timestamps=[i / 20 for i in range(20)], now=0.0)
    await server.ingest_rows("R", [[2]] * 5, timestamps=[1.0 + i / 10 for i in range(5)], now=1.0)


class TestWindowReports:
    def test_reports_accumulate_as_windows_close(self):
        async def scenario():
            async with serve(queue_capacity=10) as server:
                await publish_two_windows(server)
                server.clock.t = 5.0
                await server.tick()
                reports = list(server._window_reports)
                assert [r.window_id for r in reports] == [0, 1]
                w0 = reports[0]
                assert w0.arrived == 20
                assert w0.kept + w0.dropped == 20
                assert w0.dropped > 0  # capacity 10 forced shedding
                assert 0.0 < w0.drop_fraction < 1.0
                assert w0.result_latency is not None
                assert w0.rms_error is None  # no ideal reference live
                assert reports[1].arrived == 5

        run(scenario())

    def test_stats_reply_carries_window_reports(self):
        async def scenario():
            async with serve(queue_capacity=10) as server:
                client = await TriageClient.connect(
                    "127.0.0.1", server.port, client_name="t"
                )
                await client.declare("R")
                await publish_two_windows(server)
                server.clock.t = 5.0
                await server.tick()
                stats = await client.stats()
                reports = stats["window_reports"]
                assert [r["window_id"] for r in reports] == [0, 1]
                assert reports[0]["arrived"] == 20
                assert reports[0]["dropped"] > 0
                rollup = stats["summary"]["windows"]
                assert rollup["windows"] == 2
                assert rollup["arrived"] == 25
                assert rollup["worst_latency_window"] in (0, 1)
                await client.close()

        run(scenario())

    def test_obs_attached_reports_include_phase_seconds(self):
        async def scenario():
            obs = Observability()
            async with serve(queue_capacity=10, obs=obs) as server:
                assert server.metrics is obs.registry  # one shared snapshot
                await publish_two_windows(server)
                server.clock.t = 5.0
                await server.tick()
                reports = list(server._window_reports)
                assert len(reports) == 2
                for r in reports:
                    assert {"exact", "shadow", "merge"} <= set(r.phase_seconds)
                # Consumed into the reports: the per-window store drains.
                assert obs.phase_seconds == {}

        run(scenario())

    def test_summary_without_closed_windows(self):
        async def scenario():
            async with serve() as server:
                assert server._summary()["windows"] == {"windows": 0}

        run(scenario())
