"""Concurrency regression tests: shared triage queues stay consistent.

Several ``TriageClient`` publishers push through the real TCP server at
once; their connection handlers and the window ticker take turns on the
event loop, the queues' one owner.
"""

import asyncio

from repro.core.strategies import PipelineConfig
from repro.engine.window import WindowSpec
from repro.experiments import paper_catalog
from repro.service import ServiceConfig, TriageClient, TriageServer

QUERY = "SELECT a, COUNT(*) AS n FROM R GROUP BY a;"


class TestConcurrentClients:
    def test_parallel_publishers_through_the_server(self):
        async def scenario():
            clock = {"t": 0.0}
            config = PipelineConfig(
                window=WindowSpec(width=1.0),
                queue_capacity=30,
                service_time=0.01,
                compute_ideal=False,
            )
            service = ServiceConfig(tick_interval=None, clock=lambda: clock["t"])
            server = TriageServer(paper_catalog(), QUERY, config, service)
            await server.start()
            try:
                watcher = await TriageClient.connect(
                    "127.0.0.1", server.port, client_name="watcher"
                )
                await watcher.subscribe()

                async def publish_many(worker: int) -> int:
                    client = await TriageClient.connect(
                        "127.0.0.1", server.port, client_name=f"w{worker}"
                    )
                    try:
                        await client.declare("R")
                        accepted = 0
                        for batch in range(5):
                            ack = await client.publish(
                                "R",
                                [[1 + (i % 4)] for i in range(40)],
                                timestamps=[
                                    (batch * 40 + i) / 1000 for i in range(40)
                                ],
                            )
                            accepted += ack["accepted"]
                            assert ack["queue_depth"] <= 30
                        return accepted
                    finally:
                        await client.close()

                totals = await asyncio.gather(*(publish_many(w) for w in range(4)))
                assert totals == [200, 200, 200, 200]

                # A STATS reply is a fold point: the counters are exact there
                # (mid-ingest the instrument lags the queue's own stats).
                stats = await watcher.stats()
                offered = stats["metrics"]["triage_offered_total"]["values"]
                assert offered == {"R": 800}
                assert server.queues["R"].stats.high_watermark <= 30

                clock["t"] = 3.0
                await server.tick()
                result = await watcher.next_result(timeout=2)
                assert result["arrived"]["R"] == 800
                assert result["kept"]["R"] + result["dropped"]["R"] == 800
                assert result["dropped"]["R"] > 0
                await watcher.close()
            finally:
                await server.shutdown()

        asyncio.run(scenario())
