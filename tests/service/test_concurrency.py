"""Concurrency regression tests: shared triage queues stay consistent.

Two layers: raw ``TriageQueue(thread_safe=True)`` hammered from worker
threads, and several ``TriageClient`` publishers pushing through the real
TCP server at once.
"""

import asyncio
import threading

from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.experiments import paper_catalog
from repro.service import ServiceConfig, TriageClient, TriageServer

QUERY = "SELECT a, COUNT(*) AS n FROM R GROUP BY a;"


class TestThreadedQueue:
    def test_concurrent_offers_never_lose_accounting(self):
        config = PipelineConfig(
            window=WindowSpec(width=1.0), queue_capacity=50, compute_ideal=False
        )
        pipeline = DataTriagePipeline(paper_catalog(), QUERY, config)
        queue = pipeline.build_queue("R", thread_safe=True)

        n_threads, per_thread = 4, 2000
        barrier = threading.Barrier(n_threads)

        def publisher(worker: int) -> None:
            barrier.wait()  # maximize interleaving
            for i in range(per_thread):
                ts = (i % 1000) / 1000  # all in window 0
                queue.offer(StreamTuple(ts, (1 + (worker + i) % 100,)))

        threads = [
            threading.Thread(target=publisher, args=(w,)) for w in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        offered = n_threads * per_thread
        assert queue.stats.offered == offered
        assert len(queue) <= 50
        assert queue.stats.high_watermark <= 50
        # Every offered tuple is either still buffered or was shed — none
        # vanished and none was double-counted.
        assert queue.stats.dropped + len(queue) == offered
        released = queue.release_window(0)
        assert released.dropped_count == queue.stats.dropped
        assert released.synopsis is not None

    def test_concurrent_offer_and_poll(self):
        config = PipelineConfig(
            window=WindowSpec(width=1.0), queue_capacity=20, compute_ideal=False
        )
        pipeline = DataTriagePipeline(paper_catalog(), QUERY, config)
        queue = pipeline.build_queue("R", thread_safe=True)
        stop = threading.Event()
        polled = []

        def consumer() -> None:
            while not stop.is_set() or len(queue):
                tup = queue.poll()
                if tup is not None:
                    polled.append(tup)

        consumer_thread = threading.Thread(target=consumer)
        consumer_thread.start()
        try:
            # Unique timestamps (all within window 0) identify each tuple;
            # values stay inside the synopsis domain [1, 100].
            for i in range(5000):
                queue.offer(StreamTuple(0.5 + i * 1e-9, (1 + i % 100,)))
        finally:
            stop.set()
        consumer_thread.join()

        assert queue.stats.offered == 5000
        assert len(polled) == queue.stats.polled
        assert queue.stats.polled + queue.stats.dropped == 5000
        assert len({t.timestamp for t in polled}) == len(polled)  # no dups


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
