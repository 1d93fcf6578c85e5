"""TriageServer hosting a CEP pattern query: metrics, summary, refusal."""

import asyncio

import pytest

from repro.cep import DEMO_PATTERN, PatternUtilityPolicy, bursty_pattern_workload, demo_catalog
from repro.core.strategies import PipelineConfig
from repro.service import ServiceConfig, TriageServer

QUERY = (
    "SELECT A.k, COUNT(*) AS n FROM A, B, C "
    "WHERE A.k = B.k AND B.k = C.k GROUP BY A.k; "
    "WINDOW A ['2 seconds'], B ['2 seconds'], C ['2 seconds']"
)


def make_server(policy=None, shards=1):
    config = PipelineConfig(compute_ideal=False)
    if policy is not None:
        config.policy = policy
    service = ServiceConfig(
        tick_interval=None, clock=lambda: 1000.0, shards=shards
    )
    return TriageServer(demo_catalog(), QUERY, config, service)


class TestAttachPattern:
    def test_matches_and_metrics_flow(self):
        server = make_server()
        engine = server.attach_pattern(DEMO_PATTERN)

        async def publish():
            for stream, tup in bursty_pattern_workload(n_events=800, seed=0):
                await server.ingest_rows(
                    stream, [list(tup.row)], [tup.timestamp], now=tup.timestamp
                )

        asyncio.run(publish())
        server.plane.drain(None)
        matches = server.take_matches()
        assert matches
        assert engine.stats.matches == len(matches)
        # The engine calls nobody: its counters reach ``cep_*_total`` at the
        # next point a reader could look, here a tick.
        asyncio.run(server.tick())
        metrics = server.metrics.to_dict()
        assert metrics["cep_matches_total"]["values"][""] == len(matches)
        assert metrics["cep_runs_started_total"]["values"][""] > 0

    def test_summary_reports_pattern_block(self):
        server = make_server()
        server.attach_pattern(DEMO_PATTERN)
        summary = server._summary()
        assert summary["pattern"]["streams"] == ["A", "B", "C"]
        assert summary["pattern"]["within"] == 2.0
        assert summary["pattern"]["active_runs"] == 0

    def test_binds_engine_into_pattern_aware_policy(self):
        policy = PatternUtilityPolicy()
        server = make_server(policy=policy)
        engine = server.attach_pattern(DEMO_PATTERN)
        assert policy.engine is engine

    def test_pattern_blind_decisions_are_counted_until_the_engine_is_bound(self):
        # `serve --drop-policy pattern-utility` without --pattern sheds by
        # head drop; cep_policy_unbound_total says so instead of hiding it.
        policy = PatternUtilityPolicy()
        server = make_server(policy=policy)
        capacity = server.config.queue_capacity

        def unbound_total():
            asyncio.run(server.tick())
            values = server.metrics.to_dict()["cep_policy_unbound_total"]["values"]
            return values.get("", 0)

        assert unbound_total() == 0  # minted before anything overflowed
        rows = [[1 + i % 3] for i in range(capacity + 5)]
        asyncio.run(server.ingest_rows("B", rows, now=1000.0))
        assert unbound_total() == policy.unbound == 5
        server.attach_pattern(DEMO_PATTERN)
        asyncio.run(server.ingest_rows("B", rows, now=1000.0))
        assert unbound_total() == 5
        # The index was filed pattern-blind, then re-filed under the engine.
        queue = server.plane.queues["B"]
        assert len(queue.policy_index) == len(queue) == capacity

    def test_take_matches_pops(self):
        server = make_server()
        server.attach_pattern(DEMO_PATTERN)
        assert server.take_matches() == []

    def test_sharded_plane_refuses_pattern(self):
        # The error must be actionable: it names the --shards restriction.
        server = make_server(shards=2)
        try:
            with pytest.raises(ValueError, match="--shards 1"):
                server.attach_pattern(DEMO_PATTERN)
        finally:
            server.plane.close()

    def test_sharded_plane_object_refuses_pattern_directly(self):
        # Embedders driving the plane (not the server) get the same clear
        # refusal, not an AttributeError.
        from repro.sql.binder import Binder
        from repro.sql.parser import parse_statement

        server = make_server(shards=2)
        try:
            bound = Binder(demo_catalog()).bind_pattern(
                parse_statement(DEMO_PATTERN)
            )
            assert server.plane.pattern_engine is None
            with pytest.raises(ValueError, match="--shards 1"):
                server.plane.attach_pattern(bound)
        finally:
            server.plane.close()

    def test_rejects_non_pattern_text(self):
        server = make_server()
        with pytest.raises(TypeError):
            server.attach_pattern("SELECT A.k FROM A")
