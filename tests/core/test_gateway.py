"""Tests for triage at distributed gateways."""

import random

import pytest

from repro.core import (
    DataTriagePipeline,
    PipelineConfig,
    ShedStrategy,
    TriageGateway,
    run_gateway_experiment,
)
from repro.engine import StreamTuple, WindowSpec
from repro.quality import run_rms
from repro.sources import SteadyArrival, generate_stream, paper_row_generators
from repro.sources.network import NetworkLink
from repro.synopses import Dimension, SparseHistogramFactory

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)


def make_gateway(bandwidth, capacity=5, summarize=True, latency=0.0):
    return TriageGateway(
        name="R",
        dimensions=[Dimension("R.a", 1, 100)],
        dim_positions=[0],
        link=NetworkLink(bandwidth=bandwidth, latency=latency),
        queue_capacity=capacity,
        synopsis_factory=SparseHistogramFactory(bucket_width=1),
        window=WindowSpec(width=1.0),
        summarize=summarize,
        seed=1,
    )


def burst(n, t0=0.0, spacing=0.001, value=5):
    return [StreamTuple(t0 + i * spacing, (value,)) for i in range(n)]


class TestTriageGateway:
    def test_all_delivered_when_link_is_fast(self):
        gw = make_gateway(bandwidth=None)
        out = gw.run(burst(20))
        assert len(out.delivered) == 20
        assert out.dropped == 0

    def test_slow_link_forces_drops(self):
        # 100 tuples in ~0.1s over a 10/s link with a 5-tuple queue.
        gw = make_gateway(bandwidth=10.0)
        out = gw.run(burst(100))
        assert out.dropped > 50
        assert out.offered == 100
        assert len(out.delivered) + out.dropped == 100

    def test_dropped_tuples_synopsized_per_window(self):
        gw = make_gateway(bandwidth=10.0)
        out = gw.run(burst(100, value=42))
        ws = out.synopses[0]
        assert ws.dropped_count == out.dropped
        assert ws.synopsis.group_counts("R.a") == {42: float(out.dropped)}

    def test_synopsis_shipping_charged_to_link(self):
        gw = make_gateway(bandwidth=10.0)
        # Two windows of overload; the second window's first delivery must
        # come after the first window's synopsis crossed the wire.
        tuples = burst(50, t0=0.0) + burst(50, t0=1.0)
        out = gw.run(tuples)
        assert 0 in out.synopsis_delivery
        first_delivery_w1 = min(
            d.delivery_time for d in out.delivered if d.source_time >= 1.0
        )
        assert first_delivery_w1 >= out.synopsis_delivery[0] - 1e-9

    def test_latency_adds_to_delivery(self):
        gw = make_gateway(bandwidth=None, latency=0.25)
        out = gw.run(burst(3))
        for d in out.delivered:
            assert d.delivery_time == pytest.approx(d.source_time + 0.25)
        assert out.max_delivery_lag == pytest.approx(0.25)

    def test_drop_only_mode(self):
        gw = make_gateway(bandwidth=10.0, summarize=False)
        out = gw.run(burst(100))
        assert out.dropped > 0
        assert all(ws.synopsis is None for ws in out.synopses.values())


class TestGatewayExperiment:
    @pytest.fixture
    def setup(self, paper_catalog):
        rng = random.Random(4)
        gens = paper_row_generators()
        # 300 tuples/s per stream against 100/s links: ~2/3 must shed.
        streams = {
            name: generate_stream(600, SteadyArrival(300.0), gens[name], None, rng)
            for name in ("R", "S", "T")
        }
        config = PipelineConfig(
            strategy=ShedStrategy.DATA_TRIAGE,
            window=WindowSpec(width=0.5),
            service_time=1e-6,  # engine is not the bottleneck
        )
        pipeline = DataTriagePipeline(paper_catalog, QUERY, config)
        links = {
            name: NetworkLink(bandwidth=100.0, latency=0.01) for name in ("R", "S", "T")
        }
        return pipeline, streams, links

    def test_gateway_triage_beats_link_tail_drop(self, setup):
        pipeline, streams, links = setup
        triage = run_gateway_experiment(
            pipeline, streams, links, queue_capacity=20, summarize=True
        )
        naive = run_gateway_experiment(
            pipeline, streams, links, queue_capacity=20, summarize=False
        )
        assert triage.run.total_dropped > 0
        assert run_rms(triage.run) < run_rms(naive.run)

    def test_conservation(self, setup):
        pipeline, streams, links = setup
        result = run_gateway_experiment(pipeline, streams, links, queue_capacity=20)
        assert (
            result.run.total_kept + result.run.total_dropped
            == result.run.total_arrived
        )

    def test_every_drop_is_shipped_in_its_window(self, setup):
        # A window's synopsis ships only once its queued tuples are gone:
        # a later eviction of one of them must still land in what shipped.
        pipeline, streams, links = setup
        result = run_gateway_experiment(pipeline, streams, links, queue_capacity=20)
        for name, out in result.outputs.items():
            shipped = sum(ws.dropped_count for ws in out.synopses.values())
            assert shipped == out.dropped > 0, name
        for w in result.run.windows:
            for s in ("R", "S", "T"):
                assert w.arrived[s] == w.kept[s] + w.dropped[s], (w.window_id, s)

    def test_lag_reported(self, setup):
        pipeline, streams, links = setup
        result = run_gateway_experiment(pipeline, streams, links, queue_capacity=20)
        assert result.max_delivery_lag > 0

    def test_fat_links_no_drops_exact_results(self, setup):
        pipeline, streams, _ = setup
        fat = {name: NetworkLink(latency=0.001) for name in ("R", "S", "T")}
        result = run_gateway_experiment(pipeline, streams, fat, queue_capacity=20)
        assert result.run.total_dropped == 0
        assert run_rms(result.run) == pytest.approx(0.0, abs=1e-9)
