"""Tests for controller-driven adaptive queue sizing in the pipeline."""

import random

import pytest

from repro.core import DataTriagePipeline, PipelineConfig, ShedStrategy
from repro.engine import WindowSpec
from repro.quality import run_rms
from repro.sources import MarkovBurstArrival, generate_stream, paper_row_generators

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)


def bursty_streams(seed=4, n=900):
    rng = random.Random(seed)
    gens = paper_row_generators()
    burst = {k: g.shifted(25.0) for k, g in gens.items()}
    arrival = MarkovBurstArrival(base_rate=12.0, burst_speedup=100.0)
    return {
        name: generate_stream(n, arrival, gens[name], burst[name], rng)
        for name in ("R", "S", "T")
    }, arrival


def run(paper_catalog, streams, arrival, *, capacity, staleness=None):
    window = WindowSpec(width=150 / arrival.mean_rate)
    config = PipelineConfig(
        strategy=ShedStrategy.DATA_TRIAGE,
        window=window,
        queue_capacity=capacity,
        service_time=1 / 500.0,
        seed=2,
        adaptive_staleness=staleness,
    )
    return DataTriagePipeline(paper_catalog, QUERY, config).run(streams)


class TestAdaptiveCapacity:
    def test_validation(self):
        with pytest.raises(ValueError, match="adaptive_staleness"):
            PipelineConfig(window=WindowSpec(width=1.0), adaptive_staleness=0.0)

    def test_adaptive_beats_undersized_fixed_queue(self, paper_catalog):
        streams, arrival = bursty_streams()
        fixed_small = run(paper_catalog, streams, arrival, capacity=8)
        adaptive = run(
            paper_catalog, streams, arrival, capacity=8, staleness=1.0
        )
        # The controller grows the starved queues; accuracy improves.
        assert run_rms(adaptive) < run_rms(fixed_small)
        assert adaptive.total_dropped < fixed_small.total_dropped

    def test_adaptive_bounds_staleness(self, paper_catalog):
        streams, arrival = bursty_streams()
        adaptive = run(
            paper_catalog, streams, arrival, capacity=100_000, staleness=0.5
        )
        # A full resized queue drains within the staleness budget (plus the
        # tuples already in flight when the resize landed).
        worst = max(w.result_latency for w in adaptive.windows)
        assert worst <= 0.5 * 3 + 1e-6  # 3 streams share the engine

    def test_adaptive_noop_under_light_load(self, paper_catalog):
        rng = random.Random(1)
        gens = paper_row_generators()
        from repro.sources import SteadyArrival

        streams = {
            name: generate_stream(150, SteadyArrival(30.0), gens[name], None, rng)
            for name in ("R", "S", "T")
        }
        config = PipelineConfig(
            strategy=ShedStrategy.DATA_TRIAGE,
            window=WindowSpec(width=1.0),
            queue_capacity=64,
            service_time=1 / 500.0,
            adaptive_staleness=2.0,
        )
        result = DataTriagePipeline(paper_catalog, QUERY, config).run(streams)
        assert result.total_dropped == 0
        assert run_rms(result) == pytest.approx(0.0)

    def test_a_quiet_gap_is_charged_in_full(self, paper_catalog):
        # Control interval 0.1 s.  Ten arrivals per stream by 0.05 s, one at
        # 0.1 s (first step: 10 arrivals in 0.1 s, EWMA 0.5 * 100 = 50/s)
        # and one at 0.95 s: the second step covers the eight intervals that
        # passed since, so it folds 1 arrival / 0.8 s, not 1 / 0.1 s.
        from repro.engine import StreamTuple
        from repro.obs import Observability

        rows = {"R": (1,), "S": (1, 1), "T": (1,)}
        stamps = [i * 0.005 for i in range(10)] + [0.1, 0.95]
        streams = {
            name: [StreamTuple(ts, row) for ts in stamps]
            for name, row in rows.items()
        }
        config = PipelineConfig(
            strategy=ShedStrategy.DATA_TRIAGE,
            window=WindowSpec(width=1.0),
            service_time=0.002,
            adaptive_staleness=0.4,
        )
        obs = Observability()
        DataTriagePipeline(paper_catalog, QUERY, config, obs=obs).run(streams)
        rate = obs.registry.get("controller_arrival_rate")
        for name in rows:
            assert rate.value(stream=name) == pytest.approx(0.5 * 1.25 + 0.5 * 50)
