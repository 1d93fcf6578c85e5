"""Integration: every synopsis family drives the full pipeline end-to-end.

The Data Triage architecture must be synopsis-agnostic (paper §8.1 plans to
swap synopsis types); this sweep runs the complete overloaded Figure 8
scenario once per family and checks the architecture-level guarantees hold
regardless of estimator.
"""

import random

import pytest

from repro.core import DataTriagePipeline, PipelineConfig, ShedStrategy
from repro.engine import WindowSpec
from repro.quality import run_metric, run_rms, total_relative_error
from repro.sources import SteadyArrival, generate_stream, paper_row_generators
from repro.synopses import (
    CountMinFactory,
    EndBiasedFactory,
    MHistFactory,
    ReservoirSampleFactory,
    SparseHistogramFactory,
    WaveletFactory,
)

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)

FAMILIES = [
    pytest.param(SparseHistogramFactory(bucket_width=5), id="sparse_hist"),
    pytest.param(MHistFactory(max_buckets=40, grid=5), id="mhist_aligned"),
    pytest.param(ReservoirSampleFactory(capacity=150), id="reservoir"),
    pytest.param(CountMinFactory(width=128), id="cms"),
    pytest.param(WaveletFactory(budget=64), id="wavelet"),
    pytest.param(EndBiasedFactory(k=12), id="end_biased"),
]


def build_streams(seed=7):
    rng = random.Random(seed)
    gens = paper_row_generators()
    return {
        name: generate_stream(400, SteadyArrival(400.0), gens[name], None, rng)
        for name in ("R", "S", "T")
    }


def run_with(paper_catalog, factory, strategy=ShedStrategy.DATA_TRIAGE):
    config = PipelineConfig(
        strategy=strategy,
        window=WindowSpec(width=0.375),  # 150 tuples/window at 400/s
        queue_capacity=40,
        service_time=1 / 400.0,  # 1200/s arrivals vs 400/s: ~2/3 shed
        synopsis_factory=factory,
        seed=1,
    )
    return DataTriagePipeline(paper_catalog, QUERY, config).run(build_streams())


@pytest.mark.parametrize("factory", FAMILIES)
class TestFamilyEndToEnd:
    def test_run_completes_and_sheds(self, paper_catalog, factory):
        result = run_with(paper_catalog, factory)
        assert result.total_dropped > 0
        assert result.windows

    def test_beats_or_matches_drop_only(self, paper_catalog, factory):
        triage = run_rms(run_with(paper_catalog, factory))
        drop = run_rms(
            run_with(paper_catalog, factory, strategy=ShedStrategy.DROP_ONLY)
        )
        # Architecture guarantee: adding estimates on top of the identical
        # kept results must not make things meaningfully worse — and for
        # the data-aware families it must strictly help.
        assert triage <= drop * 1.2

    def test_mass_conservation_of_estimates(self, paper_catalog, factory):
        """The composite answer tracks total result mass far better than
        the kept-only answer does — the estimates conserve the dropped
        mass rather than inventing or losing it."""
        result = run_with(paper_catalog, factory)
        merged_err = run_metric(result, total_relative_error)
        kept_only = sum(
            total_relative_error(w.ideal, w.exact, "n") for w in result.windows
        ) / len(result.windows)
        assert merged_err < kept_only
