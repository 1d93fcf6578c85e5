"""Tests for sliding (hopping) windows in the triage pipeline.

The paper's queries use TelegraphCQ sliding-window clauses; these tests pin
the overlapping-window semantics: a tuple contributes to every window whose
interval contains it, in the kept path, the dropped synopses, and the ideal
reference alike.
"""

import random

import pytest

from repro.core import DataTriagePipeline, PipelineConfig, ShedStrategy
from repro.engine import StreamTuple, WindowSpec
from repro.quality import run_rms
from repro.sources import SteadyArrival, generate_stream, paper_row_generators

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)

HOPPING = WindowSpec(width=2.0, slide=1.0)


def build_streams(rate, n, seed=13):
    rng = random.Random(seed)
    gens = paper_row_generators()
    return {
        name: generate_stream(n, SteadyArrival(rate), gens[name], None, rng)
        for name in ("R", "S", "T")
    }


def run(paper_catalog, strategy, streams, service_time=1 / 300.0):
    config = PipelineConfig(
        strategy=strategy,
        window=HOPPING,
        queue_capacity=30,
        service_time=service_time,
        seed=5,
    )
    return DataTriagePipeline(paper_catalog, QUERY, config).run(streams)


class TestSlidingWindows:
    def test_tuples_counted_in_overlapping_windows(self, paper_catalog):
        # One tuple per stream at t=1.5: windows [0,2) and [1,3) both hold it.
        streams = {
            "R": [StreamTuple(1.5, (4,))],
            "S": [StreamTuple(1.5, (4, 7))],
            "T": [StreamTuple(1.5, (7,))],
        }
        result = run(paper_catalog, ShedStrategy.DATA_TRIAGE, streams)
        ids = [w.window_id for w in result.windows]
        assert ids == [0, 1]
        for w in result.windows:
            assert w.merged == {(4,): {"n": 1}}
            assert w.arrived == {"R": 1, "S": 1, "T": 1}

    def test_underload_exact_per_overlapping_window(self, paper_catalog):
        streams = build_streams(rate=20, n=80)
        result = run(paper_catalog, ShedStrategy.DATA_TRIAGE, streams)
        assert result.total_dropped == 0
        assert run_rms(result) == pytest.approx(0.0)
        # Adjacent windows overlap, so each interior window sees ~2x the
        # per-second tuple count.
        interior = [w for w in result.windows[1:-2]]
        for w in interior:
            assert w.arrived["R"] == pytest.approx(40, abs=3)

    def test_overload_shadow_compensates_in_hopping_windows(self, paper_catalog):
        streams = build_streams(rate=400, n=400)
        triage = run(paper_catalog, ShedStrategy.DATA_TRIAGE, streams)
        drop = run(paper_catalog, ShedStrategy.DROP_ONLY, streams)
        assert triage.total_dropped > 0
        assert run_rms(triage) < run_rms(drop)

    def test_dropped_synopsis_spans_overlapping_windows(self, paper_catalog):
        """A dropped tuple must appear in BOTH windows' synopses."""
        from repro.core import TailDropPolicy, TriageQueue
        from repro.synopses import Dimension, SparseHistogramFactory

        q = TriageQueue(
            name="R",
            dimensions=[Dimension("R.a", 1, 100)],
            dim_positions=[0],
            capacity=1,
            policy=TailDropPolicy(),
            synopsis_factory=SparseHistogramFactory(bucket_width=1),
            window=HOPPING,
        )
        q.offer_bulk([StreamTuple(1.4, (9,))])
        q.offer_bulk([StreamTuple(1.5, (42,))])  # dropped; lives in windows 0 and 1
        for wid in (0, 1):
            ws = q.window_synopsis(wid)
            assert ws.dropped_count == 1
            assert ws.synopsis.group_counts("R.a") == {42: 1.0}
