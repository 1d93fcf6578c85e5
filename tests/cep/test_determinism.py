"""Byte-identical match sets through the service data plane.

The acceptance bar for the CEP tier: with a fixed seed, the emitted match
sequence is a pure function of the workload and the drain schedule — how
arrivals are chopped into ingest batches must not matter.
"""

from repro.cep import (
    DEMO_PATTERN,
    bursty_pattern_workload,
    canonical_match_bytes,
    demo_catalog,
)
from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.service.dataplane import StreamDataPlane
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

QUERY = (
    "SELECT A.k, COUNT(*) AS n FROM A, B, C "
    "WHERE A.k = B.k AND B.k = C.k GROUP BY A.k; "
    "WINDOW A ['2 seconds'], B ['2 seconds'], C ['2 seconds']"
)

EVENTS = bursty_pattern_workload(n_events=800, seed=0)


def run_plane(row_batch: int, drain_every: int = 100, events=EVENTS):
    catalog = demo_catalog()
    pattern = Binder(catalog).bind_pattern(parse_statement(DEMO_PATTERN))
    pipeline = DataTriagePipeline(catalog, QUERY, PipelineConfig())
    plane = StreamDataPlane(pipeline)
    plane.attach_pattern(pattern)
    for i in range(0, len(events), drain_every):
        chunk = events[i : i + drain_every]
        j = 0
        while j < len(chunk):
            stream = chunk[j][0]
            rows, stamps = [], []
            while (
                j < len(chunk)
                and chunk[j][0] == stream
                and len(rows) < row_batch
            ):
                rows.append(list(chunk[j][1].row))
                stamps.append(chunk[j][1].timestamp)
                j += 1
            plane.ingest(stream, rows, stamps, stamps[-1])
        plane.drain(None)
    return plane


class TestPlaneDeterminism:
    def test_ingest_batch_size_does_not_change_matches(self):
        one = canonical_match_bytes(run_plane(1).take_matches())
        fifty = canonical_match_bytes(run_plane(50).take_matches())
        assert one and one == fifty

    def test_repeat_runs_byte_identical(self):
        assert canonical_match_bytes(run_plane(10).take_matches()) == (
            canonical_match_bytes(run_plane(10).take_matches())
        )

    def test_reset_rebuilds_empty_engine(self):
        # Starting over is a fresh plane (there is no reset): nothing of a
        # used plane's engine carries across.
        engine = run_plane(10).pattern_engine
        assert engine.stats.events > 0
        fresh = run_plane(10, events=[])
        assert fresh.pattern_engine is not engine
        assert fresh.pattern_engine.stats.events == 0
        assert fresh.take_matches() == []

    def test_attach_rejects_foreign_streams(self):
        catalog = demo_catalog()
        pattern = Binder(catalog).bind_pattern(parse_statement(DEMO_PATTERN))
        pipeline = DataTriagePipeline(
            catalog,
            "SELECT A.k, COUNT(*) AS n FROM A GROUP BY A.k; "
            "WINDOW A ['2 seconds']",
            PipelineConfig(),
        )
        plane = StreamDataPlane(pipeline)
        try:
            plane.attach_pattern(pattern)
        except ValueError as exc:
            assert "not sources" in str(exc)
        else:  # pragma: no cover - failure path
            raise AssertionError("attach_pattern accepted foreign streams")
