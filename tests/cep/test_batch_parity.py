"""Fast-path equivalence: batch absorption, compiled predicates, WITHIN edge.

The engine's performance structures — compiled predicates, the stream/key
run index, heap expiry, and the vectorized batch pre-filter — are all
required to be *behaviour-preserving*: the canonical match byte stream (and
every lifecycle counter) must be identical between

* :meth:`PatternEngine.consume` one event at a time,
* :meth:`PatternEngine.advance_batch` over arbitrary batch splits, and
* ``compiled=False`` (the permanent interpreted fallback).

The fuzz here exercises Kleene greedy absorption, key constraints, local
(run-independent) predicates feeding the vectorized pre-filter, WITHIN
expiry, and mid-batch pSPICE evictions via a tiny ``max_runs``.
"""

import random

import pytest

from repro.cep.engine import PatternEngine, canonical_match_bytes
from repro.cep.utility import UtilityModel
from repro.engine.catalog import Catalog
from repro.engine.types import Column, ColumnType, Schema, StreamTuple
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

FULL = "PATTERN SEQ(A a, B+ b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 2"

#: Adds run-independent conjuncts (b.v > 4, c.v < 6) so the batch path's
#: vectorized local pre-filter actually has events to discard.
LOCAL = (
    "PATTERN SEQ(A a, B+ b, C c) "
    "WHERE a.k = b.k AND b.k = c.k AND b.v > 4 AND c.v < 6 WITHIN 1.5"
)


def wide_catalog() -> Catalog:
    catalog = Catalog()
    for name in ("A", "B", "C"):
        catalog.create_stream(
            name,
            Schema(
                [
                    Column("k", ColumnType.INTEGER),
                    Column("v", ColumnType.INTEGER),
                ]
            ),
        )
    return catalog


def bind(text: str):
    return Binder(wide_catalog()).bind_pattern(parse_statement(text))


def workload(seed: int, n: int = 1500):
    rng = random.Random(seed)
    ts = 0.0
    events = []
    for _ in range(n):
        ts += rng.random() * 0.02
        stream = rng.choice("ABBBBC")
        events.append(
            (stream, StreamTuple(ts, (rng.randrange(5), rng.randrange(10))))
        )
    return events


def stats_tuple(engine):
    s = engine.stats
    return (
        s.events,
        s.runs_started,
        s.runs_extended,
        s.matches,
        s.runs_expired,
        s.runs_shed,
    )


def run_rows(pattern, events, **kw):
    engine = PatternEngine(pattern, utility=UtilityModel(pattern.within), **kw)
    out = []
    for stream, tup in events:
        out.extend(engine.consume(stream, tup))
    return out, engine


def run_batches(pattern, events, rng, **kw):
    engine = PatternEngine(pattern, utility=UtilityModel(pattern.within), **kw)
    out = []
    i = 0
    while i < len(events):
        j = i + rng.randrange(1, 64)
        out.extend(engine.advance_batch(events[i:j]))
        i = j
    return out, engine


class TestWithinBoundary:
    """Events exactly at the WITHIN horizon: ``now - start <= within`` keeps."""

    def test_event_exactly_at_horizon_still_completes(self):
        pattern = bind(FULL)
        engine = PatternEngine(pattern)
        matches = []
        for stream, ts, row in [
            ("A", 0.0, (7, 0)),
            ("B", 1.0, (7, 0)),
            ("C", 2.0, (7, 0)),  # age exactly == within: run must survive
        ]:
            matches.extend(engine.consume(stream, StreamTuple(ts, row)))
        assert len(matches) == 1
        assert engine.stats.runs_expired == 0

    def test_event_just_past_horizon_expires_the_run(self):
        pattern = bind(FULL)
        engine = PatternEngine(pattern)
        matches = []
        for stream, ts, row in [
            ("A", 0.0, (7, 0)),
            ("B", 1.0, (7, 0)),
            ("C", 2.0000001, (7, 0)),
        ]:
            matches.extend(engine.consume(stream, StreamTuple(ts, row)))
        assert matches == []
        assert engine.stats.runs_expired == 1

    def test_batch_path_same_boundary(self):
        pattern = bind(FULL)
        at = PatternEngine(pattern).advance_batch(
            [
                ("A", StreamTuple(0.0, (7, 0))),
                ("B", StreamTuple(1.0, (7, 0))),
                ("C", StreamTuple(2.0, (7, 0))),
            ]
        )
        past = PatternEngine(pattern).advance_batch(
            [
                ("A", StreamTuple(0.0, (7, 0))),
                ("B", StreamTuple(1.0, (7, 0))),
                ("C", StreamTuple(2.0000001, (7, 0))),
            ]
        )
        assert len(at) == 1 and past == []

    def test_trailing_inert_events_still_drive_expiry(self):
        # With LOCAL's pre-filter, B(v<=4) events are discarded in bulk —
        # but their timestamps must still expire overdue runs.
        pattern = bind(LOCAL)
        engine = PatternEngine(pattern)
        engine.advance_batch(
            [
                ("A", StreamTuple(0.0, (1, 0))),
                ("B", StreamTuple(10.0, (1, 0))),  # inert (v=0 fails b.v > 4)
            ]
        )
        assert engine.stats.runs_expired == 1
        assert engine.active_runs == 0


class TestRowBatchParity:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("text", [FULL, LOCAL])
    def test_batch_splits_are_byte_identical(self, text, seed):
        pattern = bind(text)
        events = workload(seed)
        rows, re_ = run_rows(pattern, events, max_runs=16)
        batches, be = run_batches(
            pattern, events, random.Random(seed * 31 + 1), max_runs=16
        )
        assert canonical_match_bytes(batches) == canonical_match_bytes(rows)
        assert stats_tuple(be) == stats_tuple(re_)
        assert be.active_runs == re_.active_runs

    @pytest.mark.parametrize("seed", range(3))
    def test_interpreted_fallback_is_byte_identical(self, seed):
        pattern = bind(LOCAL)
        events = workload(seed)
        compiled, ce = run_rows(pattern, events, max_runs=16, compiled=True)
        interp, ie = run_rows(pattern, events, max_runs=16, compiled=False)
        assert canonical_match_bytes(interp) == canonical_match_bytes(compiled)
        assert stats_tuple(ie) == stats_tuple(ce)
        # The fallback really is interpreted: no pre-filter kernels exist.
        assert ie._kernels_rows == {}

    def test_mid_batch_evictions_match_row_path(self):
        # max_runs=2 forces pSPICE evictions inside nearly every batch.
        pattern = bind(FULL)
        events = workload(11, n=600)
        rows, re_ = run_rows(pattern, events, max_runs=2)
        batches, be = run_batches(pattern, events, random.Random(7), max_runs=2)
        assert re_.stats.runs_shed > 0
        assert canonical_match_bytes(batches) == canonical_match_bytes(rows)
        assert stats_tuple(be) == stats_tuple(re_)

    def test_utility_model_state_matches_after_bulk_observe(self):
        pattern = bind(FULL)
        events = workload(5, n=400)
        _, re_ = run_rows(pattern, events)
        _, be = run_batches(pattern, events, random.Random(2))
        assert be.utility.snapshot() == re_.utility.snapshot()

    def test_kleene_greedy_absorption_across_batch_boundary(self):
        pattern = bind(FULL)
        events = [
            ("A", StreamTuple(0.1, (7, 0))),
            ("B", StreamTuple(0.2, (7, 0))),
            ("B", StreamTuple(0.3, (7, 0))),
            ("B", StreamTuple(0.4, (7, 0))),
            ("C", StreamTuple(0.5, (7, 0))),
        ]
        rows, _ = run_rows(pattern, events)
        engine = PatternEngine(pattern, utility=UtilityModel(pattern.within))
        split = engine.advance_batch(events[:3]) + engine.advance_batch(events[3:])
        assert canonical_match_bytes(split) == canonical_match_bytes(rows)
        assert rows[0].row[4] == 3  # Kleene count: all three B's absorbed
