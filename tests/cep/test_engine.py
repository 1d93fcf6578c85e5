"""Pattern-engine semantics: Kleene, WITHIN, run shedding, protection."""

import pytest

from repro.cep import PatternEngine, UtilityModel, demo_catalog, match_identity
from repro.engine.types import StreamTuple
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement

FULL = "PATTERN SEQ(A a, B+ b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 2"


def bind(text: str):
    return Binder(demo_catalog()).bind_pattern(parse_statement(text))


def feed(engine, events):
    matches = []
    for stream, ts, key in events:
        matches.extend(engine.consume(stream, StreamTuple(ts, (key,))))
    return matches


class TestMatching:
    def test_full_sequence_with_kleene(self):
        engine = PatternEngine(bind(FULL))
        matches = feed(
            engine,
            [("A", 0.1, 7), ("B", 0.2, 7), ("B", 0.3, 7), ("C", 0.4, 7)],
        )
        assert len(matches) == 1
        # (match_start, match_end, a_k, b_count, b_k, c_k)
        assert matches[0].row == (0.1, 0.4, 7, 2, 7, 7)

    def test_key_mismatch_blocks_match(self):
        engine = PatternEngine(bind(FULL))
        matches = feed(
            engine, [("A", 0.1, 7), ("B", 0.2, 7), ("C", 0.3, 8)]
        )
        assert matches == []

    def test_within_expiry(self):
        engine = PatternEngine(bind(FULL))
        matches = feed(
            engine,
            [("A", 0.0, 7), ("B", 0.5, 7), ("C", 3.0, 7)],
        )
        assert matches == []
        assert engine.stats.runs_expired >= 1

    def test_skip_till_next_match_overlap(self):
        # Two open A's with the same key: one closing C completes both runs.
        engine = PatternEngine(bind(FULL))
        matches = feed(
            engine,
            [("A", 0.1, 7), ("A", 0.15, 7), ("B", 0.2, 7), ("C", 0.3, 7)],
        )
        assert len(matches) == 2
        assert sorted(m.row[0] for m in matches) == [0.1, 0.15]

    def test_trailing_kleene_emits_at_first_absorb(self):
        engine = PatternEngine(
            bind("PATTERN SEQ(A a, B+ b) WHERE a.k = b.k WITHIN 2")
        )
        matches = feed(engine, [("A", 0.1, 7), ("B", 0.2, 7), ("B", 0.3, 7)])
        assert len(matches) == 1
        assert matches[0].row[:2] == (0.1, 0.2)

    def test_single_step_pattern(self):
        engine = PatternEngine(bind("PATTERN SEQ(A a) WITHIN 1"))
        matches = feed(engine, [("A", 0.1, 1), ("A", 0.2, 2)])
        assert [m.row for m in matches] == [(0.1, 0.1, 1), (0.2, 0.2, 2)]

    def test_ignores_unrelated_stream_events(self):
        engine = PatternEngine(bind(FULL))
        matches = feed(
            engine,
            [("A", 0.1, 7), ("B", 0.2, 9), ("B", 0.25, 7), ("C", 0.3, 7)],
        )
        assert len(matches) == 1
        assert matches[0].row[3] == 1  # only the k=7 B absorbed

    def test_match_identity_robust_to_kleene_count(self):
        pattern = bind(FULL)
        one = PatternEngine(pattern)
        two = PatternEngine(pattern)
        (m1,) = feed(one, [("A", 0.1, 7), ("B", 0.2, 7), ("C", 0.4, 7)])
        (m2,) = feed(
            two, [("A", 0.1, 7), ("B", 0.2, 7), ("B", 0.3, 7), ("C", 0.4, 7)]
        )
        assert m1.row != m2.row
        assert match_identity(pattern, m1.row) == match_identity(pattern, m2.row)


class TestMemoryBound:
    def test_max_runs_sheds_lowest_utility(self):
        engine = PatternEngine(bind(FULL), max_runs=2)
        feed(engine, [("A", 0.0, 1), ("A", 0.1, 2), ("A", 0.2, 3)])
        assert engine.active_runs == 2
        assert engine.stats.runs_shed == 1
        # Equal progress: the oldest run (least remaining lifetime) goes.
        assert [rid for rid, _, _ in engine.run_snapshot()] == [1, 2]

    def test_max_runs_validation(self):
        with pytest.raises(ValueError):
            PatternEngine(bind(FULL), max_runs=0)


class TestProtection:
    def test_keyed_protection_from_equijoin(self):
        engine = PatternEngine(bind(FULL))
        feed(engine, [("A", 0.1, 7)])
        protection = engine.protection_index()
        assert protection.protects("B", (7,))
        assert not protection.protects("B", (8,))
        assert not protection.protects("C", (7,))  # C not reachable yet

    def test_open_kleene_protects_next_step_too(self):
        engine = PatternEngine(bind(FULL))
        feed(engine, [("A", 0.1, 7), ("B", 0.2, 7)])
        protection = engine.protection_index()
        assert protection.protects("B", (7,))  # more Kleene absorbs
        assert protection.protects("C", (7,))  # or advance to the close
        assert not protection.protects("C", (8,))

    def test_unkeyed_step_protects_whole_stream(self):
        engine = PatternEngine(bind("PATTERN SEQ(A a, C c) WITHIN 2"))
        feed(engine, [("A", 0.1, 7)])
        protection = engine.protection_index()
        assert protection.protects("C", (123,))

    def test_index_is_a_live_view(self):
        # The protection index is maintained incrementally on run
        # transitions: one stable object whose answers track engine state,
        # never a rebuilt snapshot.
        engine = PatternEngine(bind(FULL))
        feed(engine, [("A", 0.1, 7)])
        first = engine.protection_index()
        assert engine.protection_index() is first
        assert not first.protects("B", (8,))
        feed(engine, [("A", 0.2, 8)])
        assert engine.protection_index() is first
        assert first.protects("B", (8,))  # same object, updated answer


class TestObserverAndUtility:
    def test_observer_event_counts_match_stats(self):
        # What an observer of the engine sees is its EngineStats, folded by
        # delta: folding after every event or once at the end lands the
        # same ``cep_*_total`` values, and a repeat fold adds nothing.
        from repro.obs.metrics import MetricsRegistry, fold_engine_stats

        def counters(registry):
            return {
                name: inst["values"].get("", 0.0)
                for name, inst in registry.to_dict().items()
            }

        events = [("A", 0.0, 7), ("B", 0.1, 7), ("C", 0.2, 7), ("A", 5.0, 9)]
        stepwise, seen = MetricsRegistry(), {}
        engine = PatternEngine(bind(FULL))
        for event in events:
            feed(engine, [event])
            fold_engine_stats(stepwise, engine.stats, seen)
        fold_engine_stats(stepwise, engine.stats, seen)
        at_end = MetricsRegistry()
        fold_engine_stats(at_end, engine.stats, {})
        stats = engine.stats
        assert counters(stepwise) == counters(at_end) == {
            "cep_runs_started_total": stats.runs_started,
            "cep_runs_extended_total": stats.runs_extended,
            "cep_matches_total": stats.matches,
            "cep_runs_expired_total": stats.runs_expired,
            "cep_runs_shed_total": stats.runs_shed,
        }
        assert stats.matches == 1 and stats.runs_started == 2

    def test_utility_model_learns_contribution(self):
        model = UtilityModel(within=2.0, bins=4)
        engine = PatternEngine(bind(FULL), utility=model)
        feed(engine, [("A", 0.1, 7), ("B", 0.2, 7), ("C", 0.4, 7)])
        # Every A seen so far contributed; with Laplace smoothing the
        # probability is strictly above the uninformed prior of 0.5.
        assert model.probability("A", 0.1) > 0.5

    def test_utility_prior_is_half(self):
        model = UtilityModel(within=2.0, bins=4)
        assert model.probability("A", 0.3) == pytest.approx(0.5)


class TestCompileFallbacks:
    """No silent fallback: a predicate or pre-filter the compiler refuses
    still runs (interpreted, identical matches) and is counted — on the
    engine and in the global registry, the way the SPJ executor counts
    ``plan_compile_fallback_total``."""

    LOCAL = (
        "PATTERN SEQ(A a, B+ b, C c) "
        "WHERE a.k = b.k AND b.k = c.k AND a.k < 50 WITHIN 2"
    )
    EVENTS = [
        ("A", 0.1, 7), ("B", 0.2, 7), ("A", 0.25, 70), ("C", 0.4, 7),
        ("A", 0.5, 9), ("B", 0.6, 9), ("C", 0.7, 9),
    ]

    @staticmethod
    def _refuse(*args, **kwargs):
        from repro.perf.vector import CompileError

        raise CompileError("refused by the test")

    def _counter(self, name, labels=()):
        from repro.obs.metrics import global_registry

        return global_registry().counter(name, "", labels)

    def test_refused_predicate_is_interpreted_and_counted(self, monkeypatch):
        reference = PatternEngine(bind(self.LOCAL))
        assert reference.predicates_interpreted == 0
        counter = self._counter("cep_predicate_fallback_total", ("reason",))
        before = counter.value(reason="CompileError")
        monkeypatch.setattr("repro.cep.engine.compile_scalar", self._refuse)
        engine = PatternEngine(bind(self.LOCAL))
        n_predicates = sum(len(st.predicates) for st in engine._steps)
        assert engine.predicates_interpreted == n_predicates > 0
        assert counter.value(reason="CompileError") == before + n_predicates
        assert feed(engine, self.EVENTS) == feed(reference, self.EVENTS)
        assert engine.stats == reference.stats
        # Interpreting by choice is not a fallback.
        assert PatternEngine(
            bind(self.LOCAL), compiled=False
        ).predicates_interpreted == 0
        assert counter.value(reason="CompileError") == before + n_predicates

    def test_refused_prefilter_is_skipped_and_counted(self, monkeypatch):
        reference = PatternEngine(bind(self.LOCAL))
        assert reference.prefilters_skipped == 0
        assert reference._kernels_rows  # the pre-filter is live here
        counter = self._counter("cep_prefilter_skipped_total")
        before = counter.value()
        monkeypatch.setattr("repro.cep.engine.compile_filter_vector", self._refuse)
        engine = PatternEngine(bind(self.LOCAL))
        assert engine.prefilters_skipped == 1  # only step ``a`` has a local
        assert not engine._kernels_rows
        assert counter.value() == before + 1
        batch = [(s, StreamTuple(ts, (k,))) for s, ts, k in self.EVENTS]
        assert engine.advance_batch(batch) == reference.advance_batch(batch)
        assert engine.stats == reference.stats
