"""Pattern pipeline: determinism, equal-drop policy comparison, recall."""

import pytest

from repro.cep import (
    DEMO_PATTERN,
    PatternConfig,
    PatternPipeline,
    PatternUtilityPolicy,
    bursty_pattern_workload,
    canonical_match_bytes,
    demo_catalog,
    merge_streams,
)
from repro.core.policies import make_policy
from repro.engine.types import StreamTuple

EVENTS = bursty_pattern_workload(n_events=2000, seed=0)


def run(policy_name: str, seed: int = 0):
    config = PatternConfig(policy=make_policy(policy_name), seed=seed)
    return PatternPipeline(demo_catalog(), DEMO_PATTERN, config).run(EVENTS)


class TestDeterminism:
    def test_repeated_runs_byte_identical(self):
        pipeline = PatternPipeline(
            demo_catalog(),
            DEMO_PATTERN,
            PatternConfig(policy=PatternUtilityPolicy()),
        )
        first = pipeline.run(EVENTS)
        second = pipeline.run(EVENTS)
        assert canonical_match_bytes(first.matches) == canonical_match_bytes(
            second.matches
        )
        assert first.dropped == second.dropped

    def test_fresh_pipeline_instances_agree(self):
        assert canonical_match_bytes(run("random").matches) == (
            canonical_match_bytes(run("random").matches)
        )

    def test_different_seed_changes_random_outcome(self):
        a = run("random", seed=0)
        b = run("random", seed=1)
        assert canonical_match_bytes(a.matches) != canonical_match_bytes(
            b.matches
        )


class TestEqualDropComparison:
    def test_drop_count_is_policy_independent(self):
        # The merged queue's length trajectory does not depend on victim
        # choice, so every policy sheds exactly the same number of tuples.
        drops = {
            name: run(name).dropped
            for name in ("random", "head", "tail", "pattern-utility")
        }
        assert len(set(drops.values())) == 1, drops

    def test_pattern_utility_beats_random_recall(self):
        random_result = run("random")
        utility_result = run("pattern-utility")
        assert utility_result.drop_fraction == random_result.drop_fraction
        assert utility_result.recall > random_result.recall

    def test_overload_actually_sheds(self):
        assert run("random").drop_fraction > 0.05

    def test_ideal_recall_is_one(self):
        result = PatternPipeline(
            demo_catalog(),
            DEMO_PATTERN,
            PatternConfig(queue_capacity=1 << 20),
        ).run(EVENTS)
        assert result.dropped == 0
        assert result.recall == pytest.approx(1.0)


class TestMergeStreams:
    def test_orders_by_timestamp_then_rank(self):
        streams = {
            "B": [StreamTuple(1.0, (2,))],
            "A": [StreamTuple(1.0, (1,)), StreamTuple(2.0, (3,))],
        }
        merged = merge_streams(streams, ("A", "B"))
        assert [(s, t.row) for s, t in merged] == [
            ("A", (1,)),
            ("B", (2,)),
            ("A", (3,)),
        ]


class TestShedWindowsAreReleased:
    """Nothing reads the merged queue's dropped-tuple windows, so a run
    forgets each one once its clock has passed the window's end."""

    def test_held_victims_stay_within_the_live_windows(self, monkeypatch):
        events = bursty_pattern_workload(n_events=20000, seed=3)
        queues, held = [], []
        build_queue = PatternPipeline.build_queue

        def spy(self):
            queue = build_queue(self)
            offer_bulk = queue.offer_bulk

            def checked(batch):
                # Every tail arrived no later than the step's clock, and
                # every window the clock has passed was released before it.
                clock = max(t.timestamp for t in batch)
                for wid in queue._pending:
                    assert queue.window.bounds(wid)[1] > clock, (wid, clock)
                held.append(sum(map(len, queue._pending.values())))
                return offer_bulk(batch)

            queue.offer_bulk = checked
            queues.append(queue)
            return queue

        monkeypatch.setattr(PatternPipeline, "build_queue", spy)
        for policy in ("random", "pattern-utility"):
            held.clear()
            result = PatternPipeline(
                demo_catalog(), DEMO_PATTERN, PatternConfig(policy=make_policy(policy))
            ).run(events)
            # Kept for the whole run, they would number result.dropped.
            assert max(held) < result.dropped / 4, (max(held), result.dropped)
        for queue in queues:
            assert queue._pending == {}
            assert queue.windows_with_drops() == []
