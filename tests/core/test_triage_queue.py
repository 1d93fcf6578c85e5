"""Tests for the triage queue."""

import pytest

from repro.core import RandomDropPolicy, TailDropPolicy, TriageQueue
from repro.engine import StreamTuple, WindowSpec
from repro.synopses import Dimension, SparseHistogramFactory


def make_queue(capacity=3, summarize=True, policy=None, width=1):
    return TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 1, 100)],
        dim_positions=[0],
        capacity=capacity,
        policy=policy or TailDropPolicy(),
        synopsis_factory=SparseHistogramFactory(bucket_width=width),
        window=WindowSpec(width=1.0),
        summarize=summarize,
        seed=1,
    )


def t(ts, v):
    return StreamTuple(ts, (v,))


class TestBuffering:
    def test_fifo_below_capacity(self):
        q = make_queue()
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        assert len(q) == 2
        assert q.poll().row == (1,)
        assert q.poll().row == (2,)
        assert q.poll() is None

    def test_peek_timestamp(self):
        q = make_queue()
        assert q.peek_timestamp() is None
        q.offer_bulk([t(0.5, 1)])
        assert q.peek_timestamp() == 0.5

    def test_is_full(self):
        q = make_queue(capacity=2)
        q.offer_bulk([t(0.1, 1)])
        assert not q.is_full
        q.offer_bulk([t(0.2, 2)])
        assert q.is_full

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            make_queue(capacity=0)

    def test_dim_alignment_validation(self):
        with pytest.raises(ValueError, match="align"):
            TriageQueue(
                "R",
                [Dimension("a", 1, 10)],
                [0, 1],
                capacity=2,
                policy=TailDropPolicy(),
                synopsis_factory=SparseHistogramFactory(),
                window=WindowSpec(width=1.0),
            )


class TestOverflow:
    def test_tail_drop_sheds_incoming(self):
        q = make_queue(capacity=2)
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        q.offer_bulk([t(0.3, 3)])  # overflow: tail policy sheds the new tuple
        assert [q.poll().row for _ in range(2)] == [(1,), (2,)]
        assert q.stats.dropped == 1

    def test_random_policy_sheds_someone(self):
        q = make_queue(capacity=2, policy=RandomDropPolicy())
        for i in range(10):
            q.offer_bulk([t(i / 10, i + 1)])
        assert len(q) == 2
        assert q.stats.dropped == 8

    def test_dropped_tuples_synopsized_per_window(self):
        q = make_queue(capacity=1)
        q.offer_bulk([t(0.1, 5)])
        q.offer_bulk([t(0.2, 6)])  # dropped in window 0
        q.offer_bulk([t(1.5, 7)])  # buffered... full -> dropped in window 1
        ws0 = q.window_synopsis(0)
        ws1 = q.window_synopsis(1)
        assert ws0.dropped_count == 1
        assert ws0.synopsis.group_counts("R.a") == {6: 1.0}
        assert ws1.dropped_count == 1
        assert ws1.synopsis.group_counts("R.a") == {7: 1.0}

    def test_window_attribution_by_victim_timestamp(self):
        # Queue holds an old tuple; a new-window arrival evicts it (head
        # policy): the victim belongs to ITS OWN window's synopsis.
        from repro.core import HeadDropPolicy

        q = make_queue(capacity=1, policy=HeadDropPolicy())
        q.offer_bulk([t(0.5, 5)])
        q.offer_bulk([t(1.5, 6)])  # evicts the 0.5s tuple
        assert q.window_synopsis(0).dropped_count == 1
        assert q.window_synopsis(1).dropped_count == 0

    def test_earliest_latest_bounds(self):
        q = make_queue(capacity=1)
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.3, 2)])
        q.offer_bulk([t(0.7, 3)])
        ws = q.window_synopsis(0)
        assert ws.earliest == pytest.approx(0.3)
        assert ws.latest == pytest.approx(0.7)

    def test_drop_only_mode_skips_synopses(self):
        q = make_queue(capacity=1, summarize=False)
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        ws = q.window_synopsis(0)
        assert ws.dropped_count == 1
        assert ws.synopsis is None


class TestStatsAndLifecycle:
    def test_stats_counters(self):
        q = make_queue(capacity=2)
        for i in range(5):
            q.offer_bulk([t(i / 10, i)])
        q.poll()
        s = q.stats
        assert s.offered == 5
        assert s.dropped == 3
        assert s.polled == 1
        assert s.overflows == 3
        assert s.high_watermark == 2
        assert s.drop_fraction == pytest.approx(0.6)

    def test_drop_fraction_empty(self):
        assert make_queue().stats.drop_fraction == 0.0

    def test_release_window_forgets(self):
        q = make_queue(capacity=1)
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        ws = q.release_window(0)
        assert ws.dropped_count == 1
        assert q.window_synopsis(0).dropped_count == 0
        assert q.windows_with_drops() == []

    def test_windows_with_drops(self):
        q = make_queue(capacity=1)
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        q.offer_bulk([t(3.5, 3)])
        q.offer_bulk([t(3.6, 4)])
        assert q.windows_with_drops() == [0, 3]

    def test_drain(self):
        q = make_queue()
        q.offer_bulk([t(0.1, 1)])
        q.offer_bulk([t(0.2, 2)])
        rows = q.drain()
        assert [x.row for x in rows] == [(1,), (2,)]
        assert len(q) == 0

    def test_empty_window_synopsis(self):
        ws = make_queue().window_synopsis(42)
        assert ws.synopsis is None
        assert ws.dropped_count == 0
        assert ws.earliest is None and ws.latest is None
