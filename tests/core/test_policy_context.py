"""The queue-driven policy index contract and make_policy resolution."""

from collections import Counter

import pytest

from repro.core.policies import (
    DROP_INCOMING,
    DropPolicy,
    FrequencyBiasedPolicy,
    HeadDropPolicy,
    POLICY_CHOICES,
    RandomDropPolicy,
    make_policy,
)
from repro.core.triage_queue import TriageQueue
from repro.engine.columns import ColumnBatch
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.synopses import SparseHistogramFactory


def make_queue(policy, capacity=3):
    return TriageQueue(
        name="R",
        dimensions=[],
        dim_positions=[],
        capacity=capacity,
        policy=policy,
        synopsis_factory=SparseHistogramFactory(),
        window=WindowSpec(width=1.0),
        summarize=False,
        seed=1,
    )


class RecordingIndex:
    """Logs what the queue reports; mirrors the buffer as a list."""

    def __init__(self, window):
        self.window = window
        self.log = []
        self.live = []

    def add(self, tup):
        self.log.append(("add", tup))
        self.live.append(tup)

    def remove(self, tup):
        self.log.append(("remove", tup))
        self.live.remove(tup)  # ValueError if it was never reported in

    def clear(self):
        self.log.append(("clear",))
        self.live.clear()

    def counts(self):
        return dict(Counter(self.window.primary_window(t.timestamp) for t in self.live))


class RecordingPolicy(DropPolicy):
    """Head drop that snapshots the per-window counts of its own index."""

    def __init__(self, victim=0):
        self.victim = victim
        self.seen = []

    def make_index(self, context):
        self.index = RecordingIndex(context.window)
        return self.index

    def select_victim(self, buffer, incoming, context):
        assert context.index is self.index
        assert self.index.live == list(buffer)
        self.seen.append(self.index.counts())
        return self.victim


class TestOccupancyCounts:
    def test_counts_track_buffered_windows(self):
        policy = RecordingPolicy()
        queue = make_queue(policy, capacity=3)
        # Windows [0,1) x2 and [1,2) x1, then overflow with a [2,3) arrival.
        for ts in (0.1, 0.5, 1.5):
            queue.offer_bulk([StreamTuple(ts, (1,))])
        queue.offer_bulk([StreamTuple(2.5, (2,))])
        assert policy.seen == [{0: 2, 1: 1}]

    def test_poll_and_drop_maintain_counts(self):
        policy = RecordingPolicy()
        queue = make_queue(policy, capacity=2)
        queue.offer_bulk([StreamTuple(0.1, (1,))])
        queue.offer_bulk([StreamTuple(0.2, (2,))])
        assert queue.poll() is not None  # removes one [0,1) tuple
        queue.offer_bulk([StreamTuple(1.1, (3,))])
        queue.offer_bulk([StreamTuple(1.2, (4,))])  # overflow: head (0.2) evicted
        queue.offer_bulk([StreamTuple(1.3, (5,))])  # overflow again
        assert policy.seen[0] == {0: 1, 1: 1}
        assert policy.seen[1] == {1: 2}

    def test_offer_bulk_keeps_counts_in_step(self):
        policy = RecordingPolicy()
        queue = make_queue(policy, capacity=2)
        queue.offer_bulk(
            [StreamTuple(0.1, (1,)), StreamTuple(0.2, (2,)), StreamTuple(1.1, (3,))]
        )
        assert policy.seen == [{0: 2}]

    def test_drain_clears_counts(self):
        policy = RecordingPolicy()
        queue = make_queue(policy, capacity=2)
        queue.offer_bulk([StreamTuple(0.1, (1,))])
        queue.drain()
        queue.offer_bulk([StreamTuple(0.2, (2,))])
        queue.offer_bulk([StreamTuple(0.3, (3,))])
        queue.offer_bulk([StreamTuple(0.4, (4,))])
        assert policy.seen == [{0: 2}]

    @pytest.mark.parametrize("columnar", [False, True])
    def test_every_entry_and_exit_reported_once(self, columnar):
        # The four reporting sites: offer_bulk (free prefix, overflow
        # tail, one-tuple batches included), poll, drain — and nothing at all
        # for a tuple that never entered the buffer (DROP_INCOMING).
        policy = RecordingPolicy()
        queue = make_queue(policy, capacity=2)
        t = [StreamTuple(0.1 * i, (i,)) for i in range(8)]
        queue.offer_bulk([t[0]])
        queue.offer_bulk([t[1]])
        queue.offer_bulk([t[2]])  # evicts t0
        policy.victim = DROP_INCOMING
        queue.offer_bulk([t[3]])  # never enters
        assert queue.poll() == t[1]
        policy.victim = 0
        bulk = t[4:7]  # t4 fills the free slot; t5 evicts t2; t6 evicts t4
        queue.offer_bulk(ColumnBatch.from_stream_tuples(bulk) if columnar else bulk)
        policy.victim = DROP_INCOMING
        queue.offer_bulk([t[7]])  # never enters
        assert queue.drain() == [t[5], t[6]]
        assert policy.index.log == [
            ("add", t[0]), ("add", t[1]),
            ("remove", t[0]), ("add", t[2]),
            ("remove", t[1]),
            ("add", t[4]),
            ("remove", t[2]), ("add", t[5]),
            ("remove", t[4]), ("add", t[6]),
            ("clear",),
        ]
        assert policy.index.live == []

    def test_default_policies_see_none(self):
        class Probe(DropPolicy):
            saw = "unset"

            def select_victim(self, buffer, incoming, context):
                Probe.saw = context.index
                return DROP_INCOMING

        queue = make_queue(Probe(), capacity=1)
        queue.offer_bulk([StreamTuple(0.1, (1,))])
        queue.offer_bulk([StreamTuple(0.2, (2,))])
        assert Probe.saw is None

    def test_existing_policies_do_not_request_counts(self):
        for policy in (RandomDropPolicy(), HeadDropPolicy()):
            assert make_queue(policy).policy_index is None


class TestMakePolicy:
    def test_all_cli_choices_resolve(self):
        for name in POLICY_CHOICES:
            assert isinstance(make_policy(name), DropPolicy)

    def test_frequency_alias(self):
        assert isinstance(make_policy("frequency"), FrequencyBiasedPolicy)

    def test_pattern_utility_spellings(self):
        from repro.cep import PatternUtilityPolicy

        assert isinstance(make_policy("pattern-utility"), PatternUtilityPolicy)
        assert isinstance(make_policy("pattern_utility"), PatternUtilityPolicy)

    def test_unknown_name_raises(self):
        with pytest.raises(ValueError, match="unknown drop policy"):
            make_policy("nope")
