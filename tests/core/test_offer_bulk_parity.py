"""One batch must equal one-tuple batches even when DROP_INCOMING fires mid-batch.

The reference is a loop of one-tuple ``offer_bulk`` calls: the queue has no
other intake.  ``test_batch_split_property.py`` generalizes this to any
split and to every built-in policy.
"""

import dataclasses
import sys

from repro.core.policies import DROP_INCOMING, DropPolicy
from repro.core.triage_queue import TriageQueue
from repro.engine.columns import ColumnBatch
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.synopses import Dimension, SparseHistogramFactory


class AlternatingPolicy(DropPolicy):
    """Deterministically alternates DROP_INCOMING with head eviction.

    Stateful on purpose: the decision sequence depends only on how many
    overflows happened, so the one-tuple loop and one batch face identical
    decision streams and any divergence in bookkeeping shows up.
    """

    def __init__(self):
        self.calls = 0

    def select_victim(self, buffer, incoming, context):
        self.calls += 1
        return DROP_INCOMING if self.calls % 2 else 0


def make_queue():
    return TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 0, 100)],
        dim_positions=[0],
        capacity=4,
        policy=AlternatingPolicy(),
        synopsis_factory=SparseHistogramFactory(bucket_width=5),
        window=WindowSpec(width=1.0),
        summarize=True,
        seed=7,
    )


def workload():
    # 3 windows, 30 tuples against capacity 4: plenty of mid-batch
    # overflows, with both decision branches taken repeatedly.
    return [StreamTuple(i * 0.1, (i % 20, i)) for i in range(30)]


class TestOfferBulkParity:
    def test_stats_and_buffer_match_offer_loop(self):
        loop_q = make_queue()
        bulk_q = make_queue()

        batch = workload()
        for tup in batch:
            loop_q.offer_bulk([tup])
        dropped = bulk_q.offer_bulk(batch)

        # The whole QueueStats, decision / summarize / byte counters included.
        assert loop_q.stats == bulk_q.stats
        assert dropped == loop_q.stats.dropped > 0
        # Both decision branches actually fired mid-batch.
        stats = bulk_q.stats
        assert stats.drop_incoming > 0 and stats.evict_buffered > 0
        assert stats.drop_incoming + stats.evict_buffered == stats.dropped
        assert stats.summarized == stats.dropped
        assert stats.shed_bytes == stats.dropped * sys.getsizeof(batch[0].row)
        assert loop_q.drain() == bulk_q.drain()

    def test_window_accounting_matches_offer_loop(self):
        loop_q = make_queue()
        bulk_q = make_queue()
        batch = workload()
        for tup in batch:
            loop_q.offer_bulk([tup])
        bulk_q.offer_bulk(batch)
        assert loop_q.windows_with_drops() == bulk_q.windows_with_drops()
        for wid in loop_q.windows_with_drops():
            loop_w = loop_q.window_synopsis(wid)
            bulk_w = bulk_q.window_synopsis(wid)
            assert loop_w.dropped_count == bulk_w.dropped_count
            assert (loop_w.earliest, loop_w.latest) == (
                bulk_w.earliest,
                bulk_w.latest,
            )
            assert loop_w.synopsis._buckets == bulk_w.synopsis._buckets

    def test_column_batch_input_matches_offer_loop(self):
        # A ColumnBatch must be consumed natively with the exact semantics
        # of offering its StreamTuples one by one.
        loop_q = make_queue()
        bulk_q = make_queue()
        tuples = workload()
        for tup in tuples:
            loop_q.offer_bulk([tup])
        dropped = bulk_q.offer_bulk(ColumnBatch.from_stream_tuples(tuples))
        assert dropped == loop_q.stats.dropped
        assert dataclasses.asdict(loop_q.stats) == dataclasses.asdict(
            bulk_q.stats
        )
        assert loop_q.windows_with_drops() == bulk_q.windows_with_drops()
        for wid in loop_q.windows_with_drops():
            assert (
                loop_q.window_synopsis(wid).synopsis._buckets
                == bulk_q.window_synopsis(wid).synopsis._buckets
            )
        assert loop_q.drain() == bulk_q.drain()

    def test_empty_column_batch_is_a_noop(self):
        q = make_queue()
        assert q.offer_bulk(ColumnBatch((), 0.0)) == 0
        assert q.stats.offered == 0


class TestBulkShedPricing:
    """Shed bytes are ``victims x sizeof(row)``: one sizeof per batch."""

    def test_bulk_prices_shed_rows_once_per_batch(self, monkeypatch):
        import repro.core.triage_queue as tq

        calls = {"n": 0}
        real = tq.sys.getsizeof

        def counting(obj):
            calls["n"] += 1
            return real(obj)

        monkeypatch.setattr(tq.sys, "getsizeof", counting)
        n = 4000
        q = make_queue()
        cols = ([i % 20 for i in range(n)], list(range(n)))
        q.offer_bulk(ColumnBatch(cols, [i * 0.001 for i in range(n)]))
        assert q.stats.dropped > 0
        assert calls["n"] == 1  # never once per victim
        assert q.stats.shed_bytes == q.stats.dropped * real((0, 0))
        # A batch that sheds nothing prices nothing.
        roomy = make_queue()
        roomy.offer_bulk(workload()[:3])
        assert calls["n"] == 1 and roomy.stats.shed_bytes == 0
