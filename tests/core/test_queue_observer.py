"""What an observer of a triage queue sees: ``QueueStats``, exactly once.

The queue pushes no per-tuple events; every number the ``triage_*_total``
metrics report is a ``QueueStats`` field, folded into a registry by delta
(:func:`repro.obs.metrics.fold_queue_stats`).  These tests pin the
accounting at the source — including the heap-drain path with head
evictions, which force lazy heap revalidation in the pipeline's
virtual-clock runner.
"""

import sys

from repro.core import HeadDropPolicy, TriageQueue
from repro.core.policies import RandomDropPolicy, TailDropPolicy
from repro.core.strategies import ShedStrategy
from repro.core.triage_core import TriageCore
from repro.engine import StreamTuple, WindowSpec
from repro.experiments import ExperimentParams, bursty_pipeline
from repro.obs import MetricsRegistry, Observability
from repro.obs.metrics import fold_queue_stats
from repro.synopses import Dimension, SparseHistogramFactory


def make_queue(capacity=3, policy=None, summarize=True):
    return TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 1, 100)],
        dim_positions=[0],
        capacity=capacity,
        policy=policy or TailDropPolicy(),
        synopsis_factory=SparseHistogramFactory(bucket_width=1),
        window=WindowSpec(width=1.0),
        summarize=summarize,
        seed=1,
    )


def t(ts, v):
    return StreamTuple(ts, (v,))


class TestUnitEvents:
    def test_exactly_once_per_tuple(self):
        q = make_queue(capacity=2)
        for i in range(5):
            q.offer_bulk([t(0.1 * i, i + 1)])
        while q.poll() is not None:
            pass
        stats = q.stats
        assert stats.offered == 5
        assert stats.dropped == 3
        assert stats.summarized == 3
        assert stats.polled == 2
        assert stats.offered == stats.polled + stats.dropped

    def test_conservation_holds_at_every_step(self):
        # Heap drain under HeadDropPolicy: evicted heads leave stale heap
        # entries behind; no interleaving of offers and budgeted drains may
        # count a tuple twice or lose one.
        q = make_queue(capacity=4, policy=HeadDropPolicy())
        core = TriageCore([q])

        def conserved():
            s = q.stats
            return s.offered == s.polled + s.dropped + len(q)

        for i in range(60):
            core.offer(0, [t(0.01 * i, i % 7 + 1)])
            core.flush()
            assert conserved()
            if i % 5 == 4:
                core.drain(budget=2)
                assert conserved()
        core.drain()
        assert conserved() and len(q) == 0
        assert q.stats.evict_buffered == q.stats.dropped > 0

    def test_policy_decision_events(self):
        q = make_queue(capacity=1, policy=HeadDropPolicy())
        q.offer_bulk([t(0.0, 1)])
        q.offer_bulk([t(0.1, 2)])  # head (1) evicted, incoming buffered
        assert (q.stats.evict_buffered, q.stats.drop_incoming) == (1, 0)
        q2 = make_queue(capacity=1, policy=TailDropPolicy())
        q2.offer_bulk([t(0.0, 1)])
        q2.offer_bulk([t(0.1, 2)])  # TailDrop sheds the incoming tuple
        assert (q2.stats.evict_buffered, q2.stats.drop_incoming) == (0, 1)

    def test_shed_bytes_carries_row_size(self):
        q = make_queue(capacity=1)
        q.offer_bulk([t(0.0, 1)])
        assert q.stats.shed_bytes == 0
        q.offer_bulk([t(0.1, 2)])
        assert q.stats.shed_bytes == sys.getsizeof((2,))

    def test_no_summarize_event_when_summarize_off(self):
        q = make_queue(capacity=1, summarize=False)
        q.offer_bulk([t(0.0, 1)])
        q.offer_bulk([t(0.1, 2)])
        assert q.stats.dropped == 1
        assert q.stats.summarized == 0


class TestFold:
    def test_fold_adds_deltas_once(self):
        reg = MetricsRegistry()
        seen: dict = {}
        q = make_queue(capacity=2, policy=HeadDropPolicy())
        for i in range(4):
            q.offer_bulk([t(0.1 * i, i + 1)])
        for _ in range(3):  # folding an unchanged snapshot adds nothing
            fold_queue_stats(reg, {"R": q.stats.snapshot()}, seen)
        assert reg.get("triage_offered_total").value(stream="R") == 4.0
        assert reg.get("triage_drops_total").value(stream="R") == 2.0
        q.offer_bulk([t(0.5, 9)])
        q.poll()
        fold_queue_stats(reg, {"R": q.stats.snapshot()}, seen)
        assert reg.get("triage_offered_total").value(stream="R") == 5.0
        assert reg.get("triage_polled_total").value(stream="R") == 1.0
        decisions = reg.get("triage_policy_decisions_total")
        assert decisions.value(stream="R", decision="evict_buffered") == 3.0
        assert decisions.value(stream="R", decision="drop_incoming") == 0.0
        assert reg.get("triage_shed_bytes_total").value(stream="R") == float(
            q.stats.shed_bytes
        )

    def test_idle_queue_mints_no_series(self):
        reg = MetricsRegistry()
        fold_queue_stats(reg, {"R": make_queue().stats.snapshot()}, {})
        assert reg.to_dict()["triage_offered_total"]["values"] == {}


class TestHeapDrainPath:
    """The pipeline's heap-driven drain revalidates queue heads lazily after
    drop-policy evictions; the folded counters must still count every tuple
    exactly once."""

    def run_with_policy(self, policy):
        obs = Observability()
        params = ExperimentParams(tuples_per_window=60, n_windows=3, policy=policy)
        pipeline, streams = bursty_pipeline(
            ShedStrategy.DATA_TRIAGE, 4500.0, params, 0, obs=obs
        )
        return obs, pipeline.run(streams)

    def test_head_evictions_keep_exactly_once_accounting(self):
        # HeadDropPolicy evicts buffered heads, invalidating heap entries
        # the drain loop already holds — the adversarial case for the
        # lazy-revalidation logic.
        obs, result = self.run_with_policy(HeadDropPolicy())
        assert result.total_dropped > 0, "peak rate should force evictions"
        reg = obs.registry
        offered = reg.get("triage_offered_total").total()
        polled = reg.get("triage_polled_total").total()
        dropped = reg.get("triage_drops_total").total()
        assert offered == result.total_arrived
        assert polled == result.total_kept
        assert dropped == result.total_dropped
        assert offered == polled + dropped
        decisions = reg.get("triage_policy_decisions_total")
        assert decisions.value(stream="R", decision="evict_buffered") > 0
        assert decisions.total() == dropped
        # The counters are the run's QueueStats, stream by stream.
        for stream, stats in result.queue_stats.items():
            assert reg.get("triage_offered_total").value(stream=stream) == stats.offered
            assert reg.get("triage_polled_total").value(stream=stream) == stats.polled
            assert reg.get("triage_drops_total").value(stream=stream) == stats.dropped

    def test_random_policy_accounting_matches(self):
        obs, result = self.run_with_policy(RandomDropPolicy())
        reg = obs.registry
        assert reg.get("triage_offered_total").total() == result.total_arrived
        assert (
            reg.get("triage_polled_total").total()
            + reg.get("triage_drops_total").total()
            == result.total_arrived
        )

    def test_results_identical_with_and_without_observer(self):
        params = ExperimentParams(
            tuples_per_window=60, n_windows=3, policy=HeadDropPolicy()
        )
        p1, s1 = bursty_pipeline(ShedStrategy.DATA_TRIAGE, 4500.0, params, 0)
        plain = p1.run(s1)
        obs, instrumented = self.run_with_policy(HeadDropPolicy())
        assert instrumented.total_dropped == plain.total_dropped
        assert instrumented.queue_stats == plain.queue_stats
        for a, b in zip(instrumented.windows, plain.windows):
            assert a.merged == b.merged
