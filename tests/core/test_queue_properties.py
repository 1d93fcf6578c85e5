"""Property-based tests for triage-queue accounting invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import RandomDropPolicy, TriageQueue
from repro.engine import StreamTuple, WindowSpec
from repro.synopses import Dimension, SparseHistogramFactory

# Operation stream: ("offer", value) at increasing timestamps, or "poll".
operations = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), st.integers(1, 100)),
        st.just("poll"),
    ),
    max_size=120,
)


def build_queue(capacity: int) -> TriageQueue:
    return TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 1, 100)],
        dim_positions=[0],
        capacity=capacity,
        policy=RandomDropPolicy(),
        synopsis_factory=SparseHistogramFactory(bucket_width=1),
        window=WindowSpec(width=1.0),
        seed=7,
    )


class TestQueueInvariants:
    @settings(max_examples=60)
    @given(operations, st.integers(1, 10))
    def test_conservation(self, ops, capacity):
        """offered == polled + dropped + still-buffered, always."""
        q = build_queue(capacity)
        t = 0.0
        for op in ops:
            if op == "poll":
                q.poll()
            else:
                t += 0.01
                q.offer_bulk([StreamTuple(t, (op[1],))])
            s = q.stats
            assert s.offered == s.polled + s.dropped + len(q)
            assert len(q) <= q.capacity

    @settings(max_examples=60)
    @given(operations, st.integers(1, 10))
    def test_synopsis_mass_equals_drop_count(self, ops, capacity):
        """Every dropped tuple lands in exactly one (tumbling) synopsis."""
        q = build_queue(capacity)
        t = 0.0
        for op in ops:
            if op == "poll":
                q.poll()
            else:
                t += 0.01
                q.offer_bulk([StreamTuple(t, (op[1],))])
        total_synopsized = sum(
            q.window_synopsis(w).synopsis.total()
            for w in q.windows_with_drops()
            if q.window_synopsis(w).synopsis is not None
        )
        assert total_synopsized == q.stats.dropped

    @settings(max_examples=40)
    @given(operations)
    def test_fifo_order_of_survivors(self, ops):
        """Polled tuples come out in arrival order (drops never reorder)."""
        q = build_queue(5)
        t = 0.0
        polled = []
        for op in ops:
            if op == "poll":
                out = q.poll()
                if out is not None:
                    polled.append(out.timestamp)
            else:
                t += 0.01
                q.offer_bulk([StreamTuple(t, (op[1],))])
        polled.extend(x.timestamp for x in q.drain())
        assert polled == sorted(polled)
