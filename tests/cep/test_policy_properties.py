"""Every class-index decision against a brute-force rescan of the buffer.

The reference scorer below is the formula the policy replaced: score every
buffered tuple, lowest index on ties, the incoming tuple only when strictly
worse.  A checking subclass compares it with the index's answer — victim
and ``last_score``, bit for bit — inside a real :class:`TriageQueue` driven
through random interleavings of every path that moves the buffer.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep import PatternEngine, PatternUtilityPolicy, demo_catalog
from repro.cep.pipeline import DEMO_PATTERN
from repro.cep.utility import UtilityModel
from repro.core.policies import DROP_INCOMING
from repro.core.triage_queue import TriageQueue
from repro.engine.columns import ColumnBatch
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.synopses import SparseHistogramFactory

PATTERN = Binder(demo_catalog()).bind_pattern(parse_statement(DEMO_PATTERN))


def reference(policy, buffer, incoming, queue_name, window):
    """(victim index, its score) by scoring every tuple from scratch."""
    engine = policy.engine
    if engine is None:
        return 0, None
    tag = policy.stream_tag
    occupancy = Counter(window.primary_window(t.timestamp) for t in buffer)

    def score(tup):
        if tag is None:
            stream, row = queue_name, tup.row
        else:
            stream, row = tup.row[tag], tup.row[:tag] + tup.row[tag + 1 :]
        s = 0.0
        if engine.utility is not None:
            s = engine.utility.probability(stream, tup.timestamp)
        if engine.protection_index().protects(stream, row):
            s += policy.protect_bonus
        n = occupancy.get(window.primary_window(tup.timestamp))
        return s + (0.01 if n is None else 0.01 / (1.0 + n))

    scores = [score(t) for t in buffer]
    incoming_score = score(incoming)
    if incoming_score < min(scores):
        return DROP_INCOMING, incoming_score
    return scores.index(min(scores)), min(scores)


class CheckedPolicy(PatternUtilityPolicy):
    decisions = 0

    def select_victim(self, buffer, incoming, context):
        victim, score = reference(
            self, buffer, incoming, context.queue_name, context.window
        )
        context.last_score = None
        got = super().select_victim(buffer, incoming, context)
        assert got == victim
        assert repr(context.last_score) == repr(score)
        self.decisions += 1
        return got


#: (stream, key, seconds since the previous event — 0.0 makes stamps collide).
#: B-heavy like the demo workload, so open runs on a key have Bs to protect.
event = st.tuples(
    st.sampled_from("ABBBC"), st.integers(1, 3), st.sampled_from([0.0, 0.0, 0.02, 0.1, 0.6])
)
offer = st.tuples(st.just("offer"), event)
operations = st.lists(
    st.one_of(
        offer,
        offer,
        offer,
        st.tuples(st.just("bulk"), st.lists(event, min_size=1, max_size=7), st.booleans()),
        st.tuples(st.just("poll"), st.integers(1, 3)),
        st.tuples(st.just("step"), event),
        st.tuples(st.just("step"), event),
        st.just(("bind",)),
        st.just(("drain",)),
    ),
    min_size=100,
    max_size=300,
)


class TestAgainstBruteForce:
    @settings(max_examples=60, deadline=None)
    @given(
        ops=operations,
        capacity=st.integers(1, 8),
        tagged=st.booleans(),
        slide=st.sampled_from([None, 0.5]),
        with_model=st.booleans(),
        bonus=st.sampled_from([100.0, 0.0, -1.0, 1e-20]),
        bound=st.booleans(),
    )
    def test_every_decision_matches_a_full_rescan(
        self, ops, capacity, tagged, slide, with_model, bonus, bound
    ):
        engine = PatternEngine(
            PATTERN, utility=UtilityModel(PATTERN.within, bins=4) if with_model else None
        )
        policy = CheckedPolicy(
            engine if bound else None,
            protect_bonus=bonus,
            stream_tag=0 if tagged else None,
        )
        window = WindowSpec(width=2.0, slide=slide)
        # One merged tagged queue (the CEP pipeline) or one queue per stream
        # sharing the policy and the window spec (the service).
        queues = {
            name: TriageQueue(
                name=name,
                dimensions=[],
                dim_positions=[],
                capacity=capacity,
                policy=policy,
                synopsis_factory=SparseHistogramFactory(),
                window=window,
                summarize=False,
            )
            for name in (["pattern"] if tagged else "ABC")
        }
        now = 0.0

        def arrive(stream, key, dt):
            nonlocal now
            now += dt
            queue = queues["pattern" if tagged else stream]
            return queue, StreamTuple(now, (stream, key) if tagged else (key,))

        for op in ops:
            if op[0] == "offer":
                queue, tup = arrive(*op[1])
                queue.offer_bulk([tup])
            elif op[0] == "bulk":
                # Untagged queues hold one stream: the batch takes its first.
                stream = op[1][0][0]
                batch = [
                    arrive(s if tagged else stream, key, dt)[1] for s, key, dt in op[1]
                ]
                queue = queues["pattern" if tagged else stream]
                queue.offer_bulk(ColumnBatch.from_stream_tuples(batch) if op[2] else batch)
            elif op[0] == "poll":
                for queue in queues.values():
                    for _ in range(op[1]):
                        tup = queue.poll()
                        if tup is None:
                            break
                        stream, row = (
                            (tup.row[0], tup.row[1:]) if tagged else (queue.name, tup.row)
                        )
                        engine.consume(stream, StreamTuple(tup.timestamp, row))
            elif op[0] == "step":
                stream, key, dt = op[1]
                now += dt
                engine.consume(stream, StreamTuple(now, (key,)))
            elif op[0] == "bind":
                policy.bind_engine(engine)
            else:
                for queue in queues.values():
                    queue.drain()
            for queue in queues.values():
                # Bounded: the index holds the buffer and nothing else.
                assert len(queue.policy_index) == len(queue)
                assert sum(queue.policy_index.occupancy.values()) == len(queue)
        stats = [q.stats for q in queues.values()]
        assert policy.decisions == sum(s.overflows for s in stats)
        if bound:
            assert policy.unbound == 0
