"""PatternUtilityPolicy victim selection against live engine state.

Every decision here is taken by a real :class:`TriageQueue`: the policy
ranks from the per-queue index the queue keeps in step with its buffer, so
a hand-built context has nothing to rank from.
"""

from repro.cep import PatternEngine, PatternUtilityPolicy, demo_catalog
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.sql.binder import Binder
from repro.sql.parser import parse_statement
from repro.synopses import SparseHistogramFactory

FULL = "PATTERN SEQ(A a, B+ b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 2"
#: One spec for every queue, as a pipeline's per-stream queues share theirs.
WINDOW = WindowSpec(width=2.0)


def make_engine(events=()):
    pattern = Binder(demo_catalog()).bind_pattern(parse_statement(FULL))
    engine = PatternEngine(pattern)
    for stream, ts, key in events:
        engine.consume(stream, StreamTuple(ts, (key,)))
    return engine


def make_queue(policy, name, capacity):
    """A per-stream queue the way ``DataTriagePipeline.build_queue`` makes one."""
    return TriageQueue(
        name=name,
        dimensions=[],
        dim_positions=[],
        capacity=capacity,
        policy=policy,
        synopsis_factory=SparseHistogramFactory(),
        window=WINDOW,
        summarize=False,
    )


def shed(policy, buffer, incoming, name="pattern"):
    """Fill a queue with ``buffer``, offer ``incoming``; the tuple shed."""
    queue = make_queue(policy, name, capacity=len(buffer))
    for tup in buffer:
        queue.offer_bulk([tup])
    queue.offer_bulk([incoming])
    kept = queue.drain()
    (victim,) = [t for t in [*buffer, incoming] if t not in kept]
    return victim


class TestSelectVictim:
    def test_no_engine_degrades_to_head_drop(self):
        policy = PatternUtilityPolicy()
        buffer = [StreamTuple(0.1, (1,)), StreamTuple(0.2, (2,))]
        assert shed(policy, buffer, StreamTuple(0.3, (3,))) == buffer[0]
        # Pattern-blind decisions are counted, never silent.
        assert policy.unbound == 1

    def test_protected_tuple_survives_tagged_queue(self):
        # Engine has an open run on key 7: among tagged rows, the B that
        # would extend it must outrank the Bs that would not.
        engine = make_engine([("A", 0.1, 7)])
        policy = PatternUtilityPolicy(engine, stream_tag=0)
        buffer = [
            StreamTuple(0.2, ("B", 7)),
            StreamTuple(0.3, ("B", 8)),
        ]
        # Shed an unprotected B, never the k=7 one.
        assert shed(policy, buffer, StreamTuple(0.4, ("B", 9))) == buffer[1]
        assert policy.unbound == 0

    def test_incoming_protected_evicts_buffered(self):
        engine = make_engine([("A", 0.1, 7)])
        policy = PatternUtilityPolicy(engine, stream_tag=0)
        buffer = [StreamTuple(0.2, ("B", 8))]
        assert shed(policy, buffer, StreamTuple(0.3, ("B", 7))) == buffer[0]

    def test_untagged_queue_uses_queue_name_as_stream(self):
        engine = make_engine([("A", 0.1, 7)])
        policy = PatternUtilityPolicy(engine)
        buffer = [StreamTuple(0.2, (8,)), StreamTuple(0.25, (7,))]
        assert shed(policy, buffer, StreamTuple(0.3, (9,)), name="B") == buffer[0]

    def test_deterministic_tie_breaks_lowest_index(self):
        # Equal scores across two classes (streams B and C, no model).
        policy = PatternUtilityPolicy(make_engine(), stream_tag=0)
        buffer = [StreamTuple(0.1, ("B", 1)), StreamTuple(0.2, ("C", 2))]
        incoming = StreamTuple(0.3, ("B", 3))
        assert {shed(policy, buffer, incoming) for _ in range(5)} == {buffer[0]}
        assert shed(policy, buffer[::-1], incoming) == buffer[1]

    def test_drop_incoming_only_when_strictly_worse(self):
        # All-equal scores keep the incoming tuple (evict-buffered bias).
        policy = PatternUtilityPolicy(make_engine(), stream_tag=0)
        buffer = [StreamTuple(0.1, ("B", 1))]
        incoming = StreamTuple(0.2, ("B", 2))
        assert shed(policy, buffer, incoming) != incoming

    def test_occupancy_breaks_ties_toward_crowded_windows(self):
        policy = PatternUtilityPolicy(make_engine(), stream_tag=0)
        # Window [2,4) holds one tuple, [0,2) five: the crowded window's
        # members carry the lower occupancy bonus, its oldest goes first.
        buffer = [StreamTuple(2.5, ("B", 0))] + [
            StreamTuple(0.5 + 0.1 * i, ("B", i)) for i in range(1, 6)
        ]
        assert shed(policy, buffer, StreamTuple(2.6, ("B", 9))) == buffer[1]

    def test_one_index_per_queue(self):
        # Replaces test_wants_window_counts_flag: the policy opts in by
        # building an index, one per queue, not by a class flag.
        policy = PatternUtilityPolicy(make_engine())
        a, b = make_queue(policy, "A", 2), make_queue(policy, "B", 2)
        assert a.policy_index is not None and a.policy_index is not b.policy_index

    def test_shared_policy_does_not_share_scores_across_queues(self):
        # TriageServer shares one policy across its per-stream queues, and
        # batches stamped with one ``now`` make equal-valued tuples on
        # different streams routine.  Queue A scoring (0.5, (7,)) as an
        # unprotected A must not leak onto queue B's equal-valued tuple —
        # the B that extends the open run on key 7.
        policy = PatternUtilityPolicy(make_engine([("A", 0.1, 7)]))
        a, b = make_queue(policy, "A", 1), make_queue(policy, "B", 2)
        a.offer_bulk([StreamTuple(0.5, (7,))])
        a.offer_bulk([StreamTuple(0.6, (1,))])  # overflow: A scores (0.5, (7,))
        b.offer_bulk([StreamTuple(0.5, (7,))])
        b.offer_bulk([StreamTuple(0.6, (8,))])
        b.offer_bulk([StreamTuple(0.7, (9,))])
        assert StreamTuple(0.5, (7,)) in b.drain()

    def test_late_bind_refiles_admitted_tuples(self):
        # The server builds its queues before attach_pattern binds the
        # engine: tuples admitted while unbound must be ranked by the
        # engine's model once it arrives.
        policy = PatternUtilityPolicy(stream_tag=0)
        queue = make_queue(policy, "pattern", 2)
        queue.offer_bulk([StreamTuple(0.2, ("B", 7))])
        queue.offer_bulk([StreamTuple(0.3, ("B", 8))])
        policy.bind_engine(make_engine([("A", 0.1, 7)]))
        queue.offer_bulk([StreamTuple(0.4, ("B", 9))])
        assert StreamTuple(0.2, ("B", 7)) in queue.drain()
        assert policy.unbound == 0
