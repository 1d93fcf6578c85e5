"""Any split of an arrival sequence into ``offer_bulk`` batches is equivalent.

``TriageQueue.offer_bulk`` is the queue's only intake, and the triage core
stages every driver's arrivals and flushes them as one batch per source just
before a poll or a read.  That is sound only if the batch boundaries are
invisible: for any arrival sequence with polls, capacity changes and window
releases at fixed points, every way of cutting the arrivals between those
points into batches must leave the same buffer, the same ``QueueStats``, the
same released window synopses (count, bounds, buckets) and the same audit
ledger as offering one tuple at a time.  The capacity changes include cuts
below the current depth, after which every arrival sheds at a depth above
capacity.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    HeadDropPolicy,
    RandomDropPolicy,
    SynergisticPolicy,
    TailDropPolicy,
)
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.obs.audit import DropLedger
from repro.synopses import Dimension, SparseHistogramFactory

POLICIES = {
    "random": RandomDropPolicy,
    "head": HeadDropPolicy,
    "tail": TailDropPolicy,
    "synergistic": SynergisticPolicy,
}
WINDOWS = {
    "tumbling": WindowSpec(width=1.0),
    "hopping": WindowSpec(width=1.0, slide=0.5),
}


def make_queue(policy, window):
    ledger = DropLedger(capacity=4096, exemplars=2, seed=3)
    queue = TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 0, 15)],
        dim_positions=[0],
        capacity=4,
        policy=POLICIES[policy](),
        synopsis_factory=SparseHistogramFactory(bucket_width=2),
        window=window,
        seed=5,
        audit=ledger,
    )
    return queue, ledger


def released(ws):
    synopsis = ws.synopsis._buckets if ws.synopsis is not None else None
    return ws.window_id, ws.dropped_count, ws.earliest, ws.latest, synopsis


def play(policy, window, ops, cut_before):
    """Run ``ops``; arrivals go out in batches cut where ``cut_before`` says.

    ``cut_before[i]`` starts a new batch at the i-th arrival; a poll, a
    capacity change or a release always ends the open batch first.
    """
    queue, ledger = make_queue(policy, window)
    batch: list[StreamTuple] = []
    out: list = []
    now = 0.0
    seen = 0

    def flush():
        if batch:
            queue.offer_bulk(list(batch))
            batch.clear()

    for op in ops:
        if op[0] == "arrive":
            if cut_before[seen]:
                flush()
            now += op[1]
            seen += 1
            batch.append(StreamTuple(now, (op[2], seen)))
            continue
        flush()
        if op[0] == "poll":
            out.append(("poll", [queue.poll() for _ in range(op[1])]))
        elif op[0] == "capacity":
            queue.capacity = op[1]
        else:  # release every window that has ended
            for wid in queue.windows_with_drops():
                if window.bounds(wid)[1] <= now:
                    out.append(("release", released(queue.release_window(wid))))
    flush()
    for wid in queue.windows_with_drops():
        out.append(("release", released(queue.release_window(wid))))
    return {
        "out": out,
        "buffer": list(queue._buffer),
        "stats": queue.stats,
        "ledger": (ledger.counts, ledger.ring),
    }


arrival = st.tuples(
    st.just("arrive"), st.sampled_from([0.0, 0.05, 0.2, 0.7]), st.integers(0, 15)
)
control = st.one_of(
    st.tuples(st.just("poll"), st.integers(0, 3)),
    st.tuples(st.just("capacity"), st.integers(1, 6)),
    st.tuples(st.just("release")),
)
# Runs of up to a dozen arrivals between control points, so long batches
# that overflow many times over are common.
operations = st.lists(
    st.tuples(st.lists(arrival, max_size=12), control), max_size=8
).map(lambda runs: [op for arrivals, ctl in runs for op in arrivals + [ctl]])


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(ops=operations, data=st.data())
def test_any_batch_split_equals_one_tuple_batches(policy, window, ops, data):
    n = sum(op[0] == "arrive" for op in ops)
    cuts = data.draw(
        st.lists(st.sampled_from([True, False, False]), min_size=n, max_size=n)
    )
    spec = WINDOWS[window]
    reference = play(policy, spec, ops, [True] * n)
    assert play(policy, spec, ops, cuts) == reference


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_capacity_cut_below_depth_sheds_one_per_arrival(policy):
    # Six buffered, capacity cut to two, then five arrivals: the depth stays
    # at six and every arrival sheds, whether offered as one batch or not.
    ops = [("capacity", 8)] + [("arrive", 0.01, v) for v in range(6)]
    ops += [("capacity", 2)] + [("arrive", 0.01, v) for v in range(5)]
    spec = WINDOWS["tumbling"]
    whole = play(policy, spec, ops, [True] * 6 + [True] + [False] * 4)
    assert whole == play(policy, spec, ops, [True] * 11)
    assert len(whole["buffer"]) == 6
    assert whole["stats"].dropped == whole["stats"].overflows == 5
