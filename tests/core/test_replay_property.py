"""``TriageCore.replay`` is the per-arrival loop, fused.

The replay admits an arrival that finds room straight into its queue, sends
only overflow tails through ``offer_bulk`` and folds kept rows once per
window set.  That is sound only if none of it shows: for any timeline
(cross-source timestamp ties, unsorted input lists), any capacities (cut by
a controller at control points), any of the random, head, tail and
synergistic policies or one that keeps a buffer index, tumbling or hopping
windows, a timed core or an untimed one paced by a service time, observed
or not, it must leave exactly what the reference loop in
``tests/oracle/replay.py`` leaves — queue stats, buffers, released dropped
synopses, the shared ledger, kept runs and synopses, completion times,
``busy_until``, the order synopses were created in, and the flush
hand-backs, marks and polls (clock values excepted).  This extends
``test_batch_split_property.py``'s guarantee to the fused loop.
"""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.policies import (
    DROP_INCOMING,
    DropPolicy,
    HeadDropPolicy,
    RandomDropPolicy,
    SynergisticPolicy,
    TailDropPolicy,
)
from repro.core.triage_core import TriageCore, merge_arrivals, window_runs
from repro.core.triage_queue import TriageQueue
from repro.engine.types import StreamTuple
from repro.engine.window import WindowSpec
from repro.obs.audit import DropLedger
from repro.synopses import Dimension, SparseHistogramFactory
from tests.oracle.replay import (
    reference_merge_arrivals,
    reference_replay,
    reference_window_runs,
)


class _ValueIndex:
    """How many buffered tuples hold each value."""

    def __init__(self) -> None:
        self.values: Counter = Counter()

    def add(self, tup) -> None:
        self.values[tup.row[0]] += 1

    def remove(self, tup) -> None:
        self.values[tup.row[0]] -= 1
        if not self.values[tup.row[0]]:
            del self.values[tup.row[0]]

    def clear(self) -> None:
        self.values.clear()


class LargestValueDrop(DropPolicy):
    """Sheds a tuple of the largest value, ranked from its buffer index."""

    reads_synopsis = False

    def make_index(self, context):
        return _ValueIndex()

    def select_victim(self, buffer, incoming, context) -> int:
        values = context.index.values
        top = max(values) if values else None
        if top is None or incoming.row[0] >= top:
            return DROP_INCOMING
        return next(i for i, tup in enumerate(buffer) if tup.row[0] == top)


POLICIES = {
    "random": RandomDropPolicy,
    "head": HeadDropPolicy,
    "tail": TailDropPolicy,
    "synergistic": SynergisticPolicy,
    "indexed": LargestValueDrop,
}
WINDOWS = {
    "tumbling": WindowSpec(width=1.0),
    "hopping": WindowSpec(width=1.0, slide=0.5),
}


class LoggingFactory(SparseHistogramFactory):
    """Records every create, in order: seeded factories number them."""

    def __init__(self) -> None:
        super().__init__(bucket_width=2)
        self.log: list[tuple[str, ...]] = []

    def create(self, dimensions):
        self.log.append(tuple(d.name for d in dimensions))
        return super().create(dimensions)


def build(names, policy, window, capacities, costs, control_caps):
    """Two calls give two identical, independent set-ups."""
    factory = LoggingFactory()
    ledger = DropLedger(capacity=4096, exemplars=2, seed=3)
    queues = [
        TriageQueue(
            name=name,
            dimensions=[Dimension(f"{name}.a", 0, 15)],
            dim_positions=[0],
            capacity=capacities[i],
            policy=POLICIES[policy](),
            synopsis_factory=factory,
            window=window,
            seed=5 + i,
            audit=ledger,
        )
        for i, name in enumerate(names)
    ]
    core = TriageCore(
        queues,
        None if costs is None else [costs[i] for i in range(len(names))],
        synopses=True,
    )
    steps: list = []
    control = None
    if control_caps:
        # Each control step reads the queues (as a load controller does)
        # and then sets every capacity from the drawn schedule.
        def step(intervals):
            k = len(steps)
            steps.append(
                (intervals, [q.stats.snapshot() for q in queues], [len(q) for q in queues])
            )
            for i, q in enumerate(queues):
                q.capacity = control_caps[(k + i) % len(control_caps)]

        control = (0.4, step)
    return core, control, factory, ledger, steps


def outcome(core, factory, ledger, steps, hand_backs):
    queues = core.queues
    stats = [q.stats.snapshot() for q in queues]
    buffers = [list(q._buffer) for q in queues]
    runs = [list(runs.items()) for runs in core._runs]
    synopsis_order = [list(syn) for syn in core._synopses]
    completion = dict(core.completion)
    busy_until = core.busy_until
    kept, kept_syn = core.take()
    released = [
        [
            (w, ws.dropped_count, ws.earliest, ws.latest,
             None if ws.synopsis is None else ws.synopsis._buckets)
            for w in q.windows_with_drops()
            for ws in [q.release_window(w)]
        ]
        for q in queues
    ]
    return {
        "stats": stats,
        "buffers": buffers,
        "runs": runs,
        "synopsis_order": synopsis_order,
        "completion": completion,
        "busy_until": busy_until,
        "kept": kept,
        "kept_synopses": {
            s: {w: None if syn is None else syn._buckets for w, syn in per.items()}
            for s, per in kept_syn.items()
        },
        "released": released,
        "creates": factory.log,
        "ledger": (dict(ledger.counts), list(ledger._ring)),
        "steps": steps,
        "hand_backs": hand_backs,
    }


def run(replay, names, streams, policy, window, capacities, costs, caps, observed,
        service_time=None):
    """``costs=None`` builds an untimed core, replayed at ``service_time``."""
    core, control, factory, ledger, steps = build(
        names, policy, window, capacities, costs, caps
    )
    arrivals = merge_arrivals(streams, names)
    hand_backs = None
    if observed:
        offered, marks, polled = [], [], []
        tail_clock = replay(
            core,
            arrivals,
            service_time=service_time,
            control=control,
            offered=offered,
            marks=marks,
            polled=polled,
            now=lambda: 0.0,
        )
        if costs is None:
            # An untimed core has no finish times: the replay hands back
            # its arrival clock, ``drain`` the untouched ``busy_until``.
            polled = [(s, tup) for s, tup, _ in polled]
        hand_backs = (
            [(s, depth, list(batch), shed) for s, depth, batch, shed in offered],
            [(n, until, upto) for _, _, n, until, upto in marks],
            polled,
            tail_clock is not None,
        )
    else:
        assert replay(
            core, arrivals, service_time=service_time, control=control
        ) is None
    return outcome(core, factory, ledger, steps, hand_backs)


stamp = st.sampled_from([0.0, 0.1, 0.25, 0.5, 0.5, 0.9, 1.0, 1.3, 1.5, 2.2, 2.5])
stream = st.lists(st.tuples(stamp, st.integers(0, 15)), max_size=14)


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("policy", sorted(POLICIES))
@settings(max_examples=40, deadline=None)
@given(
    names=st.permutations(["R", "S", "T"]).flatmap(
        lambda p: st.integers(1, 3).map(lambda k: p[:k])
    ),
    data=st.data(),
)
def test_replay_equals_the_per_arrival_loop(policy, window, names, data):
    streams = {}
    for name in names:
        rows = data.draw(stream)
        if not data.draw(st.booleans()):
            rows = sorted(rows, key=lambda r: r[0])  # most inputs are sorted
        streams[name] = [StreamTuple(ts, (v,)) for ts, v in rows]
    capacities = data.draw(st.lists(st.integers(1, 5), min_size=3, max_size=3))
    cost = st.sampled_from([0.05, 0.2, 0.3])
    costs = data.draw(st.lists(cost, min_size=3, max_size=3) | st.none())
    # An untimed core is paced by a service time instead.
    service_time = None if costs is not None else data.draw(cost)
    caps = data.draw(st.lists(st.integers(1, 4), max_size=3))
    observed = data.draw(st.booleans())
    spec = WINDOWS[window]
    args = (names, streams, policy, spec, capacities, costs, caps, observed,
            service_time)
    assert run(TriageCore.replay, *args) == run(reference_replay, *args)


@pytest.mark.parametrize("window", sorted(WINDOWS))
@settings(max_examples=60, deadline=None)
@given(
    streams=st.fixed_dictionaries(
        {name: stream for name in ("S", "R", "T")}
    ).map(
        lambda d: {
            name: [StreamTuple(ts, (v,)) for ts, v in rows]
            for name, rows in d.items()
        }
    )
)
def test_merge_and_window_runs_equal_the_per_arrival_walk(window, streams):
    sources = ["S", "R", "T"]
    spec = WINDOWS[window]
    events = merge_arrivals(streams, sources)
    assert events == reference_merge_arrivals(streams, sources)
    got = window_runs(streams, sources, spec)
    want = reference_window_runs(events, sources, spec)
    assert got == want
    # Key order is behaviour too: the runs are in first-arrival order.
    assert list(got[2]) == list(want[2])
    assert {s: list(a) for s, a in got[1].items()} == {
        s: list(a) for s, a in want[1].items()
    }
