"""Window state built in bulk at close equals the per-tuple fold it replaced.

The triage core and the triage queue used to fold every polled and every
shed tuple into per-window state as it went (a ``Multiset.add`` and a
synopsis ``insert`` per tuple).  They now only append to per-window lists
and build the state once, when the window is looked at.  ``PerTupleFold``
below *is* the old fold, written out plainly; the property drives random
interleavings of one-tuple and bulk ``TriageCore.offer`` / drain / close
through the real queue and core and checks that what leaves them at close
is state-for-state what the fold holds — for every synopsis family and for
tumbling and hopping windows — and that a closed window leaves nothing
behind.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algebra.multiset import Multiset
from repro.core import RandomDropPolicy, TriageQueue
from repro.core.policies import DROP_INCOMING, DropPolicy
from repro.core.triage_core import TriageCore
from repro.core.strategies import ShedStrategy
from repro.engine import StreamTuple, WindowSpec
from repro.experiments import ExperimentParams, run_bursty_rate
from repro.rewrite.shadow import ShadowPlan
from repro.synopses import FACTORIES, Dimension, ReservoirSampleFactory

SOURCES = ("R", "S")
POSITIONS = (0, 2)  # the synopsized fields of a (a, payload, b) row
WINDOWS = {
    "tumbling": WindowSpec(width=1.0),
    "hopping": WindowSpec(width=2.0, slide=1.0),
}
COST = 0.05  # consumer seconds per polled tuple


def dimensions(source):
    return [Dimension(f"{source}.a", 1, 16), Dimension(f"{source}.b", 1, 16)]


def state(obj):
    """Everything a synopsis holds, as plain comparable data.

    Ordered where the object is ordered (dict insertion order, sample
    order) and including RNG state, so equal means the two synopses will
    answer — and keep evolving — identically.
    """
    if isinstance(obj, random.Random):
        return obj.getstate()
    if type(obj).__module__ == "numpy":
        return (str(obj.dtype), obj.shape, obj.tobytes())
    if isinstance(obj, dict):
        return [(state(k), state(v)) for k, v in obj.items()]
    if isinstance(obj, (list, tuple)):
        return [state(x) for x in obj]
    names = list(getattr(obj, "__dict__", ()))
    for cls in type(obj).__mro__:
        names.extend(getattr(cls, "__slots__", ()))
    if names:
        return (type(obj).__name__, [(n, state(getattr(obj, n))) for n in names])
    return obj


class RecordingFactory:
    """A synopsis factory that logs who asked for a synopsis, in order."""

    def __init__(self, factory):
        self.factory = factory
        self.creates = []

    def create(self, dims):
        self.creates.append(dims[0].name.split(".")[0])
        return self.factory.create(dims)


class Victims:
    """Stands in for the drop ledger: the queue reports each victim to it."""

    def __init__(self):
        self.log = []

    def record(self, kind, *, stream, timestamp, row, **_):
        self.log.append((stream, StreamTuple(timestamp, row)))


class PerTupleFold:
    """The replaced design: fold each tuple into its windows as it leaves."""

    def __init__(self, factory, window, summarize):
        self.factory = factory
        self.window = window
        self.summarize = summarize
        self.bags = {s: {} for s in SOURCES}
        self.kept_synopses = {s: {} for s in SOURCES}
        self.dropped_synopses = {s: {} for s in SOURCES}
        self.dropped_counts = {s: {} for s in SOURCES}
        self.bounds = {s: {} for s in SOURCES}
        self.completion = {}
        self.floor = None

    def _insert(self, synopses, source, wid, row):
        syn = synopses[source].get(wid)
        if syn is None:
            syn = synopses[source][wid] = self.factory.create(dimensions(source))
        syn.insert([row[p] for p in POSITIONS])

    def poll(self, source, tup, finish):
        for wid in self.window.window_ids(tup.timestamp):
            if self.floor is not None and wid <= self.floor:
                continue
            self.completion[wid] = finish
            self.bags[source].setdefault(wid, Multiset()).add(tup.row)
            if self.summarize:
                self._insert(self.kept_synopses, source, wid, tup.row)

    def shed(self, source, victim):
        ts = victim.timestamp
        for wid in self.window.window_ids(ts):
            counts = self.dropped_counts[source]
            counts[wid] = counts.get(wid, 0) + 1
            lo, hi = self.bounds[source].get(wid, (ts, ts))
            self.bounds[source][wid] = (min(lo, ts), max(hi, ts))
            if self.summarize:
                self._insert(self.dropped_synopses, source, wid, victim.row)

    def close(self, wids):
        for wid in wids:
            self.completion.pop(wid, None)
            if self.floor is None or wid > self.floor:
                self.floor = wid


class Harness:
    """The real queues and core beside the fold, fed the same operations."""

    def __init__(self, make_factory, window, summarize=True, capacity=4):
        self.window = window
        self.summarize = summarize
        self.factory = RecordingFactory(make_factory())
        self.fold = PerTupleFold(RecordingFactory(make_factory()), window, summarize)
        self.victims = Victims()
        self.queues = [
            TriageQueue(
                name=source,
                dimensions=dimensions(source),
                dim_positions=list(POSITIONS),
                capacity=capacity,
                policy=RandomDropPolicy(),
                synopsis_factory=self.factory,
                window=window,
                summarize=summarize,
                seed=11 + i,
                audit=self.victims,
            )
            for i, source in enumerate(SOURCES)
        ]
        self.core = TriageCore(
            self.queues, [COST] * len(SOURCES), synopses=summarize
        )
        self.now = 0.0
        self.seen = set()  # window ids of everything offered so far
        self.built = []  # every synopsis that left the queues or the core

    # -- operations ----------------------------------------------------
    def _tuples(self, arrivals):
        out = []
        for dt, a, b in arrivals:
            self.now += dt
            out.append(StreamTuple(self.now, (a, "x", b)))
            self.seen.update(self.window.window_ids(self.now))
        return out

    def _fold_victims(self):
        for source, victim in self.victims.log:
            self.fold.shed(source, victim)
        self.victims.log.clear()

    def offer(self, idx, arrival):
        self.core.offer(idx, self._tuples([arrival]))

    def offer_bulk(self, idx, arrivals):
        self.core.offer(idx, self._tuples(arrivals))

    def drain(self, budget):
        polled = []
        self.core.drain(budget=budget, polled=polled)
        # The drain flushed the staged arrivals before its first poll.
        self._fold_victims()
        for source, tup, finish in polled:
            self.fold.poll(source, tup, finish)
        assert self.core.completion == self.fold.completion

    def close(self, everything=False):
        """Report every window that has ended (or simply every window)."""
        floor = self.core.closed_floor
        wids = sorted(
            wid
            for wid in self.seen
            if (floor is None or wid > floor)
            and (everything or self.window.bounds(wid)[1] <= self.now)
        )
        if not wids:
            return
        self.core.flush()  # the releases below read the queues
        self._fold_victims()
        fold = self.fold
        shed = set()
        for queue in self.queues:
            s = queue.name
            for wid in wids:
                ws = queue.release_window(wid)
                assert ws.dropped_count == fold.dropped_counts[s].pop(wid, 0)
                assert (ws.earliest, ws.latest) == fold.bounds[s].pop(
                    wid, (None, None)
                )
                assert state(ws.synopsis) == state(
                    fold.dropped_synopses[s].pop(wid, None)
                )
                if ws.synopsis is not None:
                    shed.add(wid)
                    self.built.append(ws.synopsis)
                # Nothing of a released window stays in the queue.
                for held in (
                    queue._pending,
                    queue._window_synopses,
                    queue._window_counts,
                    queue._window_bounds,
                ):
                    assert wid not in held
        kept_rows, kept_synopses = self.core.take(wids, shed)
        assert (kept_synopses is not None) == self.summarize
        for s in SOURCES:
            for wid in wids:
                bag = fold.bags[s].pop(wid, Multiset())
                assert list(kept_rows[s][wid].items()) == list(bag.items())
                if not self.summarize:
                    continue
                expected = fold.kept_synopses[s].pop(wid, None)
                if wid in shed:
                    assert state(kept_synopses[s][wid]) == state(expected)
                    self.built.append(kept_synopses[s][wid])
                else:  # Q- is empty: nobody will read it, nobody built it
                    assert kept_synopses[s][wid] is None
        # ...and nothing of a taken window stays in the core.
        for held in self.core._runs + (self.core._synopses or []):
            assert not set(held) & set(wids)
        self.core.close(wids)
        fold.close(wids)
        assert self.core.completion == fold.completion
        assert self.core.closed_floor == fold.floor

    def finish(self):
        self.drain(None)
        self.close(everything=True)
        assert self.factory.creates == self.fold.factory.creates
        # Victims of a window evicted after its release are charged to it
        # again (as they always were); nothing else may be left anywhere.
        assert self.core._runs == [{} for _ in SOURCES]
        assert self.core.completion == {}
        for queue in self.queues:
            late = set(queue.windows_with_drops())
            assert all(wid <= self.core.closed_floor for wid in late)
            assert set(queue._window_synopses) | set(queue._pending) <= late


arrival = st.tuples(
    st.sampled_from([0.0, 0.05, 0.3, 0.8]), st.integers(1, 16), st.integers(1, 16)
)
source = st.integers(0, len(SOURCES) - 1)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("offer"), source, arrival),
        st.tuples(st.just("offer_bulk"), source, st.lists(arrival, max_size=12)),
        st.tuples(st.just("drain"), st.integers(0, 6)),
        st.tuples(st.just("close")),
    ),
    max_size=40,
)


def run(harness, ops):
    for op in ops:
        getattr(harness, op[0])(*op[1:])
    harness.finish()


@pytest.mark.parametrize("window", sorted(WINDOWS))
@pytest.mark.parametrize("family", sorted(FACTORIES))
@settings(max_examples=20, deadline=None)
@given(ops=operations)
def test_close_time_build_equals_per_tuple_fold(family, window, ops):
    run(Harness(FACTORIES[family], WINDOWS[window]), ops)


@settings(max_examples=40, deadline=None)
@given(ops=operations)
def test_drop_only_queues_build_counts_and_bounds_but_no_synopsis(ops):
    harness = Harness(FACTORIES["sparse_hist"], WINDOWS["hopping"], summarize=False)
    run(harness, ops)
    assert harness.factory.creates == []


def test_seeded_family_is_created_when_it_always_was():
    """Reservoir samples are seeded by create count, so *when* a synopsis
    is created is behaviour: creation stays at the first kept row / first
    victim of a (source, window), only the inserts moved to the close."""
    harness = Harness(
        lambda: ReservoirSampleFactory(capacity=3, seed=5),
        WINDOWS["hopping"],
        capacity=2,
    )
    rng = random.Random(3)
    for step in range(60):
        arrivals = [
            (rng.choice([0.0, 0.02, 0.1]), rng.randint(1, 16), rng.randint(1, 16))
            for _ in range(rng.randint(1, 5))
        ]
        idx = rng.randrange(len(SOURCES))
        if step % 2:
            harness.offer_bulk(idx, arrivals)
        else:
            harness.offer(idx, arrivals[0])
        harness.drain(rng.randint(0, 2))
        if step % 7 == 6:
            harness.close()
    creates = harness.factory.creates
    harness.finish()  # compares the create sequences and every final state
    # Creates interleave across both sources, and samples of both kinds
    # overflowed their capacity of 3, so seeds and insert order mattered.
    assert len(creates) > 12 and "".join(creates).count("RS") > 3
    overflowed = [syn for syn in harness.built if syn is not None and syn._n_seen > 3]
    assert len(overflowed) > 6


class CountingReader(DropPolicy):
    """Reads the synopsis on every decision (``reads_synopsis`` defaults
    True) and remembers what it saw."""

    def __init__(self):
        self.seen = []

    def select_victim(self, buffer, incoming, context):
        syn = context.synopsis
        self.seen.append(0.0 if syn is None else syn.total())
        return DROP_INCOMING if len(self.seen) % 2 else 0


@pytest.mark.parametrize("bulk", [False, True], ids=["offer", "offer_bulk"])
def test_a_policy_that_reads_the_synopsis_sees_every_earlier_victim(bulk):
    policy = CountingReader()
    queue = TriageQueue(
        name="R",
        dimensions=[Dimension("R.a", 1, 16)],
        dim_positions=[0],
        capacity=2,
        policy=policy,
        synopsis_factory=FACTORIES["sparse_hist"](),
        window=WindowSpec(width=100.0),
    )
    batch = [StreamTuple(float(i), (1 + i % 16,)) for i in range(10)]
    if bulk:
        queue.offer_bulk(batch)
    else:
        for tup in batch:
            queue.offer_bulk([tup])
    # Eight overflows; before the k-th decision the window's synopsis
    # already holds the k-1 earlier victims.
    assert policy.seen == [float(k) for k in range(8)]
    assert queue.window_synopsis(0).synopsis.total() == 8.0
    assert queue._pending == {}


def test_offline_run_skips_the_shadow_plan_for_unshed_windows_only(monkeypatch):
    """``Q-`` is empty for a window in which no stream dropped anything:
    the simulator runs the shadow plan once per window that shed, builds no
    kept synopsis for the others, and answers them exactly."""
    calls = []
    real = ShadowPlan.estimate_dropped

    def counting(self, kept, dropped):
        calls.append(any(syn is not None for syn in dropped.values()))
        return real(self, kept, dropped)

    monkeypatch.setattr(ShadowPlan, "estimate_dropped", counting)
    params = ExperimentParams(n_windows=6)
    result = run_bursty_rate(ShedStrategy.DATA_TRIAGE, 2000.0, params, seed=0)
    shed = [w for w in result.windows if sum(w.dropped.values())]
    unshed = [w for w in result.windows if not sum(w.dropped.values())]
    assert shed and unshed  # the bursty workload has both kinds
    assert calls == [True] * len(shed)
    assert all(w.lost_synopsis is None and w.estimated == {} for w in unshed)
    assert all(w.merged == w.exact for w in unshed)
