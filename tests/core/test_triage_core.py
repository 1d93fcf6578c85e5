"""Tests for the shared triage engine loop (:mod:`repro.core.triage_core`)."""

import math
import random

from repro.core import (
    DataTriagePipeline,
    HeadDropPolicy,
    PipelineConfig,
    ShedStrategy,
    TailDropPolicy,
    TriageQueue,
)
from repro.core.triage_core import TriageCore, merge_arrivals, window_runs
from repro.engine import StreamTuple, WindowSpec
from repro.obs import Observability
from repro.obs.metrics import Histogram
from repro.sources import SteadyArrival, generate_stream, paper_row_generators
from repro.synopses import Dimension, SparseHistogramFactory


def make_queue(name, capacity=10, policy=None, window=None):
    return TriageQueue(
        name=name,
        dimensions=[Dimension(f"{name}.a", 1, 100)],
        dim_positions=[0],
        capacity=capacity,
        policy=policy or TailDropPolicy(),
        synopsis_factory=SparseHistogramFactory(bucket_width=1),
        window=window or WindowSpec(width=1.0),
        seed=1,
    )


QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)


def t(ts, v):
    return StreamTuple(ts, (v,))


def feed(core, idx, *tuples):
    for tup in tuples:
        core.offer(idx, [tup])
    core.flush()


def order(polled):
    return [(source, tup.row[0]) for source, tup, _ in polled]


class TestOrder:
    def test_oldest_head_first_across_sources(self):
        core = TriageCore([make_queue("R"), make_queue("S")])
        feed(core, 0, t(0.2, 1), t(0.5, 2))
        feed(core, 1, t(0.1, 3), t(0.4, 4))
        polled = []
        assert core.drain(polled=polled) == 4
        assert order(polled) == [("S", 3), ("R", 1), ("S", 4), ("R", 2)]

    def test_equal_timestamps_go_to_the_first_source(self):
        core = TriageCore([make_queue("R"), make_queue("S")])
        feed(core, 1, t(0.3, 9))
        feed(core, 0, t(0.3, 1))
        polled = []
        core.drain(polled=polled)
        assert order(polled) == [("R", 1), ("S", 9)]

    def test_same_timestamp_successor_is_re_registered(self):
        # _sync()'s change test cannot see a successor with the head's own
        # timestamp; the drain must re-push it itself.
        core = TriageCore([make_queue("R"), make_queue("S")])
        feed(core, 0, t(0.3, 1), t(0.3, 2), t(0.3, 3))
        feed(core, 1, t(0.4, 9))
        polled = []
        assert core.drain(polled=polled) == 4
        assert order(polled) == [("R", 1), ("R", 2), ("R", 3), ("S", 9)]

    def test_handback_carries_finish_times_in_drain_order(self):
        core = TriageCore([make_queue("R"), make_queue("S")], [0.5, 0.25])
        feed(core, 0, t(0.0, 1), t(2.0, 2))
        feed(core, 1, t(0.1, 3))
        polled = []
        core.drain(polled=polled)
        assert [(s, tup.row[0], finish) for s, tup, finish in polled] == [
            ("R", 1, 0.5),  # starts at its own timestamp
            ("S", 3, 0.75),  # waits for the consumer
            ("R", 2, 2.5),  # idle gap: starts at its timestamp again
        ]


class TestStaleEntries:
    def test_head_eviction_is_skipped_not_consumed(self):
        r = make_queue("R", capacity=2, policy=HeadDropPolicy())
        core = TriageCore([r, make_queue("S")])
        feed(core, 0, t(0.1, 1), t(0.3, 2))
        feed(core, 1, t(0.2, 9))
        # Overflow evicts R's head (0.1): its heap entry is now stale and
        # R's live head (0.3) sorts *after* S's.
        feed(core, 0, t(0.5, 3))
        assert r.stats.dropped == 1
        polled = []
        assert core.drain(polled=polled) == 3
        assert order(polled) == [("S", 9), ("R", 2), ("R", 3)]

    def test_eviction_without_sync_is_caught_on_pop(self):
        # An offer behind the core's back (only tests do that): the
        # live-head check still skips the evicted head.
        r = make_queue("R", capacity=2, policy=HeadDropPolicy())
        core = TriageCore([r, make_queue("S")])
        feed(core, 0, t(0.1, 1), t(0.3, 2))
        feed(core, 1, t(0.2, 9))
        r.offer_bulk([t(0.5, 3)])  # evicts 0.1; no sync
        polled = []
        core.drain(polled=polled)
        assert order(polled) == [("S", 9), ("R", 2), ("R", 3)]

    def test_offer_that_changes_no_head_adds_no_entry(self):
        core = TriageCore([make_queue("R")])
        feed(core, 0, t(0.1, 1))
        entries = len(core._heap)
        feed(core, 0, t(0.2, 2), t(0.3, 3))
        assert len(core._heap) == entries
        assert core.drain() == 3

    def test_staged_offers_reach_the_queue_at_the_next_flush(self):
        core = TriageCore([make_queue("R"), make_queue("S")])
        core.offer(1, [t(0.4, 9)])
        core.offer(1, [t(0.5, 8)])
        assert len(core.queues[1]) == 0  # staged, not offered
        offered = []
        core.flush(offered)
        assert [(s, depth, len(batch)) for s, depth, batch in offered] == [
            ("S", 0, 2)  # one batch per source
        ]
        assert len(core.queues[1]) == 2
        assert core.drain() == 2


class TestIntake:
    def test_a_busy_consumer_leaves_the_queues_untouched(self):
        core = TriageCore([make_queue("R", capacity=2), make_queue("S")], [1.0, 1.0])
        feed(core, 0, t(0.0, 1))
        assert core.drain(until=0.5) == 1  # busy until 1.0
        core.offer(0, [t(0.6, 2), t(0.7, 3), t(0.8, 4)])  # one too many for R
        core.offer(1, [t(0.9, 5)])
        before = [(q.stats.snapshot(), len(q)) for q in core.queues]
        assert core.drain(until=0.95) == 0
        assert [(q.stats.snapshot(), len(q)) for q in core.queues] == before
        assert before == [((1, 0, 1, 0, 1, 0, 0, 0, 0), 0), ((0,) * 9, 0)]

    def test_the_next_drain_that_can_start_sees_every_staged_arrival(self):
        core = TriageCore([make_queue("R", capacity=2), make_queue("S")], [1.0, 1.0])
        feed(core, 0, t(0.0, 1))
        core.drain(until=0.5)
        core.offer(0, [t(0.6, 2)])
        core.offer(1, [t(0.9, 5)])
        core.offer(0, [t(0.7, 3), t(0.8, 4)])
        assert core.drain(until=0.95) == 0
        polled = []
        assert core.drain(until=1.5, polled=polled) == 1
        r, s = core.queues
        # All four arrivals reached their queues: R's third was shed.
        assert (r.stats.offered, r.stats.dropped, len(r)) == (4, 1, 1)
        assert (s.stats.offered, len(s)) == (1, 1)
        assert order(polled) == [("R", 2)]
        assert core.drain(polled=polled) == 2
        assert order(polled) == [("R", 2), ("R", 3), ("S", 5)]

    def test_hand_off_conserves_staged_arrivals(self):
        core = TriageCore([make_queue("R", capacity=2)], [0.1], synopses=True)
        core.offer(0, [t(0.1, 1), t(0.2, 2), t(0.3, 3)])
        partials = core.hand_off([0], {"R": {0: 3}})
        kept = len(partials.kept_rows["R"][0])
        dropped = partials.dropped_counts["R"][0]
        queued = len(core.queues[0])
        assert (kept, dropped, queued) == (0, 1, 2)
        assert partials.arrived["R"][0] == kept + dropped + queued
        assert partials.dropped_synopses["R"][0].group_counts("R.a") == {3: 1.0}

    def test_observed_depth_samples_survive_a_capacity_cut(
        self, paper_catalog, monkeypatch
    ):
        # 5000 tuples/s per stream into a 500/s engine behind huge queues:
        # the first control step cuts capacity far below the backlog, and
        # every later arrival sheds at a depth above capacity.
        rng = random.Random(1)
        gens = paper_row_generators()
        streams = {
            name: generate_stream(300, SteadyArrival(5000.0), gens[name], None, rng)
            for name in ("R", "S", "T")
        }
        config = PipelineConfig(
            strategy=ShedStrategy.DATA_TRIAGE,
            window=WindowSpec(width=0.02),
            queue_capacity=100_000,
            service_time=1 / 500,
            adaptive_staleness=0.2,
        )
        # The truth: every batch re-offered one tuple at a time, with the
        # depth after each arrival (any split is equivalent).
        truth: dict[str, list[int]] = {}
        cut: set[str] = set()
        real_offer = TriageQueue.offer_bulk

        def one_at_a_time(queue, batch):
            if len(queue) > queue.capacity:
                cut.add(queue.name)
            dropped = 0
            for tup in batch:
                dropped += real_offer(queue, [tup])
                truth.setdefault(queue.name, []).append(len(queue))
            return dropped

        samples: dict[str, list[int]] = {}
        real_observe = Histogram.observe_many

        def record(hist, values, **labels):
            if hist.name == "triage_queue_depth":
                samples[labels["stream"]] = list(values)
            return real_observe(hist, values, **labels)

        monkeypatch.setattr(TriageQueue, "offer_bulk", one_at_a_time)
        monkeypatch.setattr(Histogram, "observe_many", record)
        pipeline = DataTriagePipeline(
            paper_catalog, QUERY, config, obs=Observability(trace=True)
        )
        result = pipeline.run(streams)
        assert cut == {"R", "S", "T"}
        assert samples == truth
        assert all(len(samples[s]) == 300 for s in streams)
        # ...and one verdict per arrival, shed exactly as often as dropped.
        events = pipeline.obs.tracer.events()
        verdicts = [e["name"] for e in events if e["name"] in ("enqueue", "shed")]
        assert len(verdicts) == 900
        assert verdicts.count("shed") == result.total_dropped > 0


class TestStopConditions:
    def test_until_stops_before_a_tuple_that_cannot_start(self):
        core = TriageCore([make_queue("R")], [1.0])
        feed(core, 0, t(0.0, 1), t(0.0, 2), t(0.0, 3))
        # Tuple 1 runs [0, 1), tuple 2 [1, 2); tuple 3 would start at 2.0.
        assert core.drain(until=2.0) == 2
        assert core.busy_until == 2.0
        assert len(core.queues[0]) == 1

    def test_busy_until_carries_across_calls(self):
        core = TriageCore([make_queue("R")], [1.0])
        feed(core, 0, t(0.0, 1), t(0.0, 2))
        assert core.drain(until=0.5) == 1  # started at 0.0, busy until 1.0
        assert core.drain(until=0.9) == 0  # still busy
        assert core.busy_until == 1.0
        assert core.drain(until=1.5) == 1
        assert core.busy_until == 2.0

    def test_idle_consumer_banks_no_time(self):
        core = TriageCore([make_queue("R")], [0.1])
        assert core.drain(until=5.0) == 0
        assert core.busy_until == 0.0
        feed(core, 0, t(5.0, 1))
        core.drain()
        assert math.isclose(core.busy_until, 5.1)

    def test_budget_counts_tuples_and_needs_no_costs(self):
        core = TriageCore([make_queue("R"), make_queue("S")])
        feed(core, 0, t(0.1, 1), t(0.3, 2))
        feed(core, 1, t(0.2, 9))
        polled = []
        assert core.drain(budget=2, polled=polled) == 2
        assert order(polled) == [("R", 1), ("S", 9)]
        assert core.drain(budget=0) == 0
        assert core.drain(budget=5) == 1
        assert core.completion == {}  # untimed cores stamp no finish times

    def test_whichever_stop_comes_first_wins(self):
        core = TriageCore([make_queue("R")], [1.0])
        feed(core, 0, *(t(0.0, v) for v in range(1, 6)))
        assert core.drain(until=10.0, budget=2) == 2
        assert core.drain(until=3.5, budget=10) == 2


class TestKeptStateFold:
    def test_bags_synopses_and_completion_per_window(self):
        core = TriageCore([make_queue("R")], [0.25], synopses=True)
        feed(core, 0, t(0.1, 7), t(0.2, 7), t(1.1, 8))
        core.drain()
        assert core.completion == {0: 0.6, 1: 1.35}
        kept_rows, kept_synopses = core.take([0, 1])
        bags = kept_rows["R"]
        assert sorted(bags) == [0, 1]
        assert bags[0].multiplicity((7,)) == 2 and len(bags[1]) == 1
        assert kept_synopses["R"][0].group_counts("R.a") == {7: 2.0}
        assert kept_synopses["R"][1].group_counts("R.a") == {8: 1.0}

    def test_take_pops_and_fills_only_the_shed_windows(self):
        core = TriageCore([make_queue("R"), make_queue("S")], synopses=True)
        feed(core, 0, t(0.1, 7), t(1.1, 8), t(2.1, 9))
        feed(core, 1, t(1.2, 5))
        core.drain()
        kept_rows, kept_synopses = core.take([0, 1], shed={1})
        # Every asked window has an entry for every source...
        assert {s: sorted(per) for s, per in kept_rows.items()} == {
            "R": [0, 1], "S": [0, 1]
        }
        assert len(kept_rows["S"][0]) == 0 and len(kept_rows["S"][1]) == 1
        # ...but only a window that shed something gets its synopses.
        assert kept_synopses["R"][0] is None and kept_synopses["S"][0] is None
        assert kept_synopses["R"][1].group_counts("R.a") == {8: 1.0}
        assert kept_synopses["S"][1].group_counts("S.a") == {5: 1.0}
        # Taken windows are gone; the untaken one is whole.
        assert all(0 not in runs and 1 not in runs for runs in core._runs)
        assert all(0 not in syn and 1 not in syn for syn in core._synopses)
        kept_rows, kept_synopses = core.take()  # everything still held
        assert sorted(kept_rows["R"]) == [2] and len(kept_rows["R"][2]) == 1
        assert kept_synopses["R"][2].total() == 1.0
        assert core._runs == [{}, {}] and core._synopses == [{}, {}]

    def test_hopping_windows_fold_into_every_containing_window(self):
        hopping = WindowSpec(width=2.0, slide=1.0)
        core = TriageCore([make_queue("R", window=hopping)], [0.1])
        feed(core, 0, t(1.5, 4))
        core.drain()
        kept_rows, kept_synopses = core.take()
        assert sorted(kept_rows["R"]) == [0, 1]
        assert kept_synopses is None  # built without synopses=True

    def test_fold_can_be_switched_off(self):
        core = TriageCore([make_queue("R")], fold=False)
        feed(core, 0, t(0.1, 1))
        assert core.drain() == 1
        assert core._runs is None and core._synopses is None

    def test_closed_floor_drops_late_backlog_without_leaking_state(self):
        core = TriageCore([make_queue("R")], synopses=True)
        feed(core, 0, t(0.5, 1), t(1.5, 2))
        core.drain()
        core.take([0])
        core.close([0])
        assert core.closed_floor == 0
        feed(core, 0, t(0.7, 3), t(1.6, 4))  # 0.7 is late for window 0
        polled = []
        assert core.drain(polled=polled) == 2  # consumed all the same...
        assert order(polled) == [("R", 3), ("R", 4)]
        assert sorted(core._runs[0]) == [1]  # ...but folded nowhere
        assert sorted(core._synopses[0]) == [1]
        kept_rows, kept_synopses = core.take([0, 1])
        assert len(kept_rows["R"][0]) == 0 and kept_synopses["R"][0] is None
        assert len(kept_rows["R"][1]) == 2
        assert kept_synopses["R"][1].total() == 2.0
        assert core._runs == [{}] and core._synopses == [{}]

    def test_floor_only_rises(self):
        core = TriageCore([make_queue("R")])
        core.close([3, 1])
        core.close([2])
        assert core.closed_floor == 3

    def test_a_core_without_queues_never_drains(self):
        core = TriageCore([])  # a shard worker that owns no source
        assert core.drain() == 0
        core.flush()
        core.close([0])


class TestArrivalReplay:
    def test_merge_orders_by_time_then_source_then_sequence(self):
        streams = {
            "S": [t(0.1, 1), t(0.2, 2)],
            "R": [t(0.2, 3), t(0.2, 4)],
        }
        events = merge_arrivals(streams, ["R", "S"])
        assert [(ts, seq, src) for ts, seq, src, _ in events] == [
            (0.1, 0, "S"),
            (0.2, 0, "R"),
            (0.2, 1, "R"),
            (0.2, 1, "S"),
        ]

    def test_arrivals_counted_per_source_and_window(self):
        streams = {"R": [t(0.1, 1), t(1.2, 2), t(1.3, 3)], "S": [t(2.5, 4)]}
        events = merge_arrivals(streams, ["R", "S"])
        window_ids, arrived, runs = window_runs(
            events, ["R", "S"], WindowSpec(width=1.0)
        )
        assert window_ids == [0, 1, 2]
        assert arrived == {"R": {0: 1, 1: 2}, "S": {2: 1}}
        # Runs: rows in timeline order, keyed in first-arrival order.
        assert list(runs.items()) == [
            (("R", 0), [(1,)]),
            (("R", 1), [(2,), (3,)]),
            (("S", 2), [(4,)]),
        ]

    def test_hopping_runs_repeat_a_row_in_every_containing_window(self):
        streams = {"R": [t(0.5, 1), t(1.5, 2)], "S": [t(1.5, 3)], "T": []}
        events = merge_arrivals(streams, ["R", "S", "T"])
        window_ids, arrived, runs = window_runs(
            events, ["R", "S", "T"], WindowSpec(width=2.0, slide=1.0)
        )
        assert window_ids == [0, 1]
        assert arrived == {"R": {0: 2, 1: 1}, "S": {0: 1, 1: 1}, "T": {}}
        assert list(runs) == [("R", 0), ("R", 1), ("S", 0), ("S", 1)]
        assert runs["R", 0] == [(1,), (2,)] and runs["R", 1] == [(2,)]
