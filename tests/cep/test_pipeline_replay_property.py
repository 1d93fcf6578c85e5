"""``PatternPipeline.run`` is the per-event loop, fused.

The pipeline replays its events on the core's untimed loop: arrivals with
room go straight into the merged queue, and the engine absorbs what was
polled only just before a shed decision and at the end.  That is sound only
if none of it shows: for any timeline (tied stamps and the empty one
included), any capacity from 1 to 8, any service time, random shedding or
pattern-utility shedding with a positive, zero or negative protection
bonus, the run must produce exactly what the per-event loop kept in
``tests/oracle/cep.py`` produces — the same match bytes, drop counts,
engine and queue counters, and ideal matches.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cep import (
    DEMO_PATTERN,
    PatternConfig,
    PatternPipeline,
    PatternUtilityPolicy,
    canonical_match_bytes,
    demo_catalog,
)
from repro.core.policies import RandomDropPolicy
from repro.engine.types import StreamTuple
from tests.oracle.cep import reference_pattern_run

CATALOG = demo_catalog()

POLICIES = {
    "random": RandomDropPolicy,
    "utility": lambda: PatternUtilityPolicy(protect_bonus=100.0),
    "utility-no-bonus": lambda: PatternUtilityPolicy(protect_bonus=0.0),
    "utility-negative-bonus": lambda: PatternUtilityPolicy(protect_bonus=-1.0),
}

# Gaps of 0 tie stamps; the rest span idle stretches and bursts against
# service times of a few to a few hundred tuples a second.
gap = st.sampled_from([0.0, 0.0, 0.001, 0.003, 0.01, 0.05, 0.3, 1.5])
event = st.tuples(gap, st.sampled_from("ABC"), st.integers(1, 4))


def timeline(draws):
    events, ts = [], 0.0
    for dt, stream, key in draws:
        ts += dt
        events.append((stream, StreamTuple(ts, (key,))))
    return events


def outcome(result):
    return (
        canonical_match_bytes(result.matches),
        result.offered,
        result.dropped,
        result.engine_stats,
        result.queue_stats,
        canonical_match_bytes(result.ideal_matches),
    )


@settings(max_examples=150, deadline=None)
@given(
    draws=st.lists(event, max_size=60),
    capacity=st.integers(1, 8),
    service_time=st.sampled_from([0.001, 0.004, 0.02, 0.1]),
    policy=st.sampled_from(sorted(POLICIES)),
    max_runs=st.sampled_from([2, 4096]),
    seed=st.integers(0, 3),
)
def test_run_equals_the_per_event_loop(
    draws, capacity, service_time, policy, max_runs, seed
):
    events = timeline(draws)

    def pipeline():
        config = PatternConfig(
            queue_capacity=capacity,
            service_time=service_time,
            policy=POLICIES[policy](),
            max_runs=max_runs,
            seed=seed,
        )
        return PatternPipeline(CATALOG, DEMO_PATTERN, config)

    got = pipeline().run(events)
    want = reference_pattern_run(pipeline(), events)
    assert outcome(got) == outcome(want)
