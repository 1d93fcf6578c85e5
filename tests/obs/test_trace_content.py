"""The simulator's trace content, pinned event for event.

A traced run's events are derived from what the triage core hands back
rather than recorded one call per tuple; the derivation must reproduce the
stream the per-tuple recording produced.  Each digest below is the sha256
of the ordered ``(name, cat, ph, args)`` of ``tracer.events()`` — wall
clock stamps (``ts``, ``dur``) left out, since only they may move — taken
together with the ring's ``emitted`` and ``len``.
"""

import hashlib
import json
import random

import pytest

from repro.core import DataTriagePipeline, PipelineConfig, ShedStrategy
from repro.engine import WindowSpec
from repro.experiments import ExperimentParams, bursty_pipeline, paper_catalog
from repro.obs import Observability
from repro.sources import SteadyArrival, generate_stream, paper_row_generators

QUERY = (
    "SELECT a, COUNT(*) AS n FROM R, S, T "
    "WHERE R.a = S.b AND S.c = T.d GROUP BY a;"
)


def fig9_shedding(obs):
    """A Fig 9 run at 4500 tuples/s: about a third of the tuples shed."""
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE,
        4500,
        ExperimentParams(tuples_per_window=60, n_windows=3),
        0,
        obs=obs,
    )
    pipeline.run(streams)


def capacity_cut(obs):
    """The adaptive run whose first control step cuts capacity below depth."""
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
    DataTriagePipeline(paper_catalog(), QUERY, config, obs=obs).run(streams)


def content(tracer) -> tuple[str, int, int]:
    events = tracer.events()
    assert len(events) == len(tracer)
    payload = json.dumps(
        [[e["name"], e["cat"], e["ph"], e.get("args")] for e in events],
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode()).hexdigest(), tracer.emitted, len(tracer)


#: case -> (run, Observability arguments, (sha256, emitted, len)), as
#: recorded when every event was its own tracer call.
CASES = {
    "fig9_shedding": (
        fig9_shedding,
        {},
        ("d14a417256eff99273df3b852246136fec0c908719d1b16cc595eb57b04264ef", 1924, 1924),
    ),
    "capacity_cut": (
        capacity_cut,
        {},
        ("5caf967969c69f00acc8f860c5c5965d14d0090955cb19d030b2002ac9f68c3c", 2596, 2596),
    ),
    # 1,624 events evicted: the ring trims the run's derived events.
    "fig9_ring_300": (
        fig9_shedding,
        {"trace_capacity": 300},
        ("fa8f62b5a4a5442ff0a33e5afcb7733f73341eb32d3ce5a13c54b868718e9985", 1924, 300),
    ),
    # Spans only, the drain spans without the lifecycle events between
    # them, in a ring that evicts 260.
    "fig9_spans_ring_100": (
        fig9_shedding,
        {"tuple_events": False, "trace_capacity": 100},
        ("05aa693583bc180dda1a2b68c021b053c340505320d48c6944ca503d55ef494c", 360, 100),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_trace_content_is_unchanged(case):
    run, kwargs, pinned = CASES[case]
    obs = Observability(trace=True, **kwargs)
    run(obs)
    assert content(obs.tracer) == pinned


def stripped(tracer):
    return [(e["name"], e["cat"], e["ph"], e.get("args")) for e in tracer.events()]


@pytest.mark.parametrize("tuple_events", [True, False])
def test_a_small_ring_holds_the_tail_of_the_full_trace(tuple_events):
    full = Observability(trace=True, tuple_events=tuple_events)
    fig9_shedding(full)
    everything = stripped(full.tracer)
    for capacity in (1, 2, 7, 50, 299, 300, len(everything) - 1):
        obs = Observability(trace=True, tuple_events=tuple_events, trace_capacity=capacity)
        fig9_shedding(obs)
        assert stripped(obs.tracer) == everything[-capacity:], capacity
        assert obs.tracer.dropped == len(everything) - capacity
