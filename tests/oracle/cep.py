"""The per-event pattern-pipeline loop, the reference
:meth:`repro.cep.pipeline.PatternPipeline.run` is tested against.

``src/`` runs a pattern query on :meth:`TriageCore.replay`'s untimed loop:
arrivals with room go straight into the merged queue, and the engine
absorbs what was polled once per shed decision (just before an overflow
tail reaches ``offer_bulk``) and once at the end.  This module keeps the
loop that replay replaced: per event a ``core.drain(budget=whole)`` whose polls the
engine absorbs at once, then a ``core.offer`` of the one event, and a final
full drain.
"""

from __future__ import annotations

from repro.cep.engine import PatternEngine
from repro.cep.pipeline import PatternRunResult, merge_streams
from repro.cep.policy import PatternUtilityPolicy
from repro.core.triage_core import TriageCore
from repro.engine.types import StreamTuple


def reference_pattern_run(pipeline, events) -> PatternRunResult:
    """``pipeline.run(events)``, one event at a time."""
    if isinstance(events, dict):
        events = merge_streams(events, pipeline.pattern.streams)

    ideal = PatternEngine(pipeline.pattern, max_runs=1 << 30).advance_batch(events)

    engine = pipeline.build_engine()
    policy = pipeline.config.policy
    if isinstance(policy, PatternUtilityPolicy):
        policy.bind_engine(engine)
        policy.stream_tag = 0
    queue = pipeline.build_queue()
    core = TriageCore([queue], fold=False)
    matches: list[StreamTuple] = []

    def drain_batch(limit: int | None) -> int:
        """Poll up to ``limit`` tuples and absorb them as one batch."""
        polled: list = []
        n = core.drain(budget=limit, polled=polled)
        if n:
            matches.extend(
                engine.advance_batch(
                    [
                        (t.row[0], StreamTuple(t.timestamp, t.row[1:]))
                        for _, t, _ in polled
                    ]
                )
            )
        return n

    budget = 0.0
    last_ts = events[0][1].timestamp if events else 0.0
    service_time = pipeline.config.service_time
    for stream, tup in events:
        ts = tup.timestamp
        if ts > last_ts:
            budget += (ts - last_ts) / service_time
            last_ts = ts
        whole = int(budget)
        if whole:
            budget -= whole
            if drain_batch(whole) < whole:
                budget = 0.0  # idle engine cannot bank work
        core.offer(0, (StreamTuple(ts, (stream,) + tup.row),))
    drain_batch(None)  # end of input: catch up fully

    return PatternRunResult(
        pattern=pipeline.pattern,
        matches=matches,
        ideal_matches=ideal,
        engine_stats=engine.stats,
        queue_stats=queue.stats,
        offered=queue.stats.offered,
        dropped=queue.stats.dropped,
    )
