"""The per-arrival replay loop, the reference :meth:`TriageCore.replay` is
tested against.

``src/`` replays a timeline in one fused loop
(:meth:`repro.core.triage_core.TriageCore.replay`): arrivals with room go
straight into their queue, only overflow tails reach ``offer_bulk``, and
the kept-row fold looks windows up once per window set.  This module keeps
the loop it replaced, built from the core's public steps — per arrival a
``drain(ts)`` or ``drain(budget=whole)`` (with its flush) and an
``offer(i, (tup,))``, then a final ``drain()`` — and the per-arrival
timeline walk that
:func:`~repro.core.triage_core.window_runs` replaced, so property tests can
hold the fused versions equal to them.
"""

from __future__ import annotations

import math
import operator
from itertools import chain


def reference_replay(
    core,
    arrivals,
    *,
    service_time=None,
    control=None,
    flip=None,
    offered=None,
    marks=None,
    polled=None,
    now=None,
):
    """``core.replay(arrivals, ...)``, one arrival at a time.

    Same arguments, same hand-backs and the same return value: the clock
    reading at the start of the final drain when ``now`` is given.  An
    untimed core banks ``(ts - last) / service_time`` tuples per new stamp
    and drains the whole ones before the arrival is offered; a drain that
    takes fewer forfeits the bank.
    """
    source_index = {name: i for i, name in enumerate(core.names)}
    next_control = control[0] if control is not None else math.inf
    timed = core.costs is not None
    bank = 0.0
    last = arrivals[0][0] if arrivals else 0.0
    t0 = None
    for ts, _, source, tup in chain(arrivals, ((math.inf, 0, None, None),)):
        if timed:
            budget = None
            due = core.busy_until < ts  # the core's own flush rule
        elif tup is None:
            budget, due = None, True  # end of input: catch up fully
        else:
            if ts > last:
                bank += (ts - last) / service_time
                last = ts
            budget = int(bank)
            bank -= budget
            due = budget > 0
        if due:
            if flip is not None:
                flip("drain")
            core.flush(offered)
            if now is not None:
                t0 = now()
            n = core.drain(ts, budget, polled=polled)
            if budget is not None and n < budget:
                bank = 0.0
            if n and marks is not None:
                marks.append((t0, now(), n, ts, len(offered)))
            if flip is not None:
                flip("ingest")
        if tup is None:
            break
        if ts >= next_control:
            dt, step = control
            intervals = 0
            while next_control <= ts:
                next_control += dt
                intervals += 1
            core.flush(offered)
            step(intervals)
        core.offer(source_index[source], (tup,))
    return t0


def reference_window_runs(events, sources, window):
    """``window_runs`` by one walk of a merged timeline, one arrival at a time."""
    runs: dict[tuple[str, int], list] = {}
    for ts, _, source, tup in events:
        for wid in window.ids(ts):
            runs.setdefault((source, wid), []).append(tup.row)
    arrived: dict[str, dict[int, int]] = {s: {} for s in sources}
    for (source, wid), run in runs.items():
        arrived[source][wid] = len(run)
    return sorted({wid for _, wid in runs}), arrived, runs


def reference_merge_arrivals(streams, sources):
    """``merge_arrivals`` as one sort on (timestamp, source, sequence)."""
    events = [
        (tup.timestamp, seq, source, tup)
        for source in sources
        for seq, tup in enumerate(streams[source])
    ]
    events.sort(key=operator.itemgetter(0, 2, 1))
    return events
