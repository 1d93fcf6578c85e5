"""Virtual-clock host for pattern queries behind a triage queue.

Mirrors :class:`repro.core.pipeline.DataTriagePipeline` for the CEP tier:
a :class:`~repro.core.triage_queue.TriageQueue` absorbs bursty arrivals, a
fixed per-tuple service time paces the
:class:`~repro.cep.engine.PatternEngine`, and overload turns into queue
drops chosen by the configured policy.  An *ideal* (shed-nothing) engine
run over the same events gives the match-recall denominator, which is how
the ``offline_cep`` benchmark workload scores drop policies.

Unlike the SPJ pipeline's per-source queues, the pattern pipeline uses one
*merged* queue whose rows carry the stream name at position 0.  A sequence
pattern needs a single totally-ordered input, and the merged queue gives
two guarantees at once: FIFO polling preserves global arrival order into
the engine, and — because an overflow never changes the queue's length
(drop-incoming and evict-then-append both leave it at capacity) — the
length trajectory, and therefore the *number* of drops, is identical for
every drop policy on the same workload.  Policies differ only in *which*
tuples survive, so recall comparisons run at exactly equal drop fractions.

The run is one :meth:`~repro.core.triage_core.TriageCore.replay` on an
untimed core paced by ``service_time``: each new timestamp banks engine
work, whole tuples of it are drained before the arrival is admitted, and an
engine left idle forfeits its bank.  The shedding machinery costs per shed
decision, not per event:

* arrivals that find room go straight into the queue (and the pattern
  policy's buffer index); only overflow tails reach ``offer_bulk``;
* polled events reach the engine as one ``advance_batch`` just before a
  tail is shed and once at the end.  The drop policy is the only reader of
  engine state and reads it only while choosing a victim, and
  ``advance_batch(a + b)`` is ``advance_batch(a)`` then
  ``advance_batch(b)``, so this is byte-identical to feeding the engine
  after every drain;
* at the same moment, every dropped-tuple window the clock has passed is
  released: nothing reads them, and held they would keep every victim of
  the run alive.

``tests/cep/test_pipeline_replay_property.py`` holds the run equal to the
per-event loop it replaced, kept in ``tests/oracle/cep.py``.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field

from repro.core.policies import DropPolicy, RandomDropPolicy
from repro.core.triage_core import TriageCore
from repro.core.triage_queue import QueueStats, TriageQueue
from repro.engine.catalog import Catalog
from repro.engine.types import Column, ColumnType, Schema, StreamTuple
from repro.engine.window import WindowSpec
from repro.cep.engine import EngineStats, PatternEngine, match_identity
from repro.cep.policy import PatternUtilityPolicy
from repro.cep.utility import UtilityModel
from repro.sql.binder import Binder, BoundPattern
from repro.sql.parser import parse_statement
from repro.synopses.sparse_hist import SparseHistogramFactory

#: One interleaved workload event: (stream name, tuple).
Event = tuple[str, StreamTuple]


@dataclass
class PatternConfig:
    """Knobs for a pattern-pipeline run."""

    queue_capacity: int = 96
    service_time: float = 1.0 / 500.0
    policy: DropPolicy = field(default_factory=RandomDropPolicy)
    max_runs: int = 4096
    seed: int = 0
    utility_bins: int = 8


@dataclass
class PatternRunResult:
    """Everything a pattern-pipeline run produced."""

    pattern: BoundPattern
    matches: list[StreamTuple]
    ideal_matches: list[StreamTuple]
    engine_stats: EngineStats
    queue_stats: QueueStats
    offered: int
    dropped: int

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.offered if self.offered else 0.0

    @property
    def recall(self) -> float:
        """Fraction of ideal (shed-nothing) pattern instances still detected.

        Matches are compared by :func:`~repro.cep.engine.match_identity`
        (start timestamp + non-Kleene step columns), so a surviving match
        whose Kleene group lost noise events still counts as detected.
        """
        if not self.ideal_matches:
            return 1.0
        ideal = Counter(
            match_identity(self.pattern, m.row) for m in self.ideal_matches
        )
        got = Counter(match_identity(self.pattern, m.row) for m in self.matches)
        hit = sum(min(n, got.get(key, 0)) for key, n in ideal.items())
        return hit / sum(ideal.values())


class PatternPipeline:
    """Run one pattern query through a triage queue on a virtual clock."""

    def __init__(
        self,
        catalog: Catalog,
        pattern: "str | BoundPattern",
        config: PatternConfig | None = None,
    ) -> None:
        self.catalog = catalog
        self.config = config or PatternConfig()
        if isinstance(pattern, str):
            pattern = Binder(catalog).bind_pattern(parse_statement(pattern))
        self.pattern = pattern

    # ------------------------------------------------------------------
    def build_engine(self) -> PatternEngine:
        return PatternEngine(
            self.pattern,
            max_runs=self.config.max_runs,
            utility=UtilityModel(self.pattern.within, bins=self.config.utility_bins),
        )

    def build_queue(self) -> TriageQueue:
        """The merged pattern queue: rows are ``(stream_name, *row)``."""
        return TriageQueue(
            name="pattern",
            dimensions=[],
            dim_positions=[],
            capacity=self.config.queue_capacity,
            policy=self.config.policy,
            synopsis_factory=SparseHistogramFactory(),
            window=WindowSpec(width=self.pattern.within),
            summarize=False,  # drop-only: pattern matches cannot be estimated
            seed=self.config.seed * 7919,
        )

    # ------------------------------------------------------------------
    def run(self, events: "list[Event] | dict[str, list[StreamTuple]]") -> PatternRunResult:
        """Feed ``events`` through triage into the engine; score recall."""
        if isinstance(events, dict):
            events = merge_streams(events, self.pattern.streams)

        # Ideal reference: the same events straight into an unshedded engine,
        # absorbed as one batch (byte-identical to the per-event loop).
        ideal_engine = PatternEngine(self.pattern, max_runs=1 << 30)
        ideal = ideal_engine.advance_batch(events)

        engine = self.build_engine()
        policy = self.config.policy
        if isinstance(policy, PatternUtilityPolicy):
            policy.bind_engine(engine)
            policy.stream_tag = 0
        queue = self.build_queue()
        window = queue.window
        matches: list[StreamTuple] = []
        polled: list = []

        def settle(now: float) -> None:
            """Hand the engine what it polled; forget windows now past."""
            if polled:
                matches.extend(
                    engine.advance_batch(
                        [
                            (t.row[0], StreamTuple._make((t.timestamp, t.row[1:])))
                            for _, t, _ in polled
                        ]
                    )
                )
                polled.clear()
            # Nothing reads the merged queue's dropped-tuple windows.
            for wid in queue.windows_with_drops():
                if window.bounds(wid)[1] > now:
                    break
                queue.release_window(wid)

        # One merged queue on an untimed core: the engine's pace is a tuple
        # budget banked from the arrival clock.
        TriageCore([queue], fold=False).replay(
            [
                (
                    tup.timestamp,
                    seq,
                    "pattern",
                    StreamTuple._make((tup.timestamp, (stream,) + tup.row)),
                )
                for seq, (stream, tup) in enumerate(events)
            ],
            service_time=self.config.service_time,
            settle=settle,
            polled=polled,
        )

        return PatternRunResult(
            pattern=self.pattern,
            matches=matches,
            ideal_matches=ideal,
            engine_stats=engine.stats,
            queue_stats=queue.stats,
            offered=queue.stats.offered,
            dropped=queue.stats.dropped,
        )


def merge_streams(
    streams: dict[str, list[StreamTuple]], order: tuple[str, ...]
) -> list[Event]:
    """Interleave per-stream tuple lists into one deterministic timeline."""
    rank = {s: i for i, s in enumerate(order)}
    tagged = [
        (t.timestamp, rank.get(s, len(rank)), i, s, t)
        for s, tuples in streams.items()
        for i, t in enumerate(tuples)
    ]
    tagged.sort(key=lambda e: e[:3])
    return [(s, t) for _, _, _, s, t in tagged]


# ----------------------------------------------------------------------
# Demo catalog + workload for the shell, examples, and the benchmark.
# ----------------------------------------------------------------------

DEMO_PATTERN = (
    "PATTERN SEQ(A a, B+ b, C c) WHERE a.k = b.k AND b.k = c.k WITHIN 2"
)


def demo_catalog() -> Catalog:
    """Streams A/B/C, each a single integer key column ``k``."""
    catalog = Catalog()
    for name in ("A", "B", "C"):
        catalog.create_stream(name, Schema([Column("k", ColumnType.INTEGER)]))
    return catalog


def bursty_pattern_workload(
    *,
    n_events: int = 3000,
    n_keys: int = 100,
    seed: int = 0,
    base_rate: float = 200.0,
    burst_speedup: float = 20.0,
    burst_fraction: float = 0.6,
    expected_burst_length: float = 200.0,
    mix: tuple[float, float, float] = (0.1, 0.8, 0.1),
    closing_fraction: float = 0.5,
) -> list[Event]:
    """A Figure-9-style bursty interleaving of A/B/C key events.

    One Markov-modulated arrival timeline; each event is assigned a stream
    by the ``mix`` weights (B dominates — Kleene noise) and a key.  A and B
    draw keys uniformly from ``n_keys``; C closes a recent A's key with
    probability ``closing_fraction`` (so complete SEQ(A, B+, C) chains
    actually occur) and is uniform noise otherwise.  Only a handful of keys
    have an open A at any moment — exactly the structure a state-aware
    policy can exploit and a random one cannot.
    """
    from repro.sources.arrival import MarkovBurstArrival

    rng = random.Random(seed)
    arrivals = MarkovBurstArrival(
        base_rate=base_rate,
        burst_speedup=burst_speedup,
        burst_fraction=burst_fraction,
        expected_burst_length=expected_burst_length,
    ).schedule(n_events, rng)
    wa, wb, _ = mix
    recent_a: list[tuple[float, int]] = []
    out: list[Event] = []
    for arrival in arrivals:
        ts = arrival.timestamp
        u = rng.random()
        if u < wa:
            key = rng.randrange(1, n_keys + 1)
            recent_a.append((ts, key))
            out.append(("A", StreamTuple(ts, (key,))))
        elif u < wa + wb:
            out.append(("B", StreamTuple(ts, (rng.randrange(1, n_keys + 1),))))
        else:
            recent_a = [(t, k) for t, k in recent_a if ts - t <= 2.0]
            if recent_a and rng.random() < closing_fraction:
                key = recent_a[rng.randrange(len(recent_a))][1]
            else:
                key = rng.randrange(1, n_keys + 1)
            out.append(("C", StreamTuple(ts, (key,))))
    return out
