"""One matrix for what attaching observability may and may not change.

``Observability`` is the only thing a layer is handed, so the transparency
contracts that used to be pinned once per subsystem are pinned here once
per *attachment*: {none, trace, ledger, sampler, all} x shards {1, 2},
every cell the same fixed workload through an in-process server.

* RESULT frames are byte-identical across the whole matrix.
* STATS and TELEMETRY carry an ``audit`` / ``prof`` block exactly when the
  ledger / sampler is attached, and nothing else moves: with neither, the
  key sets are the bare ones.
* After shutdown the ledger's drop total, the folded ``triage_drops_total``
  and the plane's own total agree, at both shard counts.
* The merged sampler's total is what the coordinator sampled itself plus
  the sum of the worker tables that came over the one shard channel.

Below the matrix: the folds that replaced the last two callback families
(``cep_*_total`` from ``EngineStats``, ``controller_*`` from the
``LoadEstimate``) and the phase seam's restore-on-error.
"""

import asyncio
import contextlib
import functools
import hashlib
import json
import random

import pytest

from repro.cep import DEMO_PATTERN, bursty_pattern_workload, demo_catalog
from repro.core.policies import RandomDropPolicy
from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine.window import WindowSpec
from repro.experiments import (
    PAPER_QUERY,
    ExperimentParams,
    bursty_pipeline,
    paper_catalog,
)
from repro.obs import Observability
from repro.obs.audit import DropLedger
from repro.obs.prof import SamplingProfiler, current_phase
from repro.service import ServiceConfig, TriageClient, TriageServer
from repro.sources.generators import paper_row_generators

STREAMS = ("R", "S", "T")
ATTACHMENTS = ("none", "trace", "ledger", "sampler", "all")
DROP_KINDS = ("drop_incoming", "evict_buffered")

#: What a server with nothing attached sends, key for key.
BARE_STATS = {"type", "metrics", "summary", "window_reports"}
BARE_TELEMETRY = {
    "type", "seq", "now", "interval", "metrics", "reports", "alerts",
    "firing", "slo", "summary",
}


class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def build_obs(kind):
    if kind == "none":
        return None
    obs = Observability(trace=kind in ("trace", "all"))
    if kind in ("ledger", "all"):
        obs.ledger = DropLedger(seed=0, metrics=obs.registry)
    if kind in ("sampler", "all"):
        obs.sampler = SamplingProfiler(hz=250.0, metrics=obs.registry)
    return obs


@contextlib.asynccontextmanager
async def serve(obs=None, shards=1, query=PAPER_QUERY, catalog=None, **config):
    clock = ManualClock()
    server = TriageServer(
        catalog or paper_catalog(),
        query,
        PipelineConfig(
            window=WindowSpec(width=1.0),
            queue_capacity=30,
            service_time=0.002,
            compute_ideal=False,
            **config,
        ),
        ServiceConfig(tick_interval=None, clock=clock, shards=shards),
        obs=obs,
    )
    await server.start()
    server.clock = clock
    try:
        yield server
    finally:
        await server.shutdown()


@functools.lru_cache(maxsize=None)
def cell(kind, shards):
    """Run one cell of the matrix; everything the assertions need."""

    async def main():
        obs = build_obs(kind)
        shipped = []  # sample counts of the worker tables, as they arrive
        if obs is not None:
            absorb = obs.absorb
            obs.absorb = lambda table: (
                shipped.append(table.get("prof", {}).get("samples", 0)),
                absorb(table),
            )
        rng = random.Random(23)
        gens = paper_row_generators()
        frames = []
        async with serve(obs, shards) as server:
            client = await TriageClient.connect("127.0.0.1", server.port)
            await client.subscribe(telemetry=True)
            for w in range(2):
                for source in STREAMS:
                    rows = [list(gens[source].draw(rng)) for _ in range(90)]
                    stamps = [w + i * 0.004 for i in range(90)]
                    await server.ingest_rows(source, rows, stamps, now=w + 0.5)
                server.clock.t = float(w + 1)
                frames += await server.tick()
            server.clock.t = 10.0
            frames += await server.tick()
            stats = await client.stats()
            telemetry = await client.next_telemetry(timeout=5)
            await client.close()
        # After shutdown: the final fold and the last obs_sync have run.
        metrics = server.metrics.to_dict()
        return {
            "digest": hashlib.sha256(
                json.dumps(frames, sort_keys=True).encode()
            ).hexdigest(),
            "windows": len(frames),
            "stats_keys": set(stats),
            "telemetry_keys": set(telemetry),
            "plane_dropped": server.plane.totals()[1],
            "folded_dropped": sum(
                metrics["triage_drops_total"]["values"].values()
            ),
            "obs": obs,
            "shipped": shipped,
            "own_samples": sum(
                metrics.get("prof_samples_total", {"values": {}})[
                    "values"
                ].values()
            ),
        }

    return asyncio.run(main())


@pytest.mark.parametrize("shards", [1, 2])
@pytest.mark.parametrize("kind", ATTACHMENTS)
def test_attachment_matrix(kind, shards):
    got = cell(kind, shards)
    reference = cell("none", 1)
    obs = got["obs"]
    has_ledger = kind in ("ledger", "all")
    has_sampler = kind in ("sampler", "all")

    # Results: one digest for the whole matrix, and shedding was real.
    assert got["windows"] == reference["windows"] >= 2
    assert got["digest"] == reference["digest"]
    assert got["plane_dropped"] == reference["plane_dropped"] > 0

    # STATS / TELEMETRY: a block per attached part, nothing else.
    extra = set()
    if has_ledger:
        extra.add("audit")
    if has_sampler:
        extra.add("prof")
    assert got["stats_keys"] == BARE_STATS | extra
    assert got["telemetry_keys"] == BARE_TELEMETRY | extra

    # Ledger == folded counters == plane, after shutdown.
    assert got["folded_dropped"] == got["plane_dropped"]
    if has_ledger:
        counts = obs.ledger.counts
        assert sum(counts.get(k, 0) for k in DROP_KINDS) == got["plane_dropped"]
        assert obs.ledger.pending_windows() == []

    # Sampler: merged total == own samples + sum of worker tables.
    if has_sampler:
        assert not obs.sampler.running  # shutdown stopped it
        assert obs.sampler.samples == got["own_samples"] + sum(got["shipped"])
        if shards > 1:
            # Two workers x (three closes + the shutdown sync) at least.
            assert len(got["shipped"]) >= 2 * 2
    if shards == 1 or not (has_ledger or has_sampler):
        assert got["shipped"] == []  # nothing attached: replies carry None


# ---------------------------------------------------------------------------
# The folds that replaced the callbacks
# ---------------------------------------------------------------------------
def test_cep_counters_fold_to_the_callback_counts():
    """A fixed pattern run: the folded ``cep_*_total`` are the counts the
    per-event ``observer=`` callback produced on this input at PR 19
    (``max_runs=8`` so the pSPICE bound sheds), same names, help, labels."""
    query = (
        "SELECT A.k, COUNT(*) AS n FROM A, B, C "
        "WHERE A.k = B.k AND B.k = C.k GROUP BY A.k; "
        "WINDOW A ['2 seconds'], B ['2 seconds'], C ['2 seconds']"
    )
    server = TriageServer(
        demo_catalog(),
        query,
        PipelineConfig(compute_ideal=False),
        ServiceConfig(tick_interval=None, clock=lambda: 1000.0),
    )
    engine = server.attach_pattern(DEMO_PATTERN, max_runs=8)
    minted = server.metrics.to_dict()
    assert minted["cep_matches_total"]["values"] == {}  # minted at attach

    async def publish():
        for stream, tup in bursty_pattern_workload(n_events=800, seed=0):
            await server.ingest_rows(
                stream, [list(tup.row)], [tup.timestamp], now=tup.timestamp
            )

    asyncio.run(publish())
    server.plane.drain(None)
    server._fold_queue_stats()
    server._fold_queue_stats()  # a second fold adds nothing
    doc = server.metrics.to_dict()
    assert {
        name: (inst["help"], inst["labels"], inst["values"])
        for name, inst in doc.items()
        if name.startswith("cep_") and name.endswith("_total")
    } == {
        "cep_runs_started_total": (
            "Pattern runs (partial matches) opened", [], {"": 74.0}),
        "cep_runs_extended_total": (
            "Events absorbed into partial matches", [], {"": 18.0}),
        "cep_matches_total": (
            "Complete pattern matches emitted", [], {"": 3.0}),
        "cep_runs_expired_total": (
            "Partial matches expired at WITHIN", [], {}),
        "cep_runs_shed_total": (
            "Partial matches retired by the pSPICE memory bound", [],
            {"": 63.0}),
    }
    assert engine.stats.matches == 3 and engine.stats.runs_shed == 63


def test_controller_gauges_are_set_from_the_estimate():
    async def main():
        async with serve(
            query="SELECT a, COUNT(*) AS n FROM R GROUP BY a;",
            adaptive_staleness=0.5,
        ) as server:
            await server.ingest_rows(
                "R", [[i % 9 + 1] for i in range(200)],
                [i / 400 for i in range(200)], now=0.5,
            )
            server.clock.t = 0.5
            await server.tick()
            return server.metrics.to_dict(), server._controllers["R"], server.queues["R"]

    doc, controller, queue = asyncio.run(main())
    est = controller.estimate
    assert est.arrival_rate > 0 and est.drop_fraction > 0
    for name, value in (
        ("arrival_rate", est.arrival_rate),
        ("drop_fraction", est.drop_fraction),
        ("recommended_capacity", queue.capacity),
    ):
        inst = doc[f"controller_{name}"]
        assert inst["help"] == f"Load controller {name}"
        assert inst["labels"] == ["stream"]
        assert inst["values"] == {"R": value}


# ---------------------------------------------------------------------------
# The phase seam restores the tag, error or not
# ---------------------------------------------------------------------------
def test_phase_tag_does_not_leak_when_the_executor_raises(monkeypatch):
    obs = Observability(sampler=SamplingProfiler(hz=250.0))
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, 3000.0, ExperimentParams(n_windows=2), 0, obs=obs
    )
    seen = []

    def boom(bound, inputs):
        seen.append(current_phase())
        raise RuntimeError("executor failed")

    monkeypatch.setattr(pipeline.executor, "execute", boom)
    try:
        with pytest.raises(RuntimeError, match="executor failed"):
            pipeline.run(streams)
    finally:
        obs.sampler.stop()
    assert seen == ["exact"]  # the tag was live inside the phase ...
    assert current_phase() is None  # ... and is gone after the error


def test_phase_tag_does_not_leak_when_the_replay_raises(monkeypatch):
    obs = Observability(sampler=SamplingProfiler(hz=250.0))
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, 3000.0, ExperimentParams(n_windows=2), 0, obs=obs
    )

    class Boom(RandomDropPolicy):
        def select_victim(self, buffer, incoming, context):
            raise RuntimeError("policy failed")

    pipeline.config.policy = Boom()
    try:
        with pytest.raises(RuntimeError, match="policy failed"):
            pipeline.run(streams)
    finally:
        obs.sampler.stop()
    assert current_phase() is None
