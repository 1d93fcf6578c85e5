"""Profiler transparency and fleet-merge exactness (ISSUE 9 gate).

Three contracts, mirroring the audit-reconcile suite:

* **Transparency** — results and drop decisions are byte-identical with
  profiling on and off, for the Figure 9 pipeline run and for the serial
  and sharded data planes: the sampler lives on its own daemon thread
  and never touches the policy RNG chain or the hot path's data flow.
* **Service surface** — a server configured with a sampling rate carries a
  ``prof`` block in STATS (and supports live collapsed capture over the
  wire); a prof-off server's replies are unchanged and live capture is
  refused with a clear error.
* **Merge exactness** — the coordinator's fleet-wide profile is a pure
  merge target (never started), so after ``obs_sync`` its total sample
  count equals the sum of the workers' shipped samples exactly, no
  matter how many times syncing runs.
"""

import asyncio
import contextlib

import pytest

from repro.core.strategies import PipelineConfig, ShedStrategy
from repro.engine.window import WindowSpec
from repro.experiments import bursty_pipeline, paper_catalog
from repro.obs import Observability
from repro.obs.prof import SamplingProfiler, parse_collapsed, validate_collapsed
from repro.service import ServiceConfig, TriageServer
from repro.service.dataplane import StreamDataPlane
from repro.service.shard import ShardedDataPlane
from tests.service.test_audit_reconcile import (
    ExperimentParams,
    drive,
    make_pipeline,
    outcome_key,
    workload,
)


# ---------------------------------------------------------------------------
# Transparency: profiling on/off is byte-identical
# ---------------------------------------------------------------------------
def test_fig9_run_identical_with_profiling_on_and_off():
    params = ExperimentParams(n_windows=2)

    def run_once(profiled):
        sampler = SamplingProfiler(hz=250.0) if profiled else None
        pipeline, streams = bursty_pipeline(
            ShedStrategy.DATA_TRIAGE,
            3000.0,
            params,
            0,
            obs=Observability(sampler=sampler) if profiled else None,
        )
        try:
            result = pipeline.run(streams)
            if profiled:
                assert sampler.running  # run() starts an attached sampler
        finally:
            if profiled:
                sampler.stop()
        if profiled:
            validate_collapsed(sampler.export_collapsed())
        keys = [outcome_key(o) for o in result.windows]
        return keys, result.total_arrived, result.total_kept, result.total_dropped

    plain = run_once(False)
    profiled = run_once(True)
    assert profiled == plain
    assert plain[3] > 0, "workload must force shedding to be a real test"


@pytest.mark.parametrize("shards", [1, 2])
def test_plane_results_identical_with_profiling_on_and_off(shards):
    schedule = workload(seed=23)

    def run_once(prof):
        pipeline = make_pipeline(sampler=prof)
        if prof is not None:
            prof.start()
        if shards == 1:
            plane = StreamDataPlane(pipeline)
            try:
                return asyncio.run(drive(plane, pipeline, schedule))
            finally:
                if prof is not None:
                    prof.stop()
        plane = ShardedDataPlane(pipeline, shards)
        try:
            return asyncio.run(drive(plane, pipeline, schedule))
        finally:
            if prof is not None:
                prof.stop()
            plane.close()

    plain = run_once(None)
    profiled = run_once(SamplingProfiler(hz=250.0))
    assert profiled == plain
    assert plain[1][1] > 0  # dropped: shedding actually happened


# ---------------------------------------------------------------------------
# Merge exactness: coordinator total == sum of worker shipments
# ---------------------------------------------------------------------------
def test_sharded_merge_total_equals_sum_of_worker_samples():
    coordinator = SamplingProfiler(hz=97.0)
    pipeline = make_pipeline(sampler=coordinator)
    shipped = []  # every worker table's own sample count, as it arrives
    absorb = pipeline.obs.absorb
    pipeline.obs.absorb = lambda table: (
        shipped.append(table["prof"]["samples"]),
        absorb(table),
    )
    plane = ShardedDataPlane(pipeline, 2)

    async def session():
        await drive(plane, pipeline, workload())  # close replies carry deltas
        await plane.obs_sync()
        await plane.obs_sync()  # deltas: re-sync never double counts

    try:
        assert not coordinator.running  # pure merge target, never sampled
        asyncio.run(session())
    finally:
        plane.close()
    absorbed = sum(shipped)
    assert len(shipped) > 4  # the closes shipped too, not just the syncs
    assert coordinator.samples == absorbed
    header, counts = parse_collapsed(coordinator.export_collapsed())
    assert header["samples"] == absorbed
    assert sum(counts.values()) == absorbed


# ---------------------------------------------------------------------------
# Server surface: STATS prof block, live capture, prof-off refusal
# ---------------------------------------------------------------------------
class ManualClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


@contextlib.asynccontextmanager
async def serve(**service_kwargs):
    clock = ManualClock()
    config = PipelineConfig(
        window=WindowSpec(width=1.0),
        queue_capacity=30,
        service_time=0.001,
        compute_ideal=False,
    )
    service = ServiceConfig(tick_interval=None, clock=clock, **service_kwargs)
    server = TriageServer(
        paper_catalog(),
        "SELECT a, COUNT(*) AS n FROM R GROUP BY a;",
        config,
        service,
    )
    await server.start()
    server.clock = clock
    try:
        yield server
    finally:
        await server.shutdown()


def test_server_stats_reply_carries_prof_block():
    from repro.service import TriageClient

    async def main():
        async with serve(profile_hz=250.0) as server:
            assert server.obs.sampler.running
            client = await TriageClient.connect(
                "127.0.0.1", server.port, client_name="prof-test"
            )
            try:
                stats = await client.stats()
                prof = stats["prof"]
                assert prof["summary"]["schema"] == "repro-prof/v1"
                assert prof["summary"]["hz"] == 250.0
                assert isinstance(prof["top"], list)
                assert "collapsed" not in prof  # only on request
                collapsed = await client.profile()
                header = validate_collapsed(collapsed)
                assert header["schema"] == "repro-prof/v1"
            finally:
                await client.close()

        async with serve() as server:
            client = await TriageClient.connect(
                "127.0.0.1", server.port, client_name="prof-test"
            )
            try:
                stats = await client.stats()
                assert "prof" not in stats  # prof-off replies are unchanged
                with pytest.raises(RuntimeError, match="not profiling"):
                    await client.profile()
            finally:
                await client.close()

    asyncio.run(main())


def test_sharded_server_live_capture_merges_workers():
    from repro.service import TriageClient

    async def main():
        async with serve(profile_hz=250.0, shards=2) as server:
            rows = [[1] for _ in range(80)]
            ts = [i / 80 for i in range(80)]
            await server.ingest_rows("R", rows, ts, now=0.5)
            server.clock.t = 2.0
            await server.tick()
            client = await TriageClient.connect(
                "127.0.0.1", server.port, client_name="prof-test"
            )
            try:
                collapsed = await client.profile()
            finally:
                await client.close()
            header = validate_collapsed(collapsed)
            # The live capture synced worker deltas over the RPC hop into
            # the server's profiler before exporting.
            assert header["schema"] == "repro-prof/v1"
            assert server.obs.sampler.samples >= header["samples"] >= 0

    asyncio.run(main())
