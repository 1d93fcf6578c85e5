"""Which callables are wrapped, and how spans become per-layer metrics.

Every layer is measured around a public entry point (or, where the issue
names one, a private method that *is* the layer boundary), from the
benchmark's own files.  ``BENCHMARK.json`` fixes the names and units every
later change is judged by; a layer that a workload never enters reports 0.
Each workload's metrics come from one traced epoch (the quietest of
``TRACED_EPOCHS``), so that within one report the self times and
``server.loop_unattributed_share`` add up to that epoch's wall time.
"""

from __future__ import annotations

import time

import repro.core.pipeline as pipeline_mod
import repro.service.protocol as protocol_mod
import repro.service.session as session_mod
from repro.cep.engine import PatternEngine
from repro.cep.pipeline import PatternPipeline
from repro.cep.policy import PatternUtilityPolicy
from repro.core.pipeline import DataTriagePipeline
from repro.core.triage_queue import TriageQueue
from repro.engine.executor import QueryExecutor
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.rewrite.shadow import ShadowPlan
from repro.service.dataplane import StreamDataPlane
from repro.service.server import TriageServer
from repro.service.session import SessionRegistry
from repro.service.shard import ShardedDataPlane

from spans import SpanRecorder, Target

#: Traced epochs per run; the one with the smallest wall is reported.
TRACED_EPOCHS = 3


def _arg(index: int, key: str):
    """Extractor for a positional-or-keyword argument."""

    def get(args, kwargs):
        return kwargs[key] if key in kwargs else args[index]

    return get


def _decode_name(args, kwargs):
    # sender names the peer: the *server* decodes what a client sent.
    return {"client": "protocol.decode", "server": "client.decode"}.get(
        kwargs.get("sender")
    )


def _batch_rows(args, kwargs):
    batch = _arg(1, "batch")(args, kwargs)
    return len(batch)


def _stream_rows(args, kwargs):
    return sum(len(v) for v in _arg(1, "streams")(args, kwargs).values())


def targets() -> list[Target]:
    """Every wrapped callable (see README.md for the layer each one is)."""
    n_windows = lambda a, k: len(_arg(1, "window_ids")(a, k))  # noqa: E731
    return [
        Target(protocol_mod, "decode_frame", _decode_name,
               ident=lambda a, k: len(a[0])),
        # write_frame (the client's send path) resolves encode_frame in the
        # protocol module; the server's session module imported it by value.
        Target(protocol_mod, "encode_frame", "client.publish.encode"),
        Target(session_mod, "encode_frame", "protocol.encode", result=len),
        Target(TriageServer, "_handle_publish", "server.handle_publish"),
        Target(TriageServer, "ingest_rows", "server.ingest_rows"),
        Target(TriageServer, "tick", "server.tick"),
        Target(TriageServer, "_close_windows", "server.close_windows"),
        Target(SessionRegistry, "broadcast", "session.broadcast"),
        Target(StreamDataPlane, "ingest", "dataplane.ingest"),
        Target(StreamDataPlane, "ingest_columns", "dataplane.ingest_columns"),
        Target(StreamDataPlane, "advance", "dataplane.advance"),
        Target(StreamDataPlane, "collect", "dataplane.collect", ident=lambda a, k: len(a[1])),
        Target(ShardedDataPlane, "ingest_columns", "shard.ingest_columns"),
        Target(ShardedDataPlane, "advance", "shard.advance"),
        Target(ShardedDataPlane, "collect", "shard.collect", ident=lambda a, k: len(a[1])),
        Target(TriageQueue, "offer_bulk", "triage_queue.offer_bulk", ident=_batch_rows),
        Target(DataTriagePipeline, "__init__", "pipeline.construct"),
        Target(
            DataTriagePipeline,
            "run",
            lambda a, k: f"pipeline.run.{a[0].config.strategy.value}",
            ident=_stream_rows,
        ),
        Target(DataTriagePipeline, "evaluate_windows", "pipeline.evaluate_windows",
               ident=n_windows),
        Target(DataTriagePipeline, "_ideal_inputs", "pipeline.ideal"),
        Target(DataTriagePipeline, "_ideal_for", "pipeline.ideal"),
        Target(QueryExecutor, "execute", "executor.execute"),
        Target(ShadowPlan, "estimate_dropped", "shadow.estimate_dropped"),
        # The pipeline module imported the merge functions by value.
        Target(pipeline_mod, "exact_groups", "merge.groups"),
        Target(pipeline_mod, "estimate_groups", "merge.groups"),
        Target(pipeline_mod, "merge_groups", "merge.groups"),
        Target(PatternPipeline, "run", "cep.pipeline.run"),
        Target(
            PatternEngine,
            "advance_batch",
            # The shed-nothing reference engine is harness work, not the
            # engine under load.
            lambda a, k: "cep.engine.advance_batch.ideal"
            if a[0].max_runs >= 1 << 30
            else "cep.engine.advance_batch",
            ident=lambda a, k: len(a[1]),
        ),
        Target(PatternUtilityPolicy, "select_victim", "cep.policy.select_victim"),
    ]


def _busy(spans) -> float:
    return sum(s.busy for s in spans)


def _self(spans) -> float:
    return sum(s.self_time for s in spans)


def _elapsed(spans) -> float:
    return sum(s.elapsed for s in spans)


def _per(total_seconds: float, n: float) -> float:
    return total_seconds * 1e6 / n if n else 0.0


def span_metrics(rec: SpanRecorder, wall: float, rows: int, counts: dict) -> dict:
    """Per-layer metrics of one traced epoch (those that come from spans)."""
    named = rec.named
    out: dict[str, float] = {}

    decode = named("protocol.decode")
    out["protocol.decode.busy_us_per_row"] = _per(_busy(decode), rows)
    out["protocol.decode.bytes_per_row"] = sum(s.ident for s in decode) / rows
    encode = named("protocol.encode")
    results = named("protocol.encode", under="session.broadcast")
    out["protocol.encode.busy_us_per_row"] = _per(_busy(encode), rows)
    out["protocol.encode.bytes_per_window"] = (
        sum(s.ident for s in results) / len(results) if results else 0.0
    )
    out["client.publish.encode_us_per_row"] = _per(
        _busy(named("client.publish.encode")), rows
    )
    out["client.decode.busy_us_per_row"] = _per(_busy(named("client.decode")), rows)

    handle = named("server.handle_publish")
    out["server.handle_publish.elapsed_us_per_batch"] = _per(
        _elapsed(handle), len(handle)
    )
    out["server.ingest_rows.self_us_per_row"] = _per(
        _self(named("server.ingest_rows")), rows
    )
    ticks = named("server.tick")
    out["server.tick.self_us_per_tick"] = _per(_self(ticks), len(ticks))
    windows = counts.get("windows", 0)
    out["server.close_windows.self_us_per_window"] = _per(
        _self(named("server.close_windows")), windows if ticks else 0
    )
    out["server.loop_unattributed_share"] = rec.idle / wall
    broadcast = named("session.broadcast")
    out["session.broadcast.elapsed_us_per_window"] = _per(
        _elapsed(broadcast), len(broadcast)
    )

    out["dataplane.ingest.self_us_per_row"] = _per(
        _self(named("dataplane.ingest")), rows
    )
    out["dataplane.ingest_columns.self_us_per_row"] = _per(
        _self(named("dataplane.ingest_columns")), rows
    )
    advance = named("dataplane.advance")
    polled = counts.get("polled_rows", 0) if advance else 0
    out["dataplane.advance.self_us_per_polled_row"] = _per(_self(advance), polled)
    out["dataplane.advance.polled_rows"] = polled
    collect = named("dataplane.collect")
    out["dataplane.collect.self_us_per_window"] = _per(
        _self(collect), sum(s.ident for s in collect)
    )

    shard_ticks = named("shard.advance")
    shard_collect = named("shard.collect")
    out["shard.ingest_columns.elapsed_us_per_row"] = _per(
        _elapsed(named("shard.ingest_columns")), rows
    )
    out["shard.advance.elapsed_us_per_tick"] = _per(
        _elapsed(shard_ticks), len(shard_ticks)
    )
    out["shard.collect.elapsed_us_per_window"] = _per(
        _elapsed(shard_collect), sum(s.ident for s in shard_collect)
    )

    offers = named("triage_queue.offer_bulk")
    out["triage_queue.offer_bulk.self_us_per_row"] = _per(
        _self(offers), sum(s.ident for s in offers)
    )

    for strategy in ("data_triage", "drop_only", "summarize_only"):
        runs = named(f"pipeline.run.{strategy}")
        out[f"pipeline.run.self_us_per_row.{strategy}"] = _per(
            _self(runs), sum(s.ident for s in runs)
        )
    construct = named("pipeline.construct")
    out["pipeline.construct_us"] = _per(_busy(construct), len(construct))
    evaluate = named("pipeline.evaluate_windows")
    out["pipeline.evaluate_windows.self_us_per_window"] = _per(
        _self(evaluate), sum(s.ident for s in evaluate)
    )
    ideal = named("pipeline.ideal")
    ideal_windows = len(named("executor.execute", under="pipeline.ideal"))
    out["pipeline.ideal.busy_us_per_window"] = _per(_busy(ideal), ideal_windows)
    execute = named("executor.execute", under="!pipeline.ideal")
    out["executor.execute.busy_us_per_window"] = _per(_busy(execute), len(execute))
    out["executor.execute.calls"] = len(named("executor.execute"))
    shadow = named("shadow.estimate_dropped")
    out["shadow.estimate_dropped.busy_us_per_window"] = _per(
        _busy(shadow), len(shadow)
    )
    out["merge.groups.busy_us_per_window"] = _per(
        _busy(named("merge.groups", under="!pipeline.ideal")), len(execute)
    )

    cep_runs = named("cep.pipeline.run")
    out["cep.pipeline.run.self_us_per_event"] = _per(
        _self(cep_runs), rows if cep_runs else 0
    )
    batches = named("cep.engine.advance_batch")
    out["cep.engine.advance_batch.busy_us_per_event"] = _per(
        _busy(batches), sum(s.ident for s in batches)
    )
    victims = named("cep.policy.select_victim")
    out["cep.policy.select_victim.busy_us_per_victim"] = _per(
        _busy(victims), len(victims)
    )
    return out


def synopsis_probe(config, s_tuples) -> dict[str, float]:
    """Direct probe: the workload's own S rows through its synopsis.

    ``insert`` runs once per shed or kept row deep inside the queue and
    drain loops, far too hot to wrap; the probe times the same calls over
    the same values outside the system (best of five).
    """
    pipeline = DataTriagePipeline(paper_catalog(), PAPER_QUERY, config)
    dims, positions = pipeline.source_dimensions("S")
    values = [[t.row[p] for p in positions] for t in s_tuples]
    half = len(values) // 2
    insert_s = union_s = float("inf")
    for _ in range(5):
        left = config.synopsis_factory.create(dims)
        right = config.synopsis_factory.create(dims)
        t0 = time.perf_counter()
        for v in values[:half]:
            left.insert(v)
        insert_s = min(insert_s, time.perf_counter() - t0)
        for v in values[half:]:
            right.insert(v)
        t0 = time.perf_counter()
        for _ in range(50):
            left.union_all(right)
        union_s = min(union_s, (time.perf_counter() - t0) / 50)
    return {
        "synopses.insert.us_per_row": _per(insert_s, half),
        "synopses.union_all.us_per_call": union_s * 1e6,
    }
