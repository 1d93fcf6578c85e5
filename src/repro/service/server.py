"""The asyncio streaming service: triage at the network edge.

Paper Figure 1 places triage queues *between the data sources and the
query processor*; this module is that boundary as a long-running TCP
server.  Each connection's PUBLISH batches feed per-stream
:class:`~repro.core.triage_queue.TriageQueue` instances, so a burst that
outruns the engine sheds into per-window synopses instead of growing an
unbounded socket buffer.  A window ticker emulates the engine (a fixed
``service_time`` per tuple, exactly like the virtual-clock pipeline),
closes windows as the clock passes them, evaluates the exact + shadow
plans via :meth:`DataTriagePipeline.evaluate_windows`, and fans the merged
composite result out to every subscriber.

Design notes
------------

* **Bounded everywhere.**  Inbound frames are size-limited, publish
  batches are row-limited and rate-capped per session, the triage queues
  are the *only* tuple buffering (capacity-bounded, overflow synopsized),
  and each subscriber has a bounded outbound queue whose overflow evicts
  the subscriber.  No path buffers without bound.
* **Virtual or wall clock.**  By default window time is
  ``loop.time() - t0`` (seconds since server start) and tuples without
  explicit timestamps are stamped on arrival.  Tests and deterministic
  deployments inject ``ServiceConfig.clock`` and drive :meth:`tick`
  directly (``tick_interval=None`` disables the background ticker).
* **Windows close in order.**  A window is closed once the clock passes
  its end (plus ``grace``) *and* every queue's head has moved past it, so
  backlogged-but-kept tuples still land in their window; the close
  latency this imposes is bounded by ``capacity * service_time`` — the
  staleness bound the paper's queue sizing argues for — and is recorded
  in the ``window_latency_seconds`` histogram.  Rows arriving for an
  already-closed window are counted late and discarded.
* **Serving requires an aggregate query** (GROUP BY + aggregates): that is
  what composite merge produces per window.  Raw-mode queries are a
  compile-time error here.
"""

from __future__ import annotations

import asyncio
import contextlib
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.core.controller import LoadController
from repro.core.pipeline import DataTriagePipeline
from repro.core.strategies import PipelineConfig
from repro.core.triage_queue import TriageQueue
from repro.engine.catalog import Catalog
from repro.engine.types import SchemaError
from repro.obs.audit import DropLedger, attribute_reports
from repro.obs.metrics import (
    LATENCY_BUCKETS,
    DeltaSnapshotter,
    MetricsRegistry,
    POLICY_COUNTERS,
    fold_engine_stats,
    fold_queue_stats,
    shard_instruments,
)
from repro.obs.report import WindowReport, summarize_reports
from repro.obs.slo import SLOEngine, audit_service_slos, default_service_slos
from repro.obs.trace import NULL_TRACER
from repro.service import protocol
from repro.service.dataplane import StreamDataPlane
from repro.service.protocol import ProtocolError, read_frame
from repro.service.session import AdmissionError, Session, SessionRegistry
from repro.service.shard import ShardedDataPlane, ShardError
from repro.sql.ast import PatternStmt, SelectStmt
from repro.sql.binder import Binder, BoundPattern, BoundQuery
from repro.sql.parser import parse_statement

__all__ = ["ServiceConfig", "TriageServer"]

#: Queue-depth histogram buckets (tuples, not seconds).
DEPTH_BUCKETS = (0, 1, 2, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000)

#: Trace contexts remembered (and echoed on RESULT) per open window.
MAX_WINDOW_TRACES = 64


@dataclass
class ServiceConfig:
    """Network-side knobs (engine-side knobs live in PipelineConfig)."""

    host: str = "127.0.0.1"
    port: int = 0  # 0: let the OS pick (the bound port is `server.port`)
    #: Background tick period in *real* seconds; None disables the ticker
    #: (tests then call :meth:`TriageServer.tick` themselves).
    tick_interval: float | None = 0.05
    #: Extra window-clock seconds to wait before closing a window.
    grace: float = 0.0
    max_sessions: int = 64
    #: Per-session publish cap, rows/second (None = uncapped).
    rate_limit: float | None = None
    rate_burst: float | None = None  # default: one second's worth of tokens
    #: Outbound frames buffered per session before it is evicted as slow.
    send_queue_frames: int = 64
    #: Window clock override: a zero-arg callable returning seconds.
    clock: Callable[[], float] | None = None
    #: Window-clock seconds between TELEMETRY pushes (and SLO evaluations).
    #: A SUBSCRIBE may request a shorter interval; None disables telemetry.
    telemetry_interval: float | None = 1.0
    #: SLO objectives to score; None means :func:`default_service_slos`
    #: scaled to the served query's window width.
    slos: list | None = None
    #: Shard worker processes for the triage data plane.  1 (the default)
    #: keeps triage in-process (the serial fallback); N > 1 hash-partitions
    #: the stream sources across N forked workers, each with its own
    #: queues, drop policies, and engine drain budget (see
    #: :mod:`repro.service.shard`).  Results are byte-identical either way.
    shards: int = 1
    #: Shed-provenance audit ledger (see :mod:`repro.obs.audit`).  Off by
    #: default: the ledger is opt-in observability and, when off, the hot
    #: paths carry no audit branches beyond a single ``is not None`` check,
    #: so results and drop decisions are byte-identical either way.
    audit: bool = False
    #: Audit event-ring capacity (sampled exemplars retained), and the
    #: per-``(stream, kind)`` reservoir size for tuple exemplars.
    audit_ring: int = 1024
    audit_exemplars: int = 4
    #: Continuous sampling-profiler rate in Hz; None (default) disables
    #: profiling.  Like audit, profiling is opt-in observability: sampling
    #: runs on a daemon thread (workers sample locally and ship deltas),
    #: so results, drop decisions, and replies are byte-identical either
    #: way.  Enables the STATS/TELEMETRY ``prof`` block and live capture.
    profile_hz: float | None = None

    def __post_init__(self) -> None:
        if self.tick_interval is not None and self.tick_interval <= 0:
            raise ValueError("tick_interval must be positive or None")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        if self.audit_ring < 1:
            raise ValueError("audit_ring must be >= 1")
        if self.audit_exemplars < 0:
            raise ValueError("audit_exemplars must be >= 0")
        if self.profile_hz is not None and not self.profile_hz > 0:
            raise ValueError(f"profile_hz must be > 0: {self.profile_hz}")
        if self.grace < 0:
            raise ValueError("grace must be >= 0")
        if self.telemetry_interval is not None and self.telemetry_interval <= 0:
            raise ValueError("telemetry_interval must be positive or None")


class TriageServer:
    """One continuous query served over TCP with edge triage."""

    def __init__(
        self,
        catalog: Catalog,
        query: "str | SelectStmt | BoundQuery",
        config: PipelineConfig | None = None,
        service: ServiceConfig | None = None,
        *,
        domains: dict[str, tuple[int, int]] | None = None,
        obs=None,
    ) -> None:
        """``obs`` (a :class:`repro.obs.Observability`) is the one
        observability attachment: its tracer and per-window phase timing
        cover window evaluation, its registry is the server's
        (:attr:`metrics`, so one STATS snapshot carries both layers), and
        its ledger / sampler are the server's.  ``ServiceConfig.audit`` /
        ``profile_hz`` fill in a ledger / sampler the bundle lacks,
        building the bundle when none was given.
        """
        self.config = config or PipelineConfig()
        self.service = service or ServiceConfig()
        if self.service.audit or self.service.profile_hz is not None:
            from repro.obs import Observability

            obs = obs if obs is not None else Observability()
            if self.service.audit and obs.ledger is None:
                # The coordinator ledger is the single source of truth: the
                # serial plane's queues write to it directly; shard workers
                # keep their own and ship state back at window close.
                obs.ledger = DropLedger(
                    capacity=self.service.audit_ring,
                    exemplars=self.service.audit_exemplars,
                    seed=self.config.seed,
                    metrics=obs.registry,
                )
            if self.service.profile_hz is not None and obs.sampler is None:
                # Likewise the merge target of the workers' sample deltas,
                # so its total sample count is the fleet-wide total.
                from repro.obs.prof import SamplingProfiler

                obs.sampler = SamplingProfiler(
                    self.service.profile_hz, metrics=obs.registry
                )
        self.obs = obs
        self.pipeline = DataTriagePipeline(
            catalog, query, self.config, domains, obs=obs
        )
        if self.pipeline.merge_spec is None:
            raise ValueError(
                "the service serves grouped aggregate queries; "
                "raw-mode (non-aggregate) queries have no per-window merge"
            )
        self.metrics = obs.registry if obs is not None else MetricsRegistry()
        self.sharded = self.service.shards > 1
        self._build_instruments()
        #: Rolling per-window accuracy/latency reports (newest last),
        #: exported in the STATS reply.
        self._window_reports: deque[WindowReport] = deque(maxlen=128)
        #: Recent attribution records (newest last) for STATS / `repro audit`.
        self._audit_attributions: deque[dict] = deque(maxlen=128)
        #: Attribution records accumulated since the last TELEMETRY push.
        self._pending_audit: list[dict] = []

        # SLO scoring: every closed window feeds measurements; evaluation
        # happens on the telemetry cadence (see tick()).
        slos = (
            self.service.slos
            if self.service.slos is not None
            else default_service_slos(self.config.window.width)
        )
        if self._ledger is not None:
            # Only append when auditing so an audit-off server's SLO set
            # (and therefore its STATS/TELEMETRY payloads) is unchanged.
            slos = list(slos) + audit_service_slos(self.config.window.width)
        self.slo = SLOEngine(slos, self.metrics)
        self._snapshotter = DeltaSnapshotter(self.metrics)
        self._telemetry_seq = 0
        self._last_telemetry: float | None = None
        self._telemetry_interval = self.service.telemetry_interval
        #: Window reports accumulated since the last TELEMETRY push.
        self._pending_reports: list[dict] = []
        #: Distributed-trace contexts attributed to still-open windows,
        #: echoed on the window's RESULT frame (bounded per window).
        self._window_traces: dict[int, list[dict]] = {}

        self._sources = self.pipeline.sources
        self._source_by_lower = {s.lower(): s for s in self._sources}
        if self.sharded and self.config.adaptive_staleness is not None:
            raise ValueError(
                "adaptive staleness control tunes in-process queue capacities "
                "and cannot steer shard workers; use shards=1 with it"
            )
        if self.sharded:
            self.plane = ShardedDataPlane(self.pipeline, self.service.shards)
            #: Sharded queues live inside worker processes; the in-process
            #: map is empty and introspection goes through the plane facade.
            self.queues: dict[str, TriageQueue] = {}
        else:
            self.plane = StreamDataPlane(self.pipeline)
            self.queues = self.plane.queues
        for s, capacity in self.plane.capacities().items():
            self._g_capacity.set(capacity, stream=s)
        #: Queue-stat snapshots already folded into ``triage_*_total``, and
        #: the hosted pattern engine's counters folded into ``cep_*_total``.
        self._folded_stats: dict[str, tuple] = {}
        self._folded_engine: dict[str, int] = {}
        self._fold_queue_stats()

        self.registry = SessionRegistry(
            max_sessions=self.service.max_sessions,
            rate_limit=self.service.rate_limit,
            burst=self.service.rate_burst
            if self.service.rate_burst is not None
            else (self.service.rate_limit or 1.0),
            send_queue_frames=self.service.send_queue_frames,
        )
        self._controllers: dict[str, LoadController] | None = None
        if self.config.adaptive_staleness is not None:
            self._controllers = {
                s: LoadController(
                    alpha=0.5, max_staleness=self.config.adaptive_staleness
                )
                for s in self._sources
            }

        #: Hosted CEP pattern query (attach_pattern), serial plane only.
        self.pattern: BoundPattern | None = None
        self._g_cep_runs = None

        self._server: asyncio.base_events.Server | None = None
        self._ticker_task: asyncio.Task | None = None
        self._conn_tasks: set[asyncio.Task] = set()
        self._t0: float | None = None
        self._last_tick = 0.0
        self._closing = False

    @property
    def _ledger(self) -> DropLedger | None:
        """The bundle's drop ledger (None when auditing is off)."""
        return self.obs.ledger if self.obs is not None else None

    @property
    def _sampler(self):
        """The bundle's sampling profiler (None when profiling is off)."""
        return self.obs.sampler if self.obs is not None else None

    async def _on_plane(self, fn, *args):
        """``fn(*args)``, awaited on a sharded plane: its RPC methods are
        coroutines whose worker replies arrive on this loop."""
        out = fn(*args)
        return await out if self.sharded else out

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def _build_instruments(self) -> None:
        m = self.metrics
        self._g_depth = m.gauge(
            "triage_queue_depth_now", "Current triage queue depth", ("stream",)
        )
        self._g_capacity = m.gauge(
            "triage_queue_capacity", "Current triage queue capacity", ("stream",)
        )
        self._h_depth = m.histogram(
            "triage_queue_depth",
            "Queue depth sampled at every engine tick",
            ("stream",),
            buckets=DEPTH_BUCKETS,
        )
        self._h_window_latency = m.histogram(
            "window_latency_seconds",
            "Window close → result emission delay (window-clock seconds)",
            buckets=LATENCY_BUCKETS,
        )
        self._g_sessions = m.gauge("service_sessions", "Live sessions")
        self._c_sessions = m.counter("service_sessions_total", "Sessions admitted")
        self._c_rejects = m.counter(
            "service_admission_rejects_total",
            "Connections/batches refused by admission control",
            ("reason",),
        )
        self._c_frames = m.counter(
            "service_frames_total", "Frames received by type", ("type",)
        )
        self._c_proto_errors = m.counter(
            "service_protocol_errors_total", "Protocol violations", ("code",)
        )
        self._c_rows = m.counter(
            "service_published_rows_total", "Rows accepted from publishers", ("stream",)
        )
        self._c_late = m.counter(
            "service_late_rows_total",
            "Rows discarded because their window already closed",
            ("stream",),
        )
        self._c_evictions = m.counter(
            "service_slow_consumer_evictions_total", "Subscribers evicted as slow"
        )
        self._c_results = m.counter(
            "service_results_total", "RESULT frames fanned out"
        )
        self._c_windows = m.counter(
            "service_windows_closed_total", "Windows closed and evaluated"
        )
        self._c_telemetry = m.counter(
            "service_telemetry_frames_total", "TELEMETRY frames fanned out"
        )
        self._c_traced = m.counter(
            "service_traced_batches_total",
            "PUBLISH batches that carried a trace context",
            ("stream",),
        )
        self._c_tick_errors = m.counter(
            "service_tick_errors_total",
            "Background ticks that raised (ticker keeps running)",
            ("error",),
        )
        self._g_ctrl: dict[str, object] = {
            name: m.gauge(f"controller_{name}", f"Load controller {name}", ("stream",))
            for name in ("arrival_rate", "drop_fraction", "recommended_capacity")
        }
        self._shard = shard_instruments(m) if self.sharded else None

    def _fold_queue_stats(self) -> None:
        """Bring ``triage_*_total`` (and, with a hosted pattern,
        ``cep_*_total``) up to what the plane's queues and engine counted.

        Called wherever the counters can be read: every tick, and right
        before a STATS reply, a TELEMETRY delta / SLO evaluation and the
        end of shutdown.  The same fold serves both planes; a sharded
        plane's snapshot is the one its workers shipped with the last tick.
        """
        fold_queue_stats(
            self.metrics, self.plane.stats_snapshot(), self._folded_stats
        )
        engine = self.plane.pattern_engine
        if engine is not None:
            fold_engine_stats(self.metrics, engine.stats, self._folded_engine)
        policy = self.config.policy
        if hasattr(policy, "bind_engine"):
            # Pattern-aware policy: with no engine bound (no --pattern) it
            # sheds pattern-blind; that must show, not pass for utility.
            fold_engine_stats(
                self.metrics, policy, self._folded_engine, POLICY_COUNTERS
            )

    # ------------------------------------------------------------------
    # CEP pattern hosting
    # ------------------------------------------------------------------
    def attach_pattern(
        self, pattern: "str | PatternStmt | BoundPattern", *, max_runs: int = 1024
    ):
        """Host a ``PATTERN SEQ(...)`` query beside the served aggregate.

        Every tuple the engine drain consumes from a pattern stream also
        steps the NFA (see :meth:`StreamDataPlane.attach_pattern`); matches
        accumulate in the plane and the engine's lifecycle counters are
        folded into the ``cep_*`` metrics.  When the configured drop policy
        is pattern-aware (it has a ``bind_engine`` hook, like
        :class:`~repro.cep.policy.PatternUtilityPolicy`), the live engine
        is bound into it so victim selection sees real partial-match state.
        Sharded planes cannot host patterns — a sequence NFA needs one
        totally-ordered consumer — so with ``shards > 1`` the plane refuses
        (:meth:`ShardedDataPlane.attach_pattern`).
        """
        if isinstance(pattern, str):
            pattern = parse_statement(pattern)
        if isinstance(pattern, PatternStmt):
            pattern = Binder(self.pipeline.catalog).bind_pattern(pattern)
        if not isinstance(pattern, BoundPattern):
            raise TypeError(f"not a pattern query: {pattern!r}")
        engine = self.plane.attach_pattern(pattern, max_runs=max_runs)
        bind = getattr(self.config.policy, "bind_engine", None)
        if bind is not None:
            bind(engine)
        self.pattern = pattern
        self._g_cep_runs = self.metrics.gauge(
            "cep_active_runs", "Live partial matches in the pattern engine"
        )
        self._fold_queue_stats()  # mints the (empty) cep_*_total family
        return engine

    def take_matches(self):
        """Pop pattern matches emitted since the last call (serial plane)."""
        return self.plane.take_matches()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def port(self) -> int:
        assert self._server is not None, "server not started"
        return self._server.sockets[0].getsockname()[1]

    def now(self) -> float:
        """Current window-clock time (seconds)."""
        if self.service.clock is not None:
            return self.service.clock()
        assert self._t0 is not None, "server not started"
        return asyncio.get_running_loop().time() - self._t0

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._on_connection,
            self.service.host,
            self.service.port,
            limit=protocol.MAX_FRAME_BYTES + 2,
        )
        self._t0 = asyncio.get_running_loop().time()
        self._last_tick = self.now()
        if self._sampler is not None:
            self._sampler.start()
        if self.service.tick_interval is not None:
            self._ticker_task = asyncio.get_running_loop().create_task(
                self._ticker()
            )

    async def _ticker(self) -> None:
        assert self.service.tick_interval is not None
        while True:
            await asyncio.sleep(self.service.tick_interval)
            try:
                await self.tick()
            except asyncio.CancelledError:
                raise
            except Exception as exc:  # noqa: BLE001 - ticker must survive
                # A failed tick (e.g. a shard worker lost between the engine
                # step and the close) must not kill the ticker: windows would
                # silently stop closing for every subscriber.  Count it and
                # try again next interval.
                self._c_tick_errors.inc(error=type(exc).__name__)

    async def shutdown(self) -> None:
        """Graceful shutdown: drain queues, flush final windows, say BYE."""
        if self._closing:
            return
        self._closing = True
        if self._ticker_task is not None:
            self._ticker_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._ticker_task
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        for task in list(self._conn_tasks):
            task.cancel()
        if self._conn_tasks:
            await asyncio.gather(*self._conn_tasks, return_exceptions=True)
        # Final drain: the engine "catches up" on everything still queued,
        # then every open window is evaluated and flushed to subscribers.
        now = self.now()
        try:
            try:
                # A sharded drain also refreshes the coordinator's snapshot,
                # so the forced close below sees every known window.
                await self._on_plane(self.plane.drain, None)
                self._fold_queue_stats()
                await self._close_windows(now, force=True)
                if self.obs is not None and self.sharded:
                    # Pull what no close reply carried (windowless ledger
                    # events, the workers' last samples) so the final ledger
                    # counts reconcile exactly with plane totals and the
                    # merged profile's total is the fleet total.
                    await self.plane.obs_sync()
            except ShardError as exc:
                # A lost shard worker: the final windows are lost with it,
                # but the sessions still deserve their BYE.
                self._c_tick_errors.inc(error=type(exc).__name__)
            await self.registry.close_all(farewell={"type": "BYE"})
            self._g_sessions.set(0)
        finally:
            if self._sampler is not None:
                self._sampler.stop()
            if self.sharded:
                self.plane.close()

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.get_running_loop().create_task(
            self._handle_connection(reader, writer)
        )
        self._conn_tasks.add(task)
        task.add_done_callback(self._conn_tasks.discard)

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Session | None = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            while True:
                try:
                    frame = await read_frame(reader, sender="client")
                except ProtocolError as exc:
                    self._c_proto_errors.inc(code=exc.code)
                    with contextlib.suppress(ConnectionError):
                        await session.send_now(exc.to_frame())
                    if exc.fatal:
                        return
                    continue
                if frame is None:
                    return
                self._c_frames.inc(type=frame["type"])
                try:
                    if not await self._dispatch(session, frame):
                        return
                except ShardError as exc:
                    # A shard worker this request needs is lost; the session
                    # (and requests the surviving workers serve) carries on.
                    err = ProtocolError("shard-unavailable", str(exc))
                    await session.send_now(err.to_frame())
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            if session is None:
                writer.close()
            elif not self._closing:
                # During shutdown the session stays registered so the final
                # window flush and BYE (registry.close_all) still reach it.
                self.registry.remove(session)
                self._g_sessions.set(len(self.registry.sessions))
                await session.close(flush=True)

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Session | None:
        """HELLO → WELCOME, or a refusal.  Returns None if refused."""

        def refuse(code: str, message: str) -> bytes:
            return protocol.encode_frame(
                ProtocolError(code, message, fatal=True).to_frame()
            )

        try:
            frame = await read_frame(reader, sender="client")
        except ProtocolError as exc:
            self._c_proto_errors.inc(code=exc.code)
            writer.write(protocol.encode_frame(exc.to_frame()))
            await writer.drain()
            return None
        if frame is None:
            return None
        if frame["type"] != "HELLO":
            self._c_proto_errors.inc(code="hello-required")
            writer.write(refuse("hello-required", "first frame must be HELLO"))
            await writer.drain()
            return None
        if frame["version"] > protocol.PROTOCOL_VERSION:
            self._c_proto_errors.inc(code="version-mismatch")
            writer.write(
                refuse(
                    "version-mismatch",
                    f"server speaks protocol {protocol.PROTOCOL_VERSION}, "
                    f"client asked for {frame['version']}",
                )
            )
            await writer.drain()
            return None
        try:
            session = self.registry.admit(writer, frame.get("client") or "")
        except AdmissionError as exc:
            self._c_rejects.inc(reason=exc.code)
            writer.write(refuse(exc.code, exc.message))
            await writer.drain()
            return None
        self._c_sessions.inc()
        self._g_sessions.set(len(self.registry.sessions))
        streams = {}
        for s in self._sources:
            schema = self.pipeline.bound.source(s).schema
            streams[s] = [[c.name, c.type.value] for c in schema.columns]
        await session.send_now(
            {
                "type": "WELCOME",
                "version": protocol.PROTOCOL_VERSION,
                "session": session.id,
                # The server's window clock, so publishers can rebase
                # replayed timestamps instead of landing in closed windows.
                "now": self.now(),
                "streams": streams,
                "window": {
                    "width": self.config.window.width,
                    "slide": self.config.window.hop,
                },
            }
        )
        return session

    # ------------------------------------------------------------------
    # Frame dispatch
    # ------------------------------------------------------------------
    async def _dispatch(self, session: Session, frame: dict) -> bool:
        """Handle one frame; False ends the connection."""
        ftype = frame["type"]
        if ftype == "DECLARE":
            return await self._handle_declare(session, frame)
        if ftype == "SUBSCRIBE":
            session.subscribed = True
            reply = {"type": "OK", "subscribed": True}
            if frame.get("telemetry"):
                session.telemetry = True
                requested = frame.get("telemetry_interval")
                if requested is not None and self._telemetry_interval is not None:
                    # The push cadence is server-wide; a subscriber may only
                    # tighten it (the frequent reader sets the pace).
                    self._telemetry_interval = min(
                        self._telemetry_interval, float(requested)
                    )
                reply["telemetry"] = True
                reply["telemetry_interval"] = self._telemetry_interval
            await session.send_now(reply)
            return True
        if ftype == "PUBLISH":
            return await self._handle_publish(session, frame)
        if ftype == "STATS":
            return await self._handle_stats(session, frame)
        if ftype == "BYE":
            await session.send_now({"type": "OK", "bye": True})
            return False
        # A client sent a server-side frame type: legal JSON, wrong role.
        self._c_proto_errors.inc(code="unexpected-type")
        await session.send_now(
            ProtocolError(
                "unexpected-type", f"clients do not send {ftype} frames"
            ).to_frame()
        )
        return True

    def _resolve_stream(self, name: str) -> str | None:
        return self._source_by_lower.get(name.lower())

    async def _handle_declare(self, session: Session, frame: dict) -> bool:
        source = self._resolve_stream(frame["stream"])
        if source is None:
            await session.send_now(
                ProtocolError(
                    "unknown-stream",
                    f"stream {frame['stream']!r} is not part of the served "
                    f"query (streams: {', '.join(self._sources)})",
                ).to_frame()
            )
            return True
        session.declared.add(source)
        schema = self.pipeline.bound.source(source).schema
        await session.send_now(
            {
                "type": "OK",
                "stream": source,
                "columns": [[c.name, c.type.value] for c in schema.columns],
            }
        )
        return True

    async def _handle_publish(self, session: Session, frame: dict) -> bool:
        source = self._resolve_stream(frame["stream"])
        if source is None or source not in session.declared:
            code = "unknown-stream" if source is None else "undeclared-stream"
            await session.send_now(
                ProtocolError(
                    code,
                    f"declare stream {frame['stream']!r} before publishing to it",
                ).to_frame()
            )
            return True
        rows = frame.get("rows")
        cols = frame.get("cols")
        nrows = len(rows) if rows is not None else (len(cols[0]) if cols else 0)
        now = self.now()
        if not session.bucket.try_consume(nrows, now):
            self._c_rejects.inc(reason="rate-limited")
            await session.send_now(
                ProtocolError(
                    "rate-limited",
                    f"batch of {nrows} rows exceeds this session's "
                    f"rate allowance; retry later",
                ).to_frame()
            )
            return True
        try:
            if rows is None and cols:
                # Columnar framing: the batch stays column-major end to
                # end — validated column-wise and offered to the triage
                # queue as a ColumnBatch; no coordinator-side pivot to
                # row tuples (and, sharded, no per-row pickling either).
                accepted, late, depth, dropped_total = await self.ingest_rows(
                    source,
                    cols,
                    columnar=True,
                    timestamps=frame.get("timestamps"),
                    now=now,
                    trace=frame.get("trace"),
                )
            else:
                validate = True
                if rows is None:
                    # cols == [] carries no column structure to
                    # arity-check: it is the columnar spelling of an empty
                    # batch (the client's zero-row pivot produces it) and
                    # must ack accepted=0 exactly like rows == [].
                    rows = []
                    validate = False
                accepted, late, depth, dropped_total = await self.ingest_rows(
                    source,
                    rows,
                    timestamps=frame.get("timestamps"),
                    now=now,
                    trace=frame.get("trace"),
                    validate=validate,
                )
        except SchemaError as exc:
            await session.send_now(ProtocolError("bad-row", str(exc)).to_frame())
            return True
        session.published_rows += accepted
        self._c_rows.inc(accepted, stream=source)
        self._g_depth.set(depth, stream=source)
        await session.send_now(
            {
                "type": "OK",
                "stream": source,
                "accepted": accepted,
                "late": late,
                "queue_depth": depth,
                "queue_dropped_total": dropped_total,
            }
        )
        return True

    async def ingest_rows(
        self,
        source: str,
        rows,
        timestamps=None,
        now: float | None = None,
        trace: dict | None = None,
        validate: bool = True,
        columnar: bool = False,
    ) -> tuple[int, int, int, int]:
        """Validate, window-account, and enqueue a batch for ``source``.

        Returns ``(accepted, late, queue_depth, queue_dropped_total)`` —
        the ack quad PUBLISH reports as backpressure signals.  Raises
        :class:`SchemaError` (prefixed with the row index) if any row is
        invalid; the batch is rejected atomically.  This is the publish hot
        path behind the PUBLISH handler; the actual work happens in the
        data plane (in-process, or one shard worker over its pipe — the
        only step that awaits).

        ``columnar=True`` means ``rows`` is the ``cols`` encoding (one
        value list per schema column); it is routed to the plane's
        :meth:`~repro.service.dataplane.StreamDataPlane.ingest_columns`
        and never pivoted to row tuples coordinator-side.

        ``trace`` is a ``{trace_id, parent}`` context from a traced PUBLISH:
        see :meth:`_ingest_traced`.  Untraced batches (``trace=None``, the
        common case) skip all of it.
        """
        now = self.now() if now is None else now
        ingest = self.plane.ingest_columns if columnar else self.plane.ingest
        if trace is None:
            out = await self._on_plane(ingest, source, rows, timestamps, now, validate)
        else:
            out = await self._ingest_traced(
                ingest, trace, source, rows, timestamps, now, validate, columnar
            )
        _, late, depth, _ = out
        if late:
            ledger = self._ledger
            self._c_late.inc(late, stream=source)
            if ledger is not None:
                # Edge shedding: rows refused coordinator-side because their
                # window already closed.  No window bucket (the window is
                # gone), so these land in the ledger's unattributed pool.
                ledger.record(
                    "edge_shed",
                    policy="admission",
                    stream=source,
                    windows=(),
                    timestamp=now,
                    depth=depth,
                    count=late,
                    trace_id=trace["trace_id"] if trace is not None else None,
                )
        return out

    async def _ingest_traced(
        self, ingest, trace, source, rows, timestamps, now, validate, columnar
    ) -> tuple[int, int, int, int]:
        """:meth:`ingest_rows` for a traced PUBLISH: the batch's queue events
        inherit the trace, a flow *step* draws the client→server arrow, an
        ``ingest`` span times the call, and the batch's windows remember the
        context for the RESULT echo.  The tracer context and the ledger's
        trace id wrap the synchronous plane call only — never an await,
        across which another connection's events would inherit them."""
        self._c_traced.inc(stream=source)
        trace_id, parent = trace["trace_id"], trace.get("parent")
        ledger = self._ledger
        tracer = self.obs.tracer if self.obs is not None else NULL_TRACER
        tracer.set_context(trace_id, parent)
        tracer.flow("publish", trace_id, phase="t", source=source)
        start = tracer.now()
        if ledger is not None:
            ledger.set_trace(trace_id)
        try:
            try:
                out = ingest(source, rows, timestamps, now, validate)
            finally:
                tracer.clear_context()
                if ledger is not None:
                    ledger.set_trace(None)
            if self.sharded:
                out = await out
        finally:
            nrows = (len(rows[0]) if rows else 0) if columnar else len(rows)
            tracer.set_context(trace_id, parent)
            tracer.complete("ingest", start, cat="service", source=source, rows=nrows)
            tracer.clear_context()
        # Window attribution happens coordinator-side (the plane may be in
        # another process): the batch's timestamps name its windows.
        ids = self.config.window.ids
        last_closed = self.plane.last_closed_wid
        traced_wids: set[int] = set()
        for ts in (now,) if timestamps is None else timestamps:
            wids = ids(float(ts))
            if last_closed is not None and (not wids or wids[0] <= last_closed):
                continue
            traced_wids.update(wids)
        ctx = {"trace_id": trace_id, "parent": parent or trace_id}
        for wid in traced_wids:
            contexts = self._window_traces.setdefault(wid, [])
            if len(contexts) < MAX_WINDOW_TRACES and ctx not in contexts:
                contexts.append(ctx)
        return out

    async def _handle_stats(self, session: Session, frame: dict) -> bool:
        self._fold_queue_stats()
        fmt = frame.get("format") or "json"
        if fmt == "prometheus":
            reply = {"type": "STATS", "prometheus": self.metrics.render_prometheus()}
        else:
            reply = {
                "type": "STATS",
                "metrics": self.metrics.to_dict(),
                "summary": self._summary(),
                "window_reports": [r.to_dict() for r in self._window_reports],
            }
            if self._ledger is not None:
                reply["audit"] = {
                    "summary": self._ledger.summary(),
                    "attributions": list(self._audit_attributions),
                }
            if self._sampler is not None:
                want = frame.get("profile")
                if want and self.sharded:
                    # Live capture wants the fleet-wide view: absorb the
                    # workers' sample deltas before exporting.
                    await self.plane.obs_sync()
                reply["prof"] = self._prof_block(live=want)
        await session.send_now(reply)
        return True

    def _prof_block(self, live=None) -> dict:
        """The ``prof`` block for STATS/TELEMETRY: summary + top frames.

        ``live`` (a STATS request's ``profile`` field) additionally attaches
        a bounded collapsed export — ``True`` uses the default stack-line
        bound, an integer overrides it — which is the on-demand live-capture
        path: the client asks, the server answers from the running sampler.
        """
        from repro.obs.prof import top_functions

        sampler = self._sampler
        counts = sampler.snapshot()
        block = {
            "summary": sampler.summary(),
            "top": [
                {"function": fn, "self_share": round(share, 6)}
                for fn, share in top_functions(counts, 10)
            ],
        }
        if live:
            limit = live if isinstance(live, int) and live is not True else 200
            block["collapsed"] = sampler.export_collapsed(limit=limit)
        return block

    def _summary(self) -> dict:
        offered, dropped = self.plane.totals()
        summary = self._telemetry_summary()
        summary.update(
            {
                "offered": offered,
                "dropped": dropped,
                "drop_fraction": dropped / offered if offered else 0.0,
                "queue_depths": self.plane.depths(),
                "windows": summarize_reports(list(self._window_reports)),
                "slo": self.slo.status(),
            }
        )
        if self.pattern is not None:
            summary["pattern"]["within"] = self.pattern.within
        return summary

    # ------------------------------------------------------------------
    # Engine emulation + window closing
    # ------------------------------------------------------------------
    async def tick(self, now: float | None = None) -> list[dict]:
        """One engine step: drain within budget, close due windows.

        Returns the RESULT frames emitted this tick (tests use this).  A
        tick whose engine step finds a shard worker lost emits nothing and
        counts ``service_tick_errors_total{error="ShardError"}``.
        """
        now = self.now() if now is None else now
        elapsed = max(0.0, now - self._last_tick)
        self._last_tick = now
        try:
            await self._on_plane(self.plane.advance, elapsed)
        except ShardError as exc:
            self._c_tick_errors.inc(error=type(exc).__name__)
            return []
        self._fold_queue_stats()

        for s, depth in self.plane.depths().items():
            self._g_depth.set(depth, stream=s)
            self._h_depth.observe(depth, stream=s)
            if self.sharded:
                self._shard["depth"].set(
                    depth, shard=str(self.plane.assignment[s]), stream=s
                )

        if self._g_cep_runs is not None:
            self._g_cep_runs.set(self.plane.pattern_engine.active_runs)

        if self._controllers is not None and elapsed > 0:
            for s, controller in self._controllers.items():
                est = controller.observe(
                    interval_seconds=elapsed, stats=self.queues[s].stats
                )
                capacity = controller.recommended_capacity(self.config.service_time)
                self.queues[s].capacity = capacity
                self._g_capacity.set(capacity, stream=s)
                self._g_ctrl["arrival_rate"].set(est.arrival_rate, stream=s)
                self._g_ctrl["drop_fraction"].set(est.drop_fraction, stream=s)
                self._g_ctrl["recommended_capacity"].set(capacity, stream=s)

        emitted = await self._close_windows(now)
        await self._maybe_push_telemetry(now)
        return emitted

    async def _maybe_push_telemetry(self, now: float) -> None:
        """Evaluate SLOs and push one TELEMETRY frame if the interval is up.

        SLO evaluation runs on this cadence even with nobody listening, so
        the ``slo_*`` gauges and the STATS ``slo`` summary stay current; the
        frame itself is only built and fanned out when at least one session
        opted in.  Slow telemetry consumers are evicted exactly like slow
        RESULT subscribers.
        """
        interval = self._telemetry_interval
        if interval is None:
            return
        if (
            self._last_telemetry is not None
            and now - self._last_telemetry < interval
        ):
            return
        self._last_telemetry = now
        self._fold_queue_stats()
        alerts = self.slo.evaluate(now)
        subscribers = self.registry.telemetry_subscribers()
        if not subscribers:
            self._pending_reports.clear()
            self._pending_audit.clear()
            return
        self._telemetry_seq += 1
        frame = {
            "type": "TELEMETRY",
            "seq": self._telemetry_seq,
            "now": now,
            "interval": interval,
            "metrics": self._snapshotter.delta(),
            "reports": self._pending_reports,
            "alerts": [a.to_dict() for a in alerts],
            "firing": self.slo.firing,
            "slo": self.slo.status(),
            "summary": self._telemetry_summary(),
        }
        if self._ledger is not None:
            frame["audit"] = {
                "summary": self._ledger.summary(),
                "attributions": self._pending_audit,
            }
            self._pending_audit = []
        if self._sampler is not None:
            frame["prof"] = self._prof_block()
        self._pending_reports = []
        self._c_telemetry.inc(len(subscribers))
        evicted = await self.registry.broadcast(frame, group="telemetry")
        if evicted:
            self._c_evictions.inc(len(evicted))
            self._g_sessions.set(len(self.registry.sessions))

    def _telemetry_summary(self) -> dict:
        """The compact rollup a dashboard needs every interval."""
        offered, dropped = self.plane.totals()
        summary = {
            "queue_depth": sum(self.plane.depths().values()),
            "queue_capacity": sum(self.plane.capacities().values()),
            "sessions": len(self.registry.sessions),
            "windows_closed": int(self._c_windows.value()),
            "tuples_arrived": offered,
            "tuples_shed": dropped,
        }
        if self.sharded:
            summary["shards"] = {
                str(i): d for i, d in self.plane.shard_depths().items()
            }
        if self.pattern is not None:
            engine = self.plane.pattern_engine
            stats = engine.stats
            summary["pattern"] = {
                "streams": list(self.pattern.streams),
                "active_runs": engine.active_runs,
                "runs_started": stats.runs_started,
                "runs_expired": stats.runs_expired,
                "runs_shed": stats.runs_shed,
                "events": stats.events,
                "matches": stats.matches,
            }
        return summary

    async def _close_windows(self, now: float, *, force: bool = False) -> list[dict]:
        """Evaluate + broadcast every window that is due (all, if forced).

        Due windows are collected first and evaluated as one batch through
        :meth:`DataTriagePipeline.evaluate_windows`, so a backlog of closes
        (e.g. after a stall) is one evaluation call and one broadcast pass.
        """
        if force:
            due = sorted(self.plane.known_windows)
        else:
            due = self.plane.due_windows(now, self.service.grace)
        if not due:
            return []
        emitted = await self._evaluate_windows_frames(due, now)
        for frame in emitted:
            self._c_results.inc(len(self.registry.subscribers()))
            evicted = await self.registry.broadcast(frame)
            if evicted:
                self._c_evictions.inc(len(evicted))
                self._g_sessions.set(len(self.registry.sessions))
        return emitted

    async def _evaluate_windows_frames(
        self, wids: list[int], now: float
    ) -> list[dict]:
        """Close, evaluate, and frame a batch of windows.

        The plane closes them and hands back their
        :class:`~repro.core.merge.WindowPartials` (sharded planes merge one
        per worker first); evaluation then runs through the same
        :meth:`DataTriagePipeline.evaluate_windows` at any shard count,
        which is what keeps results byte-identical.
        """
        partials = await self._on_plane(self.plane.collect, list(wids))
        if self.sharded:
            for shard in set(self.plane.assignment.values()):
                self._shard["merged"].inc(len(wids), shard=str(shard))
            self._shard["merge_seconds"].observe(self.plane.last_merge_seconds)
        trace_ids = None
        if (
            self._window_traces
            and self.obs is not None
            and self.obs.tracer.enabled
        ):
            trace_ids = {
                w: [c["trace_id"] for c in self._window_traces[w]]
                for w in wids
                if w in self._window_traces
            } or None
        outcomes = self.pipeline.evaluate_windows(partials, None, trace_ids)
        framed = [self._frame_outcome(o, now) for o in outcomes]
        if self._ledger is not None:
            # Attribution join: sharded planes shipped worker ledger state
            # during collect() above, so by now the coordinator ledger holds
            # every shed decision for these windows at any shard count.
            self._attribute_closed_windows([r for _, r in framed], now)
        return [frame for frame, _ in framed]

    def _attribute_closed_windows(
        self, reports: list[WindowReport], now: float
    ) -> None:
        """Join the ledger's per-window shed aggregates against the
        :class:`WindowReport` rows this close just built, producing
        quality-cost records.

        The live service has no ideal reference (``rms_error`` is None), so
        the error basis degrades to the window's shed fraction — still a
        meaningful burn signal for the ``attributed_error_burn`` SLO.
        """
        taken = self._ledger.take_windows([r.window_id for r in reports])
        if not taken:
            return
        for record in attribute_reports(taken, reports):
            self._audit_attributions.append(record)
            if self._telemetry_interval is not None:
                self._pending_audit.append(record)
                del self._pending_audit[:-256]  # bound a subscriber-less gap
            self.slo.observe("attributed_error_burn", record["error"], now)

    def _frame_outcome(self, outcome, now: float) -> tuple[dict, WindowReport]:
        """The RESULT frame of one evaluated window, and its report."""
        wid = outcome.window_id
        start, end = self.config.window.bounds(wid)
        latency = max(0.0, now - end)
        self._h_window_latency.observe(latency)
        self._c_windows.inc()

        spec = self.pipeline.merge_spec
        groups = []
        for key in sorted(outcome.merged, key=lambda k: tuple(map(str, k))):
            groups.append(
                {
                    "key": list(key),
                    "aggs": outcome.merged[key],
                    "exact": outcome.exact.get(key),
                    "estimated": outcome.estimated.get(key),
                }
            )
        arrived_total = sum(outcome.arrived.values())
        dropped_total = sum(outcome.dropped.values())
        shed_ratio = dropped_total / arrived_total if arrived_total else 0.0
        report = WindowReport(
            window_id=wid,
            start=start,
            end=end,
            arrived=arrived_total,
            kept=sum(outcome.kept.values()),
            dropped=dropped_total,
            result_latency=latency,
            rms_error=None,  # the live service has no ideal reference
            phase_seconds=(
                self.obs.phase_seconds.pop(wid, {})
                if self.obs is not None
                else {}
            ),
        )
        self._window_reports.append(report)
        if self._telemetry_interval is not None:
            self._pending_reports.append(report.to_dict())
            del self._pending_reports[:-256]  # bound a subscriber-less gap
        self.slo.observe("window_staleness", latency, now)
        self.slo.observe("result_latency_p99", latency, now)
        self.slo.observe("shed_ratio", shed_ratio, now)
        frame = {
            "type": "RESULT",
            "window": wid,
            "start": start,
            "end": end,
            "group_names": list(spec.group_names),
            "groups": groups,
            "arrived": outcome.arrived,
            "kept": outcome.kept,
            "dropped": outcome.dropped,
            "drop_fraction": shed_ratio,
            "latency": latency,
        }
        traces = self._window_traces.pop(wid, None)
        if traces:
            frame["traces"] = traces
            if self.obs is not None and self.obs.tracer.enabled:
                for ctx in traces:
                    self.obs.tracer.flow(
                        "result", ctx["trace_id"], phase="t", window=wid
                    )
        return frame, report
