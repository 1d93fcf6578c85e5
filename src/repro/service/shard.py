"""Sharded service data plane: N triage worker processes, one coordinator.

Distributed shedding systems (eSPICE, the CEP load-shedding line of work)
keep per-partition drop decisions local and merge only summaries centrally;
Data Triage's per-stream queues and mergeable synopses already have exactly
that shape, so the service shards embarrassingly: **streams are
hash-partitioned across worker processes** (:func:`shard_of`, a stable
CRC32 of the source name — no per-run salt, so placement is reproducible),
each worker runs a full :class:`~repro.service.dataplane.StreamDataPlane`
over its owned sources (its own TriageQueues, drop policies, and engine
drain budget — N shards model N cores of engine), and at window close each
ships a :class:`~repro.core.merge.WindowPartials` back over its pipe.  The
coordinator folds partials with :func:`~repro.core.merge.merge_partials`
and evaluates them through the *same*
:meth:`DataTriagePipeline.evaluate_windows` the serial server uses — which
is why results are byte-identical at any shard count (the shard
determinism tests in ``tests/service/test_shard.py`` pin this).

Workers are forked (:func:`repro.perf.parallel.fork_context`) and primed
with the same pickled pipeline payload as the window-evaluation pool
(:func:`repro.perf.parallel.pipeline_payload`); queue seeds derive from
each source's global chain position, so a worker owning only ``S`` sheds
exactly what the serial server would.

Wire discipline: one pipe per worker, strictly one reply per command, FIFO.
That gives RPC semantics without a framing layer and guarantees a
worker's ``close`` reply reflects every ingest sent before it.

Coordinator threads share workers: publisher executor threads run
:meth:`ShardedDataPlane.ingest` (a synchronous :meth:`_ShardWorker.call`)
while the server's ticker runs ``advance``/``collect`` (a broadcast
``submit`` followed by a ``flush``) in another executor thread.  Reply
routing therefore cannot assume a conversation owns the pipe: a ``call``
that lands between another thread's submit and flush will receive that
conversation's replies first (FIFO).  :class:`_ShardWorker` keeps those
early replies in a per-worker backlog instead of discarding them, so the
interleaved flush still collects every reply it is owed — no tick, close,
or ingest ack is ever lost to a concurrent RPC.
"""

from __future__ import annotations

import signal
import threading
import time
import zlib

from repro.core.merge import WindowPartials, merge_partials
from repro.core.triage_queue import QueueStats
from repro.engine.types import SchemaError
from repro.perf.parallel import (
    build_pipeline_from_payload,
    fork_context,
    pipeline_payload,
)
from repro.service.dataplane import StreamDataPlane, due_windows

__all__ = ["ShardedDataPlane", "ShardError", "shard_of"]


def shard_of(source: str, nshards: int) -> int:
    """Stable source→shard assignment: CRC32 of the folded name, mod N."""
    return zlib.crc32(source.lower().encode("utf-8")) % nshards


class ShardError(RuntimeError):
    """A shard worker failed or answered out of protocol."""


def _worker_main(conn, payload: bytes, owned: list[str], obs_spec) -> None:
    """Shard worker loop: commands in, exactly one reply each, FIFO.

    ``obs_spec`` (:meth:`repro.obs.Observability.worker_spec`, or None)
    says which observability parts this worker keeps locally; what they
    see goes home as one ``{name: delta}`` table on every ``close`` reply
    and on ``obs_ship``.
    """
    # A foreground Ctrl-C signals the whole process group; shutdown must
    # stay coordinator-driven (the "stop" command) or workers die mid-RPC
    # and the coordinator's graceful drain sees a broken pipe.
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):  # pragma: no cover - non-main thread
        pass
    obs = None
    if obs_spec is not None:
        from repro.obs import Observability

        obs = Observability.from_worker_spec(obs_spec)
    plane = StreamDataPlane(
        build_pipeline_from_payload(payload, obs), sources=owned
    )
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op == "ingest":
                _, source, rows, timestamps, now, validate = msg
                reply = plane.ingest(
                    source, rows, timestamps, now, validate=validate
                )
            elif op == "ingest_cols":
                _, source, cols, timestamps, now, validate = msg
                reply = plane.ingest_columns(
                    source, cols, timestamps, now, validate=validate
                )
            elif op == "tick":
                _, elapsed = msg
                if elapsed > 0:
                    plane.advance(elapsed)
                reply = {
                    "depths": plane.depths(),
                    "heads": plane.heads(),
                    "stats": plane.stats_snapshot(),
                    "known": sorted(plane.known_windows),
                }
            elif op == "drain":
                _, budget = msg
                plane.drain(budget)
                reply = plane.depths()
            elif op == "close":
                wids = list(msg[1])
                reply = (
                    plane.collect(wids),
                    obs.ship(wids) if obs is not None else None,
                )
            elif op == "obs_ship":
                reply = obs.ship(msg[1]) if obs is not None else None
            elif op == "stop":
                conn.send(("ok", True))
                break
            else:
                raise ShardError(f"unknown shard command {op!r}")
        except Exception as exc:  # noqa: BLE001 - becomes a typed reply
            try:
                conn.send(("err", type(exc).__name__, str(exc)))
            except (OSError, ValueError):
                break
            continue
        conn.send(("ok", reply))
    conn.close()


class _ShardWorker:
    """Coordinator-side handle: process, pipe, and reply bookkeeping.

    The pipe is FIFO with exactly one reply per command, but coordinator
    threads interleave conversations on it: a publisher's synchronous
    :meth:`call` can land between the ticker's :meth:`submit` and its
    :meth:`flush`.  The lock pairs each send with its drain; the
    ``_backlog`` keeps replies a :meth:`call` had to read past (they
    belong to the open submit/flush conversation) so the later flush
    still receives them — nothing is ever discarded.
    """

    def __init__(self, index: int, sources: list[str], process, conn) -> None:
        self.index = index
        self.sources = sources
        self.process = process
        self.conn = conn
        #: Sends whose replies have not been read off the pipe yet.
        self.pending = 0
        #: Replies read past by an interleaved call(), owed to a flush().
        self._backlog: list = []
        # Serializes send/recv pairing when publisher executor threads and
        # the ticker talk to the same worker concurrently.
        self.lock = threading.Lock()

    def submit(self, msg: tuple) -> None:
        """Send without waiting; the reply is owed (FIFO) to a later flush."""
        with self.lock:
            self.conn.send(msg)
            self.pending += 1

    def flush(self) -> list:
        """Collect every owed reply, oldest first.

        Includes replies an interleaved :meth:`call` already read off the
        pipe on this conversation's behalf (the backlog), then whatever is
        still in flight.
        """
        with self.lock:
            replies = self._backlog
            self._backlog = []
            replies.extend(self._drain())
            return replies

    def call(self, msg: tuple):
        """Synchronous RPC: send, then wait; returns *this* command's reply.

        FIFO means any replies owed to an open submit/flush conversation
        arrive first; they are parked in the backlog for that
        conversation's flush, never dropped.
        """
        with self.lock:
            owed = self.pending
            self.conn.send(msg)
            self.pending += 1
            replies = self._drain()
            self._backlog.extend(replies[:owed])
            return replies[owed]

    def _drain(self) -> list:
        replies = []
        while self.pending:
            try:
                replies.append(self.conn.recv())
            except (EOFError, OSError) as exc:
                self.pending = 0
                raise ShardError(
                    f"shard {self.index} died mid-conversation"
                ) from exc
            self.pending -= 1
        return replies


def _one_reply(worker: _ShardWorker):
    """The reply to a one-command broadcast conversation (submit → flush).

    Raises :class:`ShardError` instead of an ``IndexError`` if the worker
    produced nothing (it died and a concurrent RPC already reaped the
    error), so callers see the same failure either way.
    """
    replies = worker.flush()
    if not replies:
        raise ShardError(f"shard {worker.index} returned no reply")
    return replies[-1]


def _unwrap(reply):
    """Turn a worker reply into a value or the typed exception it carries."""
    status = reply[0]
    if status == "ok":
        return reply[1]
    _, exc_type, message = reply
    if exc_type == "SchemaError":
        raise SchemaError(message)
    raise ShardError(f"{exc_type}: {message}")


class ShardedDataPlane:
    """Hash-partitioned triage across worker processes, merge-at-close.

    Duck-type compatible with :class:`~repro.service.dataplane.StreamDataPlane`
    for everything :class:`~repro.service.server.TriageServer` needs —
    ``ingest``/``advance``/``drain``/``due_windows``/``collect`` plus the
    introspection facade — so the server picks a plane once at
    construction and the rest of its code is shard-blind.

    Coordinator-side views (depths, heads, known windows, queue stats) are
    refreshed from tick snapshots and may be one tick stale — the same
    staleness tolerance the queues' unlocked stats reads already have.
    """

    def __init__(self, pipeline, shards: int) -> None:
        """Fork ``shards`` workers, each primed with ``pipeline``'s recipe.

        When ``pipeline.obs`` carries a ledger or a sampler, each worker
        keeps a local one (its ledger seeded by shard index — that RNG only
        samples exemplars, never decides a drop) and ships what it saw back
        with every ``close`` reply, where :meth:`collect` absorbs it into
        ``pipeline.obs`` — the observability analogue of ``merge_partials``.
        The coordinator's sampler is never started here: a pure merge
        target stays stopped, so its total is exactly the workers' sum.
        """
        if shards < 2:
            raise ValueError(
                "ShardedDataPlane needs >= 2 shards; use StreamDataPlane "
                "(the serial fallback) for shards=1"
            )
        self.pipeline = pipeline
        self.config = pipeline.config
        self.nshards = shards
        self.sources: list[str] = list(pipeline.sources)
        self.assignment: dict[str, int] = {
            s: shard_of(s, shards) for s in self.sources
        }
        self.known_windows: set[int] = set()
        self.last_closed_wid: int | None = None
        self._depths: dict[str, int] = {s: 0 for s in self.sources}
        self._heads: dict[str, float | None] = {s: None for s in self.sources}
        self._stats: dict[str, tuple] = {
            s: QueueStats().snapshot() for s in self.sources
        }
        #: Coordinator seconds the last :meth:`collect` spent merging.
        self.last_merge_seconds = 0.0
        self._obs = pipeline.obs
        payload = pipeline_payload(pipeline)
        ctx = fork_context()
        self.workers: list[_ShardWorker] = []
        for i in range(shards):
            owned = [s for s in self.sources if self.assignment[s] == i]
            parent_conn, child_conn = ctx.Pipe()
            spec = (
                self._obs.worker_spec(seed=i + 1)
                if self._obs is not None
                else None
            )
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, payload, owned, spec),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            proc.start()
            child_conn.close()
            self.workers.append(_ShardWorker(i, owned, proc, parent_conn))
        self._closed = False

    # ------------------------------------------------------------------
    # CEP pattern hosting (refused: needs one totally-ordered consumer)
    # ------------------------------------------------------------------
    @property
    def pattern_engine(self):
        """Sharded planes never host a pattern engine."""
        return None

    def attach_pattern(self, pattern, **kwargs):
        """Always refuses: a sequence NFA needs one ordered consumer.

        Hash-partitioned shards each drain their own sources concurrently,
        so no shard observes the totally-ordered event sequence a
        ``PATTERN SEQ(...)`` NFA requires.  Raise the actionable error here
        too — not just at the server door — so embedders driving the plane
        directly get told about the ``--shards`` restriction instead of an
        ``AttributeError``.
        """
        raise ValueError(
            f"pattern queries are not supported on a sharded data plane "
            f"(shards={self.nshards}): a PATTERN SEQ NFA needs one "
            f"totally-ordered event consumer. Re-run with --shards 1 "
            f"(the serial StreamDataPlane) to attach a pattern."
        )

    # ------------------------------------------------------------------
    # Observability channel
    # ------------------------------------------------------------------
    def obs_sync(self) -> None:
        """Pull everything the workers' local parts still hold.

        Closing windows already bring their deltas home on the ``close``
        reply; this is for what no close carries — windowless ledger
        events, samples since the last close — at shutdown and for a live
        profile capture.  Deltas are additive, so syncing any number of
        times never double counts.
        """
        if self._obs is None:
            return
        for worker in self.workers:
            worker.submit(("obs_ship", None))
        for worker in self.workers:
            table = _unwrap(_one_reply(worker))
            if table is not None:
                self._obs.absorb(table)

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def _worker_for(self, source: str) -> _ShardWorker:
        return self.workers[self.assignment[source]]

    def ingest(
        self,
        source: str,
        rows,
        timestamps=None,
        now: float = 0.0,
        validate: bool = True,
    ) -> tuple[int, int, int, int]:
        """Synchronous routed ingest; same ack quad as the serial plane."""
        reply = self._worker_for(source).call(
            ("ingest", source, rows, timestamps, now, validate)
        )
        accepted, late, depth, dropped = _unwrap(reply)
        self._depths[source] = depth
        return accepted, late, depth, dropped

    def ingest_columns(
        self,
        source: str,
        cols,
        timestamps=None,
        now: float = 0.0,
        validate: bool = True,
    ) -> tuple[int, int, int, int]:
        """Columnar routed ingest: the ``cols`` encoding crosses the pipe
        as-is (column lists pickle as a handful of large objects instead of
        one tuple per row) and the worker offers it without ever pivoting
        to rows — see :meth:`StreamDataPlane.ingest_columns`."""
        reply = self._worker_for(source).call(
            ("ingest_cols", source, cols, timestamps, now, validate)
        )
        accepted, late, depth, dropped = _unwrap(reply)
        self._depths[source] = depth
        return accepted, late, depth, dropped

    # ------------------------------------------------------------------
    # Engine emulation + window close
    # ------------------------------------------------------------------
    def advance(self, elapsed: float) -> None:
        """Tick every shard concurrently; refresh the coordinator's view.

        Each worker drains with the *full* ``elapsed / service_time``
        budget: a shard is one core's worth of engine, so N shards are an
        N-times-wider standard path (documented in docs/performance.md).
        """
        for worker in self.workers:
            worker.submit(("tick", elapsed))
        for worker in self.workers:
            snap = _unwrap(_one_reply(worker))
            self._depths.update(snap["depths"])
            self._heads.update(snap["heads"])
            self._stats.update(snap["stats"])
            self.known_windows.update(snap["known"])

    def drain(self, budget: int | None) -> None:
        """Explicit drain (shutdown path); each shard gets the full budget."""
        for worker in self.workers:
            worker.submit(("drain", budget))
        for worker in self.workers:
            depths = _unwrap(_one_reply(worker))
            self._depths.update(depths)
            for s in depths:
                self._heads[s] = None if budget is None else self._heads[s]

    def due_windows(self, now: float, grace: float = 0.0) -> list[int]:
        """The serial close rule over the coordinator's snapshot."""
        return due_windows(
            self.known_windows, self._heads.values(), self.config.window, now, grace
        )

    def collect(self, wids: list[int]) -> WindowPartials:
        """Ship, merge and close a batch of windows.

        Workers collect concurrently (close is broadcast before any reply
        is awaited) and close the windows on their side, so a worker's
        late-row watermark advances in the same FIFO turn — an ingest
        racing the close is ordered by the pipe, exactly as the serial
        plane orders it by the GIL.  The coordinator's own watermark and
        head snapshot follow once every reply is in.
        """
        wids = list(wids)
        for worker in self.workers:
            worker.submit(("close", wids))
        parts: list[WindowPartials] = []
        for worker in self.workers:
            part, table = _unwrap(_one_reply(worker))
            parts.append(part)
            if table is not None:
                self._obs.absorb(table)
        t0 = time.perf_counter()
        merged = merge_partials(parts)
        self.last_merge_seconds = time.perf_counter() - t0
        merged.window_ids = wids
        if wids:
            self.known_windows.difference_update(wids)
            last = max(wids)
            if self.last_closed_wid is None or last > self.last_closed_wid:
                self.last_closed_wid = last
            # A head before the watermark's end was consumed worker-side.
            _, end = self.config.window.bounds(self.last_closed_wid)
            for s, h in self._heads.items():
                if h is not None and h < end:
                    self._heads[s] = None
        return merged

    # ------------------------------------------------------------------
    # Introspection facade (StreamDataPlane parity)
    # ------------------------------------------------------------------
    def depths(self) -> dict[str, int]:
        return dict(self._depths)

    def heads(self) -> dict[str, float | None]:
        return dict(self._heads)

    def capacities(self) -> dict[str, int]:
        # No adaptive controller runs in sharded mode (validated at server
        # construction), so capacity is the configured constant everywhere.
        return {s: self.config.queue_capacity for s in self.sources}

    def stats_snapshot(self) -> dict[str, tuple]:
        return dict(self._stats)

    def totals(self) -> tuple[int, int]:
        offered = sum(st[0] for st in self._stats.values())
        dropped = sum(st[1] for st in self._stats.values())
        return offered, dropped

    def shard_depths(self) -> dict[int, int]:
        """Total queued tuples per shard (the ``repro top`` shard line)."""
        out = {w.index: 0 for w in self.workers}
        for s, d in self._depths.items():
            out[self.assignment[s]] += d
        return out

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Stop workers and reap processes; idempotent."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            try:
                worker.submit(("stop",))
            except (OSError, ValueError, BrokenPipeError):
                pass
        for worker in self.workers:
            try:
                worker.flush()
            except (ShardError, OSError):
                pass
            try:
                worker.conn.close()
            except OSError:
                pass
            worker.process.join(timeout=5)
            if worker.process.is_alive():  # pragma: no cover - hung worker
                worker.process.terminate()
                worker.process.join(timeout=1)

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
