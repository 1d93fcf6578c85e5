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

Wire discipline: one pipe per worker, a ready reply once the worker's
plane is built (the constructor waits for it), then strictly one reply per
command, FIFO.
That gives RPC semantics with no request ids and guarantees a worker's
``close`` reply reflects every ingest sent before it.  The coordinator
speaks it from the event loop and nowhere else: the plane's RPC methods
are coroutines awaiting futures that a reader callback on each pipe
resolves, oldest first, so conversations from different connections and
the ticker interleave freely on one pipe.  See :class:`_ShardWorker`.
"""

from __future__ import annotations

import asyncio
import os
import pickle
import select
import signal
import struct
import time
import zlib
from collections import deque

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
    try:
        obs = None
        if obs_spec is not None:
            from repro.obs import Observability

            obs = Observability.from_worker_spec(obs_spec)
        plane = StreamDataPlane(
            build_pipeline_from_payload(payload, obs), sources=owned
        )
    except Exception as exc:  # noqa: BLE001 - refused at construction
        conn.send(("err", type(exc).__name__, str(exc)))
        conn.close()
        return
    # The ready reply: the coordinator's constructor waits for it, so a
    # worker's start-up never runs inside its first command.
    conn.send(("ok", None))
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            break
        op = msg[0]
        try:
            if op in ("ingest", "ingest_cols"):
                _, source, data, timestamps, now = msg
                ingest = plane.ingest if op == "ingest" else plane.ingest_columns
                reply = ingest(source, data, timestamps, now)
            elif op in ("tick", "drain"):
                _, arg = msg
                if op == "drain":
                    plane.drain(arg)
                elif arg > 0:
                    plane.advance(arg)
                reply = {
                    "depths": plane.depths(),
                    "heads": plane.heads(),
                    "stats": plane.stats_snapshot(),
                    "known": sorted(plane.known_windows),
                }
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


#: The frame header :class:`multiprocessing.connection.Connection` writes:
#: a signed 32-bit body length (longer frames never occur here).
_HEADER = struct.Struct("!i")
#: Bytes per read; larger buffers cost an mmap per call.
_READ_CHUNK = 1 << 16


class _ShardWorker:
    """Coordinator-side handle: process, pipe, and the replies it is owed.

    :meth:`request` is the one way to talk to a worker: it queues the
    command, appends a loop future to ``waiting`` and returns it.  The
    worker answers every command once, in order, so the oldest future owns
    the next reply; a cancelled future keeps its place, so its reply is
    dropped instead of being handed to the next conversation.

    The coordinator's pipe end is non-blocking and framed here, in the
    worker's ``Connection`` format: a writer callback drains queued
    commands as the pipe takes them, and a reader callback cuts replies out
    of whatever has arrived.  Neither a large command nor a large reply
    ever parks the loop, so a worker writing a big reply while commands
    pile up for it cannot deadlock against the coordinator.  The reader is
    installed by the first request, on that request's loop.  EOF or
    ``OSError`` on the pipe marks the worker lost: every waiting future
    fails with :class:`ShardError`, and so does every later request.
    """

    def __init__(self, index: int, sources: list[str], process, conn) -> None:
        self.index = index
        self.sources = sources
        self.process = process
        self.conn = conn
        self.fd = conn.fileno()
        os.set_blocking(self.fd, False)
        #: Futures of sent commands, oldest first; each owns one reply.
        self.waiting: deque[asyncio.Future] = deque()
        #: Why this worker can no longer answer (None while it can).
        self.lost: str | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._out = bytearray()  # framed commands the pipe has not taken
        self._in = bytearray()  # reply bytes short of a whole frame

    def request(self, msg: tuple) -> asyncio.Future:
        """Send ``msg``; the returned future resolves to the worker's reply."""
        if self.lost is not None:
            raise ShardError(self.lost)
        if self._loop is None:
            self._loop = asyncio.get_running_loop()
            self._loop.add_reader(self.fd, self._on_readable)
        idle = not self._out
        self._queue(msg)
        if idle:
            try:
                self._write()
            except OSError as exc:
                self.fail(f"shard {self.index} is gone: {exc}")
                raise ShardError(self.lost) from exc
            if self._out:
                self._loop.add_writer(self.fd, self._on_writable)
        future = self._loop.create_future()
        self.waiting.append(future)
        return future

    def _queue(self, msg: tuple) -> None:
        body = pickle.dumps(msg, pickle.HIGHEST_PROTOCOL)
        self._out += _HEADER.pack(len(body))
        self._out += body

    def _write(self) -> None:
        """Hand the pipe as much queued output as it takes right now."""
        try:
            del self._out[: os.write(self.fd, self._out)]
        except BlockingIOError:
            pass

    def _on_writable(self) -> None:
        try:
            self._write()
        except OSError as exc:
            self.fail(f"shard {self.index} is gone: {exc}")
            return
        if not self._out:
            self._loop.remove_writer(self.fd)

    def _on_readable(self) -> None:
        """Reader callback: take what the pipe holds, resolve whole replies."""
        try:
            chunk = os.read(self.fd, _READ_CHUNK)
        except BlockingIOError:
            return
        except OSError:
            chunk = b""
        if not chunk:
            self.fail(f"shard {self.index} died mid-conversation")
            return
        buf = self._in
        buf += chunk
        while len(buf) >= 4 and len(buf) >= (end := 4 + _HEADER.unpack_from(buf)[0]):
            try:
                reply = pickle.loads(buf[4:end])
            except Exception as exc:  # noqa: BLE001 - a torn or foreign frame
                self.fail(f"shard {self.index} sent an unreadable reply: {exc}")
                return
            del buf[:end]
            if not self.waiting:
                self.fail(f"shard {self.index} answered a command never sent")
                return
            future = self.waiting.popleft()
            if not future.done():
                future.set_result(reply)

    def fail(self, reason: str) -> None:
        """Mark the worker lost and fail every conversation waiting on it."""
        self.detach()
        self.lost = reason
        waiting, self.waiting = self.waiting, deque()
        for future in waiting:
            if not future.done():
                future.set_exception(ShardError(reason))

    def detach(self) -> None:
        """Stop watching the pipe (a closed loop needs no detaching)."""
        if self._loop is not None:
            self._loop.remove_reader(self.fd)
            self._loop.remove_writer(self.fd)

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the worker and reap it, synchronously: no loop needed.

        ``stop`` goes out behind whatever the worker is still owed, written
        while the pipe is read to EOF (replies to abandoned conversations,
        then the stop's, all dropped) so neither side waits on the other.
        """
        self.detach()
        self._queue(("stop",))
        poller = select.poll()  # not select(): fds past 1024 are routine
        poller.register(self.fd)
        deadline = time.monotonic() + timeout
        try:
            while (left := deadline - time.monotonic()) > 0:
                want = select.POLLOUT if self._out else 0
                poller.modify(self.fd, select.POLLIN | want)
                events = poller.poll(left * 1000)
                mask = events[0][1] if events else 0
                if mask & select.POLLOUT:
                    self._write()
                if mask & ~select.POLLOUT and not os.read(self.fd, _READ_CHUNK):
                    break
        except OSError:
            pass
        self.fail("the shard plane is closed")
        self.conn.close()
        self.process.join(timeout=timeout)
        if self.process.is_alive():  # pragma: no cover - hung worker
            self.process.terminate()
            self.process.join(timeout=1)


#: Seconds a worker may take to build its plane before the coordinator
#: gives up on it.
START_TIMEOUT = 30.0


def _await_ready(index: int, conn, timeout: float = START_TIMEOUT) -> None:
    """Block until worker ``index`` reports its plane built (its first
    reply), or raise :class:`ShardError` if it failed, died or hung."""
    try:
        if not conn.poll(timeout):
            raise ShardError(f"shard {index} did not start within {timeout:g} s")
        _unwrap(conn.recv())
    except (EOFError, OSError) as exc:
        raise ShardError(f"shard {index} died while starting") from exc


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
    construction and the rest of its code is shard-blind, except that the
    RPC methods (``ingest``, ``ingest_columns``, ``advance``, ``drain``,
    ``collect``, ``obs_sync``) are coroutines, to be awaited on the loop.

    Coordinator-side views (depths, heads, known windows, queue stats) are
    refreshed from tick snapshots and may be one tick stale.
    """

    def __init__(self, pipeline, shards: int) -> None:
        """Fork ``shards`` workers, each primed with ``pipeline``'s recipe,
        and wait until each has built its plane (:class:`ShardError` if one
        fails to), so no command pays a worker's start-up.

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
        started = []
        for i in range(shards):
            owned = [s for s in self.sources if self.assignment[s] == i]
            parent_conn, child_conn = ctx.Pipe()
            spec = self._obs.worker_spec(seed=i + 1) if self._obs is not None else None
            proc = ctx.Process(
                target=_worker_main,
                args=(child_conn, payload, owned, spec),
                daemon=True,
                name=f"repro-shard-{i}",
            )
            proc.start()
            child_conn.close()
            started.append((i, owned, proc, parent_conn))
        try:
            for i, _, _, conn in started:
                _await_ready(i, conn)
        except BaseException:
            for _, _, proc, conn in started:
                conn.close()
                proc.terminate()
                proc.join(timeout=1)
            raise
        self.workers: list[_ShardWorker] = [_ShardWorker(*w) for w in started]
        self._closed = False

    # ------------------------------------------------------------------
    # CEP pattern hosting (refused: needs one totally-ordered consumer)
    # ------------------------------------------------------------------
    @property
    def pattern_engine(self):
        """Sharded planes never host a pattern engine."""
        return None

    def attach_pattern(self, pattern, **kwargs):
        """Always refuses: a ``PATTERN SEQ(...)`` NFA needs the totally
        ordered event sequence no hash-partitioned shard observes; the
        error names the ``--shards`` restriction for whoever drives the
        plane."""
        raise ValueError(
            f"pattern queries are not supported on a sharded data plane "
            f"(shards={self.nshards}): a PATTERN SEQ NFA needs one "
            f"totally-ordered event consumer. Re-run with --shards 1 "
            f"(the serial StreamDataPlane) to attach a pattern."
        )

    # ------------------------------------------------------------------
    # Observability channel
    # ------------------------------------------------------------------
    async def obs_sync(self) -> None:
        """Pull what no ``close`` reply carried home — windowless ledger
        events, samples since the last close — at shutdown and for a live
        profile capture.  Deltas are additive: re-syncing never double
        counts."""
        if self._obs is None:
            return
        for table in await self._broadcast(("obs_ship", None)):
            if table is not None:
                self._obs.absorb(table)

    async def _broadcast(self, msg: tuple) -> list:
        """Send ``msg`` to every worker, then await their replies in order.
        A worker known lost fails the broadcast before any send, so no
        survivor acts on a command whose reply nobody would read."""
        for worker in self.workers:
            if worker.lost is not None:
                raise ShardError(worker.lost)
        futures = [worker.request(msg) for worker in self.workers]
        return [_unwrap(reply) for reply in await asyncio.gather(*futures)]

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    async def _ingest(self, source: str, msg: tuple) -> tuple[int, int, int, int]:
        reply = await self.workers[self.assignment[source]].request(msg)
        accepted, late, depth, dropped = _unwrap(reply)
        self._depths[source] = depth
        return accepted, late, depth, dropped

    async def ingest(
        self,
        source: str,
        rows,
        timestamps=None,
        now: float = 0.0,
    ) -> tuple[int, int, int, int]:
        """Routed ingest; same ack quad as the serial plane."""
        return await self._ingest(source, ("ingest", source, rows, timestamps, now))

    async def ingest_columns(
        self,
        source: str,
        cols,
        timestamps=None,
        now: float = 0.0,
    ) -> tuple[int, int, int, int]:
        """Columnar routed ingest: the ``cols`` encoding crosses the pipe
        as-is (column lists pickle as a handful of large objects instead of
        one tuple per row) and the worker offers it without ever pivoting
        to rows — see :meth:`StreamDataPlane.ingest_columns`."""
        return await self._ingest(
            source, ("ingest_cols", source, cols, timestamps, now)
        )

    # ------------------------------------------------------------------
    # Engine emulation + window close
    # ------------------------------------------------------------------
    async def advance(self, elapsed: float) -> None:
        """Tick every shard concurrently; refresh the coordinator's view.

        Each worker drains with the *full* ``elapsed / service_time``
        budget: a shard is one core's worth of engine, so N shards are an
        N-times-wider standard path (documented in docs/performance.md).
        """
        self._refresh(await self._broadcast(("tick", elapsed)))

    async def drain(self, budget: int | None) -> None:
        """Explicit drain (shutdown path); each shard gets the full budget."""
        self._refresh(await self._broadcast(("drain", budget)))

    def _refresh(self, snapshots: list[dict]) -> None:
        for snap in snapshots:
            self._depths.update(snap["depths"])
            self._heads.update(snap["heads"])
            self._stats.update(snap["stats"])
            self.known_windows.update(snap["known"])

    def due_windows(self, now: float, grace: float = 0.0) -> list[int]:
        """The serial close rule over the coordinator's snapshot."""
        return due_windows(
            self.known_windows, self._heads.values(), self.config.window, now, grace
        )

    async def collect(self, wids: list[int]) -> WindowPartials:
        """Ship, merge and close a batch of windows.

        Workers collect and close concurrently, so a worker's late-row
        watermark advances in the same FIFO turn: an ingest racing the close
        is ordered by the pipe, as the serial plane orders it by the loop.
        The coordinator's watermark and head snapshot follow the replies.
        """
        wids = list(wids)
        parts: list[WindowPartials] = []
        for part, table in await self._broadcast(("close", wids)):
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
        """Stop workers and reap processes; idempotent.  Synchronous, so it
        runs at shutdown, from ``__del__`` and with no loop at all (see
        :meth:`_ShardWorker.stop`)."""
        if self._closed:
            return
        self._closed = True
        for worker in self.workers:
            worker.stop()

    def __del__(self) -> None:  # pragma: no cover - GC-order dependent
        try:
            self.close()
        except Exception:
            pass
