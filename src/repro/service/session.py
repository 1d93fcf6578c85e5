"""Session bookkeeping: admission control, rate caps, slow-consumer eviction.

The triage queues shed *data* load; this module sheds *client* load, so a
misbehaving peer cannot take the service down a different way:

* **Admission control** — at most ``max_sessions`` concurrent connections;
  a connection beyond that is turned away with a structured ERROR before it
  can allocate anything.
* **Per-session rate caps** — each session's PUBLISH volume passes through
  a token bucket (``rate_limit`` rows/second, ``burst`` tokens deep).  An
  over-rate batch is refused with a retryable ERROR; the tuples never reach
  a triage queue, which keeps one hot client from starving the others'
  share of queue capacity.
* **Slow-consumer eviction** — every session has a bounded outbound frame
  queue drained by its own sender task.  A subscriber that stops reading
  fills the queue and is *evicted* (connection closed) rather than buffered
  without bound — the subscriber-side mirror of the triage queue's
  drop-not-buffer discipline.

The registry is asyncio-native: all mutation happens on the event loop, so
no locking is needed here (nor in the triage queues the loop owns).
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass, field

from repro.service.protocol import encode_frame

__all__ = ["AdmissionError", "TokenBucket", "Session", "SessionRegistry"]


class AdmissionError(Exception):
    """A client request was refused by an admission policy."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code
        self.message = message


@dataclass
class TokenBucket:
    """Classic token bucket: ``rate`` tokens/second, up to ``burst`` stored.

    ``None`` rate disables limiting.  Time is injected (``now``) so the
    server's virtual clock drives it and tests stay deterministic.
    """

    rate: float | None
    burst: float
    _tokens: float = field(init=False)
    _last: float | None = field(init=False, default=None)

    def __post_init__(self) -> None:
        if self.rate is not None and self.rate <= 0:
            raise ValueError(f"rate must be positive or None, got {self.rate}")
        if self.burst <= 0:
            raise ValueError(f"burst must be positive, got {self.burst}")
        self._tokens = self.burst

    def try_consume(self, n: float, now: float) -> bool:
        """Take ``n`` tokens if available; refill according to ``now``."""
        if self.rate is None:
            return True
        if self._last is not None and now > self._last:
            self._tokens = min(self.burst, self._tokens + (now - self._last) * self.rate)
        self._last = now
        if n <= self._tokens:
            self._tokens -= n
            return True
        return False


class Session:
    """One connected client: identity, permissions, and its outbound queue."""

    def __init__(
        self,
        session_id: int,
        writer: asyncio.StreamWriter,
        *,
        rate_limit: float | None,
        burst: float,
        send_queue_frames: int,
        client_name: str = "",
    ) -> None:
        self.id = session_id
        self.writer = writer
        self.client_name = client_name
        self.declared: set[str] = set()
        self.subscribed = False
        self.telemetry = False
        self.bucket = TokenBucket(rate_limit, burst)
        self.published_rows = 0
        self.results_sent = 0
        self.telemetry_sent = 0
        self.closing = False
        #: Outbound frames: dicts (encoded at send time) or pre-encoded
        #: bytes (broadcast fan-out encodes once per frame, not per peer);
        #: None is the close sentinel.
        self._out: asyncio.Queue[dict | bytes | None] = asyncio.Queue(
            maxsize=send_queue_frames
        )
        self._sender: asyncio.Task | None = None

    # ------------------------------------------------------------------
    @property
    def peername(self) -> str:
        try:
            peer = self.writer.get_extra_info("peername")
        except Exception:  # pragma: no cover - transport already gone
            peer = None
        return str(peer) if peer else "?"

    def start_sender(self) -> None:
        self._sender = asyncio.get_running_loop().create_task(self._send_loop())

    async def _send_loop(self) -> None:
        """Drain the outbound queue onto the socket, one frame at a time."""
        try:
            while True:
                frame = await self._out.get()
                if frame is None:  # close sentinel
                    break
                self.writer.write(
                    frame if isinstance(frame, bytes) else encode_frame(frame)
                )
                await self.writer.drain()
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            self.writer.close()

    def try_enqueue(self, frame: dict | bytes) -> bool:
        """Queue an outbound frame; False means the consumer is too slow."""
        if self.closing:
            return True  # silently dropped; the connection is going away
        try:
            self._out.put_nowait(frame)
            return True
        except asyncio.QueueFull:
            return False

    async def send_now(self, frame: dict) -> None:
        """Send bypassing the queue — for request/reply frames only, called
        from the connection's reader task (so ordering with queued frames is
        still FIFO per peer: replies interleave but never reorder)."""
        self.writer.write(encode_frame(frame))
        await self.writer.drain()

    async def close(self, *, flush: bool = True) -> None:
        """Stop the sender and close the transport.

        ``flush=True`` lets already-queued frames go out first (graceful
        shutdown); ``flush=False`` cuts the peer off (eviction).
        """
        self.closing = True
        if self._sender is None:
            self.writer.close()
            return
        if flush:
            try:
                self._out.put_nowait(None)
            except asyncio.QueueFull:
                self._sender.cancel()
        else:
            self._sender.cancel()
        try:
            await self._sender
        except asyncio.CancelledError:
            pass


class SessionRegistry:
    """All live sessions, plus the admission and eviction policies."""

    def __init__(
        self,
        *,
        max_sessions: int = 64,
        rate_limit: float | None = None,
        burst: float | None = None,
        send_queue_frames: int = 64,
    ) -> None:
        if max_sessions < 1:
            raise ValueError("max_sessions must be >= 1")
        self.max_sessions = max_sessions
        self.rate_limit = rate_limit
        self.burst = burst if burst is not None else (rate_limit or 1.0)
        self.send_queue_frames = send_queue_frames
        self.sessions: dict[int, Session] = {}
        self._ids = itertools.count(1)
        self.evictions = 0

    # ------------------------------------------------------------------
    def admit(self, writer: asyncio.StreamWriter, client_name: str = "") -> Session:
        """Register a new connection, or refuse it."""
        if len(self.sessions) >= self.max_sessions:
            raise AdmissionError(
                "too-many-sessions",
                f"server is at its session limit ({self.max_sessions})",
            )
        session = Session(
            next(self._ids),
            writer,
            rate_limit=self.rate_limit,
            burst=self.burst,
            send_queue_frames=self.send_queue_frames,
            client_name=client_name,
        )
        self.sessions[session.id] = session
        session.start_sender()
        return session

    def remove(self, session: Session) -> None:
        self.sessions.pop(session.id, None)

    def subscribers(self) -> list[Session]:
        return [s for s in self.sessions.values() if s.subscribed]

    def telemetry_subscribers(self) -> list[Session]:
        return [s for s in self.sessions.values() if s.telemetry]

    # ------------------------------------------------------------------
    async def broadcast(self, frame: dict, *, group: str = "results") -> list[Session]:
        """Fan a frame out to every subscriber; returns evicted sessions.

        ``group`` selects the audience: ``"results"`` (RESULT fan-out, the
        default) or ``"telemetry"`` (TELEMETRY push to sessions that opted
        in via SUBSCRIBE).  Either way a subscriber whose outbound queue is
        full is a slow consumer: it is evicted immediately (closed without
        flushing) so the window ticker never blocks on one peer's socket.
        """
        if group not in ("results", "telemetry"):
            raise ValueError(f"unknown broadcast group {group!r}")
        # Encode once: every subscriber's sender writes the same buffer
        # instead of re-serializing the frame per peer.
        payload = encode_frame(frame)
        evicted: list[Session] = []
        for session in list(self.sessions.values()):
            if group == "telemetry":
                if not session.telemetry:
                    continue
            elif not session.subscribed:
                continue
            if session.try_enqueue(payload):
                if group == "telemetry":
                    session.telemetry_sent += 1
                else:
                    session.results_sent += 1
            else:
                evicted.append(session)
        for session in evicted:
            self.evictions += 1
            self.remove(session)
            await session.close(flush=False)
        return evicted

    async def close_all(self, farewell: dict | None = None) -> None:
        """Graceful shutdown: optionally queue a farewell, then flush+close."""
        sessions = list(self.sessions.values())
        self.sessions.clear()
        payload = encode_frame(farewell) if farewell is not None else None
        for session in sessions:
            if payload is not None:
                session.try_enqueue(payload)
            await session.close(flush=True)
