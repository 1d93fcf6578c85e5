"""Time windows for continuous queries.

TelegraphCQ queries declare per-stream windows (``WINDOW R ['1 second']``).
The Data Triage experiments use windows whose *width is scaled with the data
rate* so the expected number of tuples per window stays constant (paper
Section 6.2.1); results are produced once per window.  That behaviour is
tumbling-window semantics, which is the default here; hopping (overlapping)
windows are supported for completeness.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.engine.types import StreamTuple


@dataclass(frozen=True)
class WindowSpec:
    """A time window: ``width`` seconds, advancing by ``slide`` seconds.

    ``slide == width`` (the default) gives tumbling windows; ``slide < width``
    gives overlapping (hopping) windows, in which case a tuple belongs to
    several windows.
    """

    width: float
    slide: float | None = None

    #: Memoized ``ids()`` entries kept before the cache is reset.
    IDS_CACHE_SIZE = 65536

    def __post_init__(self) -> None:
        if self.width <= 0:
            raise ValueError(f"window width must be positive, got {self.width}")
        if self.slide is not None and self.slide <= 0:
            raise ValueError(f"window slide must be positive, got {self.slide}")
        # Frozen dataclass: the memo dict must be installed via object.
        object.__setattr__(self, "_ids_cache", {})

    def __getstate__(self):
        # Don't ship the memo to pickles (process-pool workers rebuild it).
        state = dict(self.__dict__)
        state["_ids_cache"] = {}
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self.__dict__.setdefault("_ids_cache", {})

    @property
    def hop(self) -> float:
        return self.slide if self.slide is not None else self.width

    # ------------------------------------------------------------------
    def window_ids(self, timestamp: float) -> Iterator[int]:
        """All window ids containing ``timestamp``.

        Window ``i`` covers ``[i * hop, i * hop + width)``.
        """
        last = math.floor(timestamp / self.hop)
        first = math.floor((timestamp - self.width) / self.hop) + 1
        for i in range(max(first, 0) if timestamp >= 0 else first, last + 1):
            if i * self.hop <= timestamp < i * self.hop + self.width:
                yield i

    def candidate_ids(self, earliest: float, latest: float) -> range:
        """Every id :meth:`window_ids` tries for some timestamp in
        ``[earliest, latest]``: its range for ``earliest`` starts lowest and
        its range for ``latest`` ends highest (both ends are monotone)."""
        first = math.floor((earliest - self.width) / self.hop) + 1
        if earliest >= 0:
            first = max(first, 0)
        return range(first, math.floor(latest / self.hop) + 1)

    def ids(self, timestamp: float) -> tuple[int, ...]:
        """Memoized :meth:`window_ids` as a tuple.

        Window state is built once per window from row runs, so what is
        left of the per-tuple work is this lookup: the data plane's
        admission asks once per arriving tuple, and the tuple's one exit
        asks again — the triage core's fold when it is polled,
        :meth:`TriageQueue.offer_bulk` when it is shed
        (:func:`~repro.core.triage_core.window_runs` asks only at the ends
        of each window's run).  The answer depends only on ``timestamp``,
        and the same timestamps come back (a batch stamped with one
        ``now``, one input replayed under several strategies), so the memo
        stays.  A miss whose candidate range is one window that holds the
        timestamp (tumbling windows, away from float edges) answers
        ``(i,)`` from ``window_ids``' own two floors and bounds test; any
        other miss delegates to ``window_ids``, so the two cannot disagree.
        """
        cache = self._ids_cache
        out = cache.get(timestamp)
        if out is None:
            if len(cache) >= self.IDS_CACHE_SIZE:
                cache.clear()
            # Tumbling fast path: when window_ids' candidate range is the
            # single id ``i`` and window ``i`` holds the timestamp, its answer
            # is ``(i,)``; anything else asks window_ids itself.
            hop = self.hop
            i = math.floor(timestamp / hop)
            first = math.floor((timestamp - self.width) / hop) + 1
            if timestamp >= 0 and first < 0:
                first = 0
            if first == i and i * hop <= timestamp < i * hop + self.width:
                out = cache[timestamp] = (i,)
            else:
                out = cache[timestamp] = tuple(self.window_ids(timestamp))
        return out

    def primary_window(self, timestamp: float) -> int:
        """The most recent window containing ``timestamp`` (tumbling: *the* window)."""
        return math.floor(timestamp / self.hop)

    def bounds(self, window_id: int) -> tuple[float, float]:
        """``[start, end)`` of a window."""
        start = window_id * self.hop
        return (start, start + self.width)

    def __str__(self) -> str:
        if self.slide is None or self.slide == self.width:
            return f"[{self.width} seconds]"
        return f"[{self.width} seconds, slide {self.slide}]"


def assign_windows(
    tuples: Iterable[StreamTuple], spec: WindowSpec
) -> dict[int, list[StreamTuple]]:
    """Partition a tuple sequence into windows (tuples may repeat when hopping)."""
    out: dict[int, list[StreamTuple]] = {}
    for t in tuples:
        for wid in spec.window_ids(t.timestamp):
            out.setdefault(wid, []).append(t)
    return out


def parse_window_clause(text: str) -> WindowSpec:
    """Parse TelegraphCQ-style interval strings like ``'1 second'`` / ``'500 ms'``."""
    parts = text.strip().strip("'").split()
    if len(parts) == 1:
        return WindowSpec(width=float(parts[0]))
    if len(parts) != 2:
        raise ValueError(f"cannot parse window interval {text!r}")
    value = float(parts[0])
    unit = parts[1].lower().rstrip("s") or "second"
    scale = {
        "m": 1e-3,  # '500 ms' -> rstrip('s') leaves 'm'
        "millisecond": 1e-3,
        "second": 1.0,
        "sec": 1.0,
        "minute": 60.0,
        "min": 60.0,
        "hour": 3600.0,
    }
    try:
        return WindowSpec(width=value * scale[unit])
    except KeyError:
        raise ValueError(f"unknown time unit in window interval {text!r}") from None
