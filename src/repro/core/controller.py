"""Load measurement and adaptive triage-queue sizing.

The "adaptive" in the paper's title is the architecture's behaviour — the
triage queue absorbs load changes instantly, with no mode switch — but a
deployment still has to pick the queue capacity.  This controller closes
that loop: it tracks the arrival rate and drop fraction with exponential
moving averages and recommends a capacity that (a) rides out bursts up to a
target length without dropping, while (b) bounding the staleness that a full
queue imposes on results (a queue of ``C`` tuples delays the engine by
``C * service_time`` seconds).

Used by the queue-capacity ablation and exposed through the public API; the
paper-figure experiments use fixed capacities as the paper did.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.triage_queue import QueueStats


@dataclass
class LoadEstimate:
    """Smoothed view of one stream's load."""

    arrival_rate: float = 0.0  # tuples/sec, EWMA
    drop_fraction: float = 0.0  # EWMA of per-interval drop share
    shedding: bool = False


@dataclass
class LoadController:
    """EWMA load tracker + capacity recommendation.

    Call :meth:`observe` once per control interval with the interval's
    arrival count; read :meth:`recommended_capacity` to resize the queue
    between windows (resizing mid-window would skew per-window results).
    """

    alpha: float = 0.3  # EWMA smoothing factor
    max_staleness: float = 2.0  # seconds of backlog a full queue may hold
    min_capacity: int = 16
    max_capacity: int = 100_000
    estimate: LoadEstimate = field(default_factory=LoadEstimate)
    shrink_factor: float = 0.75  # capacity may drop at most this much per step
    _last_stats: tuple[int, int] = (0, 0)  # (offered, dropped) at last observe
    _last_capacity: int | None = None

    def __post_init__(self) -> None:
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if self.max_staleness <= 0:
            raise ValueError("max_staleness must be positive")

    # ------------------------------------------------------------------
    def observe(self, interval_seconds: float, stats: QueueStats) -> LoadEstimate:
        """Fold one control interval's queue counters into the estimate."""
        if interval_seconds <= 0:
            raise ValueError("interval_seconds must be positive")
        offered_before, dropped_before = self._last_stats
        offered = stats.offered - offered_before
        dropped = stats.dropped - dropped_before
        self._last_stats = (stats.offered, stats.dropped)

        rate = offered / interval_seconds
        frac = dropped / offered if offered else 0.0
        est = self.estimate
        est.arrival_rate = self.alpha * rate + (1 - self.alpha) * est.arrival_rate
        est.drop_fraction = self.alpha * frac + (1 - self.alpha) * est.drop_fraction
        est.shedding = est.drop_fraction > 1e-6
        return est

    # ------------------------------------------------------------------
    def recommended_capacity(self, service_time: float) -> int:
        """Largest capacity whose full-queue backlog stays inside the bound.

        A queue of ``C`` tuples takes ``C * service_time`` engine-seconds to
        drain; capping that at ``max_staleness`` keeps triage from trading
        unbounded latency for accuracy.  While the queue is actively
        shedding, buffering is too scarce by definition, so the controller
        grows straight to that ceiling; when idle, capacity shrinks to one
        ``max_staleness`` worth of (mean) arrivals — smaller queues mean
        fresher results.
        """
        if service_time <= 0:
            raise ValueError("service_time must be positive")
        staleness_cap = int(self.max_staleness / service_time)
        if self.estimate.shedding:
            capacity = staleness_cap
        else:
            arrival_cap = (
                int(self.estimate.arrival_rate * self.max_staleness)
                or staleness_cap
            )
            capacity = min(staleness_cap, max(arrival_cap, self.min_capacity))
        capacity = max(self.min_capacity, min(self.max_capacity, capacity))
        # Grow immediately, shrink gradually (hysteresis): one quiet control
        # interval between bursts must not collapse the buffer the next
        # burst needs.
        if self._last_capacity is not None and capacity < self._last_capacity:
            capacity = max(capacity, int(self._last_capacity * self.shrink_factor))
        self._last_capacity = capacity
        return capacity
