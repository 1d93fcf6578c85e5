"""A dependency-free metrics registry with Prometheus text export.

Every layer that reports its own health — the triage pipeline, the network
service, the shard tier — does so through this registry without pulling
in a client library.  This module implements the three instrument kinds the
rest of the package uses (counters, gauges, histograms), each optionally
labelled, plus two exports:

* :meth:`MetricsRegistry.render_prometheus` — the Prometheus text
  exposition format (``# HELP`` / ``# TYPE`` / samples, histograms with
  cumulative ``_bucket{le=...}`` series and ``_sum``/``_count``);
* :meth:`MetricsRegistry.to_dict` — a JSON-safe snapshot, shipped to
  clients in the wire protocol's STATS reply.

Instruments are get-or-create by name, so instrumentation points can be
written without threading registry setup through every constructor.  All
mutation is guarded by one registry-wide lock: instrument updates are tiny
compared to the work around them, and a single lock keeps cross-instrument
snapshots consistent.

Histograms take per-instrument bucket overrides: sub-second timings use
:data:`LATENCY_BUCKETS` (else the tuple-count spread of
:data:`DEFAULT_BUCKETS` wrecks quantile resolution below one second), and a
conflicting re-registration of the same name with different bounds is a
:class:`ValueError` rather than a silent share of the first caller's spread.

Two protections for long-running deployments:

* **Label-cardinality cap** — each instrument holds at most
  ``max_series`` label combinations (registry-wide knob, default
  :data:`DEFAULT_MAX_SERIES`); an update that would mint series number
  cap+1 is dropped and counted under ``obs_series_dropped_total{metric=}``
  instead of growing the registry without bound (a per-session or
  per-source label on a busy server would otherwise do exactly that).
* **Delta snapshots** — :class:`DeltaSnapshotter` diffs successive sample
  sets, so the service's TELEMETRY push ships per-interval increments for
  counters/histograms (gauges stay absolute) rather than ever-growing
  totals.

The metric catalog is documented in ``docs/observability.md``.
"""

from __future__ import annotations

import threading
from bisect import bisect_left

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DeltaSnapshotter",
    "DEFAULT_BUCKETS",
    "LATENCY_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "global_registry",
    "record_hook_error",
    "fold_queue_stats",
    "fold_engine_stats",
    "POLICY_COUNTERS",
    "shard_instruments",
]

#: Default per-instrument cap on label combinations (series).
DEFAULT_MAX_SERIES = 256

#: Default histogram buckets: a wide spread for counts and coarse timings.
DEFAULT_BUCKETS = (
    0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
    25.0, 50.0, 100.0, 250.0, 500.0, 1000.0,
)

#: Buckets for sub-second latencies (seconds): 50µs resolution at the low
#: end, so per-window phase timings and queue-imposed staleness keep their
#: quantile resolution instead of collapsing into DEFAULT_BUCKETS' 5ms floor.
LATENCY_BUCKETS = (
    0.00005, 0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
    0.025, 0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0, 30.0,
)


def _format_value(v: float) -> str:
    """Render ints without a trailing ``.0`` (Prometheus accepts both)."""
    if isinstance(v, bool):
        return "1" if v else "0"
    if float(v).is_integer():
        return str(int(v))
    return repr(float(v))


def _label_suffix(label_names: tuple[str, ...], label_values: tuple) -> str:
    if not label_names:
        return ""
    pairs = ",".join(
        f'{name}="{_escape_label(str(value))}"'
        for name, value in zip(label_names, label_values)
    )
    return "{" + pairs + "}"


def _escape_label(text: str) -> str:
    """Label-value escaping per the exposition format: ``\\``, ``"``, LF."""
    return text.replace("\\", r"\\").replace('"', r'\"').replace("\n", r"\n")


def _escape_help(text: str) -> str:
    """HELP-text escaping: only ``\\`` and LF — quotes stay literal there."""
    return text.replace("\\", r"\\").replace("\n", r"\n")


class _Instrument:
    """Shared labelling machinery; subclasses define the sample shape."""

    kind = "untyped"

    def __init__(
        self,
        name: str,
        help: str,
        label_names: tuple[str, ...],
        lock: threading.Lock,
        *,
        max_series: int | None = None,
        on_drop=None,
    ) -> None:
        self.name = name
        self.help = help
        self.label_names = label_names
        self._lock = lock
        self.max_series = max_series
        self._on_drop = on_drop

    def _key(self, labels: dict) -> tuple:
        names = self.label_names
        try:
            if len(labels) == len(names):
                return tuple([labels[n] for n in names])
        except KeyError:
            pass
        raise ValueError(
            f"metric {self.name!r} expects labels {names}, "
            f"got {tuple(sorted(labels))}"
        )

    def _series_full(self, store: dict) -> bool:
        """True when minting one more series would exceed the cap."""
        return self.max_series is not None and len(store) >= self.max_series

    def _dropped_series(self) -> None:
        """Count one refused sample (called OUTSIDE the instrument lock —
        the registry's drop counter shares it)."""
        if self._on_drop is not None:
            self._on_drop(self.name)


class Counter(_Instrument):
    """A monotonically increasing count."""

    kind = "counter"

    def __init__(self, name, help, label_names, lock, **guards):
        super().__init__(name, help, label_names, lock, **guards)
        self._values: dict[tuple, float] = {}

    def inc(self, amount: float = 1.0, **labels) -> None:
        if amount < 0:
            raise ValueError("counters only go up")
        key = self._key(labels)
        with self._lock:
            if key in self._values:
                self._values[key] += amount
                dropped = False
            elif self._series_full(self._values):
                dropped = True
            else:
                self._values[key] = amount
                dropped = False
        if dropped:
            self._dropped_series()

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    def total(self) -> float:
        """Sum across all label combinations."""
        with self._lock:
            return sum(self._values.values())

    def _samples(self):
        for key, v in sorted(self._values.items()):
            yield self.name + _label_suffix(self.label_names, key), v

    def _snapshot(self):
        return {
            "||".join(map(str, k)) if k else "": v
            for k, v in self._values.items()
        }


class Gauge(_Instrument):
    """A value that can go up and down."""

    kind = "gauge"

    def __init__(self, name, help, label_names, lock, **guards):
        super().__init__(name, help, label_names, lock, **guards)
        self._values: dict[tuple, float] = {}

    def set(self, value: float, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            if key in self._values or not self._series_full(self._values):
                self._values[key] = float(value)
                dropped = False
            else:
                dropped = True
        if dropped:
            self._dropped_series()

    def inc(self, amount: float = 1.0, **labels) -> None:
        key = self._key(labels)
        with self._lock:
            if key in self._values:
                self._values[key] += amount
                dropped = False
            elif self._series_full(self._values):
                dropped = True
            else:
                self._values[key] = amount
                dropped = False
        if dropped:
            self._dropped_series()

    def dec(self, amount: float = 1.0, **labels) -> None:
        self.inc(-amount, **labels)

    def value(self, **labels) -> float:
        with self._lock:
            return self._values.get(self._key(labels), 0.0)

    _samples = Counter._samples
    _snapshot = Counter._snapshot


class Histogram(_Instrument):
    """Cumulative-bucket histogram (Prometheus semantics).

    ``observe(v)`` adds ``v`` to the distribution; the export carries the
    per-bucket cumulative counts plus the running sum and count, which is
    enough to recover means and approximate quantiles downstream.
    """

    kind = "histogram"

    def __init__(
        self, name, help, label_names, lock, buckets=DEFAULT_BUCKETS, **guards
    ):
        super().__init__(name, help, label_names, lock, **guards)
        bounds = tuple(sorted(float(b) for b in buckets))
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        self.bounds = bounds
        self._counts: dict[tuple, list[int]] = {}  # per-bound, non-cumulative
        self._sum: dict[tuple, float] = {}
        self._count: dict[tuple, int] = {}

    def observe(self, value: float, **labels) -> None:
        self.observe_many((value,), **labels)

    def observe_many(self, values, **labels) -> None:
        """Add every value of ``values`` to one series: one key, one lock.

        Hot loops collect their samples in a list and fold them here once.
        A series refused by the cardinality cap counts one drop per value,
        as the same number of :meth:`observe` calls would.
        """
        key = self._key(labels)
        bounds = self.bounds
        with self._lock:
            counts = self._counts.get(key)
            if counts is None and not self._series_full(self._counts):
                counts = self._counts[key] = [0] * (len(bounds) + 1)
            if counts is not None:
                total = self._sum.get(key, 0.0)
                for value in values:
                    counts[bisect_left(bounds, value)] += 1
                    total += value
                self._sum[key] = total
                self._count[key] = self._count.get(key, 0) + len(values)
        if counts is None:
            for _ in values:
                self._dropped_series()

    def observe_counts(self, counts, **labels) -> None:
        """Add ``counts[value]`` samples of each ``value`` to one series.

        One bisect per distinct value: the same buckets and count as
        :meth:`observe_many` over the expanded samples, and the same sum
        when the values are integers (every partial sum is then exact).
        """
        key = self._key(labels)
        bounds = self.bounds
        n = sum(counts.values())
        with self._lock:
            buckets = self._counts.get(key)
            if buckets is None and not self._series_full(self._counts):
                buckets = self._counts[key] = [0] * (len(bounds) + 1)
            if buckets is not None:
                total = self._sum.get(key, 0.0)
                for value, c in counts.items():
                    buckets[bisect_left(bounds, value)] += c
                    total += value * c
                self._sum[key] = total
                self._count[key] = self._count.get(key, 0) + n
        if buckets is None:
            for _ in range(n):
                self._dropped_series()

    def count(self, **labels) -> int:
        with self._lock:
            return self._count.get(self._key(labels), 0)

    def sum(self, **labels) -> float:
        with self._lock:
            return self._sum.get(self._key(labels), 0.0)

    def _samples(self):
        for key in sorted(self._counts):
            cumulative = 0
            for bound, n in zip(self.bounds, self._counts[key]):
                cumulative += n
                labels = self.label_names + ("le",)
                values = key + (_format_value(bound),)
                yield self.name + "_bucket" + _label_suffix(labels, values), cumulative
            cumulative += self._counts[key][-1]
            yield (
                self.name + "_bucket"
                + _label_suffix(self.label_names + ("le",), key + ("+Inf",)),
                cumulative,
            )
            suffix = _label_suffix(self.label_names, key)
            yield self.name + "_sum" + suffix, self._sum[key]
            yield self.name + "_count" + suffix, self._count[key]

    def _snapshot(self):
        out = {}
        for key in self._counts:
            label = "||".join(map(str, key)) if key else ""
            out[label] = {
                "count": self._count[key],
                "sum": self._sum[key],
                "buckets": dict(
                    zip(map(_format_value, self.bounds), self._counts[key])
                ),
                "overflow": self._counts[key][-1],
            }
        return out


class MetricsRegistry:
    """Name → instrument map with get-or-create accessors and exports.

    ``max_series`` caps the label combinations any one instrument may hold
    (None lifts the cap); refused samples are counted under
    ``obs_series_dropped_total{metric=}`` so the drop is visible.
    """

    def __init__(self, *, max_series: int | None = DEFAULT_MAX_SERIES) -> None:
        if max_series is not None and max_series < 1:
            raise ValueError(f"max_series must be >= 1 or None: {max_series}")
        self._lock = threading.Lock()
        self._instruments: dict[str, _Instrument] = {}
        self.max_series = max_series

    # ------------------------------------------------------------------
    def _get_or_create(self, cls, name, help, label_names, *, guard=True, **kwargs):
        with self._lock:
            existing = self._instruments.get(name)
            if existing is not None:
                if not isinstance(existing, cls) or existing.label_names != tuple(
                    label_names
                ):
                    raise ValueError(
                        f"metric {name!r} already registered as "
                        f"{existing.kind} with labels {existing.label_names}"
                    )
                return existing
            inst = cls(
                name,
                help,
                tuple(label_names),
                self._lock,
                max_series=self.max_series if guard else None,
                on_drop=self._count_series_drop if guard else None,
                **kwargs,
            )
            self._instruments[name] = inst
            return inst

    def _count_series_drop(self, metric: str) -> None:
        """One sample refused by the cardinality cap (guard=False: the drop
        counter itself must never recurse into the guard)."""
        self._get_or_create(
            Counter,
            "obs_series_dropped_total",
            "Samples dropped by the per-instrument label-cardinality cap",
            ("metric",),
            guard=False,
        ).inc(metric=metric)

    def counter(self, name: str, help: str = "", labels: tuple = ()) -> Counter:
        return self._get_or_create(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", labels: tuple = ()) -> Gauge:
        return self._get_or_create(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        labels: tuple = (),
        buckets=None,
    ) -> Histogram:
        """Get or create a histogram; ``buckets`` overrides the default.

        Passing ``buckets=None`` expresses no preference: creation uses
        :data:`DEFAULT_BUCKETS` and a later lookup accepts whatever spread
        the instrument was created with.  Passing explicit buckets that
        conflict with an already-registered spread raises — two
        instrumentation points silently sharing the wrong resolution is
        exactly the bug per-instrument overrides exist to prevent.
        """
        hist = self._get_or_create(
            Histogram,
            name,
            help,
            labels,
            buckets=DEFAULT_BUCKETS if buckets is None else buckets,
        )
        if buckets is not None:
            wanted = tuple(sorted(float(b) for b in buckets))
            if wanted != hist.bounds:
                raise ValueError(
                    f"histogram {name!r} already registered with buckets "
                    f"{hist.bounds}, conflicting override {wanted}"
                )
        return hist

    def get(self, name: str) -> _Instrument | None:
        with self._lock:
            return self._instruments.get(name)

    # ------------------------------------------------------------------
    def render_prometheus(self) -> str:
        """The Prometheus text exposition format, all instruments.

        Every instrument gets its ``# HELP`` (when help text exists) and
        ``# TYPE`` comment lines; HELP text escapes backslash and line-feed,
        label values additionally escape double quotes — the two different
        escaping rules of the exposition format.
        """
        lines: list[str] = []
        # Hold the registry-wide lock for the full render: instruments share
        # this lock for updates, so the export is a consistent snapshot.
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
            for inst in instruments:
                if inst.help:
                    lines.append(f"# HELP {inst.name} {_escape_help(inst.help)}")
                lines.append(f"# TYPE {inst.name} {inst.kind}")
                for sample_name, value in inst._samples():
                    lines.append(f"{sample_name} {_format_value(value)}")
        return "\n".join(lines) + "\n"

    def sample_values(self) -> list[tuple[str, str, float]]:
        """Flat ``(kind, sample_name, value)`` triples, one consistent pass.

        Sample names carry the full label suffix (Prometheus style), so the
        list is diffable across snapshots — :class:`DeltaSnapshotter` is the
        intended consumer.
        """
        out: list[tuple[str, str, float]] = []
        with self._lock:
            for inst in sorted(self._instruments.values(), key=lambda i: i.name):
                for sample_name, value in inst._samples():
                    out.append((inst.kind, sample_name, value))
        return out

    def to_dict(self) -> dict:
        """JSON-safe snapshot: ``{name: {kind, help, values}}``."""
        with self._lock:
            instruments = sorted(self._instruments.values(), key=lambda i: i.name)
            return {
                inst.name: {
                    "kind": inst.kind,
                    "help": inst.help,
                    "labels": list(inst.label_names),
                    "values": inst._snapshot(),
                }
                for inst in instruments
            }


class DeltaSnapshotter:
    """Per-interval metric increments, for streaming telemetry.

    Each :meth:`delta` call diffs the registry's current samples against the
    previous call: counter and histogram samples become increments (zero
    increments are elided, so a quiet interval ships almost nothing), gauges
    are passed through as absolute values.  A sample seen for the first time
    reports its full value — correct for counters that started after the
    previous snapshot.
    """

    def __init__(self, registry: MetricsRegistry) -> None:
        self.registry = registry
        self._prev: dict[str, float] = {}

    def delta(self) -> dict[str, float]:
        out: dict[str, float] = {}
        prev = self._prev
        cur: dict[str, float] = {}
        for kind, sample_name, value in self.registry.sample_values():
            cur[sample_name] = value
            if kind == "gauge":
                out[sample_name] = value
            else:
                inc = value - prev.get(sample_name, 0.0)
                if inc:
                    out[sample_name] = inc
        self._prev = cur
        return out


# ---------------------------------------------------------------------------
# Process-wide registry (hook-error accounting and other ambient counters)
# ---------------------------------------------------------------------------
_GLOBAL_REGISTRY = MetricsRegistry()


def global_registry() -> MetricsRegistry:
    """The process-wide fallback registry.

    Instrumentation sites that have no registry threaded to them (e.g. a
    pipeline run without an ``obs`` bundle) still need somewhere to count —
    most importantly swallowed hook exceptions, which must never vanish
    entirely.
    """
    return _GLOBAL_REGISTRY


def record_hook_error(site: str, registry: MetricsRegistry | None = None) -> None:
    """Count one swallowed hook exception at ``site``.

    User-supplied per-window hooks are best-effort: an
    exception they raise is caught by the dispatch site, counted here as
    ``obs_hook_errors_total{site=...}``, and never aborts the run.
    """
    (registry or _GLOBAL_REGISTRY).counter(
        "obs_hook_errors_total",
        "Exceptions raised by user-supplied hooks (swallowed)",
        ("site",),
    ).inc(site=site)


#: The ``triage_*_total`` family: (metric, help, index into
#: :meth:`repro.core.triage_queue.QueueStats.snapshot`, ``decision`` label).
_QUEUE_COUNTERS = (
    ("triage_offered_total", "Tuples offered to triage queues", 0, None),
    ("triage_drops_total", "Tuples shed by the drop policy", 1, None),
    ("triage_polled_total", "Tuples consumed by the engine", 2, None),
    ("triage_summarized_total", "Shed tuples folded into window synopses", 5, None),
    ("triage_shed_bytes_total", "Approximate in-memory bytes of shed rows", 8, None),
    ("triage_policy_decisions_total", "Drop-policy victim decisions", 6,
     "drop_incoming"),
    ("triage_policy_decisions_total", "Drop-policy victim decisions", 7,
     "evict_buffered"),
)


def fold_queue_stats(
    registry: MetricsRegistry, stats: dict[str, tuple], seen: dict[str, tuple]
) -> None:
    """Add what the queues counted since the last fold to ``triage_*_total``.

    ``stats`` maps a stream to its ``QueueStats.snapshot()`` tuple (the
    shape ``stats_snapshot()`` ships from shard workers), ``seen`` holds the
    snapshots already folded and is updated in place.  The queues keep the
    numbers; this only moves *deltas* into the registry, at the points
    where someone can read it (run end, server tick, metric export), so the
    hot paths pay no per-tuple metric call.  A stream whose snapshot did not
    change costs one tuple compare.
    """
    changed = [(s, snap) for s, snap in stats.items() if seen.get(s) != snap]
    if not changed:
        return
    for name, help, index, decision in _QUEUE_COUNTERS:
        labels = {} if decision is None else {"decision": decision}
        counter = registry.counter(name, help, ("stream", *labels))
        for stream, snap in changed:
            prev = seen.get(stream)
            delta = snap[index] - (prev[index] if prev else 0)
            if delta > 0:
                counter.inc(float(delta), stream=stream, **labels)
    seen.update(changed)


#: The ``cep_*_total`` family: (metric, help, ``EngineStats`` field).
_ENGINE_COUNTERS = (
    ("cep_runs_started_total", "Pattern runs (partial matches) opened",
     "runs_started"),
    ("cep_runs_extended_total", "Events absorbed into partial matches",
     "runs_extended"),
    ("cep_matches_total", "Complete pattern matches emitted", "matches"),
    ("cep_runs_expired_total", "Partial matches expired at WITHIN",
     "runs_expired"),
    ("cep_runs_shed_total",
     "Partial matches retired by the pSPICE memory bound", "runs_shed"),
)

#: Same shape, read off a pattern-aware drop policy instead of the engine.
POLICY_COUNTERS = (
    ("cep_policy_unbound_total",
     "Victim decisions taken pattern-blind (head drop): no engine was bound",
     "unbound"),
)


def fold_engine_stats(
    registry: MetricsRegistry, stats, seen: dict[str, int],
    counters=_ENGINE_COUNTERS,
) -> None:
    """Add what a pattern engine counted since the last fold to ``cep_*_total``.

    The engine-side twin of :func:`fold_queue_stats`: ``stats`` is the
    engine's :class:`~repro.cep.engine.EngineStats`, ``seen`` the field
    values already folded (updated in place).  The first call mints the
    (empty) instruments.  With ``counters=POLICY_COUNTERS``, ``stats`` is
    the pattern-aware drop policy.
    """
    for name, help, field in counters:
        counter = registry.counter(name, help)
        value = getattr(stats, field)
        delta = value - seen.get(field, 0)
        if delta > 0:
            counter.inc(float(delta))
        seen[field] = value


def shard_instruments(registry: MetricsRegistry) -> dict:
    """The sharded data plane's instrument trio, labelled per shard.

    ``shard_queue_depth{shard=,stream=}`` (gauge, refreshed every tick
    snapshot), ``shard_windows_merged_total{shard=}`` (one increment per
    window partial a shard ships at close), and ``shard_merge_seconds``
    (histogram of coordinator-side partial-merge latency).  The server sets
    them from what the plane reports (its depth snapshot, its assignment,
    ``last_merge_seconds``), so they ride the same STATS/TELEMETRY
    snapshots — and ``repro top`` — as every other metric.
    """
    return {
        "depth": registry.gauge(
            "shard_queue_depth",
            "Triage queue depth per shard worker",
            ("shard", "stream"),
        ),
        "merged": registry.counter(
            "shard_windows_merged_total",
            "Window partials shipped and merged, per shard",
            ("shard",),
        ),
        "merge_seconds": registry.histogram(
            "shard_merge_seconds",
            "Coordinator time merging shard partials at window close",
            buckets=LATENCY_BUCKETS,
        ),
    }
