"""repro.obs — the shared observability layer.

One package gathers the four concerns every other layer reports through:

* :mod:`repro.obs.metrics` — the dependency-free metrics registry
  (counters/gauges/histograms with Prometheus text export);
* :mod:`repro.obs.trace` — span + tuple-lifecycle tracing into a bounded
  ring buffer, exportable as Chrome-trace JSON (Perfetto) or JSON lines;
* :mod:`repro.obs.explain` — per-operator EXPLAIN ANALYZE of the
  executor's compiled plan (loaded lazily);
* :mod:`repro.obs.report` — per-window accuracy/latency accounting
  (loaded lazily: it pulls in :mod:`repro.quality`, which imports the
  core pipeline — eager import here would be circular, since the pipeline
  itself imports this package's metrics).

:class:`Observability` is the one handle instrumented layers accept: it
bundles a registry, a tracer, the optional drop ledger
(:mod:`repro.obs.audit`) and sampling profiler (:mod:`repro.obs.prof`), and
the per-window phase-timing store that
:func:`repro.obs.report.build_window_reports` later joins with accuracy.
Constructed with defaults it is *passive* — a fresh registry and the shared
:data:`NULL_TRACER`, so instrumented code pays only `is None` /
``tracer.enabled`` checks.
"""

from __future__ import annotations

import time
from contextlib import contextmanager, nullcontext

from repro.obs.metrics import (  # noqa: F401 - re-exported package surface
    DEFAULT_BUCKETS,
    DEFAULT_MAX_SERIES,
    LATENCY_BUCKETS,
    Counter,
    DeltaSnapshotter,
    Gauge,
    Histogram,
    MetricsRegistry,
    global_registry,
    record_hook_error,
)
from repro.obs.trace import (  # noqa: F401 - re-exported package surface
    NULL_TRACER,
    NullTracer,
    TraceError,
    Tracer,
    merge_jsonl_traces,
    new_span_id,
    new_trace_id,
    validate_chrome_trace,
)

__all__ = [
    "Observability",
    # metrics
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "DeltaSnapshotter",
    "DEFAULT_BUCKETS",
    "DEFAULT_MAX_SERIES",
    "LATENCY_BUCKETS",
    "global_registry",
    "record_hook_error",
    # trace
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceError",
    "new_trace_id",
    "new_span_id",
    "merge_jsonl_traces",
    "validate_chrome_trace",
    # lazy: profile / report / slo / top
    "OperatorProfile",
    "ProfileReport",
    "profile_execution",
    "render_profile",
    "WindowReport",
    "build_window_reports",
    "summarize_reports",
    "SLO",
    "Alert",
    "SLOEngine",
    "default_service_slos",
    "audit_service_slos",
    "Dashboard",
    "sparkline",
    "AUDIT_SCHEMA",
    "DropLedger",
    "ShedEvent",
    "attribute_window",
    "attribute_reports",
    "validate_ledger_jsonl",
    "read_ledger_jsonl",
    "scorecard_rollup",
    "render_scorecard",
    "PROF_SCHEMA",
    "ProfError",
    "SamplingProfiler",
    "set_phase",
    "current_phase",
    "validate_collapsed",
    "parse_collapsed",
    "merge_collapsed",
    "profile_diff",
    "top_functions",
    "render_top",
    "write_flamegraph_svg",
]

#: Names resolved on first attribute access (PEP 562), keeping this package
#: importable from the core pipeline without a circular import through
#: ``repro.quality`` → ``repro.core.pipeline``.
_LAZY = {
    "OperatorProfile": "repro.obs.explain",
    "ProfileReport": "repro.obs.explain",
    "profile_execution": "repro.obs.explain",
    "render_profile": "repro.obs.explain",
    "WindowReport": "repro.obs.report",
    "build_window_reports": "repro.obs.report",
    "summarize_reports": "repro.obs.report",
    "SLO": "repro.obs.slo",
    "Alert": "repro.obs.slo",
    "SLOEngine": "repro.obs.slo",
    "default_service_slos": "repro.obs.slo",
    "audit_service_slos": "repro.obs.slo",
    "Dashboard": "repro.obs.top",
    "sparkline": "repro.obs.top",
    "AUDIT_SCHEMA": "repro.obs.audit",
    "DropLedger": "repro.obs.audit",
    "ShedEvent": "repro.obs.audit",
    "attribute_window": "repro.obs.audit",
    "attribute_reports": "repro.obs.audit",
    "validate_ledger_jsonl": "repro.obs.audit",
    "read_ledger_jsonl": "repro.obs.audit",
    "scorecard_rollup": "repro.obs.audit",
    "render_scorecard": "repro.obs.audit",
    "PROF_SCHEMA": "repro.obs.prof",
    "ProfError": "repro.obs.prof",
    "SamplingProfiler": "repro.obs.prof",
    "set_phase": "repro.obs.prof",
    "current_phase": "repro.obs.prof",
    "validate_collapsed": "repro.obs.prof",
    "parse_collapsed": "repro.obs.prof",
    "merge_collapsed": "repro.obs.prof",
    "profile_diff": "repro.obs.prof",
    "top_functions": "repro.obs.prof",
    "render_top": "repro.obs.prof",
    "write_flamegraph_svg": "repro.obs.prof",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    return getattr(importlib.import_module(module), name)


#: The parts that cross the shard pipe: (name in the shipped table, bundle
#: attribute).  Each part answers ``ship(window_ids)`` / ``absorb(delta)``.
_SHIPPED = (("audit", "ledger"), ("prof", "sampler"))

_UNTAGGED = nullcontext()  # a window phase with no sampler to tag


class Observability:
    """The one handle an instrumented layer is given.

    ``registry`` collects metrics, ``tracer`` collects spans and
    tuple-lifecycle events, and :attr:`phase_seconds` accumulates the
    per-window evaluation-phase timings that :class:`WindowReport` joins
    with accuracy.  Pass ``trace=True`` to record spans (the default keeps
    the shared no-op :data:`NULL_TRACER`, so metrics-only instrumentation
    stays cheap).

    ``ledger`` (a :class:`~repro.obs.audit.DropLedger`) and ``sampler`` (a
    :class:`~repro.obs.prof.SamplingProfiler`) are the two optional parts;
    both are plain attributes, so a caller may also set them between
    construction and the first run.  The layers read them from here:
    queues and the pattern engine record shed decisions into ``ledger``,
    and the phase seams below tag the ``sampler``'s stacks.  Whoever
    attaches a sampler owns its lifetime (``start()`` / ``stop()``).
    """

    def __init__(
        self,
        *,
        trace: bool = False,
        trace_capacity: int = 65536,
        tuple_events: bool = True,
        label: str = "repro",
        ledger=None,
        sampler=None,
    ) -> None:
        self.registry = MetricsRegistry()
        self.tracer = (
            Tracer(trace_capacity, tuple_events=tuple_events, label=label)
            if trace
            else NULL_TRACER
        )
        self.ledger = ledger
        self.sampler = sampler
        if self.tracer.enabled:
            # Ring-buffer overflow must be visible, not silent: every event
            # evicted by a full trace buffer counts here.
            self.tracer.bind_drop_counter(
                self.registry.counter(
                    "trace_events_dropped_total",
                    "Trace events evicted by the ring buffer",
                )
            )
        #: window id → {phase: seconds}; run-level phases (queue drain) use
        #: :attr:`run_phase_seconds` instead, since they span windows.
        self.phase_seconds: dict[int, dict[str, float]] = {}
        self.run_phase_seconds: dict[str, float] = {}
        self._phase_hist = self.registry.histogram(
            "pipeline_phase_seconds",
            "Wall time per pipeline phase (drain/exact/shadow/merge)",
            ("phase",),
            buckets=LATENCY_BUCKETS,
        )

    def record_phase(self, window_id: int, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of ``phase`` work to ``window_id``."""
        per = self.phase_seconds.setdefault(window_id, {})
        per[phase] = per.get(phase, 0.0) + seconds
        self._phase_hist.observe(seconds, phase=phase)

    def record_run_phase(self, phase: str, seconds: float) -> None:
        """Charge ``seconds`` of run-level (cross-window) ``phase`` work."""
        self.run_phase_seconds[phase] = (
            self.run_phase_seconds.get(phase, 0.0) + seconds
        )
        self._phase_hist.observe(seconds, phase=phase)

    # ------------------------------------------------------------------
    # The phase seam: the only way a layer names what it is doing
    # ------------------------------------------------------------------
    @contextmanager
    def phase_tags(self, phase: str):
        """A stretch of work tagged ``phase`` on the sampler's stacks.

        Yields the flip function (one global store per call) for callers
        whose phase alternates inside the stretch — the replay loop flips
        per arrival — or ``None`` when no sampler is attached, so a flip
        costs one branch.  The tag that was set before comes back on exit,
        error or not.
        """
        if self.sampler is None:
            yield None
        else:
            from repro.obs.prof import phase as tagged, set_phase

            with tagged(phase):
                yield set_phase

    @contextmanager
    def window_phase(self, window_id: int, phase: str):
        """One evaluation phase of one window (``exact``/``shadow``/``merge``):
        tagged like :meth:`phase_tags`, its wall time charged to
        ``window_id`` and, when tracing, recorded as the same-named span."""
        with self.phase_tags(phase) if self.sampler is not None else _UNTAGGED:
            t0 = time.perf_counter()
            try:
                yield
            finally:
                t1 = time.perf_counter()
                self.record_phase(window_id, phase, t1 - t0)
                if self.tracer.enabled:
                    self.tracer.complete(
                        phase, t0, t1, cat="window", window=window_id
                    )

    # ------------------------------------------------------------------
    # The shard channel: one table of deltas, keyed by ``_SHIPPED``
    # ------------------------------------------------------------------
    def worker_spec(self, seed: int) -> dict | None:
        """What a shard worker needs to build its local bundle, or None.

        Constructor keywords per attached part.  ``seed`` only drives the
        worker ledger's exemplar sampling, never a drop decision.
        """
        spec = {}
        if self.ledger is not None:
            spec["ledger"] = {
                "capacity": self.ledger.capacity,
                "exemplars": self.ledger.exemplars,
                "seed": seed,
            }
        if self.sampler is not None:
            spec["sampler"] = {
                "hz": self.sampler.hz,
                "max_stacks": self.sampler.max_stacks,
            }
        return spec or None

    @classmethod
    def from_worker_spec(cls, spec: dict) -> "Observability":
        """Worker side of :meth:`worker_spec`; the sampler comes started."""
        ledger = sampler = None
        if "ledger" in spec:
            from repro.obs.audit import DropLedger

            ledger = DropLedger(**spec["ledger"])
        if "sampler" in spec:
            from repro.obs.prof import SamplingProfiler

            sampler = SamplingProfiler(**spec["sampler"])
            sampler.start()
        return cls(ledger=ledger, sampler=sampler)

    def ship(self, window_ids=None) -> dict | None:
        """``{name: delta}`` of what each attached part saw since it last
        shipped (ledger buckets of ``window_ids``; all pending when None).

        ``None``, not an empty table, when nothing is attached.  Deltas are
        additive, so shipping early or twice never double counts.
        """
        table = {}
        for name, attr in _SHIPPED:
            part = getattr(self, attr)
            if part is not None:
                table[name] = part.ship(window_ids)
        return table or None

    def absorb(self, table: dict) -> None:
        """Merge a worker's :meth:`ship` table into this bundle's parts."""
        for name, attr in _SHIPPED:
            if name in table:
                getattr(self, attr).absorb(table[name])

