"""Per-window accuracy/latency accounting: one record per window.

Figures 8 and 9 of the paper plot accuracy *against* latency — the whole
point of Data Triage is that those two live on one budget.  A
:class:`WindowReport` joins the two sides for a single window:

* **accounting** from the run itself — arrivals, kept, dropped, the
  staleness the triage queue imposed (``result_latency``);
* **accuracy** from :mod:`repro.quality` — the window's RMS error against
  the ideal (no-shedding) result, when the run computed one;
* **timing** from the observability layer — per-phase evaluation seconds
  (drain / exact / shadow / merge), when an instrumented run recorded them.

:func:`build_window_reports` derives the reports from a finished
:class:`~repro.core.pipeline.RunResult`; the network service exports them
in its STATS reply and ``repro trace`` prints them, so "why was window 17
slow / inaccurate" has a one-line answer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.quality.rms import _sole_aggregate, window_rms

__all__ = ["WindowReport", "build_window_reports", "summarize_reports"]


@dataclass(frozen=True)
class WindowReport:
    """Everything needed to judge one window: load, loss, lag, error."""

    window_id: int
    start: float
    end: float
    arrived: int
    kept: int
    dropped: int
    #: Queue-imposed staleness: seconds after window close the engine
    #: finished the window's last kept tuple (None when untracked).
    result_latency: float | None
    #: RMS error vs the ideal result (None without ``compute_ideal``).
    rms_error: float | None
    #: Per-phase evaluation seconds (``exact``/``shadow``/``merge``; empty
    #: when the run was not instrumented).
    phase_seconds: dict[str, float] = field(default_factory=dict)

    @property
    def drop_fraction(self) -> float:
        return self.dropped / self.arrived if self.arrived else 0.0

    def to_dict(self) -> dict:
        return {
            "window_id": self.window_id,
            "start": self.start,
            "end": self.end,
            "arrived": self.arrived,
            "kept": self.kept,
            "dropped": self.dropped,
            "drop_fraction": self.drop_fraction,
            "result_latency": self.result_latency,
            "rms_error": self.rms_error,
            "phase_seconds": dict(self.phase_seconds),
        }


def build_window_reports(
    result,
    window,
    *,
    aggregate: str | None = None,
    phase_seconds: dict[int, dict[str, float]] | None = None,
) -> list[WindowReport]:
    """Reports for every window of ``result`` (a RunResult).

    ``window`` is the run's :class:`~repro.engine.window.WindowSpec` (for
    window bounds); ``phase_seconds`` maps window id to per-phase timings
    recorded by an instrumented evaluation (see
    :class:`~repro.obs.Observability`).  RMS error is computed only for
    windows that carry an ideal result, with the aggregate name resolved
    the same way :func:`repro.quality.rms.run_rms` resolves it.
    """
    reports: list[WindowReport] = []
    phase_seconds = phase_seconds or {}
    for w in result.windows:
        rms_error: float | None = None
        if w.ideal is not None:
            agg = aggregate or _sole_aggregate(w.ideal, w.merged)
            if agg is None:
                rms_error = 0.0  # no groups on either side: zero error
            else:
                rms_error = window_rms(w.ideal, w.merged, agg)
        start, end = window.bounds(w.window_id)
        reports.append(
            WindowReport(
                window_id=w.window_id,
                start=start,
                end=end,
                arrived=sum(w.arrived.values()),
                kept=sum(w.kept.values()),
                dropped=sum(w.dropped.values()),
                result_latency=w.result_latency,
                rms_error=rms_error,
                phase_seconds=dict(phase_seconds.get(w.window_id, {})),
            )
        )
    return reports


def summarize_reports(reports: list[WindowReport]) -> dict:
    """Run-level rollup of a report list (JSON-safe).

    Means are over the windows that carry the value; ``worst_*`` point back
    at the window ids so "which window was the problem" stays one lookup.
    """
    if not reports:
        return {"windows": 0}
    latencies = [r.result_latency for r in reports if r.result_latency is not None]
    errors = [r.rms_error for r in reports if r.rms_error is not None]
    out: dict = {
        "windows": len(reports),
        "arrived": sum(r.arrived for r in reports),
        "kept": sum(r.kept for r in reports),
        "dropped": sum(r.dropped for r in reports),
    }
    if latencies:
        worst = max(reports, key=lambda r: r.result_latency or 0.0)
        out["mean_result_latency"] = sum(latencies) / len(latencies)
        out["max_result_latency"] = worst.result_latency
        out["worst_latency_window"] = worst.window_id
    if errors:
        worst = max(reports, key=lambda r: r.rms_error or 0.0)
        out["mean_rms_error"] = sum(errors) / len(errors)
        out["max_rms_error"] = worst.rms_error
        out["worst_error_window"] = worst.window_id
    return out
