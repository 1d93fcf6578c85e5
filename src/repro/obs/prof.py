"""Continuous sampling profiler: where CPU time actually goes.

The paper's architecture is a cycle-budget argument — triage only pays for
itself while its own overhead stays small against query processing — so the
repo needs to see *where* time goes in the paths it keeps optimizing, not
just how long windows took.  :class:`SamplingProfiler` is the
dependency-free answer:

* a **daemon thread** wakes at a configurable rate (``hz``), walks every
  other thread's stack via :func:`sys._current_frames`, and counts the
  collapsed stack (leaf-innermost frames rendered ``module:function:line``)
  in a bounded table.  No signals, no tracing hooks, no per-call cost on
  the profiled code: the hot path never knows it is being sampled, which is
  what makes profiling byte-transparent to results and drop decisions.
* **bounded memory** — at most ``max_stacks`` distinct stacks are retained;
  further novel stacks fold into a ``(truncated)`` bucket (counted by
  ``prof_frames_truncated_total``), and stacks deeper than ``max_depth``
  keep their innermost frames.  A long-running server profiles forever in
  O(max_stacks) space.
* an **ambient phase tag** — the pipeline marks its current phase
  (``drain``/``exact``/``shadow``/``merge``) through :func:`set_phase`; the
  sampler prepends a synthetic ``phase:<name>`` root frame, so sampled
  stacks join against the identically-named trace spans.

Two export formats:

* :meth:`SamplingProfiler.export_collapsed` — Brendan Gregg's collapsed
  stack format (``frame;frame;frame count`` per line), flamegraph-ready,
  led by a ``# repro-prof/v1`` schema header.  :func:`validate_collapsed`
  / :func:`parse_collapsed` / :func:`merge_collapsed` round-trip it.
* :meth:`SamplingProfiler.to_jsonl` — a Chrome-trace-compatible JSONL
  document (``trace_epoch`` metadata + one instant per stack) that
  :func:`~repro.obs.trace.merge_jsonl_traces` accepts, so a profile can
  share a Perfetto timeline with a trace.

For fleets, :meth:`ship` / :meth:`absorb` mirror the audit ledger's
delta-shipping: a worker ships only the per-stack *increments* since its
last shipment, so a coordinator absorbing every shipment holds counts whose
total equals the sum of worker totals exactly — no double counting across
the shard RPC hop.

:func:`profile_diff` compares two collapsed profiles by per-function
self-time share and reports regressions (``repro prof --diff``).
"""

from __future__ import annotations

import json
import sys
import threading
import time
from contextlib import contextmanager

__all__ = [
    "PROF_SCHEMA",
    "ProfError",
    "SamplingProfiler",
    "set_phase",
    "current_phase",
    "phase",
    "validate_collapsed",
    "parse_collapsed",
    "merge_collapsed",
    "profile_diff",
    "top_functions",
    "render_top",
    "render_diff",
    "write_flamegraph_svg",
]

#: Schema tag carried in the collapsed header and every JSON export.
PROF_SCHEMA = "repro-prof/v1"

#: Synthetic frame absorbing stacks beyond the ``max_stacks`` bound.
TRUNCATED_FRAME = "(truncated)"

#: Prefix of the synthetic root frame carrying the ambient phase tag.
PHASE_PREFIX = "phase:"


class ProfError(ValueError):
    """Raised when a profile document fails schema validation."""


# ---------------------------------------------------------------------------
# Ambient phase context
# ---------------------------------------------------------------------------
# One process-wide slot, not a thread-local: the sampler thread reads it
# while sampling *other* threads, so a thread-local would always show the
# sampler's own (empty) value.  The pipeline is the only writer and its
# phases are serial, so a plain global is exact for the single-pipeline
# case and merely approximate if two pipelines interleave — acceptable for
# a tag whose job is joining samples to spans.
_current_phase: str | None = None


def set_phase(name: str | None) -> str | None:
    """Set the ambient phase tag; returns the previous value.

    Cheap enough for per-window call sites: one global store.  Pass ``None``
    to clear.  Samples taken while a phase is set gain a ``phase:<name>``
    synthetic root frame.
    """
    global _current_phase
    prev = _current_phase
    _current_phase = name
    return prev


def current_phase() -> str | None:
    """The ambient phase tag, or ``None`` when unset."""
    return _current_phase


@contextmanager
def phase(name: str):
    """Context manager form of :func:`set_phase` (restores on exit)."""
    prev = set_phase(name)
    try:
        yield
    finally:
        set_phase(prev)


# ---------------------------------------------------------------------------
# The sampler
# ---------------------------------------------------------------------------
class SamplingProfiler:
    """Background stack sampler with bounded memory and delta shipping.

    ``hz`` is the target sampling rate; the loop is drift-corrected, so the
    achieved rate tracks it even when a sweep is slow.  ``max_stacks``
    bounds the distinct-stack table and ``max_depth`` bounds frames kept
    per stack (innermost win).  ``label`` names the process track in
    merged Chrome traces; ``metrics`` (a
    :class:`~repro.obs.metrics.MetricsRegistry`) binds the ``prof_*``
    counters.
    """

    def __init__(
        self,
        hz: float = 97.0,
        *,
        max_stacks: int = 10_000,
        max_depth: int = 64,
        label: str = "repro-prof",
        metrics=None,
    ) -> None:
        if not hz > 0:
            raise ValueError(f"sampling rate must be > 0 Hz: {hz}")
        if max_stacks < 1:
            raise ValueError(f"max_stacks must be >= 1: {max_stacks}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1: {max_depth}")
        self.hz = float(hz)
        self.max_stacks = max_stacks
        self.max_depth = max_depth
        self.label = label
        self.epoch = time.time()
        self._counts: dict[tuple[str, ...], int] = {}
        self._lock = threading.Lock()
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self.samples = 0  # stack samples ever taken (one per thread per tick)
        self.truncated = 0  # novel stacks folded into the truncation bucket
        self._shipped_counts: dict[tuple[str, ...], int] = {}
        self._shipped_samples = 0
        self._shipped_truncated = 0
        self._c_samples = None
        self._c_truncated = None
        self._c_export = None
        if metrics is not None:
            self.bind_metrics(metrics)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def bind_metrics(self, registry) -> None:
        """Create and bind the ``prof_*`` counters on ``registry``."""
        self._c_samples = registry.counter(
            "prof_samples_total", "Stack samples taken by the profiler"
        )
        self._c_truncated = registry.counter(
            "prof_frames_truncated_total",
            "Novel stacks folded into the truncation bucket",
        )
        self._c_export = registry.counter(
            "prof_export_seconds_total",
            "Wall seconds spent rendering profile exports",
        )

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    @property
    def running(self) -> bool:
        return self._thread is not None and self._thread.is_alive()

    def start(self) -> None:
        """Start the sampling thread (idempotent)."""
        if self.running:
            return
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-prof-sampler", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        """Stop the sampling thread and join it (idempotent)."""
        thread = self._thread
        if thread is None:
            return
        self._stop.set()
        thread.join(timeout=2.0)
        self._thread = None

    def _run(self) -> None:
        period = 1.0 / self.hz
        clock = time.monotonic
        next_t = clock() + period
        me = threading.get_ident()
        while not self._stop.wait(max(0.0, next_t - clock())):
            self._sample_once(me)
            next_t += period
            now = clock()
            if next_t < now:  # fell behind; re-anchor instead of bursting
                next_t = now + period

    def _sample_once(self, skip_ident: int) -> None:
        tag = _current_phase
        stacks: list[tuple[str, ...]] = []
        for ident, frame in sys._current_frames().items():
            if ident == skip_ident:
                continue
            frames: list[str] = []
            depth = 0
            while frame is not None and depth < self.max_depth:
                code = frame.f_code
                mod = frame.f_globals.get("__name__", "?")
                frames.append(f"{mod}:{code.co_name}:{frame.f_lineno}")
                frame = frame.f_back
                depth += 1
            frames.reverse()  # root first, collapsed-stack order
            if tag is not None:
                frames.insert(0, PHASE_PREFIX + tag)
            stacks.append(tuple(frames))
        if not stacks:
            return
        truncated_now = 0
        with self._lock:
            counts = self._counts
            for stack in stacks:
                self.samples += 1
                if stack not in counts and len(counts) >= self.max_stacks:
                    self.truncated += 1
                    truncated_now += 1
                    stack = (TRUNCATED_FRAME,)
                    if stack not in counts:
                        # Table filled before the bucket existed: fold the
                        # rarest stack into it so the bucket has a slot and
                        # the total sample count is conserved.
                        victim = min(counts, key=counts.get)
                        counts[stack] = counts.pop(victim)
                counts[stack] = counts.get(stack, 0) + 1
        if self._c_samples is not None:
            self._c_samples.inc(len(stacks))
        if truncated_now and self._c_truncated is not None:
            self._c_truncated.inc(truncated_now)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[tuple[str, ...], int]:
        """A copy of the (stack tuple → sample count) table."""
        with self._lock:
            return dict(self._counts)

    def clear(self) -> None:
        """Drop all accumulated samples and shipment bookkeeping."""
        with self._lock:
            self._counts.clear()
            self._shipped_counts.clear()
            self.samples = 0
            self.truncated = 0
            self._shipped_samples = 0
            self._shipped_truncated = 0

    def summary(self) -> dict:
        """The compact JSON block STATS replies and TELEMETRY frames carry."""
        with self._lock:
            return {
                "schema": PROF_SCHEMA,
                "hz": self.hz,
                "running": self.running,
                "samples": self.samples,
                "stacks": len(self._counts),
                "truncated": self.truncated,
            }

    # ------------------------------------------------------------------
    # Fleet merge (mirrors DropLedger.ship/absorb)
    # ------------------------------------------------------------------
    def ship(self, window_ids=None) -> dict:
        """Serialize this profiler's *new* samples for a coordinator.

        Reports per-stack count increments since the last shipment, so a
        coordinator absorbing every shipment ends with a total sample count
        equal to the sum of worker totals exactly.  Safe to send over the
        shard RPC pipe; feed to :meth:`absorb` on the other side.
        ``window_ids`` is the shard channel's common argument
        (:meth:`repro.obs.Observability.ship`); samples belong to no window.
        """
        with self._lock:
            stacks = []
            for stack, n in self._counts.items():
                d = n - self._shipped_counts.get(stack, 0)
                if d:
                    stacks.append([list(stack), d])
                    self._shipped_counts[stack] = n
            samples = self.samples - self._shipped_samples
            self._shipped_samples = self.samples
            truncated = self.truncated - self._shipped_truncated
            self._shipped_truncated = self.truncated
        return {
            "schema": PROF_SCHEMA,
            "hz": self.hz,
            "stacks": stacks,
            "samples": samples,
            "truncated": truncated,
        }

    def absorb(self, shipment) -> int:
        """Merge a worker's :meth:`ship` output; returns samples absorbed."""
        if shipment.get("schema") != PROF_SCHEMA:
            raise ProfError(
                f"profile shipment schema mismatch: {shipment.get('schema')!r}"
            )
        samples = int(shipment.get("samples", 0))
        with self._lock:
            for frames, n in shipment.get("stacks", ()):
                stack = tuple(frames)
                if (
                    stack not in self._counts
                    and len(self._counts) >= self.max_stacks
                ):
                    self.truncated += int(n)
                    stack = (TRUNCATED_FRAME,)
                    if stack not in self._counts:
                        victim = min(self._counts, key=self._counts.get)
                        self._counts[stack] = self._counts.pop(victim)
                self._counts[stack] = self._counts.get(stack, 0) + int(n)
            self.samples += samples
            self.truncated += int(shipment.get("truncated", 0))
        return samples

    # ------------------------------------------------------------------
    # Exports
    # ------------------------------------------------------------------
    def export_collapsed(self, limit: int | None = None) -> str:
        """The profile in collapsed-stack format (``repro-prof/v1``).

        One ``frame;frame;... count`` line per stack, heaviest first, after
        a ``#``-prefixed schema header.  ``limit`` bounds the number of
        stack lines (for bounded live capture over the wire).
        """
        t0 = time.perf_counter()
        counts = self.snapshot()
        lines = [
            f"# {PROF_SCHEMA} hz={self.hz:g} samples={self.samples}"
            f" truncated={self.truncated} label={self.label}"
        ]
        ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
        if limit is not None:
            ranked = ranked[:limit]
        for stack, n in ranked:
            lines.append(";".join(stack) + f" {n}")
        if self._c_export is not None:
            self._c_export.inc(time.perf_counter() - t0)
        return "\n".join(lines) + "\n"

    def to_jsonl(self) -> str:
        """A Chrome-trace-compatible JSONL export of the profile.

        Leads with the same ``process_name``/``trace_epoch`` metadata a
        :class:`~repro.obs.trace.Tracer` emits, then one instant event per
        stack carrying the collapsed stack and its count, so
        ``repro trace --merge`` can place a profile beside a trace.
        """
        t0 = time.perf_counter()
        counts = self.snapshot()
        events: list[dict] = [
            {
                "name": "process_name",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": 0,
                "args": {"name": self.label},
            },
            {
                "name": "trace_epoch",
                "ph": "M",
                "ts": 0,
                "pid": 1,
                "tid": 0,
                "args": {"epoch": self.epoch, "label": self.label},
            },
        ]
        for stack, n in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])):
            events.append(
                {
                    "name": "prof_stack",
                    "cat": "prof",
                    "ph": "i",
                    "ts": 0,
                    "s": "t",
                    "pid": 1,
                    "tid": 0,
                    "args": {"stack": ";".join(stack), "count": n},
                }
            )
        text = "".join(json.dumps(e) + "\n" for e in events)
        if self._c_export is not None:
            self._c_export.inc(time.perf_counter() - t0)
        return text


# ---------------------------------------------------------------------------
# Collapsed-format round-trip
# ---------------------------------------------------------------------------
def parse_collapsed(text: str) -> tuple[dict, dict[tuple[str, ...], int]]:
    """Parse a collapsed export into ``(header, {stack: count})``.

    The header dict carries ``schema`` plus any ``key=value`` fields from
    the first comment line (``hz``/``samples``/``truncated`` parsed as
    numbers).  Raises :class:`ProfError` on malformed input.
    """
    header: dict = {}
    counts: dict[tuple[str, ...], int] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            parts = line[1:].split()
            if parts and "schema" not in header:
                header["schema"] = parts[0]
                for field in parts[1:]:
                    if "=" in field:
                        key, _, value = field.partition("=")
                        try:
                            header[key] = float(value) if "." in value else int(value)
                        except ValueError:
                            header[key] = value
            continue
        stack_part, _, count_part = line.rpartition(" ")
        if not stack_part:
            raise ProfError(f"line {lineno}: missing stack or count: {line!r}")
        try:
            n = int(count_part)
        except ValueError:
            raise ProfError(
                f"line {lineno}: count is not an integer: {count_part!r}"
            ) from None
        if n < 0:
            raise ProfError(f"line {lineno}: negative count: {n}")
        stack = tuple(f for f in stack_part.split(";") if f)
        if not stack:
            raise ProfError(f"line {lineno}: empty stack")
        counts[stack] = counts.get(stack, 0) + n
    if header.get("schema") != PROF_SCHEMA:
        raise ProfError(
            f"collapsed profile must start with a '# {PROF_SCHEMA}' header,"
            f" got {header.get('schema')!r}"
        )
    return header, counts


def validate_collapsed(text: str) -> dict:
    """Schema-check a collapsed export; returns its parsed header.

    Raises :class:`ProfError` naming the first offending line otherwise.
    Used by the CI obs-smoke step and the round-trip tests.
    """
    header, _ = parse_collapsed(text)
    return header


def merge_collapsed(texts) -> str:
    """Merge collapsed exports by summing per-stack counts.

    Header ``samples``/``truncated`` fields are summed too, so the merged
    document's totals equal the sum of the inputs' totals exactly.
    """
    merged: dict[tuple[str, ...], int] = {}
    samples = truncated = 0
    hz = None
    for text in texts:
        header, counts = parse_collapsed(text)
        samples += int(header.get("samples", 0))
        truncated += int(header.get("truncated", 0))
        if hz is None:
            hz = header.get("hz")
        for stack, n in counts.items():
            merged[stack] = merged.get(stack, 0) + n
    lines = [
        f"# {PROF_SCHEMA} hz={hz if hz is not None else 0:g}"
        f" samples={samples} truncated={truncated} label=merged"
    ]
    for stack, n in sorted(merged.items(), key=lambda kv: (-kv[1], kv[0])):
        lines.append(";".join(stack) + f" {n}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Self-time aggregation, top table, diff
# ---------------------------------------------------------------------------
def _function_of(frame: str) -> str:
    """``module:function:line`` → ``module:function`` (line dropped)."""
    head, sep, tail = frame.rpartition(":")
    return head if sep and tail.lstrip("-").isdigit() else frame


def self_time_shares(counts) -> dict[str, float]:
    """Per-function self-time shares from a (stack → count) table.

    Self time goes to each stack's leaf frame, keyed ``module:function``
    (line numbers dropped so edits don't fragment a function's total);
    synthetic ``phase:`` roots are skipped when they are the only frame.
    Shares are fractions of total samples, summing to 1 for non-empty input.
    """
    totals: dict[str, int] = {}
    grand = 0
    for stack, n in counts.items():
        leaf = stack[-1]
        if leaf.startswith(PHASE_PREFIX) and len(stack) > 1:
            leaf = stack[-2]
        totals[_function_of(leaf)] = totals.get(_function_of(leaf), 0) + n
        grand += n
    if not grand:
        return {}
    return {fn: n / grand for fn, n in totals.items()}


def top_functions(counts, n: int = 10) -> list[tuple[str, float]]:
    """The ``n`` heaviest functions by self-time share, heaviest first."""
    shares = self_time_shares(counts)
    return sorted(shares.items(), key=lambda kv: (-kv[1], kv[0]))[:n]


def render_top(counts, n: int = 10, title: str = "hot functions") -> str:
    """A fixed-width top-N self-time table for terminals."""
    rows = top_functions(counts, n)
    total = sum(counts.values())
    lines = [f"{title} ({total} samples)"]
    if not rows:
        lines.append("  (no samples)")
    for fn, share in rows:
        bar = "#" * max(1, round(share * 30))
        lines.append(f"  {share * 100:5.1f}%  {fn:<48s} {bar}")
    return "\n".join(lines)


def profile_diff(
    base_text: str,
    new_text: str,
    *,
    max_ratio: float = 2.0,
    min_share: float = 0.02,
    min_samples: int = 5,
) -> list[dict]:
    """Per-function self-time regressions between two collapsed profiles.

    A function regresses when its self-time share in ``new`` is at least
    ``min_share`` *and* exceeds ``max_ratio`` times its share in ``base``
    (a function absent from ``base`` has ratio ``inf`` — a new hotspot).
    Returns regression records sorted worst-first; an empty list is a pass.
    The share basis makes the comparison robust to differing run lengths
    and sample totals between the two captures; ``min_samples`` requires
    that many raw new-side samples behind a flagged function, so a
    one-sample blip in a short capture can never fire the gate.
    """
    if max_ratio <= 0:
        raise ValueError(f"max_ratio must be > 0: {max_ratio}")
    _, base_counts = parse_collapsed(base_text)
    _, new_counts = parse_collapsed(new_text)
    base = self_time_shares(base_counts)
    new = self_time_shares(new_counts)
    new_total = sum(new_counts.values())
    regressions = []
    for fn, share in new.items():
        if share < min_share:
            continue
        if share * new_total < min_samples:
            continue
        b = base.get(fn, 0.0)
        ratio = share / b if b > 0 else float("inf")
        if ratio > max_ratio:
            regressions.append(
                {
                    "function": fn,
                    "base_share": round(b, 6),
                    "new_share": round(share, 6),
                    "ratio": None if ratio == float("inf") else round(ratio, 3),
                }
            )
    regressions.sort(
        key=lambda r: (
            -(r["ratio"] if r["ratio"] is not None else float("inf")),
            -r["new_share"],
        )
    )
    return regressions


def render_diff(regressions, max_ratio: float, min_share: float) -> str:
    """Human-readable profile-diff report (pass or worst-first list)."""
    head = (
        f"profile diff (max self-time ratio {max_ratio:g},"
        f" min share {min_share:g})"
    )
    if not regressions:
        return head + "\n  ok: no per-function self-time regressions"
    lines = [head]
    for r in regressions:
        ratio = "new" if r["ratio"] is None else f"{r['ratio']:.2f}x"
        lines.append(
            f"  REGRESSION {r['function']}: "
            f"{r['base_share'] * 100:.2f}% -> {r['new_share'] * 100:.2f}% "
            f"({ratio})"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Flamegraph SVG
# ---------------------------------------------------------------------------
def _escape(text: str) -> str:
    return (
        text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        .replace('"', "&quot;")
    )


def write_flamegraph_svg(counts, path, *, width: int = 1200) -> None:
    """Render a (stack → count) table as a self-contained flamegraph SVG.

    Minimal but faithful: frame width ∝ inclusive samples, depth stacks
    upward, deterministic warm colors hashed from the frame name, hover
    titles with sample counts.  No external tooling required.
    """
    total = sum(counts.values())
    if not total:
        raise ProfError("cannot render a flamegraph from an empty profile")

    # Build the frame tree: node = [inclusive, {child frame: node}].
    root: list = [0, {}]
    max_depth = 0
    for stack, n in counts.items():
        root[0] += n
        node = root
        for depth, frame in enumerate(stack, 1):
            child = node[1].setdefault(frame, [0, {}])
            child[0] += n
            node = child
            max_depth = max(max_depth, depth)

    row_h = 16
    height = (max_depth + 2) * row_h
    rects: list[str] = []

    def color(name: str) -> str:
        h = 0
        for ch in name:
            h = (h * 31 + ord(ch)) & 0xFFFFFF
        return f"rgb(255,{120 + h % 100},{h % 80})"

    def emit(node, x: float, depth: int) -> None:
        for frame, child in sorted(node[1].items()):
            w = width * child[0] / total
            if w < 0.5:
                x += w
                continue
            y = height - (depth + 1) * row_h
            label = _escape(frame)
            pct = 100.0 * child[0] / total
            rects.append(
                f'<g><title>{label} ({child[0]} samples, {pct:.2f}%)</title>'
                f'<rect x="{x:.2f}" y="{y}" width="{w:.2f}" height="{row_h - 1}"'
                f' fill="{color(frame)}"/>'
                + (
                    f'<text x="{x + 2:.2f}" y="{y + row_h - 5}"'
                    f' font-size="10" font-family="monospace">'
                    f"{_escape(frame[: max(1, int(w / 7))])}</text>"
                    if w >= 20
                    else ""
                )
                + "</g>"
            )
            emit(child, x, depth + 1)
            x += w

    emit(root, 0.0, 0)
    svg = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}"'
        f' height="{height}" font-family="monospace">\n'
        f'<text x="4" y="{height - 4}" font-size="11">'
        f"repro flamegraph — {total} samples</text>\n" + "\n".join(rects) + "\n</svg>\n"
    )
    with open(path, "w", encoding="utf-8") as fp:
        fp.write(svg)
