"""Command-line interface: run the paper's experiments without writing code.

::

    python -m repro.cli fig6 [--rows N]
    python -m repro.cli fig8 [--rates 100,300,...] [--runs N]
    python -m repro.cli fig9 [--peaks 600,1200,...] [--runs N]
    python -m repro.cli explain "SELECT ..."        # engine + rewrite plans
    python -m repro.cli rewrite "SELECT ..."        # Figures 4/5 SQL
    python -m repro.cli trace [--out trace.json]    # traced Figure 9 run
    python -m repro.cli trace --merge a.jsonl b.jsonl  # stitch process traces
    python -m repro.cli serve [--port 7077] [...]   # live triage service
    python -m repro.cli top [--once]                # live service dashboard
    python -m repro.cli audit [--once|--ledger f]   # shed-provenance scorecard
    python -m repro.cli prof out.collapsed          # hot-function table / SVG
    python -m repro.cli prof --diff base.collapsed new.collapsed  # regressions
    python -m repro.cli prof --port 7077            # live capture from a server

All load experiments print the figure's data table, a terminal chart, and a
CSV block.  ``explain``/``rewrite`` operate on the paper's R/S/T catalog,
and so does ``serve`` unless ``--query`` names different streams.  With the
package installed, the same interface is available as the ``repro``
console script (``repro serve``, ``repro fig8``, ...).
"""

from __future__ import annotations

import argparse
import asyncio
import sys
import time

from repro.engine.explain import explain as engine_explain
from repro.experiments import (
    ExperimentParams,
    fast_synopsis_factory,
    figure8_series,
    figure9_series,
    microbench_original,
    microbench_rewritten,
    microbench_setup,
    paper_catalog,
    slow_synopsis_factory,
)
from repro.core.policies import POLICY_CHOICES, policy_help
from repro.rewrite import SPJPlan, explain_rewrite, rewrite_to_sql
from repro.sql import Binder, parse_statement


def _floats(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x.strip()]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.cli", description="Data Triage experiment runner"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    fig6 = sub.add_parser("fig6", help="query-rewrite overhead microbenchmark")
    fig6.add_argument("--rows", type=int, default=2000, help="rows per table")

    fig8 = sub.add_parser("fig8", help="RMS error vs. constant data rate")
    fig8.add_argument(
        "--rates", type=_floats, default=[100, 300, 600, 1000, 1600, 2200, 2800]
    )
    fig8.add_argument("--runs", type=int, default=9)
    fig8.add_argument("--svg", help="also write an SVG chart to this path")

    fig9 = sub.add_parser("fig9", help="RMS error vs. peak rate (bursty)")
    fig9.add_argument(
        "--peaks", type=_floats, default=[600, 1200, 2000, 3000, 4500]
    )
    fig9.add_argument("--runs", type=int, default=9)
    fig9.add_argument("--svg", help="also write an SVG chart to this path")

    expl = sub.add_parser("explain", help="engine + rewrite plans for a query")
    expl.add_argument("query")

    rew = sub.add_parser("rewrite", help="emit the Figures 4/5 SQL for a query")
    rew.add_argument("query")

    trace = sub.add_parser(
        "trace",
        help="run an instrumented Figure 9 pipeline; write a Chrome trace",
    )
    trace.add_argument(
        "--peak", type=float, default=2000.0, help="peak arrival rate, tuples/s"
    )
    trace.add_argument("--seed", type=int, default=0)
    trace.add_argument(
        "--quick", action="store_true", help="smaller workload (2 windows)"
    )
    trace.add_argument(
        "--out",
        default="trace.json",
        help="trace output path (default: trace.json)",
    )
    trace.add_argument(
        "--format",
        choices=("chrome", "jsonl"),
        default="chrome",
        help="chrome (Perfetto-loadable JSON, default) or jsonl",
    )
    trace.add_argument(
        "--metrics-out",
        default=None,
        metavar="PATH",
        help="also write a Prometheus text snapshot of the run's metrics",
    )
    trace.add_argument(
        "--audit-out",
        default=None,
        metavar="PATH",
        help="also run the pipeline with a shed-provenance audit ledger and "
        "write it (JSONL, with per-window RMS attribution) to this path; "
        "read it back with `repro audit --ledger PATH`",
    )
    trace.add_argument(
        "--profile-out",
        default=None,
        metavar="PATH",
        help="also sample the run with the continuous profiler and write "
        "collapsed stacks (repro-prof/v1) to this path",
    )
    trace.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        help="sampling rate for --profile-out, samples/second (default: 97)",
    )
    trace.add_argument(
        "--capacity",
        type=int,
        default=262144,
        help="trace ring-buffer capacity, events (oldest evicted beyond it)",
    )
    trace.add_argument(
        "--no-tuple-events",
        action="store_true",
        help="spans only; skip per-tuple lifecycle instants",
    )
    trace.add_argument(
        "--merge",
        nargs="+",
        metavar="JSONL",
        default=None,
        help="instead of running: stitch per-process JSONL exports "
        "(e.g. client.jsonl server.jsonl) into one clock-aligned "
        "Chrome trace at --out",
    )
    trace.add_argument(
        "--labels",
        default=None,
        help="comma-separated process-track names for --merge inputs",
    )

    serve = sub.add_parser(
        "serve", help="run the streaming ingest/subscribe triage service"
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=7077)
    serve.add_argument(
        "--query",
        default=None,
        help="continuous aggregate query to serve (default: the paper's Figure 7 query)",
    )
    serve.add_argument(
        "--window", type=float, default=1.0, help="window width, seconds"
    )
    serve.add_argument(
        "--queue-capacity", type=int, default=200, help="triage queue capacity"
    )
    serve.add_argument(
        "--engine-capacity",
        type=float,
        default=500.0,
        help="engine throughput, tuples/second",
    )
    serve.add_argument(
        "--grace",
        type=float,
        default=0.0,
        help="extra seconds to wait before closing a window",
    )
    serve.add_argument("--max-sessions", type=int, default=64)
    serve.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="per-session publish cap, rows/second (default: uncapped)",
    )
    serve.add_argument(
        "--adaptive",
        type=float,
        default=None,
        metavar="STALENESS",
        help="enable adaptive queue sizing targeting this staleness budget (s)",
    )
    serve.add_argument(
        "--shards",
        type=int,
        default=1,
        metavar="N",
        help="triage worker processes; streams are hash-partitioned across "
        "them and partial windows merged at close (default: 1, in-process)",
    )
    serve.add_argument(
        "--duration",
        type=float,
        default=None,
        help="serve for this many seconds, then shut down gracefully "
        "(default: until interrupted)",
    )
    serve.add_argument(
        "--telemetry-interval",
        type=float,
        default=1.0,
        help="seconds between TELEMETRY pushes and SLO evaluations "
        "(0 disables)",
    )
    serve.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="record a server-side trace and write it (JSONL) on shutdown; "
        "merge with a client export via `repro trace --merge`",
    )
    serve.add_argument(
        "--drop-policy",
        choices=POLICY_CHOICES,
        default="random",
        help="triage-queue victim selection (default: random; "
        "pattern-utility needs --pattern to see engine state). "
        + policy_help(),
    )
    serve.add_argument(
        "--pattern",
        default=None,
        metavar="SQL",
        help="also host a PATTERN SEQ(...) query over the served streams "
        "(serial plane only; cep_* metrics appear in STATS)",
    )
    serve.add_argument(
        "--audit",
        action="store_true",
        help="record every shed decision in the provenance audit ledger "
        "(audit_* metrics, STATS/TELEMETRY audit blocks, `repro audit`)",
    )
    serve.add_argument(
        "--profile-hz",
        type=float,
        default=None,
        metavar="HZ",
        help="run the continuous sampling profiler at this rate; STATS and "
        "TELEMETRY gain a prof block and `repro prof` can capture live "
        "flamegraph data (default: off)",
    )
    serve.add_argument(
        "--audit-ring",
        type=int,
        default=1024,
        metavar="N",
        help="audit event-ring capacity, sampled exemplars (default: 1024)",
    )

    top = sub.add_parser(
        "top", help="live ANSI dashboard over a running triage service"
    )
    top.add_argument("--host", default="127.0.0.1")
    top.add_argument("--port", type=int, default=7077)
    top.add_argument(
        "--once",
        action="store_true",
        help="print one STATS snapshot and exit (no screen clearing)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        help="requested telemetry push interval, seconds",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=None,
        metavar="N",
        help="exit after N telemetry frames (default: run until the feed ends)",
    )
    top.add_argument(
        "--no-color", action="store_true", help="plain text, no ANSI colors"
    )

    audit = sub.add_parser(
        "audit",
        help="shed-provenance scorecard: which policy shed what, at what "
        "quality cost (live server, or a JSONL ledger export)",
    )
    audit.add_argument("--host", default="127.0.0.1")
    audit.add_argument("--port", type=int, default=7077)
    audit.add_argument(
        "--ledger",
        default=None,
        metavar="PATH",
        help="read a JSONL ledger export (e.g. from `repro trace "
        "--audit-out`) instead of querying a live server",
    )
    audit.add_argument(
        "--once",
        action="store_true",
        help="print one scorecard and exit (implied by --ledger)",
    )
    audit.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="live refresh period, seconds (default: 2)",
    )
    audit.add_argument(
        "--json",
        action="store_true",
        help="emit the raw audit block as JSON instead of the scorecard",
    )

    prof = sub.add_parser(
        "prof",
        help="inspect repro-prof/v1 collapsed-stack profiles: hot-function "
        "table, flamegraph SVG, regression diff, or live capture",
    )
    prof.add_argument(
        "collapsed",
        nargs="*",
        metavar="COLLAPSED",
        help="collapsed-stack file(s) (e.g. from `repro trace "
        "--profile-out`); several are merged. Omit to "
        "capture live from a server started with --profile-hz",
    )
    prof.add_argument(
        "--diff",
        nargs=2,
        metavar=("BASE", "NEW"),
        default=None,
        help="instead of a table: compare two profiles and exit 1 if any "
        "function's self-time share regressed past --max-ratio",
    )
    prof.add_argument(
        "--max-ratio",
        type=float,
        default=2.0,
        help="--diff: tolerated new/base self-time share ratio (default: 2)",
    )
    prof.add_argument(
        "--min-share",
        type=float,
        default=0.02,
        help="--diff: ignore functions below this self-time share "
        "(default: 0.02)",
    )
    prof.add_argument(
        "--min-samples",
        type=int,
        default=5,
        help="--diff: ignore functions backed by fewer raw samples in the "
        "new capture (default: 5)",
    )
    prof.add_argument(
        "--top", type=int, default=15, help="table size (default: 15)"
    )
    prof.add_argument(
        "--svg",
        default=None,
        metavar="PATH",
        help="also render a flamegraph SVG of the profile to this path",
    )
    prof.add_argument(
        "--out",
        default=None,
        metavar="PATH",
        help="write the (merged or captured) collapsed profile to this path",
    )
    prof.add_argument("--host", default="127.0.0.1")
    prof.add_argument("--port", type=int, default=7077)
    prof.add_argument(
        "--limit",
        type=int,
        default=None,
        metavar="N",
        help="live capture: cap the reply at the N hottest stacks",
    )

    return parser


def cmd_fig6(args, out) -> int:
    setup = microbench_setup(rows_per_table=args.rows)

    def timed(label, fn, *fn_args):
        t0 = time.perf_counter()
        fn(*fn_args)
        secs = time.perf_counter() - t0
        out.write(f"{label:32s} {secs:8.3f} s\n")
        return secs

    out.write(f"Figure 6 microbenchmark ({args.rows} rows/table)\n")
    original = timed("original query", microbench_original, setup)
    fast = timed(
        "rewritten (fast synopsis)", microbench_rewritten, setup,
        fast_synopsis_factory(),
    )
    timed(
        "rewritten (slow synopsis)", microbench_rewritten, setup,
        slow_synopsis_factory(),
    )
    out.write(f"fast/original ratio: {fast / original:.1%}\n")
    return 0


def cmd_series(series, out, svg_path: str | None = None) -> int:
    out.write(series.to_text() + "\n")
    out.write(series.to_ascii_chart() + "\n")
    out.write(series.to_csv())
    if svg_path:
        from repro.viz import render_series_svg

        with open(svg_path, "w", encoding="utf-8") as fp:
            fp.write(render_series_svg(series))
        out.write(f"\nSVG chart written to {svg_path}\n")
    return 0


def cmd_explain(args, out) -> int:
    catalog = paper_catalog()
    bound = Binder(catalog).bind(parse_statement(args.query))
    out.write("ENGINE PLAN\n-----------\n")
    out.write(engine_explain(bound))
    try:
        plan = SPJPlan.from_bound(bound)
    except Exception as exc:  # noqa: BLE001 - shown to the user
        out.write(f"\n(rewrite not applicable: {exc})\n")
        return 0
    out.write("\n")
    out.write(explain_rewrite(plan))
    return 0


def cmd_rewrite(args, out) -> int:
    catalog = paper_catalog()
    bound = Binder(catalog).bind(parse_statement(args.query))
    out.write(rewrite_to_sql(SPJPlan.from_bound(bound)) + "\n")
    return 0


def build_obs(
    *,
    trace: bool = False,
    audit: bool = False,
    audit_ring: int = 1024,
    profile_hz: float | None = None,
    seed: int = 0,
    profile_label: str = "repro-prof",
    **tracer_kwargs,
):
    """The observability bundle a command's flags ask for; None for none.

    The one place the CLI builds an :class:`repro.obs.Observability`:
    ``repro serve`` and ``repro trace`` both map their flags onto it.
    ``trace`` records spans (``tracer_kwargs``: ``label``,
    ``trace_capacity``, ``tuple_events``); ``audit`` attaches a
    :class:`~repro.obs.audit.DropLedger` whose event ring holds
    ``audit_ring`` events and whose exemplar sampling is seeded by
    ``seed``; ``profile_hz`` attaches a
    :class:`~repro.obs.prof.SamplingProfiler` labelled ``profile_label``,
    not yet started.  Both parts count into the bundle's registry.
    """
    if not (trace or audit or profile_hz is not None):
        return None
    from repro.obs import Observability

    obs = Observability(trace=trace, **tracer_kwargs)
    if audit:
        from repro.obs.audit import DropLedger

        obs.ledger = DropLedger(capacity=audit_ring, seed=seed, metrics=obs.registry)
    if profile_hz is not None:
        from repro.obs.prof import SamplingProfiler

        obs.sampler = SamplingProfiler(
            profile_hz, label=profile_label, metrics=obs.registry
        )
    return obs


def cmd_trace(args, out) -> int:
    from repro.core.strategies import ShedStrategy
    from repro.obs import build_window_reports, summarize_reports
    from repro.obs.trace import validate_chrome_trace
    from repro.experiments import bursty_pipeline

    if args.merge is not None:
        return cmd_trace_merge(args, out)

    params = ExperimentParams(n_windows=2 if args.quick else 8)
    obs = build_obs(
        trace=True,
        trace_capacity=args.capacity,
        tuple_events=not args.no_tuple_events,
        audit=bool(args.audit_out),
        seed=args.seed,
        profile_hz=args.profile_hz if args.profile_out else None,
        profile_label="trace-fig9",
    )
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, args.peak, params, args.seed, obs=obs
    )
    result = pipeline.run(streams)
    if args.profile_out:
        obs.sampler.stop()
        with open(args.profile_out, "w", encoding="utf-8") as fp:
            fp.write(obs.sampler.export_collapsed())
        out.write(
            f"profile: {obs.sampler.samples} samples at "
            f"{args.profile_hz:g} Hz -> {args.profile_out}\n"
        )

    tracer = obs.tracer
    if args.format == "chrome":
        # Built once: each build expands the run's deferred events again.
        doc = tracer.to_chrome()
        validate_chrome_trace(doc)
        write_chrome(args.out, doc)
    else:
        tracer.write(args.out, fmt=args.format)
    reports = build_window_reports(
        result, pipeline.config.window, phase_seconds=obs.phase_seconds
    )
    summary = summarize_reports(reports)
    out.write(
        f"traced Figure 9 run: peak {args.peak:g} tuples/s, "
        f"{summary['windows']} windows, "
        f"drop fraction {result.drop_fraction:.1%}\n"
    )
    if "mean_rms_error" in summary:
        out.write(
            f"mean RMS error {summary['mean_rms_error']:.3f} "
            f"(worst window {summary['worst_error_window']})\n"
        )
    out.write(
        f"{len(tracer)} events retained ({tracer.emitted} emitted, "
        f"{tracer.dropped} evicted) -> {args.out} [{args.format}]\n"
    )
    ledger = obs.ledger
    if ledger is not None:
        from repro.obs.audit import attribute_reports

        # This run computed an ideal answer, so attribution joins the
        # ledger against each window's real RMS error (not a proxy).
        taken = ledger.take_windows(sorted(ledger.pending_windows()))
        attributions = attribute_reports(taken, reports)
        with open(args.audit_out, "w", encoding="utf-8") as fp:
            lines = ledger.export_jsonl(fp, attributions)
        out.write(
            f"audit ledger: {ledger.total} shed events, "
            f"{len(attributions)} windows attributed "
            f"-> {args.audit_out} ({lines} lines)\n"
        )
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fp:
            fp.write(obs.registry.render_prometheus())
        out.write(f"metrics snapshot -> {args.metrics_out}\n")
    return 0


def write_chrome(path, doc: dict) -> None:
    """Write a Chrome trace document as :meth:`Tracer.write` does."""
    import json

    with open(path, "w", encoding="utf-8") as fp:
        json.dump(doc, fp, indent=1)
        fp.write("\n")


def cmd_trace_merge(args, out) -> int:
    """``repro trace --merge a.jsonl b.jsonl``: one clock-aligned document."""
    from repro.obs.trace import merge_jsonl_traces

    labels = (
        [x.strip() for x in args.labels.split(",")] if args.labels else None
    )
    doc = merge_jsonl_traces(args.merge, labels=labels)
    write_chrome(args.out, doc)
    offsets = doc["otherData"]["clock_offsets_us"]
    out.write(
        f"merged {len(args.merge)} traces "
        f"({len(doc['traceEvents'])} events) -> {args.out}\n"
    )
    for label, offset in offsets.items():
        out.write(f"  {label}: clock offset {offset / 1e3:+.3f} ms\n")
    return 0


def cmd_top(args, out) -> int:
    from repro.obs.top import run_top

    try:
        return asyncio.run(
            run_top(
                args.host,
                args.port,
                once=args.once,
                color=not args.no_color,
                interval=args.interval,
                max_frames=args.frames,
                out=out,
            )
        )
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except ConnectionError as exc:
        out.write(f"cannot reach {args.host}:{args.port}: {exc}\n")
        return 1


def cmd_audit(args, out) -> int:
    """Render the shed-provenance scorecard (see repro.obs.audit).

    With ``--ledger`` the source is a JSONL export (validated against the
    ``repro-audit/v1`` schema); otherwise a live server's STATS audit block,
    printed once or on a refresh loop.
    """
    import json

    from repro.obs.audit import read_ledger_jsonl, render_scorecard

    if args.ledger:
        try:
            doc = read_ledger_jsonl(args.ledger)
        except OSError as exc:
            out.write(f"audit error: cannot read {args.ledger}: {exc}\n")
            return 2
        except ValueError as exc:
            out.write(f"audit error: invalid ledger {args.ledger}: {exc}\n")
            return 2
        attributions = doc["attributions"]
        if args.json:
            out.write(
                json.dumps(
                    {"summary": doc["header"], "attributions": attributions},
                    indent=1,
                    sort_keys=True,
                )
                + "\n"
            )
        else:
            out.write(render_scorecard(doc["header"], attributions) + "\n")
        return 0

    from repro.service.client import TriageClient

    async def run() -> int:
        client = await TriageClient.connect(
            args.host, args.port, client_name="repro-audit"
        )
        try:
            while True:
                stats = await client.stats()
                audit = stats.get("audit")
                if audit is None:
                    out.write(
                        "server is not auditing (start it with "
                        "`repro serve --audit`)\n"
                    )
                    return 1
                if args.json:
                    out.write(json.dumps(audit, indent=1, sort_keys=True) + "\n")
                else:
                    out.write(
                        render_scorecard(
                            audit.get("summary") or {},
                            audit.get("attributions") or (),
                        )
                        + "\n"
                    )
                if args.once:
                    return 0
                await asyncio.sleep(args.interval)
        finally:
            await client.close()

    try:
        return asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        return 0
    except ConnectionError as exc:
        out.write(f"cannot reach {args.host}:{args.port}: {exc}\n")
        return 1


def cmd_prof(args, out) -> int:
    """Offline or live view over ``repro-prof/v1`` collapsed profiles.

    File mode renders a hot-function table (or ``--diff`` regressions,
    exit 1 when any fire); with no files it captures live from a server
    started with ``--profile-hz``.  Exit 2 means a file could not be
    read or failed schema validation.
    """
    from repro.obs.prof import (
        ProfError,
        merge_collapsed,
        parse_collapsed,
        profile_diff,
        render_diff,
        render_top,
        validate_collapsed,
        write_flamegraph_svg,
    )

    def read_profile(path: str) -> str:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read()
        validate_collapsed(text)
        return text

    try:
        if args.diff is not None:
            base_path, new_path = args.diff
            regressions = profile_diff(
                read_profile(base_path),
                read_profile(new_path),
                max_ratio=args.max_ratio,
                min_share=args.min_share,
                min_samples=args.min_samples,
            )
            out.write(
                f"profile diff: {base_path} -> {new_path}\n"
                + render_diff(regressions, args.max_ratio, args.min_share)
                + "\n"
            )
            return 1 if regressions else 0
        if args.collapsed:
            texts = [read_profile(path) for path in args.collapsed]
            text = texts[0] if len(texts) == 1 else merge_collapsed(texts)
            source = ", ".join(args.collapsed)
        else:
            from repro.service.client import TriageClient

            async def capture() -> str:
                client = await TriageClient.connect(
                    args.host, args.port, client_name="repro-prof"
                )
                try:
                    return await client.profile(limit=args.limit)
                finally:
                    await client.close()

            try:
                text = asyncio.run(capture())
            except ConnectionError as exc:
                out.write(f"cannot reach {args.host}:{args.port}: {exc}\n")
                return 1
            except RuntimeError as exc:
                out.write(f"{exc}\n")
                return 1
            validate_collapsed(text)
            source = f"{args.host}:{args.port}"
    except OSError as exc:
        out.write(f"prof error: cannot read profile: {exc}\n")
        return 2
    except ProfError as exc:
        out.write(f"prof error: invalid profile: {exc}\n")
        return 2

    header, counts = parse_collapsed(text)
    out.write(
        f"profile {source}: {header['samples']} samples at "
        f"{header['hz']:g} Hz ({header['truncated']} truncated)\n"
    )
    out.write(render_top(counts, n=args.top) + "\n")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fp:
            fp.write(text)
        out.write(f"collapsed profile -> {args.out}\n")
    if args.svg:
        try:
            write_flamegraph_svg(counts, args.svg)
        except ProfError as exc:
            out.write(f"prof error: {exc}\n")
            return 2
        out.write(f"flamegraph -> {args.svg}\n")
    return 0


def build_server(args):
    """The :class:`~repro.service.TriageServer` ``repro serve`` runs, with
    the bundle its ``--trace-out`` / ``--audit`` / ``--audit-ring`` /
    ``--profile-hz`` flags ask for attached as ``server.obs``."""
    from repro.core.policies import make_policy
    from repro.core.strategies import PipelineConfig
    from repro.engine.window import WindowSpec
    from repro.experiments import PAPER_QUERY
    from repro.service import ServiceConfig, TriageServer

    config = PipelineConfig(
        window=WindowSpec(width=args.window),
        queue_capacity=args.queue_capacity,
        service_time=1.0 / args.engine_capacity,
        adaptive_staleness=args.adaptive,
        compute_ideal=False,
        policy=make_policy(args.drop_policy),
    )
    service = ServiceConfig(
        host=args.host,
        port=args.port,
        grace=args.grace,
        max_sessions=args.max_sessions,
        rate_limit=args.rate_limit,
        telemetry_interval=args.telemetry_interval or None,
        shards=args.shards,
    )
    obs = build_obs(
        trace=bool(args.trace_out),
        label="server",
        audit=args.audit,
        audit_ring=args.audit_ring,
        seed=config.seed,
        profile_hz=args.profile_hz,
    )
    server = TriageServer(
        paper_catalog(), args.query or PAPER_QUERY, config, service, obs=obs
    )
    if args.pattern:
        server.attach_pattern(args.pattern)
    return server


def cmd_serve(args, out) -> int:
    server = build_server(args)

    async def run() -> None:
        await server.start()
        shard_note = f", {args.shards} shards" if args.shards > 1 else ""
        out.write(
            f"triage service listening on {args.host}:{server.port} "
            f"(window {args.window:g}s, queue {args.queue_capacity}, "
            f"engine {args.engine_capacity:g} tuples/s{shard_note})\n"
        )
        if args.pattern:
            out.write(
                f"pattern query attached: {args.pattern} "
                f"(policy {args.drop_policy})\n"
            )
        if args.audit:
            out.write(
                f"shed-provenance audit on (ring {args.audit_ring}); "
                f"inspect with `repro audit --port {server.port}`\n"
            )
        if args.profile_hz:
            out.write(
                f"continuous profiler on at {args.profile_hz:g} Hz; "
                f"capture with `repro prof --port {server.port}`\n"
            )
        try:
            if args.duration is not None:
                await asyncio.sleep(args.duration)
            else:
                while True:  # until KeyboardInterrupt
                    await asyncio.sleep(3600)
        finally:
            await server.shutdown()
            if args.trace_out:
                server.obs.tracer.write(args.trace_out, fmt="jsonl")
                out.write(f"server trace -> {args.trace_out}\n")
            out.write("triage service stopped\n")

    try:
        asyncio.run(run())
    except KeyboardInterrupt:  # pragma: no cover - interactive exit
        pass
    return 0


def main(argv: list[str] | None = None, out=None) -> int:
    out = out or sys.stdout
    args = build_parser().parse_args(argv)
    if args.command == "fig6":
        return cmd_fig6(args, out)
    if args.command == "fig8":
        series = figure8_series(args.rates, n_runs=args.runs, params=ExperimentParams())
        return cmd_series(series, out, args.svg)
    if args.command == "fig9":
        series = figure9_series(args.peaks, n_runs=args.runs, params=ExperimentParams())
        return cmd_series(series, out, args.svg)
    if args.command == "explain":
        return cmd_explain(args, out)
    if args.command == "rewrite":
        return cmd_rewrite(args, out)
    if args.command == "trace":
        return cmd_trace(args, out)
    if args.command == "serve":
        return cmd_serve(args, out)
    if args.command == "top":
        return cmd_top(args, out)
    if args.command == "audit":
        return cmd_audit(args, out)
    if args.command == "prof":
        return cmd_prof(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
