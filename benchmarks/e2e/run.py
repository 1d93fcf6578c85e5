#!/usr/bin/env python3
"""The repo benchmark: end-to-end metrics and an outside-in layer trace.

    python3 benchmarks/e2e/run.py                       # every workload
    python3 benchmarks/e2e/run.py --workload wire_rows_steady --seed 1
    python3 benchmarks/e2e/run.py --workload offline_cep --trace 1
    python3 benchmarks/e2e/run.py --aa 3                # measured noise

Each workload runs in its own subprocess (``PYTHONHASHSEED=0``): cold-start
children for ``setup_s``, two untimed warm-up epochs with the output
checks, then identical timed epochs for ``--seconds`` (at least ``K_MIN``),
reduced by the quiet-set estimator of :mod:`quiet`.  ``--trace 1`` adds
traced epochs after the timed ones and reports the per-layer metrics
instead; end-to-end numbers always come from untraced epochs.

stdout carries a fixed-width table, then the full JSON document on one
line, and - when exactly one workload was run - a last line holding
``{"correct", "attempted", "failed", "metrics"}`` for the driver.  A failed
output check prints the reason on stderr and exits non-zero without
reporting a number.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"
RESULTS = ROOT / "benchmarks" / "results" / "e2e"


@functools.cache
def contract() -> dict:
    """``BENCHMARK.json``: the one registry of workload and metric names,
    units, bounds and the default run length."""
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _units(block: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in contract()[block]}


#: Timed epochs a run aims for (the quiet set is a quarter of them).
K_MIN = 40
#: Cold-start children per run; ``setup_s`` is the second fastest.  (The
#: issue asked for seven.  The host's slow spells last 1-2 s, which is 3-5
#: cold starts: over a minute of back-to-back children the second fastest
#: of 7 consecutive ones ranged 22%, of 9 12.5%, of 11 11.4%.)
COLD_STARTS = 9
#: ``answer_fidelity`` is measured on the inputs of this seed whatever
#: ``--seed`` is, so it is a function of the code alone and any change of
#: the answers shows, at a bound of 1e-6, in every run.  (The ``--seed``
#: inputs get the same output checks; their error is the per-layer metric
#: ``answer_error``.)
QUALITY_SEED = 0
#: The time cap, in multiples of ``--seconds``.  A timed phase stops at
#: OVERRUN even if it is short of ``K_MIN`` epochs (a host 1.3x slower than
#: the reference still gets its 40); a noisy run is measured again only if
#: a whole ``--seconds`` is left of BUDGET.  Keeps the driver's ~140 runs
#: (25 s each, set-up included) inside their time when the host has a bad
#: hour: a run then takes 21-23 s, 16 s in a calm one.
OVERRUN = 1.3
BUDGET = 2.1


def _child_env() -> dict:
    return dict(os.environ, PYTHONHASHSEED="0")


# ---------------------------------------------------------------------------
# Cold start (runs in a fresh grandchild process)
# ---------------------------------------------------------------------------
def cold_start_main(name: str, seed: int) -> int:
    """Import, build the workload's system, run until the first row lands.

    Prints one JSON line of the child's own stamps the moment the first row
    is accepted (shutdown comes after); the parent times spawn -> that line
    and subtracts ``input_s`` (generating the inputs is the benchmark's
    work, not the system's).
    """
    t0 = time.perf_counter()
    import workloads

    t_import = time.perf_counter()
    workload = workloads.WORKLOADS[name](seed, smoke=True)
    t_inputs = time.perf_counter()

    def ready(built: float) -> None:
        stamps = {
            "import_s": t_import - t0,
            "input_s": t_inputs - t_import,
            "build_s": built - t_inputs,
            "first_s": time.perf_counter() - built,
        }
        print(json.dumps(stamps), flush=True)

    workload.cold_start(ready)
    return 0


def measure_setup(name: str, seed: int, n: int) -> dict:
    """``n`` cold starts in fresh processes; the second fastest one.

    Interference only adds time to a cold start, so a low order statistic
    is the steady one (the median of five ranged 26-54% over three suite
    runs); the second fastest rather than the fastest, so that no single
    lucky child sets the number.
    """
    runs = []
    for _ in range(n):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--cold-start", name,
             "--seed", str(seed)],
            stdout=subprocess.PIPE,
            env=_child_env(),
            cwd=ROOT,
        )
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
        finally:
            proc.stdout.close()
            code = proc.wait()
        if code != 0 or not line:
            raise RuntimeError(f"cold start of {name} exited with {code}")
        stamps = json.loads(line)
        stamps["setup_s"] = (ready - t0) - stamps["input_s"]
        runs.append(stamps)
    ranked = sorted(runs, key=lambda r: r["setup_s"])
    return ranked[min(1, n - 1)] | {"samples": [r["setup_s"] for r in runs]}


# ---------------------------------------------------------------------------
# One workload (runs in its own child process)
# ---------------------------------------------------------------------------
def _timed_phase(workload, seconds: float, k_min: int, cap: float) -> dict:
    """Identical epochs for ``seconds`` (and ``k_min`` of them, or until
    ``cap`` seconds have passed), then reduce."""
    import quiet

    epochs, yardsticks = [], []
    begin = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - begin
        if len(epochs) >= k_min and elapsed >= seconds:
            break
        if len(epochs) >= 4 and elapsed >= cap:
            break
        epochs.append(workload.epoch())
        yardsticks.append(quiet.yardstick())
    walls = [e.wall for e in epochs]
    q = quiet.quiet_indices(walls)
    latencies = quiet.quiet_samples([e.latencies for e in epochs], q)
    acks = quiet.quiet_samples([e.acks for e in epochs], q)
    wall = quiet.quiet_median(walls, q)
    cpu = quiet.quiet_median([e.cpu for e in epochs], q)
    rows = workload.rows_per_epoch
    digests_off = sum(1 for e in epochs if e.digest != workload.expected_digest)
    share = quiet.quiet_epoch_share(walls, q)
    return {
        "epochs": len(epochs),
        "seconds": time.perf_counter() - begin,
        "quiet_epochs": len(q),
        "quiet_epoch_share": share,
        "noisy": share < quiet.NOISY_BELOW,
        "wall_quiet_s": wall,
        "wall_all_median_s": statistics.median(walls),
        "wall_min_s": min(walls),
        "yardstick_ms": statistics.median(yardsticks) * 1e3,
        "latency_samples": len(latencies) * len(q),
        "ack_samples": len(acks) * len(q),
        "attempted": sum(e.attempted for e in epochs) + len(epochs),
        "failed": sum(e.failed for e in epochs) + digests_off,
        "digest_mismatches": digests_off,
        "rows_per_s": rows / wall,
        "cpu_us_per_row": cpu * 1e6 / rows,
        "result_latency_p50_ms": quiet.percentile(latencies, 50) * 1e3,
        "result_latency_p90_ms": quiet.percentile(latencies, 90) * 1e3,
        "publish_ack_p50_ms": quiet.percentile(acks, 50) * 1e3,
        "publish_ack_p99_ms": quiet.percentile(acks, 99) * 1e3,
        "counts": epochs[q[0]].counts,
    }


#: How far the sum of span self times and idle gaps of a traced epoch may
#: be from the epoch's stopwatch wall before the traced run is refused.
TRACE_SUM_TOLERANCE = 0.02


def _traced_phase(workload, phase: dict) -> tuple[dict, float]:
    """Per-layer metrics from the quietest of a few traced epochs.

    Also returns (sum of self times + idle gaps) / wall of that epoch.
    The three come from different stamps (per-span arithmetic, the
    recorder's gaps, the workload's stopwatch), and every moment of the
    epoch is either some span's self time or in
    ``server.loop_unattributed_share``: off by more than 2%, the span
    arithmetic is broken and no layer number is reported.
    """
    import layers
    import spans

    out = {}
    probe = workload.probe_inputs()
    if probe:
        out = layers.synopsis_probe(*probe)
    if hasattr(workload, "plain_epoch"):
        plain, traced = [], []
        for _ in range(5):
            plain.append(workload.plain_epoch().wall)
            traced.append(workload.epoch().wall)
        out["obs.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)

    best = None
    for _ in range(layers.TRACED_EPOCHS):
        rec = spans.SpanRecorder()
        undo = spans.install(rec, layers.targets())
        workload.recorder = rec
        try:
            epoch = workload.epoch()
        finally:
            workload.recorder = None
            spans.uninstall(undo)
        if epoch.digest != workload.expected_digest:
            raise SystemExit(
                f"{workload.name}: traced epoch digest differs from the "
                f"untraced epochs: the span wrappers changed the program"
            )
        if best is None or epoch.wall < best[0].wall:
            best = (epoch, rec)
    epoch, rec = best
    sum_check = (rec.total_self() + rec.idle) / epoch.wall
    if abs(sum_check - 1.0) > TRACE_SUM_TOLERANCE:
        raise SystemExit(
            f"{workload.name}: span self times {rec.total_self():.6f} s + idle "
            f"{rec.idle:.6f} s are {sum_check:.4f} of the epoch's "
            f"{epoch.wall:.6f} s wall"
        )
    out.update(
        layers.span_metrics(rec, epoch.wall, workload.rows_per_epoch, epoch.counts)
    )
    out["trace.overhead_ratio"] = epoch.wall / phase["wall_quiet_s"]
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / f"{workload.name}.spans.json").write_text(
        json.dumps({"wall": epoch.wall, "idle": rec.idle, "spans": rec.to_json()}),
        encoding="utf-8",
    )
    return out, sum_check


def _pin_to_one_cpu() -> int | None:
    """Confine this process and its future children to its first CPU."""
    try:
        cpu = min(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):  # not Linux, or not permitted
        return None
    return cpu


def child_main(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> int:
    """Measure one workload; print its report as one JSON line."""
    import workloads

    pinned = _pin_to_one_cpu() if workloads.WORKLOADS[name].single_cpu else None
    setup = measure_setup(name, seed, 1 if smoke else COLD_STARTS)
    workload = workloads.WORKLOADS[name](seed, smoke=smoke)
    warm = workload.warm_up()
    fidelity = workload.answer_fidelity
    if seed != QUALITY_SEED:
        reference = workloads.WORKLOADS[name](QUALITY_SEED, smoke=smoke)
        reference.check(reference.epoch())
        fidelity = reference.answer_fidelity
        del reference
    # The generated inputs live for the whole run: keep the collector from
    # walking them at every epoch's gc.collect() and every full collection
    # inside an epoch (that scan is the benchmark's cost, not the program's).
    gc.collect()
    gc.freeze()
    k_min = 4 if smoke else K_MIN
    attempts = [_timed_phase(workload, seconds, k_min, seconds * OVERRUN)]
    left = seconds * BUDGET - attempts[0]["seconds"]
    if attempts[0]["noisy"] and not smoke and left >= seconds:
        # Never silently report a polluted number: measure once more within
        # the time cap and keep both; the quieter attempt is reported.
        attempts.append(_timed_phase(workload, seconds, k_min, left))
    phase = max(attempts, key=lambda a: a["quiet_epoch_share"])
    counts = phase["counts"]
    e2e_units, layer_units = _units("end_to_end"), _units("per_layer")

    e2e = {
        "setup_s": setup["setup_s"],
        "rows_per_s": phase["rows_per_s"],
        "cpu_us_per_row": phase["cpu_us_per_row"],
        "result_latency_p50_ms": phase["result_latency_p50_ms"],
        "result_latency_p90_ms": phase["result_latency_p90_ms"],
        "publish_ack_p50_ms": phase["publish_ack_p50_ms"],
        "publish_ack_p99_ms": phase["publish_ack_p99_ms"],
        "answer_fidelity": fidelity,
    }
    report = {
        "unit": workload.unit,
        "rows_per_epoch": workload.rows_per_epoch,
        "pinned_cpu": pinned,
        "correct": phase["failed"] == 0,
        "attempted": phase["attempted"],
        "failed": phase["failed"],
        "noisy": phase["noisy"],
        "attempts": [
            {k: v for k, v in a.items() if k != "counts"} for a in attempts
        ],
        "reported_attempt": attempts.index(phase),
        "setup": setup,
        "checks": {
            "digest": workload.expected_digest,
            "answer_error": workload.answer_error,
            "shed_share": workload.shed_share,
            **workload.details,
        },
        "end_to_end": {
            k: {"value": e2e[k], "unit": u} for k, u in e2e_units.items()
        },
    }
    if trace:
        # A layer this workload never enters reports 0.
        layer = dict.fromkeys(layer_units, 0.0)
        traced, report["trace_sum_check"] = _traced_phase(workload, phase)
        layer.update(traced)
        offered = counts.get("offered_rows", 0)
        dropped = counts.get("dropped_rows", 0)
        cpu_quiet = phase["cpu_us_per_row"] * workload.rows_per_epoch / 1e6
        layer.update(
            {
                "answer_error": workload.answer_error,
                "shed_share": workload.shed_share,
                "shard.children_cpu_share": counts.get("cpu_children", 0.0) / cpu_quiet,
                "triage_queue.offered_rows": offered,
                "triage_queue.dropped_rows": dropped,
                "triage_queue.kept_ratio": 1.0 - dropped / offered,
                "cep.engine.runs_shed": counts.get("runs_shed", 0),
                "cep.matches": counts.get("matches", 0),
                "obs.trace.events_per_row": counts.get("trace_events", 0)
                / workload.rows_per_epoch,
                "setup.import_s": setup["import_s"],
                "setup.build_s": setup["build_s"],
                "setup.first_epoch_extra_ms": (warm[0].wall - phase["wall_quiet_s"])
                * 1e3,
                "noise.quiet_epoch_share": phase["quiet_epoch_share"],
                "noise.yardstick_ms": phase["yardstick_ms"],
            }
        )
        unknown = set(layer) - set(layer_units)
        if unknown:
            raise SystemExit(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
        report["per_layer"] = {
            k: {"value": layer[k], "unit": u} for k, u in layer_units.items()
        }
    print(json.dumps(report), flush=True)
    return 0


# ---------------------------------------------------------------------------
# The suite (parent process)
# ---------------------------------------------------------------------------
def run_workload(name: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run one workload in its own subprocess; return its report."""
    cmd = [sys.executable, str(HERE / "run.py"), "--child", name,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    if smoke:
        cmd.append("--smoke")
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=_child_env(), cwd=ROOT, text=True
    )
    if proc.returncode != 0 or not proc.stdout.strip():
        raise SystemExit(
            f"workload {name} failed (exit {proc.returncode}); see stderr above"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_suite(names, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    return {
        "schema": "repro-e2e/v1",
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "k_min": K_MIN,
        "cold_starts": COLD_STARTS,
        "workloads": {
            name: run_workload(name, seed, seconds, trace, smoke) for name in names
        },
    }


def render_table(doc: dict) -> str:
    """Fixed-width table: one row per (workload, metric)."""
    lines = [
        f"repro e2e benchmark  seed {doc['seed']}  python {doc['python']}  "
        f"nproc {doc['nproc']}  {doc['seconds']:g}s per workload",
        f"{'workload':26s} {'metric':46s} {'value':>14s} unit",
    ]
    for name, report in doc["workloads"].items():
        phase = report["attempts"][report["reported_attempt"]]
        lines.append(
            f"{name:26s} K={phase['epochs']} |Q|={phase['quiet_epochs']} "
            f"quiet_share={phase['quiet_epoch_share']:.2f} "
            f"yardstick={phase['yardstick_ms']:.2f}ms "
            f"latencies={phase['latency_samples']} acks={phase['ack_samples']} "
            f"failed={report['failed']}/{report['attempted']}"
            f"{'' if report['pinned_cpu'] is None else '  pinned to cpu ' + str(report['pinned_cpu'])}"
            f"{'  NOISY' if report['noisy'] else ''}"
        )
        for attempt in report["attempts"] if len(report["attempts"]) > 1 else ():
            lines.append(
                f"{'':26s} attempt: rows_per_s={attempt['rows_per_s']:.1f} "
                f"quiet_share={attempt['quiet_epoch_share']:.2f}"
            )
        for block in ("end_to_end", "per_layer"):
            for metric, cell in report.get(block, {}).items():
                if block == "per_layer" and cell["value"] == 0:
                    continue  # a layer this workload never enters
                lines.append(
                    f"{name:26s} {metric:46s} {cell['value']:>14.4f} {cell['unit']}"
                )
    return "\n".join(lines)


def contract_line(report: dict, trace: bool) -> str:
    return json.dumps(
        {
            "correct": report["correct"],
            "attempted": report["attempted"],
            "failed": report["failed"],
            "metrics": report["per_layer" if trace else "end_to_end"],
        }
    )


# ---------------------------------------------------------------------------
# A/A: the benchmark's own noise
# ---------------------------------------------------------------------------
def run_aa(n: int, names, seed: int, seconds: float) -> tuple[dict, bool]:
    """Two interleaved sets of ``n`` suite runs of the same checkout."""
    bounds = {m["name"]: m["bound"] for m in contract()["end_to_end"]}
    sets: dict[str, list[dict]] = {"A": [], "B": []}
    for i in range(2 * n):
        label = "AB"[i % 2]
        print(f"A/A: suite run {i + 1} of {2 * n} (set {label})", file=sys.stderr)
        sets[label].append(run_suite(names, seed, seconds, False, False))
    rows = []
    agree = True
    for name in names:
        for metric in bounds:
            values = {
                label: [
                    d["workloads"][name]["end_to_end"][metric]["value"] for d in docs
                ]
                for label, docs in sets.items()
            }
            med = {label: statistics.median(v) for label, v in values.items()}
            base = med["A"] or 1.0
            spans = {
                label: (max(v) - min(v)) / (med[label] or 1.0)
                for label, v in values.items()
            }
            diff = abs(med["B"] - med["A"]) / base
            ok = diff <= bounds[metric]
            steady = max(spans.values()) < bounds[metric]
            agree &= ok and steady
            rows.append(
                {
                    "workload": name,
                    "metric": metric,
                    "values_a": values["A"],
                    "values_b": values["B"],
                    "median_a": med["A"],
                    "median_b": med["B"],
                    "difference": diff,
                    "range_a": spans["A"],
                    "range_b": spans["B"],
                    "bound": bounds[metric],
                    "within_bound": ok,
                    "range_within_bound": steady,
                }
            )
    doc = {
        "schema": "repro-e2e-aa/v1",
        "runs_per_set": n,
        "seed": seed,
        "seconds": seconds,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "rows": rows,
    }
    return doc, agree


def render_aa(doc: dict) -> str:
    lines = [
        f"A/A: two interleaved sets of {doc['runs_per_set']} suite runs, same checkout",
        f"{'workload':26s} {'metric':24s} {'median A':>12s} {'median B':>12s} "
        f"{'diff':>7s} {'range A':>8s} {'range B':>8s} {'bound':>6s}",
    ]
    for r in doc["rows"]:
        flag = "" if r["within_bound"] else "  DIFFERS"
        flag += "" if r["range_within_bound"] else "  WIDE"
        lines.append(
            f"{r['workload']:26s} {r['metric']:24s} {r['median_a']:>12.4f} "
            f"{r['median_b']:>12.4f} {r['difference']:>6.1%} {r['range_a']:>7.1%} "
            f"{r['range_b']:>7.1%} {r['bound']:>6g}{flag}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", metavar="NAME",
                   help="run only this workload (may repeat)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per workload (default: BENCHMARK.json run_seconds)")
    p.add_argument("--trace", nargs="?", const=1, default=0, type=int, choices=(0, 1),
                   help="1: add traced epochs and report the per-layer metrics")
    p.add_argument("--smoke", action="store_true",
                   help="tiny inputs and 4 epochs: checks the plumbing, not the speed")
    p.add_argument("--aa", nargs="?", const=3, default=None, type=int, metavar="N",
                   help="two interleaved sets of N suite runs; non-zero exit when two "
                        "medians differ, or one set ranges, by a metric's bound")
    p.add_argument("--out", metavar="FILE", help="also write the JSON document here")
    p.add_argument("--child", metavar="NAME", help=argparse.SUPPRESS)
    p.add_argument("--cold-start", metavar="NAME", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(sys.argv[1:] if argv is None else argv)
    if not (SRC / "repro").is_dir():
        print(f"run.py: no program to measure: {SRC / 'repro'} is missing",
              file=sys.stderr)
        return 2
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    if args.cold_start:
        return cold_start_main(args.cold_start, args.seed)
    seconds = args.seconds
    if seconds is None:
        seconds = 0.2 if args.smoke else float(contract()["run_seconds"])
    if args.child:
        return child_main(args.child, args.seed, seconds, bool(args.trace), args.smoke)

    valid = [w["name"] for w in contract()["workloads"]]
    names = args.workload or valid
    unknown = [n for n in names if n not in valid]
    if unknown:
        print(f"run.py: unknown workload(s) {unknown}; valid: {', '.join(valid)}",
              file=sys.stderr)
        return 2
    if args.aa is not None:
        doc, agree = run_aa(args.aa, names, args.seed, seconds)
        print(render_aa(doc))
        print(json.dumps(doc))
        if args.out:
            Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        return 0 if agree else 1

    doc = run_suite(names, args.seed, seconds, bool(args.trace), args.smoke)
    print(render_table(doc))
    print(json.dumps(doc))
    if args.out:
        Path(args.out).write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    if len(names) == 1:
        print(contract_line(doc["workloads"][names[0]], bool(args.trace)))
    return 0 if all(r["correct"] for r in doc["workloads"].values()) else 1


if __name__ == "__main__":
    sys.exit(main())
