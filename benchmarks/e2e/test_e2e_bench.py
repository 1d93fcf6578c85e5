"""Tests of the benchmark itself (run with ``pytest benchmarks/e2e``).

Outside tier-1's ``testpaths`` on purpose: they check the harness - the
estimator, the span arithmetic, that wrappers are removed, and that a
``--smoke`` size of every workload runs end to end and reports exactly the
metric names ``BENCHMARK.json`` promises - not the program.
"""

from __future__ import annotations

import asyncio
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import layers  # noqa: E402
import quiet  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = run.contract()
WORKLOAD_NAMES = [w["name"] for w in BENCHMARK["workloads"]]
E2E_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


# ---------------------------------------------------------------------------
# BENCHMARK.json and the code agree
# ---------------------------------------------------------------------------
def test_benchmark_json_matches_the_code():
    assert set(BENCHMARK) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert WORKLOAD_NAMES == list(workloads.WORKLOADS)
    names = [m["name"] for m in BENCHMARK["end_to_end"] + BENCHMARK["per_layer"]]
    names += WORKLOAD_NAMES
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(0 < m["bound"] <= 0.25 for m in BENCHMARK["end_to_end"])
    assert any(m["name"] == "setup_s" for m in BENCHMARK["end_to_end"])


# ---------------------------------------------------------------------------
# Every workload, end to end, at smoke size
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def smoke_doc():
    # ~8 s on a calm host; the timeout only stops a hung run, the host is
    # known to stall for long enough that a tight limit would flake.
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1"],
        capture_output=True,
        text=True,
        cwd=ROOT,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    doc = json.loads(proc.stdout.strip().splitlines()[-1])
    doc["_stdout"] = proc.stdout
    return doc


def test_smoke_runs_every_workload(smoke_doc):
    assert list(smoke_doc["workloads"]) == WORKLOAD_NAMES
    for name, report in smoke_doc["workloads"].items():
        assert report["correct"] and report["failed"] == 0, name
        assert report["attempted"] >= 1
        assert "workload" in smoke_doc["_stdout"].splitlines()[1]  # the table


def test_smoke_reports_exactly_the_promised_metrics(smoke_doc):
    for name, report in smoke_doc["workloads"].items():
        assert {
            k: v["unit"] for k, v in report["end_to_end"].items()
        } == E2E_UNITS, name
        assert {
            k: v["unit"] for k, v in report["per_layer"].items()
        } == LAYER_UNITS, name
        for value in report["end_to_end"].values():
            assert value["value"] > 0, (name, value)


def test_smoke_span_times_add_up_to_the_epoch(smoke_doc):
    for name, report in smoke_doc["workloads"].items():
        # run.py refuses a traced run that is further off
        assert report["trace_sum_check"] == pytest.approx(
            1.0, abs=run.TRACE_SUM_TOLERANCE
        ), name
        assert report["per_layer"]["trace.overhead_ratio"]["value"] > 0


def test_single_workload_ends_with_the_driver_line(smoke_doc):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--workload",
         "offline_cep", "--seed", "3", "--seconds", "0.2", "--trace", "0"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0
    assert set(last["metrics"]) == set(E2E_UNITS)
    # Quality is measured on the reference seed's inputs whatever --seed is.
    reference = smoke_doc["workloads"]["offline_cep"]
    assert last["metrics"]["answer_fidelity"] == reference["end_to_end"]["answer_fidelity"]
    assert last["metrics"]["rows_per_s"] != reference["end_to_end"]["rows_per_s"]


def test_unknown_workload_lists_the_valid_ones():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "nope"],
        capture_output=True,
        text=True,
        cwd=ROOT,
    )
    assert proc.returncode != 0
    assert all(name in proc.stderr for name in WORKLOAD_NAMES)


# ---------------------------------------------------------------------------
# Quiet-set estimator
# ---------------------------------------------------------------------------
def test_quiet_set_recovers_the_true_value_under_stalls():
    import random

    rng = random.Random(7)
    true = 0.200
    walls = []
    for _ in range(48):
        wall = true * (1.0 + rng.uniform(0.0, 0.01))
        if rng.random() < 0.7:  # a neighbour stalls the host: +60%
            wall *= 1.6 + rng.uniform(-0.1, 0.1)
        walls.append(wall)
    q = quiet.quiet_indices(walls)
    assert len(q) == 12
    assert quiet.quiet_median(walls, q) == pytest.approx(true, rel=0.02)
    # What the estimator replaces: the plain median reads the stall.
    import statistics

    assert statistics.median(walls) > true * 1.4
    assert 0.25 <= quiet.quiet_epoch_share(walls, q) < 0.5


def test_percentile_and_pooling():
    assert quiet.percentile([1.0], 90) == 1.0
    assert quiet.percentile([0.0, 10.0], 50) == 5.0
    assert quiet.percentile(list(range(101)), 90) == 90
    assert quiet.percentile([1.0, 2.0, 4.0], 90) == pytest.approx(3.6)
    # position-wise median over the quiet epochs; pooled if counts differ
    assert quiet.quiet_samples([[1, 9], [7, 7], [3, 5], [2, 1]], [0, 2, 3]) == [2, 5]
    assert quiet.quiet_samples([[1], [2, 3], [4]], [0, 1]) == [1, 2, 3]


# ---------------------------------------------------------------------------
# Span arithmetic
# ---------------------------------------------------------------------------
class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_arithmetic_on_a_hand_built_tree(monkeypatch):
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    rec = spans.SpanRecorder()
    rec.begin()  # the timed region is [0, 25]

    # sync A [0, 10] with sync child B [2, 5]
    a = rec.open("A")
    a_t = rec.enter(a)
    clock.t = 2.0
    b = rec.open("B")
    b_t = rec.enter(b)
    clock.t = 5.0
    rec.leave(b, b_t, final=True)
    clock.t = 10.0
    rec.leave(a, a_t, final=True)

    # coroutine C: step [12, 13], suspended, step [20, 22] holding sync D
    clock.t = 12.0
    c = rec.open("C", kind="async")
    c_t = rec.enter(c)
    clock.t = 13.0
    rec.leave(c, c_t, final=False)
    clock.t = 20.0
    c_t = rec.enter(c)
    clock.t = 20.5
    d = rec.open("D")
    d_t = rec.enter(d)
    clock.t = 21.5
    rec.leave(d, d_t, final=True)
    clock.t = 22.0
    rec.leave(c, c_t, final=True)
    clock.t = 25.0
    rec.end()
    rec.end()  # the epoch's ``finally`` calls it again: no effect

    by_name = {s.name: s for s in rec.spans}
    assert by_name["A"].self_time == 7.0
    assert by_name["B"].self_time == 3.0 and by_name["B"].parent == a
    assert by_name["C"].busy == 3.0  # the two steps, not the 7 s suspended
    assert by_name["C"].elapsed == 10.0
    assert by_name["C"].self_time == 2.0
    assert by_name["D"].parent == c and by_name["D"].self_time == 1.0
    # Every second of the region is one span's self time or a gap between
    # root segments ([10, 12], [13, 20], [22, 25]), counted from the gaps'
    # own stamps.
    assert rec.total_self() == 13.0
    assert rec.idle == 12.0
    assert [s.name for s in rec.named("B", under="A")] == ["B"]
    assert rec.named("B", under="!A") == []


def test_a_span_left_open_breaks_the_sum(monkeypatch):
    """What makes ``trace_sum_check`` a check: bookkeeping that loses time
    does not add up to the wall."""
    clock = FakeClock()
    monkeypatch.setattr(spans, "perf_counter", clock)
    rec = spans.SpanRecorder()
    rec.begin()
    a = rec.open("A")
    rec.enter(a)  # never left
    clock.t = 4.0
    b = rec.open("B")
    b_t = rec.enter(b)
    clock.t = 6.0
    rec.leave(b, b_t, final=True)
    clock.t = 10.0
    rec.end()
    assert rec.total_self() + rec.idle < 0.5 * 10.0


class _Dummy:
    def work(self, n):
        return sum(range(n))

    async def fetch(self, n):
        await asyncio.sleep(0.02)
        return self.work(n)

    @staticmethod
    def helper(x):
        return x + 1


def test_wrappers_time_coroutines_by_step_and_are_removed():
    rec = spans.SpanRecorder()
    before = {k: vars(_Dummy)[k] for k in ("work", "fetch", "helper")}
    undo = spans.install(
        rec,
        [
            spans.Target(_Dummy, "work", "dummy.work", ident=lambda a, k: a[1]),
            spans.Target(_Dummy, "fetch", "dummy.fetch"),
            spans.Target(_Dummy, "helper", lambda a, k: None),
        ],
    )
    try:
        obj = _Dummy()
        assert obj.work(10) == 45 and rec.spans == []  # recorder inactive
        rec.begin()

        async def caller():
            # The wrapper hands back an awaitable, not a coroutine: fine
            # under ``await`` (how the server calls its own methods), not
            # as an argument to ``asyncio.run``/``create_task``.
            return await obj.fetch(1000)

        assert asyncio.run(caller()) == 499500
        assert _Dummy.helper(1) == 2  # name None: call skipped
        rec.end()
    finally:
        spans.uninstall(undo)
    assert {k: vars(_Dummy)[k] for k in before} == before
    assert all(vars(_Dummy)[k] is v for k, v in before.items())
    fetch, = rec.named("dummy.fetch")
    work, = rec.named("dummy.work", under="dummy.fetch")
    assert fetch.kind == "async" and work.ident == 1000
    assert fetch.elapsed >= 0.02 > fetch.busy  # the sleep is not busy time
    assert fetch.busy >= work.busy
    assert rec.idle >= 0.02 > rec.total_self()  # the sleep is a gap


def test_every_wrapped_attribute_is_the_original_again_after_a_traced_run():
    targets = layers.targets()
    before = [vars(t.owner)[t.attr] for t in targets]
    workload = workloads.OfflineCep(0, smoke=True)
    workload.warm_up()
    metrics, sum_check = run._traced_phase(
        workload, {"wall_quiet_s": workload.epoch().wall}
    )
    assert sum_check == pytest.approx(1.0, abs=0.02)
    assert metrics["cep.pipeline.run.self_us_per_event"] > 0
    assert workload.recorder is None
    after = [vars(t.owner)[t.attr] for t in targets]
    assert all(a is b for a, b in zip(after, before))


# ---------------------------------------------------------------------------
# Output checks fail loudly
# ---------------------------------------------------------------------------
def test_a_wrong_answer_fails_the_check():
    workload = workloads.WireRowsSteady(0, smoke=True)
    epoch = workload.epoch()
    workload.check(epoch)
    assert workload.answer_fidelity == 1.0
    epoch.answers[0]["groups"][0]["aggs"]["count"] += 1
    with pytest.raises(workloads.CheckFailed, match="reference join"):
        workload.check(epoch)
    epoch.answers[0]["kept"]["R"] -= 1
    with pytest.raises(workloads.CheckFailed, match="kept"):
        workload.check(epoch)
