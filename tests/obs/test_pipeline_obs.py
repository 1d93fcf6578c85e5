"""End-to-end pipeline observability: traces, metrics, hooks, determinism."""

import pytest

from repro.core.strategies import ShedStrategy
from repro.experiments import STREAM_NAMES, ExperimentParams, bursty_pipeline
from repro.obs import Observability
from repro.obs.trace import validate_chrome_trace

PARAMS = ExperimentParams(tuples_per_window=60, n_windows=3)
SHED_PEAK = 4500.0  # well past engine_capacity: every run sheds


def run_fig9(obs=None, peak=SHED_PEAK):
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, peak, PARAMS, 0, obs=obs
    )
    return pipeline, pipeline.run(streams)


@pytest.fixture(scope="module")
def traced():
    obs = Observability(trace=True)
    pipeline, result = run_fig9(obs)
    return obs, pipeline, result


def test_observability_does_not_change_results(traced):
    _, _, instrumented = traced
    _, plain = run_fig9(obs=None)
    assert instrumented.total_arrived == plain.total_arrived
    assert instrumented.total_dropped == plain.total_dropped
    assert len(instrumented.windows) == len(plain.windows)
    for a, b in zip(instrumented.windows, plain.windows):
        assert a.merged == b.merged
        assert a.ideal == b.ideal
        assert a.arrived == b.arrived


def test_phase_spans_cover_every_window(traced):
    obs, _, result = traced
    spans = [e for e in obs.tracer.events() if e["ph"] == "X"]
    by_name = {}
    for e in spans:
        by_name.setdefault(e["name"], []).append(e)
    n = len(result.windows)
    for phase in ("exact", "shadow", "merge"):
        assert len(by_name[phase]) == n, f"one {phase} span per window"
        windows = {e["args"]["window"] for e in by_name[phase]}
        assert windows == {w.window_id for w in result.windows}
    assert by_name["drain"], "at least one drain span when tuples were polled"
    assert all(e["dur"] >= 0.0 for e in spans)


def test_window_instants_and_tuple_lifecycle(traced):
    obs, _, result = traced
    events = obs.tracer.events()
    names = {e["name"] for e in events}
    assert {"window_close", "emit"} <= names
    tuple_events = [e for e in events if e["cat"] == "tuple"]
    stages = {e["name"] for e in tuple_events}
    # At a shedding peak the full lifecycle appears: arrival, admission,
    # shed-to-synopsis, and consumption.
    assert {"ingest", "enqueue", "shed", "poll"} <= stages
    assert {e["args"]["source"] for e in tuple_events} <= set(STREAM_NAMES)
    # Every arrival got exactly one ingest and one enqueue-or-shed verdict.
    counts = {s: sum(1 for e in tuple_events if e["name"] == s) for s in stages}
    assert counts["ingest"] == result.total_arrived
    assert counts["enqueue"] + counts["shed"] == counts["ingest"]
    assert counts["shed"] == result.total_dropped


def test_chrome_export_is_valid(traced):
    obs, _, _ = traced
    events = validate_chrome_trace(obs.tracer.to_chrome())
    # The export leads with metadata (process_name + trace_epoch, the
    # cross-process clock anchor) ahead of the recorded events.
    meta = [e for e in events if e["ph"] == "M"]
    assert [e["name"] for e in meta] == ["process_name", "trace_epoch"]
    assert len(events) - len(meta) == len(obs.tracer)


def test_queue_metrics_match_run_accounting(traced):
    obs, _, result = traced
    reg = obs.registry
    offered = reg.get("triage_offered_total")
    polled = reg.get("triage_polled_total")
    drops = reg.get("triage_drops_total")
    summarized = reg.get("triage_summarized_total")
    assert offered.total() == result.total_arrived
    assert drops.total() == result.total_dropped
    assert polled.total() == result.total_kept
    # Data Triage summarizes every shed tuple into the window synopsis.
    assert summarized.total() == result.total_dropped
    assert reg.get("triage_shed_bytes_total").total() > 0
    decisions = reg.get("triage_policy_decisions_total")
    assert decisions.total() == result.total_dropped
    # Depth histogram sampled once per arrival.
    assert reg.get("triage_queue_depth").count(stream=STREAM_NAMES[0]) > 0


def test_depth_histogram_samples_every_arrival(traced):
    obs, _, result = traced
    hist = obs.registry.get("triage_queue_depth")
    counts = {s: hist.count(stream=s) for s in STREAM_NAMES}
    assert counts == {s: stats.offered for s, stats in result.queue_stats.items()}
    assert sum(counts.values()) == result.total_arrived


@pytest.mark.parametrize("obs_kwargs", [{}, {"trace": True, "tuple_events": False}])
def test_no_hand_back_list_without_tuple_events(monkeypatch, obs_kwargs):
    # Metrics-only and span-only runs never ask the core to hand tuples
    # back: the list exists only to emit tuple-level ``poll`` events.
    from repro.core.triage_core import TriageCore

    asked = []
    real = TriageCore.replay

    def spy(self, arrivals, **kwargs):
        asked.append(kwargs.get("polled"))
        return real(self, arrivals, **kwargs)

    monkeypatch.setattr(TriageCore, "replay", spy)
    obs = Observability(**obs_kwargs)
    _, result = run_fig9(obs)
    assert asked and all(p is None for p in asked)
    reg = obs.registry
    assert reg.get("triage_polled_total").total() == result.total_kept
    drains = [e for e in obs.tracer.events() if e["name"] == "drain"]
    assert bool(drains) == obs.tracer.enabled
    assert sum(e["args"]["polled"] for e in drains) == (
        result.total_kept if drains else 0
    )
    assert obs.run_phase_seconds["drain"] > 0.0


def test_phase_seconds_recorded_per_window(traced):
    obs, _, result = traced
    assert set(obs.phase_seconds) == {w.window_id for w in result.windows}
    for phases in obs.phase_seconds.values():
        assert {"exact", "shadow", "merge", "ideal"} <= set(phases)
    assert obs.run_phase_seconds["drain"] >= 0.0
    hist = obs.registry.get("pipeline_phase_seconds")
    assert hist.count(phase="exact") == len(result.windows)


@pytest.mark.parametrize("strategy", list(ShedStrategy), ids=lambda s: s.value)
def test_window_hooks_see_outcomes(strategy):
    obs = Observability()
    pipeline, streams = bursty_pipeline(strategy, SHED_PEAK, PARAMS, 0, obs=obs)
    seen = []
    pipeline.add_window_hook(lambda outcome: seen.append(outcome.window_id))
    result = pipeline.run(streams)
    wids = [w.window_id for w in result.windows]
    assert seen == wids
    # Every strategy closes its windows on the one evaluation path.
    assert sorted(obs.phase_seconds) == wids


def test_raising_window_hook_is_counted_not_fatal():
    obs = Observability()
    pipeline, streams = bursty_pipeline(
        ShedStrategy.DATA_TRIAGE, SHED_PEAK, PARAMS, 0, obs=obs
    )

    def bad_hook(outcome):
        raise RuntimeError("boom")

    good = []
    pipeline.add_window_hook(bad_hook)
    pipeline.add_window_hook(lambda outcome: good.append(outcome.window_id))
    result = pipeline.run(streams)  # must not raise
    assert len(result.windows) == len(good)  # later hooks still ran
    errors = obs.registry.get("obs_hook_errors_total")
    assert errors.value(site="window_hook") == len(result.windows)


def test_uninstrumented_pipeline_has_no_obs_state():
    pipeline, result = run_fig9(obs=None)
    assert pipeline.obs is None
    assert result.total_arrived > 0
