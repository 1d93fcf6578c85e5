"""The metrics registry's new home + per-instrument bucket overrides."""

import pytest

from repro.obs.metrics import (
    DEFAULT_BUCKETS,
    LATENCY_BUCKETS,
    MetricsRegistry,
    global_registry,
    record_hook_error,
)


def test_histogram_default_buckets():
    reg = MetricsRegistry()
    h = reg.histogram("h_default")
    assert h.bounds == tuple(sorted(DEFAULT_BUCKETS))


def test_histogram_bucket_override():
    reg = MetricsRegistry()
    h = reg.histogram("phase_seconds", buckets=LATENCY_BUCKETS)
    assert h.bounds == tuple(sorted(LATENCY_BUCKETS))
    h.observe(0.0002)
    assert h.count() == 1
    # 50µs low-end resolution: 0.0002 lands below the 0.25ms bound.
    snap = h._snapshot()[""]
    assert snap["buckets"]["0.00025"] == 1


def test_histogram_none_accepts_existing_spread():
    reg = MetricsRegistry()
    created = reg.histogram("h", buckets=LATENCY_BUCKETS)
    # None expresses no preference; the existing spread is returned as-is.
    assert reg.histogram("h") is created


def test_histogram_conflicting_override_raises():
    reg = MetricsRegistry()
    reg.histogram("h", buckets=LATENCY_BUCKETS)
    with pytest.raises(ValueError, match="conflicting"):
        reg.histogram("h", buckets=DEFAULT_BUCKETS)
    # Same explicit buckets again is fine (idempotent registration).
    reg.histogram("h", buckets=LATENCY_BUCKETS)


def test_record_hook_error_counts_site():
    reg = MetricsRegistry()
    record_hook_error("window_hook", reg)
    record_hook_error("window_hook", reg)
    c = reg.get("obs_hook_errors_total")
    assert c.value(site="window_hook") == 2


def test_record_hook_error_falls_back_to_global():
    c = global_registry().counter(
        "obs_hook_errors_total",
        "Exceptions raised by user-supplied hooks (swallowed)",
        ("site",),
    )
    before = c.value(site="test_site")
    record_hook_error("test_site")
    assert c.value(site="test_site") == before + 1


def test_observe_many_equals_repeated_observe():
    values = [0.1 * i for i in range(40)] + [3, 7, 5000]
    one, many = MetricsRegistry(), MetricsRegistry()
    h_one = one.histogram("depth", labels=("stream",))
    h_many = many.histogram("depth", labels=("stream",))
    for v in values:
        h_one.observe(v, stream="R")
    h_many.observe_many(values, stream="R")
    h_many.observe_many([], stream="R")
    # Same buckets and count, and the float sum accumulated in the same order.
    assert many.to_dict() == one.to_dict()
    assert h_many.sum(stream="R") == h_one.sum(stream="R")


def test_observe_many_counts_a_capped_series_once_per_value():
    reg = MetricsRegistry(max_series=1)
    h = reg.histogram("depth", labels=("stream",))
    h.observe(1, stream="R")
    h.observe_many([1, 2, 3], stream="S")  # series 2 of 1: refused
    assert h.count(stream="S") == 0
    assert reg.get("obs_series_dropped_total").value(metric="depth") == 3


def test_label_mismatch_keeps_its_error_text():
    reg = MetricsRegistry()
    c = reg.counter("decisions_total", labels=("stream", "decision"))
    c.inc(stream="R", decision="drop_incoming")
    expected = (
        r"metric 'decisions_total' expects labels \('stream', 'decision'\), "
        r"got \('nope', 'stream'\)"
    )
    with pytest.raises(ValueError, match=expected):
        c.inc(stream="R", nope=1)  # right count, wrong name
    with pytest.raises(ValueError, match=r"got \('stream',\)"):
        c.inc(stream="R")  # too few
    with pytest.raises(ValueError, match=r"got \('a', 'decision', 'stream'\)"):
        c.inc(stream="R", decision="x", a=1)  # too many
