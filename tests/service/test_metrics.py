"""Metrics registry tests: instrument semantics and both export formats."""

import json

import pytest

from repro.obs.metrics import MetricsRegistry


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        c = registry.counter("requests_total", "requests")
        assert c.value() == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labels_partition_values(self, registry):
        c = registry.counter("drops_total", "drops", labels=("stream",))
        c.inc(3, stream="R")
        c.inc(1, stream="S")
        assert c.value(stream="R") == 3
        assert c.value(stream="S") == 1
        assert c.total() == 4

    def test_negative_increment_rejected(self, registry):
        c = registry.counter("x_total")
        with pytest.raises(ValueError):
            c.inc(-1)

    def test_wrong_labels_rejected(self, registry):
        c = registry.counter("y_total", labels=("stream",))
        with pytest.raises(ValueError):
            c.inc(1, nope="R")
        with pytest.raises(ValueError):
            c.inc(1)


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("depth")
        g.set(10)
        g.inc(5)
        g.dec(2)
        assert g.value() == 13


class TestHistogram:
    def test_observations_land_in_buckets(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        assert h.count() == 4
        assert h.sum() == pytest.approx(106.2)
        text = registry.render_prometheus()
        assert 'lat_bucket{le="1"} 2' in text
        assert 'lat_bucket{le="10"} 3' in text
        assert 'lat_bucket{le="+Inf"} 4' in text
        assert "lat_sum 106.2" in text
        assert "lat_count 4" in text

    def test_boundary_value_is_le(self, registry):
        h = registry.histogram("b", buckets=(1.0,))
        h.observe(1.0)  # le="1" is inclusive
        assert 'b_bucket{le="1"} 1' in registry.render_prometheus()

    def test_labelled_histogram(self, registry):
        h = registry.histogram("depth", buckets=(5.0,), labels=("stream",))
        h.observe(3, stream="R")
        h.observe(7, stream="R")
        text = registry.render_prometheus()
        assert 'depth_bucket{stream="R",le="5"} 1' in text
        assert 'depth_bucket{stream="R",le="+Inf"} 2' in text


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self, registry):
        a = registry.counter("c_total", "help")
        b = registry.counter("c_total")
        assert a is b

    def test_kind_conflict_rejected(self, registry):
        registry.counter("thing")
        with pytest.raises(ValueError):
            registry.gauge("thing")

    def test_label_conflict_rejected(self, registry):
        registry.counter("c_total", labels=("stream",))
        with pytest.raises(ValueError):
            registry.counter("c_total", labels=("shard",))

    def test_prometheus_has_help_and_type_lines(self, registry):
        registry.counter("requests_total", "Total requests").inc()
        registry.gauge("sessions", "Live sessions").set(2)
        text = registry.render_prometheus()
        assert "# HELP requests_total Total requests" in text
        assert "# TYPE requests_total counter" in text
        assert "# TYPE sessions gauge" in text
        assert "requests_total 1" in text
        assert "sessions 2" in text

    def test_label_values_escaped(self, registry):
        c = registry.counter("odd_total", labels=("name",))
        c.inc(name='we"ird\nvalue')
        text = registry.render_prometheus()
        assert r'name="we\"ird\nvalue"' in text

    def test_to_dict_is_json_safe(self, registry):
        registry.counter("a_total", labels=("s",)).inc(2, s="R")
        registry.gauge("g").set(1.5)
        h = registry.histogram("h", buckets=(1.0, 2.0))
        h.observe(0.5)
        snapshot = registry.to_dict()
        encoded = json.loads(json.dumps(snapshot))
        assert encoded["a_total"]["values"]["R"] == 2
        assert encoded["h"]["values"][""]["count"] == 1
