"""Tracer ring buffer, event shapes, exports, validation, no-op path."""

import json

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    TraceError,
    Tracer,
    merge_jsonl_traces,
    new_span_id,
    new_trace_id,
    validate_chrome_trace,
)


class FakeClock:
    """A controllable clock so span durations are exact."""

    def __init__(self):
        self.t = 100.0

    def advance(self, dt):
        self.t += dt

    def __call__(self):
        return self.t


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def tracer(clock):
    return Tracer(capacity=16, clock=clock)


def test_span_records_complete_event(tracer, clock):
    with tracer.span("exact", cat="window", window=3):
        clock.advance(0.002)
    (e,) = tracer.events()
    assert e["ph"] == "X"
    assert e["name"] == "exact"
    assert e["cat"] == "window"
    assert e["ts"] == 0.0  # span opened at tracer start
    assert e["dur"] == pytest.approx(2000.0)  # 2ms in µs
    assert e["args"] == {"window": 3}


def test_complete_pairs_with_now(tracer, clock):
    t0 = tracer.now()
    clock.advance(0.5)
    t1 = tracer.now()
    clock.advance(1.0)  # work after t1 must not leak into the span
    tracer.complete("drain", t0, t1, polled=7)
    (e,) = tracer.events()
    assert e["dur"] == pytest.approx(500_000.0)
    assert e["args"]["polled"] == 7


def test_complete_defaults_end_to_current_clock(tracer, clock):
    t0 = tracer.now()
    clock.advance(0.25)
    tracer.complete("drain", t0)
    assert tracer.events()[0]["dur"] == pytest.approx(250_000.0)


def test_instant_and_counter_shapes(tracer):
    tracer.instant("window_close", cat="window", window=1)
    tracer.counter("queue_depth", 42.0, stream="R")
    close, depth = tracer.events()
    assert close["ph"] == "i" and close["s"] == "t"
    assert depth["ph"] == "C"
    assert depth["args"] == {"stream": "R", "queue_depth": 42.0}


def test_tuple_event_stamps_wall_clock_and_stream_time(tracer, clock):
    clock.advance(3.0)
    tracer.tuple_event("shed", "R", 17.5)
    (e,) = tracer.events()
    assert e["cat"] == "tuple"
    assert e["ts"] == pytest.approx(3e6)  # wall clock, µs since start
    assert e["args"] == {"source": "R", "t": 17.5}


def _golden_tuple_event(stage, ts_us, args):
    """The dict ``tuple_event`` built before records went compact."""
    return {
        "name": stage,
        "cat": "tuple",
        "ph": "i",
        "ts": ts_us,
        "s": "t",
        "tid": 0,
        "pid": 1,
        "args": args,
    }


def test_tuple_event_dicts_equal_the_pre_compaction_format(tracer, clock):
    # Key for key, in key order (json.dumps pins the order the exports
    # write): plain, with extra args, with a context, with both.
    tracer.tuple_event("ingest", "R", 0.25)
    clock.advance(0.001)
    tracer.tuple_event("enqueue", "R", 0.25, depth=3)
    clock.advance(0.001)
    tracer.set_context("feedbeef", "span01")
    tracer.tuple_event("shed", "S", 0.5)
    clock.advance(0.001)
    tracer.set_context("cafe0123")  # no parent: the key is absent
    tracer.tuple_event("poll", "T", 0.75, window=2, final=True)
    tracer.clear_context()
    golden = [
        _golden_tuple_event("ingest", 0.0, {"source": "R", "t": 0.25}),
        _golden_tuple_event(
            "enqueue", 1000.0, {"depth": 3, "source": "R", "t": 0.25}
        ),
        _golden_tuple_event(
            "shed",
            2000.0,
            {"trace_id": "feedbeef", "parent": "span01", "source": "S", "t": 0.5},
        ),
        _golden_tuple_event(
            "poll",
            3000.0,
            {
                "trace_id": "cafe0123",
                "window": 2,
                "final": True,
                "source": "T",
                "t": 0.75,
            },
        ),
    ]
    events = tracer.events()
    for e, g in zip(events, golden, strict=True):
        g["ts"] = pytest.approx(g["ts"])
        assert e == g
        assert list(e) == list(g) and list(e["args"]) == list(g["args"])
    # The context a record captured is the one installed when it was made.
    tracer.set_context("later")
    assert "trace_id" not in tracer.events()[0]["args"]
    assert tracer.events()[2]["args"]["trace_id"] == "feedbeef"
    # Both exports read the ring through events().
    lines = tracer.to_jsonl().splitlines()[2:]
    assert [json.loads(line) for line in lines] == tracer.events()
    assert tracer.to_chrome()["traceEvents"][2:] == tracer.events()
    validate_chrome_trace(tracer.to_chrome())


def test_ring_accounting_is_exact_with_compact_and_dict_records_mixed(clock):
    class Spy:
        calls = 0

        def inc(self, amount=1.0, **labels):
            Spy.calls += 1

    tracer = Tracer(capacity=4, clock=clock)
    tracer.bind_drop_counter(Spy())
    for i in range(5):
        tracer.tuple_event("ingest", "R", float(i))  # compact record
        tracer.instant(f"e{i}")  # dict record
    assert len(tracer) == 4
    assert tracer.emitted == 10
    assert tracer.dropped == 6 == Spy.calls
    kept = tracer.events()
    assert [e["name"] for e in kept] == ["ingest", "e3", "ingest", "e4"]
    assert [e["args"]["t"] for e in kept if e["cat"] == "tuple"] == [3.0, 4.0]
    assert tracer.to_chrome()["otherData"] == {
        "generator": "repro.obs.trace",
        "emitted": 10,
        "dropped": 6,
    }


def test_tuple_events_flag_silences_lifecycle_only(clock):
    tracer = Tracer(capacity=16, tuple_events=False, clock=clock)
    tracer.tuple_event("ingest", "R", 0.0)
    tracer.instant("window_close")
    assert [e["name"] for e in tracer.events()] == ["window_close"]


def test_ring_buffer_evicts_oldest_and_counts_dropped(tracer):
    for i in range(20):
        tracer.instant(f"e{i}")
    assert len(tracer) == 16
    assert tracer.emitted == 20
    assert tracer.dropped == 4
    assert tracer.events()[0]["name"] == "e4"  # oldest four evicted


def test_clear_resets_buffer_and_counts(tracer):
    tracer.instant("x")
    tracer.clear()
    assert len(tracer) == 0 and tracer.emitted == 0 and tracer.dropped == 0


def test_capacity_must_be_positive():
    with pytest.raises(ValueError):
        Tracer(capacity=0)


def test_to_chrome_validates_and_roundtrips(tracer, clock):
    with tracer.span("merge"):
        clock.advance(0.001)
    tracer.tuple_event("enqueue", "S", 1.0)
    doc = tracer.to_chrome()
    events = validate_chrome_trace(doc)
    # Two metadata events (process_name + trace_epoch) lead the export.
    assert [e["name"] for e in events] == [
        "process_name",
        "trace_epoch",
        "merge",
        "enqueue",
    ]
    assert doc["otherData"]["generator"] == "repro.obs.trace"
    # The document must survive a JSON round trip unchanged.
    assert json.loads(json.dumps(doc)) == doc


def test_to_jsonl_one_object_per_line(tracer):
    tracer.instant("a")
    tracer.instant("b")
    lines = tracer.to_jsonl().splitlines()
    assert [json.loads(line)["name"] for line in lines] == [
        "process_name",
        "trace_epoch",
        "a",
        "b",
    ]


def test_write_both_formats(tracer, tmp_path):
    tracer.instant("a")
    chrome = tmp_path / "trace.json"
    jsonl = tmp_path / "trace.jsonl"
    tracer.write(chrome, fmt="chrome")
    tracer.write(jsonl, fmt="jsonl")
    validate_chrome_trace(json.loads(chrome.read_text()))
    names = [json.loads(line)["name"] for line in jsonl.read_text().splitlines()]
    assert "a" in names
    with pytest.raises(ValueError):
        tracer.write(tmp_path / "t", fmt="xml")


def test_null_tracer_is_inert():
    assert NULL_TRACER.enabled is False
    assert isinstance(NULL_TRACER, NullTracer)
    with NULL_TRACER.span("anything"):
        pass
    NULL_TRACER.complete("drain", NULL_TRACER.now())
    NULL_TRACER.instant("x")
    NULL_TRACER.tuple_event("ingest", "R", 0.0)
    NULL_TRACER.counter("depth", 1.0)
    assert len(NULL_TRACER) == 0 and NULL_TRACER.emitted == 0


class TestTraceContext:
    def test_context_rides_every_event_until_cleared(self, tracer, clock):
        tracer.set_context("abc123", "p1")
        tracer.instant("ingest")
        with tracer.span("window"):
            clock.advance(0.001)
        tracer.clear_context()
        tracer.instant("after")
        ingest, window, after = tracer.events()
        assert ingest["args"]["trace_id"] == "abc123"
        assert ingest["args"]["parent"] == "p1"
        assert window["args"]["trace_id"] == "abc123"
        assert "trace_id" not in after.get("args", {})

    def test_latest_context_wins(self, tracer):
        tracer.set_context("first")
        tracer.set_context("second")
        tracer.instant("x")
        (e,) = tracer.events()
        assert e["args"]["trace_id"] == "second"
        assert "parent" not in e["args"]

    def test_flow_event_shape(self, tracer):
        tracer.flow("publish", "abc123", phase="s", stream="R")
        tracer.flow("publish", "abc123", phase="t")
        tracer.flow("publish", "abc123", phase="f")
        start, step, end = tracer.events()
        assert [e["ph"] for e in (start, step, end)] == ["s", "t", "f"]
        assert all(e["id"] == "abc123" for e in (start, step, end))
        assert end["bp"] == "e"  # bind to the enclosing slice
        assert start["args"]["stream"] == "R"

    def test_flow_phase_must_be_valid(self, tracer):
        with pytest.raises(ValueError):
            tracer.flow("x", "id", phase="q")

    def test_id_generators_are_hex_and_distinct(self):
        tid, sid = new_trace_id(), new_span_id()
        assert len(tid) == 16 and len(sid) == 8
        int(tid, 16), int(sid, 16)  # both parse as hex
        assert new_trace_id() != tid

    def test_bound_drop_counter_counts_evictions(self, clock):
        class Spy:
            calls = 0

            def inc(self, amount=1.0, **labels):
                Spy.calls += 1

        tracer = Tracer(capacity=4, clock=clock)
        tracer.bind_drop_counter(Spy())
        for i in range(7):
            tracer.instant(f"e{i}")
        assert tracer.dropped == 3
        assert Spy.calls == 3


class TestMergeJsonl:
    def write_pair(self, tmp_path, skew=0.5):
        """Two tracers, wall clocks ``skew`` seconds apart, one flow."""
        trace_id = "feedbeefcafe0123"
        client = Tracer(clock=lambda: 0.0, label="client", epoch=100.0)
        client.set_context(trace_id, "span01")
        client.instant("publish", cat="client")
        client.flow("publish", trace_id, phase="s")
        server_clock = {"t": 0.0}
        server = Tracer(
            clock=lambda: server_clock["t"], label="server", epoch=100.0 + skew
        )
        server.set_context(trace_id, "span01")
        server_clock["t"] = 0.25
        server.instant("ingest", cat="service")
        server.flow("publish", trace_id, phase="f")
        a, b = tmp_path / "client.jsonl", tmp_path / "server.jsonl"
        client.write(a, fmt="jsonl")
        server.write(b, fmt="jsonl")
        return trace_id, [a, b]

    def test_merge_validates_and_assigns_process_tracks(self, tmp_path):
        trace_id, paths = self.write_pair(tmp_path)
        doc = merge_jsonl_traces(paths)
        events = validate_chrome_trace(doc)
        named = [e for e in events if e["ph"] == "M" and e["name"] == "process_name"]
        assert {e["args"]["name"] for e in named} == {"client", "server"}
        assert {e["pid"] for e in named} == {1, 2}

    def test_trace_id_spans_both_processes(self, tmp_path):
        trace_id, paths = self.write_pair(tmp_path)
        doc = merge_jsonl_traces(paths)
        carriers = [
            e
            for e in doc["traceEvents"]
            if isinstance(e.get("args"), dict)
            and e["args"].get("trace_id") == trace_id
        ]
        assert {e["pid"] for e in carriers} == {1, 2}
        flows = [e for e in doc["traceEvents"] if e["ph"] in ("s", "t", "f")]
        assert {e["id"] for e in flows} == {trace_id}
        assert {e["pid"] for e in flows} == {1, 2}

    def test_clock_offsets_align_timelines(self, tmp_path):
        _, paths = self.write_pair(tmp_path, skew=0.5)
        doc = merge_jsonl_traces(paths)
        offsets = doc["otherData"]["clock_offsets_us"]
        assert offsets["client"] == 0.0
        assert offsets["server"] == pytest.approx(500_000.0)
        ingest = next(
            e for e in doc["traceEvents"] if e["name"] == "ingest"
        )
        # Server's own clock read 0.25s; its epoch is 0.5s after the
        # client's, so the merged timeline places it at 0.75s.
        assert ingest["ts"] == pytest.approx(750_000.0)

    def test_labels_override_recorded_names(self, tmp_path):
        _, paths = self.write_pair(tmp_path)
        doc = merge_jsonl_traces(paths, labels=["a", "b"])
        named = [
            e
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "process_name"
        ]
        assert {e["args"]["name"] for e in named} == {"a", "b"}

    def test_merged_events_sorted_by_timestamp(self, tmp_path):
        _, paths = self.write_pair(tmp_path)
        doc = merge_jsonl_traces(paths)
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] != "M"]
        assert ts == sorted(ts)

    def test_merge_rejects_garbage_file(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("not json\n")
        with pytest.raises(TraceError):
            merge_jsonl_traces([bad])


@pytest.mark.parametrize(
    "doc",
    [
        {},
        {"traceEvents": {}},
        {"traceEvents": ["nope"]},
        {"traceEvents": [{"name": "", "cat": "c", "ph": "i", "ts": 0, "pid": 1, "tid": 0}]},
        {"traceEvents": [{"name": "n", "cat": "c", "ph": "Z", "ts": 0, "pid": 1, "tid": 0}]},
        {"traceEvents": [{"name": "n", "cat": "c", "ph": "i", "ts": -1, "pid": 1, "tid": 0}]},
        {"traceEvents": [{"name": "n", "cat": "c", "ph": "i", "ts": 0, "pid": "1", "tid": 0}]},
        {"traceEvents": [{"name": "n", "cat": "c", "ph": "X", "ts": 0, "pid": 1, "tid": 0}]},
        {"traceEvents": [{"name": "n", "cat": "c", "ph": "i", "ts": 0, "pid": 1, "tid": 0, "args": [1]}]},
    ],
)
def test_validate_rejects_malformed(doc):
    with pytest.raises(TraceError):
        validate_chrome_trace(doc)
