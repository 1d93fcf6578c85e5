"""The trace ring's accounting against a plain-list model.

Records of every shape — span dicts, compact tuple-lifecycle records and
deferred records that count as ``n`` events — go through one ring; the
model is the list of all events ever recorded, of which the ring must hold
exactly the last ``capacity``.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.trace import NULL_TRACER, TraceError, Tracer


class Clock:
    def __init__(self):
        self.t = 10.0

    def __call__(self):
        self.t += 0.001
        return self.t


class TotalCounter:
    """A drop counter that keeps the sum of what it was incremented by."""

    def __init__(self):
        self.total = 0.0
        self.amounts = []

    def inc(self, amount=1.0, **labels):
        self.amounts.append(amount)
        self.total += amount


def key(event):
    return (event["name"], event["cat"], event["ph"], event.get("args"))


def deferred(tracer, n, tag):
    """A deferred record of ``n`` events mixing both record shapes."""
    base = tracer.now()
    expected = []
    for i in range(n):
        if i % 2:
            args = {"source": "R", "t": float(i)}
            expected.append((f"{tag}.{i}", "tuple", "i", args))
        else:
            expected.append((f"{tag}.{i}", "pipeline", "X", {"i": i}))

    def expand(tuple_event, complete, skip):
        return [
            tuple_event(f"{tag}.{i}", "R", float(i), base)
            if i % 2
            else complete(f"{tag}.{i}", base, base + 0.5, i=i)
            for i in range(skip, n)
        ]

    return expand, expected


op = st.one_of(
    st.tuples(st.just("complete")),
    st.tuples(st.just("instant")),
    st.tuples(st.just("tuple_event")),
    st.tuples(st.just("defer"), st.integers(0, 24)),
    st.tuples(st.just("clear")),
)


@settings(max_examples=300, deadline=None)
@given(capacity=st.integers(1, 8), ops=st.lists(op, max_size=40))
def test_ring_matches_a_list_model(capacity, ops):
    tracer = Tracer(capacity, clock=Clock())
    counter = TotalCounter()
    tracer.bind_drop_counter(counter)
    model = []  # every event since the last clear, oldest first
    evicted = 0  # every event ever evicted (the counter is never reset)
    for i, (name, *arg) in enumerate(ops):
        before = len(model)
        if name == "complete":
            start = tracer.now()
            tracer.complete(f"c{i}", start, start + 1.0, k=i)
            model.append((f"c{i}", "pipeline", "X", {"k": i}))
        elif name == "instant":
            tracer.instant(f"i{i}")
            model.append((f"i{i}", "event", "i", None))
        elif name == "tuple_event":
            tracer.tuple_event(f"t{i}", "S", float(i))
            model.append((f"t{i}", "tuple", "i", {"source": "S", "t": float(i)}))
        elif name == "defer":
            # n up to 3x capacity: larger than the ring, or trimmed at the head.
            n = min(arg[0], 3 * capacity)
            expand, expected = deferred(tracer, n, f"d{i}")
            tracer.defer(expand, n)
            model.extend(expected)
        else:
            tracer.clear()
            model = []
            assert len(tracer) == 0 and tracer.events() == []
            continue
        evicted += max(0, len(model) - capacity) - max(0, before - capacity)
        held = model[-capacity:]
        events = tracer.events()
        assert [key(e) for e in events] == held
        assert len(tracer) == len(events) == len(held)
        assert tracer.emitted == len(model)
        assert tracer.dropped == len(model) - len(held)
        assert counter.total == evicted
        assert all(type(a) is float for a in counter.amounts)


def test_a_deferred_record_larger_than_the_ring_keeps_its_tail():
    tracer = Tracer(4, clock=Clock())
    counter = TotalCounter()
    tracer.bind_drop_counter(counter)
    tracer.instant("before")
    expand, expected = deferred(tracer, 10, "d")
    tracer.defer(expand, 10)
    assert [key(e) for e in tracer.events()] == expected[-4:]
    assert (len(tracer), tracer.emitted, tracer.dropped) == (4, 11, 7)
    assert counter.amounts == [7.0]


def test_a_deferred_head_is_trimmed_one_event_at_a_time():
    tracer = Tracer(5, clock=Clock())
    counter = TotalCounter()
    tracer.bind_drop_counter(counter)
    expand, expected = deferred(tracer, 4, "d")
    tracer.defer(expand, 4)
    tracer.instant("a")
    tracer.instant("b")  # evicts the deferred record's first event
    tracer.instant("c")  # ... and its second
    names = [e["name"] for e in tracer.events()]
    assert names == ["d.2", "d.3", "a", "b", "c"]
    assert tracer.dropped == 2 and counter.amounts == [1.0, 1.0]


def test_deferred_records_expand_only_when_read():
    tracer = Tracer(8, clock=Clock())
    calls = []

    def expand(tuple_event, complete, skip):
        calls.append(skip)
        return [tuple_event("poll", "R", 1.0, tracer.now())]

    tracer.defer(expand, 1)
    assert calls == [] and len(tracer) == 1
    tracer.to_chrome()
    tracer.events()
    assert calls == [0, 0]  # once per read


def test_a_deferred_record_must_expand_to_its_count():
    tracer = Tracer(8)
    tracer.defer(lambda tuple_event, complete, skip: [], 2)
    with pytest.raises(TraceError, match="expanded to 0 events"):
        tracer.events()


def test_null_tracer_defers_nothing():
    NULL_TRACER.defer(lambda tuple_event, complete, skip: [None], 1)
    assert len(NULL_TRACER) == 0 and NULL_TRACER.events() == []
