"""A window that shed nothing costs no shadow plan and answers as before.

The kept synopsis is read only inside ``Q-``, and every term of ``Q-`` joins
some stream's dropped synopsis: a window in which no stream dropped anything
has nothing to estimate.  The server therefore builds no kept synopsis for it
and never calls :meth:`ShadowPlan.estimate_dropped` — and its RESULT frame
must not show it.  The two frames below were produced by the commit *before*
that skip existed (which ran the shadow plan over empty synopses for window
0), from exactly the scenario replayed here.
"""

import asyncio

from repro.core.strategies import PipelineConfig
from repro.engine.window import WindowSpec
from repro.experiments import PAPER_QUERY, paper_catalog
from repro.rewrite.shadow import ShadowPlan
from repro.service import ServiceConfig, TriageServer
from repro.service.protocol import encode_frame

PARENT_WINDOW_0 = (
    b'''{"type":"RESULT","window":0,"start":0.0,"end":1.0,"group_names":["a"],"groups":[{"key":[1],"aggs":{"count":8.0},"exact":{"count":8},"estimated":null},{"key":[2],"aggs":{"count":1.0},"exact":{"count":1},"estimated":null},{"key":[3],"aggs":{"count":1.0},"exact":{"count":1},"estimated":null},{"key":[4],"aggs":{"count":1.0},"exact":{"count":1},"estimated":null},{"key":[5],"aggs":{"count":1.0},"exact":{"count":1},"estimated":null}],"arrived":{"R":6,"S":6,"T":6},"kept":{"R":6,"S":6,"T":6},"dropped":{"R":0,"S":0,"T":0},"drop_fraction":0.0,"latency":0.0}'''
    b"\n"
)
PARENT_WINDOW_1 = (
    b'''{"type":"RESULT","window":1,"start":1.0,"end":2.0,"group_names":["a"],"groups":[{"key":[1],"aggs":{"count":18.128000000000004},"exact":{"count":2},"estimated":{"count":16.128000000000004}},{"key":[2],"aggs":{"count":18.128000000000004},"exact":{"count":2},"estimated":{"count":16.128000000000004}},{"key":[3],"aggs":{"count":22.128000000000004},"exact":{"count":6},"estimated":{"count":16.128000000000004}},{"key":[4],"aggs":{"count":16.128000000000004},"exact":null,"estimated":{"count":16.128000000000004}},{"key":[5],"aggs":{"count":22.128000000000004},"exact":{"count":6},"estimated":{"count":16.128000000000004}}],"arrived":{"R":6,"S":20,"T":20},"kept":{"R":6,"S":8,"T":8},"dropped":{"R":0,"S":12,"T":12},"drop_fraction":0.5217391304347826,"latency":0.5}'''
    b"\n"
)


class ManualClock:
    t = 0.0

    def __call__(self) -> float:
        return self.t


async def publish(server, start, step, counts, stride):
    for stream, width in (("R", 1), ("S", 2), ("T", 1)):
        n = counts[stream]
        rows = [[1 + (i * stride) % 5] * width for i in range(n)]
        await server.ingest_rows(stream, rows, [start + step * i for i in range(n)])


def test_unshed_window_frame_is_the_parents_and_runs_no_shadow_plan(monkeypatch):
    calls = []
    real = ShadowPlan.estimate_dropped

    def counting(self, kept, dropped):
        calls.append(sorted(s for s, syn in dropped.items() if syn is not None))
        return real(self, kept, dropped)

    monkeypatch.setattr(ShadowPlan, "estimate_dropped", counting)
    outcomes = []

    async def scenario():
        clock = ManualClock()
        config = PipelineConfig(
            window=WindowSpec(width=1.0),
            queue_capacity=8,
            service_time=0.01,
            compute_ideal=False,
            seed=4,
        )
        server = TriageServer(
            paper_catalog(),
            PAPER_QUERY,
            config,
            ServiceConfig(tick_interval=None, clock=clock),
        )
        server.pipeline.add_window_hook(outcomes.append)
        await server.start()
        try:
            # Window 0: six rows per stream, under the capacity of eight.
            await publish(server, 0.1, 0.1, {"R": 6, "S": 6, "T": 6}, stride=7)
            clock.t = 1.0
            unshed = await server.tick()
            assert calls == []
            # Window 1: S and T overflow; R drops nothing, yet its kept
            # synopsis is needed (the R_kept x S_dropped term) and is built.
            await publish(server, 1.05, 0.04, {"R": 6, "S": 20, "T": 20}, stride=3)
            clock.t = 2.5
            shed = await server.tick()
            clock.t = 4.0
            shed += await server.tick()
        finally:
            await server.shutdown()
        return unshed, shed

    unshed, shed = asyncio.run(scenario())
    assert [encode_frame(f) for f in unshed] == [PARENT_WINDOW_0]
    assert [encode_frame(f) for f in shed] == [PARENT_WINDOW_1]
    assert calls == [["S", "T"]]  # once, for the window that shed
    # lost_synopsis is None exactly where nothing was lost (as it is for
    # every window under drop_only); readers must expect it.
    assert [o.lost_synopsis is None for o in outcomes] == [True, False]
    assert outcomes[0].estimated == {} and outcomes[0].merged == outcomes[0].exact
