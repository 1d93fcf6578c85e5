"""Performance layer: compiled plans, worker spawning, benchmarks.

The paper's premise (Section 6 / Figure 6) is that triage only wins if its
own machinery is cheap — the shedding infrastructure must respect the very
latency bound it protects.  This package keeps the hot paths honest:

* :mod:`repro.perf.compile` — code-generates bound queries into flat Python
  closures and a reusable operator tree (build once, re-bind per window).
* :mod:`repro.perf.parallel` — fork context + pipeline payload the shard
  workers of :mod:`repro.service.shard` are spawned with.
* :mod:`repro.perf.bench` — the ``repro bench`` regression harness that
  emits ``BENCH_pipeline.json`` so every PR has a throughput trajectory.
"""

from repro.perf.compile import CompileError, compile_query, compile_scalar

__all__ = [
    "BENCH_SCHEMA",
    "CompileError",
    "compile_query",
    "compile_scalar",
    "run_bench_suites",
]


def __getattr__(name):
    # Lazy: the bench suite pulls in the service/CLI stack, which plan
    # compilation (imported inside shard workers) must not pay for.
    if name in ("BENCH_SCHEMA", "run_bench_suites"):
        from repro.perf import bench

        return getattr(bench, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
