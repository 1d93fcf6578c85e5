"""Performance layer: compiled plans, vector kernels, worker spawning.

The paper's premise (Section 6 / Figure 6) is that triage only wins if its
own machinery is cheap — the shedding infrastructure must respect the very
latency bound it protects.  This package keeps the hot paths honest:

* :mod:`repro.perf.compile` — code-generates bound queries into flat Python
  closures and a reusable operator tree (build once, re-bind per window).
* :mod:`repro.perf.vector` — column-at-a-time expression kernels over
  whole row batches.
* :mod:`repro.perf.parallel` — fork context + pipeline payload the shard
  workers of :mod:`repro.service.shard` are spawned with.

How fast any of it runs is measured in one place, outside the package:
``python3 benchmarks/e2e/run.py`` (see ``benchmarks/e2e/README.md``).
"""

from repro.perf.compile import CompileError, compile_query, compile_scalar

__all__ = [
    "CompileError",
    "compile_query",
    "compile_scalar",
]
