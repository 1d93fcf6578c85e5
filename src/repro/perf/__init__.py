"""Performance layer: compiled plans, vector kernels, worker spawning.

The paper's premise (Section 6 / Figure 6) is that triage only wins if its
own machinery is cheap — the shedding infrastructure must respect the very
latency bound it protects.  This package keeps the hot paths honest:

* :mod:`repro.perf.compile` — lowers bound queries into a reusable,
  batch-only operator tree (build once, re-bind per window).
* :mod:`repro.perf.vector` — expression lowering: the column-at-a-time
  kernels those plans run on, and the row closure CEP predicates use.
* :mod:`repro.perf.parallel` — fork context + pipeline payload the shard
  workers of :mod:`repro.service.shard` are spawned with.

How fast any of it runs is measured in one place, outside the package:
``python3 benchmarks/e2e/run.py`` (see ``benchmarks/e2e/README.md``).
"""

from repro.perf.compile import compile_query
from repro.perf.vector import CompileError, compile_scalar

__all__ = [
    "CompileError",
    "compile_query",
    "compile_scalar",
]
