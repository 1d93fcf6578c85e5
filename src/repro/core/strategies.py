"""The three load-shedding strategies, on one code path.

Paper Section 5.2.1: TelegraphCQ supports *drop-only*, *summarize-only*, and
*Data Triage* load shedding, all implemented on the same infrastructure so
comparisons are fair: *"To implement drop-only load shedding, we disabled
the code that computes summaries.  To implement summarize-only load
shedding, we bypassed the queue and constructed summaries of all the tuples
in each stream."*  The :class:`ShedStrategy` enum drives exactly those two
switches inside the pipeline.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.policies import DropPolicy, RandomDropPolicy
from repro.engine.window import WindowSpec
from repro.synopses.base import SynopsisFactory
from repro.synopses.sparse_hist import SparseHistogramFactory


class ShedStrategy(enum.Enum):
    """Which load-shedding method the pipeline runs."""

    DATA_TRIAGE = "data_triage"
    DROP_ONLY = "drop_only"
    SUMMARIZE_ONLY = "summarize_only"

    @property
    def summarizes_drops(self) -> bool:
        """Drop-only disables the summarizing half of the queue."""
        return self is ShedStrategy.DATA_TRIAGE


@dataclass
class PipelineConfig:
    """Tuning knobs for a load-shedding pipeline run.

    ``service_time`` is the engine's cost to fully process one tuple through
    the standard (relational) path, in virtual seconds — its reciprocal is
    the engine's capacity in tuples/second.  Shedding a tuple into a
    synopsis costs the engine nothing: the paper measures it to be a small
    fraction of standard processing (Figure 6), done by the triage process
    outside the engine.
    """

    strategy: ShedStrategy = ShedStrategy.DATA_TRIAGE
    window: WindowSpec = field(default_factory=lambda: WindowSpec(width=1.0))
    queue_capacity: int = 200
    policy: DropPolicy = field(default_factory=RandomDropPolicy)
    synopsis_factory: SynopsisFactory = field(default_factory=SparseHistogramFactory)
    service_time: float = 1.0 / 500.0
    seed: int = 0
    compute_ideal: bool = True
    #: When set, queues are resized at window boundaries by a
    #: :class:`repro.core.controller.LoadController` targeting this many
    #: seconds of backlog staleness; ``queue_capacity`` becomes the initial
    #: size.  None (default) keeps the paper's fixed-capacity behaviour.
    adaptive_staleness: float | None = None

    def __post_init__(self) -> None:
        if self.service_time <= 0:
            raise ValueError(f"service_time must be positive: {self.service_time}")
        if self.queue_capacity < 1:
            raise ValueError(f"queue_capacity must be >= 1: {self.queue_capacity}")
        if self.adaptive_staleness is not None and self.adaptive_staleness <= 0:
            raise ValueError(
                f"adaptive_staleness must be positive: {self.adaptive_staleness}"
            )

    @property
    def engine_capacity(self) -> float:
        """Tuples/second the engine can fully process."""
        return 1.0 / self.service_time
