"""Process-spawning helpers for the shard workers.

:mod:`repro.service.shard` runs one data plane per worker process.  Workers
are primed once with a pickled (catalog, bound query, config, domains)
tuple from which each rebuilds its own
:class:`~repro.core.pipeline.DataTriagePipeline`, and are forked where the
platform allows so they inherit loaded modules instead of re-importing the
world.
"""

from __future__ import annotations

import multiprocessing
import pickle


def fork_context():
    """The ``fork`` multiprocessing context, or the platform default."""
    try:
        return multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return multiprocessing.get_context()


def pipeline_payload(pipeline) -> bytes:
    """Pickle the recipe a worker needs to rebuild ``pipeline``.

    The payload is (catalog, bound query, config, domains).  The
    observability bundle never crosses the process boundary: a worker
    builds its own from a spec (:meth:`repro.obs.Observability.worker_spec`)
    and ships deltas back.
    """
    return pickle.dumps(
        (pipeline.catalog, pipeline.bound, pipeline.config, pipeline._domains)
    )


def build_pipeline_from_payload(payload: bytes, obs=None):
    """Worker side of :func:`pipeline_payload`; ``obs`` is the worker's own."""
    from repro.core.pipeline import DataTriagePipeline

    catalog, bound, config, domains = pickle.loads(payload)
    return DataTriagePipeline(catalog, bound, config, domains, obs=obs)
