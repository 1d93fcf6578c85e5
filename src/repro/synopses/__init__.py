"""Synopsis data structures and their object-relational registration.

Implementations of the paper's ``Synopsis`` datatype (Section 5.1):

* :class:`SparseCubicHistogram` — the paper's production synopsis (fast);
* :class:`MHist` — MAXDIFF multidimensional histogram (accurate but its
  unaligned joins blow up quadratically — the Figure 6 "slow synopsis");
  the ``grid`` parameter builds the Future-Work aligned variant;
* :class:`ReservoirSampleSynopsis` — sampling estimator (related work);
* :class:`CountMinSynopsis` — sketch family under attribute independence;
* :class:`WaveletSynopsis` — thresholded-Haar family (related work).

:func:`register_synopsis_udfs` installs the paper's user-defined functions
(``project``, ``union_all``/``union``, ``equijoin``, ``syn_total``) into a
UDF registry so shadow queries run inside the plain query engine.

The two numpy-backed families (count-min, wavelet) and
:data:`FACTORIES`, which names them, are resolved on first use: they are the
only ``import numpy`` in the package, and a service or simulation that never
picks one should not pay for it at start-up.
"""

from __future__ import annotations

import importlib

from repro.engine.udf import UDFRegistry
from repro.synopses.base import (
    Dimension,
    Synopsis,
    SynopsisError,
    SynopsisFactory,
    union_nullable,
)
from repro.synopses.endbiased import EndBiasedFactory, EndBiasedHistogram
from repro.synopses.join_order import (
    JoinInput,
    aligned_result_size,
    best_order,
    plan_cost,
    unaligned_result_size,
)
from repro.synopses.mhist import MHist, MHistFactory
from repro.synopses.sample import ReservoirSampleFactory, ReservoirSampleSynopsis
from repro.synopses.sparse_hist import SparseCubicHistogram, SparseHistogramFactory

__all__ = [
    "Dimension",
    "Synopsis",
    "SynopsisError",
    "SynopsisFactory",
    "SparseCubicHistogram",
    "SparseHistogramFactory",
    "MHist",
    "MHistFactory",
    "ReservoirSampleSynopsis",
    "ReservoirSampleFactory",
    "CountMinSynopsis",
    "CountMinFactory",
    "EndBiasedHistogram",
    "EndBiasedFactory",
    "WaveletSynopsis",
    "WaveletFactory",
    "JoinInput",
    "best_order",
    "plan_cost",
    "aligned_result_size",
    "unaligned_result_size",
    "register_synopsis_udfs",
    "FACTORIES",
]

# Export -> the numpy-backed submodule that defines it.
_LAZY = {
    "CountMinSynopsis": "cms",
    "CountMinFactory": "cms",
    "WaveletSynopsis": "wavelet",
    "WaveletFactory": "wavelet",
}


def __getattr__(name: str):
    """Resolve the lazy exports (see the module docstring) on first use."""
    if name == "FACTORIES":
        # Name -> zero-argument factory constructor, for CLI/benchmark
        # selection.
        value = {
            "sparse_hist": SparseHistogramFactory,
            "mhist": MHistFactory,
            "reservoir": ReservoirSampleFactory,
            "cms": __getattr__("CountMinFactory"),
            "wavelet": __getattr__("WaveletFactory"),
            "end_biased": EndBiasedFactory,
        }
    elif name in _LAZY:
        module = importlib.import_module(f"{__name__}.{_LAZY[name]}")
        value = getattr(module, name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def register_synopsis_udfs(registry: UDFRegistry) -> None:
    """Install the paper's synopsis UDT and UDFs into ``registry``.

    All functions are NULL-tolerant: a missing synopsis (empty window)
    behaves as an empty bag, so ``union_all(NULL, s) == s`` and
    ``equijoin(NULL, ..) IS NULL`` — mirroring how outer UNION arms behave
    when a triage queue produced no synopsis for a window.
    """

    def _project(syn: Synopsis | None, colnames: str) -> Synopsis | None:
        if syn is None:
            return None
        names = [c.strip() for c in colnames.split(",") if c.strip()]
        return syn.project(names)

    def _equijoin(
        a: Synopsis | None, a_col: str, b: Synopsis | None, b_col: str
    ) -> Synopsis | None:
        if a is None or b is None:
            return None
        return a.equijoin(b, a_col, b_col)

    def _equijoin_multi(
        a: Synopsis | None, a_cols: str, b: Synopsis | None, b_cols: str
    ) -> Synopsis | None:
        """Composite-key join; column lists are comma-separated strings."""
        if a is None or b is None:
            return None
        lefts = [c.strip() for c in a_cols.split(",") if c.strip()]
        rights = [c.strip() for c in b_cols.split(",") if c.strip()]
        if len(lefts) != len(rights):
            raise ValueError(
                f"equijoin_multi key lists differ in length: {a_cols!r} vs {b_cols!r}"
            )
        return a.equijoin_multi(b, list(zip(lefts, rights)))

    def _total(syn: Synopsis | None) -> float:
        return 0.0 if syn is None else syn.total()

    def _scale(syn: Synopsis | None, factor: float) -> Synopsis | None:
        return None if syn is None else syn.scale(factor)

    registry.register_type("Synopsis", Synopsis, replace=True)
    registry.register_function(
        "project", _project, ("Synopsis", "CSTRING"), "Synopsis", replace=True
    )
    registry.register_function(
        "union_all", union_nullable, ("Synopsis", "Synopsis"), "Synopsis", replace=True
    )
    # Figure 5 of the paper abbreviates union_all as "union".
    registry.register_function(
        "union", union_nullable, ("Synopsis", "Synopsis"), "Synopsis", replace=True
    )
    registry.register_function(
        "equijoin",
        _equijoin,
        ("Synopsis", "CSTRING", "Synopsis", "CSTRING"),
        "Synopsis",
        replace=True,
    )
    registry.register_function(
        "equijoin_multi",
        _equijoin_multi,
        ("Synopsis", "CSTRING", "Synopsis", "CSTRING"),
        "Synopsis",
        replace=True,
    )
    registry.register_function(
        "syn_total", _total, ("Synopsis",), "FLOAT", replace=True
    )
    registry.register_function(
        "syn_scale", _scale, ("Synopsis", "FLOAT"), "Synopsis", replace=True
    )
