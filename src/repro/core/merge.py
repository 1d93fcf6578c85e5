"""Merging exact query results with synopsis estimates of lost results.

Paper Figure 2 / Section 8.1: the per-window answer users see is the
*composite* of the exact result over kept tuples and the shadow plan's
estimate of what was lost — *"we merged these streams by merging the
aggregates computed from a SQL GROUP BY statement with approximate
aggregates computed from synopses."*

:class:`MergeSpec` is compiled once per query: it maps the GROUP BY columns
and aggregate arguments onto qualified synopsis dimensions.  Per window,
:func:`exact_groups` reads the engine's grouped result,
:func:`estimate_groups` converts the shadow synopsis into the same shape,
and :func:`merge_groups` combines them aggregate-by-aggregate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.algebra.multiset import Multiset
from repro.engine.expressions import ColumnRef
from repro.engine.operators import AggregateSpec
from repro.engine.types import Schema
from repro.rewrite.plan import RewriteError, SPJPlan
from repro.synopses.base import Synopsis

GroupKey = tuple
GroupValues = dict[str, float | None]  # aggregate output name -> value
Groups = dict[GroupKey, GroupValues]


@dataclass(frozen=True)
class MergeSpec:
    """How a query's grouped aggregates map onto synopsis dimensions."""

    group_names: tuple[str, ...]  # output column names of GROUP BY keys
    group_dims: tuple[str, ...]  # qualified synopsis dims ('R.a', ...)
    aggregates: tuple[AggregateSpec, ...]
    agg_dims: tuple[str | None, ...]  # qualified dim per aggregate arg

    @classmethod
    def from_plan(cls, plan: SPJPlan) -> "MergeSpec":
        bound = plan.bound
        if not bound.is_aggregate:
            raise RewriteError(
                "merging requires a grouped aggregate query; for raw result "
                "streams use the synopsis directly (see repro.viz)"
            )

        def qualify(expr) -> str:
            if not isinstance(expr, ColumnRef):
                raise RewriteError(
                    f"cannot map expression {expr} onto a synopsis dimension"
                )
            if expr.table is not None:
                return f"{expr.table}.{expr.name}"
            matches = [
                s.name
                for s in bound.sources
                if expr.name in s.schema
            ]
            if len(matches) != 1:
                raise RewriteError(f"cannot attribute column {expr.name!r}")
            return f"{matches[0]}.{expr.name}"

        group_names = tuple(n for n, _ in bound.group_by)
        group_dims = tuple(qualify(e) for _, e in bound.group_by)
        agg_dims: list[str | None] = []
        for spec in bound.aggregates:
            agg_dims.append(None if spec.argument is None else qualify(spec.argument))
        return cls(group_names, group_dims, tuple(bound.aggregates), tuple(agg_dims))


def exact_groups(rows: Multiset, schema: Schema, spec: MergeSpec) -> Groups:
    """Read the engine's grouped result into ``{key: {agg: value}}`` form."""
    key_pos = [schema.position(n) for n in spec.group_names]
    agg_pos = [schema.position(a.output_name) for a in spec.aggregates]
    out: Groups = {}
    for row, mult in rows.items():
        if mult != 1:
            raise ValueError("grouped results must have one row per group")
        key = tuple(row[p] for p in key_pos)
        out[key] = {
            a.output_name: row[p] for a, p in zip(spec.aggregates, agg_pos)
        }
    return out


def estimate_groups(synopsis: Synopsis | None, spec: MergeSpec) -> Groups:
    """Convert a result synopsis into estimated grouped aggregates.

    COUNT comes from the group-dimension marginal; SUM/AVG/MIN/MAX condition
    the synopsis on each group value and read the aggregate dimension's
    marginal.  Supports one or two GROUP BY columns (the paper's queries use
    one).
    """
    if synopsis is None or synopsis.total() <= 0:
        return {}
    if len(spec.group_dims) == 1:
        return _estimate_1d(synopsis, spec)
    if len(spec.group_dims) == 2:
        out: Groups = {}
        dim0 = spec.group_dims[0]
        for v0, mass in synopsis.group_counts(dim0).items():
            if mass <= 0:
                continue
            conditioned = synopsis.select_range(dim0, v0, v0)
            inner_spec = MergeSpec(
                spec.group_names[1:],
                spec.group_dims[1:],
                spec.aggregates,
                spec.agg_dims,
            )
            for key, vals in _estimate_1d(conditioned, inner_spec).items():
                out[(v0,) + key] = vals
        return out
    raise RewriteError(
        f"estimate_groups supports 1-2 GROUP BY columns, got {len(spec.group_dims)}"
    )


def _estimate_1d(synopsis: Synopsis, spec: MergeSpec) -> Groups:
    group_dim = spec.group_dims[0]
    counts = synopsis.group_counts(group_dim)
    needs_conditioning = any(
        a.function != "count" for a in spec.aggregates
    )
    out: Groups = {}
    for value, count in counts.items():
        if count <= 1e-9:
            continue
        values: GroupValues = {}
        conditioned: Synopsis | None = None
        if needs_conditioning:
            conditioned = synopsis.select_range(group_dim, value, value)
        for agg, dim in zip(spec.aggregates, spec.agg_dims):
            fn = agg.function
            if fn == "count":
                values[agg.output_name] = count
                continue
            assert conditioned is not None and dim is not None
            marginal = conditioned.group_counts(dim)
            mass = sum(marginal.values())
            weighted = sum(v * m for v, m in marginal.items())
            present = [v for v, m in marginal.items() if m > 1e-9]
            if fn == "sum":
                values[agg.output_name] = weighted
            elif fn == "avg":
                values[agg.output_name] = weighted / mass if mass > 0 else None
            elif fn == "min":
                values[agg.output_name] = float(min(present)) if present else None
            elif fn == "max":
                values[agg.output_name] = float(max(present)) if present else None
        out[(value,)] = values
    return out


def merge_groups(exact: Groups, estimated: Groups, spec: MergeSpec) -> Groups:
    """Combine exact and estimated aggregates into the composite answer.

    COUNT and SUM add; AVG recombines via the sibling COUNT (and therefore
    requires ``COUNT(*)`` in the query); MIN/MAX take the extremum.
    """
    out: Groups = {}
    count_name = next(
        (a.output_name for a in spec.aggregates if a.function == "count"), None
    )
    for key in exact.keys() | estimated.keys():
        e = exact.get(key, {})
        s = estimated.get(key, {})
        merged: GroupValues = {}
        for agg in spec.aggregates:
            name = agg.output_name
            ev, sv = e.get(name), s.get(name)
            if ev is None and sv is None:
                merged[name] = None
            elif agg.function in ("count", "sum"):
                merged[name] = (ev or 0.0) + (sv or 0.0)
            elif agg.function == "min":
                merged[name] = min(v for v in (ev, sv) if v is not None)
            elif agg.function == "max":
                merged[name] = max(v for v in (ev, sv) if v is not None)
            elif agg.function == "avg":
                if count_name is None:
                    raise RewriteError(
                        "merging AVG requires COUNT(*) in the same query"
                    )
                ec = e.get(count_name) or 0.0
                sc = s.get(count_name) or 0.0
                total = ec + sc
                if total <= 0:
                    merged[name] = None
                else:
                    merged[name] = (
                        (ev or 0.0) * ec + (sv or 0.0) * sc
                    ) / total
        out[key] = merged
    return out


# ---------------------------------------------------------------------------
# The window hand-off (and its merge across shards)
# ---------------------------------------------------------------------------
@dataclass
class WindowPartials:
    """The window hand-off: everything a batch of closing windows leaves.

    Kept-tuple bags, kept/dropped synopses, and arrival/drop counts, all
    keyed ``{source: {window_id: value}}``; the synopsis halves are ``None``
    when the strategy keeps no synopses.  Every runner builds one the same
    way (:meth:`TriageCore.hand_off`) and
    :meth:`DataTriagePipeline.evaluate_windows` takes it whole, reading only
    its own query's sources.  A sharded data plane gets one per worker and
    folds them with :func:`merge_partials`, which is what keeps sharded
    results byte-identical to the serial server's.  ``len()`` is the number
    of windows.
    """

    window_ids: list[int] = field(default_factory=list)
    kept_rows: dict = field(default_factory=dict)
    kept_synopses: dict | None = None
    dropped_synopses: dict | None = None
    dropped_counts: dict = field(default_factory=dict)
    arrived: dict = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.window_ids)


def _merge_nested(dst: dict, src: dict, combine) -> None:
    for source, per_window in src.items():
        mine = dst.setdefault(source, {})
        for wid, value in per_window.items():
            have = mine.get(wid)
            mine[wid] = value if have is None else combine(have, value)


def _union_syn(a: Synopsis | None, b: Synopsis | None):
    if a is None:
        return b
    if b is None:
        return a
    return a.union_all(b)


def merge_partials(parts: Sequence[WindowPartials]) -> WindowPartials:
    """Fold shard partials into one evaluation input set.

    Kept rows merge by bag union, synopses by ``union_all`` (the mergeability
    the paper's synopsis interface guarantees), counts by addition.  Sources
    are hash-partitioned to shards so in practice each (source, window) cell
    comes from exactly one shard, but the fold is written for the general
    overlap case — the associative/commutative merge makes the result
    independent of shard count and arrival order.
    """
    out = WindowPartials()
    wids: set[int] = set()
    for part in parts:
        wids.update(part.window_ids)
        _merge_nested(out.kept_rows, part.kept_rows, lambda a, b: a + b)
        if part.kept_synopses is not None:
            if out.kept_synopses is None:
                out.kept_synopses = {}
            _merge_nested(out.kept_synopses, part.kept_synopses, _union_syn)
        if part.dropped_synopses is not None:
            if out.dropped_synopses is None:
                out.dropped_synopses = {}
            _merge_nested(
                out.dropped_synopses, part.dropped_synopses, _union_syn
            )
        _merge_nested(out.dropped_counts, part.dropped_counts, lambda a, b: a + b)
        _merge_nested(out.arrived, part.arrived, lambda a, b: a + b)
    out.window_ids = sorted(wids)
    return out
