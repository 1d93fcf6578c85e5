"""Shadow plans: equation 14 evaluated over synopsis data structures.

This is the programmatic core of the Figure 5 view — the thing Data Triage
actually runs at each window boundary.  A :class:`ShadowPlan` is compiled
once per query; each window it consumes one kept-synopsis and one
dropped-synopsis per stream (either may be ``None`` when a queue saw no
tuples / dropped nothing) and produces a synopsis of the lost query results.

Local selections of the original query are honoured when they are
range/equality comparisons against constants (``σ`` over a synopsis is
``select_range``); anything else is rejected at compile time, matching the
expressive limits of histogram algebra.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.engine.expressions import BinaryOp, ColumnRef, Expression, Literal
from repro.rewrite.plan import RewriteError, SPJPlan
from repro.synopses.base import Synopsis, union_nullable


@dataclass(frozen=True)
class RangeSelection:
    """A compiled local predicate: keep dim values in [lo, hi]."""

    dim: str
    lo: float
    hi: float


def _compile_selection(source_name: str, expr: Expression) -> RangeSelection:
    """Translate ``col op const`` into a range selection on a synopsis dim."""
    if not isinstance(expr, BinaryOp):
        raise RewriteError(f"unsupported shadow selection: {expr}")
    left, right, op = expr.left, expr.right, expr.op
    if isinstance(left, Literal) and isinstance(right, ColumnRef):
        left, right = right, left
        op = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}.get(op, op)
    if not (isinstance(left, ColumnRef) and isinstance(right, Literal)):
        raise RewriteError(f"unsupported shadow selection: {expr}")
    value = right.value
    if not isinstance(value, (int, float)):
        raise RewriteError(f"shadow selections need numeric constants: {expr}")
    dim = f"{source_name}.{left.name}"
    inf = float("inf")
    if op == "=":
        return RangeSelection(dim, value, value)
    if op == "<":
        return RangeSelection(dim, -inf, value - 1)
    if op == "<=":
        return RangeSelection(dim, -inf, value)
    if op == ">":
        return RangeSelection(dim, value + 1, inf)
    if op == ">=":
        return RangeSelection(dim, value, inf)
    raise RewriteError(f"unsupported shadow selection operator: {expr}")


@dataclass(frozen=True)
class ShadowLink:
    """One chain position: its source name, selections, and join keys.

    ``left_keys``/``right_keys`` hold one entry per equality predicate
    attaching this relation to the prefix (composite keys supported by the
    grid-aligned histogram families).
    """

    source_name: str
    selections: tuple[RangeSelection, ...]
    left_keys: tuple[str, ...]  # 'EarlierSource.col' per predicate
    right_keys: tuple[str, ...]  # 'ThisSource.col' per predicate

    @property
    def key_pairs(self) -> tuple[tuple[str, str], ...]:
        return tuple(zip(self.left_keys, self.right_keys))


class ShadowPlan:
    """Compiled synopsis evaluation of the kept/dropped expansion.

    Two evaluation modes, chosen at compile time:

    * **nested** (Figure 5): for *path-shaped* chains — every link joins its
      immediate predecessor — the nested suffix recurrence reuses
      intermediates (the paper's 3n−1 joins);
    * **flat**: for any other connected single-predicate-per-link chain
      (star joins etc.), each of equation 14's n distributed terms is
      evaluated left-to-right.  This works because joined dimensions
      accumulate: a later link's left key can reference *any* earlier
      relation, not just the adjacent one.
    """

    def __init__(self, plan: SPJPlan) -> None:
        self.plan = plan
        links: list[ShadowLink] = []
        self.nested = True  # path-shaped until proven otherwise
        for idx, link in enumerate(plan.chain):
            selections = tuple(
                _compile_selection(link.source_name, e)
                for e in plan.local_predicates.get(link.source_name, [])
            )
            if idx == 0:
                links.append(ShadowLink(link.source_name, selections, (), ()))
                continue
            if not link.join_with_prefix:
                raise RewriteError(
                    f"relation {link.source_name!r} has no join predicate; "
                    "the shadow plan cannot form cross products"
                )
            if len(link.join_with_prefix) > 1:
                self.nested = False  # composite keys: flat terms only
            for p in link.join_with_prefix:
                if p.left_source != plan.chain[idx - 1].source_name:
                    self.nested = False  # star-shaped: flat terms
            links.append(
                ShadowLink(
                    link.source_name,
                    selections,
                    tuple(
                        f"{p.left_source}.{p.left_column}"
                        for p in link.join_with_prefix
                    ),
                    tuple(
                        f"{p.right_source}.{p.right_column}"
                        for p in link.join_with_prefix
                    ),
                )
            )
        if not self.nested:
            # Flat terms join left to right and ``Synopsis.equijoin`` keeps
            # each predicate's left key and drops its right one, so a left
            # key an earlier join dropped is read from the dimension that
            # survives its equivalence class (as ``MergeSpec.from_plan``
            # reads group and aggregate columns).  Nested terms join right
            # to left, and their keys are all still there as written.
            survivor: dict[str, str] = {}
            for idx, link in enumerate(links):
                left_keys = tuple(survivor.get(k, k) for k in link.left_keys)
                links[idx] = replace(link, left_keys=left_keys)
                for left, right in zip(left_keys, link.right_keys):
                    survivor[right] = left
        self.links = links

    # ------------------------------------------------------------------
    @staticmethod
    def _apply_selections(
        syn: Synopsis | None, selections: tuple[RangeSelection, ...]
    ) -> Synopsis | None:
        if syn is None:
            return None
        for sel in selections:
            d = syn.dimension(sel.dim)
            lo = int(max(sel.lo, d.lo))
            hi = int(min(sel.hi, d.hi))
            if lo > hi:
                return None
            syn = syn.select_range(sel.dim, lo, hi)
        return syn

    @staticmethod
    def _join(
        a: Synopsis | None, pairs, b: Synopsis | None
    ) -> Synopsis | None:
        if a is None or b is None:
            return None
        return a.equijoin_multi(b, pairs)

    # ------------------------------------------------------------------
    def _channel(
        self,
        idx: int,
        kept: dict[str, Synopsis | None],
        dropped: dict[str, Synopsis | None],
        which: str,
    ) -> Synopsis | None:
        link = self.links[idx]
        syn = (kept if which == "kept" else dropped).get(link.source_name)
        return self._apply_selections(syn, link.selections)

    def _all(self, idx, kept, dropped) -> Synopsis | None:
        here = union_nullable(
            self._channel(idx, kept, dropped, "dropped"),
            self._channel(idx, kept, dropped, "kept"),
        )
        if idx == len(self.links) - 1:
            return here
        nxt = self.links[idx + 1]
        return self._join(
            here, nxt.key_pairs, self._all(idx + 1, kept, dropped)
        )

    def _dropped(self, idx, kept, dropped) -> Synopsis | None:
        if idx == len(self.links) - 1:
            return self._channel(idx, kept, dropped, "dropped")
        pairs = self.links[idx + 1].key_pairs
        # A missing channel empties its term: the suffix is not evaluated.
        drop_here = drop_later = None
        here = self._channel(idx, kept, dropped, "dropped")
        if here is not None:
            drop_here = self._join(here, pairs, self._all(idx + 1, kept, dropped))
        here = self._channel(idx, kept, dropped, "kept")
        if here is not None:
            drop_later = self._join(
                here, pairs, self._dropped(idx + 1, kept, dropped)
            )
        return union_nullable(drop_here, drop_later)

    # ------------------------------------------------------------------
    # Flat evaluation (equation 14's distributed terms; any connected chain)
    # ------------------------------------------------------------------
    def _flat_term(self, pivot: int, kept, dropped) -> Synopsis | None:
        """One distributed term: kept before the pivot, dropped at it, all after."""
        current: Synopsis | None = None
        for idx, link in enumerate(self.links):
            if idx < pivot:
                channel = self._channel(idx, kept, dropped, "kept")
            elif idx == pivot:
                channel = self._channel(idx, kept, dropped, "dropped")
            else:
                channel = union_nullable(
                    self._channel(idx, kept, dropped, "dropped"),
                    self._channel(idx, kept, dropped, "kept"),
                )
            if idx == 0:
                current = channel
            else:
                current = self._join(current, link.key_pairs, channel)
            if current is None:
                return None
        return current

    def _flat_dropped(self, kept, dropped) -> Synopsis | None:
        result: Synopsis | None = None
        for pivot in range(len(self.links)):
            result = union_nullable(result, self._flat_term(pivot, kept, dropped))
        return result

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def estimate_dropped(
        self,
        kept: dict[str, Synopsis | None],
        dropped: dict[str, Synopsis | None],
    ) -> Synopsis | None:
        """Synopsis of the query results lost to dropping (``Q-``, eq. 14).

        ``kept``/``dropped`` map chain source names to the window's
        kept-tuple and dropped-tuple synopses (``None`` = empty).  With no
        kept synopsis at all, ``Q-`` is the whole query over the dropped
        ones: summarize-only's answer.
        """
        if self.nested:
            return self._dropped(0, kept, dropped)
        return self._flat_dropped(kept, dropped)
