"""SPJ query plans for the Data Triage rewrite.

The rewrite of paper Section 4.2 applies to select-project-join queries
expressed as a *linear join chain* ``R1 ⋈ R2 ⋈ ... ⋈ Rn`` (equation 15 picks
an order before rewriting).  :class:`SPJPlan` captures that shape: an
ordered list of base relations, the equijoin predicate linking each relation
to the prefix joined before it, and the per-relation selections.

:func:`SPJPlan.from_bound` extracts this form from a bound query, choosing
the chain order greedily from the FROM order: each step attaches the first
remaining source, in FROM order, that has a predicate into the prefix.  The
executor's :func:`~repro.engine.executor.join_schedule` instead follows
the first pending predicate, so the two can differ: for ``FROM R, S, T
WHERE R.a = T.d AND R.a = S.b`` the chain is R, S, T and the executor
joins R, T, S.  Either order gives the same answer (equation 14 holds for
any chain order); the shadow plan's numbers follow the chain's.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.expressions import Expression
from repro.sql.binder import BoundQuery, JoinPredicate


class RewriteError(ValueError):
    """Raised when a query cannot be put into rewriteable SPJ form."""


@dataclass(frozen=True)
class ChainLink:
    """One relation in the join chain.

    ``join_with_prefix`` holds the equijoin predicates connecting this
    relation to the relations before it in the chain (empty for the first).
    """

    source_name: str
    stream_name: str
    join_with_prefix: tuple[JoinPredicate, ...]  # right side = this relation


@dataclass
class SPJPlan:
    """A linearized SPJ query, ready for the kept/dropped rewrite."""

    chain: list[ChainLink]
    local_predicates: dict[str, list[Expression]]
    bound: BoundQuery = field(repr=False)

    @property
    def names(self) -> list[str]:
        return [link.source_name for link in self.chain]

    @classmethod
    def from_bound(cls, bound: BoundQuery) -> "SPJPlan":
        """Linearize a bound SPJ query into a join chain.

        Requirements (checked): every FROM source is a base stream, there
        are no residual (non-equijoin multi-relation) predicates, and the
        join graph is connected so a chain order exists.
        """
        for src in bound.sources:
            if src.stream_name is None:
                raise RewriteError(
                    f"source {src.name!r} is not a base stream; the rewrite "
                    "applies to SPJ queries over streams"
                )
        if bound.residual_predicates:
            raise RewriteError(
                "query has non-equijoin cross-relation predicates; "
                "only select-project-join queries are rewriteable"
            )
        order = [s.name for s in bound.sources]
        pending = list(bound.join_predicates)
        chain: list[ChainLink] = []
        placed: set[str] = set()
        remaining = list(order)
        while remaining:
            if not placed:
                name = remaining.pop(0)
                chain.append(
                    ChainLink(
                        name, bound.source(name).stream_name, ()
                    )
                )
                placed.add(name)
                continue
            chosen = None
            for name in remaining:
                links = []
                for p in pending:
                    if p.left_source in placed and p.right_source == name:
                        links.append(p)
                    elif p.right_source in placed and p.left_source == name:
                        links.append(p.reversed())
                if links:
                    chosen = (name, tuple(links))
                    break
            if chosen is None:
                raise RewriteError(
                    f"join graph is disconnected at {remaining}; the linear "
                    "rewrite needs a connected chain"
                )
            name, links = chosen
            pending = [
                p
                for p in pending
                if not (
                    (p.left_source in placed and p.right_source == name)
                    or (p.right_source in placed and p.left_source == name)
                )
            ]
            chain.append(ChainLink(name, bound.source(name).stream_name, links))
            placed.add(name)
            remaining.remove(name)
        return cls(
            chain=chain, local_predicates=dict(bound.local_predicates), bound=bound
        )
