"""Join ordering for synopsis plans (paper Section 5.2).

*"The join ordering problem is quite different when one is performing query
processing over synopsis data structures instead of over relations ... the
size of the synopsis of a relation depends not on the number of tuples in
the relation but on the structure of the synopsis."*

Cost therefore derives from *bucket counts*, not cardinalities.  The model
here captures the two regimes the paper's implementation exposed:

* **aligned** synopses (shared grids: sparse cubic histograms,
  grid-constrained MHISTs) — joining touches only coordinate-matched bucket
  pairs, and the result's bucket count is bounded by the output grid;
* **unaligned** synopses (free MHIST boundaries) — every overlapping bucket
  pair produces an output bucket, so sizes compound multiplicatively, and
  join order changes intermediate sizes dramatically.

:func:`best_order` searches left-deep orders (exhaustively up to 8 inputs,
greedily beyond) for the minimum total intermediate size.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable, Sequence
from dataclasses import dataclass


@dataclass(frozen=True)
class JoinInput:
    """One input to a synopsis join chain: a name and its bucket count."""

    name: str
    size: int


def aligned_result_size(a: int, b: int, grid_cells: int = 400) -> int:
    """Result bucket count for grid-aligned joins.

    Matched pairs only, and the output cannot exceed the output grid —
    ``grid_cells`` caps it (e.g. a 20×20 grid over two surviving dims).
    """
    return max(1, min(a * b, grid_cells))


def unaligned_result_size(a: int, b: int) -> int:
    """Result bucket count for unaligned joins: the quadratic regime."""
    return max(1, a * b)


CostFn = Callable[[int, int], int]


def plan_cost(order: Sequence[JoinInput], result_size: CostFn) -> int:
    """Total work of a left-deep plan: Σ pairwise bucket-pair probes.

    Each join of intermediates with ``a`` and ``b`` buckets inspects ``a·b``
    pairs (the paper's observed join cost); the intermediate then has
    ``result_size(a, b)`` buckets.
    """
    if not order:
        return 0
    cost = 0
    current = order[0].size
    for nxt in order[1:]:
        cost += current * nxt.size
        current = result_size(current, nxt.size)
    return cost


def _connected_orders(
    inputs: Sequence[JoinInput], edges: set[frozenset[str]]
) -> "itertools.chain":
    """Permutations that never require a cross product (if edges are given)."""

    def ok(perm: tuple[JoinInput, ...]) -> bool:
        if not edges:
            return True
        seen = {perm[0].name}
        for nxt in perm[1:]:
            if not any(frozenset((s, nxt.name)) in edges for s in seen):
                return False
            seen.add(nxt.name)
        return True

    return (p for p in itertools.permutations(inputs) if ok(p))


def best_order(
    inputs: Sequence[JoinInput],
    edges: Sequence[tuple[str, str]] = (),
    result_size: CostFn = unaligned_result_size,
) -> list[JoinInput]:
    """The cheapest left-deep join order.

    ``edges`` lists which input pairs share a join predicate; orders that
    would need a cross product are excluded when edges are provided.
    Exhaustive for up to 8 inputs, greedy (smallest next intermediate)
    beyond.
    """
    inputs = list(inputs)
    if len(inputs) <= 1:
        return inputs
    edge_set = {frozenset(e) for e in edges}
    if len(inputs) <= 8:
        candidates = list(_connected_orders(inputs, edge_set))
        if not candidates:  # disconnected graph: fall back to all orders
            candidates = list(itertools.permutations(inputs))
        return list(min(candidates, key=lambda p: plan_cost(p, result_size)))
    # Greedy: start from the smallest input, repeatedly take the connected
    # input minimizing the next intermediate size.
    remaining = sorted(inputs, key=lambda i: i.size)
    order = [remaining.pop(0)]
    current = order[0].size
    while remaining:
        def connected(i: JoinInput) -> bool:
            return not edge_set or any(
                frozenset((s.name, i.name)) in edge_set for s in order
            )

        pool = [i for i in remaining if connected(i)] or remaining
        nxt = min(pool, key=lambda i: result_size(current, i.size))
        remaining.remove(nxt)
        order.append(nxt)
        current = result_size(current, nxt.size)
    return order
