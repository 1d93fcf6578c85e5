"""Quiet-epoch estimators: how one noisy run becomes one steady number.

A run is K timed epochs of *identical* work.  On a shared host,
interference (a neighbour's burst, a frequency dip) only ever adds time to
an epoch, so the epochs with the smallest wall time are the ones that
measured the program and not the host.  The **quiet set** Q is the
``ceil(K/4)`` fastest epochs; epoch-level metrics are the median over Q,
and sample-level metrics (latencies, acks) take, for every sample position
(the same window, the same batch), the median over the epochs in Q before
taking percentiles across positions.  The median of *all* epochs moves with
the host's duty cycle and the minimum is a single sample; the quiet-set
median is neither (see README.md for the measured spreads).

That handles interference shorter than a run.  A host that is slow for the
whole run cannot be seen from inside it: :func:`yardstick`, a fixed stdlib
kernel read between epochs, is reported as ``noise.yardstick_ms`` so a
reader can tell a slow host from a slow program, and nothing is corrected
by it.  Parent and change are compared in alternating pairs for that.
"""

from __future__ import annotations

import json
import math
import statistics
import time
from collections.abc import Sequence

#: Share of the timed epochs that form the quiet set.
QUIET_SHARE = 0.25

#: An epoch "agrees" with the quiet set when its wall time is within this
#: share of the quiet median; ``noise.quiet_epoch_share`` counts those.
AGREE_TOLERANCE = 0.05

#: Below this share of agreeing epochs a run is marked noisy and rerun.
NOISY_BELOW = 0.25


def quiet_indices(walls: Sequence[float]) -> list[int]:
    """Indices of the quiet set: the ``ceil(K/4)`` smallest wall times."""
    if not walls:
        raise ValueError("no epochs to choose a quiet set from")
    size = max(1, math.ceil(len(walls) * QUIET_SHARE))
    order = sorted(range(len(walls)), key=lambda i: (walls[i], i))
    return sorted(order[:size])


def quiet_median(values: Sequence[float], quiet: Sequence[int]) -> float:
    """Median of ``values`` over the quiet epochs."""
    return statistics.median(values[i] for i in quiet)


def quiet_epoch_share(walls: Sequence[float], quiet: Sequence[int]) -> float:
    """Share of all epochs whose wall is within 5% of the quiet median.

    Near 1.0 the host was idle; near ``QUIET_SHARE`` only the quiet set
    itself agrees; below it even the quiet epochs disagree with each other
    and the run's numbers should not be trusted.
    """
    centre = quiet_median(walls, quiet)
    near = sum(1 for w in walls if abs(w - centre) <= AGREE_TOLERANCE * centre)
    return near / len(walls)


def percentile(samples: Sequence[float], q: int) -> float:
    """Linear-interpolated percentile ``q`` (1..99) of ``samples``."""
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1]


def quiet_samples(
    per_epoch: Sequence[Sequence[float]], quiet: Sequence[int]
) -> list[float]:
    """One steady sample per position: its median over the quiet epochs.

    Identical epochs produce the same samples in the same order (sample
    *i* is always window *i*'s latency, batch *i*'s ack), so a position's
    values across Q differ only by noise, while positions differ from each
    other by the work they stand for.  The position-wise median keeps the
    second and drops the first: a percentile over the result is the
    latency distribution across windows, not across hiccups.  Should the
    epochs disagree on the sample count (an operation failed), the quiet
    epochs' samples are pooled instead.
    """
    lists = [per_epoch[i] for i in quiet]
    if len({len(samples) for samples in lists}) != 1:
        return [x for samples in lists for x in samples]
    return [statistics.median(column) for column in zip(*lists)]


def yardstick() -> float:
    """Seconds taken by a fixed stdlib dict/list/json kernel.

    The same few thousand interpreter operations every time, touching no
    code of the program under test: when this number moves the host
    moved, not the program.
    """
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    for i in range(4000):
        table[i & 511] = table.get(i & 511, 0) + i
    rows = [[k, v] for k, v in table.items()]
    rows.sort(key=lambda r: -r[1])
    json.loads(json.dumps(rows))
    return time.perf_counter() - t0
