"""Victim-selection (drop) policies for the triage queue.

*"The current build of TelegraphCQ uses a random drop policy.  When our
triage queue reaches its capacity, it chose a victim at random from the
tuples in its buffer"* (paper Section 5.2.1).  :class:`RandomDropPolicy`
reproduces that; the others implement the Future Work directions of
Section 8.1 — *"the design of Data Triage opens up several new possibilities
for victim-selection policies ... 'synergistic' policies ... in which the
triage queue chooses to drop the tuples that the synopsis data structure can
summarize most efficiently"* — plus the classic tail/head-drop baselines.

A policy returns the index of the buffer tuple to evict, or
:data:`DROP_INCOMING` to shed the arriving tuple instead.
"""

from __future__ import annotations

import abc
import random
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.engine.types import StreamTuple
from repro.synopses.base import Synopsis

if TYPE_CHECKING:
    from repro.engine.window import WindowSpec

#: Sentinel return: shed the incoming tuple, leave the buffer untouched.
DROP_INCOMING = -1


@dataclass
class PolicyContext:
    """What a policy may consult when choosing a victim.

    ``synopsis`` is the queue's current dropped-tuple synopsis for the
    active window (may be ``None`` early in a window); ``dim_positions``
    maps synopsis dimensions to row positions.  ``queue_name`` identifies
    the offering queue (the source stream, for per-stream queues).
    ``window`` is the queue's window spec.  ``index`` is what the policy's
    :meth:`DropPolicy.make_index` built for this queue, kept in step with
    its buffer by the queue — ``None``, and free, for most policies.

    ``last_score`` is an optional *score sink*: a policy that ranks
    candidates numerically (e.g. ``PatternUtilityPolicy``) writes the
    chosen victim's utility score here so the audit ledger can record it.
    The queue resets it before each decision only when auditing is on;
    policies that never score leave it ``None`` and pay nothing.
    """

    rng: random.Random
    synopsis: Synopsis | None = None
    dim_positions: tuple[int, ...] = ()
    queue_name: str | None = None
    window: "WindowSpec | None" = None
    index: object | None = None
    last_score: float | None = None


class DropPolicy(abc.ABC):
    """Chooses which tuple to shed when the triage queue is full."""

    #: Does this policy read ``PolicyContext.synopsis`` when choosing a
    #: victim?  When False the queue may defer shed-tuple synopsis inserts
    #: to the end of a batch (grouped per window, insert order preserved)
    #: without the policy being able to observe the difference.  Defaults
    #: True — unknown subclasses get the conservative per-victim behaviour.
    reads_synopsis: bool = True

    @abc.abstractmethod
    def select_victim(
        self,
        buffer: Sequence[StreamTuple],
        incoming: StreamTuple,
        context: PolicyContext,
    ) -> int:
        """Index into ``buffer`` to evict, or :data:`DROP_INCOMING`."""

    def make_index(self, context: PolicyContext):
        """A per-queue index of the buffer, or ``None`` (the default).

        Each queue asks once, with its context, reports every buffer entry
        and exit exactly once (``index.add(tup)``, ``index.remove(tup)``,
        ``index.clear()`` on drain) and hands the index back as
        ``context.index``: a policy can rank from state kept at admission
        instead of rescanning the buffer per decision.
        """
        return None

    @property
    def name(self) -> str:
        return type(self).__name__


class RandomDropPolicy(DropPolicy):
    """The paper's policy: evict a uniformly random victim.

    The incoming tuple participates in the draw, so every tuple present at
    overflow time has equal survival probability.
    """

    reads_synopsis = False

    def select_victim(self, buffer, incoming, context) -> int:
        i = context.rng.randrange(len(buffer) + 1)
        return DROP_INCOMING if i == len(buffer) else i


class TailDropPolicy(DropPolicy):
    """Classic tail drop: shed the arriving tuple (favours old data)."""

    reads_synopsis = False

    def select_victim(self, buffer, incoming, context) -> int:
        return DROP_INCOMING


class HeadDropPolicy(DropPolicy):
    """Head drop: shed the oldest queued tuple (favours fresh data)."""

    reads_synopsis = False

    def select_victim(self, buffer, incoming, context) -> int:
        return 0


class FrequencyBiasedPolicy(DropPolicy):
    """Shed a tuple from the currently most common key (skewed sampling).

    Section 8.1: *"Since Data Triage synopsizes dropped tuples, it can take
    skewed samples of data streams without unduly skewing query results."*
    Dropping from over-represented keys keeps rare keys in the exact path
    (where they are reported precisely) while common keys — well served by
    the uniformity assumption — go to the synopsis.

    ``key_position`` selects which row field defines a tuple's key.
    """

    reads_synopsis = False

    def __init__(self, key_position: int = 0) -> None:
        self.key_position = key_position

    def select_victim(self, buffer, incoming, context) -> int:
        counts: Counter = Counter(t.row[self.key_position] for t in buffer)
        counts[incoming.row[self.key_position]] += 1
        top_key, _ = counts.most_common(1)[0]
        if incoming.row[self.key_position] == top_key:
            candidates = [DROP_INCOMING]
        else:
            candidates = []
        candidates += [
            i for i, t in enumerate(buffer) if t.row[self.key_position] == top_key
        ]
        return context.rng.choice(candidates)


class SynergisticPolicy(DropPolicy):
    """Prefer victims the synopsis already summarizes at zero marginal cost.

    The Future-Work "synergistic" policy: a tuple whose values land in an
    already-populated synopsis bucket can be evicted without growing the
    synopsis and with minimal extra approximation error.  Victims are chosen
    uniformly among tuples whose synopsis cell is already occupied; if no
    such tuple exists, falls back to a random victim.
    """

    def select_victim(self, buffer, incoming, context) -> int:
        syn = context.synopsis
        if syn is None or not context.dim_positions:
            i = context.rng.randrange(len(buffer) + 1)
            return DROP_INCOMING if i == len(buffer) else i

        def covered(t: StreamTuple) -> bool:
            values = {
                syn.dimensions[k].name: int(t.row[p])
                for k, p in enumerate(context.dim_positions)
            }
            return syn.estimate_point(**values) > 0

        candidates = [i for i, t in enumerate(buffer) if covered(t)]
        if covered(incoming):
            candidates.append(DROP_INCOMING)
        if not candidates:
            i = context.rng.randrange(len(buffer) + 1)
            return DROP_INCOMING if i == len(buffer) else i
        return context.rng.choice(candidates)


#: Name -> constructor, for benchmark/CLI selection.
POLICIES = {
    "random": RandomDropPolicy,
    "tail": TailDropPolicy,
    "head": HeadDropPolicy,
    "biased": FrequencyBiasedPolicy,
    "synergistic": SynergisticPolicy,
}

#: CLI spellings accepted by :func:`make_policy` beyond the POLICIES keys.
POLICY_ALIASES = {
    "frequency": "biased",
    "pattern_utility": "pattern-utility",
}

#: Names offered by ``--drop-policy`` flags.
POLICY_CHOICES = ("random", "head", "tail", "frequency", "synergistic", "pattern-utility")


def make_policy(name: str) -> DropPolicy:
    """Build a drop policy from a CLI name.

    Accepts the :data:`POLICIES` keys plus the aliases in
    :data:`POLICY_ALIASES`; ``pattern-utility`` resolves to
    :class:`repro.cep.policy.PatternUtilityPolicy` (imported lazily so the
    core package never depends on the CEP tier).  The returned
    pattern-utility policy has no engine bound yet — callers wire one via
    ``bind_engine`` once the pattern is attached; until then it degrades to
    deterministic head drop, counted in its ``unbound``.
    """
    key = name.strip().lower()
    key = POLICY_ALIASES.get(key, key)
    if key == "pattern-utility":
        from repro.cep.policy import PatternUtilityPolicy

        return PatternUtilityPolicy()
    try:
        return POLICIES[key]()
    except KeyError:
        raise ValueError(
            f"unknown drop policy {name!r}; {policy_help()}"
        ) from None


def policy_help() -> str:
    """One line naming every accepted policy spelling, for errors/--help."""
    aliases = ", ".join(
        f"{alias}={target}" for alias, target in sorted(POLICY_ALIASES.items())
    )
    names = sorted(POLICIES) + ["pattern-utility"]
    return f"valid policies: {', '.join(names)} (aliases: {aliases})"
