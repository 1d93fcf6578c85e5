"""State-aware drop policy driven by live pattern-engine state.

:class:`PatternUtilityPolicy` plugs into the triage queue's existing
:class:`~repro.core.policies.DropPolicy` slot, so pattern queries reuse the
whole shedding machinery unchanged — only victim *selection* becomes
pattern-aware.  Two signals rank candidates:

* **Protection** (hSPICE/pSPICE lineage): a tuple whose key would extend an
  active partial match gets a large score bonus, read off the engine's
  :class:`~repro.cep.engine.PatternProtection` live view of its run index.
* **Learned contribution probability** (eSPICE): the
  :class:`~repro.cep.utility.UtilityModel` histogram supplies
  P(contributes to a match | stream, phase-in-window), so among unprotected
  tuples the ones that historically never amount to anything go first.

A small occupancy term breaks remaining ties toward crowded windows, where
a tuple is most redundant.  Fully deterministic: no RNG, ties go to the
lowest buffer index, the incoming tuple is shed only when *strictly* worse.

A decision is a lookup per **score class**, not a pass over the buffer
(docs/performance.md): in ``P[stream][bin] (+ bonus if protected) + 0.01 /
(1 + occupancy[window])`` all but the protection bit is fixed at admission,
so each queue's :class:`_BufferIndex` files its buffer under ``(stream, bin,
primary window)`` as the queue reports entries and exits, and a decision
scores each class once and takes its oldest unprotected member.  Float
expression and addition order are those of a rescan of the whole buffer, so
scores and decisions are bit-equal to one.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice

from repro.core.policies import DROP_INCOMING, DropPolicy, PolicyContext
from repro.engine.types import StreamTuple


@dataclass(slots=True)
class _ScoreClass:
    """The buffered tuples of one (stream, phase bin, window), oldest first."""

    members: deque[StreamTuple] = field(default_factory=deque)
    #: At engine ``version``, ``members[:n_protected]`` were protected and,
    #: if ``found``, ``members[n_protected]`` was not.
    version: int = -1
    n_protected: int = 0
    found: bool = False


class _BufferIndex:
    """One queue's buffer filed by score class, kept in step by the queue."""

    def __init__(self, policy: "PatternUtilityPolicy", context: PolicyContext) -> None:
        self.policy = policy
        self.stream = context.queue_name or ""
        self.primary_window = context.window.primary_window
        #: (stream, phase bin, window id) -> class, and window id -> members.
        self.classes: dict[tuple, _ScoreClass] = {}
        self.occupancy: dict[int, int] = {}
        self.refile(policy.engine, ())

    def refile(self, engine, buffer: Sequence[StreamTuple]) -> None:
        """File ``buffer`` afresh: the bins belong to ``engine``'s model."""
        self.engine = engine
        self.model = None if engine is None else engine.utility
        self.clear()
        for tup in buffer:
            self.add(tup)

    def key(self, tup: StreamTuple) -> tuple:
        tag = self.policy.stream_tag
        ts = tup.timestamp
        model = self.model
        idx = None
        if model is not None:
            # UtilityModel._bin, inlined: this runs per entry and exit.
            w = model.within
            b = model.bins
            idx = int((ts % w) / w * b)
            if idx >= b:
                idx = b - 1
        stream = self.stream if tag is None else tup.row[tag]
        return stream, idx, self.primary_window(ts)

    def add(self, tup: StreamTuple) -> None:
        key = self.key(tup)
        cls = self.classes.get(key)
        if cls is None:
            cls = self.classes[key] = _ScoreClass()
        cls.members.append(tup)
        self.occupancy[key[2]] = self.occupancy.get(key[2], 0) + 1

    def remove(self, tup: StreamTuple) -> None:
        key = self.key(tup)
        cls = self.classes[key]
        at = cls.members.index(tup)
        del cls.members[at]
        if at < cls.n_protected:
            cls.n_protected -= 1
        elif at == cls.n_protected:
            cls.found = False
        if not cls.members:
            del self.classes[key]
        self.occupancy[key[2]] -= 1
        if not self.occupancy[key[2]]:
            del self.occupancy[key[2]]

    def clear(self) -> None:
        self.classes.clear()
        self.occupancy.clear()

    def __len__(self) -> int:
        return sum(len(cls.members) for cls in self.classes.values())


class PatternUtilityPolicy(DropPolicy):
    """Shed the tuple least likely to contribute to a pattern match."""

    #: Victim scoring reads engine state and window occupancy, never the
    #: dropped-tuple synopsis — the queue may defer synopsis inserts.
    reads_synopsis = False

    def __init__(
        self,
        engine=None,
        *,
        protect_bonus: float = 100.0,
        stream_tag: int | None = None,
    ) -> None:
        #: The live PatternEngine; the CLI builds the policy first and binds.
        self.engine = engine
        self.protect_bonus = protect_bonus
        #: Row position of the stream name when the queue multiplexes
        #: streams (the CEP pipeline's merged queue tags rows at 0); ``None``
        #: for a single-stream queue, named by ``PolicyContext.queue_name``.
        self.stream_tag = stream_tag
        #: Decisions taken with no engine bound (head drop, pattern-blind).
        self.unbound = 0

    def bind_engine(self, engine) -> None:
        self.engine = engine

    def make_index(self, context: PolicyContext) -> _BufferIndex:
        return _BufferIndex(self, context)

    def select_victim(self, buffer, incoming, context) -> int:
        engine = self.engine
        if engine is None:
            # No pattern state yet: deterministic head drop, counted.
            self.unbound += 1
            return 0
        index = context.index
        model = engine.utility
        if index.engine is not engine or index.model is not model:
            # Tuples admitted before bind_engine were filed without bins.
            index.refile(engine, buffer)
        version = engine.version
        protects = engine.protection_index().protects
        bonus = self.protect_bonus
        tag = self.stream_tag

        def protected(stream, tup):
            row = tup.row  # as the engine sees it: without its stream tag
            return protects(stream, row if tag is None else row[:tag] + row[tag + 1 :])

        occupancy = index.occupancy
        scores, candidates = [], []
        for (stream, idx, wid), cls in index.classes.items():
            base = 0.0 if model is None else model.probability_row(stream)[idx]
            occ = 0.01 / (1.0 + occupancy[wid])
            members = cls.members
            if cls.version != version:
                cls.version, cls.n_protected, cls.found = version, 0, False
            n = cls.n_protected
            if not cls.found:
                for member in islice(members, n, None):
                    if not protected(stream, member):
                        cls.found = True
                        break
                    n += 1
                cls.n_protected = n
            if cls.found:
                scores.append(base + occ)
                candidates.append(members[n])
                if (base + bonus) + occ > base + occ:
                    continue  # its protected members can only score worse
            # The oldest protected member competes: the class has no other
            # kind, or a zero, tiny or negative bonus leaves it no worse off.
            oldest = members[0] if n else next(
                (m for m in islice(members, 1, None) if protected(stream, m)), None
            )
            if oldest is not None:
                scores.append((base + bonus) + occ)
                candidates.append(oldest)
        stream, idx, wid = index.key(incoming)
        score = 0.0 if model is None else model.probability_row(stream)[idx]
        if protected(stream, incoming):
            score += bonus
        score += 0.01 / (1.0 + occupancy.get(wid, 0))
        best = min(scores)
        if score < best:
            context.last_score = score  # the audit ledger's score sink
            return DROP_INCOMING
        context.last_score = best
        if scores.count(best) == 1:
            return buffer.index(candidates[scores.index(best)])
        tied = [c for s, c in zip(scores, candidates) if s == best]
        return min(map(buffer.index, tied))
