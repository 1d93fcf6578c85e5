"""NFA-style pattern-matching engine over stream tuples.

A :class:`PatternEngine` executes one bound ``PATTERN SEQ(...)`` statement
(SASE-style sequence with Kleene closure and a WITHIN time bound) against a
stream of :class:`~repro.engine.types.StreamTuple`\\ s.  Partial matches are
*runs*: each run remembers which steps it has bound, the environment row
(one slot per pattern column), and the events that contributed.  Runs expire
when the WITHIN bound can no longer be met, and the engine bounds its own
memory pSPICE-style by retiring the lowest-utility runs when ``max_runs`` is
exceeded (Slo et al., "pSPICE: Partial Match Shedding for Complex Event
Processing" — see PAPERS.md).

Semantics, chosen for determinism and small-code clarity:

* Events are consumed one at a time in arrival order; every run that could
  consume the event inspects it in ascending run-id order, so the produced
  match set is a pure function of the input sequence — no RNG anywhere in
  the engine.
* A run advances *greedily toward progress*: if the event can move the run
  to its next step, it does; otherwise, if the run sits in a Kleene step,
  the event may be absorbed there.  Each run consumes an event at most once.
* Every event that satisfies step 0 also starts a fresh run
  (skip-till-next-match style), so overlapping matches are found.
* A run completes — and is removed — the moment its final step binds; the
  match row is ``(match_start, match_end, <step columns...>)`` with Kleene
  steps contributing a count plus the last absorbed event's columns.

The fast path (behaviour-preserving; every structure below produces the
byte-identical match stream of the naive scan-everything engine):

* **Compiled predicates** — step predicates are lowered through
  :func:`repro.perf.vector.compile_scalar` against the env schema; any
  :class:`~repro.perf.vector.CompileError` leaves that predicate on the
  interpreted ``Expression.bind`` closure (the executor's permanent
  fallback idiom) and is counted: ``PatternEngine.predicates_interpreted``
  / ``prefilters_skipped`` per engine, ``cep_predicate_fallback_total
  {reason}`` / ``cep_prefilter_skipped_total`` in
  :func:`repro.obs.metrics.global_registry`.  ``compiled=False`` forces
  the interpreted path (a choice, so not counted).
* **Stream/key-indexed run scheduling** — each run is indexed under one
  *token* per step it could consume next: ``(stream, None, None)`` when no
  usable key constraint exists, else ``(stream, row_pos, key_value)`` from
  the step's bind-time equality link.  An incoming event only visits the
  runs in its stream's ``any`` bucket plus the matching key buckets; every
  skipped run is one whose key-link predicate would have rejected the
  event anyway.  The same index *is* the protection view the drop policy
  reads — :meth:`protection_index` no longer rebuilds anything.
* **Heap expiry** — runs live in a ``(start, rid)`` min-heap; expiry pops
  only actually-expired entries instead of rebuilding the run list per
  event.  Entries for already-retired runs are skipped lazily.
* **Batch absorption** — :meth:`advance_batch` absorbs a whole batch of
  row events.  Events failing a step's *local* predicates (run-independent
  conjuncts, vectorized via :func:`~repro.perf.vector.compile_filter_vector`)
  for every step of their stream are provably inert — they cannot start,
  extend, or complete any run — so they are discarded in bulk; only their
  timestamps still drive expiry (as a running maximum) and the utility
  model's ``seen`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Callable

from repro.engine.expressions import BinaryOp, is_equijoin_conjunct
from repro.engine.types import StreamTuple
from repro.obs.metrics import global_registry
from repro.perf.vector import CompileError, compile_filter_vector, compile_scalar
from repro.sql.binder import BoundPattern


@dataclass
class EngineStats:
    """Lifecycle counters for one engine instance.

    Whoever wants them as metrics folds the deltas
    (:func:`repro.obs.metrics.fold_engine_stats`); the engine calls nobody.
    """

    events: int = 0
    runs_started: int = 0
    runs_extended: int = 0
    matches: int = 0
    runs_expired: int = 0
    runs_shed: int = 0


class _CompiledStep:
    """A bound step with its predicates compiled against the env schema."""

    __slots__ = (
        "variable",
        "stream",
        "kleene",
        "env_offset",
        "width",
        "predicates",
        "interpreted",
        "key_link",
        "local_rows",
        "prefilter_skipped",
    )

    def __init__(self, bound_step, pattern: "BoundPattern", compiled: bool) -> None:
        self.variable = bound_step.variable
        self.stream = bound_step.stream_name
        self.kleene = bound_step.kleene
        self.env_offset = bound_step.env_offset
        self.width = len(bound_step.schema)
        self.predicates = []
        #: Predicates the compiler refused, left on the interpreted closure.
        self.interpreted = 0
        for pred in bound_step.predicates:
            fn = _compile_pred(pred, pattern) if compiled else None
            if fn is None:
                fn = pred.bind(pattern.env_schema)
                if compiled:
                    self.interpreted += 1
            self.predicates.append(fn)
        self.key_link = _find_key_link(bound_step, pattern)
        # Vectorized run-independent pre-filter over this step's own stream
        # schema (the batch path evaluates it against raw candidate rows,
        # not the env).  None means "cannot pre-filter at this step".
        self.local_rows = None
        self.prefilter_skipped = False
        local = getattr(bound_step, "local_predicates", ())
        if compiled and local:
            expr = local[0]
            for p in local[1:]:
                expr = BinaryOp("AND", expr, p)
            try:
                self.local_rows = compile_filter_vector(expr, bound_step.schema)
            except CompileError:
                self.prefilter_skipped = True
                global_registry().counter(
                    "cep_prefilter_skipped_total",
                    "Pattern steps whose vectorized local pre-filter "
                    "failed to compile",
                ).inc()


def _compile_pred(pred, pattern: BoundPattern) -> "Callable | None":
    """Compile one predicate; None (counted) when the compiler refuses it."""
    try:
        return compile_scalar(pred, pattern.env_schema)
    except CompileError as exc:
        global_registry().counter(
            "cep_predicate_fallback_total",
            "Pattern step predicates run interpreted because "
            "compilation failed",
            ("reason",),
        ).inc(reason=type(exc).__name__)
        return None


class _Run:
    """One partial match."""

    __slots__ = (
        "rid", "step", "counts", "env", "events", "start", "progress", "tokens"
    )

    def __init__(self, rid: int, n_steps: int, env_len: int, start: float) -> None:
        self.rid = rid
        self.step = 0  # index of the step currently being filled
        self.counts = [0] * n_steps
        self.env: list = [None] * env_len
        self.events: list[tuple[str, float]] = []
        self.start = start
        self.progress = 0  # number of steps with at least one event bound
        self.tokens: tuple = ()  # index tokens this run is currently filed under


class _StreamIndex:
    """Per-stream run buckets: who could consume this stream's next event."""

    __slots__ = ("any", "keyed")

    def __init__(self) -> None:
        #: rid -> run, for runs wanting this stream with no usable key.
        self.any: dict[int, _Run] = {}
        #: row position -> key value -> rid -> run.
        self.keyed: dict[int, dict] = {}


class PatternProtection:
    """Which (stream, row) pairs currently extend an active partial match.

    A *live view* over the engine's run index, maintained incrementally on
    every run transition — there is no rebuild step and no staleness.  A
    stream protects unconditionally while some run wants its next event
    from that stream without a usable key constraint; otherwise a row is
    protected iff one of its key positions hits a non-empty value bucket.
    """

    __slots__ = ("_index",)

    def __init__(self, index: dict[str, _StreamIndex]) -> None:
        self._index = index

    def protects(self, stream: str, row: tuple) -> bool:
        si = self._index.get(stream)
        if si is None:
            return False
        if si.any:
            return True
        for pos, by_val in si.keyed.items():
            if by_val.get(row[pos]):
                return True
        return False


class PatternEngine:
    """Executes one bound pattern; deterministic by construction."""

    def __init__(
        self,
        pattern: BoundPattern,
        *,
        max_runs: int = 1024,
        utility=None,
        audit=None,
        compiled: bool = True,
    ) -> None:
        if max_runs < 1:
            raise ValueError(f"max_runs must be >= 1, got {max_runs}")
        self.pattern = pattern
        self.max_runs = max_runs
        self.utility = utility
        #: Optional :class:`repro.obs.audit.DropLedger`: records every
        #: partial-match evict (``cep_evict``) with the retired run's
        #: utility score.
        self.audit = audit
        #: False pins every predicate on the interpreted closures (and
        #: disables the vectorized batch pre-filter) — the permanent
        #: fallback, also useful to A/B the compiled path's byte-identity.
        self.compiled = compiled
        self.stats = EngineStats()
        self._steps = [_CompiledStep(s, pattern, compiled) for s in pattern.steps]
        #: Compile fallbacks taken building the steps (none are possible
        #: under ``compiled=False``: that path is chosen, not fallen to).
        self.predicates_interpreted = sum(st.interpreted for st in self._steps)
        self.prefilters_skipped = sum(st.prefilter_skipped for st in self._steps)
        self._within = pattern.within
        self._env_len = len(pattern.env_schema)
        self._runs: dict[int, _Run] = {}
        self._expiry: list[tuple[float, int]] = []  # (start, rid) min-heap
        self._index: dict[str, _StreamIndex] = {}
        self._protection = PatternProtection(self._index)
        self._next_rid = 0
        self._version = 0  # bumped on any run mutation; caches key off it
        # Batch pre-filter kernels: stream -> one local-predicate kernel per
        # step of that stream.  Only streams where *every* step carries a
        # kernel are eligible — a step without one admits any event, so the
        # union of per-step survivors would be the whole batch anyway.
        by_stream: dict[str, list[_CompiledStep]] = {}
        for st in self._steps:
            by_stream.setdefault(st.stream, []).append(st)
        self._kernels_rows = {
            s: [st.local_rows for st in sts]
            for s, sts in by_stream.items()
            if all(st.local_rows is not None for st in sts)
        }

    # ------------------------------------------------------------------
    @property
    def active_runs(self) -> int:
        return len(self._runs)

    @property
    def version(self) -> int:
        return self._version

    # ------------------------------------------------------------------
    def consume(self, stream: str, tup: StreamTuple) -> list[StreamTuple]:
        """Feed one event; returns the matches it completed (often empty)."""
        self.stats.events += 1
        if self.utility is not None:
            self.utility.observe(stream, tup.timestamp)
        return self._step_event(stream, tup)

    def advance_batch(
        self, events: "list[tuple[str, StreamTuple]]"
    ) -> list[StreamTuple]:
        """Absorb a batch of ``(stream, tuple)`` events; return its matches.

        Byte-identical to calling :meth:`consume` per event in order.  The
        batch win: ``seen``-counter updates happen in bulk per stream, and
        events failing every step's vectorized local predicates are skipped
        without touching run state — only their timestamps participate, as
        a running maximum driving expiry.
        """
        if not events:
            return []
        self.stats.events += len(events)
        if self.utility is not None:
            by_stream: dict[str, list[float]] = {}
            for stream, tup in events:
                lst = by_stream.get(stream)
                if lst is None:
                    lst = by_stream[stream] = []
                lst.append(tup.timestamp)
            for stream, stamps in by_stream.items():
                self.utility.observe_bulk(stream, stamps)
        live = self._live_indices(events)
        matches: list[StreamTuple] = []
        step = self._step_event
        if live is None:
            for stream, tup in events:
                m = step(stream, tup)
                if m:
                    matches.extend(m)
            return matches
        prev = 0
        pend = None  # max timestamp among skipped events awaiting expiry
        for gi in live:
            while prev < gi:
                ts = events[prev][1].timestamp
                if pend is None or ts > pend:
                    pend = ts
                prev += 1
            stream, tup = events[gi]
            if pend is not None and pend > tup.timestamp:
                self._expire(pend)
            pend = None
            m = step(stream, tup)
            if m:
                matches.extend(m)
            prev = gi + 1
        while prev < len(events):
            ts = events[prev][1].timestamp
            if pend is None or ts > pend:
                pend = ts
            prev += 1
        if pend is not None:
            self._expire(pend)
        return matches

    def run_snapshot(self) -> list[tuple[int, int, float]]:
        """(rid, current step, start time) per active run — for debugging/UI."""
        return [(r.rid, r.step, r.start) for r in self._runs.values()]

    # ------------------------------------------------------------------
    def protection_index(self) -> PatternProtection:
        """The live protection view — maintained incrementally, never rebuilt.

        The returned object is stable for the engine's lifetime and always
        reflects the current run set; callers must not assume snapshot
        semantics across engine mutations.
        """
        return self._protection

    # ------------------------------------------------------------------
    def _step_event(self, stream: str, tup: StreamTuple) -> list[StreamTuple]:
        ts = tup.timestamp
        expiry = self._expiry
        if expiry and ts - expiry[0][0] > self._within:
            self._expire(ts)
        matches: list[StreamTuple] = []
        completed: list[_Run] | None = None
        cands = self._candidates(stream, tup.row)
        if cands:
            n = len(self._steps)
            for run in cands:
                if self._extend(run, stream, tup):
                    self.stats.runs_extended += 1
                    if run.step >= n:
                        if completed is None:
                            completed = []
                        completed.append(run)
                    else:
                        self._reindex(run)
        if completed:
            runs = self._runs
            for run in completed:
                del runs[run.rid]
                self._index_remove(run)
                matches.append(self._emit(run, ts))
        self._start_run(stream, tup, matches)
        if matches or completed:
            self._version += 1
        return matches

    def _candidates(self, stream: str, row: tuple) -> "list[_Run] | tuple":
        """Runs that could consume this event, in ascending rid order."""
        si = self._index.get(stream)
        if si is None:
            return ()
        keyed = si.keyed
        if keyed:
            found = dict(si.any)
            for pos, by_val in keyed.items():
                bucket = by_val.get(row[pos])
                if bucket:
                    found.update(bucket)
        else:
            found = si.any
        if not found:
            return ()
        if len(found) == 1:
            return list(found.values())
        return [found[rid] for rid in sorted(found)]

    # ------------------------------------------------------------------
    # Run index maintenance
    # ------------------------------------------------------------------
    def _run_tokens(self, run: _Run) -> tuple:
        steps = self._steps
        n = len(steps)
        k = run.step
        if k >= n:
            return ()
        # Advancing out of an open Kleene group is also an extension.
        if steps[k].kleene and run.counts[k] >= 1 and k + 1 < n:
            first = self._token(steps[k + 1], run)
            second = self._token(steps[k], run)
            if first == second:
                return (first,)
            return (first, second)
        return (self._token(steps[k], run),)

    @staticmethod
    def _token(step: _CompiledStep, run: _Run) -> tuple:
        link = step.key_link
        if link is not None:
            value = run.env[link[1]]
            if value is not None:
                try:
                    hash(value)
                except TypeError:
                    return (step.stream, None, None)
                return (step.stream, link[0], value)
        return (step.stream, None, None)

    def _index_add(self, run: _Run) -> None:
        index = self._index
        for stream, pos, value in run.tokens:
            si = index.get(stream)
            if si is None:
                si = index[stream] = _StreamIndex()
            if pos is None:
                si.any[run.rid] = run
            else:
                si.keyed.setdefault(pos, {}).setdefault(value, {})[run.rid] = run

    def _index_remove(self, run: _Run) -> None:
        index = self._index
        for stream, pos, value in run.tokens:
            si = index.get(stream)
            if si is None:
                continue
            if pos is None:
                si.any.pop(run.rid, None)
            else:
                by_pos = si.keyed.get(pos)
                bucket = by_pos.get(value) if by_pos is not None else None
                if bucket is not None:
                    bucket.pop(run.rid, None)
                    if not bucket:
                        del by_pos[value]
                        if not by_pos:
                            del si.keyed[pos]
            if not si.any and not si.keyed:
                del index[stream]

    def _reindex(self, run: _Run) -> None:
        tokens = self._run_tokens(run)
        if tokens != run.tokens:
            self._index_remove(run)
            run.tokens = tokens
            self._index_add(run)

    # ------------------------------------------------------------------
    def _extend(self, run: _Run, stream: str, tup: StreamTuple) -> bool:
        steps = self._steps
        n = len(steps)
        k = run.step
        if k >= n:
            return False
        # Progress first: leave an open Kleene group when the next step fits.
        if steps[k].kleene and run.counts[k] >= 1 and k + 1 < n:
            if steps[k + 1].stream == stream and self._bind(run, k + 1, tup):
                self._after_bind(run, k + 1, tup)
                if not steps[k + 1].kleene:
                    run.step = k + 2
                elif k + 1 == n - 1:
                    run.step = n  # trailing Kleene: emit at first absorb
                else:
                    run.step = k + 1
                return True
        if steps[k].stream == stream and self._bind(run, k, tup):
            self._after_bind(run, k, tup)
            if not steps[k].kleene:
                run.step = k + 1
            elif k == n - 1:
                # Trailing Kleene step: emit at its first absorb (earliest
                # match); further absorbs would be ambiguous.
                run.step = n
            return True
        return False

    def _bind(self, run: _Run, step_idx: int, tup: StreamTuple) -> bool:
        """Write the candidate into the env, keep it iff predicates pass."""
        step = self._steps[step_idx]
        off, width = step.env_offset, step.width
        env = run.env
        saved = env[off : off + width]
        env[off : off + width] = tup.row
        for pred in step.predicates:
            if pred(env) is not True:
                env[off : off + width] = saved
                return False
        return True

    def _after_bind(self, run: _Run, step_idx: int, tup: StreamTuple) -> None:
        if run.counts[step_idx] == 0:
            run.progress += 1
        run.counts[step_idx] += 1
        run.events.append((self._steps[step_idx].stream, tup.timestamp))
        self._version += 1

    def _start_run(
        self, stream: str, tup: StreamTuple, matches: list[StreamTuple]
    ) -> None:
        step0 = self._steps[0]
        if step0.stream != stream:
            return
        run = _Run(self._next_rid, len(self._steps), self._env_len, tup.timestamp)
        if not self._bind(run, 0, tup):
            return
        self._next_rid += 1
        self._after_bind(run, 0, tup)
        if not step0.kleene:
            run.step = 1
        if run.step >= len(self._steps):  # single-step pattern
            matches.append(self._emit(run, tup.timestamp))
        else:
            self._runs[run.rid] = run
            run.tokens = self._run_tokens(run)
            self._index_add(run)
            heappush(self._expiry, (run.start, run.rid))
            self.stats.runs_started += 1
            if len(self._runs) > self.max_runs:
                self._shed_run(tup.timestamp)
        self._version += 1

    def _emit(self, run: _Run, end_ts: float) -> StreamTuple:
        row: list = [run.start, end_ts]
        for k, step in enumerate(self._steps):
            if step.kleene:
                row.append(run.counts[k])
            row.extend(run.env[step.env_offset : step.env_offset + step.width])
        self.stats.matches += 1
        if self.utility is not None:
            for stream, ts in run.events:
                self.utility.credit(stream, ts)
        return StreamTuple(end_ts, tuple(row))

    def _expire(self, now: float) -> None:
        heap = self._expiry
        within = self._within
        runs = self._runs
        expired = 0
        while heap and now - heap[0][0] > within:
            _, rid = heappop(heap)
            run = runs.pop(rid, None)
            if run is None:
                continue  # stale entry: run already completed or was shed
            self._index_remove(run)
            expired += 1
        if expired:
            self.stats.runs_expired += expired
            self._version += 1

    def _shed_run(self, now: float) -> None:
        """pSPICE-style partial-match shedding: retire the worst run.

        Utility = completion progress plus remaining-lifetime fraction; ties
        break toward the oldest run id, so the choice is deterministic.
        """
        n = len(self._steps)
        within = self._within
        worst: _Run | None = None
        worst_key = None
        for run in self._runs.values():
            utility = run.progress / n + max(0.0, 1.0 - (now - run.start) / within)
            key = (utility, run.rid)
            if worst_key is None or key < worst_key:
                worst_key = key
                worst = run
        del self._runs[worst.rid]
        self._index_remove(worst)
        self.stats.runs_shed += 1
        self._version += 1
        if self.audit is not None:
            self.audit.record(
                "cep_evict",
                policy="pspice",
                stream=self._steps[0].stream,
                windows=(),
                timestamp=worst.start,
                depth=len(self._runs),
                score=worst_key[0] if worst_key is not None else None,
            )

    def _live_indices(self, events) -> "list[int] | None":
        """Indices of events that could touch run state; None = all of them.

        An event is *inert* when it fails the vectorized local-predicate
        kernel of every step on its stream: no bind can succeed anywhere
        (local conjuncts are a necessary subset of each step's predicate
        list), so it can neither start, extend, nor complete a run.
        """
        kernels = self._kernels_rows
        if not kernels:
            return None
        by_stream: dict[str, tuple[list[int], list[tuple]]] = {}
        for i, (stream, tup) in enumerate(events):
            if stream in kernels:
                entry = by_stream.get(stream)
                if entry is None:
                    entry = by_stream[stream] = ([], [])
                entry[0].append(i)
                entry[1].append(tup.row)
        if not by_stream:
            return None
        inert: set[int] = set()
        for stream, (idxs, rows) in by_stream.items():
            passing: set[int] = set()
            for kern in kernels[stream]:
                passing.update(kern(rows))
                if len(passing) == len(rows):
                    break
            if len(passing) < len(rows):
                inert.update(
                    idxs[j] for j in range(len(rows)) if j not in passing
                )
        if not inert:
            return None
        return [i for i in range(len(events)) if i not in inert]


def _find_key_link(bound_step, pattern: BoundPattern) -> tuple[int, int] | None:
    """``(candidate row position, env position of the partner value)``.

    The first predicate of the form ``me.col = other_var.col`` (either
    orientation) where ``other_var`` is a different step.  Lets the run
    index file each run under exactly the key values on this stream that
    would extend it; steps without one index their whole stream.
    """
    me = bound_step.variable.lower()
    by_var = {s.variable.lower(): s for s in pattern.steps}
    for pred in bound_step.predicates:
        pair = is_equijoin_conjunct(pred)
        if pair is None:
            continue
        left, right = pair
        lmine = (left.table or "").lower() == me
        rmine = (right.table or "").lower() == me
        if lmine == rmine:
            continue
        cand, other = (left, right) if lmine else (right, left)
        partner = by_var.get((other.table or "").lower())
        if partner is None:
            continue
        cand_pos = bound_step.schema.position(cand.name)
        env_pos = partner.env_offset + partner.schema.position(other.name)
        return (cand_pos, env_pos)
    return None


def match_identity(pattern: BoundPattern, row: tuple) -> tuple:
    """A shedding-robust identity for one match row.

    ``(match_start, <non-Kleene step columns...>)``: the start timestamp
    pins the run's anchoring first event, and single-step columns pin the
    specific events bound.  Kleene groups (whose absorb count and last
    event legitimately vary once noise events are shed) and the end
    timestamp (a later closing event may complete the same instance) are
    excluded, so recall measures *detection* of a pattern instance, not
    byte equality of the emitted row.
    """
    out = [row[0]]
    pos = 2
    for step in pattern.steps:
        width = len(step.schema)
        if step.kleene:
            pos += 1 + width  # skip <var>_count and the last absorbed event
        else:
            out.extend(row[pos : pos + width])
            pos += width
    return tuple(out)


def canonical_match_bytes(matches: list[StreamTuple]) -> bytes:
    """A byte string identifying a match sequence exactly (for determinism tests)."""
    return "\n".join(
        f"{m.timestamp!r}\t{m.row!r}" for m in matches
    ).encode("utf-8")
