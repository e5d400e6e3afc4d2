"""The compile-once plan layer.

Splitting compilation from execution is what lets one process serve
many streams: parsing, normalization, static analysis and signOff
insertion run **once** per distinct query, producing an immutable
:class:`QueryPlan` that any number of concurrent runs and
:class:`~repro.core.session.StreamSession` instances share.  The
runtime state of a run (matcher instances, buffer, statistics) is
created per stream from the plan — never stored on it.

:class:`PlanCache` is a thread-safe LRU over plans, keyed by the
*normalized* query text: two sources that differ only in whitespace —
or that normalize to the same core form — share a single plan.  Its
hit/miss counters make the compile-once guarantee observable (and
testable): running one query over N documents must report exactly one
miss.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.core.analysis import StaticAnalysis
from repro.core.codegen import PlanKernels
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.program import OperatorProgram
from repro.xquery import ast as q
from repro.xquery.pretty import pretty_print


@dataclass
class QueryPlan:
    """A query after static analysis, ready to run over any stream.

    Plans are immutable in practice: every field is produced by the
    compiler and never mutated by the runtime, so a plan may be shared
    freely between concurrent sessions.  ``matcher`` included: it holds
    only the compiled projection paths — per-stream match state lives
    in the projector's state-instance lists — so every run and session
    of this plan drives the same matcher object.

    ``dfa`` is the compiled kernel of the same projection paths
    (DESIGN.md §9): a lazy DFA whose states are interned multisets of
    NFA instances and whose per-``(state, tag)`` transitions are
    memoized on first sight.  The memo is *logically* immutable — it
    only ever gains entries, each derived deterministically from the
    immutable path set — so one dfa is shared by every run, session and
    server connection of the plan (the PlanCache hands all of them the
    same object), and a tag seen by any session is a dict-lookup for
    all of them from then on.  Per-stream state is a stack of state
    ids in the projector, never stored here.
    """

    source: str
    parsed: q.Query
    normalized: q.Query
    analysis: StaticAnalysis
    rewritten: q.Query
    matcher: PathMatcher
    #: lazy-DFA twin of ``matcher``; ``None`` only for hand-built plans
    #: of tools that bypass the engine compiler (they fall back to the
    #: interpreting projector).
    dfa: PathDFA | None = None
    #: operator program of ``rewritten`` (DESIGN.md §10) — the compiled
    #: evaluation kernel, immutable and shared by every run and session
    #: of the plan.  ``None`` when the query is outside the compiled
    #: fragment or the plan was hand-built; runs then fall back to the
    #: interpreting :class:`~repro.core.evaluator.PullEvaluator`.
    program: OperatorProgram | None = None
    #: per-plan generated-code kernels (DESIGN.md §12): specialized
    #: Python for the fused lexer front-end (Kernel C) and the
    #: evaluator (Kernel B), exec-compiled once
    #: at plan-compile time inside the cache's single-flight.  ``None``
    #: when generation declined (or for hand-built plans); runs then
    #: use the table-driven kernels — the fallback is silent and
    #: byte-identical.  Evicting the plan drops the kernels and their
    #: source with it; re-admission regenerates them exactly once.
    kernels: PlanKernels | None = None

    def matcher_spec(self) -> list[tuple[str, object]]:
        """The ``(role name, projection path)`` pairs behind
        ``matcher`` — kept public for tools that build their own."""
        return [(role.name, role.path) for role in self.analysis.roles]

    def canonical_text(self) -> str:
        """Whitespace-stable text of the normalized query — the cache
        key under which equivalent sources share one plan."""
        return pretty_print(self.normalized)

    def describe(self) -> str:
        """Role table plus the rewritten query — the textual analogue
        of the demo's static-analysis visualisation (Figure 3(a))."""
        text = (
            "roles:\n"
            + self.analysis.describe_roles()
            + "\n\nrewritten query:\n"
            + pretty_print(self.rewritten)
        )
        joins = self.program.hash_joins() if self.program is not None else []
        if joins:
            # the evaluator decision a reader cannot see in the query
            text += "\n\n" + "\n".join(f"hash join: {join}" for join in joins)
        return text


#: Backwards-compatible name: the pre-refactor engine called its
#: compiled form ``CompiledQuery``.
CompiledQuery = QueryPlan


@dataclass(frozen=True)
class PlanCacheStats:
    """Counters of one :class:`PlanCache` (a snapshot)."""

    hits: int
    misses: int
    #: distinct sources that normalized to an already-cached plan
    canonical_reuses: int
    size: int
    capacity: int

    @property
    def compiles(self) -> int:
        """Number of times the full compile pipeline actually ran."""
        return self.misses

    def __str__(self) -> str:
        return (
            f"hits={self.hits} misses={self.misses} "
            f"canonical_reuses={self.canonical_reuses} "
            f"size={self.size}/{self.capacity}"
        )


class _Flight:
    """One in-progress compilation that other threads can wait on."""

    __slots__ = ("event", "error")

    def __init__(self):
        self.event = threading.Event()
        self.error: BaseException | None = None


class PlanCache:
    """Thread-safe LRU cache of :class:`QueryPlan` objects.

    Two-level keying: the primary key is the **exact** source text
    (cheap to probe, and never wrong — whitespace can be significant
    inside string literals, so the source is never normalized), and on
    a primary miss the query's canonical (parsed + normalized) text is
    consulted, so differently-written but equivalent queries converge
    on one shared plan object without re-running static analysis.

    Compilation is *single-flight*: when N threads miss on the same
    plan at once, exactly one runs the static analysis while the others
    wait on its result — a guarantee a multi-session server relies on,
    since 64 connections opening the same query must not trigger 64
    analyses.  ``misses`` therefore counts actual compilations.
    """

    def __init__(self, capacity: int = 128):
        if capacity < 1:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self._lock = threading.Lock()
        #: primary key -> (plan, canonical key)
        self._plans: OrderedDict[tuple, tuple[QueryPlan, tuple]] = OrderedDict()
        #: canonical key -> primary key currently holding the plan
        self._canonical: dict[tuple, tuple] = {}
        #: compilation key -> in-progress flight other threads join
        self._inflight: dict[tuple, _Flight] = {}
        self._hits = 0
        self._misses = 0
        self._canonical_reuses = 0

    @staticmethod
    def source_key(query_text: str, namespace: str = "") -> tuple:
        """Exact-text key for *query_text*.

        Deliberately *not* whitespace-normalized: whitespace may be
        significant inside string literals, so textual equivalence is
        decided on the normalized query (the canonical key), never by
        mangling the source.  *namespace* separates engines whose
        compile pipelines differ (e.g. the FluX-like baseline coarsens
        signOff placements) when they share one cache.
        """
        return (namespace, query_text)

    def get_or_compile(
        self,
        query_text: str,
        compile_fn,
        namespace: str = "",
        canonicalize_fn=None,
    ) -> QueryPlan:
        """Return the cached plan for *query_text*, compiling on a miss.

        ``compile_fn(query_text) -> QueryPlan`` runs outside the lock.
        ``canonicalize_fn(query_text) -> (canonical_text, context)``,
        when given, lets the cache recognise a differently-written
        equivalent of an already-cached query *before* the expensive
        analysis runs (the context — e.g. the parsed/normalized ASTs —
        is passed back to ``compile_fn(query_text, context)`` on a real
        miss so the work is not repeated).  Concurrent first
        compilations of one plan are single-flighted: one thread runs
        ``compile_fn`` while the rest wait and then take the cached
        result (a compile failure is re-raised in every waiter).
        """
        key = self.source_key(query_text, namespace)
        with self._lock:
            entry = self._plans.get(key)
            if entry is not None:
                self._plans.move_to_end(key)
                self._hits += 1
                return entry[0]
        context = None
        canonical = None
        if canonicalize_fn is not None:
            canonical_text, context = canonicalize_fn(query_text)
            canonical = (namespace, canonical_text)
        # Flights dedupe on the canonical key when one is known (so
        # differently-written equivalents share one compilation) and on
        # the exact source key otherwise.
        flight_key = canonical if canonical is not None else key
        while True:
            with self._lock:
                entry = self._plans.get(key)
                if entry is not None:
                    self._plans.move_to_end(key)
                    self._hits += 1
                    return entry[0]
                if canonical is not None:
                    holder = self._canonical.get(canonical)
                    if holder is not None and holder in self._plans:
                        # A differently-written equivalent is already
                        # cached; alias this source to the existing plan
                        # without re-running the analysis.
                        plan = self._plans[holder][0]
                        self._canonical_reuses += 1
                        self._store(key, plan, canonical)
                        return plan
                flight = self._inflight.get(flight_key)
                if flight is None:
                    flight = _Flight()
                    self._inflight[flight_key] = flight
                    break  # this thread owns the compilation
            flight.event.wait()
            if flight.error is not None:
                raise flight.error
            # The owner stored its plan before signalling; loop to
            # re-probe (and recompile only if it was already evicted).
        try:
            plan = (
                compile_fn(query_text)
                if context is None
                else compile_fn(query_text, context)
            )
            if canonical is None:
                canonical = (namespace, plan.canonical_text())
            with self._lock:
                self._misses += 1
                holder = self._canonical.get(canonical)
                if holder is not None and holder in self._plans:
                    plan = self._plans[holder][0]
                self._store(key, plan, canonical)
            return plan
        except BaseException as exc:
            flight.error = exc
            raise
        finally:
            # Always retire the flight and wake the waiters — a failure
            # anywhere above (compile, canonical_text, storage) must
            # never leave them blocked on an unsignalled event.
            with self._lock:
                self._inflight.pop(flight_key, None)
            flight.event.set()

    def _store(self, key: tuple, plan: QueryPlan, canonical: tuple) -> None:
        """Insert under the lock and evict past capacity."""
        self._plans[key] = (plan, canonical)
        self._plans.move_to_end(key)
        self._canonical.setdefault(canonical, key)
        while len(self._plans) > self.capacity:
            old_key, (_plan, old_canonical) = self._plans.popitem(last=False)
            if self._canonical.get(old_canonical) == old_key:
                # Remap the canonical alias to a surviving holder of
                # the same plan, if any — equivalent sources that are
                # still cached keep serving canonical hits.
                for other_key, (_p, other_canonical) in self._plans.items():
                    if other_canonical == old_canonical:
                        self._canonical[old_canonical] = other_key
                        break
                else:
                    del self._canonical[old_canonical]

    def dfa_stats(self) -> dict:
        """Aggregate lazy-DFA memo occupancy over the cached plans.

        Server observability (the STATS frame): how many distinct plans
        carry a compiled kernel, and how many DFA states / memoized
        transitions their shared memos hold in total.  Plans cached
        under several source keys (canonical aliases) count once.
        """
        with self._lock:
            plans = {id(plan): plan for plan, _canonical in self._plans.values()}
        snapshot = {
            "plans": 0,
            "states": 0,
            "element_transitions": 0,
            "text_transitions": 0,
        }
        for plan in plans.values():
            dfa = getattr(plan, "dfa", None)
            if dfa is None:
                continue
            stats = dfa.stats()
            snapshot["plans"] += 1
            snapshot["states"] += stats["states"]
            snapshot["element_transitions"] += stats["element_transitions"]
            snapshot["text_transitions"] += stats["text_transitions"]
        return snapshot

    def program_stats(self) -> dict:
        """Aggregate operator-program occupancy over the cached plans.

        The evaluation-side twin of :meth:`dfa_stats` (server
        observability): how many distinct plans carry a compiled
        operator program, how many ops those programs hold in total,
        and how many plans fell back to the interpreting evaluator.
        Plans cached under several source keys count once.
        """
        with self._lock:
            plans = {id(plan): plan for plan, _canonical in self._plans.values()}
        snapshot = {"plans": 0, "ops": 0, "slots": 0, "fallbacks": 0}
        for plan in plans.values():
            program = getattr(plan, "program", None)
            if program is None:
                snapshot["fallbacks"] += 1
                continue
            snapshot["plans"] += 1
            snapshot["ops"] += program.op_count
            snapshot["slots"] += program.n_slots
        return snapshot

    def codegen_stats(self) -> dict:
        """Aggregate generated-kernel occupancy over the cached plans.

        The codegen twin of :meth:`dfa_stats` / :meth:`program_stats`
        (server observability, DESIGN.md §12): how many plans carry
        generated kernels on each side, the total generated-source
        footprint in characters, and how many plans fell back entirely
        to the table-driven kernels.  Plans cached under several source
        keys count once; evicting a plan removes its kernels (and their
        source chars) from this snapshot.
        """
        with self._lock:
            plans = {id(plan): plan for plan, _canonical in self._plans.values()}
        snapshot = {
            "plans": 0,
            "evaluator_kernels": 0,
            "lexer_kernels": 0,
            "source_chars": 0,
            "fallbacks": 0,
        }
        for plan in plans.values():
            kernels = getattr(plan, "kernels", None)
            if kernels is None:
                snapshot["fallbacks"] += 1
                continue
            snapshot["plans"] += 1
            snapshot["evaluator_kernels"] += kernels.evaluator is not None
            snapshot["lexer_kernels"] += kernels.lexer is not None
            snapshot["source_chars"] += kernels.source_chars
        return snapshot

    def clear(self) -> None:
        """Drop all cached plans and reset the counters."""
        with self._lock:
            self._plans.clear()
            self._canonical.clear()
            self._hits = 0
            self._misses = 0
            self._canonical_reuses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    @property
    def stats(self) -> PlanCacheStats:
        with self._lock:
            return PlanCacheStats(
                hits=self._hits,
                misses=self._misses,
                canonical_reuses=self._canonical_reuses,
                size=len(self._plans),
                capacity=self.capacity,
            )
