"""Per-plan generated-code kernels: the hot loops as specialized source.

PRs 3-5 compiled the pipeline into *table-driven* interpreters: the
projector walks a memoized lazy-DFA table and the evaluator dispatches
a flat operator program.  Both still pay, on every single token, for
work that is **constant for a given plan** — the opcode fetch/decode
loop in the VM, the per-event lexer pull in the projector.  This
module removes that residue by *generating Python source* specialized
to one plan, ``compile()``/``exec()``-ing it exactly once at
plan-compile time, and caching the resulting kernels on the
:class:`~repro.core.plan.QueryPlan` next to ``dfa``/``program`` (so
the plan cache's single-flight and eviction rules cover them for
free).  The idea is the classic grammar→generated-parser move (cf. the
generated XPath parser in twisted's ``xpathparser.g``), applied to the
paper's compile-once/stream-many architecture.

**Kernel B — the evaluator** (:func:`generate_evaluator_kernel`): the
flat op tuple of :class:`~repro.core.program.OperatorProgram` came out
of a structured compiler, so its jump graph is reducible by
construction.  A small decompiler re-discovers the ``for``/``if``
structure and emits straight-line Python — loops as ``while``, loop
cursors and bound nodes as locals, pre-escaped constant fragments as
interned string constants — while delegating the blocking-pull
semantics (``_next_child``, ``_output_path``, ``_signoff``, …) to the
very same :class:`~repro.core.program.CompiledEvaluator` methods the
VM uses, bound once as locals.  Opcode dispatch, pc bookkeeping and
frame allocation disappear; semantics cannot drift because the
primitives are shared.

**Kernel C — the fused lexer front-end**
(:func:`generate_lexer_kernel`): instead of pulling one event per
token through the lexer's per-event scan, the generated projector
loop is fed from
:meth:`~repro.xmlio.lexer_bytes.ByteXmlLexer.project_into` — the
lexer's batch loop (C-accelerated when available) with the plan's
closed tag alphabet fused into the scan, so a start tag whose name
the DFA can never match stops the batch *before its subtree is
tokenized* and is consumed by one bulk ``skip_subtree``.  Generation
certifies the alphabet against the oracle NFA (a sentinel tag must be
dead, role-free and parent-neutral in every reachable state) and
declines plans with wildcard/``node()`` element tests or descendant
self-loops at the root, whose skips cannot be decided by name alone.

All kernels are *optional tiers*: any generation failure (or a plan
shape outside the generator's reach) yields ``None`` and the pipeline
factory (:mod:`repro.core.pipeline`) silently runs the table-driven
kernel for that side instead — the fallback ladder is generated
(C + B) → tables → interpreters, each level a byte-identical oracle
for the one above (enforced by the differential suites).

This module is the **only** place in the repository allowed to call
``exec``/``compile`` (a lint rule and a test pin that down).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.buffer import Buffer, BufferNode
from repro.core.evaluator import EvaluationError, format_number
from repro.core.matcher import PathDFA
from repro.core.program import (
    C_CMP,
    C_EXISTS,
    C_TRUE,
    CompiledEvaluator,
    ITER_CHILD,
    OP_CONSTRUCT,
    OP_EMIT_AGG,
    OP_EMIT_RAW,
    OP_EMIT_SCALAR,
    OP_FOR_INIT,
    OP_FOR_NEXT,
    OP_IF,
    OP_JUMP,
    OP_LET,
    OP_OUTPUT_PATH,
    OP_RAISE,
    OP_SIGNOFF,
    OperatorProgram,
)
from repro.core.stats import BufferStats

__all__ = [
    "CodegenError",
    "CodegenEvaluator",
    "EvaluatorKernel",
    "GeneratedStreamProjector",
    "LexerKernel",
    "PlanKernels",
    "generate_evaluator_kernel",
    "generate_lexer_kernel",
    "generate_plan_kernels",
]

#: Kernel C's certificate enumerates the DFA states reachable over the
#: plan's tag alphabet; plans whose closure exceeds this many states
#: (deep descendant interleavings) keep the fusion but not the
#: certificate.
MAX_CERTIFIED_STATES = 192


class CodegenError(Exception):
    """The plan contains a shape this generator cannot specialize; the
    caller falls back to the table-driven kernel (never an error)."""


# ---------------------------------------------------------------------------
# kernel containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EvaluatorKernel:
    """One generated straight-line ``run`` function, plan-owned.

    ``run_fn(evaluator)`` executes the unrolled program over a
    :class:`CodegenEvaluator` (which supplies the shared blocking-pull
    primitives); ``source`` is the compiled text.
    """

    run_fn: object
    source: str
    program: OperatorProgram


@dataclass(frozen=True)
class LexerKernel:
    """One generated fused lexer front-end (Kernel C), plan-owned.

    ``factory(projector) -> (advance, run_to_end)`` binds the generated
    closure to one stream's mutable runtime state through
    :class:`GeneratedStreamProjector`; ``source`` is the exact text that
    was compiled (the server STATS frame reports the footprint).  The
    kernel is only valid against ``dfa``, whose memo dicts it binds.
    Instead of pulling one event per ``advance()`` through
    ``next_event``, the generated loop batch-tokenizes through
    :meth:`~repro.xmlio.lexer_bytes.ByteXmlLexer.project_into` with the
    plan's closed tag alphabet (``live_tags``) fused into the scan —
    tag names the DFA can never match stop the batch *before* their
    subtrees are tokenized and go straight to the bulk
    ``skip_subtree`` path.  Generation certifies that fusion with the
    oracle NFA (see :func:`generate_lexer_kernel`): ``certified=True``
    means an out-of-alphabet tag is provably dead in every reachable
    state and the loop skips it without consulting the DFA;
    ``certified=False`` (e.g. a subtree-copy role ending in
    ``descendant-or-self::node()``) keeps the batch fusion but routes
    every skip decision through the shared DFA dispatch.
    ``probed_states`` is how many reachable states the probe proved
    fusible.
    """

    factory: object
    source: str
    dfa: PathDFA
    live_tags: tuple
    probed_states: int
    certified: bool = True


@dataclass(frozen=True)
class PlanKernels:
    """The generated kernels of one plan (either side may be ``None``
    when generation declined; the pipeline factory then uses the table
    kernel for that side)."""

    evaluator: EvaluatorKernel | None
    lexer: LexerKernel | None = None

    @property
    def kernel_count(self) -> int:
        return (self.evaluator is not None) + (self.lexer is not None)

    @property
    def source_chars(self) -> int:
        total = 0
        if self.evaluator is not None:
            total += len(self.evaluator.source)
        if self.lexer is not None:
            total += len(self.lexer.source)
        return total


# ---------------------------------------------------------------------------
# shared emission plumbing
# ---------------------------------------------------------------------------


class _SourceWriter:
    """Indentation-safe line accumulator for generated source.

    The one prototype bug this generator ever had was a hand-managed
    indent placing a dispatch outside its guarding branch; all emission
    therefore goes through explicit ``depth`` arguments.
    """

    def __init__(self):
        self._lines: list[str] = []

    def line(self, depth: int, text: str) -> None:
        self._lines.append("    " * depth + text if text else "")

    def lines(self, depth: int, texts) -> None:
        for text in texts:
            self.line(depth, text)

    def source(self) -> str:
        return "\n".join(self._lines) + "\n"


class _Constants:
    """Registry of objects the generated source references by name.

    Constants land in the exec namespace, so the generated code shares
    the *same* dict/tuple/predicate objects the table kernels use —
    role-count dicts handed to ``Buffer.add_roles`` are identical
    objects either way.
    """

    def __init__(self, prefix: str):
        self._prefix = prefix
        self.namespace: dict = {}
        self._by_id: dict[int, str] = {}

    def name_for(self, value) -> str:
        key = id(value)
        name = self._by_id.get(key)
        if name is None:
            name = f"{self._prefix}{len(self._by_id)}"
            self._by_id[key] = name
            self.namespace[name] = value
        return name


def _compile_namespace(source: str, filename: str, namespace: dict) -> dict:
    """``compile`` + ``exec`` the generated module once; returns the
    populated namespace.  The only exec/compile site in the repo."""
    code = compile(source, filename, "exec")
    exec(code, namespace)  # noqa: S102 - the codegen module's one job
    return namespace


# ---------------------------------------------------------------------------
# Kernel C: the generated fused lexer front-end
# ---------------------------------------------------------------------------


def _projection_tags(analysis) -> list[str]:
    """All tag names the plan's projection paths can ever match by
    name — the closed tag alphabet fused into the batch scan."""
    tags: set[str] = set()
    for role in getattr(analysis, "roles", ()):
        path = getattr(role, "path", None)
        if path is None:
            continue
        for step in path.steps:
            test = step.test
            if getattr(test, "kind", None) == "name" and test.name:
                tags.add(test.name)
    return sorted(tags)


class GeneratedStreamProjector:
    """Kernel C bound to one stream: the generated ``advance`` closure
    over the same four-parallel-list stack as
    :class:`~repro.core.projector.CompiledStreamProjector` (whose
    observable behaviour it reproduces byte for byte)."""

    def __init__(
        self,
        kernel: LexerKernel,
        lexer,
        dfa: PathDFA,
        buffer: Buffer,
        stats: BufferStats | None = None,
    ):
        if dfa is not kernel.dfa:
            raise CodegenError("kernel was generated for a different DFA")
        self._lexer = lexer
        self._buffer = buffer
        self._stats = stats if stats is not None else buffer.stats
        self._tags: list = [None]
        self._attrs: list = [None]
        self._states: list[int] = [dfa.start]
        self._nodes: list[BufferNode | None] = [buffer.root]
        if dfa.start_roles:
            buffer.add_roles(buffer.root, dfa.start_roles)
        self.exhausted = False
        self.advance, self.run_to_end = kernel.factory(self)


#: The certification probe tag: NUL can never start an XML name, so no
#: document tag collides with it, and pushing it through the oracle NFA
#: answers "what happens to a tag name outside the plan's alphabet?"
#: for one state in one call.
_SENTINEL_TAG = "\x00"

#: Events per :meth:`project_into` refill.  Large enough to amortize
#: the call across a C-scanned run, small enough that a live batch
#: never holds output hostage for long (the lexer additionally returns
#: early rather than block mid-batch, so this is a ceiling, not a
#: latency floor).
_LEXER_BATCH = 512


def _probe_fusible(dfa: PathDFA, state: int) -> bool:
    """Is a tag name outside the plan's alphabet fully inert in
    *state*?  The :data:`_SENTINEL_TAG` is pushed through the oracle
    NFA on freshly materialized instances (no shared memo is touched):
    inert means it binds no roles, enters the dead state, and leaves
    the parent state unchanged.  Wildcard and ``node()`` element tests
    match the sentinel and fail the probe; descendant self-loops keep
    it live and fail the probe — exactly the situations where a skip
    cannot be decided by name alone.
    """
    instances = dfa._instances(state)
    child_instances, counts = dfa.matcher.enter_element(
        instances, _SENTINEL_TAG
    )
    if counts:
        return False
    if dfa._canonical(child_instances):
        return False
    return dfa._canonical(instances) == dfa._states[state]


def _certify_live_alphabet(dfa: PathDFA, tags: list[str]) -> tuple:
    """Decide how much of the fused-skip decision can be baked;
    returns ``(certified, fusible_states)``.

    The state closure is walked over the alphabet *including*
    text-driven parent adjustments (a fused run can sit in a state only
    reachable through a text event exhausting a ``[1]`` step), and every reachable state is probed
    with :func:`_probe_fusible`.  ``certified=True`` means the probe
    passed in *every* closure state — an out-of-alphabet tag is dead
    everywhere, so the generated loop may bulk-skip it without
    touching the DFA at all.  ``certified=False`` (some state keeps
    unknown tags live, e.g. a trailing ``descendant-or-self::node()``
    subtree-copy role, or the closure is too large to enumerate) still
    permits fusion — the batch boundary at an unknown tag is harmless
    — but the skip decision must go through the shared DFA dispatch
    per tag.

    Raises:
        CodegenError: even the start state keeps unknown tags live
            (wildcard or descendant steps at the root): fusion could
            never skip anything, so the plan keeps the table
            projector.
    """
    if not _probe_fusible(dfa, dfa.start):
        raise CodegenError(
            "unknown tags stay live at the root (wildcard/descendant)"
        )
    seen: list[int] = [dfa.start]
    seen_set = {dfa.start, PathDFA.dead}
    index = 0
    while index < len(seen):
        state = seen[index]
        index += 1
        nxt = [dfa.text(state)[1]]
        for tag in tags:
            child, parent, _counts = dfa.element(state, tag)
            nxt.append(child)
            nxt.append(parent)
        for candidate in nxt:
            if candidate not in seen_set:
                seen_set.add(candidate)
                seen.append(candidate)
        if len(seen) > MAX_CERTIFIED_STATES:
            # pathological closure: fusion stays available, but the
            # certificate cannot be enumerated — dispatch generically
            return (False, 1)
    fusible = sum(1 for state in seen if _probe_fusible(dfa, state))
    return (fusible == len(seen), fusible)


def generate_lexer_kernel(dfa: PathDFA, analysis) -> LexerKernel:
    """Generate, compile and return Kernel C for one plan.

    The generated ``advance`` replaces the per-event ``next_event``
    pull of the table projector with a queue refilled by
    ``project_into(queue, LIVE, batch)``: the lexer batch-tokenizes —
    through the C scanner when available — and stops right behind any
    start tag whose name is outside the plan's alphabet, which the
    loop then consumes with one bulk ``skip_subtree`` (no event
    tuples, no DFA transition, no memo interning for dead names).
    In-queue events dispatch through the same shared-memo transition
    logic as :class:`~repro.core.projector.CompiledStreamProjector`,
    so outputs, statistics and errors stay byte-identical; the one
    subtlety is a skip decided for an *in-queue* start (a live-alphabet
    tag entering the dead state), whose subtree may already be partly
    tokenized — the loop drains those queued events first and
    bulk-skips only the still-unread frontier, one open element at a
    time.

    When :func:`_certify_live_alphabet` certifies the whole closure,
    the flagged batch tail (the out-of-alphabet start) additionally
    takes a baked fast path: no DFA transition, no memo interning for
    the dead name.  When the certificate is partial — some state keeps
    unknown tags live, e.g. a subtree-copy role ending in
    ``descendant-or-self::node()`` — the tail start dispatches through
    the shared DFA like any other event, which decides dead-vs-live
    per state; the batch boundary itself is always sound.

    Raises:
        CodegenError: the plan cannot profit from fusion at all — no
            named projection tags, or unknown tags stay live even at
            the root (wildcard steps, descendant axes from the root).
    """
    if dfa is None:
        raise CodegenError("plan has no DFA")
    tags = _projection_tags(analysis)
    if not tags:
        raise CodegenError("no named projection tags to fuse over")
    certified, probed = _certify_live_alphabet(dfa, tags)

    consts = _Constants("L")
    live = dict.fromkeys(tags)
    live_name = consts.name_for(live)
    w = _SourceWriter()
    w.lines(0, (
        "def make_advance(P):",
        "    lexer = P._lexer",
        "    project_into = lexer.project_into",
        "    skip_subtree = lexer.skip_subtree",
        "    buffer = P._buffer",
        "    stats = P._stats",
        "    series = stats.series",
        "    new_element = buffer.new_element",
        "    new_text = buffer.new_text",
        "    add_roles = buffer.add_roles",
        "    close = buffer.close",
        "    compute_element = DFA.compute_element",
        "    compute_text = DFA.text",
        "    tags = P._tags",
        "    attrs = P._attrs",
        "    states = P._states",
        "    nodes = P._nodes",
        "    tags_append = tags.append",
        "    attrs_append = attrs.append",
        "    states_append = states.append",
        "    nodes_append = nodes.append",
        "    tags_pop = tags.pop",
        "    attrs_pop = attrs.pop",
        "    states_pop = states.pop",
        "    nodes_pop = nodes.pop",
        "    queue = []",
        "    qi = 0",
        "    qlen = 0",
        "    tail_dead = False",
        "    pending_error = None",
        "",
        "    def materialize(index):",
        "        depth = index",
        "        while nodes[depth] is None:",
        "            depth -= 1",
        "        while depth < index:",
        "            depth += 1",
        "            nodes[depth] = new_element(nodes[depth - 1], tags[depth], attrs[depth])",
        "        return nodes[index]",
        "",
        "    def advance():",
        "        nonlocal qi, qlen, tail_dead, pending_error",
        "        if qi >= qlen:",
        "            if P.exhausted:",
        "                return False",
        "            if pending_error is not None:",
        "                # tokenize-ahead hit this error while earlier",
        "                # events were still queued; those have all been",
        "                # dispatched now, so the error surfaces on the",
        "                # advance() call the per-event path would use",
        "                error = pending_error",
        "                pending_error = None",
        "                raise error",
        "            del queue[:]",
        "            try:",
        f"                got = project_into(queue, {live_name}, {_LEXER_BATCH})",
        "            except Exception as error:",
        "                if not queue:",
        "                    raise",
        "                pending_error = error",
        "                got = len(queue)",
        "            if got == 0:",
        "                P.exhausted = True",
        "                close(buffer.root)",
        "                return False",
        "            if got < 0:",
        "                tail_dead = True",
        "                qlen = -got",
        "            else:",
        "                tail_dead = False",
        "                qlen = got",
        "            qi = 0",
        "        event = queue[qi]",
        "        qi += 1",
        "        kind = event[0]",
        "        if kind == 0:",
        "            name = event[1]",
    ))
    if certified:
        w.lines(0, (
            "            if tail_dead and qi == qlen:",
            "                # the flagged tail: a start whose name is outside",
            "                # the certified alphabet — dead in every reachable",
            "                # state, parent unchanged, no roles; the cursor",
            "                # sits right behind the start tag",
            "                tail_dead = False",
            "                stats.tokens += 1",
            "                stats.subtrees_skipped += 1",
            "                cnt = skip_subtree()",
            "                stats.tokens += cnt",
            "                lc = buffer.live_count",
            "                if lc > stats.watermark:",
            "                    stats.watermark = lc",
            "                if stats.record_series:",
            "                    series.append(lc)",
            "                    if cnt > 0:",
            "                        series.extend([lc] * cnt)",
            "                return True",
        ))
    w.lines(0, (
        "            state = states[-1]",
        "            entry = EM[state].get(name)",
        "            if entry is None:",
        "                entry = compute_element(state, name)",
        "            child, parent, counts = entry",
        "            if parent != state:",
        "                states[-1] = parent",
        "            if counts is not None:",
        "                top = len(nodes) - 1",
        "                pnode = nodes[top]",
        "                if pnode is None:",
        "                    pnode = materialize(top)",
        "                node = new_element(pnode, name, event[2])",
        "                add_roles(node, counts)",
        "            else:",
        "                node = None",
        "            stats.tokens += 1",
        "            lc = buffer.live_count",
        "            if lc > stats.watermark:",
        "                stats.watermark = lc",
        "            if stats.record_series:",
        "                series.append(lc)",
        "            if child:",
        "                tags_append(name)",
        "                attrs_append(event[2])",
        "                states_append(child)",
        "                nodes_append(node)",
        "            else:",
        "                if node is None:",
        "                    stats.subtrees_skipped += 1",
        "                # a live-alphabet tag entering the dead state:",
        "                # its subtree may be partly tokenized into the",
        "                # queue already — drain those events, then skip",
        "                # the unread frontier one open element at a time",
        "                cnt = 0",
        "                depth = 1",
        "                while depth:",
        "                    if qi < qlen:",
        "                        ev = queue[qi]",
        "                        qi += 1",
        "                        k = ev[0]",
        "                        if k == 0:",
        "                            depth += 1",
        "                        elif k == 1:",
        "                            depth -= 1",
        "                        cnt += 1",
        "                    else:",
        "                        cnt += skip_subtree()",
        "                        depth -= 1",
        "                if cnt > 0:",
        "                    stats.tokens += cnt",
        "                    lc = buffer.live_count",
        "                    if lc > stats.watermark:",
        "                        stats.watermark = lc",
        "                    if stats.record_series:",
        "                        series.extend([lc] * cnt)",
        "                if node is not None:",
        "                    close(node)",
        "        elif kind == 1:",
        "            tags_pop()",
        "            attrs_pop()",
        "            states_pop()",
        "            node = nodes_pop()",
        "            if node is not None:",
        "                close(node)",
        "            stats.tokens += 1",
        "            lc = buffer.live_count",
        "            if lc > stats.watermark:",
        "                stats.watermark = lc",
        "            if stats.record_series:",
        "                series.append(lc)",
        "        else:",
        "            state = states[-1]",
        "            entry = TM[state]",
        "            if entry is None:",
        "                entry = compute_text(state)",
        "            counts, parent = entry",
        "            if counts is not None:",
        "                top = len(states) - 1",
        "                pnode = nodes[top]",
        "                if pnode is None:",
        "                    pnode = materialize(top)",
        "                node = new_text(pnode, event[3])",
        "                add_roles(node, counts)",
        "            if parent != state:",
        "                states[-1] = parent",
        "            stats.tokens += 1",
        "            lc = buffer.live_count",
        "            if lc > stats.watermark:",
        "                stats.watermark = lc",
        "            if stats.record_series:",
        "                series.append(lc)",
        "        return True",
        "",
        "    def run_to_end():",
        "        while advance():",
        "            pass",
        "",
        "    return advance, run_to_end",
    ))

    source = w.source()
    namespace = dict(consts.namespace)
    namespace["DFA"] = dfa
    namespace["EM"] = dfa._element_memo
    namespace["TM"] = dfa._text_memo
    try:
        module = _compile_namespace(source, "<gcx-lexer-kernel>", namespace)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated lexer source invalid: {exc}") from exc
    return LexerKernel(
        factory=module["make_advance"],
        source=source,
        dfa=dfa,
        live_tags=tuple(tags),
        probed_states=probed,
        certified=certified,
    )


# ---------------------------------------------------------------------------
# Kernel B: the generated evaluator
# ---------------------------------------------------------------------------


def _expect_for(ops: tuple, pc: int, end: int) -> tuple:
    """Validate the compiler's canonical for-loop shape at *pc* and
    return ``(spec, slot, body_start, body_end, exit_pc)``."""
    init = ops[pc]
    if pc + 1 >= end:
        raise CodegenError("for-init at block end")
    nxt = ops[pc + 1]
    if nxt[0] != OP_FOR_NEXT:
        raise CodegenError("for-init not followed by for-next")
    exit_pc = nxt[2]
    if not (pc + 2 <= exit_pc - 1 <= end):
        raise CodegenError("for exit outside block")
    back = ops[exit_pc - 1]
    if back[0] != OP_JUMP or back[1] != pc + 1:
        raise CodegenError("for body does not jump back to its head")
    return init[1], nxt[1], pc + 2, exit_pc - 1, exit_pc


class _EvalEmitter:
    """Decompile the flat op tuple back into structure and emit it."""

    def __init__(self, program: OperatorProgram):
        self.program = program
        self.consts = _Constants("S")
        self.w = _SourceWriter()
        self._depth_counter = 0

    # -- expressions -------------------------------------------------------

    def _cond_expr(self, spec) -> str:
        kind = spec[0]
        if kind == C_CMP:
            return f"comparison({self.consts.name_for(spec)})"
        if kind == C_EXISTS:
            return f"exists({self.consts.name_for(spec)})"
        if kind == C_TRUE:
            return "True"
        return f"cond({self.consts.name_for(spec)})"

    def _ctx_expr(self, ctx) -> str:
        return "root" if ctx is None else f"slots[{ctx}]"

    # -- statements --------------------------------------------------------

    def _emit_simple(self, d: int, op: tuple) -> None:
        w = self.w
        code = op[0]
        if code == OP_EMIT_RAW:
            w.line(d, f"raw({self.consts.name_for(op[1])})")
        elif code == OP_OUTPUT_PATH:
            steps = self.consts.name_for(op[2])
            w.line(d, f"output_path({op[1]!r}, {steps}, {op[3]!r})")
        elif code == OP_SIGNOFF:
            steps = self.consts.name_for(op[2])
            w.line(d, f"signoff({op[1]!r}, {steps}, {op[3]!r})")
        elif code == OP_EMIT_SCALAR:
            w.line(d, f"_v = slots[{op[1]}]")
            w.line(d, "wtext(_v if isinstance(_v, str) else format_number(_v))")
        elif code == OP_EMIT_AGG:
            w.line(d, f"wtext(format_number(aggregate({self.consts.name_for(op[1])})))")
        elif code == OP_CONSTRUCT:
            specs = self.consts.name_for(op[2])
            w.line(d, f"start_element({op[1]!r}, resolve_attributes({specs}))")
        elif code == OP_LET:
            kind, payload = op[2]
            if kind == "agg":
                w.line(d, f"slots[{op[1]}] = aggregate({self.consts.name_for(payload)})")
            else:
                w.line(d, f"slots[{op[1]}] = {self.consts.name_for(payload)}")
        elif code == OP_RAISE:
            w.line(d, f"raise EvaluationError({op[1]!r})")
        else:
            raise CodegenError(f"unsupported opcode {code} in straight-line position")

    def _emit_for(self, d: int, spec, slot: int, body_start: int, body_end: int) -> None:
        w = self.w
        n = self._depth_counter
        self._depth_counter += 1
        if spec[0] == ITER_CHILD:
            pred = self.consts.name_for(spec[2])
            position = spec[3]
            w.line(d, f"_c{n} = {self._ctx_expr(spec[1])}")
            w.line(d, f"_s{n} = 0")
            if position is not None:
                w.line(d, f"_m{n} = 0")
            w.line(d, "while True:")
            w.line(d + 1, f"_n{n} = next_child(_c{n}, _s{n}, {pred})")
            w.line(d + 1, f"if _n{n} is None:")
            w.line(d + 2, "break")
            w.line(d + 1, f"_s{n} = _n{n}.seq")
            if position is not None:
                w.line(d + 1, f"_m{n} += 1")
                w.line(d + 1, f"if _m{n} != {position}:")
                w.line(d + 2, "continue")
            w.line(d + 1, f"slots[{slot}] = _n{n}")
            self._emit_block(d + 1, body_start, body_end)
            if position is not None:
                w.line(d + 1, "break")
        else:
            # Descendant / self iteration keeps the VM's frame helpers
            # (deferred-push GC semantics live there); the unrolling win
            # is the removed dispatch, not the frame.
            frame_spec = self.consts.name_for(spec)
            w.line(d, f"_f{n} = new_frame({frame_spec})")
            w.line(d, "while True:")
            w.line(d + 1, f"_n{n} = for_next(_f{n})")
            w.line(d + 1, f"if _n{n} is None:")
            w.line(d + 2, "break")
            w.line(d + 1, f"slots[{slot}] = _n{n}")
            self._emit_block(d + 1, body_start, body_end)

    def _emit_if(self, d: int, pc: int, end: int) -> int:
        ops = self.program.ops
        op = ops[pc]
        else_pc = op[2]
        if not (pc < else_pc <= end):
            raise CodegenError("if target outside block")
        w = self.w
        cond = self._cond_expr(op[1])
        tail = else_pc - 1
        has_else = (
            tail > pc
            and ops[tail][0] == OP_JUMP
            and ops[tail][1] > tail  # forward: the then-block's skip
        )
        if has_else:
            end_pc = ops[tail][1]
            if end_pc > end:
                raise CodegenError("else target outside block")
            w.line(d, f"if {cond}:")
            self._emit_block(d + 1, pc + 1, tail)
            w.line(d, "else:")
            self._emit_block(d + 1, else_pc, end_pc)
            return end_pc
        w.line(d, f"if {cond}:")
        self._emit_block(d + 1, pc + 1, else_pc)
        return else_pc

    def _emit_block(self, d: int, start: int, end: int) -> None:
        ops = self.program.ops
        if start >= end:
            self.w.line(d, "pass")
            return
        pc = start
        while pc < end:
            code = ops[pc][0]
            if code == OP_FOR_INIT:
                spec, slot, body_start, body_end, exit_pc = _expect_for(ops, pc, end)
                self._emit_for(d, spec, slot, body_start, body_end)
                pc = exit_pc
            elif code == OP_IF:
                pc = self._emit_if(d, pc, end)
            elif code in (OP_FOR_NEXT, OP_JUMP):
                raise CodegenError(f"unstructured opcode {code} at pc {pc}")
            else:
                self._emit_simple(d, ops[pc])
                pc += 1

    def emit(self) -> str:
        w = self.w
        w.lines(0, (
            "def run(self):",
            "    slots = self._slots",
            "    writer = self._writer",
            "    raw = writer.raw",
            "    wtext = writer.text",
            "    start_element = writer.start_element",
            "    root = self._buffer.root",
            "    next_child = self._next_child",
            "    new_frame = self._new_frame",
            "    for_next = self._for_next",
            "    cond = self._cond",
            "    comparison = self._comparison",
            "    exists = self._exists",
            "    output_path = self._output_path",
            "    signoff = self._signoff",
            "    aggregate = self._aggregate",
            "    resolve_attributes = self._resolve_attributes",
        ))
        self._emit_block(1, 0, len(self.program.ops))
        return w.source()


def generate_evaluator_kernel(program: OperatorProgram) -> EvaluatorKernel:
    """Generate, compile and return Kernel B for one operator program.

    Raises:
        CodegenError: the op stream is outside the structured shape the
            decompiler understands (callers fall back to the VM).
    """
    if program is None:
        raise CodegenError("plan has no operator program")
    emitter = _EvalEmitter(program)
    source = emitter.emit()
    namespace = dict(emitter.consts.namespace)
    namespace["EvaluationError"] = EvaluationError
    namespace["format_number"] = format_number
    try:
        module = _compile_namespace(source, "<gcx-evaluator-kernel>", namespace)
    except SyntaxError as exc:  # pragma: no cover - generator bug guard
        raise CodegenError(f"generated evaluator source invalid: {exc}") from exc
    return EvaluatorKernel(run_fn=module["run"], source=source, program=program)


class CodegenEvaluator(CompiledEvaluator):
    """Kernel B bound to one run: the generated straight-line ``run``
    over the VM's own blocking-pull primitives (inherited), so the
    observable behaviour is byte-identical to
    :class:`~repro.core.program.CompiledEvaluator` by construction."""

    def __init__(self, kernel: EvaluatorKernel, program, projector, buffer,
                 writer, gc_enabled: bool = True):
        if program is not kernel.program:
            raise CodegenError("kernel was generated for a different program")
        super().__init__(program, projector, buffer, writer, gc_enabled)
        self._kernel_run = kernel.run_fn

    def run(self) -> None:
        self._kernel_run(self)


# ---------------------------------------------------------------------------
# plan-level entry point
# ---------------------------------------------------------------------------


def generate_plan_kernels(dfa, analysis, program) -> PlanKernels | None:
    """Generate both kernels for one plan, tolerating partial coverage.

    Called once per plan compile (inside the cache's single-flight, so
    N racing sessions trigger exactly one generation).  Any failure is
    a silent fallback to the table kernels — codegen is a pure
    optimisation tier, never a correctness risk.
    """
    evaluator = None
    lexer = None
    if dfa is not None:
        try:
            lexer = generate_lexer_kernel(dfa, analysis)
        except CodegenError:
            lexer = None
    if program is not None:
        try:
            evaluator = generate_evaluator_kernel(program)
        except CodegenError:
            evaluator = None
    if evaluator is None and lexer is None:
        return None
    return PlanKernels(evaluator=evaluator, lexer=lexer)
