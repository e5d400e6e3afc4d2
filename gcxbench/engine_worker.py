"""Engine worker: the process that runs the engine in pull mode.

Run by ``run.py`` as ``python3 engine_worker.py MANIFEST`` with
``src/`` on ``PYTHONPATH``.  The manifest (JSON) names the input files,
the queries, the request mix and the mode; the worker prints one JSON
object on stdout and exits.  It runs in its own process so that
``run.py`` can read its peak resident memory from outside (``wait4``),
and so that neither input generation nor the reference DOM engine count in
that peak.  Outputs are returned as SHA-256 digests; ``run.py`` checks
them against the references.

Modes:

* ``measure`` — the run is cut into ``slices``.  Each slice times
  ``compile_reps`` cold compiles of every query, then a set-up (fresh engine, cold
  compile of every query, one warm-up run each), then runs the mix on
  that engine in whole rounds until its share of ``seconds`` has passed
  and at least ``min_rounds`` rounds are done, timing each request.
  Every timed operation is followed by a host-speed probe
  (``hostspeed.py``) and corrected for the host's speed; request times
  are also returned raw.
* ``trace`` — for every (query, document) pair, time the public entry
  point of each layer in turn, inside one ``request`` span: the lexer
  drain, the projector drain (at the kernel tier ``engine.run`` picks),
  ``engine.run`` and a push session.  An untraced ``engine.run`` of the
  same pair runs outside the spans, as the base of the tracing
  overhead.  Each query's compile pipeline is timed call by call under
  a ``plan.compile`` span.
"""

from __future__ import annotations

import gc
import hashlib
import json
import sys
import time

from hostspeed import SpeedProbe
from spans import SpanLog
from workloads import rounds as request_rounds

from repro.core.analysis import analyze_query
from repro.core.buffer import Buffer
from repro.core.codegen import GeneratedStreamProjector, generate_plan_kernels
from repro.core.engine import GCXEngine
from repro.core.matcher import PathDFA, PathMatcher
from repro.core.program import ProgramCompileError, compile_program
from repro.core.projector import CompiledStreamProjector
from repro.core.signoff import insert_signoffs
from repro.xmlio.lexer import make_lexer
from repro.xquery.normalize import normalize_query
from repro.xquery.parser import parse_query


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def new_engine() -> GCXEngine:
    # the served engine's configuration (scheduler.py): no per-token
    # buffer series, every other knob at its default
    return GCXEngine(record_series=False)


def lex_drain(data: bytes) -> int:
    """Drain the lexer's batch surface; returns the event count."""
    lexer = make_lexer(data)
    sink: list = []
    count = 0
    while lexer.tokens_into(sink):
        count += len(sink)
        sink.clear()
    return count


def projector_drain(plan, data: bytes):
    """Drain the projector over a fresh buffer at the tier
    ``GCXEngine.run`` selects for *plan* and bytes input; returns
    ``(tier name, buffer stats)``."""
    buffer = Buffer()
    buffer.stats.record_series = False
    lexer = make_lexer(data)
    kernels = plan.kernels
    if kernels is not None and kernels.lexer is not None and hasattr(
        lexer, "project_into"
    ):
        tier = "fused"
        projector = GeneratedStreamProjector(kernels.lexer, lexer, plan.dfa, buffer)
    elif kernels is not None and kernels.projector is not None:
        tier = "codegen"
        projector = GeneratedStreamProjector(
            kernels.projector, lexer, plan.dfa, buffer
        )
    else:
        tier = "tables"
        projector = CompiledStreamProjector(lexer, plan.dfa, buffer)
    projector.run_to_end()
    return tier, buffer.stats


def session_run(engine: GCXEngine, plan, data: bytes, chunk_size: int):
    session = engine.session(plan)
    try:
        for start in range(0, len(data), chunk_size):
            session.feed(data[start : start + chunk_size])
    except BaseException:
        session.abort()
        raise
    return session.finish()


def timed_compile_stages(log: SpanLog, key: str, text: str, request: str) -> None:
    """The uncached compile pipeline of ``GCXEngine._compile``, one
    span per public call (matcher and DFA construction count with the
    analysis that derives their paths)."""
    with log.span("plan.compile", request) as root:
        root["query"] = key
        with log.span("plan.parse", request, root):
            normalized = normalize_query(parse_query(text))
        with log.span("plan.analysis", request, root):
            analysis = analyze_query(normalized, first_witness=True)
            rewritten = insert_signoffs(normalized, analysis)
            dfa = PathDFA(PathMatcher([(r.name, r.path) for r in analysis.roles]))
        with log.span("plan.program", request, root):
            try:
                program = compile_program(rewritten)
            except ProgramCompileError:
                program = None
        with log.span("plan.codegen", request, root):
            generate_plan_kernels(dfa, analysis, program)


def compile_samples(
    queries: dict[str, str], reps: int, speed: SpeedProbe
) -> list[float]:
    """Seconds of *reps* cold compiles of every query, each on a fresh
    engine (so a fresh plan cache), interleaved across queries, and
    corrected for the host's speed by *speed*."""
    samples = []
    for _ in range(reps):
        for text in queries.values():
            engine = new_engine()
            started = time.perf_counter()
            engine.compile(text)
            elapsed = time.perf_counter() - started
            samples.append(elapsed * speed.scale())
    return samples


def measure(manifest: dict, docs: list[bytes]) -> dict:
    queries = manifest["queries"]
    docs_for = manifest["docs_for"]
    slice_seconds = manifest["seconds"] / manifest["slices"]
    setups = []
    compile_s = []
    requests = []
    rounds = 0
    batches = request_rounds(manifest["mix"], docs_for)
    speed = SpeedProbe()
    for _ in range(manifest["slices"]):
        compile_s.extend(compile_samples(queries, manifest["compile_reps"], speed))
        gc.collect()
        speed.mark()
        started = time.perf_counter()
        engine = new_engine()
        plans = {key: engine.compile(text) for key, text in queries.items()}
        for key, plan in plans.items():
            engine.run(plan, docs[docs_for[key][0]])
        setups.append((time.perf_counter() - started) * speed.scale())

        gc.collect()
        speed.mark()
        began = time.perf_counter()
        done = 0
        for batch in batches:
            for key, doc in batch:
                started = time.perf_counter()
                result = engine.run(plans[key], docs[doc])
                elapsed = time.perf_counter() - started
                requests.append([
                    key, doc, elapsed * speed.scale(), elapsed,
                    digest(result.output), result.stats.watermark,
                ])
            done += 1
            if done >= manifest["min_rounds"] and (
                time.perf_counter() - began >= slice_seconds
            ):
                break
        rounds += done
    return {
        "setup_s": setups,
        "compile_s": compile_s,
        "requests": requests,
        "rounds": rounds,
        "speed_factors": speed.factors,
    }


def trace(manifest: dict, docs: list[bytes]) -> dict:
    queries = manifest["queries"]
    engine = new_engine()
    plans = {key: engine.compile(text) for key, text in queries.items()}
    log = SpanLog("w")
    untraced: dict[str, list[float]] = {}
    tiers = {}
    began = time.perf_counter()
    rounds = 0
    while rounds < manifest["min_rounds"] or (
        time.perf_counter() - began < manifest["seconds"]
    ):
        for key, doc in manifest["pairs"]:
            pair = f"{key}@{doc}"
            plan, data = plans[key], docs[doc]

            def untraced_run():
                started = time.perf_counter()
                engine.run(plan, data)
                untraced.setdefault(pair, []).append(time.perf_counter() - started)

            # alternate which of the traced and untraced runs goes
            # first, so neither always runs on the warmer cache
            if rounds % 2:
                untraced_run()
            request = f"{pair}#{rounds}"
            # only the layer call runs inside its span; counters and
            # output digests are attached after the span has closed
            with log.span("request", request) as root:
                with log.span("xmlio.lex", request, root) as lex:
                    events = lex_drain(data)
                with log.span("core.projector", request, root) as proj:
                    tier, pstats = projector_drain(plan, data)
                with log.span("engine.run", request, root) as run:
                    result = engine.run(plan, data)
                with log.span("core.session", request, root) as sess:
                    pushed = session_run(engine, plan, data, manifest["chunk_size"])
            root["pair"] = pair
            lex.update(events=events, bytes=len(data))
            tiers[key] = tier
            proj.update(
                tier=tier,
                tokens=pstats.tokens,
                subtrees_skipped=pstats.subtrees_skipped,
                nodes_buffered=pstats.nodes_buffered,
            )
            stats = result.stats
            run.update(
                digest=digest(result.output),
                output_chars=stats.output_chars,
                watermark=stats.watermark,
                nodes_buffered=stats.nodes_buffered,
                nodes_purged=stats.nodes_purged,
                roles_assigned=stats.roles_assigned,
                roles_removed=stats.roles_removed,
            )
            sess.update(digest=digest(pushed.output), chunk_size=manifest["chunk_size"])
            if not rounds % 2:
                untraced_run()
        for key, text in queries.items():
            timed_compile_stages(log, key, text, f"plan:{key}#{rounds}")
        rounds += 1
    return {
        "spans": log.spans,
        "untraced_s": untraced,
        "tiers": tiers,
        "dfa_states": {
            key: plan.dfa.stats()["states"] for key, plan in plans.items()
        },
        "rounds": rounds,
    }


def main(argv: list[str]) -> int:
    with open(argv[0], encoding="utf-8") as handle:
        manifest = json.load(handle)
    docs = []
    for path in manifest["documents"]:
        with open(path, "rb") as handle:
            docs.append(handle.read())
    run = measure if manifest["mode"] == "measure" else trace
    json.dump(run(manifest, docs), sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
