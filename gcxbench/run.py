"""The GCX benchmark: four workloads, end-to-end metrics, per-layer trace.

Usage, from the repository root::

    python3 gcxbench/run.py --workload xmark_stream --seed 1 --seconds 15 --trace 0
    python3 gcxbench/run.py --workload xmark_stream --seed 1 --seconds 15 --trace 1

Workloads: xmark_stream, xmark_join, served_sessions, hostile_shapes
(see README.md).  ``--trace 0`` measures the end-to-end metrics with no
tracing; ``--trace 1`` is the separate traced run that reports the
per-layer metrics.  Every input is generated from ``--seed``; every
output is checked against an independent reference.  A human-readable
report goes to stdout, and its last line is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  The run
also appends its result, stamped with a host fingerprint, to
``.gcxbench/results.jsonl`` and writes traced runs' spans to
``.gcxbench/trace-<workload>-seed<seed>.json``.

Exit status: 0 when every output was correct, 1 when any request
failed or answered wrongly (the result line is still printed), 2 when
the run could not start (for instance without ``src/repro``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: run outputs, inputs in flight and the C-scanner build cache
OUT_DIR = os.path.join(ROOT, ".gcxbench")

WORKLOADS = ("xmark_stream", "xmark_join", "served_sessions", "hostile_shapes")

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "setup_s": "s",
    "compile_ms": "ms",
    "throughput_mb_s": "MB/s",
    "latency_ms_p50": "ms",
    "latency_ms_p90": "ms",
    "peak_buffer_nodes": "count",
    "rss_peak_mb": "MB",
}
#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "xmlio.lex_ms": "ms",
    "xmlio.lex_mb_s": "MB/s",
    "xmlio.events": "count",
    "xmlio.bytes": "bytes",
    "projector.self_ms": "ms",
    "projector.tokens": "count",
    "projector.subtrees_skipped": "count",
    "projector.nodes_buffered": "count",
    "projector.buffered_frac": "fraction",
    "projector.dfa_states": "count",
    "evaluator.self_ms": "ms",
    "writer.output_chars": "count",
    "buffer.nodes_buffered": "count",
    "buffer.nodes_purged": "count",
    "buffer.purge_frac": "fraction",
    "buffer.roles_assigned": "count",
    "buffer.roles_removed": "count",
    "plan.parse_ms": "ms",
    "plan.analysis_ms": "ms",
    "plan.program_ms": "ms",
    "plan.codegen_ms": "ms",
    "session.self_ms": "ms",
    "server.session_ms_p50": "ms",
    "server.wire_ms": "ms",
    "server.plan_cache_hit_frac": "fraction",
    "server.plan_cache_lookups": "count",
    "server.rejected": "count",
    "trace.overhead_frac": "fraction",
    "trace.engine_run_traced_ms": "ms",
    "trace.engine_run_untraced_ms": "ms",
}

#: a measured run is cut into this many slices, each preceded by cold
#: compiles and one set-up (``setup_s`` is the median of the set-ups)
SLICES = 10
#: cold compiles per query and slice (``compile_ms`` is the median of
#: all of them, pooled over the workload's queries)
COMPILE_REPS = 3
#: whole rounds of the mix per slice, at least: 10 x 2 rounds of 10
#: requests leave at least ten samples above the p90
SLICE_ROUNDS = 2
#: rounds of the traced run, at least
TRACE_ROUNDS = 3
#: an engine worker still running after this many seconds is killed
WORKER_TIMEOUT = 150.0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def fingerprint() -> dict:
    """Where the numbers came from: runs compare only on equal hosts."""
    from repro.xmlio import cscan

    commit = "unknown"
    head = os.path.join(ROOT, ".git", "HEAD")
    if os.path.exists(head):
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_path = os.path.join(ROOT, ".git", ref[5:])
            if os.path.exists(ref_path):
                with open(ref_path, encoding="utf-8") as handle:
                    commit = handle.read().strip()
    source = hashlib.sha256()
    for base, dirs, files in sorted(os.walk(os.path.join(SRC, "repro"))):
        dirs.sort()
        for name in sorted(files):
            if name.endswith((".py", ".c")):
                with open(os.path.join(base, name), "rb") as handle:
                    source.update(name.encode() + handle.read())
    cpu = platform.processor() or "unknown"
    if os.path.exists("/proc/cpuinfo"):
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    return {
        "commit": commit,
        "source_sha256": source.hexdigest()[:16],
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "cscan": cscan.status,
        "GCX_NO_CSCAN": os.environ.get("GCX_NO_CSCAN", ""),
    }


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def write_inputs(workload, work: str, mode: str, args, min_rounds: int):
    """Write the documents and the worker manifest; returns its path."""
    paths = []
    for index, data in enumerate(workload.documents):
        path = os.path.join(work, f"doc{index}.xml")
        with open(path, "wb") as handle:
            handle.write(data)
        paths.append(path)
    manifest = {
        "mode": mode,
        "documents": paths,
        "queries": workload.queries,
        "docs_for": workload.docs_for,
        "mix": workload.mix,
        "pairs": workload.pairs(),
        "chunk_size": workload.chunk_size,
        "seconds": args.seconds,
        "min_rounds": min_rounds,
        "slices": args.slices,
        "compile_reps": COMPILE_REPS,
    }
    path = os.path.join(work, "manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(manifest, handle)
    return path


def run_worker(manifest_path: str, env: dict) -> tuple[dict, float]:
    """Run the engine worker; returns its result and peak RSS in MB."""
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "engine_worker.py"), manifest_path],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        env=env,
    )
    timer = threading.Timer(WORKER_TIMEOUT, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise RuntimeError(f"engine worker exited with {proc.returncode}")
    return json.loads(out), usage.ru_maxrss / 1024


def _p90(values) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def end_to_end(workload, requests, setups, compile_s, factors, peak, rss_mb, notes):
    """The end-to-end metrics of a measured run.  *requests* holds
    ``(query, document, corrected seconds, raw seconds, ok)`` per
    measured request, *setups* the set-up samples, *compile_s* the cold
    compile samples of all queries (both corrected), *factors* every
    host-speed factor applied.  Returns the metrics, attempted, failed
    and the report notes."""
    latencies = [r[2] * 1e3 for r in requests]
    raw = [r[3] * 1e3 for r in requests]
    by_query = defaultdict(list)
    for request in requests:
        by_query[request[0]].append(request[2] * 1e3)
    input_mb = sum(len(workload.documents[r[1]]) for r in requests) / 1e6
    metrics = {
        "setup_s": statistics.median(setups),
        "compile_ms": statistics.median(compile_s) * 1e3,
        "throughput_mb_s": input_mb / (sum(latencies) / 1e3),
        "latency_ms_p50": statistics.median(latencies),
        "latency_ms_p90": _p90(latencies),
        "peak_buffer_nodes": peak,
        "rss_peak_mb": rss_mb,
    }
    notes.update(
        requests=len(requests),
        setup_samples_s=setups,
        # where each query's latency cluster lies, against the mix
        query_ms_p50={k: round(statistics.median(v), 2) for k, v in by_query.items()},
        # the uncorrected figures, and the host's speed against the
        # reference (a scale above 1 means a faster host)
        raw={
            "throughput_mb_s": input_mb / (sum(raw) / 1e3),
            "latency_ms_p50": statistics.median(raw),
            "latency_ms_p90": _p90(raw),
        },
        speed_scale_median=statistics.median(factors),
    )
    failed = sum(1 for r in requests if not r[4])
    return metrics, len(requests), failed, notes


def measure_pull(workload, references, args, work, env):
    manifest = write_inputs(workload, work, "measure", args, SLICE_ROUNDS)
    result, rss_mb = run_worker(manifest, env)
    expected = {pair: sha256(text) for pair, text in references.items()}
    requests = [
        (key, doc, corrected, seconds, digest == expected[(key, doc)])
        for key, doc, corrected, seconds, digest, _wm in result["requests"]
    ]
    peak = max(r[5] for r in result["requests"])
    return end_to_end(
        workload, requests, result["setup_s"], result["compile_s"],
        result["speed_factors"], peak, rss_mb, {"rounds": result["rounds"]},
    )


def measure_served(workload, references, args, env):
    from engine_worker import compile_samples
    from hostspeed import SpeedProbe
    from served import closed_loop, start_and_warm

    setups, requests, compile_s, factors = [], [], [], []
    rss_mb = 0.0
    peak = rejected = 0
    speed = SpeedProbe()
    for _ in range(args.slices):
        speed.mark()
        compile_s.extend(compile_samples(workload.queries, COMPILE_REPS, speed))
        started = time.perf_counter()
        server = start_and_warm(workload, env)
        setups.append((time.perf_counter() - started) * speed.scale())
        try:
            loop = closed_loop(
                server, workload, references, args.seconds / args.slices,
                SLICE_ROUNDS,
            )
        finally:
            server.stop()
        requests.extend(loop["requests"])
        factors.extend(loop["speed_factors"])
        rss_mb = max(rss_mb, server.maxrss_mb)
        peak = max(peak, loop["stats"]["peak_buffer_watermark"])
        rejected += loop["stats"]["sessions"]["rejected"]
    factors.extend(speed.factors)
    return end_to_end(
        workload, requests, setups, compile_s, factors, peak, rss_mb,
        {"clients": 1, "busy_rejected": rejected},
    )


def _pair(span: dict) -> str:
    return span["request"].rsplit("#", 1)[0]


def _median_by_pair(spans, name, value=None) -> dict:
    """Per (query, document) pair: median over rounds of *value* (the
    span's duration by default) of the spans called *name*."""
    grouped = defaultdict(list)
    for span in spans:
        if span["name"] == name:
            grouped[_pair(span)].append(
                value(span) if value else span["end"] - span["start"]
            )
    return {pair: statistics.median(v) for pair, v in grouped.items()}


def _first_by_pair(spans, name) -> dict:
    out = {}
    for span in spans:
        if span["name"] == name:
            out.setdefault(_pair(span), span)
    return out


def trace_run(workload, references, args, work, env, log_spans):
    """The traced run; returns per-layer metrics, attempted, failed and
    notes, and extends *log_spans* with every span recorded."""
    from served import start_and_warm, traced_requests
    from spans import SpanLog

    manifest = write_inputs(workload, work, "trace", args, TRACE_ROUNDS)
    result, _rss = run_worker(manifest, env)
    spans = result["spans"]
    expected = {f"{k}@{d}": sha256(text) for (k, d), text in references.items()}
    checked = [s for s in spans if s["name"] in ("engine.run", "core.session")]
    failed = sum(1 for s in checked if s["digest"] != expected[_pair(s)])

    server = start_and_warm(workload, env)
    try:
        client_spans, stats, bad = traced_requests(
            server, workload, references, TRACE_ROUNDS, SpanLog("d")
        )
    finally:
        server.stop()
    failed += bad
    log_spans.extend(spans)
    log_spans.extend(client_spans)

    pairs = [f"{k}@{d}" for k, d in workload.pairs()]
    n = len(pairs)
    lex = _median_by_pair(spans, "xmlio.lex")
    proj = _median_by_pair(spans, "core.projector")
    run = _median_by_pair(spans, "engine.run")
    sess = _median_by_pair(spans, "core.session")
    wire = _median_by_pair(
        client_spans, "client.request",
        lambda s: s["end"] - s["start"] - s["server_elapsed_s"],
    )
    untraced = {p: statistics.median(v) for p, v in result["untraced_s"].items()}
    lex0 = _first_by_pair(spans, "xmlio.lex")
    proj0 = _first_by_pair(spans, "core.projector")
    run0 = _first_by_pair(spans, "engine.run")

    def mean_ms(values) -> float:
        return sum(values) / n * 1e3

    def total(spans_by_pair, key) -> int:
        return sum(spans_by_pair[p][key] for p in pairs)

    def plan_ms(stage) -> float:
        per_query = _median_by_pair(spans, f"plan.{stage}")
        return sum(per_query.values()) / len(per_query) * 1e3

    lexed = total(lex0, "bytes")
    tokens = total(proj0, "tokens")
    buffered = total(run0, "nodes_buffered")
    lookups = stats["plan_cache"]["hits"] + stats["plan_cache"]["misses"]
    traced_s = sum(run[p] for p in pairs)
    untraced_s = sum(untraced[p] for p in pairs)
    metrics = {
        "xmlio.lex_ms": mean_ms(lex[p] for p in pairs),
        "xmlio.lex_mb_s": lexed / sum(lex[p] for p in pairs) / 1e6,
        "xmlio.events": total(lex0, "events"),
        "xmlio.bytes": lexed,
        "projector.self_ms": mean_ms(proj[p] - lex[p] for p in pairs),
        "projector.tokens": tokens,
        "projector.subtrees_skipped": total(proj0, "subtrees_skipped"),
        "projector.nodes_buffered": total(proj0, "nodes_buffered"),
        "projector.buffered_frac": total(proj0, "nodes_buffered") / tokens,
        "projector.dfa_states": sum(result["dfa_states"].values()),
        "evaluator.self_ms": mean_ms(run[p] - proj[p] for p in pairs),
        "writer.output_chars": total(run0, "output_chars"),
        "buffer.nodes_buffered": buffered,
        "buffer.nodes_purged": total(run0, "nodes_purged"),
        "buffer.purge_frac": total(run0, "nodes_purged") / buffered,
        "buffer.roles_assigned": total(run0, "roles_assigned"),
        "buffer.roles_removed": total(run0, "roles_removed"),
        "plan.parse_ms": plan_ms("parse"),
        "plan.analysis_ms": plan_ms("analysis"),
        "plan.program_ms": plan_ms("program"),
        "plan.codegen_ms": plan_ms("codegen"),
        "session.self_ms": mean_ms(sess[p] - run[p] for p in pairs),
        "server.session_ms_p50": stats["latency_ms"]["p50"],
        "server.wire_ms": mean_ms(wire[p] for p in pairs),
        "server.plan_cache_hit_frac": stats["plan_cache"]["hits"] / lookups,
        "server.plan_cache_lookups": lookups,
        "server.rejected": stats["sessions"]["rejected"],
        "trace.overhead_frac": traced_s / untraced_s - 1,
        "trace.engine_run_traced_ms": traced_s / n * 1e3,
        "trace.engine_run_untraced_ms": untraced_s / n * 1e3,
    }
    notes = {"rounds": result["rounds"], "tiers": result["tiers"],
             "pairs": n, "client_rounds": TRACE_ROUNDS}
    return metrics, len(checked) + len(client_spans), failed, notes


def report(workload, args, metrics, units, attempted, failed, notes, host) -> str:
    lines = [
        f"workload {workload.name} (seed {args.seed}, "
        f"{'traced' if args.trace else 'end-to-end'}): {workload.why}",
        "host " + json.dumps(host, sort_keys=True),
        "run " + json.dumps(notes, sort_keys=True),
        f"failed_frac {failed}/{attempted} = {failed / attempted:.4f}",
    ]
    width = max(len(name) for name in metrics)
    for name, value in metrics.items():
        text = f"{value:.4f}" if isinstance(value, float) else str(value)
        lines.append(f"  {name:<{width}}  {text:>14}  {units[name]}")
    return "\n".join(lines)


def main(argv=None, tiny: bool = False, out_dir: str | None = None) -> int:
    """Run one workload; *tiny* (tiny inputs, 2 slices) and *out_dir*
    exist for the tests."""
    args = parse_args(argv)
    args.slices = 2 if tiny else SLICES
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: {SRC}/repro not found; run from a repository "
              "checkout", file=sys.stderr)
        return 2
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    out_dir = out_dir or OUT_DIR
    os.makedirs(out_dir, exist_ok=True)

    import workloads

    host = fingerprint()  # imports the C scanner: its build cache is warm now
    workload = workloads.build(args.workload, args.seed, tiny=tiny)
    references = workloads.reference_outputs(workload)
    env = child_env()
    work = os.path.join(out_dir, f"work-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    spans: list[dict] = []
    units = PER_LAYER if args.trace else END_TO_END
    try:
        if args.trace:
            outcome = trace_run(workload, references, args, work, env, spans)
        elif workload.mode == "served":
            outcome = measure_served(workload, references, args, env)
        else:
            outcome = measure_pull(workload, references, args, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics, attempted, failed, notes = outcome

    record = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "host": host, "notes": notes, "attempted": attempted, "failed": failed,
        "metrics": metrics,
    }
    with open(os.path.join(out_dir, "results.jsonl"), "a", encoding="utf-8") as handle:
        handle.write(json.dumps(record, sort_keys=True) + "\n")
    if args.trace:
        path = os.path.join(out_dir, f"trace-{workload.name}-seed{args.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({**record, "spans": spans}, handle)
    print(report(workload, args, metrics, units, attempted, failed, notes, host))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": metrics[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    sys.stdout.flush()
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    # keep the C scanner's build cache inside the checkout
    os.environ["GCX_CSCAN_CACHE"] = os.path.join(OUT_DIR, "cscan")
    raise SystemExit(main())
