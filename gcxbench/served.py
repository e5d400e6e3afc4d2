"""The served path: a ``gcx serve`` process and a closed-loop client.

The server runs in its own process (``python3 -m repro.cli serve``,
``--port 0``), so its peak resident memory is read from outside, by
``wait4`` when it exits.  The client runs in the ``run.py`` process
and sends its next request only after the previous reply (a closed
loop), cutting every document into CHUNK frames of the workload's chunk
size.  It probes the host's speed after each reply (``hostspeed.py``),
so each request time comes both raw and corrected.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import threading
import time

from hostspeed import SpeedProbe
from spans import SpanLog
from workloads import Workload, rounds as request_rounds

from repro.server.client import GCXClient
from repro.server.protocol import ProtocolError

#: seconds to wait for the server to listen, and to exit after SIGINT
START_TIMEOUT = 30.0
STOP_TIMEOUT = 15.0

#: what one failed request can raise: ServerError (ERROR or BUSY frame)
#: is a RuntimeError, a dropped or garbled connection an OSError or a
#: ProtocolError
REQUEST_ERRORS = (RuntimeError, OSError, ProtocolError)


class ServerProcess:
    """One ``gcx serve`` process on a free localhost port."""

    def __init__(self, env: dict):
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve",
             "--host", "127.0.0.1", "--port", "0"],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
        )
        # a server that never announces itself is killed, which ends
        # the readline below with EOF
        timer = threading.Timer(START_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            line = self.proc.stderr.readline()
        finally:
            timer.cancel()
        marker = "listening on "
        if marker not in line:
            self.stop()
            raise RuntimeError(f"gcx serve did not start: {line.strip()!r}")
        self.port = int(line.split(marker)[1].split()[0].rsplit(":", 1)[1])
        self.maxrss_mb = 0.0

    def client(self, chunk_size: int) -> GCXClient:
        return GCXClient(port=self.port, chunk_size=chunk_size)

    def stop(self) -> None:
        """Interrupt the server, reap it and record its peak RSS."""
        if self.proc.returncode is not None:
            return
        self.proc.send_signal(signal.SIGINT)
        timer = threading.Timer(STOP_TIMEOUT, self.proc.kill)
        timer.start()
        try:
            _pid, status, usage = os.wait4(self.proc.pid, 0)
        finally:
            timer.cancel()
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self.proc.stderr.close()
        self.maxrss_mb = usage.ru_maxrss / 1024  # Linux reports KiB


def start_and_warm(workload: Workload, env: dict) -> ServerProcess:
    """Start a server and send one request per query over the first
    document, which cold-compiles every query in the server."""
    server = ServerProcess(env)
    try:
        with server.client(workload.chunk_size) as client:
            for key, text in workload.queries.items():
                client.run_query(text, workload.documents[workload.docs_for[key][0]])
    except BaseException:
        server.stop()
        raise
    return server


def closed_loop(
    server: ServerProcess,
    workload: Workload,
    references: dict,
    seconds: float,
    min_rounds: int,
) -> dict:
    """Run one closed-loop client until *seconds* have passed and it has
    done *min_rounds* rounds of the mix; every reply is checked against
    *references*.  A request record is ``(query, document, corrected
    seconds, raw seconds, ok)``."""
    out = []
    began = time.perf_counter()
    client = server.client(workload.chunk_size)
    speed = SpeedProbe()
    try:
        done = 0
        for batch in request_rounds(workload.mix, workload.docs_for):
            for key, doc in batch:
                started = time.perf_counter()
                try:
                    output = client.run_query(
                        workload.queries[key], workload.documents[doc]
                    ).output
                    ok = output == references[(key, doc)]
                except REQUEST_ERRORS:
                    ok = False
                    client.close()
                    client = server.client(workload.chunk_size)
                elapsed = time.perf_counter() - started
                out.append((key, doc, elapsed * speed.scale(), elapsed, ok))
            done += 1
            if done >= min_rounds and time.perf_counter() - began >= seconds:
                break
        stats = client.stats()
    finally:
        client.close()
    return {"requests": out, "stats": stats, "speed_factors": speed.factors}


def traced_requests(
    server: ServerProcess,
    workload: Workload,
    references: dict,
    rounds: int,
    log: SpanLog,
) -> tuple[list[dict], dict, int]:
    """One client sends every (query, document) pair *rounds* times;
    each request is a ``client.request`` span carrying the server's own
    session time from the FINISH summary.  Returns the spans, the
    server's STATS and the number of wrong or failed replies."""
    failed = 0
    with server.client(workload.chunk_size) as client:
        for round_ in range(rounds):
            for key, doc in workload.pairs():
                pair = f"{key}@{doc}"
                with log.span("client.request", f"{pair}#{round_}") as span:
                    span["pair"] = pair
                    outcome = client.run_query(
                        workload.queries[key], workload.documents[doc]
                    )
                span["server_elapsed_s"] = outcome.session["elapsed_s"]
                failed += outcome.output != references[(key, doc)]
        stats = client.stats()
    return log.spans, stats, failed
