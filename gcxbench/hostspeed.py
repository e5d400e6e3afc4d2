"""Host-speed correction of the benchmark's end-to-end timings.

On a shared host the speed a process gets drifts while it runs: a fixed
pure-Python loop on the 2-vCPU reference host takes up to 1.5x longer in
one half-minute than in the next, in CPU time as much as in wall time
(so it is not steal time).  That drift, not the program, would set the
run-to-run spread of every timing.

So a fixed probe — pure Python owned by the benchmark, sharing no code
with the engine — is timed between the timed operations, and each
operation's time is scaled by ``REFERENCE_S`` over the mean of the
probes just before and just after it.  A corrected time reads as the
time the operation would take on the reference host while the probe
runs at its reference speed.  A change to the program moves the
corrected time as it moves the raw one; the probe does not depend on
the program.  The report prints the raw figures and the probe's median
scale next to the corrected ones.
"""

from __future__ import annotations

import gc
import random
import time

#: seconds one probe takes on the reference host (2-vCPU Intel Xeon,
#: Python 3.11) in a quiet phase; corrected times are in that host's
#: seconds
REFERENCE_S = 0.0015


def _probe_text() -> str:
    rng = random.Random(20070923)
    return "".join(
        f"<t{rng.randrange(20)} k='{rng.randrange(999)}'>w{rng.randrange(99)} "
        f"</t{rng.randrange(20)}>"
        for _ in range(400)
    )


_TEXT = _probe_text()


class _Node:
    __slots__ = ("name", "start", "kids")

    def __init__(self, name: str, start: int):
        self.name = name
        self.start = start
        self.kids: list = []


def _kernel() -> int:
    """Interpreter work of the kinds the engine does: integer
    arithmetic, ``str.find`` scans, slicing, dict counting and small
    object trees."""
    total = 0
    for i in range(12000):
        total += i * i % 7
    find = _TEXT.find
    counts: dict[str, int] = {}
    stack = [_Node("root", 0)]
    pos = 0
    while True:
        start = find("<", pos)
        if start < 0:
            break
        end = find(">", start)
        name = _TEXT[start + 1 : end].split(" ", 1)[0]
        counts[name] = counts.get(name, 0) + 1
        if name[0] == "/":
            if len(stack) > 1:
                stack.pop()
        else:
            node = _Node(name, start)
            stack[-1].kids.append(node)
            stack.append(node)
        pos = end + 1
    return total + len(counts)


def probe() -> float:
    """Seconds one run of the probe kernel takes now (the collector is
    held off, so its pauses do not land in the probe)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        _kernel()
        return time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()


class SpeedProbe:
    """Probes the host speed between timed operations.

    Call :meth:`scale` right after each timed operation: it probes
    again and returns the factor that corrects the operation timed
    since the previous probe.
    """

    def __init__(self):
        self._last = probe()
        #: every factor handed out, for the report
        self.factors: list[float] = []

    def mark(self) -> None:
        """Probe without correcting anything: call it before a timed
        operation when untimed work ran since the last probe."""
        self._last = probe()

    def scale(self) -> float:
        now = probe()
        factor = 2 * REFERENCE_S / (self._last + now)
        self._last = now
        self.factors.append(factor)
        return factor
