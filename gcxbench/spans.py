"""In-memory span log for the traced run.

A span is one timed call into a layer: a name, a start and end on the
monotonic ``perf_counter`` clock (shared by every process on the host,
so spans recorded by the engine worker and by ``run.py`` line up), the
id of the span that encloses it, and the id of the request it belongs
to.  Layer counters measured by that call ride along as extra
keys.  Spans stay in memory and are written out once, when the run
ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class SpanLog:
    """Collects spans; *prefix* keeps ids unique across processes."""

    def __init__(self, prefix: str):
        self.spans: list[dict] = []
        self._prefix = prefix
        self._next = 0

    @contextmanager
    def span(self, name: str, request: str, parent: dict | None = None):
        """Time the ``with`` body; yields the span record so the body
        can attach counters to it, and so nested spans can name it as
        their parent."""
        self._next += 1
        record = {
            "id": f"{self._prefix}{self._next}",
            "name": name,
            "request": request,
            "parent": parent["id"] if parent is not None else None,
            "start": time.perf_counter(),
        }
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self.spans.append(record)

