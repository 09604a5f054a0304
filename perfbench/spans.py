"""In-memory span recording for the traced benchmark run.

A :class:`SpanRecorder` keeps every span as a plain dict (name, start,
end, parent, request id, attributes) and hands the list out when the run
ends; nothing is written while a phase is being measured.  Spans opened
while another span of the same recorder is open on the same thread become
its children.  A disabled recorder records nothing and costs one branch
per call, which is what the untraced runs use.

All times are ``time.monotonic()`` readings.  On Linux that clock is
system-wide, so spans recorded by the server process and by the load
generator line up on one time axis.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager

__all__ = ["SpanRecorder"]


class SpanRecorder:
    """Collects spans in memory; see the module docstring."""

    def __init__(self, enabled: bool, origin: str) -> None:
        self.enabled = enabled
        self._origin = origin
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[dict] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(
        self,
        name: str,
        start: float,
        end: float,
        parent=None,
        rid=None,
        **attrs,
    ):
        """Store one finished span and return its id (``None`` if disabled)."""
        if not self.enabled:
            return None
        span_id = f"{self._origin}{next(self._ids)}"
        self._store(span_id, name, start, end, parent, rid, attrs)
        return span_id

    def _store(self, span_id, name, start, end, parent, rid, attrs) -> None:
        span = {
            "id": span_id,
            "name": name,
            "start": start,
            "end": end,
            "parent": parent,
            "rid": rid,
        }
        if attrs:
            span["attrs"] = attrs
        with self._lock:
            self.spans.append(span)

    @contextmanager
    def span(self, name: str, rid=None, **attrs):
        """Time the ``with`` body as a span nested under the open one."""
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        span_id = f"{self._origin}{next(self._ids)}"
        stack.append(span_id)
        start = time.monotonic()
        try:
            yield
        finally:
            stack.pop()
            self._store(
                span_id, name, start, time.monotonic(), parent, rid, attrs
            )
