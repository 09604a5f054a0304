"""Pure statistics behind the benchmark's numbers.

Everything here is deterministic and free of I/O so the tests in
``perfbench/tests`` can pin it down: percentile selection with failures
counted as infinitely slow, per-layer self time from a span list,
micro-batch freshness bookkeeping and load-generator lateness.
"""

from __future__ import annotations

import math

__all__ = [
    "FreshnessTracker",
    "percentile",
    "self_times",
    "summarize_lateness",
]


def percentile(values, q: float, failures: int = 0) -> float:
    """Nearest-rank *q*-th percentile of *values* plus *failures* misses.

    A failed operation has no latency, so it is counted as an infinitely
    slow sample: once failures reach the top ``100 - q`` percent of all
    attempts, the percentile itself is ``inf``.
    """
    if not 0 < q <= 100:
        raise ValueError(f"q must be in (0, 100], got {q}")
    ordered = sorted(values)
    total = len(ordered) + failures
    if total == 0:
        raise ValueError("percentile of an empty sample")
    rank = max(1, math.ceil(q / 100.0 * total))
    if rank > len(ordered):
        return math.inf
    return ordered[rank - 1]


def self_times(spans) -> dict:
    """Self time of every span: its duration minus what its children cover.

    *spans* are mappings with ``id``, ``start``, ``end`` and ``parent``
    (``None`` for a root).  Children may overlap each other (a pool call
    fans out to two workers); the covered part is the union of their
    intervals clipped to the parent's, so overlapping children are never
    subtracted twice and a child that outlives its parent only removes the
    part inside it.
    """
    children: dict = {}
    for span in spans:
        if span.get("parent") is not None:
            children.setdefault(span["parent"], []).append(
                (span["start"], span["end"])
            )
    result = {}
    for span in spans:
        start, end = span["start"], span["end"]
        covered = 0.0
        cursor = start
        for child_start, child_end in sorted(children.get(span["id"], ())):
            lo = max(child_start, cursor)
            hi = min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end - start) - covered
    return result


class FreshnessTracker:
    """Micro-batch freshness: last record handed over -> its epoch acked.

    Feed it every record as the ingestor pulls it (:meth:`handed`), the
    end of the source (:meth:`end_of_stream`) and every epoch that all
    pool workers acknowledged (:meth:`acked`).  A micro-batch is closed by
    its ``batch_size``-th record, or by the end of the stream for the last
    partial batch; every closed batch that no acked epoch has covered yet
    is covered by the next one, because the ingestor folds a batch as soon
    as its last record arrives and snapshots everything folded so far.
    """

    def __init__(self, batch_size: int) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self._batch_size = batch_size
        self._in_batch = 0
        self._last_handed = 0.0
        self._closed: list[float] = []
        self.samples: list[float] = []

    def handed(self, now: float) -> None:
        """One record was handed to the ingestor at *now*."""
        self._in_batch += 1
        self._last_handed = now
        if self._in_batch == self._batch_size:
            self._closed.append(now)
            self._in_batch = 0

    def end_of_stream(self) -> None:
        """The source is exhausted: a partial last batch is now closed."""
        if self._in_batch:
            self._closed.append(self._last_handed)
            self._in_batch = 0

    def acked(self, now: float) -> None:
        """Every pool worker acknowledged the epoch published at *now*."""
        self.samples.extend(now - handed for handed in self._closed)
        self._closed = []

    @property
    def pending(self) -> int:
        """Closed micro-batches still waiting for an acknowledged epoch."""
        return len(self._closed)


def summarize_lateness(lateness) -> dict:
    """p50 / p99 / max of the generator's send-time minus due-time (ms)."""
    lateness = [value * 1000.0 for value in lateness]
    if not lateness:
        return {"p50_ms": 0.0, "p99_ms": 0.0, "max_ms": 0.0}
    return {
        "p50_ms": percentile(lateness, 50),
        "p99_ms": percentile(lateness, 99),
        "max_ms": max(lateness),
    }
