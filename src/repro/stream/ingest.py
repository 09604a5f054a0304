"""Streaming log ingestion: sources, online cleaning, micro-batch publishing.

:class:`LogIngestor` is the writer loop of the streaming subsystem.  It
pulls :class:`~repro.logs.schema.QueryRecord` events from any iterable
source — an in-memory iterator, a paced :func:`replay` of a historical
log, or a :func:`tail_aol` file tail — passes each through an *online*
cleaning gate (the per-record subset of
:class:`~repro.logs.cleaning.CleaningRules` plus a running robot-volume
filter), folds them into a :class:`~repro.stream.delta.StreamState` in
micro-batches, and publishes an :class:`~repro.stream.epoch.Epoch` every
``epoch_every`` batches.

Cleaning online vs. batch: thresholds that need the *whole* log
(``min_query_frequency``) cannot be applied to a live stream — a query's
first arrival cannot know its final frequency.  The online gate therefore
enforces only the per-record rules (term-count bounds, URL declicking) and
the robot filter as a running volume cut-off; feed :func:`replay` an
already-cleaned log when exact batch-equivalence matters (the equivalence
tests do exactly that).

Profile feedback: when the ingestor is handed a profile store, admitted
*click* records additionally accumulate as personalization feedback.  At
each epoch publish the buffered clicks fold into a new profile generation
(:meth:`~repro.personalize.profiles.ArrayProfileStore.fold_feedback`) that
rides the epoch (``Epoch.profiles``); epochs without new clicks carry
``profiles=None`` — unchanged — so subscribers rebind only on real
updates.
"""

from __future__ import annotations

import time
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from pathlib import Path

from repro.logs.aol import parse_aol_line
from repro.logs.cleaning import CleaningRules
from repro.logs.schema import QueryRecord
from repro.obs.registry import NULL_REGISTRY
from repro.personalize.profiles import ArrayProfileStore
from repro.stream.delta import StreamState
from repro.stream.epoch import Epoch, EpochManager
from repro.utils.text import normalize_query, tokenize

__all__ = ["IngestConfig", "IngestReport", "LogIngestor", "replay", "tail_aol"]


@dataclass(frozen=True, slots=True)
class IngestConfig:
    """Knobs of one :class:`LogIngestor`.

    Attributes:
        batch_size: Records folded into the graph state per micro-batch.
        epoch_every: Micro-batches between epoch publishes (1 = publish
            after every batch; larger values amortize the patch cost).
        clean: Run the online cleaning gate; ``False`` admits every record
            verbatim (what the batch-equivalence tests use).
        rules: Thresholds for the gate (only the per-record subset and
            ``max_user_queries`` apply online; see the module docstring).
    """

    batch_size: int = 256
    epoch_every: int = 1
    clean: bool = True
    rules: CleaningRules = field(default_factory=CleaningRules)

    def __post_init__(self) -> None:
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epoch_every < 1:
            raise ValueError(f"epoch_every must be >= 1, got {self.epoch_every}")


@dataclass(slots=True)
class IngestReport:
    """What one :meth:`LogIngestor.ingest` run did.

    ``records_seen`` counts source events; ``records_ingested`` the subset
    admitted past the cleaning gate into the graph state.
    """

    records_seen: int = 0
    records_ingested: int = 0
    dropped_terms: int = 0
    dropped_robot: int = 0
    declicked_urls: int = 0
    batches: int = 0
    epochs_published: int = 0
    elapsed_seconds: float = 0.0
    fold_seconds: float = 0.0
    publish_seconds: float = 0.0

    @property
    def records_per_second(self) -> float:
        """Admitted-record end-to-end throughput (0.0 on an empty run).

        Includes epoch-publish time; :attr:`fold_records_per_second`
        isolates the fold path.
        """
        if self.elapsed_seconds <= 0.0:
            return 0.0
        return self.records_ingested / self.elapsed_seconds

    @property
    def fold_records_per_second(self) -> float:
        """Admitted-record throughput over fold time only (0.0 if unfolded).

        ``records_ingested / fold_seconds`` — what the graph fold itself
        sustains, with the epoch-publish cost (snapshot derivation and
        manager swap, tracked in :attr:`publish_seconds`) excluded.
        """
        if self.fold_seconds <= 0.0:
            return 0.0
        return self.records_ingested / self.fold_seconds


class LogIngestor:
    """Folds a record stream into epochs through one writer loop.

    Args:
        state: The writer-side graph state (bootstrap records already
            applied and snapshotted, typically via ``streaming_pqsda``).
        manager: Epoch registry the loop publishes to.
        config: Batching / cleaning knobs.
        registry: Optional :class:`~repro.obs.registry.MetricsRegistry`
            the writer loop's ``stream.ingest.*`` metrics feed; ``None``
            binds the no-op null registry.
        profiles: Optional profile store click feedback folds into;
            ``None`` (the default) disables profile feedback entirely.
    """

    def __init__(
        self,
        state: StreamState,
        manager: EpochManager,
        config: IngestConfig | None = None,
        registry=None,
        profiles: ArrayProfileStore | None = None,
    ) -> None:
        self._state = state
        self._manager = manager
        self._config = config or IngestConfig()
        self._buffer: list[QueryRecord] = []
        self._batches_since_publish = 0
        self._user_volume: dict[str, int] = {}
        self._profiles = profiles
        self._feedback: list[QueryRecord] = []
        self.attach_metrics(registry)

    def attach_metrics(self, registry) -> None:
        """Bind the ingest counters/histograms to *registry* (or detach)."""
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_seen = registry.counter("stream.ingest.records_seen")
        self._m_ingested = registry.counter("stream.ingest.records_ingested")
        self._m_dropped_terms = registry.counter("stream.ingest.dropped_terms")
        self._m_dropped_robot = registry.counter("stream.ingest.dropped_robot")
        self._m_declicked = registry.counter("stream.ingest.declicked_urls")
        self._m_batches = registry.counter("stream.ingest.batches")
        self._m_epochs = registry.counter("stream.ingest.epochs_published")
        self._m_fold_seconds = registry.histogram(
            "stream.ingest.batch_fold_seconds"
        )
        self._m_publish_seconds = registry.histogram(
            "stream.ingest.publish_seconds"
        )
        self._m_rps = registry.gauge("stream.ingest.records_per_second")
        self._m_feedback = registry.counter("stream.ingest.profile_feedback")
        self._m_profile_folds = registry.counter(
            "stream.ingest.profile_folds"
        )

    @property
    def profiles(self) -> ArrayProfileStore | None:
        """The current profile generation (``None`` = feedback disabled)."""
        return self._profiles

    @property
    def config(self) -> IngestConfig:
        """The active batching / cleaning knobs."""
        return self._config

    @property
    def state(self) -> StreamState:
        """The writer-side graph state this loop folds into."""
        return self._state

    def ingest(
        self,
        source: Iterable[QueryRecord],
        publish_remainder: bool = True,
    ) -> IngestReport:
        """Drain *source* into the graph state; return a run report.

        Publishes an epoch every ``epoch_every`` full micro-batches.  With
        *publish_remainder* (the default) a final partial batch — and any
        batches still awaiting their epoch — are flushed and published when
        the source is exhausted, so the stream never ends with records
        invisible to readers.
        """
        report = IngestReport()
        started = time.perf_counter()
        for record in source:
            report.records_seen += 1
            self._m_seen.inc()
            admitted = self._admit(record, report)
            if admitted is None:
                continue
            self._buffer.append(admitted)
            report.records_ingested += 1
            self._m_ingested.inc()
            if self._profiles is not None and admitted.has_click:
                self._feedback.append(admitted)
                self._m_feedback.inc()
            if len(self._buffer) >= self._config.batch_size:
                self._flush(report)
        if self._buffer and publish_remainder:
            self._flush(report)
        if publish_remainder and self._state.n_pending:
            self._publish(report)
        report.elapsed_seconds = time.perf_counter() - started
        self._m_rps.set(report.records_per_second)
        return report

    # -- cleaning gate -----------------------------------------------------------

    def _admit(
        self, record: QueryRecord, report: IngestReport
    ) -> QueryRecord | None:
        """The online cleaning gate; returns the admitted record or None."""
        if not self._config.clean:
            return record
        rules = self._config.rules
        volume = self._user_volume.get(record.user_id, 0) + 1
        self._user_volume[record.user_id] = volume
        if volume > rules.max_user_queries:
            report.dropped_robot += 1
            self._m_dropped_robot.inc()
            return None
        normalized = normalize_query(record.query)
        n_terms = len(tokenize(normalized))
        if n_terms < rules.min_query_terms or n_terms > rules.max_query_terms:
            report.dropped_terms += 1
            self._m_dropped_terms.inc()
            return None
        clicked = record.clicked_url
        if clicked is not None and clicked in rules.drop_urls:
            clicked = None
            report.declicked_urls += 1
            self._m_declicked.inc()
        return QueryRecord(
            user_id=record.user_id,
            query=normalized,
            timestamp=record.timestamp,
            clicked_url=clicked,
        )

    # -- batching ----------------------------------------------------------------

    def _flush(self, report: IngestReport) -> None:
        fold_started = time.perf_counter()
        self._state.apply(self._buffer)
        fold_elapsed = time.perf_counter() - fold_started
        self._m_fold_seconds.observe(fold_elapsed)
        report.fold_seconds += fold_elapsed
        self._buffer = []
        report.batches += 1
        self._m_batches.inc()
        self._batches_since_publish += 1
        if self._batches_since_publish >= self._config.epoch_every:
            self._publish(report)

    def _publish(self, report: IngestReport) -> None:
        """Derive the next epoch's snapshot and publish it."""
        started = time.perf_counter()
        snapshot = self._state.build_snapshot()
        epoch = Epoch.from_snapshot(
            self._manager.current().epoch_id + 1,
            snapshot,
            profiles=self._fold_profiles(),
        )
        self._manager.publish(epoch)
        report.epochs_published += 1
        self._m_epochs.inc()
        self._batches_since_publish = 0
        elapsed = time.perf_counter() - started
        report.publish_seconds += elapsed
        self._m_publish_seconds.observe(elapsed)

    def _fold_profiles(self) -> ArrayProfileStore | None:
        """Fold buffered click feedback into the next profile generation.

        Returns the new generation for the epoch to carry, or ``None``
        when there is nothing to fold (profiles disabled or no clicks
        since the last publish) — the "unchanged" signal subscribers key
        off.
        """
        if self._profiles is None or not self._feedback:
            return None
        self._profiles = self._profiles.fold_feedback(self._feedback)
        self._feedback = []
        self._m_profile_folds.inc()
        return self._profiles


# -- sources ---------------------------------------------------------------------


def replay(
    records: Iterable[QueryRecord],
    speedup: float = 0.0,
) -> Iterator[QueryRecord]:
    """Yield *records* paced by their timestamp gaps, ``speedup``-compressed.

    ``speedup=0`` (the default) disables pacing entirely — records are
    yielded as fast as the consumer pulls them, which is what throughput
    benchmarks and tests want.  ``speedup=60`` replays an hour of log in a
    minute.  Gaps are measured on the stream's global timestamp order;
    out-of-order records incur no sleep.
    """
    if speedup < 0:
        raise ValueError(f"speedup must be >= 0, got {speedup}")
    previous: float | None = None
    for record in records:
        if speedup > 0 and previous is not None:
            gap = (record.timestamp - previous) / speedup
            if gap > 0:
                time.sleep(gap)
        previous = record.timestamp
        yield record


def tail_aol(
    path: str | Path,
    poll_seconds: float = 0.5,
    idle_timeout: float | None = None,
) -> Iterator[QueryRecord]:
    """Tail an AOL-format TSV file, yielding records as rows are appended.

    Reads the file from the top (header and malformed rows are skipped by
    :func:`repro.logs.aol.parse_aol_line`), then polls for growth every
    *poll_seconds*.  Stops once no new complete line has arrived for
    *idle_timeout* seconds (``None`` tails forever — the live-serving
    mode).  Partial trailing lines (a writer mid-append) are left in the
    file until completed by a newline.
    """
    if poll_seconds <= 0:
        raise ValueError(f"poll_seconds must be > 0, got {poll_seconds}")
    idle = 0.0
    with open(path, "r", encoding="utf-8") as handle:
        while True:
            position = handle.tell()
            line = handle.readline()
            if line.endswith("\n"):
                idle = 0.0
                record = parse_aol_line(line)
                if record is not None:
                    yield record
                continue
            # Incomplete tail (or EOF): rewind and wait for the writer.
            handle.seek(position)
            if idle_timeout is not None and idle >= idle_timeout:
                return
            time.sleep(poll_seconds)
            idle += poll_seconds
