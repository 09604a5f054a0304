"""Streaming log ingestion: incremental updates, epoch snapshots, flushes.

The batch pipeline (``PQSDA.build``) rebuilds the whole multi-bipartite
representation from scratch; this package keeps a *live* suggester current
as new log records arrive:

* :mod:`repro.stream.delta` — :class:`StreamState` folds micro-batches
  into the raw bipartites in ``O(batch)`` and derives epoch matrices by
  patching (bit-identical to a batch rebuild over the same prefix);
* :mod:`repro.stream.epoch` — :class:`EpochManager` publishes immutable
  copy-on-write :class:`Epoch` snapshots; readers pin one epoch per
  request, writers never block them;
* :mod:`repro.stream.ingest` — :class:`LogIngestor` drives the loop from
  any record source (:func:`replay`, :func:`tail_aol`, plain iterables)
  behind an online cleaning gate.

:func:`streaming_pqsda` wires all of it to a ``PQSDA`` suggester whose
serving cache is flushed on every epoch swap: expansion is a global walk
over cfiqf weights that each new record rescales, so any epoch can move
any cached neighbourhood, and every answer stays exactly the pinned
epoch's.  With ``stream_profiles=True`` the personalization layer
streams too: admitted click records fold into new
:class:`~repro.personalize.profiles.ArrayProfileStore` generations that
ride each epoch (``Epoch.profiles``) and rebind into the suggester — and,
downstream, republish through the scale-out pool's shared profile plane.
"""

from __future__ import annotations

from repro.core.config import PQSDAConfig
from repro.core.suggester import PQSDA
from repro.logs.sessionizer import SessionizerConfig
from repro.logs.storage import QueryLog
from repro.stream.delta import GraphDelta, StreamSnapshot, StreamState
from repro.stream.epoch import Epoch, EpochManager, EpochStats
from repro.stream.ingest import (
    IngestConfig,
    IngestReport,
    LogIngestor,
    replay,
    tail_aol,
)

__all__ = [
    "Epoch",
    "EpochManager",
    "EpochStats",
    "GraphDelta",
    "IngestConfig",
    "IngestReport",
    "LogIngestor",
    "StreamSnapshot",
    "StreamState",
    "replay",
    "tail_aol",
    "streaming_pqsda",
]


def streaming_pqsda(
    bootstrap_log: QueryLog,
    config: PQSDAConfig | None = None,
    ingest: IngestConfig | None = None,
    sessionizer: SessionizerConfig | None = None,
    registry=None,
    stream_profiles: bool = False,
) -> tuple[PQSDA, LogIngestor, EpochManager]:
    """Build a live suggester over *bootstrap_log*; return its stream plumbing.

    Bootstraps a :class:`StreamState` from the log (records are replayed in
    the batch sessionizer's ``(timestamp, record_id)`` order, so epoch 0 is
    bit-identical to ``PQSDA.build`` over the same log), publishes it as
    epoch 0 of a fresh :class:`EpochManager`, attaches the suggester to the
    manager, and wraps the state in a :class:`LogIngestor` ready to drain
    live sources.  Returns ``(suggester, ingestor, manager)``.

    Pass a :class:`~repro.obs.registry.MetricsRegistry` as *registry* to
    observe the whole stack at once: UPM training, serving cache + spans,
    epoch lifecycle, and the ingest loop all feed the same registry.

    The UPM personalization stage is batch-fitted on the bootstrap log.
    By default profiles then stay frozen (the paper's profiles are offline
    artifacts); with *stream_profiles* (requires ``config.personalize``)
    the fitted store is converted to its array form, bound to the
    suggester, and handed to the ingestor — admitted click records then
    fold into new profile generations that ride each epoch
    (``Epoch.profiles``), so the suggester's personalization stays
    click-current alongside the graph.
    """
    if config is None:
        config = PQSDAConfig()
    if stream_profiles and not config.personalize:
        raise ValueError("stream_profiles requires config.personalize")
    state = StreamState(sessionizer=sessionizer, weighted=config.weighted)
    records = sorted(
        bootstrap_log.records, key=lambda r: (r.timestamp, r.record_id)
    )
    state.apply(records)
    snapshot = state.build_snapshot()
    epoch0 = Epoch.from_snapshot(0, snapshot)
    manager = EpochManager(epoch0, registry=registry)
    suggester = PQSDA.build(
        snapshot.log,
        sessions=None if config.personalize else [],
        config=config,
        multibipartite=snapshot.multibipartite,
        expander=epoch0.expander,
        registry=registry,
    )
    suggester.attach_epochs(manager)
    profiles = None
    if stream_profiles and suggester.profiles is not None:
        from repro.personalize.profiles import ArrayProfileStore

        profiles = ArrayProfileStore(suggester.profiles.to_arrays())
        profiles.attach_metrics(registry)
        # Rebase serving on the array store so epoch rebinds swap like
        # for like (generation 0 scores bit-identically to the model).
        suggester.rebind_profiles(profiles)
    ingestor = LogIngestor(
        state, manager, ingest, registry=registry, profiles=profiles
    )
    return suggester, ingestor, manager
