"""Epoch snapshots: atomic publish, reader pinning, retirement.

The streaming writer and the serving readers never share mutable matrix
state.  Each :class:`Epoch` is an immutable bundle of one
:class:`~repro.stream.delta.StreamSnapshot` plus the prebuilt
:class:`~repro.graphs.compact.RandomWalkExpander` over it.  The
:class:`EpochManager` swaps the current epoch with a single reference
assignment under a lock — readers that pinned the previous epoch keep
serving from it (its arrays are copy-on-write: patches allocate fresh
ones), and the old epoch is retired from the registry once its last
reader unpins.

Pinning is cheap (one dict increment) and **never blocks a publish**, and
a publish never blocks readers — the acceptance property the concurrency
tests exercise.  Serving caches serve one epoch each: a subscriber's
rebind flushes the cache onto the new epoch, and a request still pinned
to a superseded epoch builds its compact entries uncached (see
:class:`~repro.core.serving.CompactCache`), so every answer is exactly
the pinned epoch's.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass

from repro.graphs.compact import RandomWalkExpander
from repro.graphs.matrices import BipartiteMatrices
from repro.graphs.multibipartite import MultiBipartite
from repro.logs.storage import QueryLog
from repro.obs.registry import NULL_REGISTRY
from repro.stream.delta import StreamSnapshot

__all__ = ["Epoch", "EpochManager", "EpochStats"]


@dataclass(frozen=True)
class Epoch:
    """One immutable serving generation of the streaming representation.

    Attributes:
        epoch_id: Monotonic publish ordinal (0 = bootstrap).
        log: Cumulative log snapshot at publish time.
        multibipartite: Representation handle (membership, term backoff).
        matrices: Full-graph matrices of this generation.
        expander: Walk expander bound to ``matrices``.
        touched_queries: Queries changed relative to the previous epoch
            (reported by the ingest metrics; the serving cache flushes
            wholesale on every epoch).
        profiles: New personalization generation riding this epoch, or
            ``None`` when profiles are unchanged.  When set it is an
            :class:`~repro.personalize.profiles.ArrayProfileStore` (click
            feedback folded by the ingestor); subscribers rebind it
            (``PQSDA.rebind_profiles``) and the scale-out pool republishes
            it through its profile plane.
    """

    epoch_id: int
    log: QueryLog
    multibipartite: MultiBipartite
    matrices: BipartiteMatrices
    expander: RandomWalkExpander
    touched_queries: frozenset[str]
    profiles: object | None = None

    #: Always ``None``: every epoch is one full graph segment.  Kept, and
    #: not a field, because ``perfbench/server.py`` reads it to count full
    #: publishes, and the benchmark may only change in its own revision.
    shard_updates = None

    def head_queries(self, n: int) -> list[str]:
        """The *n* hottest normalized queries of this epoch's log.

        Frequencies come from the cumulative log snapshot, so the head
        tracks traffic drift epoch over epoch — this feeds the scale-out
        pool's hot-query table refresh
        (:meth:`repro.serve.pool.SuggestWorkerPool.publish_epoch` with
        ``hot_top``).
        """
        from repro.core.suggester import head_queries

        return head_queries(self.log, n)

    @classmethod
    def from_snapshot(
        cls,
        epoch_id: int,
        snapshot: StreamSnapshot,
        profiles: object | None = None,
    ) -> "Epoch":
        """Wrap *snapshot* with a prebuilt expander as epoch *epoch_id*."""
        return cls(
            epoch_id=epoch_id,
            log=snapshot.log,
            multibipartite=snapshot.multibipartite,
            matrices=snapshot.matrices,
            expander=RandomWalkExpander(
                snapshot.multibipartite, matrices=snapshot.matrices
            ),
            touched_queries=snapshot.touched_queries,
            profiles=profiles,
        )


@dataclass(frozen=True, slots=True)
class EpochStats:
    """Counters of one :class:`EpochManager` (a point-in-time snapshot).

    Attributes:
        current_epoch: Id of the epoch readers pin right now.
        published: Epochs published so far (including the initial one).
        retired: Superseded epochs whose last reader has unpinned.
        live: Epochs still registered (current + superseded-but-pinned).
        pinned_readers: Readers currently holding a pin, across epochs.
    """

    current_epoch: int
    published: int
    retired: int
    live: int
    pinned_readers: int


class _Pin:
    """Context manager returned by :meth:`EpochManager.pin`."""

    __slots__ = ("_manager", "epoch")

    def __init__(self, manager: "EpochManager", epoch: Epoch) -> None:
        self._manager = manager
        self.epoch = epoch

    def __enter__(self) -> Epoch:
        return self.epoch

    def __exit__(self, *exc_info) -> None:
        self._manager._unpin(self.epoch.epoch_id)


class EpochManager:
    """Publishes epochs atomically and tracks reader pins for retirement.

    One writer calls :meth:`publish`; any number of readers call
    :meth:`pin` around each request.  Subscribers (e.g.
    ``PQSDA.apply_epoch``) are notified after every publish, *outside* the
    manager lock, so a subscriber may itself pin or touch the serving
    cache without deadlocking.
    """

    def __init__(self, initial: Epoch, registry=None) -> None:
        self._lock = threading.Lock()
        self._current = initial
        self._live: dict[int, Epoch] = {initial.epoch_id: initial}
        self._pins: dict[int, int] = {initial.epoch_id: 0}
        self._published = 1
        self._retired = 0
        self._subscribers: list = []
        self._retire_subscribers: list = []
        self.attach_metrics(registry)

    def attach_metrics(self, registry) -> None:
        """Mirror the epoch lifecycle into *registry* (``stream.epochs.*``).

        Counters (``published``/``retired``) count events since attach;
        gauges (``current``/``live``/``pinned_readers``) are seeded from
        the manager's present state.  ``None`` detaches (no-op
        instruments, the default binding).
        """
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_published = registry.counter("stream.epochs.published")
        self._m_retired = registry.counter("stream.epochs.retired")
        self._m_current = registry.gauge("stream.epochs.current")
        self._m_live = registry.gauge("stream.epochs.live")
        self._m_pinned = registry.gauge("stream.epochs.pinned_readers")
        with self._lock:
            self._m_current.set(self._current.epoch_id)
            self._m_live.set(len(self._live))
            self._m_pinned.set(sum(self._pins.values()))

    # -- reader side ------------------------------------------------------------

    def current(self) -> Epoch:
        """The latest published epoch (unpinned peek)."""
        with self._lock:
            return self._current

    def pin(self) -> _Pin:
        """Pin the current epoch for the duration of a ``with`` block.

        The pinned epoch stays registered (and all its structures alive)
        until the block exits, however many epochs are published meanwhile.
        """
        with self._lock:
            epoch = self._current
            self._pins[epoch.epoch_id] += 1
            self._m_pinned.inc()
            return _Pin(self, epoch)

    def _unpin(self, epoch_id: int) -> None:
        retired: Epoch | None = None
        with self._lock:
            remaining = self._pins.get(epoch_id)
            if remaining is None:  # already retired defensively
                return
            remaining -= 1
            self._pins[epoch_id] = remaining
            self._m_pinned.dec()
            if remaining <= 0 and epoch_id != self._current.epoch_id:
                retired = self._retire(epoch_id)
        self._notify_retired(retired)

    # -- writer side ------------------------------------------------------------

    def publish(self, epoch: Epoch) -> None:
        """Atomically make *epoch* current; retire unpinned predecessors.

        Raises ``ValueError`` on a non-monotonic epoch id (stale writer).
        """
        retired: Epoch | None = None
        with self._lock:
            previous = self._current
            if epoch.epoch_id <= previous.epoch_id:
                raise ValueError(
                    f"epoch id must increase: {epoch.epoch_id} after "
                    f"{previous.epoch_id}"
                )
            self._current = epoch
            self._live[epoch.epoch_id] = epoch
            self._pins.setdefault(epoch.epoch_id, 0)
            self._published += 1
            self._m_published.inc()
            self._m_current.set(epoch.epoch_id)
            if self._pins.get(previous.epoch_id, 0) <= 0:
                retired = self._retire(previous.epoch_id)
            self._m_live.set(len(self._live))
            subscribers = list(self._subscribers)
        for callback in subscribers:
            callback(epoch)
        self._notify_retired(retired)

    def _retire(self, epoch_id: int) -> Epoch | None:
        """Drop a superseded, unpinned epoch (caller holds the lock).

        Returns the retired epoch so the caller can notify retirement
        subscribers *outside* the lock, or ``None`` if nothing was live.
        """
        epoch = self._live.pop(epoch_id, None)
        if epoch is not None:
            self._retired += 1
            self._m_retired.inc()
            self._m_live.set(len(self._live))
        self._pins.pop(epoch_id, None)
        return epoch

    def _notify_retired(self, epoch: Epoch | None) -> None:
        if epoch is None:
            return
        with self._lock:
            subscribers = list(self._retire_subscribers)
        for callback in subscribers:
            callback(epoch)

    def subscribe(self, callback) -> None:
        """Call ``callback(epoch)`` after every future publish."""
        with self._lock:
            self._subscribers.append(callback)

    def subscribe_retire(self, callback) -> None:
        """Call ``callback(epoch)`` after an epoch fully retires.

        Retirement means the epoch is superseded *and* its last in-process
        reader has unpinned — the point at which resources tied to that
        generation (e.g. the shared-memory segments the scale-out serving
        plane publishes per epoch) can be reclaimed for local readers.
        Callbacks run outside the manager lock.
        """
        with self._lock:
            self._retire_subscribers.append(callback)

    # -- introspection ----------------------------------------------------------

    @property
    def stats(self) -> EpochStats:
        """Publish/retire/pin counters."""
        with self._lock:
            return EpochStats(
                current_epoch=self._current.epoch_id,
                published=self._published,
                retired=self._retired,
                live=len(self._live),
                pinned_readers=sum(self._pins.values()),
            )
