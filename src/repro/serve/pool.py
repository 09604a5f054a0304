"""Multi-process suggest workers over the shared-memory matrix plane.

:class:`SuggestWorkerPool` scales the serving fast path across CPU cores
without duplicating the representation: the parent publishes one
:class:`~repro.serve.shm.SharedMatrixStore` generation, spawns N workers,
and each worker attaches read-only views (see :mod:`repro.serve.shm`) and
builds its own :class:`~repro.core.suggester.PQSDA` plus
:class:`~repro.core.serving.CompactCache` over them.  Matrix bytes exist
once per generation however many workers serve.

Routing, affinity and batched envelopes
    Requests are routed by ``crc32(normalized_query) % n_workers`` — a
    process-stable hash (builtin ``hash`` is salted per process), so
    repeats of a query land on the same worker and hit its compact-entry
    cache.  :meth:`~SuggestWorkerPool.suggest_many` groups the requests
    of one call by route and sends **one** compact envelope per worker —
    a batch id plus primitive-encoded request tuples, never a pickled
    :class:`~repro.baselines.base.SuggestRequest` per request — and each
    worker replies with one envelope per batch, so the per-request IPC
    tax (queue hop + pickle) is amortized across the batch.  Results
    come back in request order and are bit-identical to the
    single-process path — personalized requests included: a
    profile-bearing suggester's store is packed into a shared **profile
    plane** (:mod:`repro.serve.profile_plane`) that workers attach
    zero-copy and Borda-fuse against exactly like the single-process
    ``PersonalizedSuggester`` path.  Reply envelopes are tagged with
    their batch id: envelopes surfacing late from a timed-out batch are
    drained, never matched against the next call.

Concurrent callers (the front-end contract)
    :meth:`~SuggestWorkerPool.suggest_many` is safe to call from any
    number of threads, and overlapping calls genuinely overlap: a single
    dispatcher thread drains the shared reply queue and correlates each
    reply envelope to its batch by id, so a caller only waits on *its
    own* batch's completion event — one slow batch never serializes the
    others behind a whole-call lock.  Per-request failures inside an
    envelope are propagated per request (``return_errors=True`` returns
    :class:`SuggestError` placeholders; the default re-raises, matching
    single-caller semantics), so one poisoned request cannot discard the
    sibling results its batch already computed.  Requests carry their
    load-shed tier (``SuggestRequest.shed``) into the envelope, which the
    worker forwards to ``PQSDA.suggest`` — the degraded modes the HTTP
    front-end (:mod:`repro.serve.frontend`) sheds into under load.

Hot-query fast tier
    Real query streams are head-skewed.  Given ``hot_queries`` (or
    ``hot_top`` over streaming epochs), the pool precomputes the full
    expand/solve/walk pipeline for those head queries at publish time,
    packs the results into the same shared segment as the matrices (see
    :class:`~repro.serve.shm.SharedHotTable`), verifies the packed bytes
    round-trip bit-identically, and answers context-free hits O(1) in
    the parent — head traffic never touches a worker queue.  The table
    stores each query's full diversified ranking, which never depends on
    the request's ``k`` (``suggest`` slices ``ranking[:k]``), so any
    ``k`` is served from the same entry; requests carrying a search
    context — or a profiled ``user_id``, whose worker-side ranking would
    be Borda-fused with preference scores the table never saw — take the
    full worker path.  Every :meth:`~SuggestWorkerPool.publish_plane` /
    epoch swap rebuilds the table against the new generation and swaps it
    atomically with the segment, so no stale answer survives an epoch.

Shared profile plane (personalized serving)
    Given ``profiles`` (or a profile-bearing suggester via
    :meth:`~SuggestWorkerPool.from_suggester`), the pool packs the fitted
    UPM's serving state into its own shared-memory segment
    (:class:`~repro.serve.profile_plane.SharedProfileStore`); each worker
    attaches a read-only zero-copy scorer and binds it to its ``PQSDA``,
    so profiled requests come back Borda-fused bit-identically to the
    single-process path while profile bytes exist once per generation.
    The profile segment is part of the generation manifest (below), so
    an epoch carrying folded click feedback (``epoch.profiles``) moves
    graph and profiles together in one swap.

Generation manifest (epoch-consistent publication)
    A serving generation is a **manifest**: its graph segment(s) — one
    segment, or one per shard — plus its profile segment.  Every publish
    (:meth:`~SuggestWorkerPool.publish_plane`,
    :meth:`~SuggestWorkerPool.publish_shard`,
    :meth:`~SuggestWorkerPool.publish_profiles`,
    :meth:`~SuggestWorkerPool.publish_epoch`) packs only the segments it
    replaces and goes through one swap path: a single ``gen`` message
    carrying the next manifest rides every worker's *request queue*.
    Workers are single-threaded loops, so the message is processed
    strictly between requests — no request ever observes half of a
    generation, nor the graph of one generation with the profiles of
    another.  A worker remaps only the segments whose name changed,
    flushes its compact cache when the graph changed, and acks once.
    The publisher unlinks the superseded segments only after every
    worker acks, so a slow worker can finish in-flight requests against
    arrays that are guaranteed to stay mapped; a failed swap unlinks the
    fresh segments instead, and a dead worker fails it within a second,
    by name.  :meth:`~SuggestWorkerPool.attach_epochs` wires this to an
    :class:`~repro.stream.epoch.EpochManager` publish stream.

Observability
    Workers run their own :class:`~repro.obs.registry.MetricsRegistry`;
    :meth:`~SuggestWorkerPool.merged_metrics` fetches the per-worker
    snapshots, relabels them with ``worker=<id>``, and merges them with
    the pool-level registry (queue-depth gauge, request counter,
    attach/swap latency histograms) into one deterministic snapshot.
"""

from __future__ import annotations

import os
import queue as queue_module
import threading
import time
import traceback
import zlib
from dataclasses import asdict, dataclass, replace
from functools import partial
from collections.abc import Mapping
from multiprocessing import get_context
from typing import Sequence

from repro.baselines.base import SuggestRequest
from repro.core.config import PQSDAConfig
from repro.core.serving import CacheStats
from repro.core.suggester import PQSDA
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.shard import (
    ShardPlan,
    ShardSlice,
    ShardedExpander,
    build_shard_slices,
)
from repro.logs.schema import QueryRecord
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.personalize.profiles import (
    ArrayProfileStore,
    ProfileArrays,
    UserProfileStore,
)
from repro.serve.profile_plane import (
    AttachedProfilePlane,
    SharedProfileMeta,
    SharedProfileStore,
)
from repro.serve.shard_plane import (
    AttachedShardedPlane,
    ShardSegmentMeta,
    SharedShardStore,
)
from repro.serve.shm import (
    AttachedPlane,
    SharedHotTable,
    SharedMatrixStore,
    SharedPlaneMeta,
    SharedRepresentation,
)
from repro.utils.text import normalize_query

__all__ = [
    "PoolStats",
    "ShardedPlaneHandle",
    "SuggestError",
    "SuggestWorkerPool",
    "WorkerStats",
]

#: Batch-size histogram bounds (requests per worker envelope).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass(frozen=True)
class ShardedPlaneHandle:
    """Picklable manifest of one sharded generation: plan + shard metas.

    The sharded analogue of a :class:`~repro.serve.shm.SharedPlaneMeta`:
    one handle describes every shard's segment, and each worker derives
    its own home-shard set from its worker id (see :func:`_home_shards`),
    so a full swap broadcasts a single object down every request queue.
    """

    plan: ShardPlan
    metas: dict[int, ShardSegmentMeta]
    n_workers: int


def _home_shards(worker_id: int, n_workers: int, n_shards: int) -> list[int]:
    """The shards worker *worker_id* attaches eagerly (serves as home).

    With at least as many shards as workers, shards stripe over workers
    (``shard % n_workers``); with fewer shards than workers, each worker
    homes exactly one shard (``worker % n_shards``) and shards are
    replicated across the workers that map to them.
    """
    if n_shards >= n_workers:
        return [s for s in range(n_shards) if s % n_workers == worker_id]
    return [worker_id % n_shards]


def _shard_route(shard_id: int, crc: int, n_workers: int, n_shards: int) -> int:
    """Worker serving *shard_id* for a query with routing hash *crc*.

    The exact inverse of :func:`_home_shards`: striped shards route to
    their unique owner; replicated shards (fewer shards than workers)
    spread over their replica set by the query hash, so repeats of a
    query still land on one worker and hit its compact-entry cache.
    """
    if n_shards >= n_workers:
        return shard_id % n_workers
    replicas = [w for w in range(n_workers) if w % n_shards == shard_id]
    return replicas[crc % len(replicas)]


def _attach_worker_plane(meta, worker_id: int):
    """Attach whichever plane flavor *meta* describes (full or sharded)."""
    if isinstance(meta, ShardedPlaneHandle):
        return AttachedShardedPlane(
            meta.metas,
            meta.plan,
            _home_shards(worker_id, meta.n_workers, meta.plan.n_shards),
        )
    return AttachedPlane(meta)


class _ShardedHotView:
    """Parent-side hot-table lookup composed over per-shard partitions.

    Each shard's hot entries live in that shard's segment, so a
    per-shard swap replaces exactly one partition (:meth:`updated`);
    lookups route by the plan's home-shard hash like every other request.
    """

    def __init__(
        self, plan: ShardPlan, tables: Mapping[int, SharedHotTable | None]
    ) -> None:
        self._plan = plan
        self._tables = {
            shard_id: table
            for shard_id, table in tables.items()
            if table is not None
        }

    def __len__(self) -> int:
        return sum(len(table) for table in self._tables.values())

    def lookup(self, normalized_query: str) -> list[str] | None:
        table = self._tables.get(self._plan.shard_of(normalized_query))
        return table.lookup(normalized_query) if table is not None else None

    def updated(
        self, tables: Mapping[int, SharedHotTable | None]
    ) -> "_ShardedHotView":
        """This view with the partitions in *tables* replaced.

        A ``None`` table drops its shard's partition.
        """
        return _ShardedHotView(self._plan, {**self._tables, **tables})


@dataclass(frozen=True)
class _Generation:
    """The parent's state of one serving generation, swapped as a unit.

    ``graph`` (shard id -> segment store; the single-segment plane is
    shard 0) and ``profiles`` are the generation's **manifest**: the
    shared-memory segments workers attach.  The other fields are what the
    parent serves and publishes against while the generation is current.
    A publish derives the successor with :func:`dataclasses.replace` and
    commits it with one reference assignment.
    """

    graph: Mapping[int, SharedMatrixStore | SharedShardStore]
    profiles: SharedProfileStore | None
    multibipartite: object
    slices: Mapping[int, ShardSlice]
    hot: SharedHotTable | _ShardedHotView | None
    hot_queries: list[str] | None
    profiled_users: frozenset[str]

    @property
    def stores(self) -> list:
        """Every segment store of the manifest."""
        stores = list(self.graph.values())
        if self.profiles is not None:
            stores.append(self.profiles)
        return stores

    @property
    def profile_generation(self) -> int:
        """Generation of the profile store (0 without profiles)."""
        return self.profiles.generation if self.profiles is not None else 0


def _fresh(generation: _Generation, base: _Generation) -> list:
    """The segment stores of *generation* that *base* does not hold."""
    held = base.stores
    return [store for store in generation.stores if store not in held]


def _release(stores) -> None:
    """Unlink and close publisher-owned segment stores."""
    for store in stores:
        store.unlink()
        store.close()


@dataclass(frozen=True, slots=True)
class SuggestError:
    """Per-request failure marker returned by ``suggest_many(return_errors=True)``.

    Attributes:
        worker_id: The worker whose ``suggest`` call raised.
        error: The worker-side traceback, formatted.
    """

    worker_id: int
    error: str

    def __str__(self) -> str:
        return f"worker {self.worker_id} failed:\n{self.error}"


class _PendingBatch:
    """Parent-side completion state of one in-flight request batch."""

    __slots__ = ("event", "expected", "outstanding", "replies")

    def __init__(self, expected_workers, outstanding: int) -> None:
        self.event = threading.Event()
        self.expected = frozenset(expected_workers)
        self.replies: dict[int, list] = {}
        #: Requests dispatched and not yet replied (exact depth gauge).
        self.outstanding = outstanding


def _encode_request(request: SuggestRequest) -> tuple:
    """Primitive-tuple encoding of one request for a worker envelope.

    Dataclass pickling (class lookup + per-field ``__reduce__``) is the
    measurable per-request cost of the old one-message-per-request path;
    plain tuples of builtins keep the envelope compact.
    """
    return (
        request.query,
        request.k,
        request.user_id,
        tuple(
            (r.user_id, r.query, r.timestamp, r.clicked_url, r.record_id)
            for r in request.context
        ),
        request.timestamp,
        request.shed,
    )


def _verified_hot_table(
    store: SharedMatrixStore, computed: dict[str, list[str]] | None
) -> SharedHotTable | None:
    """The store's packed hot table, bit-identity-checked entry by entry.

    Every ranking that went in must come back out of the packed segment
    bytes verbatim — this is the publish-time proof that a hot hit equals
    the full expand/solve/walk path it was precomputed from.
    """
    if not computed:
        return None
    packed = store.hot_table()
    for query, ranking in computed.items():
        unpacked = packed.lookup(query)
        if unpacked != list(ranking):
            raise RuntimeError(
                f"hot-table round-trip mismatch for {query!r}: packed "
                f"{unpacked!r} != computed {list(ranking)!r}"
            )
    return packed


def _profile_arrays(
    profiles: UserProfileStore | ArrayProfileStore | ProfileArrays,
) -> ProfileArrays:
    """The packable form of any profile-store flavor the pool accepts."""
    if isinstance(profiles, ProfileArrays):
        return profiles
    return profiles.to_arrays()


def _decode_context(encoded: tuple) -> tuple[QueryRecord, ...]:
    """Rebuild the context records a worker passes into ``suggest``."""
    return tuple(
        QueryRecord(
            user_id=user_id,
            query=query,
            timestamp=timestamp,
            clicked_url=clicked_url,
            record_id=record_id,
        )
        for user_id, query, timestamp, clicked_url, record_id in encoded
    )


def _rss_kb() -> int:
    """This process's resident set size in kB (0 where /proc is absent)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux fallback
        pass
    return 0


def _remap_graph(plane, old, new, worker_id: int):
    """Move a worker's graph *plane* from manifest part *old* to *new*.

    Returns the plane to serve from, or ``None`` when no segment name
    changed.  A sharded generation that replaces only some shards remaps
    just those in place (per-shard publishes keep each shard's query
    set, so nothing renumbers); any other change attaches the new
    generation afresh, and the caller closes the old plane once nothing
    references it.
    """
    if isinstance(new, ShardedPlaneHandle):
        changed = [
            meta
            for shard_id, meta in sorted(new.metas.items())
            if meta.segment != old.metas[shard_id].segment
        ]
        if not changed:
            return None
        if len(changed) < len(new.metas):
            for meta in changed:
                plane.update_shard(meta)
            return plane
    elif new.segment == old.segment:
        return None
    return _attach_worker_plane(new, worker_id)


def _worker_main(
    worker_id: int,
    graph,
    profile_meta: SharedProfileMeta | None,
    config: PQSDAConfig,
    request_queue,
    reply_queue,
    ack_queue,
) -> None:
    """One suggest worker: attach, serve, move generations, report stats.

    *graph* and *profile_meta* are the bootstrap manifest.  *graph* is
    either a :class:`~repro.serve.shm.SharedPlaneMeta` (the
    single-segment plane) or a :class:`ShardedPlaneHandle` (one segment
    per shard; this worker eagerly attaches only its home shards).

    The loop is strictly serial, which is the torn-view guarantee: a
    ``gen`` message is only ever handled between two requests, so every
    request runs start-to-finish against exactly one generation's views.
    """
    started = time.perf_counter()
    # multiprocessing children (spawn and fork alike, on POSIX) inherit the
    # publisher's resource_tracker fd, so attach-time registrations land in
    # the publisher's registry where they are idempotent — no untracking.
    attach_start = time.perf_counter()
    plane = _attach_worker_plane(graph, worker_id)
    profile_plane = (
        AttachedProfilePlane(profile_meta) if profile_meta is not None else None
    )
    attach_seconds = time.perf_counter() - attach_start
    registry = MetricsRegistry()
    profiles = profile_plane.store if profile_plane is not None else None
    if profiles is not None:
        profiles.attach_metrics(registry)
    pqsda = PQSDA(plane.representation, plane.expander, profiles, config)
    pqsda.attach_metrics(registry)
    requests_served = 0
    busy_seconds = 0.0
    generation = 0
    ack_queue.put(
        (
            "ready",
            worker_id,
            0,
            {
                "pid": os.getpid(),
                "attach_seconds": attach_seconds,
                "shares_memory": plane.shares_memory(),
                "profile_shares_memory": (
                    profile_plane.shares_memory()
                    if profile_plane is not None
                    else True
                ),
                "profile_users": len(profiles) if profiles is not None else 0,
                "rss_kb": _rss_kb(),
                "epoch_id": plane.epoch_id,
            },
        )
    )
    try:
        while True:
            message = request_queue.get()
            kind = message[0]
            if kind == "batch":
                _, batch_id, items = message
                begin = time.perf_counter()
                replies = []
                for query, k, user_id, context, timestamp, shed in items:
                    try:
                        result = pqsda.suggest(
                            query,
                            k=k,
                            user_id=user_id,
                            context=_decode_context(context),
                            timestamp=timestamp,
                            shed=shed,
                        )
                        replies.append((result, None))
                    except Exception:
                        replies.append((None, traceback.format_exc()))
                busy_seconds += time.perf_counter() - begin
                requests_served += len(items)
                reply_queue.put(("bres", batch_id, worker_id, replies))
            elif kind == "gen":
                # Move onto the next manifest, remapping only the segments
                # whose name changed; the publisher unlinks the superseded
                # ones only after every worker's ack.
                _, new_generation, new_graph, new_profile_meta = message
                swap_start = time.perf_counter()
                error = None
                try:
                    moved = _remap_graph(plane, graph, new_graph, worker_id)
                    if moved is not None:
                        pqsda.rebind_representation(
                            moved.representation, moved.expander
                        )
                        if moved is not plane:
                            plane.close()
                        plane = moved
                    graph = new_graph
                    if new_profile_meta is not None and (
                        profile_meta is None
                        or new_profile_meta.segment != profile_meta.segment
                    ):
                        new_profile_plane = AttachedProfilePlane(
                            new_profile_meta
                        )
                        profiles = new_profile_plane.store
                        profiles.attach_metrics(registry)
                        pqsda.rebind_profiles(profiles)
                        if profile_plane is not None:
                            profile_plane.close()
                        profile_plane = new_profile_plane
                        profile_meta = new_profile_meta
                    generation = new_generation
                except Exception:
                    error = traceback.format_exc()
                ack_queue.put(
                    (
                        "gen",
                        worker_id,
                        new_generation,
                        {
                            "swap_seconds": time.perf_counter() - swap_start,
                            "error": error,
                        },
                    )
                )
            elif kind == "stats":
                (_, token) = message
                uptime = time.perf_counter() - started
                spill = None
                if isinstance(plane, AttachedShardedPlane):
                    spill = plane.expander.spill_stats()
                    registry.gauge("serve.shard.walks").set(spill["walks"])
                    registry.gauge("serve.shard.spills").set(spill["spills"])
                    registry.gauge("serve.shard.spill_fraction").set(
                        spill["spill_fraction"]
                    )
                    registry.gauge("serve.shard.foreign_attaches").set(
                        spill["foreign_attaches"]
                    )
                ack_queue.put(
                    (
                        "stats",
                        worker_id,
                        token,
                        {
                            "pid": os.getpid(),
                            "requests": requests_served,
                            "busy_seconds": busy_seconds,
                            "uptime_seconds": uptime,
                            "generation": generation,
                            "epoch_id": plane.epoch_id,
                            "rss_kb": _rss_kb(),
                            "shares_memory": plane.shares_memory(),
                            "profile_generation": (
                                profile_plane.generation
                                if profile_plane is not None
                                else 0
                            ),
                            "profile_users": (
                                len(profiles) if profiles is not None else 0
                            ),
                            "profile_shares_memory": (
                                profile_plane.shares_memory()
                                if profile_plane is not None
                                else True
                            ),
                            "cache": asdict(pqsda.cache_stats),
                            "spill": spill,
                            "snapshot": registry.snapshot(),
                        },
                    )
                )
            elif kind == "stop":
                break
    finally:
        plane.close()
        if profile_plane is not None:
            profile_plane.close()


@dataclass(frozen=True, slots=True)
class WorkerStats:
    """Point-in-time counters of one pool worker.

    Attributes:
        worker_id: Routing slot of the worker (0-based).
        pid: OS process id.
        requests: Requests served since spawn.
        busy_seconds: Wall time spent inside ``suggest`` calls.
        uptime_seconds: Wall time since the worker process started.
        qps: ``requests / uptime_seconds``.
        generation: Last plane generation the worker acked.
        epoch_id: Epoch ordinal of the attached plane.
        rss_kb: Worker resident set size (kB).
        shares_memory: Whether every matrix payload is still a shared view.
        cache: The worker's compact-entry cache counters.
        profile_generation: Last profile generation the worker acked (0
            when the pool serves without profiles).
        profile_users: Users in the worker's attached profile store.
        profile_shares_memory: Whether every profile payload is still a
            shared view (vacuously true without profiles).
        spill: Shard-walk spill counters of the worker's sharded
            expander (``None`` when the pool serves the unsharded plane).
    """

    worker_id: int
    pid: int
    requests: int
    busy_seconds: float
    uptime_seconds: float
    qps: float
    generation: int
    epoch_id: int
    rss_kb: int
    shares_memory: bool
    cache: CacheStats
    profile_generation: int = 0
    profile_users: int = 0
    profile_shares_memory: bool = True
    spill: dict | None = None


@dataclass(frozen=True, slots=True)
class PoolStats:
    """Pool-level snapshot: one :class:`WorkerStats` per worker.

    Attributes:
        n_workers: Worker count.
        generation: Current plane generation (0 = the bootstrap plane).
        epoch_id: Epoch ordinal of the current plane.
        segment_bytes: Bytes of the current shared segment (counted once,
            however many workers attach).
        workers: Per-worker counters, ordered by ``worker_id``.
        hot_entries: Entries in the current generation's hot-query table
            (0 when the hot tier is off).
        hot_hits: Requests the parent answered O(1) from the hot table
            since the pool started — these never reached a worker, so
            they are *not* part of any worker's ``requests`` count.
        profile_users: Profiled users in the current profile generation
            (0 = the pool serves without the profile plane).
        profile_generation: Current profile generation ordinal.
        profile_segment_bytes: Bytes of the current profile segment.
        n_shards: Shards of the current plan (0 = unsharded plane).
        shard_segment_bytes: Per-shard segment sizes, indexed by shard id
            (empty when unsharded).
        shard_epoch_ids: Per-shard epoch ordinals — independent per-shard
            publishes make these diverge on purpose.
    """

    n_workers: int
    generation: int
    epoch_id: int
    segment_bytes: int
    workers: tuple[WorkerStats, ...]
    hot_entries: int = 0
    hot_hits: int = 0
    profile_users: int = 0
    profile_generation: int = 0
    profile_segment_bytes: int = 0
    n_shards: int = 0
    shard_segment_bytes: tuple[int, ...] = ()
    shard_epoch_ids: tuple[int, ...] = ()

    @property
    def total_requests(self) -> int:
        """Requests served by the pool (worker batches + parent hot hits)."""
        return sum(worker.requests for worker in self.workers) + self.hot_hits


class SuggestWorkerPool:
    """N suggest workers sharing one zero-copy matrix plane.

    Args:
        expander: Full-graph expander whose matrices and walk stacks seed
            the first published generation.
        config: Serving configuration for every worker's ``PQSDA``.
        multibipartite: Representation handle; publishes the query-term
            adjacency so workers serve the unseen-query backoff.  ``None``
            disables the backoff in workers.
        profiles: Profile store (or packed
            :class:`~repro.personalize.profiles.ProfileArrays`) to publish
            as the shared profile plane.  Workers attach zero-copy scorers
            over it and Borda-fuse personalized requests bit-identically
            to the single-process personalized suggester; ``None`` serves
            unpersonalized (the pre-profile-plane behavior).
        n_workers: Worker process count.
        registry: Optional pool-level metrics registry.
        start_method: ``multiprocessing`` start method.  The default
            ``"spawn"`` is the honest zero-copy demonstration — children
            inherit nothing, every shared byte travels through the
            segment.  (``"fork"`` also works and attaches faster.)
        ready_timeout: Seconds to wait for workers to attach at startup.
        ack_timeout: Seconds to wait for swap acks, batch replies and
            stats replies; a dead worker fails the wait within about a
            second, by name, whatever the timeout.
        prefix: Shared-memory segment name prefix.
        hot_queries: Head queries to precompute into the shared hot-query
            table (``None``/empty = no hot tier).  Use
            :func:`repro.core.suggester.head_queries` to extract them
            from a log by frequency.
        hot_top: When > 0 and the pool is wired to an epoch manager,
            every epoch publish re-derives ``hot_top`` head queries from
            the epoch's log and rebuilds the table against the new
            generation (explicit ``hot_queries`` seed the table until the
            first epoch arrives).
        n_shards: Partition the graph plane into this many per-shard
            segments (0 = the single-segment plane).  Sharded serving is
            bit-identical to unsharded at any shard count; requests route
            by the shard plan composed with the worker stripe, each
            worker eagerly attaches only its home shards, and per-shard
            epoch publishes (:meth:`publish_shard`, or
            :meth:`publish_epoch` with per-shard updates) swap only the
            touched shards' segments.  Requires *multibipartite* (the
            facet vocabularies make shard slices stitchable).
        shard_plan: An explicit :class:`~repro.graphs.shard.ShardPlan`
            (e.g. a component-packed plan so walks never spill);
            overrides *n_shards*.

    Use as a context manager (or call :meth:`close`): shutdown stops the
    workers and unlinks the current segments, leaving nothing in
    ``/dev/shm``.
    """

    def __init__(
        self,
        expander: RandomWalkExpander,
        config: PQSDAConfig,
        multibipartite=None,
        profiles: UserProfileStore | ArrayProfileStore | ProfileArrays | None = None,
        n_workers: int = 2,
        registry=None,
        start_method: str = "spawn",
        ready_timeout: float = 120.0,
        ack_timeout: float = 120.0,
        prefix: str = "pqsda",
        hot_queries: Sequence[str] | None = None,
        hot_top: int = 0,
        n_shards: int = 0,
        shard_plan: ShardPlan | None = None,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._n_workers = n_workers
        self._config = config
        self._ack_timeout = ack_timeout
        self._prefix = prefix
        self._generation = 0
        self._closed = False
        self._hot_top = hot_top
        self._hot_hits_total = 0
        if shard_plan is None and n_shards > 0:
            shard_plan = ShardPlan.hashed(n_shards)
        self._plan = shard_plan
        if self._plan is not None and multibipartite is None:
            raise ValueError(
                "sharded serving needs the multibipartite (its facet "
                "vocabularies make the shard slices stitchable)"
            )

        registry = registry if registry is not None else NULL_REGISTRY
        self._registry = registry
        self._m_requests = registry.counter("serve.pool.requests")
        self._m_depth = registry.gauge("serve.pool.queue_depth")
        self._m_workers = registry.gauge("serve.pool.workers")
        self._m_generations = registry.counter("serve.pool.generations")
        self._m_attach = registry.histogram("serve.pool.attach_seconds")
        self._m_swap = registry.histogram("serve.pool.swap_seconds")
        self._m_hot_hits = registry.counter("serve.pool.hot_hits")
        self._m_batch_size = registry.histogram(
            "serve.pool.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )
        self._m_profile_swaps = registry.counter(
            "serve.profile.generation_swaps"
        )
        self._m_profile_users = registry.gauge("serve.profile.users")
        self._m_workers.set(n_workers)
        self._m_shards = registry.gauge("serve.shard.count")
        self._m_shard_swaps = registry.counter("serve.shard.swaps")
        if self._plan is not None:
            self._m_shards.set(self._plan.n_shards)

        context = get_context(start_method)
        self._request_queues = [context.Queue() for _ in range(n_workers)]
        self._reply_queue = context.Queue()
        self._ack_queue = context.Queue()
        # _control_lock serializes publish/stats round-trips over the ack
        # queue.  The request path has no whole-call lock: _pending_lock
        # only guards the batch registry that the reply dispatcher thread
        # correlates envelopes against, so concurrent suggest_many calls
        # overlap (each waits on its own batch's completion event).
        self._control_lock = threading.Lock()
        self._pending_lock = threading.Lock()
        self._pending: dict[int, _PendingBatch] = {}
        self._next_batch_id = 0
        self._next_token = 0
        self._workers = []
        self._dispatcher_stop = threading.Event()
        self._dispatcher: threading.Thread | None = None
        self._current = _Generation(
            graph={},
            profiles=None,
            multibipartite=multibipartite,
            slices={},
            hot=None,
            hot_queries=list(hot_queries) if hot_queries else None,
            profiled_users=frozenset(),
        )
        try:
            self._current = self._with_graph(
                self._current, expander, epoch_id=0
            )
            if profiles is not None:
                arrays = _profile_arrays(profiles)
                self._current = self._with_profiles(
                    self._current, arrays, arrays.generation
                )
                self._m_profile_users.set(len(arrays.users))
            graph, profile_meta = self._manifest(self._current)
            for worker_id in range(n_workers):
                process = context.Process(
                    target=_worker_main,
                    args=(
                        worker_id,
                        graph,
                        profile_meta,
                        config,
                        self._request_queues[worker_id],
                        self._reply_queue,
                        self._ack_queue,
                    ),
                    daemon=True,
                    name=f"suggest-worker-{worker_id}",
                )
                process.start()
                self._workers.append(process)
            self._dispatcher = threading.Thread(
                target=self._dispatch_replies,
                name="suggest-reply-dispatcher",
                daemon=True,
            )
            self._dispatcher.start()
            self._ready_info = self._collect("ready", 0, ready_timeout)
        except Exception:
            self.close()
            raise
        for info in self._ready_info.values():
            self._m_attach.observe(info["attach_seconds"])

    def _dispatch_replies(self) -> None:
        """Reply-dispatcher loop: correlate envelopes to pending batches.

        One thread owns the read side of the shared reply queue for the
        pool's whole lifetime.  Each ``("bres", batch_id, worker_id,
        replies)`` envelope is matched to its :class:`_PendingBatch` by
        id and recorded; the batch's waiter is woken only when every
        expected worker has replied.  Envelopes whose batch is no longer
        registered (it timed out and was deregistered) are drained here —
        the same stale-reply guarantee as before, without a whole-call
        reply lock serializing independent batches.
        """
        while not self._dispatcher_stop.is_set():
            try:
                message = self._reply_queue.get(timeout=0.2)
            except queue_module.Empty:
                continue
            except (EOFError, OSError, ValueError):  # pragma: no cover
                return  # queue torn down mid-shutdown
            _, batch_id, worker_id, replies = message
            done = False
            with self._pending_lock:
                pending = self._pending.get(batch_id)
                if pending is None or worker_id not in pending.expected:
                    # Stale envelope from a batch that timed out (and was
                    # deregistered) in an earlier call: drain, never match.
                    continue
                pending.replies[worker_id] = replies
                pending.outstanding -= len(replies)
                done = len(pending.replies) == len(pending.expected)
            self._m_depth.dec(len(replies))
            if done:
                pending.event.set()

    def _compute_hot_table(
        self,
        expander: RandomWalkExpander,
        multibipartite,
        hot_queries: Sequence[str] | None,
    ) -> dict[str, list[str]] | None:
        """Precompute ``{query: full diversified ranking}`` for the head.

        Runs the full expand/solve/walk pipeline in the parent against
        exactly the representation being published, so a packed entry is
        the same bytes a worker would compute.  The ranking never depends
        on the request's ``k`` (``suggest`` returns ``ranking[:k]``), so
        one entry serves every ``k``.
        """
        if not hot_queries:
            return None
        representation = multibipartite
        if representation is None:
            # No term index crosses to the workers either; membership is
            # all the pipeline needs for in-graph head queries.
            matrices = expander.matrices
            representation = SharedRepresentation(
                queries=matrices.queries, query_index=matrices.query_index
            )
        suggester = PQSDA(representation, expander, None, self._config)
        table: dict[str, list[str]] = {}
        for query in hot_queries:
            normalized = normalize_query(query)
            if normalized in table:
                continue
            if (
                normalized not in representation
                and multibipartite is None
                and self._config.term_backoff
            ):
                # The backoff needs the term index the parent does not
                # hold here; leave unseen queries to the cold path.
                continue
            table[normalized] = suggester.diversified_candidates(
                normalized
            ).top(self._config.diversify.k)
        return table or None

    # -- generation building -----------------------------------------------------
    #
    # The _with_* steps run under the control lock (see _publish): each
    # maps a generation to its successor, packing fresh segments only
    # for what it replaces.

    def _manifest(self, generation: _Generation) -> tuple:
        """What workers attach for *generation*: (graph part, profile meta)."""
        store = generation.profiles
        profiles = store.meta if store is not None else None
        if self._plan is None:
            return generation.graph[0].meta, profiles
        handle = ShardedPlaneHandle(
            plan=self._plan,
            metas={
                shard_id: store.meta
                for shard_id, store in generation.graph.items()
            },
            n_workers=self._n_workers,
        )
        return handle, profiles

    def _hot_partition(
        self, hot_table: Mapping[str, Sequence[str]] | None, shard_id: int
    ) -> dict[str, list[str]] | None:
        """The slice of *hot_table* homed on *shard_id* (None when empty)."""
        if not hot_table:
            return None
        partition = {
            query: ranking
            for query, ranking in hot_table.items()
            if self._plan.shard_of(query) == shard_id
        }
        return partition or None

    def _publish_shard_stores(
        self,
        slices: Mapping[int, ShardSlice],
        epoch_id: int,
        hot_table: Mapping[str, Sequence[str]] | None,
        multibipartite,
    ) -> dict[int, SharedShardStore]:
        """One fresh segment per shard (hot entries partitioned by home)."""
        term_bipartite = None
        if multibipartite is not None:
            term_bipartite = multibipartite.bipartite("T")
        stores: dict[int, SharedShardStore] = {}
        try:
            for shard_id in sorted(slices):
                stores[shard_id] = SharedShardStore.publish(
                    slices[shard_id],
                    epoch_id=epoch_id,
                    prefix=f"{self._prefix}-s",
                    term_bipartite=term_bipartite,
                    hot_table=self._hot_partition(hot_table, shard_id),
                )
        except Exception:
            _release(stores.values())
            raise
        for shard_id, store in stores.items():
            self._registry.gauge(
                "serve.shard.segment_bytes", labels={"shard": str(shard_id)}
            ).set(store.total_bytes)
        return stores

    def _verified_shard_hot(
        self,
        stores: Mapping[int, SharedShardStore],
        hot_table: Mapping[str, Sequence[str]] | None,
    ) -> dict[int, SharedHotTable | None]:
        """Each store's round-trip-verified hot partition (None = empty)."""
        return {
            shard_id: _verified_hot_table(
                store, self._hot_partition(hot_table, shard_id)
            )
            for shard_id, store in stores.items()
        }

    def _with_graph(
        self,
        current: _Generation,
        expander: RandomWalkExpander,
        multibipartite=None,
        epoch_id: int | None = None,
        hot_queries: Sequence[str] | None = None,
    ) -> _Generation:
        """*current* with a freshly packed graph plane and hot table.

        *multibipartite* and *hot_queries* default to the current ones,
        *epoch_id* to the generation being published.  The hot table is
        precomputed against exactly the plane being packed, packed into
        the same segment(s) and round-trip verified, so it swaps with the
        plane and no request ever gets a hot answer from a superseded
        generation.
        """
        if multibipartite is None:
            multibipartite = current.multibipartite
        if epoch_id is None:
            epoch_id = self._generation + 1
        if hot_queries is None:
            hot_queries = current.hot_queries
        else:
            hot_queries = list(hot_queries)
        hot_table = self._compute_hot_table(
            expander, multibipartite, hot_queries
        )
        slices: dict[int, ShardSlice] = {}
        if self._plan is None:
            store = SharedMatrixStore.publish(
                expander.matrices,
                expander,
                multibipartite,
                epoch_id=epoch_id,
                prefix=self._prefix,
                hot_table=hot_table,
            )
            graph = {0: store}
            hot = _verified_hot_table(store, hot_table)
        else:
            slices = build_shard_slices(
                expander.matrices, self._plan, multibipartite
            )
            graph = self._publish_shard_stores(
                slices, epoch_id, hot_table, multibipartite
            )
            hot = (
                _ShardedHotView(
                    self._plan, self._verified_shard_hot(graph, hot_table)
                )
                if hot_table
                else None
            )
        return replace(
            current,
            graph=graph,
            multibipartite=multibipartite,
            slices=slices,
            hot=hot,
            hot_queries=hot_queries,
        )

    def _with_shards(
        self,
        current: _Generation,
        updates: Mapping[int, ShardSlice],
        epoch_id: int | None = None,
        multibipartite=None,
    ) -> _Generation:
        """*current* with the shards in *updates* repacked, the rest kept.

        Per-shard updates must keep each shard's query set: new queries
        renumber the global ordinal space, so deltas carrying them take a
        full graph publish instead.  The updated shards' hot entries are
        recomputed against the updated plane, so a hot hit can never
        disagree with the worker path.
        """
        if self._plan is None:
            raise RuntimeError("pool is not sharded; use publish_plane")
        for shard_id, piece in updates.items():
            known = current.slices.get(shard_id)
            if known is None or known.queries != piece.queries:
                raise ValueError(
                    "per-shard publish cannot change the shard's query set; "
                    "publish a full plane instead"
                )
        if multibipartite is None:
            multibipartite = current.multibipartite
        if epoch_id is None:
            epoch_id = self._generation + 1
        slices = {**current.slices, **updates}
        homed = [
            query
            for query in current.hot_queries or ()
            if self._plan.shard_of(query) in updates
        ]
        hot_table = (
            self._compute_hot_table(
                ShardedExpander(self._plan, slices=slices),
                multibipartite,
                homed,
            )
            if homed
            else None
        )
        fresh = self._publish_shard_stores(
            updates, epoch_id, hot_table, multibipartite
        )
        hot = current.hot
        if isinstance(hot, _ShardedHotView):
            hot = hot.updated(self._verified_shard_hot(fresh, hot_table))
        return replace(
            current,
            graph={**current.graph, **fresh},
            multibipartite=multibipartite,
            slices=slices,
            hot=hot,
        )

    def _with_profiles(
        self,
        current: _Generation,
        arrays: ProfileArrays,
        generation: int | None = None,
    ) -> _Generation:
        """*current* with *arrays* packed as its profile plane.

        *generation* defaults to the one after the current profile
        generation.
        """
        if generation is None:
            generation = current.profile_generation + 1
        store = SharedProfileStore.publish(
            arrays, prefix=self._prefix, generation=generation
        )
        return replace(
            current, profiles=store, profiled_users=frozenset(arrays.users)
        )

    def _check_workers_alive(self) -> None:
        dead = [
            f"{process.name} (exit {process.exitcode})"
            for process in self._workers
            if process.exitcode is not None
        ]
        if dead:
            raise RuntimeError(f"worker process died: {', '.join(dead)}")

    def _collect(self, kind: str, tag: int, timeout: float) -> dict[int, dict]:
        """One ``(kind, tag)`` reply per worker from the ack queue.

        The pool's one reply-collection loop (start-up ``ready``, ``gen``
        acks and ``stats`` replies).  It waits in slices of at most a
        second and checks worker liveness between slices, so a dead
        worker raises a ``RuntimeError`` naming it within about a second
        instead of stalling the caller for the whole *timeout*.  Replies
        with another kind or tag (late ones from an earlier, failed
        round) are dropped.
        """
        deadline = time.monotonic() + timeout
        replies: dict[int, dict] = {}
        while len(replies) < self._n_workers:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise TimeoutError(
                    f"only {len(replies)}/{self._n_workers} workers replied "
                    f"to {kind} {tag} within {timeout:.0f}s"
                )
            try:
                got_kind, worker_id, got_tag, payload = self._ack_queue.get(
                    timeout=min(remaining, 1.0)
                )
            except queue_module.Empty:
                self._check_workers_alive()
                continue
            if got_kind == kind and got_tag == tag:
                replies[worker_id] = payload
        return replies

    # -- properties --------------------------------------------------------------

    @property
    def n_workers(self) -> int:
        """Worker process count."""
        return self._n_workers

    @property
    def generation(self) -> int:
        """Current generation (bumped by each publish)."""
        return self._generation

    @property
    def n_shards(self) -> int:
        """Shards of the current plan (0 = the single-segment plane)."""
        return self._plan.n_shards if self._plan is not None else 0

    @property
    def shard_plan(self) -> ShardPlan | None:
        """The shard plan (``None`` when serving the unsharded plane)."""
        return self._plan

    def _shard_stores(self) -> list:
        """Sorted ``(shard id, store)`` pairs (empty when unsharded)."""
        if self._plan is None:
            return []
        return sorted(self._current.graph.items())

    @property
    def segment_name(self) -> str:
        """Name of the current generation's segment (shard 0 if sharded)."""
        graph = self._current.graph
        return graph[min(graph)].segment_name

    @property
    def segment_bytes(self) -> int:
        """Bytes of the current shared segment(s), summed across shards."""
        return sum(store.total_bytes for store in self._current.graph.values())

    @property
    def shard_segment_bytes(self) -> dict[int, int]:
        """Per-shard segment sizes (empty when unsharded)."""
        return {
            shard_id: store.total_bytes
            for shard_id, store in self._shard_stores()
        }

    @property
    def shard_epoch_ids(self) -> dict[int, int]:
        """Per-shard epoch ordinals (empty when unsharded)."""
        return {
            shard_id: store.meta.epoch_id
            for shard_id, store in self._shard_stores()
        }

    @property
    def ready_info(self) -> dict[int, dict]:
        """Per-worker attach facts gathered at startup (pid, timings, rss)."""
        return dict(self._ready_info)

    @property
    def queue_depth(self) -> int:
        """Requests dispatched to workers and not yet replied, right now.

        The exact number behind the ``serve.pool.queue_depth`` gauge —
        the admission-control signal the HTTP front-end divides by
        :attr:`n_workers` to pick a shed tier.  Available without a
        registry attached.
        """
        with self._pending_lock:
            return sum(p.outstanding for p in self._pending.values())

    @property
    def hot_entries(self) -> int:
        """Entries in the current generation's hot table (0 = tier off)."""
        hot = self._current.hot
        return len(hot) if hot is not None else 0

    @property
    def hot_hits(self) -> int:
        """Requests answered O(1) from the hot table since startup."""
        return self._hot_hits_total

    @property
    def serves_profiles(self) -> bool:
        """Whether a shared profile plane is attached to the workers."""
        return self._current.profiles is not None

    @property
    def profile_generation(self) -> int:
        """Current profile generation (bumped by each profile publish)."""
        return self._current.profile_generation

    @property
    def profile_users(self) -> int:
        """Profiled users in the current profile generation."""
        return len(self._current.profiled_users)

    @property
    def profile_segment_name(self) -> str | None:
        """Name of the current profile segment (``None`` without profiles)."""
        store = self._current.profiles
        return store.segment_name if store is not None else None

    @property
    def profile_segment_bytes(self) -> int:
        """Bytes of the current profile segment (0 without profiles)."""
        store = self._current.profiles
        return store.total_bytes if store is not None else 0

    # -- construction helpers ----------------------------------------------------

    @classmethod
    def from_suggester(
        cls, suggester: PQSDA, n_workers: int = 2, **kwargs
    ) -> "SuggestWorkerPool":
        """Pool serving the same representation as a built *suggester*.

        A profile-bearing suggester's store is packed into the shared
        profile plane (see :mod:`repro.serve.profile_plane`), so pooled
        personalized rankings stay bit-identical to the single-process
        path; pass ``profiles=None`` in *kwargs* to explicitly serve it
        unpersonalized instead.
        """
        kwargs.setdefault("profiles", suggester.profiles)
        return cls(
            suggester.expander,
            suggester.config,
            multibipartite=suggester.representation,
            n_workers=n_workers,
            **kwargs,
        )

    # -- request path ------------------------------------------------------------

    def _route(self, query: str) -> int:
        """Stable query-hash routing: repeats hit the same worker's cache.

        Sharded pools compose the same crc32 hash with the shard map:
        the query's home shard picks the worker stripe that eagerly
        attached it, so nearly every request is served intra-shard (a
        walk only spills when its graph neighbourhood crosses shards).
        """
        normalized = normalize_query(query)
        crc = zlib.crc32(normalized.encode("utf-8"))
        if self._plan is None:
            return crc % self._n_workers
        return _shard_route(
            self._plan.shard_of(normalized),
            crc,
            self._n_workers,
            self._plan.n_shards,
        )

    def _personalizes(
        self, user_id: str | None, profiled_users: frozenset[str]
    ) -> bool:
        """Whether workers would Borda-fuse a request of *user_id*.

        Mirrors the worker-side gate in ``PQSDA.suggest`` exactly
        (personalization on, profile plane attached, user profiled), so
        the parent's hot tier only answers requests whose worker result
        would equal the unpersonalized precomputed ranking.
        """
        return (
            user_id is not None
            and self._config.personalize
            and user_id in profiled_users
        )

    def suggest_many(
        self,
        requests: Sequence[SuggestRequest],
        return_errors: bool = False,
    ) -> list:
        """Suggestions for *requests*, in order (``suggest_batch`` semantics).

        Context-free requests whose query sits in the hot table are
        answered O(1) in this process; the rest are grouped by route and
        sent as one envelope per worker (one reply envelope comes back
        per batch).  Thread-safe and genuinely concurrent: overlapping
        calls from different threads dispatch independently and each
        waits only on its own batch — the reply-dispatcher thread
        correlates envelopes by batch id, so one slow batch never stalls
        another caller.

        Error semantics: with the default ``return_errors=False`` a
        worker-side exception re-raises here with the worker traceback
        attached (first error wins) — the single-caller behavior.  With
        ``return_errors=True`` each failed request's slot carries a
        :class:`SuggestError` instead, and every sibling result that the
        batch did compute is returned — the per-request contract the HTTP
        front-end maps to per-request 500s.  A dead worker raises
        ``RuntimeError`` naming it instead of a generic timeout.  Reply
        envelopes from a previously timed-out batch are drained by
        batch-id mismatch, so a timeout cannot corrupt subsequent calls.
        """
        requests = list(requests)
        if not requests:
            return []
        if self._closed:
            raise RuntimeError("pool is closed")
        self._m_requests.inc(len(requests))
        results: list = [None] * len(requests)
        current = self._current
        hot = current.hot
        by_worker: dict[int, list[int]] = {}
        hot_hits = 0
        for position, request in enumerate(requests):
            # The hot entry was precomputed without a context and
            # without personalization; the ranking is k- and
            # timestamp-independent (timestamps only weight context
            # records), so no-context hits of any k are exact —
            # *except* for profiled users, whose worker-side ranking
            # is Borda-fused with their preference scores.  A hot hit
            # for them would silently drop the fusion, so profiled
            # requests always take the worker path.  (Shed tiers don't
            # gate hot hits: a hit is O(1) either way, and its full
            # ranking's head equals — or beats — any degraded tier's.)
            if (
                hot is not None
                and not request.context
                and not self._personalizes(
                    request.user_id, current.profiled_users
                )
            ):
                ranking = hot.lookup(normalize_query(request.query))
                if ranking is not None:
                    results[position] = ranking[: request.k]
                    hot_hits += 1
                    continue
            by_worker.setdefault(
                self._route(request.query), []
            ).append(position)
        if hot_hits:
            with self._pending_lock:
                self._hot_hits_total += hot_hits
            self._m_hot_hits.inc(hot_hits)
        if not by_worker:
            return results
        outstanding = sum(len(p) for p in by_worker.values())
        pending = _PendingBatch(by_worker, outstanding)
        with self._pending_lock:
            batch_id = self._next_batch_id
            self._next_batch_id += 1
            self._pending[batch_id] = pending
        self._m_depth.inc(outstanding)
        try:
            for worker_id, positions in by_worker.items():
                envelope = [
                    _encode_request(requests[position])
                    for position in positions
                ]
                self._m_batch_size.observe(len(envelope))
                self._request_queues[worker_id].put(
                    ("batch", batch_id, envelope)
                )
            deadline = time.monotonic() + self._ack_timeout
            while not pending.event.is_set():
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    missing = pending.expected - set(pending.replies)
                    raise TimeoutError(
                        f"{len(missing)} worker batch replies "
                        f"({pending.outstanding} requests) outstanding "
                        f"after {self._ack_timeout:.0f}s"
                    )
                if not pending.event.wait(timeout=min(remaining, 1.0)):
                    # A dead worker can never reply — report it by
                    # name instead of timing out anonymously.
                    self._check_workers_alive()
            for worker_id, positions in by_worker.items():
                replies = pending.replies[worker_id]
                for position, (result, error) in zip(positions, replies):
                    if error is None:
                        results[position] = result
                    elif return_errors:
                        results[position] = SuggestError(worker_id, error)
                    else:
                        raise RuntimeError(
                            f"worker {worker_id} failed:\n{error}"
                        )
            return results
        finally:
            # Deregister (late envelopes for this batch drain as stale)
            # and settle the depth gauge exactly: whatever the dispatcher
            # never drained (timeout/error path) comes off here, nothing
            # else — the dispatcher and this finally split the decrement
            # under the same lock, so they can never both count a reply.
            with self._pending_lock:
                self._pending.pop(batch_id, None)
                undrained = pending.outstanding
                pending.outstanding = 0
            if undrained:
                self._m_depth.dec(undrained)

    def suggest(
        self,
        query: str,
        k: int = 10,
        user_id: str | None = None,
        context=(),
        timestamp: float = 0.0,
    ) -> list[str]:
        """Single-request convenience over :meth:`suggest_many`."""
        request = SuggestRequest(
            query=query,
            k=k,
            user_id=user_id,
            context=tuple(context),
            timestamp=timestamp,
        )
        return self.suggest_many([request])[0]

    # -- generation handshake ----------------------------------------------------

    def _publish(self, *steps) -> None:
        """Build the next generation with *steps*; swap every worker onto it.

        The pool's one swap path.  Each step maps the generation being
        built to its successor (see the ``_with_*`` builders).  One
        ``gen`` message carrying the resulting manifest goes down every
        request queue; once every worker has acked, the new generation is
        committed with one assignment and the superseded segments are
        unlinked.  If a step, an ack or a worker fails, the fresh
        segments are unlinked instead and the pool keeps its current
        generation.
        """
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            current = successor = self._current
            generation = self._generation + 1
            try:
                for step in steps:
                    successor = step(successor)
                message = ("gen", generation, *self._manifest(successor))
                for request_queue in self._request_queues:
                    request_queue.put(message)
                acks = self._collect("gen", generation, self._ack_timeout)
                errors = [
                    f"worker {worker_id}: {info['error']}"
                    for worker_id, info in sorted(acks.items())
                    if info["error"]
                ]
                if errors:
                    raise RuntimeError(
                        "generation swap failed:\n" + "\n".join(errors)
                    )
            except BaseException:
                _release(_fresh(successor, current))
                raise
            # Every worker acked: nobody can still be serving from the
            # superseded segments, so removing them is safe now and not a
            # moment before.
            self._current = successor
            self._generation = generation
            _release(_fresh(current, successor))
            self._m_generations.inc()
            for info in acks.values():
                self._m_swap.observe(info["swap_seconds"])
            if successor.profiles is not current.profiles:
                self._m_profile_swaps.inc()
                self._m_profile_users.set(len(successor.profiled_users))
            swapped = [
                shard_id
                for shard_id, store in self._shard_stores()
                if store is not current.graph[shard_id]
            ]
            if len(swapped) < self.n_shards:
                self._m_shard_swaps.inc(len(swapped))
                for shard_id in swapped:
                    self._registry.counter(
                        "serve.shard.swaps", labels={"shard": str(shard_id)}
                    ).inc()

    def publish_plane(
        self,
        expander: RandomWalkExpander,
        multibipartite=None,
        epoch_id: int | None = None,
        hot_queries: Sequence[str] | None = None,
    ) -> None:
        """Publish the next graph plane and swap every worker onto it.

        Shares *expander*'s matrices as fresh segment(s) and moves every
        worker onto them through the one generation swap (workers flush
        their compact caches).  The hot-query table is rebuilt against
        the new plane — from *hot_queries* when given, else from the
        pool's current head list — and swaps with it.
        """
        self._publish(
            partial(
                self._with_graph,
                expander=expander,
                multibipartite=multibipartite,
                epoch_id=epoch_id,
                hot_queries=hot_queries,
            )
        )

    def publish_shard(
        self,
        piece: ShardSlice,
        epoch_id: int | None = None,
        multibipartite=None,
    ) -> None:
        """Publish ONE shard's next segment and swap every worker onto it.

        Only that shard's segment is repacked; workers holding it remap
        it in place, every other shard's segment, its hot entries and the
        profile plane stay as they are.  Per-shard publishes must keep the
        shard's query set (``ValueError`` otherwise): new queries
        renumber the global ordinal space, so deltas carrying them take
        :meth:`publish_plane` / :meth:`publish_epoch` instead.
        """
        self._publish(
            partial(
                self._with_shards,
                updates={piece.shard_id: piece},
                epoch_id=epoch_id,
                multibipartite=multibipartite,
            )
        )

    def publish_profiles(
        self,
        profiles: UserProfileStore | ArrayProfileStore | ProfileArrays,
        generation: int | None = None,
    ) -> None:
        """Publish the next profile generation and swap every worker onto it.

        The profile plane is packed into a fresh segment and moved through
        the one generation swap; the graph segments stay as they are.  A
        pool started without profiles can be upgraded by a first
        ``publish_profiles`` call (workers bind the store and start
        Borda-fusing profiled requests; *config.personalize* must be on
        for the fusion gate to open).
        """
        arrays = _profile_arrays(profiles)
        self._publish(
            partial(self._with_profiles, arrays=arrays, generation=generation)
        )

    def publish_epoch(self, epoch) -> None:
        """Swap the pool onto a streaming :class:`~repro.stream.epoch.Epoch`.

        The epoch's graph and the profile generation it may carry
        (``epoch.profiles`` — see :class:`repro.stream.ingest.LogIngestor`)
        move in **one** generation swap, so no request is ever ranked
        against the new graph with the old profiles.  With ``hot_top``
        configured, the head list is re-extracted from the epoch's
        cumulative log (traffic drifts; yesterday's head is not today's)
        before the table is rebuilt.

        Sharded pools repack only the touched shards when the epoch
        carries ``shard_updates`` under the same plan (the streaming
        layer produces them for deltas that add no queries); every
        untouched shard's segment — and hot partition — survives as-is.
        Epochs without per-shard updates (new queries, plan mismatch,
        unsharded ingestion) repack the whole graph plane.
        """
        hot_queries = None
        if self._hot_top > 0:
            hot_queries = epoch.head_queries(self._hot_top)
        shard_updates = getattr(epoch, "shard_updates", None)
        if (
            self._plan is not None
            and shard_updates is not None
            and getattr(epoch, "shard_plan", None) == self._plan
            and hot_queries is None
        ):
            steps = [
                partial(
                    self._with_shards,
                    updates=shard_updates,
                    epoch_id=epoch.epoch_id,
                    multibipartite=epoch.multibipartite,
                )
            ]
        else:
            steps = [
                partial(
                    self._with_graph,
                    expander=epoch.expander,
                    multibipartite=epoch.multibipartite,
                    epoch_id=epoch.epoch_id,
                    hot_queries=hot_queries,
                )
            ]
        profiles = getattr(epoch, "profiles", None)
        if profiles is not None:
            steps.append(
                partial(self._with_profiles, arrays=_profile_arrays(profiles))
            )
        self._publish(*steps)

    def attach_epochs(self, manager) -> None:
        """Republish to the workers after every epoch-manager publish."""
        manager.subscribe(self.publish_epoch)

    # -- introspection -----------------------------------------------------------

    def _stats_payloads(self) -> dict[int, dict]:
        """One stats round-trip to every worker."""
        if self._closed:
            raise RuntimeError("pool is closed")
        with self._control_lock:
            token = self._next_token
            self._next_token += 1
            for request_queue in self._request_queues:
                request_queue.put(("stats", token))
            return self._collect("stats", token, self._ack_timeout)

    def stats(self) -> PoolStats:
        """Live per-worker counters, one round-trip to every worker."""
        payloads = self._stats_payloads()
        workers = tuple(
            WorkerStats(
                worker_id=worker_id,
                pid=payload["pid"],
                requests=payload["requests"],
                busy_seconds=payload["busy_seconds"],
                uptime_seconds=payload["uptime_seconds"],
                qps=(
                    payload["requests"] / payload["uptime_seconds"]
                    if payload["uptime_seconds"] > 0
                    else 0.0
                ),
                generation=payload["generation"],
                epoch_id=payload["epoch_id"],
                rss_kb=payload["rss_kb"],
                shares_memory=payload["shares_memory"],
                cache=CacheStats(**payload["cache"]),
                profile_generation=payload["profile_generation"],
                profile_users=payload["profile_users"],
                profile_shares_memory=payload["profile_shares_memory"],
                spill=payload["spill"],
            )
            for worker_id, payload in sorted(payloads.items())
        )
        current = self._current
        return PoolStats(
            n_workers=self._n_workers,
            generation=self._generation,
            epoch_id=max(
                store.meta.epoch_id for store in current.graph.values()
            ),
            segment_bytes=self.segment_bytes,
            workers=workers,
            hot_entries=self.hot_entries,
            hot_hits=self._hot_hits_total,
            profile_users=len(current.profiled_users),
            profile_generation=current.profile_generation,
            profile_segment_bytes=self.profile_segment_bytes,
            n_shards=self.n_shards,
            shard_segment_bytes=tuple(self.shard_segment_bytes.values()),
            shard_epoch_ids=tuple(self.shard_epoch_ids.values()),
        )

    def merged_metrics(self) -> dict:
        """Pool + per-worker metric snapshots as one deterministic view.

        Worker metrics carry a ``worker=<id>`` label; pool-level metrics
        (queue depth, request counter, attach/swap histograms) come from
        the pool's own registry.  Entries are sorted by (name, labels),
        matching :meth:`~repro.obs.registry.MetricsRegistry.snapshot`.
        """
        payloads = self._stats_payloads()
        merged: list[dict] = []
        for worker_id, payload in sorted(payloads.items()):
            for entry in payload["snapshot"]["metrics"]:
                entry = dict(entry)
                labels = dict(entry.get("labels", {}))
                labels["worker"] = str(worker_id)
                entry["labels"] = labels
                merged.append(entry)
        if self._registry is not NULL_REGISTRY:
            merged.extend(self._registry.snapshot()["metrics"])
        merged.sort(
            key=lambda entry: (
                entry["name"],
                sorted(entry.get("labels", {}).items()),
            )
        )
        return {"metrics": merged}

    # -- lifecycle ---------------------------------------------------------------

    def close(self, join_timeout: float = 30.0) -> None:
        """Stop the workers and unlink the current segments (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for request_queue in self._request_queues:
            try:
                request_queue.put(("stop",))
            except Exception:  # pragma: no cover - queue already broken
                pass
        for process in self._workers:
            process.join(timeout=join_timeout)
            if process.is_alive():  # pragma: no cover - hung worker
                process.terminate()
                process.join(timeout=5.0)
        self._dispatcher_stop.set()
        if self._dispatcher is not None and self._dispatcher.is_alive():
            self._dispatcher.join(timeout=5.0)
        _release(self._current.stores)

    def __enter__(self) -> "SuggestWorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
