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
    ``PQSDA.suggest``.  Reply envelopes are tagged with
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

Parent answer memo
    A context-free, unpersonalized ranking depends only on the normalized
    query and the graph generation, never on the request's ``k``
    (``suggest`` slices ``ranking[:k]``).  So each graph generation
    carries one parent-side memo, ``normalized query -> full diversified
    ranking``, that answers such requests in the parent at any ``k`` and
    any shed tier without a worker round trip.  It is seeded at publish
    with the precomputed rankings of ``hot_queries`` (or ``hot_top`` head
    queries per epoch) and filled from worker replies to context-free,
    tier-0 requests of anonymous or unprofiled users with
    ``k >= diversify.k``, whose reply is the full ranking.  Requests with
    a context or from a profiled user (whose ranking is Borda-fused with
    preference scores) always take the worker path.  Reply envelopes
    carry the generation they were computed under, and a reply fills
    only the memo of the generation its batch was dispatched under, so a
    batch that straddles a swap is answered but never cached.  The memo
    is an LRU of ``config.cache_size * n_workers`` entries; a graph
    publish starts a fresh one, so no answer outlives its generation.

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
    A serving generation is a **manifest**: its graph segment plus its
    profile segment.  Every publish
    (:meth:`~SuggestWorkerPool.publish_plane`,
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
from collections import OrderedDict
from dataclasses import asdict, dataclass, replace
from functools import partial
from multiprocessing import get_context
from typing import Sequence

from repro.baselines.base import SuggestRequest
from repro.core.config import PQSDAConfig
from repro.core.serving import CacheStats
from repro.core.suggester import PQSDA
from repro.graphs.compact import RandomWalkExpander
from repro.logs.schema import QueryRecord
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.personalize.profiles import ArrayProfileStore, ProfileArrays
from repro.serve.profile_plane import (
    AttachedProfilePlane,
    SharedProfileMeta,
    SharedProfileStore,
)
from repro.serve.shm import (
    AttachedPlane,
    SharedMatrixStore,
    SharedPlaneMeta,
    SharedRepresentation,
)
from repro.utils.text import normalize_query

__all__ = [
    "PoolStats",
    "SuggestError",
    "SuggestWorkerPool",
    "WorkerStats",
]

#: Batch-size histogram bounds (requests per worker envelope).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


class _AnswerMemo:
    """Thread-safe LRU map: normalized query -> full diversified ranking."""

    __slots__ = ("_entries", "_lock", "_maxsize")

    def __init__(
        self, maxsize: int, seed: dict[str, list[str]] | None = None
    ) -> None:
        self._entries: OrderedDict[str, list[str]] = OrderedDict()
        self._lock = threading.Lock()
        self._maxsize = maxsize
        # Hottest last, so the head is the last to be evicted.
        for query, ranking in reversed(list((seed or {}).items())):
            self.put(query, ranking)

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, query: str) -> list[str] | None:
        """The ranking memoized for *query* (marked recent), or ``None``."""
        with self._lock:
            ranking = self._entries.get(query)
            if ranking is not None:
                self._entries.move_to_end(query)
            return ranking

    def put(self, query: str, ranking: list[str]) -> None:
        """Memoize *ranking* for *query*, evicting the least recent entry."""
        with self._lock:
            self._entries[query] = ranking
            self._entries.move_to_end(query)
            if len(self._entries) > self._maxsize:
                self._entries.popitem(last=False)


@dataclass(frozen=True)
class _Generation:
    """The parent's state of one serving generation, swapped as a unit.

    ``graph`` and ``profiles`` are the generation's **manifest**: the
    shared-memory segments workers attach.  The other fields are what the
    parent serves and publishes against while the generation is current;
    ``number`` is the ordinal workers report back in their replies.  A
    publish derives the successor with :func:`dataclasses.replace` and
    commits it with one reference assignment.  ``memo`` belongs to the
    graph: a profile-only publish keeps it, because anonymous rankings
    never read profiles.
    """

    number: int
    graph: SharedMatrixStore | None
    profiles: SharedProfileStore | None
    multibipartite: object
    hot_queries: list[str] | None
    profiled_users: frozenset[str]
    memo: _AnswerMemo

    @property
    def stores(self) -> list:
        """Every segment store of the manifest."""
        return [
            store for store in (self.graph, self.profiles) if store is not None
        ]

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

    *graph* and *profile_meta* are the bootstrap manifest.

    The loop is strictly serial, which is the torn-view guarantee: a
    ``gen`` message is only ever handled between two requests, so every
    request runs start-to-finish against exactly one generation's views.
    """
    started = time.perf_counter()
    # multiprocessing children (spawn and fork alike, on POSIX) inherit the
    # publisher's resource_tracker fd, so attach-time registrations land in
    # the publisher's registry where they are idempotent — no untracking.
    attach_start = time.perf_counter()
    plane = AttachedPlane(graph)
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
                reply_queue.put(
                    ("bres", batch_id, worker_id, generation, replies)
                )
            elif kind == "gen":
                # Move onto the next manifest, remapping only the segments
                # whose name changed; the publisher unlinks the superseded
                # ones only after every worker's ack.
                _, new_generation, new_graph, new_profile_meta = message
                swap_start = time.perf_counter()
                error = None
                try:
                    if new_graph.segment != graph.segment:
                        moved = AttachedPlane(new_graph)
                        pqsda.rebind_representation(
                            moved.representation, moved.expander
                        )
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
        hot_entries: Entries in the current generation's answer memo.
        hot_hits: Requests the parent answered from its answer memo since
            the pool started — these never reached a worker, so they are
            *not* part of any worker's ``requests`` count.
        profile_users: Profiled users in the current profile generation
            (0 = the pool serves without the profile plane).
        profile_generation: Current profile generation ordinal.
        profile_segment_bytes: Bytes of the current profile segment.
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

    @property
    def total_requests(self) -> int:
        """Requests served by the pool (worker batches + parent memo hits)."""
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
        profiles: Profile store whose arrays are published as the shared
            profile plane.  Workers attach zero-copy scorers
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
        hot_queries: Head queries whose rankings are precomputed at each
            graph publish to seed the generation's answer memo
            (``None``/empty = the memo starts empty).  Use
            :func:`repro.core.suggester.head_queries` to extract them
            from a log by frequency.
        hot_top: When > 0 and the pool is wired to an epoch manager,
            every epoch publish re-derives ``hot_top`` head queries from
            the epoch's log and precomputes them against the new
            generation (explicit ``hot_queries`` seed the memo until the
            first epoch arrives).

    Use as a context manager (or call :meth:`close`): shutdown stops the
    workers and unlinks the current segments, leaving nothing in
    ``/dev/shm``.
    """

    def __init__(
        self,
        expander: RandomWalkExpander,
        config: PQSDAConfig,
        multibipartite=None,
        profiles: ArrayProfileStore | None = None,
        n_workers: int = 2,
        registry=None,
        start_method: str = "spawn",
        ready_timeout: float = 120.0,
        ack_timeout: float = 120.0,
        prefix: str = "pqsda",
        hot_queries: Sequence[str] | None = None,
        hot_top: int = 0,
    ) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self._n_workers = n_workers
        self._config = config
        self._ack_timeout = ack_timeout
        self._prefix = prefix
        self._closed = False
        self._memo_size = config.cache_size * n_workers
        self._hot_top = hot_top
        self._hot_hits_total = 0

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
            number=0,
            graph=None,
            profiles=None,
            multibipartite=multibipartite,
            hot_queries=list(hot_queries) if hot_queries else None,
            profiled_users=frozenset(),
            memo=_AnswerMemo(self._memo_size),
        )
        try:
            self._current = self._with_graph(
                self._current, expander, epoch_id=0
            )
            if profiles is not None:
                arrays = profiles.arrays
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
        generation, replies)`` envelope is matched to its
        :class:`_PendingBatch` by id and recorded with the generation it
        was computed under; the batch's waiter is woken only when every
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
            _, batch_id, worker_id, generation, replies = message
            done = False
            with self._pending_lock:
                pending = self._pending.get(batch_id)
                if pending is None or worker_id not in pending.expected:
                    # Stale envelope from a batch that timed out (and was
                    # deregistered) in an earlier call: drain, never match.
                    continue
                pending.replies[worker_id] = (generation, replies)
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
        exactly the representation being published, so an entry is the
        ranking a worker would compute.  At most the memo's bound of
        distinct queries are computed, hottest first.
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
            if len(table) == self._memo_size:
                break
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
        """What workers attach for *generation*: (graph meta, profile meta)."""
        store = generation.profiles
        return generation.graph.meta, store.meta if store is not None else None

    def _with_graph(
        self,
        current: _Generation,
        expander: RandomWalkExpander,
        multibipartite=None,
        epoch_id: int | None = None,
        hot_queries: Sequence[str] | None = None,
    ) -> _Generation:
        """*current* with a freshly packed graph plane and a fresh memo.

        *multibipartite* and *hot_queries* default to the current ones,
        *epoch_id* to the generation being published.  The memo is
        seeded with the hot rankings precomputed against exactly the
        plane being packed, and swaps with it, so no request ever gets a
        memoized answer from a superseded graph.
        """
        if multibipartite is None:
            multibipartite = current.multibipartite
        if epoch_id is None:
            epoch_id = current.number
        if hot_queries is None:
            hot_queries = current.hot_queries
        else:
            hot_queries = list(hot_queries)
        hot_table = self._compute_hot_table(
            expander, multibipartite, hot_queries
        )
        store = SharedMatrixStore.publish(
            expander.matrices,
            expander,
            multibipartite,
            epoch_id=epoch_id,
            prefix=self._prefix,
        )
        return replace(
            current,
            graph=store,
            multibipartite=multibipartite,
            hot_queries=hot_queries,
            memo=_AnswerMemo(self._memo_size, hot_table),
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
        return self._current.number

    @property
    def segment_name(self) -> str:
        """Name of the current generation's graph segment."""
        return self._current.graph.segment_name

    @property
    def segment_bytes(self) -> int:
        """Bytes of the current graph segment."""
        return self._current.graph.total_bytes

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
        """Entries in the current generation's answer memo."""
        return len(self._current.memo)

    @property
    def hot_hits(self) -> int:
        """Requests answered from the parent's answer memo since startup."""
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
        """Stable query-hash routing: repeats hit the same worker's cache."""
        normalized = normalize_query(query)
        return zlib.crc32(normalized.encode("utf-8")) % self._n_workers

    def _personalizes(
        self, user_id: str | None, profiled_users: frozenset[str]
    ) -> bool:
        """Whether workers would Borda-fuse a request of *user_id*.

        Mirrors the worker-side gate in ``PQSDA.suggest`` exactly
        (personalization on, profile plane attached, user profiled), so
        the parent's answer memo only holds and answers requests whose
        worker result is the unpersonalized ranking.
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

        Context-free requests of anonymous or unprofiled users whose
        query sits in the current generation's answer memo are answered
        in this process; the rest are grouped by route and sent as one
        envelope per worker (one reply envelope comes back per batch),
        and their full-ranking replies fill the memo.  Thread-safe and
        genuinely concurrent: overlapping calls from different threads
        dispatch independently and each waits only on its own batch —
        the reply-dispatcher thread correlates envelopes by batch id, so
        one slow batch never stalls another caller.

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
        memo = current.memo
        full_k = self._config.diversify.k
        by_worker: dict[int, list[int]] = {}
        fills: dict[int, str] = {}
        hot_hits = 0
        for position, request in enumerate(requests):
            # Without a context the ranking is k- and
            # timestamp-independent (timestamps only weight context
            # records), so memo hits of any k are exact — *except* for
            # profiled users, whose worker-side ranking is Borda-fused
            # with their preference scores; they always take the worker
            # path.  (Shed tiers don't gate hits: a hit is cheaper than
            # any tier, and its full ranking's head equals — or beats —
            # any degraded tier's.)
            if not request.context and not self._personalizes(
                request.user_id, current.profiled_users
            ):
                normalized = normalize_query(request.query)
                ranking = memo.get(normalized)
                if ranking is not None:
                    results[position] = ranking[: request.k]
                    hot_hits += 1
                    continue
                # Only a full-service reply of at least diversify.k
                # suggestions is the whole ranking.
                if request.shed == 0 and request.k >= full_k:
                    fills[position] = normalized
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
                computed_under, replies = pending.replies[worker_id]
                # The straddle rule: a reply computed under another
                # generation than the batch's is answered, never memoized.
                fill = computed_under == current.number
                for position, (result, error) in zip(positions, replies):
                    if error is None:
                        results[position] = result
                        if fill and position in fills:
                            memo.put(fills[position], list(result))
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
            current = self._current
            generation = current.number + 1
            successor = replace(current, number=generation)
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
            _release(_fresh(current, successor))
            self._m_generations.inc()
            for info in acks.values():
                self._m_swap.observe(info["swap_seconds"])
            if successor.profiles is not current.profiles:
                self._m_profile_swaps.inc()
                self._m_profile_users.set(len(successor.profiled_users))

    def publish_plane(
        self,
        expander: RandomWalkExpander,
        multibipartite=None,
        epoch_id: int | None = None,
        hot_queries: Sequence[str] | None = None,
    ) -> None:
        """Publish the next graph plane and swap every worker onto it.

        Shares *expander*'s matrices as a fresh segment and moves every
        worker onto them through the one generation swap (workers flush
        their compact caches).  The new generation's answer memo is
        seeded from *hot_queries* when given, else from the pool's
        current head list, precomputed against the new plane.
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

    def publish_profiles(
        self,
        profiles: ArrayProfileStore,
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
        self._publish(
            partial(
                self._with_profiles,
                arrays=profiles.arrays,
                generation=generation,
            )
        )

    def publish_epoch(self, epoch) -> None:
        """Swap the pool onto a streaming :class:`~repro.stream.epoch.Epoch`.

        The epoch's graph and the profile generation it may carry
        (``epoch.profiles`` — see :class:`repro.stream.ingest.LogIngestor`)
        move in **one** generation swap, so no request is ever ranked
        against the new graph with the old profiles.  With ``hot_top``
        configured, the head list that seeds the new answer memo is
        re-extracted from the epoch's cumulative log (traffic drifts;
        yesterday's head is not today's).
        """
        hot_queries = None
        if self._hot_top > 0:
            hot_queries = epoch.head_queries(self._hot_top)
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
                partial(self._with_profiles, arrays=profiles.arrays)
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
            )
            for worker_id, payload in sorted(payloads.items())
        )
        current = self._current
        return PoolStats(
            n_workers=self._n_workers,
            generation=current.number,
            epoch_id=current.graph.meta.epoch_id,
            segment_bytes=current.graph.total_bytes,
            workers=workers,
            hot_entries=len(current.memo),
            hot_hits=self._hot_hits_total,
            profile_users=len(current.profiled_users),
            profile_generation=current.profile_generation,
            profile_segment_bytes=self.profile_segment_bytes,
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
