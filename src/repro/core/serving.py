"""Online-serving primitives: compact-entry caching and request batching.

The first layer of a real serving stack on top of the PQS-DA pipeline.
Per-request work is sliced out of precomputed full-graph structures
(:meth:`repro.graphs.matrices.BipartiteMatrices.restrict`), and the result
— expanded neighbourhood, compact matrices, Eq. 15 solver, cross-bipartite
walker — is held in an LRU :class:`CompactCache` keyed by the walk's seed
set and the configs that shape the entry, so bursty or repeated traffic
pays the expansion once.

The cache is thread-safe: :meth:`CompactCache.get` may be called
concurrently from the worker pool behind ``Suggester.suggest_batch``.
Entry construction is deterministic, so two threads racing on the same key
build identical entries and the loser's work is simply discarded.

Each entry also carries a **ranking memo** (``CompactEntry.rankings``):
the full-service, context-free Algorithm 1 output computed on it, so a
repeated bare query skips the Eq. 15 solve and the hitting-time walk on
a cache hit.  The memo has two slots, keyed by whether the input query
is in the graph, so its size never depends on request text.  The memo
is part of the entry, so every rule below that drops or refuses an
entry drops its memo too.  Racing writers store identical values (the
computation is deterministic), so the memo needs no lock of its own.

**Bound-expander invariant.**  The cache serves exactly one epoch: the
expander it is bound to.  :meth:`CompactCache.rebind` moves it onto the
next epoch and drops every entry, memos included — expansion is a global
walk over cfiqf weights that every new record rescales, so any epoch can
change any cached neighbourhood.  ``get`` reads and inserts only for the
bound expander: a request pinned to any other epoch builds its entry
without caching it, and a build that straddles a rebind (entry builds
run outside the lock) is served to its own caller but **never
inserted**.  Both are counted in ``CacheStats.stale_discards``.

Attach a :class:`~repro.obs.registry.MetricsRegistry` via
:meth:`CompactCache.attach_metrics` to mirror the counters into the
observability layer (``serving.cache.*``); the default binding is the
no-op null registry.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.diversify.candidates import DiversifiedSuggestions
from repro.diversify.cross_bipartite import CrossBipartiteWalker, SwitchMatrix
from repro.diversify.regularization import RegularizationConfig, RelevanceSolver
from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.matrices import BipartiteMatrices
from repro.obs.registry import NULL_REGISTRY

__all__ = [
    "CacheStats",
    "CompactCache",
    "CompactEntry",
    "FULL_SERVICE",
    "ShedOptions",
    "cache_key",
]


@dataclass(frozen=True, slots=True)
class ShedOptions:
    """Per-request degraded-service flags (the load-shedding tiers).

    An overloaded front-end keeps answering by dropping the most
    expensive pipeline stages first instead of queueing requests into
    their deadlines.  The flags are *bypasses*, strictly cheaper and
    strictly less faithful than full service:

    Attributes:
        skip_rerank: Bypass the hitting-time diversification rerank
            (Algorithm 1 steps 2..K, the truncated cross-bipartite walk).
            Candidates come back in pure Eq. 15 relevance order — still
            relevant, no longer diversity-aware.
        skip_personalize: Bypass the UPM profile scoring and Borda fusion;
            profiled users get the anonymous ranking.

    Tiers are cumulative (:meth:`for_tier`): tier 0 is full service,
    tier 1 sets ``skip_rerank``, tier 2 sets both.  Tier 3 (reject) never
    reaches the suggest path — the front-end answers 503 directly.
    """

    skip_rerank: bool = False
    skip_personalize: bool = False

    #: Highest tier that still serves (tier 3 = reject, handled upstream).
    MAX_SERVING_TIER = 2

    @classmethod
    def for_tier(cls, tier: int) -> "ShedOptions":
        """The cumulative flag set of shed *tier* (0, 1 or 2)."""
        if not 0 <= tier <= cls.MAX_SERVING_TIER:
            raise ValueError(
                f"shed tier must be in 0..{cls.MAX_SERVING_TIER}, got {tier}"
            )
        return cls(skip_rerank=tier >= 1, skip_personalize=tier >= 2)

    @property
    def tier(self) -> int:
        """The lowest tier that implies these flags."""
        if self.skip_personalize:
            return 2
        if self.skip_rerank:
            return 1
        return 0


#: The no-bypass default: every request runs the full pipeline.
FULL_SERVICE = ShedOptions()


def cache_key(
    seeds: Mapping[str, float],
    compact: CompactConfig,
    regularization: RegularizationConfig,
) -> tuple:
    """Hashable signature of one compact-entry request.

    The seed set (queries and weights) determines the expanded
    neighbourhood together with the walk parameters; the regularization
    parameters determine the cached Eq. 15 system.  Context-bearing
    requests carry their decayed weights in the seed mapping, so only
    requests with identical context timing share an entry — bare
    single-query traffic (the common case) always does.
    """
    return (
        tuple(sorted(seeds.items())),
        compact,
        tuple(sorted(regularization.alphas.items())),
        regularization.tolerance,
        regularization.max_iterations,
    )


@dataclass(frozen=True, slots=True)
class CacheStats:
    """Counters of one :class:`CompactCache` (a point-in-time snapshot).

    Attributes:
        hits: Lookups served from the cache.
        misses: Lookups that had to build an entry.
        evictions: Entries dropped by the LRU size bound.
        size: Entries currently held.
        maxsize: The size bound.
        invalidations: Entries dropped by epoch rebinds (every
            :meth:`CompactCache.rebind` flushes the cache).
        stale_discards: Entries built from an expander other than the
            bound one — a request pinned to a superseded epoch, or a build
            that straddled a rebind — and therefore served but not
            inserted (see the bound-expander invariant in the module
            docstring).  Each discard's lookup is already counted as a
            miss.
    """

    hits: int
    misses: int
    evictions: int
    size: int
    maxsize: int
    invalidations: int = 0
    stale_discards: int = 0

    @property
    def lookups(self) -> int:
        """Total lookups; always exactly ``hits + misses``."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when untouched)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


@dataclass(frozen=True)
class CompactEntry:
    """Everything the online path needs for one compact neighbourhood.

    Attributes:
        queries: The expanded neighbourhood, seed-first walk order.
        matrices: Compact matrices over those queries (sorted row order).
        solver: Prebuilt Eq. 15 solver on ``matrices``.
        walker: Prebuilt cross-bipartite walker on ``matrices``.
        rankings: The ranking memo — the full-service, context-free
            Algorithm 1 output computed on this entry (see
            ``PQSDA.diversified_candidates``), keyed by whether the input
            query was in the graph.  ``True`` holds the answer for the
            one in-graph query whose bare seed set keys this entry;
            ``False`` is shared by every unseen query whose term backoff
            lands here, since they share ``F⁰`` (the seed weights are the
            entry key) and the empty exclusion set and so differ only in
            their input label.  It lives and dies with the entry, so
            eviction and rebinds drop it together with the matrices it
            came from.
    """

    queries: list[str]
    matrices: BipartiteMatrices
    solver: RelevanceSolver
    walker: CrossBipartiteWalker
    rankings: dict[bool, DiversifiedSuggestions] = field(
        default_factory=dict, compare=False, repr=False
    )


class CompactCache:
    """LRU cache of :class:`CompactEntry` objects over one full graph.

    Args:
        expander: The full-graph walk expander; entries restrict its
            matrices' incidences.
        maxsize: Bound on held entries; least-recently-used entries are
            evicted beyond it.
        switch: Cross-bipartite switch matrix for the cached walkers
            (None = uniform, the paper's default).
    """

    def __init__(
        self,
        expander: RandomWalkExpander,
        maxsize: int = 128,
        switch: SwitchMatrix | None = None,
    ) -> None:
        if maxsize < 1:
            raise ValueError(f"maxsize must be >= 1, got {maxsize}")
        self._expander = expander
        self._maxsize = maxsize
        self._switch = switch
        self._entries: OrderedDict[tuple, CompactEntry] = OrderedDict()
        self._lock = threading.Lock()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        self._invalidations = 0
        self._stale_discards = 0
        self.attach_metrics(None)

    def attach_metrics(self, registry) -> None:
        """Mirror the cache counters into *registry* (``serving.cache.*``).

        ``None`` (the initial binding) detaches — every instrument becomes
        a shared no-op.  Registry counters count events *since attach*;
        the internal :attr:`stats` counters always cover the cache's whole
        lifetime.
        """
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_hits = registry.counter("serving.cache.hits")
        self._m_misses = registry.counter("serving.cache.misses")
        self._m_evictions = registry.counter("serving.cache.evictions")
        self._m_invalidations = registry.counter("serving.cache.invalidations")
        self._m_stale_discards = registry.counter(
            "serving.cache.stale_discards"
        )
        self._m_size = registry.gauge("serving.cache.size")
        with self._lock:
            self._m_size.set(len(self._entries))

    @property
    def maxsize(self) -> int:
        """The LRU size bound."""
        return self._maxsize

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss/eviction counters."""
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                evictions=self._evictions,
                size=len(self._entries),
                maxsize=self._maxsize,
                invalidations=self._invalidations,
                stale_discards=self._stale_discards,
            )

    def clear(self) -> None:
        """Drop all entries (counters are kept)."""
        with self._lock:
            self._entries.clear()
            self._m_size.set(0)

    def rebind(self, expander: RandomWalkExpander) -> int:
        """Point the cache at a new epoch's *expander* and flush it.

        Every entry is dropped, ranking memos included: the new epoch's
        walk weights can move any cached neighbourhood.  Builds still in
        flight from the previous expander are served but not inserted (see
        the module docstring).  Returns the number of entries dropped,
        which also accumulates in ``CacheStats.invalidations``.
        """
        with self._lock:
            self._expander = expander
            dropped = len(self._entries)
            self._entries.clear()
            self._invalidations += dropped
            self._m_size.set(0)
        self._m_invalidations.inc(dropped)
        return dropped

    def get(
        self,
        seeds: Mapping[str, float],
        compact: CompactConfig,
        regularization: RegularizationConfig,
        expander: RandomWalkExpander | None = None,
    ) -> CompactEntry:
        """The entry for *seeds*, building (and caching) it on a miss.

        *expander* overrides the bound expander for this request — the
        epoch-pinned serving path passes the pinned epoch's expander so a
        request is served consistently even if a writer publishes a new
        epoch mid-request.  The cache is read and filled only for the
        bound expander: a request pinned to any other epoch builds its
        entry and is served it, uncached.  The build runs outside the
        lock; if a :meth:`rebind` lands in between, the entry is likewise
        returned to its caller — it is consistent with the epoch the
        request started under — but **not** inserted (``stale_discards``
        counts both).
        """
        key = cache_key(seeds, compact, regularization)
        with self._lock:
            if expander is None:
                expander = self._expander
            if expander is self._expander:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self._hits += 1
                    self._m_hits.inc()
                    return entry
            self._misses += 1
        self._m_misses.inc()
        entry = self._build(seeds, compact, regularization, expander)
        evicted = 0
        with self._lock:
            if expander is not self._expander:
                self._stale_discards += 1
                self._m_stale_discards.inc()
                return entry
            if key not in self._entries:
                self._entries[key] = entry
                while len(self._entries) > self._maxsize:
                    self._entries.popitem(last=False)
                    self._evictions += 1
                    evicted += 1
                self._m_size.set(len(self._entries))
        self._m_evictions.inc(evicted)
        return entry

    def _build(
        self,
        seeds: Mapping[str, float],
        compact: CompactConfig,
        regularization: RegularizationConfig,
        expander: RandomWalkExpander,
    ) -> CompactEntry:
        chosen = expander.expand(seeds, compact)
        full_matrices = expander.matrices
        full_index = full_matrices.query_index
        ordinals = sorted(full_index[query] for query in chosen)
        matrices = full_matrices.restrict(ordinals)
        return CompactEntry(
            queries=chosen,
            matrices=matrices,
            solver=RelevanceSolver(matrices, regularization),
            walker=CrossBipartiteWalker(matrices, self._switch),
        )
