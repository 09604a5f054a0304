"""The end-to-end PQS-DA suggester (paper Fig. 1).

Offline (``PQSDA.build``):

1. sessionize the log (unless ground-truth sessions are supplied);
2. build the (cfiqf-weighted) multi-bipartite representation and cache the
   full-graph walk matrices;
3. fit the UPM on per-user session documents and pack its profiles into
   the :class:`~repro.personalize.profiles.ArrayProfileStore` every
   serving path scores through.

Online (``suggest`` / ``suggest_batch``):

1. expand the compact representation around the input query and its search
   context (Sec. IV-A) — served through the :class:`CompactCache` fast
   path, which slices the compact matrices out of the cached full-graph
   structures and reuses whole entries for repeated seed sets;
2. run Algorithm 1 on the compact matrices — regularized first candidate,
   cross-bipartite hitting time for the rest (Sec. IV-B/C); a repeated
   bare (context-free, full-service) query reuses the ranking memoized
   on its compact entry instead;
3. score candidates with the user's profile (Eq. 31) and fuse the two
   rankings with Borda (Sec. V-B).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.baselines.base import Suggester
from repro.core.config import PQSDAConfig
from repro.core.serving import (
    FULL_SERVICE,
    CacheStats,
    CompactCache,
    ShedOptions,
)
from repro.diversify.candidates import (
    DiversifiedSuggestions,
    diversify,
    diversify_from_seed_vector,
)
from repro.obs.registry import NULL_REGISTRY
from repro.obs.trace import NULL_TRACER, Span, Tracer
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.multibipartite import MultiBipartite, build_multibipartite
from repro.logs.schema import QueryRecord, Session
from repro.logs.sessionizer import sessionize
from repro.logs.storage import QueryLog
from repro.personalize.borda import personalize_ranking
from repro.personalize.profiles import ArrayProfileStore, ProfileArrays
from repro.personalize.upm import UPM
from repro.topicmodels.corpus import build_corpus
from repro.utils.text import jaccard, normalize_query, tokenize

__all__ = ["PQSDA", "head_queries"]


def head_queries(log: QueryLog, n: int) -> list[str]:
    """The *n* most frequent normalized queries of *log*, hottest first.

    Real query streams are heavily head-skewed, so a small top-``n`` by
    submission frequency covers a large traffic share.  Ties break
    lexicographically for a deterministic list across rebuilds.  This is
    the extraction behind the head rankings that seed the scale-out
    pool's answer memo (:class:`repro.serve.pool.SuggestWorkerPool`
    ``hot_queries`` / ``hot_top``) and
    :meth:`repro.stream.epoch.Epoch.head_queries`.
    """
    if n <= 0:
        return []
    ranked = sorted(
        log.unique_queries,
        key=lambda query: (-log.query_frequency(query), query),
    )
    return ranked[:n]


def _copied(
    result: DiversifiedSuggestions, input_query: str
) -> DiversifiedSuggestions:
    """A copy of *result* for *input_query* that the caller may mutate."""
    return DiversifiedSuggestions(
        list(result.ranking), dict(result.relevance), input_query
    )


class PQSDA(Suggester):
    """Personalized Query Suggestion With Diversity Awareness."""

    name = "PQS-DA"

    def __init__(
        self,
        multibipartite: MultiBipartite,
        expander: RandomWalkExpander,
        profiles: ArrayProfileStore | None,
        config: PQSDAConfig,
    ) -> None:
        self._multibipartite = multibipartite
        self._expander = expander
        self._profiles = profiles
        self._config = config
        self._epochs = None  # EpochManager once attach_epochs is called
        self._cache = CompactCache(
            expander,
            maxsize=config.cache_size,
            switch=config.diversify.switch,
        )
        self._registry = NULL_REGISTRY
        self._tracer = NULL_TRACER
        self._batch_depth = NULL_REGISTRY.gauge("serving.batch.queue_depth")

    # -- construction ----------------------------------------------------------------

    @classmethod
    def build(
        cls,
        log: QueryLog,
        sessions: list[Session] | None = None,
        config: PQSDAConfig | None = None,
        multibipartite: MultiBipartite | None = None,
        expander: RandomWalkExpander | None = None,
        registry=None,
    ) -> "PQSDA":
        """Run the full offline pipeline over *log*.

        Pass a prebuilt *multibipartite* to supply a custom representation
        (e.g. an alternative weighting scheme) while reusing the rest of
        the pipeline; pass a matching prebuilt *expander* too when the
        matrices already exist (the streaming bootstrap path does).

        Pass a :class:`~repro.obs.registry.MetricsRegistry` as *registry*
        to observe the whole lifecycle: UPM training routes its per-sweep
        metrics there, and the returned suggester comes pre-attached
        (see :meth:`attach_metrics`).
        """
        if config is None:
            config = PQSDAConfig()
        if sessions is None:
            sessions = sessionize(log)
        if multibipartite is None:
            multibipartite = build_multibipartite(
                log, sessions, weighted=config.weighted
            )
        if expander is None:
            expander = RandomWalkExpander(multibipartite)
        profiles: ArrayProfileStore | None = None
        if config.personalize:
            corpus = build_corpus(log, sessions)
            if corpus.n_documents > 0:
                model = UPM(config.upm)
                if registry is not None:
                    model.attach_metrics(registry)
                model.fit(corpus)
                profiles = ArrayProfileStore(ProfileArrays.from_model(model))
        instance = cls(multibipartite, expander, profiles, config)
        if registry is not None:
            instance.attach_metrics(registry)
        return instance

    # -- accessors -------------------------------------------------------------------

    @property
    def config(self) -> PQSDAConfig:
        """The pipeline configuration."""
        return self._config

    @property
    def representation(self) -> MultiBipartite:
        """The full multi-bipartite representation."""
        return self._multibipartite

    @property
    def expander(self) -> RandomWalkExpander:
        """The full-graph walk expander behind the online path."""
        return self._expander

    @property
    def profiles(self) -> ArrayProfileStore | None:
        """The UPM profile store (None when personalization is disabled)."""
        return self._profiles

    @property
    def serving_cache(self) -> CompactCache:
        """The compact-entry cache behind the online path."""
        return self._cache

    @property
    def cache_stats(self) -> CacheStats:
        """Hit/miss/eviction counters of the serving cache."""
        return self._cache.stats

    # -- observability -----------------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Route serving metrics and trace spans into *registry*.

        Attaches the compact-entry cache's counters
        (``serving.cache.*``), the batch queue-depth gauge
        (``serving.batch.queue_depth``), and a
        :class:`~repro.obs.trace.Tracer` whose per-stage spans
        (``suggest`` → ``expand``/``solve``/``walk``/``rerank``) feed the
        ``trace.span.seconds`` histogram.  With no registry attached
        (the default) every instrumentation point is a shared no-op.
        """
        self._registry = registry if registry is not None else NULL_REGISTRY
        self._tracer = Tracer(registry) if registry is not None else NULL_TRACER
        self._cache.attach_metrics(registry)
        self._batch_depth = self._registry.gauge("serving.batch.queue_depth")

    @property
    def metrics(self):
        """The attached registry (the shared null registry by default)."""
        return self._registry

    @property
    def last_trace(self) -> Span | None:
        """Span tree of the calling thread's last completed ``suggest``."""
        return self._tracer.last_trace

    # -- streaming epochs --------------------------------------------------------------

    def attach_epochs(self, manager) -> None:
        """Serve from the epochs of an :class:`~repro.stream.epoch.EpochManager`.

        Adopts the manager's current epoch immediately and subscribes to
        future publishes: each publish atomically swaps the representation
        and expander and flushes the serving cache.  Each request pins one
        epoch for its whole duration (see :meth:`diversified_candidates`),
        so concurrent ``suggest_batch`` readers are never blocked — nor
        served a mix of two generations — by a mid-request publish.
        """
        self._epochs = manager
        self._apply_epoch(manager.current())
        manager.subscribe(self._apply_epoch)

    def _apply_epoch(self, epoch) -> None:
        """Adopt *epoch* (and any profile generation it carries)."""
        self.rebind_representation(epoch.multibipartite, epoch.expander)
        if getattr(epoch, "profiles", None) is not None:
            self.rebind_profiles(epoch.profiles)

    def rebind_representation(
        self, multibipartite, expander: RandomWalkExpander
    ) -> None:
        """Swap the serving representation in place and flush the cache.

        Future requests expand against *expander* (whose matrices define
        the new generation).  This is the single swap point shared by the
        in-process epoch subscription (:meth:`attach_epochs`) and the
        cross-process generation handshake of
        :class:`repro.serve.pool.SuggestWorkerPool` workers — both paths
        inherit the cache's bound-expander invariant, so entry builds
        straddling the swap are served but never inserted.
        """
        self._multibipartite = multibipartite
        self._expander = expander
        self._cache.rebind(expander)

    def rebind_profiles(self, profiles: ArrayProfileStore | None) -> None:
        """Swap the profile store in place (a profile-generation swap).

        Future requests rerank against *profiles*; in-flight requests
        keep the store they looked up at entry (stores are immutable —
        feedback folds produce new ones).  This is the swap point shared
        by the in-process epoch subscription (epochs carrying a folded
        profile generation) and the worker-side ``gen`` handshake of
        :class:`repro.serve.pool.SuggestWorkerPool`.
        """
        self._profiles = profiles

    # -- online suggestion -----------------------------------------------------------

    def _context_seeds(
        self,
        query: str,
        context: Sequence[QueryRecord],
        timestamp: float,
    ) -> dict[str, float]:
        """Walk seeds: the input query plus its decayed search context."""
        seeds = {normalize_query(query): 1.0}
        lam = self._config.diversify.decay_lambda
        for record in context:
            weight = math.exp(lam * min(record.timestamp - timestamp, 0.0))
            candidate = normalize_query(record.query)
            seeds[candidate] = max(seeds.get(candidate, 0.0), weight)
        return seeds

    def _backoff_seeds(
        self, normalized: str, multibipartite: MultiBipartite
    ) -> dict[str, float]:
        """Seed log queries for an unseen input, by shared-term Jaccard.

        A candidate's token set is exactly its facet set in the query-term
        bipartite (that is how the bipartite is built), so the memoized
        facet sets stand in for re-tokenizing every candidate on each
        unseen-query call.
        """
        terms = tokenize(normalized)
        if not terms:
            return {}
        term_bipartite = multibipartite.bipartite("T")
        candidates: set[str] = set()
        for term in terms:
            candidates.update(term_bipartite.queries_of(term))
        scored = {
            candidate: jaccard(terms, term_bipartite.facet_set(candidate))
            for candidate in candidates
        }
        top = sorted(scored.items(), key=lambda pair: (-pair[1], pair[0]))
        return dict(top[: self._config.backoff_seeds])

    def diversified_candidates(
        self,
        query: str,
        context: Sequence[QueryRecord] = (),
        timestamp: float = 0.0,
        skip_rerank: bool = False,
    ) -> DiversifiedSuggestions:
        """The diversification component's intermediate output (Sec. VI-B).

        Unseen input queries fall back to term-matched seeds when
        ``config.term_backoff`` is on; otherwise (or when no term matches
        either) the result is empty.  Under an attached epoch manager the
        request pins one epoch for its whole duration, so a concurrent
        publish can neither block it nor split it across generations.
        *skip_rerank* is the tier-1 load-shed bypass: the hitting-time
        selection loop is skipped and candidates come back in pure
        Eq. 15 relevance order (see
        :class:`~repro.core.serving.ShedOptions`).  A repeated
        full-service request without context is answered from the
        ranking memo of its compact entry (a fresh copy each time).
        """
        if self._epochs is None:
            return self._diversified(
                self._multibipartite, None, query, context, timestamp,
                skip_rerank,
            )
        with self._epochs.pin() as epoch:
            return self._diversified(
                epoch.multibipartite, epoch.expander, query, context,
                timestamp, skip_rerank,
            )

    def _diversified(
        self,
        multibipartite: MultiBipartite,
        expander: RandomWalkExpander | None,
        query: str,
        context: Sequence[QueryRecord],
        timestamp: float,
        skip_rerank: bool = False,
    ) -> DiversifiedSuggestions:
        """Algorithm 1 against one consistent representation generation.

        A full-service, context-free answer is memoized on the compact
        entry it was computed from (``CompactEntry.rankings``), keyed by
        whether the input query is in the graph; a repeat then skips the
        solve and the walk.  Callers get their own copy, labelled with
        their own input query, never the memo itself.
        """
        normalized = normalize_query(query)
        in_graph = normalized in multibipartite
        if in_graph:
            seeds = self._context_seeds(normalized, context, timestamp)
        elif self._config.term_backoff:
            seeds = self._backoff_seeds(normalized, multibipartite)
        else:
            seeds = {}
        if not seeds:
            return DiversifiedSuggestions([], {}, normalized)
        with self._tracer.span("expand"):
            entry = self._cache.get(
                seeds,
                self._config.compact,
                self._config.diversify.regularization,
                expander=expander,
            )
        memoize = not context and not skip_rerank
        if memoize:
            memo = entry.rankings.get(in_graph)
            if memo is not None:
                return _copied(memo, normalized)
        if in_graph:
            result = diversify(
                entry.matrices,
                normalized,
                input_timestamp=timestamp,
                context=context,
                config=self._config.diversify,
                solver=entry.solver,
                walker=entry.walker,
                tracer=self._tracer,
                skip_hitting=skip_rerank,
            )
        else:
            matrices = entry.matrices
            f0 = np.zeros(matrices.n_queries)
            for seed, weight in seeds.items():
                row = matrices.query_index.get(seed)
                if row is not None:
                    f0[row] = weight
            result = diversify_from_seed_vector(
                matrices,
                f0,
                excluded=set(),
                input_label=normalized,
                config=self._config.diversify,
                solver=entry.solver,
                walker=entry.walker,
                tracer=self._tracer,
                skip_hitting=skip_rerank,
            )
        if memoize:
            entry.rankings[in_graph] = _copied(result, normalized)
        return result

    def suggest(
        self,
        query: str,
        k: int = 10,
        user_id: str | None = None,
        context: Sequence[QueryRecord] = (),
        timestamp: float = 0.0,
        shed: ShedOptions | int | None = None,
    ) -> list[str]:
        """Suggest up to *k* queries for *query* (see :class:`Suggester`).

        *shed* degrades the request on purpose (the front-end's
        load-shedding tiers): pass a :class:`~repro.core.serving.ShedOptions`
        or an integer tier (0 = full service, 1 = skip the hitting-time
        rerank, 2 = additionally skip personalization).  ``None`` serves
        the full pipeline.
        """
        if shed is None:
            shed = FULL_SERVICE
        elif isinstance(shed, int):
            shed = ShedOptions.for_tier(shed)
        with self._tracer.span("suggest"):
            diversified = self.diversified_candidates(
                query,
                context=context,
                timestamp=timestamp,
                skip_rerank=shed.skip_rerank,
            )
            candidates = diversified.top(max(k, self._config.diversify.k))
            if not candidates:
                return []
            if (
                shed.skip_personalize
                or not self._config.personalize
                or self._profiles is None
                or user_id is None
                or user_id not in self._profiles
            ):
                return candidates[:k]
            with self._tracer.span("rerank"):
                scores = self._profiles.score_candidates(user_id, candidates)
                final = personalize_ranking(
                    candidates,
                    scores,
                    personalization_weight=self._config.personalization_weight,
                )
                return final.top(k)

    def suggest_batch(
        self,
        requests,
        n_workers: int = 1,
    ) -> list[list[str]]:
        """Batched suggestion (see :meth:`Suggester.suggest_batch`).

        Additionally tracks the in-flight request count in the
        ``serving.batch.queue_depth`` gauge when a registry is attached:
        incremented by the batch size at submit, decremented when the
        batch drains (so concurrent batches sum their depths).
        """
        requests = list(requests)
        depth = self._batch_depth
        depth.inc(len(requests))
        try:
            return super().suggest_batch(requests, n_workers=n_workers)
        finally:
            depth.dec(len(requests))
