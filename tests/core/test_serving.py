"""Tests for the serving fast path: CompactCache, ranking memo, batching."""

import itertools
import string
import sys
import time

import pytest

from repro.core import PQSDA, PQSDAConfig
from repro.core.serving import CompactCache, cache_key
from repro.baselines.base import SuggestRequest
from repro.diversify.candidates import DiversifyConfig
from repro.diversify.regularization import RegularizationConfig
from repro.graphs.compact import CompactConfig
from repro.graphs.multibipartite import build_multibipartite
from repro.graphs.compact import RandomWalkExpander
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import sessionize
from repro.obs.registry import MetricsRegistry
from repro.personalize.upm import UPMConfig
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.utils.text import normalize_query, tokenize


@pytest.fixture(scope="module")
def synthetic_log():
    world = make_world(seed=0)
    return generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    ).log


def _build(log, cache_size=64):
    return PQSDA.build(
        log,
        config=PQSDAConfig(
            compact=CompactConfig(size=60),
            diversify=DiversifyConfig(k=8, candidate_pool=15),
            personalize=False,
            cache_size=cache_size,
        ),
    )


def _probe_queries(log, n=8):
    seen: list[str] = []
    for record in log:
        if record.has_click and record.query not in seen:
            seen.append(record.query)
        if len(seen) >= n:
            break
    return seen


class TestSuggestBatch:
    def test_batch_matches_sequential(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log)
        requests = [SuggestRequest(query=q, k=8) for q in probes]
        sequential = [suggester.suggest(q, k=8) for q in probes]
        assert suggester.suggest_batch(requests) == sequential
        assert suggester.suggest_batch(requests, n_workers=4) == sequential

    def test_batch_matches_sequential_with_users(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log, n=4)
        users = sorted(synthetic_log.users)[:2]
        requests = [
            SuggestRequest(query=q, k=5, user_id=users[i % 2])
            for i, q in enumerate(probes)
        ]
        sequential = [
            suggester.suggest(r.query, k=r.k, user_id=r.user_id)
            for r in requests
        ]
        assert suggester.suggest_batch(requests, n_workers=3) == sequential

    def test_unknown_query_in_batch(self, synthetic_log):
        suggester = _build(synthetic_log)
        requests = [SuggestRequest(query="zzz unseen zzz qqq", k=5)]
        batch = suggester.suggest_batch(requests)
        assert batch == [suggester.suggest("zzz unseen zzz qqq", k=5)]

    def test_request_validation(self):
        with pytest.raises(ValueError):
            SuggestRequest(query="a", k=0)

    def test_worker_validation(self, synthetic_log):
        suggester = _build(synthetic_log)
        with pytest.raises(ValueError):
            suggester.suggest_batch([SuggestRequest(query="a")], n_workers=0)


class TestCompactCache:
    def test_hit_returns_same_entry(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log, n=3)
        for q in probes:
            suggester.suggest(q, k=5)
        stats = suggester.cache_stats
        assert stats.misses == len(probes)
        assert stats.hits == 0
        for q in probes:
            suggester.suggest(q, k=5)
        stats = suggester.cache_stats
        assert stats.hits == len(probes)
        assert stats.misses == len(probes)
        assert stats.size == len(probes)
        assert 0.0 < stats.hit_rate < 1.0

    def test_warm_results_equal_cold(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log)
        cold = [suggester.suggest(q, k=8) for q in probes]
        warm = [suggester.suggest(q, k=8) for q in probes]
        assert warm == cold

    def test_warm_not_slower_than_cold(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log)
        suggester.suggest(probes[0], k=8)  # absorb one-time lazy costs
        suggester.serving_cache.clear()
        start = time.perf_counter()
        for q in probes:
            suggester.suggest(q, k=8)
        cold_elapsed = time.perf_counter() - start
        start = time.perf_counter()
        for q in probes:
            suggester.suggest(q, k=8)
        warm_elapsed = time.perf_counter() - start
        # The warm path skips expansion + restriction entirely; generous
        # slack keeps the assertion robust on noisy CI machines.
        assert warm_elapsed < cold_elapsed * 1.5

    def test_lru_eviction_bound(self, synthetic_log):
        suggester = _build(synthetic_log, cache_size=2)
        probes = _probe_queries(synthetic_log, n=4)
        for q in probes:
            suggester.suggest(q, k=5)
        stats = suggester.cache_stats
        assert stats.size <= 2
        assert stats.maxsize == 2
        assert stats.evictions >= len(probes) - 2

    def test_evicted_entry_rebuilt_identically(self, synthetic_log):
        suggester = _build(synthetic_log, cache_size=1)
        probes = _probe_queries(synthetic_log, n=2)
        first = suggester.suggest(probes[0], k=5)
        suggester.suggest(probes[1], k=5)  # evicts probes[0]'s entry
        assert suggester.suggest(probes[0], k=5) == first

    def test_cache_size_validation(self, synthetic_log):
        mb = build_multibipartite(synthetic_log, sessionize(synthetic_log))
        expander = RandomWalkExpander(mb)
        with pytest.raises(ValueError):
            CompactCache(expander, maxsize=0)

    def test_clear_keeps_counters(self, synthetic_log):
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log, n=2)
        for q in probes:
            suggester.suggest(q, k=5)
        suggester.serving_cache.clear()
        stats = suggester.cache_stats
        assert stats.size == 0
        assert stats.misses == len(probes)


class TestCacheKey:
    def test_distinguishes_configs(self):
        seeds = {"sun": 1.0}
        base = cache_key(seeds, CompactConfig(size=50), RegularizationConfig())
        assert base == cache_key(
            seeds, CompactConfig(size=50), RegularizationConfig()
        )
        assert base != cache_key(
            seeds, CompactConfig(size=60), RegularizationConfig()
        )
        assert base != cache_key(
            {"sun": 0.5}, CompactConfig(size=50), RegularizationConfig()
        )
        assert base != cache_key(
            seeds,
            CompactConfig(size=50),
            RegularizationConfig(alphas={"U": 2.0, "S": 1.0, "T": 1.0}),
        )


#: Personalized twin of ``_build``'s config: same serving pipeline, tiny UPM.
PERSONAL_CONFIG = PQSDAConfig(
    compact=CompactConfig(size=60),
    diversify=DiversifyConfig(k=8, candidate_pool=15),
    upm=UPMConfig(n_topics=4, iterations=8, hyperopt_every=0, seed=0),
    personalize=True,
    cache_size=64,
)


def _twin(suggester):
    """A cold copy of *suggester*: same graph and profiles, empty cache."""
    return PQSDA(
        suggester.representation,
        suggester.expander,
        suggester.profiles,
        suggester.config,
    )


def _entry(suggester, query):
    """The cached compact entry a bare *query* is served from."""
    return suggester.serving_cache.get(
        {normalize_query(query): 1.0},
        suggester.config.compact,
        suggester.config.diversify.regularization,
    )


class TestRankingMemo:
    """Context-free full-service rankings are memoized on their entry."""

    @pytest.fixture(scope="class")
    def personal(self, synthetic_log):
        return PQSDA.build(synthetic_log, config=PERSONAL_CONFIG)

    @pytest.fixture(scope="class")
    def grid(self, synthetic_log, personal):
        """Requests across query kind, k, user, shed tier and context."""
        probes = _probe_queries(synthetic_log, n=3)
        backoff = probes[0].split()[0] + " zzunseen"
        no_match = "qqzz unmatched xxvv"
        assert normalize_query(backoff) not in personal.representation
        assert personal.diversified_candidates(backoff).ranking
        assert not personal.diversified_candidates(no_match).ranking
        k_default = PERSONAL_CONFIG.diversify.k
        profiled = personal.profiles.user_ids[0]
        context = (QueryRecord("ctx", probes[-1], timestamp=50.0),)
        return [
            {
                "query": query,
                "k": k,
                "user_id": user,
                "shed": shed,
                "context": ctx,
                "timestamp": 100.0,
            }
            for query, k, user, shed, ctx in itertools.product(
                [*probes, backoff, no_match],
                [k_default - 3, k_default, k_default + 4],
                [None, profiled],
                [0, 1, 2],
                [(), context],
            )
        ]

    def test_memo_hits_equal_cold_answers(self, personal, grid):
        cold = [_twin(personal).suggest(**request) for request in grid]
        assert any(cold)
        warm = _twin(personal)
        warm.attach_metrics(MetricsRegistry())
        for _ in range(2):  # the second pass answers from the memo
            for request, want in zip(grid, cold):
                assert warm.suggest(**request) == want
        # Now only context-bearing and shed requests still run the solve
        # (the unmatched query has no neighbourhood to solve on at all).
        no_match = grid[-1]["query"]
        for request in grid:
            warm.suggest(**request)
            solved = warm.last_trace.find("solve") is not None
            recomputed = bool(request["context"] or request["shed"])
            assert solved == (recomputed and request["query"] != no_match)

    def test_rebind_drops_every_memo(self, synthetic_log):
        suggester = _build(synthetic_log)
        suggester.attach_metrics(MetricsRegistry())
        probes = _probe_queries(synthetic_log)
        answers = {query: suggester.suggest(query, k=8) for query in probes}
        entries = {query: _entry(suggester, query) for query in probes}
        for entry in entries.values():
            assert list(entry.rankings) == [True]
        suggester.rebind_representation(
            suggester.representation, suggester.expander
        )
        stats = suggester.cache_stats
        assert stats.size == 0
        assert stats.invalidations == len(entries)
        for query, before in entries.items():
            assert suggester.suggest(query, k=8) == answers[query]
            assert suggester.last_trace.find("solve") is not None
            assert _entry(suggester, query) is not before

    def test_threads_share_the_memo_exactly(self, synthetic_log):
        """More threads than cores, a short switch interval: every answer
        still equals its cold one and every entry ends up memoized."""
        suggester = _build(synthetic_log)
        probes = _probe_queries(synthetic_log)
        cold = {query: _twin(suggester).suggest(query, k=8) for query in probes}
        requests = [SuggestRequest(query=q, k=8) for q in probes] * 6
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            answers = suggester.suggest_batch(requests, n_workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert answers == [cold[request.query] for request in requests]
        for query in probes:
            assert list(_entry(suggester, query).rankings) == [True]

    def test_unseen_queries_on_one_entry_share_one_memo(self, synthetic_log):
        """``"<term> <unseen word>"`` backs off to the same seeds whatever
        the unseen word, so however many such queries arrive their entry
        holds one memo, and each answer still carries its own label."""
        suggester = _build(synthetic_log)
        term = tokenize(_probe_queries(synthetic_log, n=1)[0])[0]
        unseen = [f"{term} zzunseen{c}" for c in string.ascii_lowercase[:10]]
        for _ in range(2):
            for query in unseen:
                want = _twin(suggester).diversified_candidates(query)
                assert want.ranking
                assert want.input_query == normalize_query(query)
                assert suggester.diversified_candidates(query) == want
        stats = suggester.cache_stats
        assert (stats.size, stats.misses) == (1, 1)  # one shared entry
        seeds = suggester._backoff_seeds(
            normalize_query(unseen[0]), suggester.representation
        )
        entry = suggester.serving_cache.get(
            seeds,
            suggester.config.compact,
            suggester.config.diversify.regularization,
        )
        assert list(entry.rankings) == [False]

    def test_mutating_answers_never_changes_the_next(self, synthetic_log):
        suggester = _build(synthetic_log)
        first, second = _probe_queries(synthetic_log, n=2)
        miss = suggester.suggest(first, k=8)
        want = list(miss)
        assert want
        for got in (miss, suggester.suggest(first, k=8)):  # miss, then hit
            got.reverse()
            got.append("junk")
        assert suggester.suggest(first, k=8) == want
        # diversified_candidates hands out copies too, on a miss and a hit.
        ranking = _twin(suggester).diversified_candidates(second).ranking
        assert ranking
        for _ in range(2):
            diversified = suggester.diversified_candidates(second)
            diversified.ranking.clear()
            diversified.relevance.clear()
        assert suggester.diversified_candidates(second).ranking == ranking
