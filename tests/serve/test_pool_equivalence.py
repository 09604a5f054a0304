"""Pooled suggestions must be bit-identical to the single-process path."""

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG


@pytest.fixture(scope="module")
def probe_requests(multibipartite):
    seen = [
        SuggestRequest(query=query, k=8)
        for query in multibipartite.queries[:20]
    ]
    unseen = [
        SuggestRequest(query="totally unseen query", k=8),
        SuggestRequest(
            query=multibipartite.queries[0].split()[0] + " unseen suffix", k=8
        ),
    ]
    return seen + unseen


@pytest.fixture(scope="module")
def expected(multibipartite, expander, probe_requests):
    """Cold single-process answers (a fresh suggester, empty cache)."""
    cold = PQSDA(multibipartite, expander, None, SERVE_CONFIG)
    return cold.suggest_batch(probe_requests)


def _span_count(snapshot, span):
    return sum(
        entry["count"]
        for entry in snapshot["metrics"]
        if entry["name"] == "trace.span.seconds"
        and entry["labels"].get("span") == span
    )


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_pool_bit_identical_to_single_process(
    expander, multibipartite, probe_requests, expected, n_workers
):
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=n_workers,
        prefix=f"t-eq{n_workers}",
    ) as pool:
        # Every query twice in one batch: the repeat is answered from its
        # worker's ranking memo — still identical.
        doubled = [request for request in probe_requests for _ in (0, 1)]
        want = [answer for answer in expected for _ in (0, 1)]
        assert pool.suggest_many(doubled) == want
        solves = _span_count(pool.merged_metrics(), "solve")
        assert 0 < solves <= len(probe_requests)
        # Second pass is served from warm per-worker caches — still identical.
        assert pool.suggest_many(probe_requests) == expected
        assert _span_count(pool.merged_metrics(), "solve") == solves


def test_workers_serve_from_shared_views_not_copies(
    expander, multibipartite, probe_requests
):
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-views",
    ) as pool:
        pool.suggest_many(probe_requests)
        stats = pool.stats()
        assert len(stats.workers) == 2
        assert all(worker.shares_memory for worker in stats.workers)
        assert stats.total_requests == len(probe_requests)
        assert stats.segment_bytes > 0


def test_routing_is_stable_per_query(expander, multibipartite):
    query = multibipartite.queries[0]
    requests = [SuggestRequest(query=query, k=8)] * 6
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-route",
    ) as pool:
        pool.suggest_many(requests)
        stats = pool.stats()
        served = sorted(worker.requests for worker in stats.workers)
        assert served == [0, 6]  # every repeat hit the same worker's cache
        hot = [worker for worker in stats.workers if worker.requests][0]
        assert hot.cache.hits >= 5


def test_single_suggest_and_empty_batch(expander, multibipartite, single_suggester):
    query = multibipartite.queries[3]
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=1,
        prefix="t-one",
    ) as pool:
        assert pool.suggest(query, k=8) == single_suggester.suggest(query, k=8)
        assert pool.suggest_many([]) == []


def test_merged_metrics_carry_worker_labels(expander, multibipartite, probe_requests):
    registry = MetricsRegistry()
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        registry=registry,
        prefix="t-metrics",
    ) as pool:
        pool.suggest_many(probe_requests)
        merged = pool.merged_metrics()
    names = {entry["name"] for entry in merged["metrics"]}
    assert "serve.pool.requests" in names
    assert "serve.pool.attach_seconds" in names
    worker_labels = {
        entry["labels"].get("worker")
        for entry in merged["metrics"]
        if entry["name"] == "serving.cache.hits"
    }
    assert worker_labels == {"0", "1"}


def test_from_suggester_accepts_profiles(personal_suggester):
    """A profile-bearing suggester pools via the shared profile plane."""
    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=1, prefix="t-prof"
    ) as pool:
        assert pool.serves_profiles
        assert pool.profile_users == len(personal_suggester.profiles)


def test_from_suggester_builds_equivalent_pool(multibipartite, expander):
    suggester = PQSDA(multibipartite, expander, None, SERVE_CONFIG)
    query = multibipartite.queries[5]
    with SuggestWorkerPool.from_suggester(
        suggester, n_workers=1, prefix="t-from"
    ) as pool:
        assert pool.suggest(query, k=8) == suggester.suggest(query, k=8)
