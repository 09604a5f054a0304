"""Sharded pool serving: bit-identity, per-shard swaps, spill accounting."""

import multiprocessing

import pytest

from repro.baselines.base import SuggestRequest
from repro.graphs.shard import ShardPlan, build_shard_slices
from repro.serve.pool import SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG

START_METHOD = (
    "fork"
    if "fork" in multiprocessing.get_all_start_methods()
    else "spawn"
)


@pytest.fixture(scope="module")
def probe_requests(multibipartite):
    seen = [
        SuggestRequest(query=query, k=8)
        for query in multibipartite.queries[:16]
    ]
    unseen = [
        SuggestRequest(query="totally unseen query", k=8),
        SuggestRequest(
            query=multibipartite.queries[0].split()[0] + " unseen suffix", k=8
        ),
    ]
    return seen + unseen


@pytest.fixture(scope="module")
def expected(single_suggester, probe_requests):
    return single_suggester.suggest_batch(probe_requests)


def _pool(expander, multibipartite, n_workers, prefix, **kwargs):
    return SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=n_workers,
        start_method=START_METHOD,
        prefix=prefix,
        **kwargs,
    )


@pytest.mark.parametrize("n_shards", [1, 2, 4])
@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_sharded_pool_bit_identical_at_any_geometry(
    expander, multibipartite, probe_requests, expected, n_shards, n_workers
):
    with _pool(
        expander,
        multibipartite,
        n_workers,
        f"t-sh{n_shards}w{n_workers}",
        n_shards=n_shards,
    ) as pool:
        assert pool.n_shards == n_shards
        assert pool.suggest_many(probe_requests) == expected
        # Warm-cache second pass stays identical.
        assert pool.suggest_many(probe_requests) == expected


def test_component_plan_pool_serves_without_spills(
    expander, multibipartite, probe_requests, expected
):
    plan = ShardPlan.components(multibipartite, 3)
    with _pool(
        expander,
        multibipartite,
        2,
        "t-shcomp",
        n_shards=3,
        shard_plan=plan,
    ) as pool:
        assert pool.suggest_many(probe_requests) == expected
        stats = pool.stats()
        spills = sum(
            worker.spill["spills"]
            for worker in stats.workers
            if worker.spill is not None
        )
        assert spills == 0


def test_publish_shard_swaps_only_the_touched_segment(
    expander, multibipartite, probe_requests, expected
):
    plan = ShardPlan.hashed(3)
    with _pool(
        expander,
        multibipartite,
        2,
        "t-shswap",
        n_shards=3,
        shard_plan=plan,
    ) as pool:
        assert pool.suggest_many(probe_requests) == expected
        before_ids = dict(pool.shard_epoch_ids)
        before_bytes = dict(pool.shard_segment_bytes)
        piece = build_shard_slices(expander.matrices, plan, multibipartite)[1]
        pool.publish_shard(piece, epoch_id=7)
        after_ids = dict(pool.shard_epoch_ids)
        assert after_ids[1] == 7
        for shard_id in (0, 2):
            assert after_ids[shard_id] == before_ids[shard_id]
            assert pool.shard_segment_bytes[shard_id] == before_bytes[shard_id]
        # Identical bytes republished: results are unchanged.
        assert pool.suggest_many(probe_requests) == expected


def test_publish_shard_rejects_query_set_changes(expander, multibipartite):
    plan = ShardPlan.hashed(2)
    with _pool(
        expander,
        multibipartite,
        1,
        "t-shguard",
        n_shards=2,
        shard_plan=plan,
    ) as pool:
        wrong = build_shard_slices(
            expander.matrices, ShardPlan.hashed(3), multibipartite
        )[0]
        with pytest.raises(ValueError, match="query set"):
            pool.publish_shard(wrong)


def test_publish_shard_on_unsharded_pool_raises(expander, multibipartite):
    plan = ShardPlan.hashed(2)
    piece = build_shard_slices(expander.matrices, plan, multibipartite)[0]
    with _pool(expander, multibipartite, 1, "t-shuns") as pool:
        with pytest.raises(RuntimeError, match="sharded"):
            pool.publish_shard(piece)


def test_stats_expose_shard_geometry_and_spills(
    expander, multibipartite, probe_requests
):
    with _pool(
        expander, multibipartite, 2, "t-shstats", n_shards=4
    ) as pool:
        pool.suggest_many(probe_requests)
        stats = pool.stats()
        assert stats.n_shards == 4
        assert len(stats.shard_segment_bytes) == 4
        assert all(size > 0 for size in stats.shard_segment_bytes)
        assert len(stats.shard_epoch_ids) == 4
        served = [w for w in stats.workers if w.requests]
        assert served
        for worker in served:
            assert worker.spill is not None
            assert worker.spill["walks"] > 0


def test_sharded_hot_tier_hits_stay_identical(
    expander, multibipartite, single_suggester
):
    hot = multibipartite.queries[:6]
    requests = [SuggestRequest(query=query, k=8) for query in hot]
    expected = single_suggester.suggest_batch(requests)
    with _pool(
        expander,
        multibipartite,
        2,
        "t-shhot",
        n_shards=2,
        hot_queries=hot,
    ) as pool:
        assert pool.suggest_many(requests) == expected
        stats = pool.stats()
        assert stats.hot_hits == len(requests)
