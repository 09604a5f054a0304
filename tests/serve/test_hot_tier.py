"""Hot-query fast tier + batched IPC: bit-identity, refresh, regressions."""

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA, head_queries
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import sessionize
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestWorkerPool
from repro.stream.epoch import Epoch, EpochManager
from repro.synth.generator import GeneratorConfig, generate_log
from repro.utils.text import normalize_query
from repro.synth.world import make_world

from tests.serve.conftest import SERVE_CONFIG


def _metric_value(registry, name):
    for entry in registry.snapshot()["metrics"]:
        if entry["name"] == name:
            return entry["value"]
    return None


@pytest.fixture(scope="module")
def next_generation():
    """A second, different representation for refresh tests."""
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=40, mean_sessions_per_user=8, seed=17),
    ).log
    multibipartite = build_multibipartite(log, sessionize(log))
    expander = RandomWalkExpander(multibipartite)
    return log, multibipartite, expander


class TestHeadQueries:
    def test_ranked_by_frequency_then_query(self, synthetic_log):
        head = head_queries(synthetic_log, 10)
        assert len(head) == 10
        frequencies = [synthetic_log.query_frequency(q) for q in head]
        assert frequencies == sorted(frequencies, reverse=True)
        for first, second in zip(head, head[1:]):
            if synthetic_log.query_frequency(
                first
            ) == synthetic_log.query_frequency(second):
                assert first < second

    def test_zero_and_oversized_n(self, synthetic_log):
        assert head_queries(synthetic_log, 0) == []
        assert head_queries(synthetic_log, -3) == []
        everything = head_queries(synthetic_log, 10**6)
        assert sorted(everything) == synthetic_log.unique_queries


class TestHotBitIdentity:
    @pytest.mark.parametrize("n_hot", [1, 4, 16])
    def test_hot_and_cold_answers_match_single_process(
        self, synthetic_log, expander, multibipartite, single_suggester, n_hot
    ):
        hot = head_queries(synthetic_log, n_hot)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:10]
        ]
        probes.append(SuggestRequest(query="totally unseen query", k=8))
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix=f"t-hot{n_hot}",
            hot_queries=hot,
        ) as pool:
            assert pool.hot_entries == len({normalize_query(q) for q in hot})
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected

    def test_any_k_served_from_one_entry(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 4)
        probes = [
            SuggestRequest(query=q, k=k) for q in hot for k in (1, 3, 8, 20)
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotk",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected
            assert pool.hot_hits == len(probes)

    @pytest.mark.parametrize("n_workers", [2, 4])
    def test_batched_envelopes_match_at_worker_counts(
        self,
        synthetic_log,
        expander,
        multibipartite,
        single_suggester,
        n_workers,
    ):
        hot = head_queries(synthetic_log, 8)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:15]
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=n_workers,
            prefix=f"t-hotw{n_workers}",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected


class TestHotTierBehavior:
    def test_hot_hits_never_reach_a_worker(
        self, synthetic_log, expander, multibipartite
    ):
        hot = head_queries(synthetic_log, 6)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            registry=registry,
            prefix="t-hotskip",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) is not None
            stats = pool.stats()
            assert stats.hot_hits == len(probes)
            assert stats.hot_entries == len(hot)
            assert stats.total_requests == len(probes)
            assert all(worker.requests == 0 for worker in stats.workers)
        assert _metric_value(registry, "serve.pool.hot_hits") == len(probes)

    def test_context_requests_take_the_worker_path(
        self, synthetic_log, expander, multibipartite, single_suggester
    ):
        hot = head_queries(synthetic_log, 4)
        context = (
            QueryRecord(
                user_id="u0",
                query=multibipartite.queries[1],
                timestamp=100.0,
                clicked_url="https://example.org/a",
                record_id=7,
            ),
        )
        probes = [
            SuggestRequest(query=q, k=8, context=context, timestamp=200.0)
            for q in hot
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotctx",
            hot_queries=hot,
        ) as pool:
            assert pool.suggest_many(probes) == expected
            # Context-bearing requests must bypass the O(1) tier entirely.
            assert pool.hot_hits == 0
            assert pool.stats().workers[0].requests == len(probes)


class TestHotRefresh:
    def test_publish_plane_rebuilds_table_for_new_generation(
        self, synthetic_log, expander, multibipartite, next_generation
    ):
        log2, mb2, expander2 = next_generation
        hot2 = head_queries(log2, 6)
        single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
        probes2 = [SuggestRequest(query=q, k=8) for q in hot2]
        expected2 = single2.suggest_batch(probes2)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            prefix="t-hotswap",
            hot_queries=head_queries(synthetic_log, 6),
        ) as pool:
            before = pool.hot_entries
            assert before > 0
            pool.publish_plane(expander2, multibipartite=mb2, hot_queries=hot2)
            # Hot answers now come from the *new* generation's precompute —
            # a stale entry would fail this bit-identity check.
            assert pool.suggest_many(probes2) == expected2
            assert pool.hot_hits == len(probes2)

    def test_epoch_publish_rederives_head_with_hot_top(
        self, synthetic_log, expander, multibipartite, next_generation
    ):
        log2, mb2, expander2 = next_generation
        single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
        head2 = head_queries(log2, 5)
        probes2 = [SuggestRequest(query=q, k=8) for q in head2]
        expected2 = single2.suggest_batch(probes2)
        manager = EpochManager(
            Epoch(
                epoch_id=0,
                log=synthetic_log,
                multibipartite=multibipartite,
                matrices=expander.matrices,
                expander=expander,
                touched_queries=frozenset(),
            )
        )
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-hotepoch",
            hot_queries=head_queries(synthetic_log, 5),
            hot_top=5,
        ) as pool:
            pool.attach_epochs(manager)
            manager.publish(
                Epoch(
                    epoch_id=1,
                    log=log2,
                    multibipartite=mb2,
                    matrices=expander2.matrices,
                    expander=expander2,
                    touched_queries=frozenset(mb2.queries),
                )
            )
            assert pool.stats().epoch_id == 1
            assert pool.suggest_many(probes2) == expected2
            # All five head-of-epoch-1 probes were served from the table.
            assert pool.hot_hits == len(probes2)


class TestPoolRegressions:
    def test_stale_reply_envelope_is_drained_not_matched(
        self, expander, multibipartite, single_suggester
    ):
        """A late envelope from a timed-out batch must not poison calls."""
        probes = [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:6]
        ]
        expected = single_suggester.suggest_batch(probes)
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-stale",
        ) as pool:
            # Simulate a reply surfacing after its batch already timed out.
            pool._reply_queue.put(
                ("bres", 999_999, 0, 0, [(["bogus"], None)] * len(probes))
            )
            assert pool.suggest_many(probes) == expected
            assert pool.suggest_many(probes) == expected

    def test_queue_depth_gauge_returns_to_zero(
        self, synthetic_log, expander, multibipartite
    ):
        hot = head_queries(synthetic_log, 3)
        probes = [SuggestRequest(query=q, k=8) for q in hot]
        probes += [
            SuggestRequest(query=q, k=8) for q in multibipartite.queries[:8]
        ]
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            registry=registry,
            prefix="t-depth",
            hot_queries=hot,
        ) as pool:
            for _ in range(3):
                pool.suggest_many(probes)
            assert _metric_value(registry, "serve.pool.queue_depth") == 0

    def test_dead_worker_is_reported_by_name(self, expander, multibipartite):
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=1,
            prefix="t-dead",
            ack_timeout=30.0,
        ) as pool:
            pool._workers[0].terminate()
            pool._workers[0].join(timeout=30)
            with pytest.raises(RuntimeError, match="worker process died"):
                pool.suggest(multibipartite.queries[0], k=8)
