"""Shared profile plane: zero-copy attach, pooled bit-identity, swaps."""

import os
import threading

import numpy as np
import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA
from repro.logs.schema import QueryRecord
from repro.personalize.profiles import ArrayProfileStore
from repro.serve.pool import SuggestWorkerPool
from repro.serve.profile_plane import SharedProfileStore, attach_profiles

from tests.serve.conftest import SERVE_PERSONAL_CONFIG


def _dev_shm_entries(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


@pytest.fixture(scope="module")
def profile_arrays(profile_store):
    return profile_store.arrays


@pytest.fixture(scope="module")
def personal_requests(multibipartite, profile_store):
    """Probes cycling profiled users, plus unprofiled and anonymous ones."""
    users = profile_store.user_ids
    requests = [
        SuggestRequest(query=query, k=8, user_id=users[i % len(users)])
        for i, query in enumerate(multibipartite.queries[:15])
    ]
    requests.append(
        SuggestRequest(query=multibipartite.queries[0], k=8, user_id="ghost")
    )
    requests.append(SuggestRequest(query=multibipartite.queries[1], k=8))
    return requests


@pytest.fixture(scope="module")
def personal_expected(personal_suggester, personal_requests):
    return personal_suggester.suggest_batch(personal_requests)


# -- raw plane round trip --------------------------------------------------------


def test_attached_plane_is_zero_copy_and_bit_identical(
    profile_store, profile_arrays
):
    store = SharedProfileStore.publish(profile_arrays, prefix="t-pplane")
    plane = attach_profiles(store.meta)
    try:
        assert plane.shares_memory()
        attached = plane.store
        assert set(attached.user_ids) == set(profile_store.user_ids)
        queries = ["sun java", "travel deals", "totally unseen query", ""]
        for user_id in profile_store.user_ids[:5] + ["ghost"]:
            for query in queries:
                assert attached.score(user_id, query) == profile_store.score(
                    user_id, query
                )
        # The theta rows the profiles expose are views into the attached
        # arrays (themselves views into the segment, per shares_memory()).
        user = profile_store.user_ids[0]
        assert np.shares_memory(
            attached.arrays.theta, attached.profile(user).theta
        )
    finally:
        plane.close()
        store.unlink()
        store.close()
    assert _dev_shm_entries(store.segment_name) == []


def test_built_store_scores_like_the_model(profile_store, upm_model):
    """``PQSDA.build``'s store is the Eq. 31 reference, bit for bit."""
    assert isinstance(profile_store, ArrayProfileStore)
    users = list(upm_model.corpus.doc_index)
    assert profile_store.user_ids == sorted(users)
    in_vocabulary = " ".join(upm_model.corpus.word_of_id[:3])
    queries = [in_vocabulary, "sun java", "totally unseen query", ""]
    theta = upm_model.theta
    for user_id in users:
        d = upm_model.corpus.doc_index[user_id]
        assert np.array_equal(profile_store.profile(user_id).theta, theta[d])
        for query in queries:
            assert profile_store.score(
                user_id, query
            ) == upm_model.preference_score(user_id, query)
    for query in queries:
        assert profile_store.score(
            "ghost", query
        ) == upm_model.preference_score("ghost", query)
    for lookup in (profile_store.profile, upm_model.profile_of,
                   upm_model.user_tau):
        with pytest.raises(KeyError):
            lookup("ghost")


def test_batch_scoring_matches_per_query(profile_store, profile_arrays):
    attached = ArrayProfileStore(profile_arrays)
    user = profile_store.user_ids[0]
    candidates = ["sun java", "sun java", "travel", "unseen thing", ""]
    batch = attached.score_candidates(user, candidates)
    for query in candidates:
        assert batch[query] == profile_store.score(user, query)


# -- pooled personalized serving -------------------------------------------------


@pytest.mark.parametrize("n_workers", [1, 2, 4])
def test_pooled_personalized_bit_identical(
    personal_suggester, personal_requests, personal_expected, n_workers
):
    with SuggestWorkerPool.from_suggester(
        personal_suggester,
        n_workers=n_workers,
        prefix=f"t-pers{n_workers}",
    ) as pool:
        assert pool.serves_profiles
        assert pool.suggest_many(personal_requests) == personal_expected
        # Warm second pass — still identical.
        assert pool.suggest_many(personal_requests) == personal_expected
        stats = pool.stats()
        assert all(w.profile_shares_memory for w in stats.workers)
        assert stats.profile_users == len(personal_suggester.profiles)


def test_unprofiled_user_served_as_anonymous(
    personal_suggester, multibipartite
):
    query = multibipartite.queries[3]
    anonymous = personal_suggester.suggest(query, k=8)
    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=1, prefix="t-ghost"
    ) as pool:
        assert pool.suggest(query, k=8, user_id="no-such-user") == anonymous


def test_personalized_requests_bypass_hot_tier(
    personal_suggester, profile_store, multibipartite, synthetic_log
):
    from repro.core.suggester import head_queries

    hot = head_queries(synthetic_log, 10)
    user = profile_store.user_ids[0]
    probe = hot[0]
    with SuggestWorkerPool.from_suggester(
        personal_suggester,
        n_workers=1,
        prefix="t-bypass",
        hot_queries=hot,
    ) as pool:
        assert pool.hot_entries > 0
        # Profiled user: must take the worker path (Borda fusion)...
        expected = personal_suggester.suggest(probe, k=8, user_id=user)
        assert pool.suggest(probe, k=8, user_id=user) == expected
        assert pool.stats().hot_hits == 0
        # ...while unprofiled users' requests stay hot-eligible.
        pool.suggest(probe, k=8, user_id="ghost")
        pool.suggest(probe, k=8)
        assert pool.stats().hot_hits == 2


# -- generation swaps ------------------------------------------------------------


@pytest.fixture(scope="module")
def folded_store(profile_store, profile_arrays, multibipartite):
    base = ArrayProfileStore(profile_arrays)
    user = profile_store.user_ids[0]
    records = [
        QueryRecord(
            user_id=user,
            query=multibipartite.queries[i],
            timestamp=float(i),
            clicked_url="u",
        )
        for i in range(4)
    ]
    return base.fold_feedback(records)


def test_fold_feedback_is_deterministic_and_versioned(
    profile_arrays, folded_store, multibipartite, profile_store
):
    base = ArrayProfileStore(profile_arrays)
    user = profile_store.user_ids[0]
    records = [
        QueryRecord(
            user_id=user,
            query=multibipartite.queries[i],
            timestamp=float(i),
            clicked_url="u",
        )
        for i in range(4)
    ]
    again = base.fold_feedback(records)
    assert again.generation == folded_store.generation == 1
    assert np.array_equal(again.arrays.theta, folded_store.arrays.theta)
    assert np.array_equal(again.arrays.counts, folded_store.arrays.counts)
    # The receiver is untouched (copy-on-write).
    assert np.array_equal(base.arrays.theta, profile_arrays.theta)


def test_profile_swap_updates_all_workers_and_unlinks_old(
    personal_suggester, multibipartite, expander, folded_store, profile_store
):
    query = multibipartite.queries[2]
    user = profile_store.user_ids[0]
    after_single = PQSDA(
        multibipartite, expander, folded_store, SERVE_PERSONAL_CONFIG
    )
    expected_after = after_single.suggest(query, k=8, user_id=user)
    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=2, prefix="t-pswap"
    ) as pool:
        first = pool.profile_segment_name
        assert _dev_shm_entries(first) == [first]
        pool.publish_profiles(folded_store)
        assert pool.profile_generation == folded_store.generation
        # Old profile segment retired only after every worker acked.
        assert _dev_shm_entries(first) == []
        assert pool.suggest(query, k=8, user_id=user) == expected_after
        stats = pool.stats()
        assert all(
            w.profile_generation == folded_store.generation
            for w in stats.workers
        )
        assert all(w.profile_shares_memory for w in stats.workers)
    assert _dev_shm_entries("t-pswap") == []


def test_profile_swap_under_concurrent_suggests(
    personal_suggester, multibipartite, expander, folded_store, profile_store
):
    """Every answer during a swap equals one generation — never a blend."""
    user = profile_store.user_ids[0]
    queries = multibipartite.queries[:6]
    requests = [
        SuggestRequest(query=q, k=8, user_id=user) for q in queries
    ]
    before = personal_suggester.suggest_batch(requests)
    after_single = PQSDA(
        multibipartite, expander, folded_store, SERVE_PERSONAL_CONFIG
    )
    after = after_single.suggest_batch(requests)
    failures = []
    stop = threading.Event()

    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=2, prefix="t-pconc"
    ) as pool:

        def hammer():
            while not stop.is_set():
                got = pool.suggest_many(requests)
                for result, old, new in zip(got, before, after):
                    if result != old and result != new:
                        failures.append(result)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            pool.publish_profiles(folded_store)
        finally:
            stop.set()
            thread.join()
        assert not failures
        assert pool.suggest_many(requests) == after


def test_epoch_with_profiles_republishes_plane(
    personal_suggester, multibipartite, expander, folded_store, profile_store
):
    """``publish_epoch`` carries ``Epoch.profiles`` into the pool."""
    from repro.stream.epoch import Epoch

    user = profile_store.user_ids[0]
    query = multibipartite.queries[4]
    after_single = PQSDA(
        multibipartite, expander, folded_store, SERVE_PERSONAL_CONFIG
    )
    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=1, prefix="t-pepoch"
    ) as pool:
        epoch = Epoch(
            epoch_id=1,
            log=None,
            multibipartite=multibipartite,
            matrices=expander.matrices,
            expander=expander,
            touched_queries=frozenset(),
            profiles=folded_store,
        )
        pool.publish_epoch(epoch)
        assert pool.profile_generation == folded_store.generation
        assert pool.suggest(query, k=8, user_id=user) == after_single.suggest(
            query, k=8, user_id=user
        )
