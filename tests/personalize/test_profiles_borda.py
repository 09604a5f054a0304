"""Tests for repro.personalize.profiles and repro.personalize.borda."""

import numpy as np
import pytest

from repro.core import PQSDA, PQSDAConfig
from repro.logs.sessionizer import sessionize
from repro.personalize.borda import personalize_ranking
from repro.personalize.profiles import ArrayProfileStore, UserProfile
from repro.personalize.upm import UPM, UPMConfig
from repro.topicmodels.corpus import build_corpus
from repro.utils.ranking import ranks_from_scores
from tests.personalize.test_upm import two_topic_log

UPM_CONFIG = UPMConfig(n_topics=2, iterations=30, seed=0)


@pytest.fixture(scope="module")
def model():
    """The UPM fit ``PQSDA.build`` runs: the Eq. 31 reference."""
    log = two_topic_log()
    return UPM(UPM_CONFIG).fit(build_corpus(log, sessionize(log)))


@pytest.fixture(scope="module")
def store():
    """The profile store ``PQSDA.build`` serves through."""
    return PQSDA.build(
        two_topic_log(), config=PQSDAConfig(upm=UPM_CONFIG)
    ).profiles


class TestUserProfile:
    def test_valid(self):
        profile = UserProfile("u", np.array([0.7, 0.3]))
        assert profile.dominant_topic == 0

    def test_invalid_theta(self):
        with pytest.raises(ValueError):
            UserProfile("u", np.array([0.5, 0.1]))
        with pytest.raises(ValueError):
            UserProfile("u", np.array([[0.5, 0.5]]))
        with pytest.raises(ValueError):
            UserProfile("u", np.array([]))


class TestUserProfileStore:
    """The serving surface of the store ``PQSDA.build`` returns."""

    def test_contains_all_users(self, store):
        assert len(store) == 8
        assert "u0" in store
        assert "ghost" not in store

    def test_profile_lookup(self, store):
        profile = store.profile("u0")
        assert profile.user_id == "u0"
        assert profile.theta.sum() == pytest.approx(1.0)
        with pytest.raises(KeyError):
            store.profile("ghost")

    def test_score_candidates(self, store):
        scores = store.score_candidates("u0", ["java jvm", "telescope orbit"])
        assert scores["java jvm"] > scores["telescope orbit"]

    def test_rank_candidates(self, store):
        ranking = store.rank_candidates(
            "u0", ["telescope orbit", "java jvm", "comet orbit"]
        )
        assert ranking[0] == "java jvm"

    def test_unknown_user_scores_zero(self, store):
        assert store.score("ghost", "java") == 0.0

    def test_user_ids_sorted_and_cached(self, store):
        ids = store.user_ids
        assert ids == sorted(ids)
        # The property returns a fresh list over one cached sort.
        assert store.user_ids == ids
        assert store.user_ids is not ids

    def test_batch_scores_match_per_query(self, store):
        candidates = ["java jvm", "telescope orbit", "java jvm", "unseen"]
        batch = store.score_candidates("u0", candidates)
        for query in candidates:
            assert batch[query] == store.score("u0", query)


class TestArrayProfileStore:
    """``PQSDA.build``'s store against the fitted model it packs."""

    def test_bit_identical_to_model_backed_store(self, model, store):
        assert isinstance(store, ArrayProfileStore)
        users = list(model.corpus.doc_index)
        assert store.user_ids == sorted(users)
        queries = ["java jvm", "telescope orbit", "comet", "unseen", ""]
        for user_id in users + ["ghost"]:
            for query in queries:
                assert store.score(user_id, query) == model.preference_score(
                    user_id, query
                )
            assert store.score_candidates(user_id, queries) == {
                query: model.preference_score(user_id, query)
                for query in queries
            }

    def test_profiles_round_trip(self, model, store):
        theta = model.theta
        for user_id, d in model.corpus.doc_index.items():
            assert np.array_equal(store.profile(user_id).theta, theta[d])
        for lookup in (store.profile, model.profile_of, model.user_tau):
            with pytest.raises(KeyError):
                lookup("ghost")

    def test_rank_candidates_matches(self, model, store):
        candidates = ["telescope orbit", "java jvm", "comet orbit"]
        scores = {query: model.preference_score("u0", query)
                  for query in candidates}
        assert store.rank_candidates("u0", candidates) == ranks_from_scores(
            scores
        )


class TestPersonalizeRanking:
    def test_preference_promotes_candidate(self):
        diversified = ["a", "b", "c", "d"]
        # The user loves "d"; plain Borda should pull it up.
        scores = {"a": 0.1, "b": 0.1, "c": 0.1, "d": 0.9}
        final = personalize_ranking(diversified, scores)
        assert final.rank_of("d") < 3

    def test_zero_weight_keeps_diversified_order(self):
        diversified = ["a", "b", "c"]
        scores = {"a": 0.0, "b": 0.0, "c": 1.0}
        final = personalize_ranking(
            diversified, scores, personalization_weight=0.0
        )
        assert list(final) == diversified

    def test_large_weight_follows_preferences(self):
        diversified = ["a", "b", "c"]
        scores = {"a": 0.1, "b": 0.5, "c": 0.9}
        final = personalize_ranking(
            diversified, scores, personalization_weight=10.0
        )
        assert list(final) == ["c", "b", "a"]

    def test_missing_scores_treated_as_zero(self):
        final = personalize_ranking(["a", "b"], {"b": 1.0})
        assert set(final) == {"a", "b"}

    def test_empty_candidates(self):
        assert list(personalize_ranking([], {})) == []

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            personalize_ranking(["a"], {}, personalization_weight=-1.0)

    def test_same_set_preserved(self):
        diversified = ["a", "b", "c", "d", "e"]
        scores = {q: i / 10 for i, q in enumerate(diversified)}
        final = personalize_ranking(diversified, scores)
        assert sorted(final) == sorted(diversified)
