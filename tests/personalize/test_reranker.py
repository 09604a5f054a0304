"""Tests for repro.personalize.reranker (the (P)-wrapped baselines)."""

import pytest

from repro.baselines.base import Suggester
from repro.logs.sessionizer import sessionize
from repro.personalize.profiles import ArrayProfileStore, ProfileArrays
from repro.personalize.reranker import PersonalizedReranker
from repro.personalize.upm import UPM, UPMConfig
from repro.topicmodels.corpus import build_corpus
from tests.personalize.test_upm import two_topic_log


class _FixedSuggester(Suggester):
    name = "FIXED"

    def __init__(self, output):
        self._output = output

    def suggest(self, query, k=10, user_id=None, context=(), timestamp=0.0):
        return list(self._output[:k])


@pytest.fixture(scope="module")
def store():
    log = two_topic_log()
    corpus = build_corpus(log, sessionize(log))
    model = UPM(UPMConfig(n_topics=2, iterations=30, seed=0)).fit(corpus)
    return ArrayProfileStore(ProfileArrays.from_model(model))


class TestPersonalizedReranker:
    def test_name_follows_paper_convention(self, store):
        wrapped = PersonalizedReranker(_FixedSuggester([]), store)
        assert wrapped.name == "FIXED(P)"
        assert wrapped.base.name == "FIXED"

    def test_reranks_toward_user_preference(self, store):
        base = _FixedSuggester(["telescope orbit", "comet orbit", "java jvm"])
        wrapped = PersonalizedReranker(base, store, personalization_weight=5.0)
        # u0 is the java user: "java jvm" should rise from last place.
        reranked = wrapped.suggest("anything", k=3, user_id="u0")
        assert reranked.index("java jvm") < 2

    def test_anonymous_passthrough(self, store):
        base = _FixedSuggester(["a", "b", "c"])
        wrapped = PersonalizedReranker(base, store)
        assert wrapped.suggest("q", k=3) == ["a", "b", "c"]

    def test_unknown_user_passthrough(self, store):
        base = _FixedSuggester(["a", "b", "c"])
        wrapped = PersonalizedReranker(base, store)
        assert wrapped.suggest("q", k=3, user_id="ghost") == ["a", "b", "c"]

    def test_empty_base_output(self, store):
        wrapped = PersonalizedReranker(_FixedSuggester([]), store)
        assert wrapped.suggest("q", user_id="u0") == []

    def test_same_candidate_set(self, store):
        base = _FixedSuggester(["telescope orbit", "java jvm", "comet orbit"])
        wrapped = PersonalizedReranker(base, store)
        assert sorted(wrapped.suggest("q", k=3, user_id="u1")) == sorted(
            base.suggest("q", k=3)
        )

    def test_negative_weight_rejected(self, store):
        with pytest.raises(ValueError):
            PersonalizedReranker(_FixedSuggester([]), store, -1.0)
