"""Tests for the UPM fast engine: bit-identity, fit stats, Beta moments.

The fast engine (the step-batched vectorized kernel) is required to be
**bit-identical** to the reference sampler — exact array equality, not
approximate.  That contract is what makes the "fast" default safe: every
qualitative result in the rest of the suite is automatically a test of
both engines.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.logs.sessionizer import sessionize
from repro.personalize.upm import UPM, UPMConfig, fit_beta_moments
from repro.topicmodels.corpus import (
    Document,
    SessionCorpus,
    SessionData,
    build_corpus,
)
from tests.personalize.test_upm import two_topic_log


@pytest.fixture(scope="module")
def corpus():
    log = two_topic_log(sessions_per_user=6, users=8)
    return build_corpus(log, sessionize(log))


@pytest.fixture(scope="module")
def reference(corpus):
    return UPM(
        UPMConfig(
            n_topics=2, iterations=14, hyperopt_every=5, seed=3,
            engine="reference",
        )
    ).fit(corpus)


class TestEngineConfig:
    def test_default_is_fast(self):
        assert UPMConfig().engine == "fast"

    def test_engine_validated(self):
        with pytest.raises(ValueError):
            UPMConfig(engine="turbo")


class TestBitIdentity:
    def test_fast_engine_exactly_equals_reference(self, corpus, reference):
        fast = UPM(
            UPMConfig(
                n_topics=2, iterations=14, hyperopt_every=5, seed=3,
                engine="fast",
            )
        ).fit(corpus)
        for a, b in zip(reference._assignments, fast._assignments):
            assert np.array_equal(a, b)
        assert np.array_equal(reference.theta, fast.theta)
        assert np.array_equal(reference.alpha, fast.alpha)
        assert np.array_equal(reference.beta, fast.beta)
        assert np.array_equal(reference.delta, fast.delta)
        assert np.array_equal(reference.tau, fast.tau)
        # The observability channel too: per-document terms are summed in
        # document order.
        assert (
            fast.fit_stats.sweep_log_likelihood
            == reference.fit_stats.sweep_log_likelihood
        )

    def test_ablations_identical(self, corpus):
        # The URL/time channels take different code paths in the kernel;
        # each ablation must match the reference too.
        for kwargs in (
            dict(use_urls=False),
            dict(use_time=False),
            dict(use_urls=False, use_time=False),
            dict(hyperopt_every=0),
        ):
            ref = UPM(
                UPMConfig(
                    n_topics=2, iterations=8, seed=1, engine="reference",
                    **kwargs,
                )
            ).fit(corpus)
            fast = UPM(
                UPMConfig(
                    n_topics=2, iterations=8, seed=1, engine="fast",
                    **kwargs,
                )
            ).fit(corpus)
            assert np.array_equal(ref.theta, fast.theta), kwargs
            assert np.array_equal(ref.beta, fast.beta), kwargs
            assert np.array_equal(ref.tau, fast.tau), kwargs


#: Small vocabularies, so sessions repeat words and documents share them.
_N_WORDS = 9
_N_URLS = 5


@st.composite
def ragged_corpora(draw):
    """Corpora whose sweep steps are ragged.

    1-6 documents of 1-8 sessions each: later steps cover fewer documents,
    sessions repeat words, and sessions with and without URLs share a
    step.  Built directly, the way ``build_corpus`` lays sessions out.
    """
    documents = []
    for d in range(draw(st.integers(1, 6))):
        sessions = []
        for _ in range(draw(st.integers(1, 8))):
            words = draw(
                st.lists(st.integers(0, _N_WORDS - 1), min_size=1, max_size=7)
            )
            urls = draw(
                st.lists(st.integers(0, _N_URLS - 1), min_size=0, max_size=3)
            )
            sessions.append(
                SessionData(
                    words=tuple(words),
                    urls=tuple(urls),
                    timestamp=draw(st.floats(0.0, 1.0)),
                )
            )
        documents.append(
            Document(user_id=f"user{d}", sessions=tuple(sessions))
        )
    return SessionCorpus(
        documents=tuple(documents),
        word_of_id=tuple(f"w{i}" for i in range(_N_WORDS)),
        id_of_word={f"w{i}": i for i in range(_N_WORDS)},
        url_of_id=tuple(f"u{i}" for i in range(_N_URLS)),
        id_of_url={f"u{i}": i for i in range(_N_URLS)},
    )


class TestRaggedSteps:
    """The step-batched kernel on histories of unequal length.

    The module fixture gives every user the same number of one-query
    sessions with one URL each, so every step covers every document and
    every session carries URLs; a kernel that mis-sizes a ragged step
    passes it.
    """

    @settings(max_examples=60, deadline=None)
    @given(
        corpus=ragged_corpora(),
        n_topics=st.sampled_from([1, 2, 5]),
        use_urls=st.booleans(),
        use_time=st.booleans(),
        hyperopt_every=st.sampled_from([0, 2]),
        seed=st.integers(0, 2**16),
    )
    def test_fast_engine_exactly_equals_reference(
        self, corpus, n_topics, use_urls, use_time, hyperopt_every, seed,
    ):
        config = dict(
            n_topics=n_topics, iterations=4, hyperopt_every=hyperopt_every,
            use_urls=use_urls, use_time=use_time, seed=seed,
        )
        reference = UPM(UPMConfig(engine="reference", **config)).fit(corpus)
        fast = UPM(UPMConfig(engine="fast", **config)).fit(corpus)
        for a, b in zip(reference._assignments, fast._assignments):
            assert np.array_equal(a, b)
        for name in ("theta", "alpha", "beta", "delta", "tau"):
            assert np.array_equal(
                getattr(reference, name), getattr(fast, name)
            ), name
        assert (
            fast.fit_stats.sweep_log_likelihood
            == reference.fit_stats.sweep_log_likelihood
        )


class TestFitBetaMoments:
    def test_fewer_than_two_observations_is_flat(self):
        assert fit_beta_moments(np.array([])) == (1.0, 1.0)
        assert fit_beta_moments(np.array([0.4])) == (1.0, 1.0)

    def test_zero_variance_is_concentrated_proper_fit(self):
        a, b = fit_beta_moments(np.array([0.3, 0.3, 0.3]))
        assert np.isfinite(a) and np.isfinite(b)
        assert a >= 1.0 and b >= 1.0
        # Variance floored at 1e-4 -> very concentrated around 0.3.
        assert a / (a + b) == pytest.approx(0.3, abs=1e-3)

    def test_non_positive_common_factor_is_flat(self):
        # Two-point mass at the interval ends: variance equals the Bernoulli
        # maximum, so t(1-t)/var - 1 <= 0 and the fit degenerates.
        assert fit_beta_moments(np.array([0.0, 1.0])) == (1.0, 1.0)

    def test_moments_recovered(self):
        rng = np.random.default_rng(0)
        values = rng.beta(6.0, 2.0, size=4000)
        a, b = fit_beta_moments(values)
        assert a / (a + b) == pytest.approx(values.mean(), abs=1e-6)
        assert a == pytest.approx(6.0, rel=0.15)
        assert b == pytest.approx(2.0, rel=0.15)

    def test_parameters_floored(self):
        # Wide spread inside (0, 1) -> tiny raw parameters; floored at 1.
        a, b = fit_beta_moments(np.array([0.02, 0.98, 0.03, 0.97]))
        assert a >= 1.0 and b >= 1.0

    def test_model_paths_share_the_helper(self, corpus):
        # user_tau and the global tau refit go through fit_beta_moments:
        # every produced pair respects its floor/degeneracy contract.
        model = UPM(
            UPMConfig(n_topics=2, iterations=10, hyperopt_every=5, seed=0)
        ).fit(corpus)
        assert (model.tau >= 1.0).all()
        for user in ("u0", "u1"):
            assert (model.user_tau(user) >= 1.0).all()


class TestFitStats:
    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError):
            UPM().fit_stats

    def test_shapes_and_metadata(self, reference):
        stats = reference.fit_stats
        assert stats.engine == "reference"
        assert stats.n_sweeps == 14
        assert len(stats.sweep_seconds) == 14
        assert all(s >= 0 for s in stats.sweep_seconds)
        assert stats.total_seconds >= sum(stats.sweep_seconds) * 0.5
        assert stats.mean_sweep_seconds > 0

    def test_total_seconds_include_initialization(self, corpus, monkeypatch):
        # The fast engine applies sessions one by one only while it fills
        # the initial count tables, so a slow first call is set-up time.
        original = UPM._apply_session
        calls = []

        def slow_first_call(self, *args):
            if not calls:
                time.sleep(0.2)
            calls.append(args)
            original(self, *args)

        monkeypatch.setattr(UPM, "_apply_session", slow_first_call)
        stats = UPM(
            UPMConfig(n_topics=2, iterations=2, hyperopt_every=0, seed=0)
        ).fit(corpus).fit_stats
        assert stats.total_seconds >= 0.2 + sum(stats.sweep_seconds)

    def test_log_likelihood_improves(self, corpus):
        # Monotone-ish: the chain's pseudo-log-likelihood is noisy sweep to
        # sweep but must clearly rise from the random initialization on a
        # separable corpus.
        model = UPM(
            UPMConfig(n_topics=2, iterations=30, hyperopt_every=10, seed=0)
        ).fit(corpus)
        lls = model.fit_stats.sweep_log_likelihood
        assert np.mean(lls[-10:]) > np.mean(lls[:5])
        assert all(np.isfinite(v) for v in lls)
