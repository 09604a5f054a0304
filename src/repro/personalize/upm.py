"""The User Profiling Model (paper Sec. V-A, Algorithm 2, Eqs. 18-30).

UPM is a collapsed-Gibbs topic model with three departures from LDA:

1. **Session-level topics** — the words and URLs of one session share a
   single topic variable ``z`` (Algorithm 2 line 8);
2. **Temporal channel** — each topic has a Beta distribution over the log's
   normalized time span (Algorithm 2 line 13), capturing topical drift;
3. **Per-user emission counts with learned hyperparameters** — the
   topic-word (and topic-URL) distribution for document *d* is
   ``(C_kwd + β_kw) / (C_k·d + Σβ_k·)``: the *shared* structure lives in the
   learned asymmetric ``β``/``δ`` vectors (Eqs. 26-27) while the per-user
   counts ``C_kwd`` encode the "Toyota vs. Ford" idiosyncrasy the paper
   motivates.

Timestamp convention: the paper's Eq. 22 writes the Beta density with
``(1-t)^{τ₁-1} t^{τ₂-1}`` but its moment updates (Eqs. 28-29) follow the
standard parameterization; we use ``t^{τ₁-1} (1-t)^{τ₂-1}`` with
``τ₁ = t̄(t̄(1-t̄)/s² - 1)`` and ``τ₂ = (1-t̄)(...)``, i.e. the standard
method-of-moments Beta fit (same resolution as Topics-over-Time).

**Engines.**  ``UPMConfig.engine`` selects how ``fit`` runs the sampler,
always in one process:

* ``"fast"`` (default) — the step-batched kernel of
  :mod:`repro.personalize.gibbs_fast`, which resamples the *s*-th session
  of every document in one vectorized step;
* ``"reference"`` — the straightforward per-session implementation below,
  kept as the executable specification.

Both engines share the per-``(document, sweep)`` RNG streams and every
hyperparameter-optimization code path, and are **bit-identical**: exactly
equal assignments, ``theta``, ``alpha``, ``beta``, ``delta``, ``tau`` and
per-sweep pseudo-log-likelihood (pinned by
``tests/personalize/test_fast_engine.py``).

Serving never scores through this class: ``ProfileArrays.from_model``
packs a fitted model into the arrays that
:class:`repro.personalize.profiles.ArrayProfileStore` scores, and
:meth:`UPM.preference_score` stays as the Eq. 31 reference that store is
tested against.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter

import math

import numpy as np
from scipy import sparse
from scipy.special import betaln, gammaln

from repro.personalize.gibbs_fast import (
    TIME_EPS as _TIME_EPS,
    FastKernel,
    SamplerState,
    doc_rng,
)
from repro.obs.registry import MetricsRegistry, NULL_REGISTRY
from repro.personalize.hyperopt import (
    optimize_dirichlet_fixed_point,
    optimize_dirichlet_lbfgs,
)
from repro.topicmodels.corpus import SessionCorpus
from repro.utils.rng import sample_index_with_total
from repro.utils.text import tokenize

__all__ = ["UPMConfig", "UPM", "UPMFitStats", "fit_beta_moments"]

_MIN_TAU = 1.0


def fit_beta_moments(values: np.ndarray) -> tuple[float, float]:
    """Method-of-moments Beta fit over *values* in [0, 1] (Eqs. 28-29).

    Returns the flat ``(1.0, 1.0)`` for the degenerate cases: fewer than
    two observations, or a spread so large that the common factor
    ``t̄(1-t̄)/s² - 1`` is non-positive (only possible for two-point mass
    at the interval ends).  Zero variance is floored at ``1e-4`` — a very
    concentrated but proper fit.  Fitted parameters are floored at 1.0 so
    a topic's density never diverges at the interval ends.
    """
    values = np.asarray(values, dtype=float)
    if values.size < 2:
        return (1.0, 1.0)
    mean = float(np.clip(values.mean(), _TIME_EPS, 1 - _TIME_EPS))
    var = float(values.var())
    if var <= 0:
        var = 1e-4
    common = mean * (1 - mean) / var - 1.0
    if common <= 0:
        return (1.0, 1.0)
    return (
        max(mean * common, _MIN_TAU),
        max((1 - mean) * common, _MIN_TAU),
    )


@dataclass(frozen=True, slots=True)
class UPMConfig:
    """UPM training parameters.

    Attributes:
        n_topics: Number of latent topics ``K``.
        alpha0: Initial symmetric document-topic prior.
        beta0: Initial symmetric topic-word prior.
        delta0: Initial symmetric topic-URL prior.
        iterations: Gibbs sweeps.
        hyperopt_every: Optimize ``α``, ``β``, ``δ`` and refit ``τ`` every
            this many sweeps (0 disables hyperparameter learning, reducing
            UPM toward a session-level LDA+time model — the ablation knob).
        hyperopt_method: ``"lbfgs"`` (the paper's choice) or
            ``"fixed_point"`` (Minka's iteration; much cheaper).
        use_urls: Include the URL channel (ablation knob).
        use_time: Include the timestamp channel (ablation knob).
        engine: ``"fast"`` (step-batched vectorized kernel) or
            ``"reference"`` (the executable specification).  Both produce
            bit-identical fits.
        seed: RNG seed.
    """

    n_topics: int = 12
    alpha0: float = 0.5
    beta0: float = 0.05
    delta0: float = 0.05
    iterations: int = 60
    hyperopt_every: int = 20
    hyperopt_method: str = "fixed_point"
    use_urls: bool = True
    use_time: bool = True
    engine: str = "fast"
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_topics < 1:
            raise ValueError("n_topics must be >= 1")
        for name in ("alpha0", "beta0", "delta0"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.iterations < 1:
            raise ValueError("iterations must be >= 1")
        if self.hyperopt_every < 0:
            raise ValueError("hyperopt_every must be >= 0")
        if self.hyperopt_method not in ("lbfgs", "fixed_point"):
            raise ValueError(
                "hyperopt_method must be 'lbfgs' or 'fixed_point', got "
                f"{self.hyperopt_method!r}"
            )
        if self.engine not in ("reference", "fast"):
            raise ValueError(
                f"engine must be 'reference' or 'fast', got {self.engine!r}"
            )


@dataclass(frozen=True)
class UPMFitStats:
    """Training observability for one ``UPM.fit`` run.

    Attributes:
        engine: Which sampler ran (``"reference"`` or ``"fast"``).
        sweep_log_likelihood: Per-sweep Gibbs pseudo-log-likelihood — the
            summed log posterior probability of the drawn session topics,
            a free byproduct of the sweep.  Rises (noisily) as the chain
            mixes; identical across engines.
        sweep_seconds: Per-sweep sampling wall clock (excluding the
            hyperopt barriers).
        total_seconds: End-to-end ``fit`` wall clock including barriers.
    """

    engine: str
    sweep_log_likelihood: tuple[float, ...]
    sweep_seconds: tuple[float, ...]
    total_seconds: float

    @property
    def n_sweeps(self) -> int:
        """Number of recorded sweeps."""
        return len(self.sweep_log_likelihood)

    @property
    def mean_sweep_seconds(self) -> float:
        """Mean sampling seconds per sweep."""
        if not self.sweep_seconds:
            return 0.0
        return float(np.mean(self.sweep_seconds))


class UPM:
    """User Profiling Model: fit on a :class:`SessionCorpus`, then score.

    Usage::

        model = UPM(UPMConfig(n_topics=10, seed=0))
        model.fit(corpus)
        theta = model.theta                    # (D, K) user profiles, Eq. 30
        score = model.preference_score("user0001", "sun java")  # Eq. 31
    """

    def __init__(self, config: UPMConfig | None = None) -> None:
        self.config = config if config is not None else UPMConfig()
        self._fitted = False
        self._fit_stats: UPMFitStats | None = None
        self._fit_registry = MetricsRegistry()
        self._s_ll = self._fit_registry.series("upm.sweep.log_likelihood")
        self._s_secs = self._fit_registry.series("upm.sweep.seconds")
        self.attach_metrics(None)

    # -- observability -------------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Mirror per-sweep training metrics into *registry* (``upm.*``).

        Every fit already routes its per-sweep pseudo-log-likelihood and
        wall clock through an internal registry (see :attr:`fit_metrics`);
        attaching an external one additionally feeds the
        ``upm.sweep.seconds`` histogram, the ``upm.sweep.log_likelihood``
        gauge (last sweep's value) and the ``upm.sweeps`` / ``upm.fits``
        counters.  ``None`` detaches (the default no-op binding).
        """
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_sweep_seconds = registry.histogram("upm.sweep.seconds")
        self._m_sweep_ll = registry.gauge("upm.sweep.log_likelihood")
        self._m_sweeps = registry.counter("upm.sweeps")
        self._m_fits = registry.counter("upm.fits")
        self._m_fit_seconds = registry.histogram(
            "upm.fit.seconds", buckets=(0.1, 0.5, 1.0, 5.0, 15.0, 60.0, 300.0)
        )

    @property
    def fit_metrics(self) -> MetricsRegistry:
        """The last fit's internal registry (``upm.sweep.*`` series).

        Replaces the ad-hoc per-engine list accumulators: both engines
        observe each sweep through :meth:`_observe_sweep`, and
        :class:`UPMFitStats` is assembled from these series.
        """
        return self._fit_registry

    def _observe_sweep(self, log_likelihood: float, seconds: float) -> None:
        """Record one completed Gibbs sweep (all engines funnel here)."""
        self._s_ll.append(log_likelihood)
        self._s_secs.append(seconds)
        self._m_sweep_seconds.observe(seconds)
        self._m_sweep_ll.set(log_likelihood)
        self._m_sweeps.inc()

    # -- fitting -------------------------------------------------------------------

    def fit(self, corpus: SessionCorpus) -> "UPM":
        """Run collapsed Gibbs with interleaved hyperparameter optimization."""
        start_time = perf_counter()
        if corpus.n_documents == 0:
            raise ValueError("corpus has no documents")
        config = self.config
        K = config.n_topics
        self._fitted = False
        self._corpus = corpus
        D, W, U = corpus.n_documents, corpus.n_words, corpus.n_urls

        self._alpha = np.full(K, config.alpha0)
        self._beta = np.full((K, W), config.beta0)
        self._delta = np.full((K, max(U, 1)), config.delta0)
        self._tau = np.ones((K, 2))

        # Per-document local vocabularies keep the count tables small.
        self._local_word: list[dict[int, int]] = []
        self._local_url: list[dict[int, int]] = []
        for doc in corpus.documents:
            words = sorted({w for s in doc.sessions for w in s.words})
            urls = sorted({u for s in doc.sessions for u in s.urls})
            self._local_word.append({w: i for i, w in enumerate(words)})
            self._local_url.append({u: i for i, u in enumerate(urls)})

        # Global-id gathers of each document's local vocabulary — the CSR
        # structure the sparse hyperparameter optimization slots counts
        # into (column order == local index order by construction).
        self._doc_word_gids = [
            np.fromiter(m.keys(), dtype=np.int64, count=len(m))
            for m in self._local_word
        ]
        self._doc_url_gids = [
            np.fromiter(m.keys(), dtype=np.int64, count=len(m))
            for m in self._local_url
        ]
        self._word_indices = np.concatenate(self._doc_word_gids)
        self._word_indptr = _indptr([g.size for g in self._doc_word_gids])
        self._url_indices = np.concatenate(self._doc_url_gids)
        self._url_indptr = _indptr([g.size for g in self._doc_url_gids])
        self._session_indptr = _indptr(
            [len(doc.sessions) for doc in corpus.documents]
        )

        # One flat count table per channel, laid out like that CSR: row k
        # of the table is topic k's counts over every document's local
        # vocabulary.  ``_word_counts[d]`` / ``_url_counts[d]`` are
        # document d's (K, W_d) / (K, U_d) column views of it, and
        # ``_assignments[d]`` views d's sessions in the flat topic vector.
        self._word_table = np.zeros((K, self._word_indices.size))
        self._url_table = np.zeros((K, self._url_indices.size))
        self._word_counts = _column_views(self._word_table, self._word_indptr)
        self._url_counts = _column_views(self._url_table, self._url_indptr)
        self._session_topic = np.empty(self._session_indptr[-1], dtype=int)
        self._assignments = [
            self._session_topic[a:b]
            for a, b in zip(self._session_indptr[:-1], self._session_indptr[1:])
        ]
        self._word_totals = np.zeros((D, K))
        self._url_totals = np.zeros((D, K))
        self._doc_topic = np.zeros((D, K))
        for d, doc in enumerate(corpus.documents):
            init_rng = self._doc_rng(d, sweep=0)
            z = self._assignments[d]
            z[:] = init_rng.integers(0, K, size=len(doc.sessions))
            for s in range(len(doc.sessions)):
                self._apply_session(d, s, int(z[s]), +1)

        self._fit_registry = MetricsRegistry()
        self._s_ll = self._fit_registry.series("upm.sweep.log_likelihood")
        self._s_secs = self._fit_registry.series("upm.sweep.seconds")
        if config.engine == "fast":
            self._fit_fast()
        else:
            self._fit_reference()
        total_seconds = perf_counter() - start_time
        self._fit_stats = UPMFitStats(
            engine=config.engine,
            sweep_log_likelihood=self._s_ll.values,
            sweep_seconds=self._s_secs.values,
            total_seconds=total_seconds,
        )
        self._m_fit_seconds.observe(total_seconds)
        self._m_fits.inc()
        self._fitted = True
        return self

    def _doc_rng(self, d: int, sweep: int) -> np.random.Generator:
        """Per-(document, sweep) RNG stream (see ``gibbs_fast.doc_rng``)."""
        return doc_rng(self.config.seed, sweep, d)

    def _maybe_optimize(self, sweep: int) -> None:
        config = self.config
        if config.hyperopt_every and sweep % config.hyperopt_every == 0:
            self._optimize_hyperparameters()
            if config.use_time:
                self._refit_tau()

    # -- reference engine ------------------------------------------------------------

    def _fit_reference(self) -> None:
        """Per-session sweeps — the executable specification."""
        config = self.config
        D = self._corpus.n_documents
        for sweep in range(1, config.iterations + 1):
            start = perf_counter()
            per_doc = np.empty(D)
            for d in range(D):
                per_doc[d] = self._sweep_document(d, self._doc_rng(d, sweep))
            self._observe_sweep(float(per_doc.sum()), perf_counter() - start)
            self._maybe_optimize(sweep)

    # -- fast engine -----------------------------------------------------------------

    def _fit_fast(self) -> None:
        """Step-batched sweeps (see ``gibbs_fast.FastKernel``)."""
        config = self.config
        kernel = FastKernel(self._corpus, config)
        kernel.bind_state(
            SamplerState(
                doc_topic=self._doc_topic,
                word_totals=self._word_totals,
                url_totals=self._url_totals,
                word_counts=self._word_table,
                url_counts=self._url_table,
                assignments=self._session_topic,
            )
        )
        kernel.set_hyperparameters(
            self._alpha, self._beta, self._delta, self._tau
        )
        for sweep in range(1, config.iterations + 1):
            start = perf_counter()
            per_doc = kernel.sweep(sweep)
            self._observe_sweep(float(per_doc.sum()), perf_counter() - start)
            if config.hyperopt_every and sweep % config.hyperopt_every == 0:
                self._maybe_optimize(sweep)
                kernel.set_hyperparameters(
                    self._alpha, self._beta, self._delta, self._tau
                )

    # -- reference sampler internals ---------------------------------------------------

    def _apply_session(self, d: int, s: int, k: int, sign: int) -> None:
        doc = self._corpus.documents[d]
        session = doc.sessions[s]
        self._doc_topic[d, k] += sign
        word_map = self._local_word[d]
        for w in session.words:
            self._word_counts[d][k, word_map[w]] += sign
        self._word_totals[d, k] += sign * len(session.words)
        if self.config.use_urls and session.urls:
            url_map = self._local_url[d]
            for u in session.urls:
                self._url_counts[d][k, url_map[u]] += sign
            self._url_totals[d, k] += sign * len(session.urls)

    def _session_log_prob(self, d: int, s: int) -> np.ndarray:
        """Eq. 23 log-probabilities over topics for session (d, s)."""
        config = self.config
        doc = self._corpus.documents[d]
        session = doc.sessions[s]

        logits = np.log(self._doc_topic[d] + self._alpha)

        if config.use_time:
            t = min(max(session.timestamp, _TIME_EPS), 1.0 - _TIME_EPS)
            a, b = self._tau[:, 0], self._tau[:, 1]
            logits += (
                (a - 1.0) * np.log(t)
                + (b - 1.0) * np.log1p(-t)
                - betaln(a, b)
            )

        word_map = self._local_word[d]
        beta_sums = self._beta.sum(axis=1)
        unique_words: dict[int, int] = {}
        for w in session.words:
            unique_words[w] = unique_words.get(w, 0) + 1
        for w, n in unique_words.items():
            base = self._word_counts[d][:, word_map[w]] + self._beta[:, w]
            logits += gammaln(base + n) - gammaln(base)
        totals = self._word_totals[d] + beta_sums
        logits += gammaln(totals) - gammaln(totals + len(session.words))

        if config.use_urls and session.urls:
            url_map = self._local_url[d]
            delta_sums = self._delta.sum(axis=1)
            unique_urls: dict[int, int] = {}
            for u in session.urls:
                unique_urls[u] = unique_urls.get(u, 0) + 1
            for u, n in unique_urls.items():
                base = self._url_counts[d][:, url_map[u]] + self._delta[:, u]
                logits += gammaln(base + n) - gammaln(base)
            url_totals = self._url_totals[d] + delta_sums
            logits += gammaln(url_totals) - gammaln(
                url_totals + len(session.urls)
            )
        return logits

    def _sweep_document(self, d: int, rng: np.random.Generator) -> float:
        """One Gibbs sweep over the sessions of document *d*.

        Returns the document's Gibbs pseudo-log-likelihood (the summed log
        posterior probability of the drawn topics).
        """
        doc = self._corpus.documents[d]
        log_likelihood = 0.0
        for s in range(len(doc.sessions)):
            current = int(self._assignments[d][s])
            self._apply_session(d, s, current, -1)
            logits = self._session_log_prob(d, s)
            logits -= logits.max()
            weights = np.exp(logits)
            new, total = sample_index_with_total(rng, weights)
            log_likelihood += float(logits[new]) - math.log(total)
            self._assignments[d][s] = new
            self._apply_session(d, s, new, +1)
        return log_likelihood

    # -- hyperparameter updates --------------------------------------------------------

    def _optimize_hyperparameters(self) -> None:
        """Evidence-maximize ``α``, ``β``, ``δ`` on the current counts.

        The per-topic count matrices are assembled as CSR over each
        document's local vocabulary (nnz = Σ_d W_d) instead of dense
        ``(D, W)`` tables — zero cells contribute exactly nothing to the
        Dirichlet-multinomial evidence, so the sparse optimizers in
        :mod:`repro.personalize.hyperopt` never look at them.
        """
        config = self.config
        optimize = (
            optimize_dirichlet_lbfgs
            if config.hyperopt_method == "lbfgs"
            else optimize_dirichlet_fixed_point
        )
        # Evidence maximization for alpha needs a population of documents;
        # on a handful of users it just fits noise (alpha blows up and
        # flattens every profile), so keep the prior fixed below 5 docs.
        if self._corpus.n_documents >= 5:
            self._alpha = optimize(self._doc_topic, self._alpha)
        D = self._corpus.n_documents
        W = self._corpus.n_words
        # Row k of a flat count table is exactly the CSR data of topic k.
        for k in range(config.n_topics):
            counts = sparse.csr_matrix(
                (self._word_table[k], self._word_indices, self._word_indptr),
                shape=(D, W),
            )
            self._beta[k] = optimize(counts, self._beta[k])
        if config.use_urls and self._corpus.n_urls > 0:
            U = self._corpus.n_urls
            for k in range(config.n_topics):
                counts = sparse.csr_matrix(
                    (self._url_table[k], self._url_indices, self._url_indptr),
                    shape=(D, U),
                )
                self._delta[k] = optimize(counts, self._delta[k])

    def _refit_tau(self) -> None:
        """Method-of-moments Beta refit per topic (Eqs. 28-29)."""
        K = self.config.n_topics
        stamps: list[list[float]] = [[] for _ in range(K)]
        for d, doc in enumerate(self._corpus.documents):
            for s, session in enumerate(doc.sessions):
                stamps[int(self._assignments[d][s])].append(session.timestamp)
        for k in range(K):
            self._tau[k] = fit_beta_moments(np.asarray(stamps[k]))

    # -- fitted accessors ------------------------------------------------------------

    def _require_fitted(self) -> None:
        if not self._fitted:
            raise RuntimeError("UPM is not fitted; call fit(corpus) first")

    @property
    def corpus(self) -> SessionCorpus:
        """The training corpus."""
        self._require_fitted()
        return self._corpus

    @property
    def fit_stats(self) -> UPMFitStats:
        """Per-sweep observability of the last ``fit`` run."""
        self._require_fitted()
        assert self._fit_stats is not None
        return self._fit_stats

    @property
    def alpha(self) -> np.ndarray:
        """Learned document-topic hyperparameters (copy)."""
        self._require_fitted()
        return self._alpha.copy()

    @property
    def beta(self) -> np.ndarray:
        """Learned (K, W) topic-word hyperparameters (copy)."""
        self._require_fitted()
        return self._beta.copy()

    @property
    def delta(self) -> np.ndarray:
        """Learned (K, U) topic-URL hyperparameters (copy)."""
        self._require_fitted()
        return self._delta.copy()

    @property
    def tau(self) -> np.ndarray:
        """Per-topic Beta time parameters, shape (K, 2)."""
        self._require_fitted()
        return self._tau.copy()

    @property
    def theta(self) -> np.ndarray:
        """User profiles ``θ_dk`` (Eq. 30), shape (D, K), rows sum to 1."""
        self._require_fitted()
        raw = self._doc_topic + self._alpha
        return raw / raw.sum(axis=1, keepdims=True)

    def profile_of(self, user_id: str) -> np.ndarray:
        """One user's ``θ_d·`` vector."""
        self._require_fitted()
        d = self._corpus.doc_index[user_id]
        return self.theta[d]

    def topic_word_distribution(self, d: int) -> np.ndarray:
        """(K, W) per-user smoothed topic-word distributions.

        ``φ̂_kwd = (C_kwd + β_kw) / (C_k·d + Σ_w β_kw)`` — the document-
        specific word distributions of Algorithm 2 (``φ_kd``), reconstructed
        from counts and learned ``β``.
        """
        self._require_fitted()
        W = self._corpus.n_words
        K = self.config.n_topics
        counts = np.zeros((K, W))
        for w, local in self._local_word[d].items():
            counts[:, w] = self._word_counts[d][:, local]
        smoothed = counts + self._beta
        smoothed /= smoothed.sum(axis=1, keepdims=True)
        return smoothed

    def predictive_word_distribution(self, d: int) -> np.ndarray:
        """``p(w | d) = Σ_k θ_dk φ̂_kwd`` — the Eq. 35 predictive."""
        self._require_fitted()
        return self.theta[d] @ self.topic_word_distribution(d)

    def document_word_counts(self, d: int) -> tuple[np.ndarray, np.ndarray]:
        """Document *d*'s topic-word counts in packable form.

        Returns ``(gids, counts)``: the document's global word ids sorted
        ascending (``int64``, shape ``(W_d,)``) and the matching per-word
        topic-count vectors (``float64``, shape ``(W_d, K)`` — the
        transpose of the internal ``(K, W_d)`` table, copied).  This is
        the exact state :meth:`topic_word_distribution` scatters dense,
        exposed so profile stores can be rebuilt from flat arrays (see
        :class:`repro.personalize.profiles.ProfileArrays`) without
        reaching into sampler internals.
        """
        self._require_fitted()
        gids = np.array(self._doc_word_gids[d], dtype=np.int64)
        return gids, self._word_counts[d].T.copy()

    def user_tau(self, user_id: str) -> np.ndarray:
        """Per-user Beta time parameters, shape (K, 2).

        Method-of-moments fit over the *user's own* session timestamps per
        topic.  Topic labels in the UPM are document-local (the emission
        counts are per-document), so per-user temporal profiles are the
        meaningful unit; topics with fewer than two of the user's sessions
        get the flat Beta(1, 1).
        """
        self._require_fitted()
        d = self._corpus.doc_index[user_id]
        K = self.config.n_topics
        doc = self._corpus.documents[d]
        stamps: list[list[float]] = [[] for _ in range(K)]
        for s, session in enumerate(doc.sessions):
            stamps[int(self._assignments[d][s])].append(session.timestamp)
        tau = np.ones((K, 2))
        for k in range(K):
            tau[k] = fit_beta_moments(np.asarray(stamps[k]))
        return tau

    def profile_at(self, user_id: str, t_norm: float) -> np.ndarray:
        """Time-modulated profile ``θ_d(t) ∝ θ_dk · Beta(t; τ_dk)``.

        Serving-time use of the temporal channel (extension beyond the
        paper's Eq. 31, which ignores the query time): the user's topic
        preferences are re-weighted by each topic's temporal prominence —
        fitted on the *user's own* sessions (see :meth:`user_tau`) — at the
        moment of the query, capturing the "dynamic change of a user's
        preference" the introduction motivates.
        """
        self._require_fitted()
        if not 0.0 <= t_norm <= 1.0:
            raise ValueError(f"t_norm must be in [0, 1], got {t_norm}")
        d = self._corpus.doc_index[user_id]
        theta = self.theta[d]
        if not self.config.use_time:
            return theta
        tau = self.user_tau(user_id)
        t = min(max(t_norm, _TIME_EPS), 1.0 - _TIME_EPS)
        a, b = tau[:, 0], tau[:, 1]
        log_pdf = (
            (a - 1.0) * np.log(t) + (b - 1.0) * np.log1p(-t) - betaln(a, b)
        )
        weighted = theta * np.exp(log_pdf - log_pdf.max())
        total = weighted.sum()
        if total <= 0:
            return theta
        return weighted / total

    def preference_score(
        self, user_id: str, query: str, t_norm: float | None = None
    ) -> float:
        """``P(q | d)`` of Eq. 31: mean per-word preference of the user.

        The paper's multidimensional-Beta ratio, evaluated for the single
        occurrence of each query word, reduces to the smoothed per-user
        topic-word probability mixed by ``θ_d``; out-of-vocabulary words are
        skipped and a query with no known words scores 0.  When *t_norm*
        (normalized query time) is given, the mixture uses the
        time-modulated profile of :meth:`profile_at` instead of ``θ_d``.
        """
        self._require_fitted()
        if user_id not in self._corpus.doc_index:
            return 0.0
        d = self._corpus.doc_index[user_id]
        word_ids = self._corpus.word_ids(tokenize(query))
        if not word_ids:
            return 0.0
        if t_norm is None:
            mixture = self.theta[d]
        else:
            mixture = self.profile_at(user_id, t_norm)
        predictive = mixture @ self.topic_word_distribution(d)
        return float(np.mean(predictive[word_ids]))


def _indptr(sizes: list[int]) -> np.ndarray:
    """CSR row pointer of consecutive blocks of the given sizes."""
    indptr = np.zeros(len(sizes) + 1, dtype=np.int64)
    np.cumsum(sizes, out=indptr[1:])
    return indptr


def _column_views(table: np.ndarray, indptr: np.ndarray) -> list[np.ndarray]:
    """Per-document column views ``table[:, indptr[d]:indptr[d + 1]]``."""
    return [table[:, a:b] for a, b in zip(indptr[:-1], indptr[1:])]
