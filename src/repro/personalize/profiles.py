"""User profiles and the online preference-scoring store (paper Sec. V-B).

Profiles are plain data (the paper stresses they are "concise enough for
offline storage"): :meth:`ProfileArrays.from_model` packs a fitted UPM into
flat numpy arrays — per-user topic vectors plus the per-user topic-word
counts Eq. 31 needs — and :class:`ArrayProfileStore` scores suggestion
candidates straight over them, **bit-identically** to
:meth:`repro.personalize.upm.UPM.preference_score`.  It is the one store
every serving path uses: ``PQSDA.build`` returns it, click feedback folds
into new generations of it, and the arrays are exactly what
:class:`repro.serve.profile_plane.SharedProfileStore` packs into a
shared-memory segment, so pool workers rebuild the scorer zero-copy.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import OrderedDict
from dataclasses import dataclass, replace

import numpy as np

from repro.obs.registry import NULL_REGISTRY
from repro.personalize.upm import UPM
from repro.utils.ranking import RankedList, ranks_from_scores
from repro.utils.text import tokenize

__all__ = [
    "ArrayProfileStore",
    "ProfileArrays",
    "UserProfile",
]

#: Bound on the number of per-document ``(K, W)`` topic-word tables a store
#: memoizes (LRU beyond it).
_TWD_CACHE_SIZE = 512


@dataclass(frozen=True)
class UserProfile:
    """One user's offline profile.

    Attributes:
        user_id: The user.
        theta: Topic-preference vector (Eq. 30), sums to 1.
    """

    user_id: str
    theta: np.ndarray

    def __post_init__(self) -> None:
        theta = np.asarray(self.theta, dtype=float)
        if theta.ndim != 1:
            raise ValueError("theta must be a vector")
        if theta.size == 0 or not np.isclose(theta.sum(), 1.0, atol=1e-6):
            raise ValueError("theta must be a non-empty distribution")
        object.__setattr__(self, "theta", theta)

    @property
    def dominant_topic(self) -> int:
        """Index of the user's strongest topic."""
        return int(self.theta.argmax())


@dataclass(frozen=True)
class ProfileArrays:
    """A fitted UPM's serving state as flat arrays (the packable form).

    Everything :meth:`UPM.preference_score` touches, laid out so one copy
    into a shared-memory segment suffices to score in another process:

    Attributes:
        users: User ids in document order (sorted — ``build_corpus`` orders
            documents by user id — which is what the binary-search lookup
            of :class:`ArrayProfileStore` relies on).
        theta: ``(D, K)`` topic-preference matrix (Eq. 30), rows sum to 1.
        theta_weight: ``(D,)`` Dirichlet concentration behind each theta
            row (``n_sessions_d + Σα``) — the state that lets click
            feedback fold into theta incrementally without the model.
        beta: ``(K, W)`` learned topic-word hyperparameters.
        counts_indptr: ``(D+1,)`` row pointer of the per-document word
            counts; document *d*'s block is ``[indptr[d], indptr[d+1])``.
        counts_gids: ``(nnz,)`` global word ids per block row, sorted
            ascending within each document.
        counts: ``(nnz, K)`` per-document topic-word counts ``C_kwd``,
            transposed so each block row is one word's K-vector.
        words: Global word vocabulary in id order (the backoff
            tokenization vocab of serving-time queries).
        generation: Profile generation ordinal (0 = the batch fit).
    """

    users: tuple[str, ...]
    theta: np.ndarray
    theta_weight: np.ndarray
    beta: np.ndarray
    counts_indptr: np.ndarray
    counts_gids: np.ndarray
    counts: np.ndarray
    words: tuple[str, ...]
    generation: int = 0

    @classmethod
    def from_model(cls, model: UPM) -> "ProfileArrays":
        """Pack a fitted *model*'s serving state (generation 0).

        The arrays reproduce :meth:`UPM.preference_score` bit for bit
        through :class:`ArrayProfileStore`.
        """
        corpus = model.corpus
        users = tuple(doc.user_id for doc in corpus.documents)
        D = corpus.n_documents
        alpha_total = float(model.alpha.sum())
        gid_blocks: list[np.ndarray] = []
        count_blocks: list[np.ndarray] = []
        indptr = np.zeros(D + 1, dtype=np.int64)
        for d in range(D):
            gids, counts = model.document_word_counts(d)
            gid_blocks.append(gids)
            count_blocks.append(counts)
            indptr[d + 1] = indptr[d] + gids.size
        return cls(
            users=users,
            theta=model.theta,
            theta_weight=np.asarray(
                [
                    len(corpus.documents[d].sessions) + alpha_total
                    for d in range(D)
                ],
                dtype=np.float64,
            ),
            beta=model.beta,
            counts_indptr=indptr,
            counts_gids=np.concatenate(gid_blocks),
            counts=np.concatenate(count_blocks),
            words=tuple(corpus.word_of_id),
        )

    @property
    def n_users(self) -> int:
        """Number of profiled users D."""
        return len(self.users)

    @property
    def n_topics(self) -> int:
        """Number of topics K."""
        return int(self.theta.shape[1]) if self.theta.ndim == 2 else 0

    @property
    def n_words(self) -> int:
        """Vocabulary size W."""
        return len(self.words)

    @property
    def nbytes(self) -> int:
        """Total numeric payload bytes (excluding the string vocabs)."""
        return (
            self.theta.nbytes
            + self.theta_weight.nbytes
            + self.beta.nbytes
            + self.counts_indptr.nbytes
            + self.counts_gids.nbytes
            + self.counts.nbytes
        )


class ArrayProfileStore:
    """Per-user preference scoring over :class:`ProfileArrays`.

    The serving surface is ``in`` / ``len`` / ``user_ids`` / ``profile`` /
    ``score`` / ``score_candidates`` / ``rank_candidates``.
    Scoring replicates the exact floating-point op order of
    :meth:`UPM.preference_score` (scatter the sparse counts dense, add
    ``β``, row-normalize, mix by ``θ_d``, mean over the query's word ids),
    so a pooled worker scoring from shared views produces the same bytes
    as the model's Eq. 31 reference.

    The arrays may be read-only shared-memory views (the zero-copy attach
    path) or plain in-process arrays; user lookup binary-searches the
    sorted user-id list, and per-document topic-word tables are memoized
    LRU (at most ``512`` documents).
    """

    def __init__(self, arrays: ProfileArrays) -> None:
        self._arrays = arrays
        self._users = arrays.users
        self._theta = arrays.theta
        self._theta_weight = arrays.theta_weight
        self._beta = arrays.beta
        self._indptr = arrays.counts_indptr
        self._gids = arrays.counts_gids
        self._counts = arrays.counts
        self._words = arrays.words
        # Documents arrive in sorted user-id order (build_corpus), but the
        # lookup stays correct for any order: sort once, bisect per query.
        order = sorted(range(len(arrays.users)), key=arrays.users.__getitem__)
        self._sorted_users = [arrays.users[i] for i in order]
        self._sorted_docs = order
        self._word_index = {word: i for i, word in enumerate(arrays.words)}
        self._twd_cache: OrderedDict[int, np.ndarray] = OrderedDict()
        self.attach_metrics(None)

    # -- observability ---------------------------------------------------------

    def attach_metrics(self, registry) -> None:
        """Mirror lookup traffic into *registry* (``serve.profile.*``).

        ``serve.profile.lookups`` counts scoring calls,
        ``serve.profile.unprofiled_misses`` the calls for users with no
        profile (served unpersonalized), and the ``serve.profile.users``
        gauge holds the store size.  ``None`` detaches (no-op default).
        """
        registry = registry if registry is not None else NULL_REGISTRY
        self._m_lookups = registry.counter("serve.profile.lookups")
        self._m_misses = registry.counter("serve.profile.unprofiled_misses")
        registry.gauge("serve.profile.users").set(len(self._users))

    # -- store surface ---------------------------------------------------------

    @property
    def arrays(self) -> ProfileArrays:
        """The backing arrays (views when attached from shared memory)."""
        return self._arrays

    @property
    def generation(self) -> int:
        """Profile generation ordinal."""
        return self._arrays.generation

    @property
    def words(self) -> tuple[str, ...]:
        """Global word vocabulary in id order."""
        return self._words

    def __contains__(self, user_id: str) -> bool:
        return self._doc_of(user_id) >= 0

    def __len__(self) -> int:
        return len(self._users)

    @property
    def user_ids(self) -> list[str]:
        """All profiled users, sorted."""
        return list(self._sorted_users)

    def _doc_of(self, user_id: str) -> int:
        """Document index of *user_id* via binary search, -1 if unknown."""
        i = bisect_left(self._sorted_users, user_id)
        if i < len(self._sorted_users) and self._sorted_users[i] == user_id:
            return self._sorted_docs[i]
        return -1

    def profile(self, user_id: str) -> UserProfile:
        """The profile of *user_id*; raises ``KeyError`` if unknown.

        The returned theta is a view over the backing array (zero-copy
        when attached from shared memory).
        """
        d = self._doc_of(user_id)
        if d < 0:
            raise KeyError(f"no profile for user {user_id!r}")
        return UserProfile(user_id=user_id, theta=self._theta[d])

    # -- scoring (bit-identical to the UPM path) -------------------------------

    def _topic_word_distribution(self, d: int) -> np.ndarray:
        """(K, W) smoothed per-user topic-word table, LRU-memoized.

        Replicates :meth:`UPM.topic_word_distribution` op for op: dense
        scatter of the document's count block, ``+ β``, in-place row
        normalization — identical inputs, identical op order, identical
        output bits.
        """
        cached = self._twd_cache.get(d)
        if cached is not None:
            self._twd_cache.move_to_end(d)
            return cached
        K, W = self._beta.shape
        counts = np.zeros((K, W))
        lo, hi = int(self._indptr[d]), int(self._indptr[d + 1])
        counts[:, self._gids[lo:hi]] = self._counts[lo:hi].T
        smoothed = counts + self._beta
        smoothed /= smoothed.sum(axis=1, keepdims=True)
        self._twd_cache[d] = smoothed
        if len(self._twd_cache) > _TWD_CACHE_SIZE:
            self._twd_cache.popitem(last=False)
        return smoothed

    def _word_ids(self, query: str) -> list[int]:
        """Query terms mapped to word ids, OOV terms silently dropped."""
        index = self._word_index
        return [index[term] for term in tokenize(query) if term in index]

    def score(self, user_id: str, query: str) -> float:
        """``P(q|d)`` for one candidate (0.0 for unprofiled users)."""
        return self.score_candidates(user_id, [query])[query]

    def score_candidates(
        self, user_id: str, candidates: list[str]
    ) -> dict[str, float]:
        """``P(q|d)`` for every candidate (Eq. 31).

        One lookup, one ``θ_d``-mixed predictive per call; candidate
        tokenization is memoized within the call.
        """
        self._m_lookups.inc()
        d = self._doc_of(user_id)
        if d < 0:
            self._m_misses.inc()
            return {query: 0.0 for query in candidates}
        predictive = self._theta[d] @ self._topic_word_distribution(d)
        scores: dict[str, float] = {}
        memo: dict[str, list[int]] = {}
        for query in candidates:
            word_ids = memo.get(query)
            if word_ids is None:
                word_ids = self._word_ids(query)
                memo[query] = word_ids
            scores[query] = (
                float(np.mean(predictive[word_ids])) if word_ids else 0.0
            )
        return scores

    def rank_candidates(
        self, user_id: str, candidates: list[str]
    ) -> RankedList[str]:
        """Candidates sorted by descending personal preference."""
        return ranks_from_scores(self.score_candidates(user_id, candidates))

    def predictive_word_distribution(self, user_id: str) -> np.ndarray:
        """``p(w | d) = Σ_k θ_dk φ̂_kwd`` — the Eq. 35 predictive."""
        d = self._doc_of(user_id)
        if d < 0:
            raise KeyError(f"no profile for user {user_id!r}")
        return self._theta[d] @ self._topic_word_distribution(d)

    # -- incremental click-feedback fold ---------------------------------------

    def _block_totals(self, d: int) -> np.ndarray:
        """``C_k·d`` — per-topic word-count totals of document *d*."""
        lo, hi = int(self._indptr[d]), int(self._indptr[d + 1])
        return np.asarray(self._counts[lo:hi].sum(axis=0), dtype=float)

    def _count_row(self, d: int, word_id: int) -> np.ndarray | None:
        """``C_·wd`` for one word of document *d* (``None`` if absent)."""
        lo, hi = int(self._indptr[d]), int(self._indptr[d + 1])
        gids = self._gids[lo:hi]
        pos = int(np.searchsorted(gids, word_id))
        if pos < gids.size and int(gids[pos]) == word_id:
            return self._counts[lo + pos]
        return None

    def fold_feedback(self, records, generation: int | None = None):
        """Fold click feedback into a **new** store (copy-on-write).

        Each record is treated as one pseudo-session of its user: the
        query's in-vocabulary words are assigned the MAP topic under the
        user's current state (``argmax_k θ_dk Π_w φ̂_kwd`` — the
        deterministic limit of the Gibbs draw, lowest ``k`` on ties), that
        topic's per-user word counts absorb the words, and the theta row
        is re-normalized with one more unit of concentration
        (``θ ∝ θ·weight + e_k``).  Records of unprofiled users or with no
        in-vocabulary words are skipped.  Later records see earlier
        updates (the fold is sequential and order-deterministic).

        The receiver is untouched — readers keep serving the old
        generation while the publisher swaps in the returned store, whose
        arrays are freshly owned (never views into a shared segment).
        """
        K = self._beta.shape[0]
        D = len(self._users)
        theta = np.array(self._theta, dtype=float)
        weight = np.array(self._theta_weight, dtype=float)
        beta_row_sums = np.asarray(self._beta).sum(axis=1)
        overlays: dict[int, dict[int, np.ndarray]] = {}
        totals: dict[int, np.ndarray] = {}
        for record in records:
            d = self._doc_of(record.user_id)
            if d < 0:
                continue
            word_ids = self._word_ids(record.query)
            if not word_ids:
                continue
            doc_totals = totals.get(d)
            if doc_totals is None:
                doc_totals = self._block_totals(d)
                totals[d] = doc_totals
            overlay = overlays.setdefault(d, {})
            log_posterior = np.log(theta[d])
            log_denominator = np.log(doc_totals + beta_row_sums)
            for word_id in word_ids:
                base = self._count_row(d, word_id)
                count = overlay.get(word_id)
                if base is not None:
                    count = count + base if count is not None else base
                elif count is None:
                    count = 0.0
                log_posterior = (
                    log_posterior
                    + np.log(count + np.asarray(self._beta)[:, word_id])
                    - log_denominator
                )
            k = int(np.argmax(log_posterior))
            for word_id in word_ids:
                vector = overlay.get(word_id)
                if vector is None:
                    vector = np.zeros(K)
                    overlay[word_id] = vector
                vector[k] += 1.0
            doc_totals[k] += float(len(word_ids))
            raw = theta[d] * weight[d]
            raw[k] += 1.0
            weight[d] += 1.0
            theta[d] = raw / raw.sum()
        # Rebuild the CSR blocks, merging overlay words per touched doc.
        gid_blocks: list[np.ndarray] = []
        count_blocks: list[np.ndarray] = []
        indptr = np.zeros(D + 1, dtype=np.int64)
        for d in range(D):
            lo, hi = int(self._indptr[d]), int(self._indptr[d + 1])
            gids = np.array(self._gids[lo:hi])
            block = np.array(self._counts[lo:hi])
            overlay = overlays.get(d)
            if overlay:
                known = set(int(g) for g in gids)
                fresh = sorted(w for w in overlay if w not in known)
                if fresh:
                    gids = np.concatenate(
                        [gids, np.asarray(fresh, dtype=np.int64)]
                    )
                    block = np.concatenate([block, np.zeros((len(fresh), K))])
                    order = np.argsort(gids, kind="stable")
                    gids = gids[order]
                    block = block[order]
                position = {int(g): i for i, g in enumerate(gids)}
                for word_id, vector in overlay.items():
                    block[position[word_id]] += vector
            gid_blocks.append(gids)
            count_blocks.append(block)
            indptr[d + 1] = indptr[d] + gids.size
        arrays = replace(
            self._arrays,
            theta=theta,
            theta_weight=weight,
            beta=np.array(self._beta),
            counts_indptr=indptr,
            counts_gids=(
                np.concatenate(gid_blocks)
                if gid_blocks
                else np.zeros(0, dtype=np.int64)
            ),
            counts=(
                np.concatenate(count_blocks)
                if count_blocks
                else np.zeros((0, K))
            ),
            generation=(
                generation
                if generation is not None
                else self._arrays.generation + 1
            ),
        )
        return ArrayProfileStore(arrays)
