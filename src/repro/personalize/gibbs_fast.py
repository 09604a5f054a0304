"""Step-batched Gibbs kernel behind ``UPM.fit`` (fast engine).

The reference sampler (``UPM._session_log_prob`` / ``UPM._sweep_document``)
is the specification: it walks the sessions of one document after another,
rebuilds a unique-token dict per session, calls ``gammaln`` twice per
unique token on a ``(K,)`` vector, and recomputes the ``β``/``δ`` row sums
on every session.  This module evaluates the identical Eq. 23 quantities
for *many sessions per numpy call* while remaining **bit-identical**.

**Step batching.**  Between hyperparameter barriers, documents couple
only through the frozen ``α``/``β``/``δ``/``τ``, and every ``(document,
sweep)`` pair draws from its own stream (:func:`doc_rng`), which the
reference engine consumes session by session.  Resampling session *s* of
one document reads and writes only that document's counts and must only
follow sessions ``0..s-1`` of the same document, so a sweep is a
sequence of *steps*: step *s* resamples the *s*-th session of every
document that has one, all at once.  A corpus whose longest history has
``S`` sessions needs ``S`` steps per sweep, whatever its number of
sessions.  Per step:

* the removal and re-insertion of each session's counts are exact scatter
  updates into one flat ``(K, ΣW_d)`` word table (and ``(K, ΣU_d)`` URL
  table) whose column block ``d`` is document *d*'s local vocabulary;
  within a step every (topic, column) pair is distinct, and integer counts
  are exact in float64;
* every ``gammaln`` argument of the step (per token ``base + count`` and
  ``base``, per session ``totals`` and ``totals + length``, per channel) is
  stacked into one ragged ``(rows, K)`` matrix and evaluated with one
  ufunc call; ``gammaln`` is elementwise, so each value equals the
  reference's per-token call;
* each session's Eq. 23 terms are laid out in the reference's
  accumulation order (prior, time, words, word total, URLs, URL total) in
  a ``(width, sessions, K)`` chain, zero-padded *after* the session's own
  terms, and folded with one ``np.add.accumulate`` along the first axis —
  sequential by definition (``r[i] = r[i-1] + a[i]``), and ``x + 0.0 ==
  x``, so every session's last row is the reference's ``+=`` chain bit for
  bit;
* the inverse-CDF draw becomes a row-wise ``cumsum`` and a count of
  cumulative entries ``<= u·total`` (``searchsorted(side="right")`` on a
  non-decreasing row), clamped to ``K - 1``; ``doc_rng(...).random(S_d)``
  yields exactly the ``S_d`` scalar draws of the reference.

The rest of the bit-identity contract (enforced by ``tests/personalize/``):

1. addition order follows the reference exactly (floating-point addition
   is not associative), and every term comes from exact elementwise
   operations (copies, ``+``, ``-``) on values the reference also computes;
2. ``log``/``exp`` run on C-contiguous arrays of ``(K,)`` rows, as in the
   reference, so strided fallback loops are never involved; the per-session
   time logs keep the reference's scalar ``np.log(t)``/``np.log1p(-t)``
   calls, and the pseudo-log-likelihood keeps its scalar ``math.log``;
3. ``β``/``δ`` row sums and column gathers and the Beta-time log density
   are cached per step and refreshed only at hyperparameter barriers — the
   only points where they can change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import betaln, gammaln

from repro.topicmodels.corpus import SessionCorpus

__all__ = [
    "TIME_EPS",
    "doc_rng",
    "FastKernel",
    "SamplerState",
]

#: Session timestamps are clipped into [TIME_EPS, 1 - TIME_EPS] before the
#: Beta density is evaluated (shared with the reference engine in upm.py).
TIME_EPS = 1e-3


def doc_rng(seed: int, sweep: int, d: int) -> np.random.Generator:
    """The per-``(document, sweep)`` RNG stream of document *d*.

    Documents only interact through the hyperparameters, which are frozen
    within a sweep, so each document's uniforms may come from its own
    stream: the reference engine draws them one session at a time, and
    the step-batched kernel draws the same ``S_d`` values up front — both
    engines resample with identical uniforms.
    """
    return np.random.default_rng(np.random.SeedSequence([seed, sweep, d]))


@dataclass
class SamplerState:
    """The mutable sampler state the kernel updates in place.

    Everything a sweep writes beyond the read-only corpus and the frozen
    hyperparameters.  The count tables are flat: every document's local
    vocabulary side by side, in document order.
    """

    doc_topic: np.ndarray  # (D, K)
    word_totals: np.ndarray  # (D, K)
    url_totals: np.ndarray  # (D, K)
    word_counts: np.ndarray  # (K, ΣW_d)
    url_counts: np.ndarray  # (K, ΣU_d)
    assignments: np.ndarray  # (ΣS_d,) int, sessions in document order


class _Tokens:
    """One channel's unique session tokens, flat in session order."""

    def __init__(self) -> None:
        self.session: list[int] = []  # flat session index of each token
        self.col: list[int] = []  # column in the flat count table
        self.gid: list[int] = []  # global id (hyperparameter column)
        self.count: list[int] = []  # multiplicity within the session
        self.rank: list[int] = []  # first-occurrence rank within the session
        self.n_unique: list[int] = []  # per session
        self.length: list[int] = []  # per session, with repeats

    def add(self, session: int, items, column_of: dict[int, int]) -> None:
        tally: dict[int, int] = {}
        for item in items:
            tally[item] = tally.get(item, 0) + 1
        for rank, (item, count) in enumerate(tally.items()):
            self.session.append(session)
            self.col.append(column_of[item])
            self.gid.append(item)
            self.count.append(count)
            self.rank.append(rank)
        self.n_unique.append(len(tally))
        self.length.append(len(items))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(
            np.asarray(values, dtype=np.intp)
            for values in (
                self.session, self.col, self.gid, self.count, self.rank,
                self.n_unique, self.length,
            )
        )


class _Channel:
    """One step's tokens of one channel (words or URLs).

    ``rows`` are the step's sessions that carry the channel (indices into
    the step's active rows) and ``doc_rows`` their documents; ``tok_row``
    maps each token to its session's active row, ``pos`` to its chain
    row, and ``total_pos`` places each session's totals term after its
    own tokens.
    """

    __slots__ = (
        "rows", "doc_rows", "tok_row", "col", "gid", "count", "count_col",
        "pos", "length", "length_col", "total_pos", "hyper_rows",
    )

    def __init__(
        self, rows, doc_rows, tok_row, col, gid, count, pos, length, total_pos
    ):
        self.rows = rows
        self.doc_rows = doc_rows
        self.tok_row = tok_row
        self.col = col
        self.gid = gid
        self.count = count.astype(np.float64)
        self.count_col = self.count[:, None].copy()
        self.pos = pos
        self.length = length.astype(np.float64)
        self.length_col = self.length[:, None].copy()
        self.total_pos = total_pos
        self.hyper_rows = None  # (tokens, K) β or δ gather, per barrier


class _Step:
    """Step *s* of a sweep: the *s*-th session of every document having one."""

    __slots__ = (
        "rows", "sessions", "arange", "width", "words", "urls", "time_rows",
    )


class FastKernel:
    """Step-batched Gibbs sweeps over every document of a corpus.

    The kernel binds *references* to the sampler state (it mutates the
    arrays in place) and caches every quantity that is constant between
    hyperparameter barriers.  ``set_hyperparameters`` must be called after
    every barrier to refresh the caches.
    """

    def __init__(self, corpus: SessionCorpus, config) -> None:
        self._seed = config.seed
        self._K = config.n_topics
        self._use_time = config.use_time
        self._use_urls = config.use_urls
        docs = corpus.documents
        self._n_sessions = [len(doc.sessions) for doc in docs]
        n_sessions = np.asarray(self._n_sessions, dtype=np.intp)
        offsets = np.zeros(len(docs) + 1, dtype=np.intp)
        np.cumsum(n_sessions, out=offsets[1:])

        # Flat token structure in (document, session, rank) order; columns
        # index the flat tables (local vocabularies side by side).
        words, urls = _Tokens(), _Tokens()
        log_t: list[float] = []
        log1m_t: list[float] = []
        word_at = url_at = 0
        session = 0
        for doc in docs:
            vocab = sorted({w for s in doc.sessions for w in s.words})
            word_col = {w: word_at + i for i, w in enumerate(vocab)}
            word_at += len(vocab)
            vocab = sorted({u for s in doc.sessions for u in s.urls})
            url_col = {u: url_at + i for i, u in enumerate(vocab)}
            url_at += len(vocab)
            for data in doc.sessions:
                words.add(session, data.words, word_col)
                urls.add(
                    session, data.urls if self._use_urls else (), url_col
                )
                if self._use_time:
                    # Scalar calls, exactly as the reference evaluates them.
                    t = min(max(data.timestamp, TIME_EPS), 1.0 - TIME_EPS)
                    log_t.append(np.log(t))
                    log1m_t.append(np.log1p(-t))
                session += 1
        self._log_t = np.asarray(log_t, dtype=np.float64)
        self._log1m_t = np.asarray(log1m_t, dtype=np.float64)

        # Chain row 0 is the topic prior; the time logit, when enabled,
        # is row 1 and every Eq. 23 evidence term follows.
        terms_at = 2 if self._use_time else 1
        step_of = np.arange(offsets[-1]) - np.repeat(offsets[:-1], n_sessions)
        row_of = np.empty(offsets[-1], dtype=np.intp)
        w_sess, w_col, w_gid, w_cnt, w_rank, w_unique, w_len = words.arrays()
        u_sess, u_col, u_gid, u_cnt, u_rank, u_unique, u_len = urls.arrays()
        # A session's URL tokens follow its words and word total.
        url_pos = terms_at + w_unique + 1
        chain_len = url_pos + np.where(u_unique > 0, u_unique + 1, 0)
        n_steps = int(n_sessions.max(initial=0))
        w_order, w_bounds = _group_by_step(step_of[w_sess], n_steps)
        u_order, u_bounds = _group_by_step(step_of[u_sess], n_steps)

        self._steps: list[_Step] = []
        for s in range(n_steps):
            step = _Step()
            step.rows = np.flatnonzero(n_sessions > s)
            step.sessions = offsets[step.rows] + s
            step.arange = np.arange(step.rows.size)
            row_of[step.sessions] = step.arange
            step.width = int(chain_len[step.sessions].max())
            tok = w_order[w_bounds[s]: w_bounds[s + 1]]
            step.words = _Channel(
                rows=step.arange,
                doc_rows=step.rows,
                tok_row=row_of[w_sess[tok]],
                col=w_col[tok],
                gid=w_gid[tok],
                count=w_cnt[tok],
                pos=terms_at + w_rank[tok],
                length=w_len[step.sessions],
                total_pos=terms_at + w_unique[step.sessions],
            )
            step.urls = None
            url_rows = np.flatnonzero(u_unique[step.sessions] > 0)
            if url_rows.size:
                tok = u_order[u_bounds[s]: u_bounds[s + 1]]
                sessions = step.sessions[url_rows]
                step.urls = _Channel(
                    rows=url_rows,
                    doc_rows=step.rows[url_rows],
                    tok_row=row_of[u_sess[tok]],
                    col=u_col[tok],
                    gid=u_gid[tok],
                    count=u_cnt[tok],
                    pos=url_pos[u_sess[tok]] + u_rank[tok],
                    length=u_len[sessions],
                    total_pos=url_pos[sessions] + u_unique[sessions],
                )
            step.time_rows = None
            self._steps.append(step)

    # -- state + hyperparameter binding ----------------------------------------------

    def bind_state(self, state: SamplerState) -> None:
        """Attach the mutable sampler state (mutated in place)."""
        self._state = state

    def set_hyperparameters(
        self,
        alpha: np.ndarray,
        beta: np.ndarray,
        delta: np.ndarray,
        tau: np.ndarray,
    ) -> None:
        """Bind current hyperparameters and refresh the barrier caches."""
        self._alpha = alpha
        self._beta_sums = beta.sum(axis=1)
        self._delta_sums = delta.sum(axis=1)
        beta_t = beta.T
        delta_t = delta.T
        if self._use_time:
            # The reference's per-session expression, one session per row.
            a, b = tau[:, 0], tau[:, 1]
            time_logit = (
                (a - 1.0) * self._log_t[:, None]
                + (b - 1.0) * self._log1m_t[:, None]
                - betaln(a, b)
            )
        for step in self._steps:
            step.words.hyper_rows = beta_t[step.words.gid]
            if step.urls is not None:
                step.urls.hyper_rows = delta_t[step.urls.gid]
            if self._use_time:
                step.time_rows = time_logit[step.sessions]

    # -- sweeps ----------------------------------------------------------------------

    def sweep(self, sweep_index: int) -> np.ndarray:
        """One Gibbs sweep over the corpus; returns per-document pseudo-LL.

        A document's pseudo-log-likelihood is the summed log posterior
        probability of its drawn assignments, a free byproduct of the
        already-computed logits.
        """
        draws = np.concatenate(
            [
                doc_rng(self._seed, sweep_index, d).random(n)
                for d, n in enumerate(self._n_sessions)
            ]
        )
        log_likelihood = np.zeros(len(self._n_sessions))
        for step in self._steps:
            self._resample_step(step, draws, log_likelihood)
        return log_likelihood

    def _resample_step(
        self, step: _Step, draws: np.ndarray, log_likelihood: np.ndarray
    ) -> None:
        """Resample the sessions of *step* (one per active document)."""
        state = self._state
        channels = [
            (step.words, state.word_counts, state.word_totals,
             self._beta_sums),
        ]
        if step.urls is not None:
            channels.append(
                (step.urls, state.url_counts, state.url_totals,
                 self._delta_sums)
            )
        k_old = state.assignments[step.sessions]
        self._apply(step, channels, k_old, -1.0)

        # Every gammaln argument of the step in one stack, per channel:
        # base + count, base, totals, totals + length, where base is the
        # counts plus the hyperparameter gather.
        blocks = []
        for channel, counts, totals, sums in channels:
            base = counts[:, channel.col].T + channel.hyper_rows
            tot = totals[channel.doc_rows] + sums
            blocks += [base + channel.count_col, base, tot,
                       tot + channel.length_col]
        gammas = np.split(
            gammaln(np.concatenate(blocks)),
            np.cumsum([len(block) for block in blocks[:-1]]),
        )

        # Lay each session's Eq. 23 terms out in the reference's
        # accumulation order; subtraction is exact, and the zero rows
        # after a session's own terms add exact +0.0.
        chain = np.zeros((step.width, step.rows.size, self._K))
        prior = chain[0]
        np.add(state.doc_topic[step.rows], self._alpha, out=prior)
        np.log(prior, out=prior)
        if step.time_rows is not None:
            chain[1] = step.time_rows
        for i, (channel, _, _, _) in enumerate(channels):
            high, low, tot, tot_high = gammas[4 * i: 4 * i + 4]
            chain[channel.pos, channel.tok_row] = high - low
            chain[channel.total_pos, channel.rows] = tot - tot_high
        # Sequential fold along the chain == the reference's += chain.
        np.add.accumulate(chain, axis=0, out=chain)

        logits = chain[-1]
        logits -= logits.max(axis=1, keepdims=True)
        cumulative = np.exp(logits)
        np.cumsum(cumulative, axis=1, out=cumulative)
        total = cumulative[:, -1]
        if not (total > 0).all():
            raise ValueError("weights must have positive sum")
        draw = draws[step.sessions] * total
        k_new = np.count_nonzero(cumulative <= draw[:, None], axis=1)
        np.minimum(k_new, self._K - 1, out=k_new)
        log_likelihood[step.rows] += logits[step.arange, k_new] - np.array(
            [math.log(value) for value in total.tolist()]
        )
        state.assignments[step.sessions] = k_new
        self._apply(step, channels, k_new, 1.0)

    def _apply(self, step: _Step, channels, topics, sign: float) -> None:
        """Add (``sign=1``) or remove (``-1``) the step's sessions' counts
        under *topics*; within a step every updated cell is distinct."""
        self._state.doc_topic[step.rows, topics] += sign
        for channel, counts, totals, _ in channels:
            counts[topics[channel.tok_row], channel.col] += sign * channel.count
            totals[channel.doc_rows, topics[channel.rows]] += (
                sign * channel.length
            )


def _group_by_step(
    steps: np.ndarray, n_steps: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stable order grouping tokens by step, with each group's bounds."""
    order = np.argsort(steps, kind="stable")
    return order, np.searchsorted(steps[order], np.arange(n_steps + 1))
