"""The pool's parent-side answer memo: exact, bounded, per generation.

A ``hypothesis`` state machine interleaves pooled requests with
``publish_plane``, ``publish_epoch`` and ``publish_profiles`` on one
pool.  Requests mix anonymous, unprofiled and profiled users, with and
without a search context, ``k`` below, at and above ``diversify.k``,
shed tiers 0-2, and seen and unseen (term-backoff) queries.  Each answer
must equal the single-process ``PQSDA.suggest`` of the generation it was
served from: a memo hit (counted in ``hot_hits``) the full-service
anonymous ranking, anything else the request itself.  A deterministic
test pins the straddle rule with a SIGSTOPped worker, and a thread
stress test the memo's lock under eviction.
"""

import dataclasses
import os
import signal
import sys
import threading
import time

import pytest
from hypothesis import HealthCheck, settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
    run_state_machine_as_test,
)

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA, head_queries
from repro.graphs.compact import RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import sessionize
from repro.serve.pool import SuggestWorkerPool, _AnswerMemo
from repro.stream.epoch import Epoch
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.utils.text import normalize_query

from tests.serve.conftest import SERVE_CONFIG, SERVE_PERSONAL_CONFIG

#: A small compact cache makes a small memo bound (cache_size x workers),
#: so the machine's requests overflow it.
CONFIG = dataclasses.replace(SERVE_PERSONAL_CONFIG, cache_size=4)
N_WORKERS = 2
BOUND = CONFIG.cache_size * N_WORKERS
FULL_K = CONFIG.diversify.k
HOT_TOP = 5


@pytest.fixture(scope="module")
def graphs(synthetic_log, multibipartite, expander):
    """Two graph generations: ``(log, multibipartite, expander)`` each."""
    log = generate_log(
        make_world(seed=0),
        GeneratorConfig(n_users=40, mean_sessions_per_user=8, seed=17),
    ).log
    mb = build_multibipartite(log, sessionize(log))
    return {
        "a": (synthetic_log, multibipartite, expander),
        "b": (log, mb, RandomWalkExpander(mb)),
    }


@pytest.fixture(scope="module")
def profile_sets(profile_store, multibipartite):
    """Two profile generations: the fitted store and one with feedback."""
    folded = profile_store.fold_feedback(
        [
            QueryRecord(
                user_id=profile_store.user_ids[0],
                query=multibipartite.queries[i],
                timestamp=float(i),
                clicked_url="u",
            )
            for i in range(4)
        ]
    )
    return {"base": profile_store, "folded": folded}


class AnswerMemoChurn(RuleBasedStateMachine):
    """Requests and publishes in any order over one long-lived pool."""

    def __init__(self, pool, graphs, profile_sets, references):
        super().__init__()
        self.pool = pool
        self.graphs = graphs
        self.profile_sets = profile_sets
        self.references = references
        _, mb, _ = graphs["a"]
        self.profiled = profile_sets["base"].user_ids[:2]
        seen = set(mb.queries[:12]) | set(graphs["b"][1].queries[:12])
        queries = sorted(seen)
        self.queries = queries + [
            "totally unseen query",
            mb.queries[0].split()[0] + " unseen suffix",
        ]
        self.context = (
            QueryRecord(
                user_id="u0",
                query=mb.queries[1],
                timestamp=100.0,
                clicked_url="https://example.org/a",
                record_id=7,
            ),
        )
        self.epoch_id = 0
        # Every example starts from graph "a" with the fitted profiles
        # and a freshly seeded memo.
        self._publish_epoch("a", "base")

    def _publish_epoch(self, graph, profiles):
        log, mb, expander = self.graphs[graph]
        self.epoch_id += 1
        self.pool.publish_epoch(
            Epoch(
                epoch_id=self.epoch_id,
                log=log,
                multibipartite=mb,
                matrices=expander.matrices,
                expander=expander,
                touched_queries=frozenset(),
                profiles=(
                    None if profiles is None else self.profile_sets[profiles]
                ),
            )
        )
        self.graph = graph
        if profiles is not None:
            self.profiles = profiles
        self._check_seeded(head_queries(log, HOT_TOP))

    def _check_seeded(self, hot):
        """A graph publish starts a memo holding exactly the hot rankings."""
        assert self.pool.hot_entries == len(hot)
        for query in hot:
            self._serve(SuggestRequest(query=query, k=FULL_K), hit=True)

    def _serve(self, request, hit=None):
        """Serve *request* alone; check its answer and how it was served."""
        reference = self.references[self.graph, self.profiles]
        before = self.pool.hot_hits
        got = self.pool.suggest_many([request])[0]
        was_hit = self.pool.hot_hits - before == 1
        if hit is not None:
            assert was_hit == hit, request
        if was_hit:
            assert not request.context
            assert request.user_id not in self.profiled
            want = reference.suggest(request.query, k=request.k)
        else:
            want = reference.suggest(
                request.query,
                k=request.k,
                user_id=request.user_id,
                context=request.context,
                timestamp=request.timestamp,
                shed=request.shed,
            )
        assert got == want, (request, self.graph, self.profiles)
        return was_hit

    @rule(
        query=st.integers(min_value=0),
        k=st.sampled_from([3, FULL_K, FULL_K + 4]),
        user=st.sampled_from(["anonymous", "ghost", "profiled0", "profiled1"]),
        with_context=st.booleans(),
        shed=st.integers(min_value=0, max_value=2),
    )
    def request(self, query, k, user, with_context, shed):
        user_id = {
            "anonymous": None,
            "ghost": "ghost",
            "profiled0": self.profiled[0],
            "profiled1": self.profiled[1],
        }[user]
        request = SuggestRequest(
            query=self.queries[query % len(self.queries)],
            k=k,
            user_id=user_id,
            context=self.context if with_context else (),
            timestamp=200.0 if with_context else 0.0,
            shed=shed,
        )
        was_hit = self._serve(request)
        fills = (
            not was_hit
            and not with_context
            and user_id not in self.profiled
            and shed == 0
            and k >= FULL_K
        )
        # Whatever the request left in the memo must be the full-service
        # anonymous ranking, and a full-ranking reply must have gone in.
        self._serve(
            SuggestRequest(query=request.query, k=FULL_K),
            hit=True if fills else None,
        )

    @rule(graph=st.sampled_from(["a", "b"]))
    def publish_plane(self, graph):
        log, mb, expander = self.graphs[graph]
        hot = head_queries(log, HOT_TOP)
        self.pool.publish_plane(expander, multibipartite=mb, hot_queries=hot)
        self.graph = graph
        self._check_seeded(hot)

    @rule(
        graph=st.sampled_from(["a", "b"]),
        profiles=st.sampled_from([None, "base", "folded"]),
    )
    def publish_epoch(self, graph, profiles):
        self._publish_epoch(graph, profiles)

    @rule(profiles=st.sampled_from(["base", "folded"]))
    def publish_profiles(self, profiles):
        entries = self.pool.hot_entries
        self.pool.publish_profiles(self.profile_sets[profiles])
        self.profiles = profiles
        # Anonymous rankings never read profiles: the memo is kept.
        assert self.pool.hot_entries == entries

    @invariant()
    def memo_is_bounded(self):
        assert self.pool.hot_entries <= BOUND


def test_memo_answers_are_exact_under_publish_churn(
    graphs, profile_sets
):
    references = {
        (graph, profiles): PQSDA(mb, expander, store, CONFIG)
        for graph, (_, mb, expander) in graphs.items()
        for profiles, store in profile_sets.items()
    }
    _, mb, expander = graphs["a"]
    with SuggestWorkerPool(
        expander,
        CONFIG,
        multibipartite=mb,
        profiles=profile_sets["base"],
        n_workers=N_WORKERS,
        prefix="t-memo",
        hot_top=HOT_TOP,
    ) as pool:
        run_state_machine_as_test(
            lambda: AnswerMemoChurn(pool, graphs, profile_sets, references),
            settings=settings(
                max_examples=8,
                stateful_step_count=15,
                deadline=None,
                suppress_health_check=[HealthCheck.too_slow],
            ),
        )


def test_memo_is_thread_safe_under_eviction():
    """Front-end threads share one memo: lookups racing evictions must
    neither raise nor return another query's ranking, and the bound holds.
    """
    memo = _AnswerMemo(8)
    failures: list = []
    previous = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:

        def churn(thread_id: int) -> None:
            try:
                for step in range(3000):
                    query = f"q{(thread_id * 7 + step) % 24}"
                    ranking = memo.get(query)
                    if ranking is None:
                        memo.put(query, [query, "x"])
                    elif ranking != [query, "x"]:
                        failures.append((query, ranking))
                    if len(memo) > 8:
                        failures.append(("bound", len(memo)))
            except Exception as exc:  # surfaced below, not swallowed
                failures.append(exc)

        threads = [
            threading.Thread(target=churn, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(previous)
    assert not any(thread.is_alive() for thread in threads)
    assert not failures, failures[:3]


def _dev_shm_entries(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def test_straddling_batch_is_answered_but_not_memoized(graphs):
    """A batch dispatched under generation g and computed under g+1.

    SIGSTOP ordering: the worker is stopped, the publish queues its swap,
    and the request queues behind it while the parent still serves g.
    The answer is g+1's, and neither memo keeps it.
    """
    _, mb, expander = graphs["a"]
    _, mb2, expander2 = graphs["b"]
    query = next(q for q in mb2.queries if q in mb)
    new = PQSDA(mb2, expander2, None, SERVE_CONFIG).suggest(query, k=FULL_K)
    prefix = "t-straddle"
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=mb,
        n_workers=1,
        prefix=prefix,
    ) as pool:
        serving = _dev_shm_entries(prefix)
        dispatched_under = pool._current.memo
        worker = pool._workers[0]
        got: list = []
        os.kill(worker.pid, signal.SIGSTOP)
        try:
            publisher = threading.Thread(
                target=pool.publish_plane,
                args=(expander2,),
                kwargs={"multibipartite": mb2},
            )
            publisher.start()
            # The new segment exists: the swap is about to be queued.
            _wait_for(lambda: len(_dev_shm_entries(prefix)) > len(serving))
            time.sleep(0.5)
            requester = threading.Thread(
                target=lambda: got.append(pool.suggest(query, k=FULL_K))
            )
            requester.start()
            _wait_for(lambda: pool.queue_depth == 1)
            assert pool.generation == 0
            time.sleep(0.3)
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        publisher.join(timeout=60)
        requester.join(timeout=60)
        assert not publisher.is_alive() and not requester.is_alive()
        assert pool.generation == 1
        assert got == [new]
        assert dispatched_under.get(normalize_query(query)) is None
        assert pool.hot_entries == 0
        assert pool.hot_hits == 0
        # Dispatched and computed under one generation, it fills.
        assert pool.suggest(query, k=FULL_K) == new
        assert pool.hot_entries == 1
        assert pool.suggest(query, k=3) == new[:3]
        assert pool.hot_hits == 1
    assert _dev_shm_entries(prefix) == []
