"""Generation handshake: epoch-consistent publication to pool workers."""

import dataclasses
import os
import signal
import threading
import time

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA
from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import sessionize
from repro.logs.storage import QueryLog
from repro.serve.pool import SuggestWorkerPool
from repro.stream import IngestConfig, streaming_pqsda
from repro.stream.epoch import Epoch, EpochManager
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

from tests.serve.conftest import SERVE_CONFIG, SERVE_PERSONAL_CONFIG


@pytest.fixture(scope="module")
def next_generation():
    """A second, different representation (more users -> larger graph)."""
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=40, mean_sessions_per_user=8, seed=17),
    ).log
    multibipartite = build_multibipartite(log, sessionize(log))
    expander = RandomWalkExpander(multibipartite)
    return log, multibipartite, expander


def _dev_shm_entries(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return [name for name in os.listdir("/dev/shm") if name.startswith(prefix)]


def test_publish_swaps_all_workers_and_unlinks_old(
    expander, multibipartite, next_generation
):
    _, mb2, expander2 = next_generation
    single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    probes = [SuggestRequest(query=q, k=8) for q in mb2.queries[:12]]
    expected2 = single2.suggest_batch(probes)
    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-swap",
    ) as pool:
        first_segment = pool.segment_name
        assert _dev_shm_entries(first_segment) == [first_segment]
        pool.publish_plane(expander2, multibipartite=mb2)
        assert pool.generation == 1
        # Old segment fully retired, exactly one (new) segment remains.
        assert _dev_shm_entries(first_segment) == []
        assert _dev_shm_entries("t-swap") == [pool.segment_name]
        stats = pool.stats()
        assert all(worker.generation == 1 for worker in stats.workers)
        assert all(worker.shares_memory for worker in stats.workers)
        # Workers now serve the new representation, bit-identically.
        assert pool.suggest_many(probes) == expected2
    assert _dev_shm_entries("t-swap") == []


def test_no_torn_views_under_concurrent_load(
    expander, multibipartite, single_suggester, next_generation
):
    """Each request matches one generation exactly — never a mix of two."""
    _, mb2, expander2 = next_generation
    shared_queries = [q for q in multibipartite.queries if q in mb2][:8]
    assert len(shared_queries) >= 4
    requests = [SuggestRequest(query=q, k=8) for q in shared_queries]
    expected_a = single_suggester.suggest_batch(requests)
    single_b = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    expected_b = single_b.suggest_batch(requests)

    failures = []
    stop = threading.Event()

    with SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix="t-torn",
    ) as pool:

        def hammer():
            while not stop.is_set():
                got = pool.suggest_many(requests)
                for i, result in enumerate(got):
                    if result not in (expected_a[i], expected_b[i]):
                        failures.append((requests[i].query, result))
                        return

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            generations = [
                (expander2, mb2),
                (expander, multibipartite),
                (expander2, mb2),
            ]
            for next_expander, next_mb in generations:
                pool.publish_plane(next_expander, multibipartite=next_mb)
        finally:
            stop.set()
            thread.join(timeout=60)
        assert not failures, failures
        assert pool.generation == 3
    assert _dev_shm_entries("t-torn") == []


def test_attach_epochs_republishes_to_workers(
    synthetic_log, expander, multibipartite, next_generation
):
    log2, mb2, expander2 = next_generation
    single2 = PQSDA(mb2, expander2, None, SERVE_CONFIG)
    probes = [SuggestRequest(query=q, k=8) for q in mb2.queries[:10]]
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
        n_workers=2,
        prefix="t-epoch",
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
        stats = pool.stats()
        assert stats.epoch_id == 1
        assert all(worker.epoch_id == 1 for worker in stats.workers)
        assert pool.suggest_many(probes) == single2.suggest_batch(probes)
    assert _dev_shm_entries("t-epoch") == []


def test_cached_answers_equal_a_fresh_build_after_an_epoch(synthetic_log):
    """Warm worker caches, one 5-record epoch: every pooled answer equals
    a fresh single-process build over the epoch's record prefix."""
    records = sorted(
        synthetic_log.records, key=lambda r: (r.timestamp, r.record_id)
    )
    split = int(len(records) * 0.8)
    config = dataclasses.replace(
        SERVE_CONFIG, compact=CompactConfig(size=25), cache_size=1024
    )
    _, ingestor, manager = streaming_pqsda(
        QueryLog(records[:split]),
        config=config,
        ingest=IngestConfig(batch_size=5, clean=False),
    )
    epoch0 = manager.current()
    probes = [
        SuggestRequest(query=query, k=8)
        for query in epoch0.multibipartite.queries
    ]
    with SuggestWorkerPool(
        epoch0.expander,
        config,
        multibipartite=epoch0.multibipartite,
        n_workers=2,
        prefix="t-exact",
    ) as pool:
        pool.attach_epochs(manager)
        pool.suggest_many(probes)  # every probe now cached on its worker
        ingestor.ingest(iter(records[split : split + 5]))
        epoch = manager.current()
        assert epoch.epoch_id == 1
        reference = PQSDA.build(epoch.log, config=config)
        assert pool.suggest_many(probes) == reference.suggest_batch(probes)
        flushed = sum(w.cache.invalidations for w in pool.stats().workers)
        assert flushed == len(probes)
    assert _dev_shm_entries("t-exact") == []


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def test_epoch_graph_and_profiles_swap_as_one_generation(
    multibipartite,
    profile_store,
    personal_suggester,
    next_generation,
):
    """A profiled request queued behind a profile-bearing epoch publish is
    ranked all-old or all-new — never new graph with old profiles.

    SIGSTOP ordering: the worker is stopped, the publish packs its
    segments and queues its swap, the request queues behind it, and only
    then does the worker run.
    """
    log2, mb2, expander2 = next_generation
    user = profile_store.user_ids[0]
    folded = profile_store.fold_feedback(
        [
            QueryRecord(
                user_id=user,
                query=multibipartite.queries[i],
                timestamp=float(i),
                clicked_url="u",
            )
            for i in range(4)
        ]
    )
    references = {
        "old": personal_suggester,
        "new": PQSDA(mb2, expander2, folded, SERVE_PERSONAL_CONFIG),
        "mixed": PQSDA(mb2, expander2, profile_store, SERVE_PERSONAL_CONFIG),
    }
    # A query whose mixed-generation answer differs from both others.
    for query in (q for q in mb2.queries if q in multibipartite):
        answers = {
            name: suggester.suggest(query, k=8, user_id=user)
            for name, suggester in references.items()
        }
        if answers["mixed"] not in (answers["old"], answers["new"]):
            break
    else:
        pytest.fail("no query separates the mixed generation")
    epoch = Epoch(
        epoch_id=1,
        log=log2,
        multibipartite=mb2,
        matrices=expander2.matrices,
        expander=expander2,
        touched_queries=frozenset(),
        profiles=folded,
    )
    prefix = "t-mixed"
    with SuggestWorkerPool.from_suggester(
        personal_suggester, n_workers=1, prefix=prefix
    ) as pool:
        serving = _dev_shm_entries(prefix)
        worker = pool._workers[0]
        got: list = []
        os.kill(worker.pid, signal.SIGSTOP)
        try:
            publisher = threading.Thread(
                target=pool.publish_epoch, args=(epoch,)
            )
            publisher.start()
            # The new graph segment exists: the swap is about to be
            # queued.  Give it time to be, then queue the request.
            _wait_for(lambda: len(_dev_shm_entries(prefix)) > len(serving))
            time.sleep(0.5)
            requester = threading.Thread(
                target=lambda: got.append(
                    pool.suggest(query, k=8, user_id=user)
                )
            )
            requester.start()
            time.sleep(0.3)
        finally:
            os.kill(worker.pid, signal.SIGCONT)
        publisher.join(timeout=60)
        requester.join(timeout=60)
        assert not publisher.is_alive() and not requester.is_alive()
        assert got and got[0] in (answers["old"], answers["new"])
        assert pool.suggest(query, k=8, user_id=user) == answers["new"]
    assert _dev_shm_entries(prefix) == []


def test_closed_pool_rejects_requests(expander, multibipartite):
    pool = SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=1,
        prefix="t-closed",
    )
    pool.close()
    pool.close()  # idempotent
    with pytest.raises(RuntimeError, match="closed"):
        pool.suggest("anything")
    with pytest.raises(RuntimeError, match="closed"):
        pool.publish_plane(expander)
    assert _dev_shm_entries("t-closed") == []
