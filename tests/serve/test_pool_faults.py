"""Worker death: a ``kill -9`` fails the call by name and leaks no segment.

Deterministic orderings in the style of the SIGSTOP concurrency tests: a
worker is SIGSTOPped (so it cannot make progress), the call under test is
queued behind it, and the worker is then SIGKILLed.  Every case must
raise a ``RuntimeError`` naming the dead worker within a few seconds — a
fraction of the pool's ``ack_timeout`` — and after ``close()`` nothing
under the test's segment prefix may remain in ``/dev/shm``.
"""

import os
import signal
import threading
import time

import pytest

from repro.baselines.base import SuggestRequest
from repro.serve.pool import SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG

#: Far longer than any case may take: a dead worker must fail the call
#: at the next liveness check, not when the ack timeout runs out.
ACK_TIMEOUT = 60.0
FAIL_WITHIN = 10.0


def _dev_shm_entries(prefix):
    if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
        return []
    return sorted(
        name for name in os.listdir("/dev/shm") if name.startswith(prefix)
    )


def _pool(expander, multibipartite, prefix):
    return SuggestWorkerPool(
        expander,
        SERVE_CONFIG,
        multibipartite=multibipartite,
        n_workers=2,
        prefix=prefix,
        ack_timeout=ACK_TIMEOUT,
    )


def _kill(process):
    os.kill(process.pid, signal.SIGKILL)
    process.join(timeout=10)
    assert not process.is_alive()


def _in_thread(call):
    """Run *call* in a thread; return (thread, outcome dict)."""
    outcome = {}

    def run():
        started = time.monotonic()
        try:
            outcome["result"] = call()
        except BaseException as exc:  # noqa: BLE001 - asserted below
            outcome["error"] = exc
        outcome["seconds"] = time.monotonic() - started

    thread = threading.Thread(target=run)
    thread.start()
    return thread, outcome


def _wait_for(predicate, timeout=30.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.02)


def test_worker_killed_before_a_publish(expander, multibipartite):
    prefix = "t-kill-pub"
    pool = _pool(expander, multibipartite, prefix)
    try:
        serving = _dev_shm_entries(prefix)
        _kill(pool._workers[0])
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="suggest-worker-0"):
            pool.publish_plane(expander, multibipartite=multibipartite)
        assert time.monotonic() - started < FAIL_WITHIN
        # The fresh segment is gone; the current generation still stands.
        assert _dev_shm_entries(prefix) == serving
        assert pool.generation == 0
        started = time.monotonic()
        with pytest.raises(RuntimeError, match="suggest-worker-0"):
            pool.stats()
        assert time.monotonic() - started < FAIL_WITHIN
    finally:
        pool.close()
    assert _dev_shm_entries(prefix) == []


def test_worker_killed_mid_swap(expander, multibipartite):
    prefix = "t-kill-swap"
    pool = _pool(expander, multibipartite, prefix)
    try:
        serving = _dev_shm_entries(prefix)
        victim = pool._workers[0]
        os.kill(victim.pid, signal.SIGSTOP)
        thread, outcome = _in_thread(
            lambda: pool.publish_plane(expander, multibipartite=multibipartite)
        )
        # The fresh segment is packed and the gen message queued behind
        # the stopped worker; the other worker acks it.  Now it dies.
        _wait_for(lambda: len(_dev_shm_entries(prefix)) > len(serving))
        time.sleep(0.3)
        _kill(victim)
        thread.join(timeout=ACK_TIMEOUT)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "suggest-worker-0" in str(outcome["error"])
        assert outcome["seconds"] < FAIL_WITHIN + 1.0
        assert _dev_shm_entries(prefix) == serving
        assert pool.generation == 0
    finally:
        pool.close()
    assert _dev_shm_entries(prefix) == []


def test_worker_killed_mid_batch(expander, multibipartite):
    prefix = "t-kill-batch"
    pool = _pool(expander, multibipartite, prefix)
    try:
        queries = [
            query
            for query in multibipartite.queries
            if pool._route(query) == 0
        ][:3]
        assert queries
        victim = pool._workers[0]
        os.kill(victim.pid, signal.SIGSTOP)
        thread, outcome = _in_thread(
            lambda: pool.suggest_many(
                [SuggestRequest(query=query, k=8) for query in queries]
            )
        )
        time.sleep(0.3)
        _kill(victim)
        thread.join(timeout=ACK_TIMEOUT)
        assert not thread.is_alive()
        assert isinstance(outcome.get("error"), RuntimeError)
        assert "suggest-worker-0" in str(outcome["error"])
        assert outcome["seconds"] < FAIL_WITHIN + 1.0
        assert pool.queue_depth == 0
    finally:
        pool.close()
    assert _dev_shm_entries(prefix) == []
