"""CompactCache bound-expander invariant: the cache serves one epoch only.

``get`` builds entries *outside* the lock, so a build can start under
epoch A, have a ``rebind`` flush the cache onto epoch B mid-build, and
then try to insert its epoch-A entry into the epoch-B cache.  The cache
reads and inserts only for the expander it is bound to, so such a build
— like any request pinned to a superseded epoch — is served to its own
caller but never cached.
"""

import sys
import threading

import pytest

from repro.core.serving import CompactCache
from repro.diversify.regularization import RegularizationConfig
from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.multibipartite import build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.obs.registry import MetricsRegistry
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world


@pytest.fixture(scope="module")
def multibipartite():
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=20, mean_sessions_per_user=8, seed=7),
    ).log
    return build_multibipartite(log, sessionize(log))


@pytest.fixture(scope="module")
def expander(multibipartite):
    return RandomWalkExpander(multibipartite)


def _another_epoch(multibipartite, expander):
    """A distinct expander over the same matrices (another generation)."""
    return RandomWalkExpander(multibipartite, matrices=expander.matrices)


@pytest.fixture(scope="module")
def probes(expander):
    queries = sorted(expander.matrices.query_index)
    assert len(queries) >= 8
    return queries[:8]


class _GatedExpander:
    """Wraps an expander so ``expand`` blocks until released.

    Lets a test force the exact interleaving: build starts (``entered``
    fires), the test mutates the cache, then the build finishes
    (``release``).
    """

    def __init__(self, inner: RandomWalkExpander) -> None:
        self._inner = inner
        self.entered = threading.Event()
        self.release = threading.Event()

    @property
    def matrices(self):
        return self._inner.matrices

    def expand(self, seeds, compact):
        self.entered.set()
        assert self.release.wait(10.0), "gated build never released"
        return self._inner.expand(seeds, compact)


COMPACT = CompactConfig(size=30)
REG = RegularizationConfig()


class TestDeterministicRace:
    def _racing_get(self, cache, query):
        """Run one ``cache.get`` in a thread; return (thread, results)."""
        results = {}

        def run():
            results["entry"] = cache.get({query: 1.0}, COMPACT, REG)

        thread = threading.Thread(target=run)
        thread.start()
        return thread, results

    def test_build_straddling_rebind_is_served_but_not_inserted(
        self, expander, probes
    ):
        gated = _GatedExpander(expander)
        cache = CompactCache(gated, maxsize=8)
        thread, results = self._racing_get(cache, probes[0])
        assert gated.entered.wait(10.0)
        # The epoch swap lands while the build is in flight.
        cache.rebind(expander)
        gated.release.set()
        thread.join(10.0)

        entry = results["entry"]
        assert entry is not None  # the caller is still served
        assert probes[0] in entry.queries
        stats = cache.stats
        assert stats.size == 0  # the stale build was NOT inserted
        assert stats.stale_discards == 1
        assert stats.misses == 1
        assert stats.hits == 0
        assert stats.lookups == 1
        # A fresh lookup misses again and builds under the new epoch.
        rebuilt = cache.get({probes[0]: 1.0}, COMPACT, REG)
        assert rebuilt.queries == entry.queries
        assert cache.stats.size == 1
        assert cache.stats.stale_discards == 1

    def test_rebind_flushes_and_counts_every_entry(self, expander, probes):
        cache = CompactCache(expander, maxsize=8)
        for query in probes[:5]:
            cache.get({query: 1.0}, COMPACT, REG)
        assert cache.rebind(expander) == 5
        assert cache.stats.size == 0
        assert cache.stats.invalidations == 5
        assert cache.rebind(expander) == 0
        assert cache.stats.invalidations == 5

    def test_stale_discard_counted_in_registry(self, expander, probes):
        gated = _GatedExpander(expander)
        cache = CompactCache(gated, maxsize=8)
        registry = MetricsRegistry()
        cache.attach_metrics(registry)
        thread, _ = self._racing_get(cache, probes[0])
        assert gated.entered.wait(10.0)
        cache.rebind(expander)
        gated.release.set()
        thread.join(10.0)
        assert registry.counter("serving.cache.stale_discards").value == 1
        assert registry.gauge("serving.cache.size").value == 0


class TestBoundExpanderGate:
    @pytest.fixture()
    def superseded(self, multibipartite, expander):
        return _another_epoch(multibipartite, expander)

    def test_request_pinned_to_a_superseded_epoch_never_hits_or_inserts(
        self, expander, superseded, probes
    ):
        cache = CompactCache(expander, maxsize=8)
        bound_entry = cache.get({probes[0]: 1.0}, COMPACT, REG)
        for _ in range(2):
            pinned = cache.get(
                {probes[0]: 1.0}, COMPACT, REG, expander=superseded
            )
            assert pinned is not bound_entry
            assert pinned.queries == bound_entry.queries
        cache.get({probes[1]: 1.0}, COMPACT, REG, expander=superseded)
        stats = cache.stats
        assert stats.hits == 0
        assert stats.misses == 4
        assert stats.stale_discards == 3
        assert stats.size == 1
        assert cache.get({probes[0]: 1.0}, COMPACT, REG) is bound_entry

    def test_request_pinned_to_the_bound_epoch_hits_and_inserts(
        self, expander, superseded, probes
    ):
        cache = CompactCache(superseded, maxsize=8)
        cache.rebind(expander)
        entry = cache.get({probes[0]: 1.0}, COMPACT, REG, expander=expander)
        assert cache.get({probes[0]: 1.0}, COMPACT, REG) is entry
        assert (
            cache.get({probes[0]: 1.0}, COMPACT, REG, expander=expander)
            is entry
        )
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.size) == (2, 1, 1)
        assert stats.stale_discards == 0


class TestStressAccounting:
    def test_concurrent_get_rebind(self, multibipartite, expander, probes):
        """Hammer get/rebind across two epochs; the counters add up exactly.

        Accounting invariant: every ``get`` is counted exactly once as a
        hit or a miss, whatever rebinds land around it, and every cached
        entry was built from the expander bound at insert time — after
        the readers drain and a final flush, nothing survives.
        """
        epochs = [expander, _another_epoch(multibipartite, expander)]
        cache = CompactCache(expander, maxsize=4)
        n_readers = 4
        gets_per_reader = 30
        stop = threading.Event()
        errors = []

        def reader():
            try:
                for i in range(gets_per_reader):
                    query = probes[i % len(probes)]
                    entry = cache.get({query: 1.0}, COMPACT, REG)
                    assert query in entry.queries
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        def writer():
            i = 0
            while not stop.is_set():
                cache.rebind(epochs[i % 2])
                i += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            readers = [
                threading.Thread(target=reader) for _ in range(n_readers)
            ]
            writer_thread = threading.Thread(target=writer)
            writer_thread.start()
            for t in readers:
                t.start()
            for t in readers:
                t.join(60.0)
            stop.set()
            writer_thread.join(10.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in readers)
        assert not writer_thread.is_alive()
        assert not errors

        stats = cache.stats
        assert stats.lookups == stats.hits + stats.misses
        assert stats.lookups == n_readers * gets_per_reader
        assert stats.size <= stats.maxsize
        # Nothing in flight anymore: a flush must leave the cache truly
        # empty and count exactly the entries it held.
        held = stats.size
        assert cache.rebind(expander) == held
        assert cache.stats.size == 0
        assert cache.stats.invalidations == stats.invalidations + held
