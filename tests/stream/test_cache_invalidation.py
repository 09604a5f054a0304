"""Cache exactness across epoch swaps: a new epoch flushes the cache.

Expansion is a global walk over cfiqf weights that every new record
rescales, so an epoch can change any cached neighbourhood.  After a swap
every cached query must answer exactly like a fresh ``PQSDA.build`` over
the same record prefix; ``CacheStats.invalidations`` counts the flushed
entries.
"""

import pytest

from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig
from repro.logs.storage import QueryLog
from repro.stream import IngestConfig, streaming_pqsda
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world


@pytest.fixture(scope="module")
def synthetic_log():
    world = make_world(seed=0)
    return generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    ).log


def _build(log, cache_size=64):
    return PQSDA.build(
        log,
        config=PQSDAConfig(
            compact=CompactConfig(size=60),
            diversify=DiversifyConfig(k=8, candidate_pool=15),
            personalize=False,
            cache_size=cache_size,
        ),
    )


def _probe_queries(log, n=8):
    seen: list[str] = []
    for record in log:
        if record.has_click and record.query not in seen:
            seen.append(record.query)
        if len(seen) >= n:
            break
    return seen


class TestEpochSwapExactness:
    def test_cached_answers_equal_a_fresh_build(self, synthetic_log):
        """One 5-record epoch: every cached answer equals a fresh build's,
        F* scores included."""
        records = sorted(
            synthetic_log.records, key=lambda r: (r.timestamp, r.record_id)
        )
        split = int(len(records) * 0.8)
        config = PQSDAConfig(
            compact=CompactConfig(size=25),
            diversify=DiversifyConfig(k=8, candidate_pool=15),
            personalize=False,
            cache_size=1024,
        )
        suggester, ingestor, manager = streaming_pqsda(
            QueryLog(records[:split]),
            config=config,
            ingest=IngestConfig(batch_size=5, clean=False),
        )
        probes = suggester.representation.queries
        for probe in probes:
            suggester.diversified_candidates(probe)
        cached = suggester.cache_stats.size
        assert cached == len(probes)

        ingestor.ingest(iter(records[split : split + 5]))
        epoch = manager.current()
        assert epoch.epoch_id == 1
        assert suggester.cache_stats.invalidations == cached
        reference = PQSDA.build(epoch.log, config=config)
        for probe in probes:
            assert suggester.diversified_candidates(
                probe
            ) == reference.diversified_candidates(probe), probe


class TestEpochSwapSurvival:
    """The suggester survives epoch swaps serving the fresh graph."""

    def test_swapped_cache_serves_fresh_graph(self, synthetic_log):
        """Post-swap suggestions reflect the new epoch, not stale entries."""
        records = sorted(
            synthetic_log.records, key=lambda r: (r.timestamp, r.record_id)
        )
        split = int(len(records) * 0.7)
        suggester, ingestor, manager = streaming_pqsda(
            QueryLog(records[:split]),
            config=PQSDAConfig(
                compact=CompactConfig(size=60),
                diversify=DiversifyConfig(k=8, candidate_pool=15),
                personalize=False,
            ),
            ingest=IngestConfig(batch_size=64, clean=False),
        )
        probes = _probe_queries(synthetic_log, 5)
        for probe in probes:
            suggester.suggest(probe, k=8)
        ingestor.ingest(iter(records[split:]))

        reference = _build(QueryLog(records))
        for probe in probes:
            assert suggester.suggest(probe, k=8) == reference.suggest(
                probe, k=8
            ), probe
