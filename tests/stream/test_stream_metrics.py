"""Streaming observability: ingest counters, epoch lifecycle gauges."""

import pytest

from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.obs.registry import MetricsRegistry
from repro.stream import (
    Epoch,
    EpochManager,
    IngestConfig,
    LogIngestor,
    StreamState,
    streaming_pqsda,
)

_T0 = 1_355_000_000.0


def _record(i, user="u1", query=None, url=None, gap=60.0):
    return QueryRecord(
        user_id=user,
        query=query or f"query {i}",
        timestamp=_T0 + i * gap,
        clicked_url=url,
    )


def _fresh(config=None, registry=None):
    state = StreamState()
    state.apply([_record(0, query="bootstrap query")])
    manager = EpochManager(
        Epoch.from_snapshot(0, state.build_snapshot()), registry=registry
    )
    ingestor = LogIngestor(state, manager, config, registry=registry)
    return ingestor, manager


class TestIngestMetrics:
    def test_counters_match_report(self):
        registry = MetricsRegistry()
        ingestor, manager = _fresh(
            IngestConfig(batch_size=10, clean=False), registry
        )
        report = ingestor.ingest(_record(i) for i in range(1, 36))
        assert registry.counter("stream.ingest.records_seen").value == 35
        assert report.records_seen == 35
        assert (
            registry.counter("stream.ingest.records_ingested").value
            == report.records_ingested
        )
        assert (
            registry.counter("stream.ingest.batches").value == report.batches
        )
        assert (
            registry.counter("stream.ingest.epochs_published").value
            == report.epochs_published
        )
        assert (
            registry.histogram("stream.ingest.batch_fold_seconds").count
            == report.batches
        )
        assert registry.gauge(
            "stream.ingest.records_per_second"
        ).value == pytest.approx(report.records_per_second)

    def test_cleaning_gate_counters(self):
        registry = MetricsRegistry()
        ingestor, manager = _fresh(IngestConfig(batch_size=100), registry)
        records = [
            _record(1, query="ok query"),
            _record(2, query="a " * 12),  # too many terms -> dropped
            _record(3, query="also fine"),
        ]
        report = ingestor.ingest(iter(records))
        assert registry.counter("stream.ingest.dropped_terms").value == 1
        assert report.dropped_terms == 1
        assert registry.counter("stream.ingest.records_ingested").value == 2

    def test_detached_by_default(self):
        ingestor, manager = _fresh(IngestConfig(batch_size=10, clean=False))
        report = ingestor.ingest(_record(i) for i in range(1, 12))
        assert report.records_ingested == 11  # no registry, same behaviour


class TestEpochMetrics:
    def test_publish_and_retire_lifecycle(self):
        registry = MetricsRegistry()
        ingestor, manager = _fresh(
            IngestConfig(batch_size=5, clean=False), registry
        )
        ingestor.ingest(_record(i) for i in range(1, 16))
        stats = manager.stats
        assert (
            registry.gauge("stream.epochs.current").value
            == stats.current_epoch
        )
        assert registry.gauge("stream.epochs.live").value == stats.live
        assert registry.gauge("stream.epochs.pinned_readers").value == 0
        # The counter counts events since attach; the bootstrap epoch was
        # published before, so published-since-attach is one less.
        assert (
            registry.counter("stream.epochs.published").value
            == stats.published - 1
        )
        assert (
            registry.counter("stream.epochs.retired").value == stats.retired
        )

    def test_pin_gauge_tracks_reader(self):
        registry = MetricsRegistry()
        ingestor, manager = _fresh(registry=registry)
        pinned = registry.gauge("stream.epochs.pinned_readers")
        with manager.pin():
            assert pinned.value == 1
            with manager.pin():
                assert pinned.value == 2
        assert pinned.value == 0


class TestStreamingPQSDAWiring:
    def test_registry_reaches_all_layers(self):
        records = [
            _record(i, user=f"u{i % 3}", query=f"query {i % 6} x")
            for i in range(30)
        ]
        registry = MetricsRegistry()
        suggester, ingestor, manager = streaming_pqsda(
            QueryLog(records[:20]),
            ingest=IngestConfig(batch_size=5, clean=False),
            registry=registry,
        )
        ingestor.ingest(iter(records[20:]))
        suggester.suggest("query 1 x", k=3)
        names = {
            entry["name"] for entry in registry.snapshot()["metrics"]
        }
        assert "stream.ingest.records_ingested" in names
        assert "stream.epochs.current" in names
        assert "serving.cache.misses" in names
        assert "trace.span.seconds" in names
        # Epoch swaps flush the cache through its attached counters.
        assert "serving.cache.invalidations" in names
