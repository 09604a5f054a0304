"""LogIngestor: micro-batching, epoch cadence, cleaning gate, sources."""

import threading
import time

import pytest

from repro.logs.aol import write_aol
from repro.logs.cleaning import CleaningRules
from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.obs.registry import MetricsRegistry
from repro.stream import (
    Epoch,
    EpochManager,
    IngestConfig,
    LogIngestor,
    StreamState,
    replay,
    streaming_pqsda,
    tail_aol,
)
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

_T0 = 1_355_000_000.0


def _record(i, user="u1", query=None, url=None, gap=60.0):
    return QueryRecord(
        user_id=user,
        query=query or f"query {i}",
        timestamp=_T0 + i * gap,
        clicked_url=url,
    )


def _fresh_ingestor(config=None, bootstrap=()):
    state = StreamState()
    state.apply(list(bootstrap) or [_record(0, query="bootstrap query")])
    manager = EpochManager(Epoch.from_snapshot(0, state.build_snapshot()))
    return LogIngestor(state, manager, config), state, manager


class TestConfigValidation:
    def test_rejects_bad_batch_size(self):
        with pytest.raises(ValueError, match="batch_size"):
            IngestConfig(batch_size=0)

    def test_rejects_bad_epoch_every(self):
        with pytest.raises(ValueError, match="epoch_every"):
            IngestConfig(epoch_every=0)


class TestBatchingAndEpochs:
    def test_batch_size_controls_flushes(self):
        ingestor, state, manager = _fresh_ingestor(
            IngestConfig(batch_size=10, clean=False)
        )
        report = ingestor.ingest(_record(i) for i in range(1, 36))
        assert report.records_seen == 35
        assert report.records_ingested == 35
        assert report.batches == 4  # 10+10+10 full + 5 remainder
        assert report.epochs_published == 4
        assert state.n_pending == 0
        assert manager.current().epoch_id == 4

    def test_epoch_every_amortizes_publishes(self):
        ingestor, _, manager = _fresh_ingestor(
            IngestConfig(batch_size=10, epoch_every=3, clean=False)
        )
        report = ingestor.ingest(_record(i) for i in range(1, 71))
        assert report.batches == 7
        # 7 batches: epochs after batch 3 and 6, plus the remainder flush.
        assert report.epochs_published == 3
        assert manager.current().epoch_id == 3

    def test_remainder_can_be_held_back(self):
        ingestor, state, manager = _fresh_ingestor(
            IngestConfig(batch_size=100, clean=False)
        )
        report = ingestor.ingest(
            (_record(i) for i in range(1, 8)), publish_remainder=False
        )
        assert report.batches == 0
        assert report.epochs_published == 0
        assert state.n_pending == 0  # held in the ingestor's buffer
        assert manager.current().epoch_id == 0
        # The next ingest call picks the buffered records up.
        report = ingestor.ingest([_record(100)])
        assert report.epochs_published == 1
        assert manager.current().log is not None

    def test_report_throughput(self):
        ingestor, _, _ = _fresh_ingestor(IngestConfig(batch_size=5, clean=False))
        report = ingestor.ingest(_record(i) for i in range(1, 21))
        assert report.elapsed_seconds > 0
        assert report.records_per_second > 0

    def test_report_splits_fold_and_publish_time(self):
        synthetic = generate_log(
            make_world(seed=0),
            GeneratorConfig(n_users=24, mean_sessions_per_user=4, seed=11),
        )
        records = sorted(
            synthetic.log.records, key=lambda r: (r.timestamp, r.record_id)
        )
        registry = MetricsRegistry()
        cut = len(records) // 2
        suggester, ingestor, manager = streaming_pqsda(
            QueryLog(tuple(records[:cut])),
            ingest=IngestConfig(batch_size=32, clean=False),
            registry=registry,
        )
        report = ingestor.ingest(records[cut:])
        assert report.fold_seconds > 0.0
        assert report.publish_seconds > 0.0
        assert report.fold_seconds + report.publish_seconds <= (
            report.elapsed_seconds
        )
        assert report.fold_records_per_second > report.records_per_second
        histogram = registry.histogram("stream.ingest.publish_seconds")
        assert histogram.count == report.epochs_published


class TestCleaningGate:
    def test_term_bounds_drop_records(self):
        rules = CleaningRules(min_query_terms=1, max_query_terms=3)
        ingestor, _, _ = _fresh_ingestor(
            IngestConfig(batch_size=4, rules=rules)
        )
        records = [
            _record(1, query="fine query"),
            _record(2, query="!!!"),  # no topical terms after normalization
            _record(3, query="a b c d e f g"),  # too long
            _record(4, query="also fine"),
        ]
        report = ingestor.ingest(iter(records))
        assert report.records_seen == 4
        assert report.records_ingested == 2
        assert report.dropped_terms == 2

    def test_running_robot_filter(self):
        rules = CleaningRules(max_user_queries=5)
        ingestor, _, _ = _fresh_ingestor(
            IngestConfig(batch_size=100, rules=rules)
        )
        records = [_record(i, user="robot") for i in range(1, 11)]
        records += [_record(i, user="human", gap=61.0) for i in range(1, 4)]
        report = ingestor.ingest(iter(records))
        assert report.dropped_robot == 5  # robot rows 6..10
        assert report.records_ingested == 8

    def test_drop_urls_declick(self):
        rules = CleaningRules(drop_urls=frozenset({"spam.example.com"}))
        ingestor, state, _ = _fresh_ingestor(
            IngestConfig(batch_size=2, rules=rules)
        )
        records = [
            _record(1, query="query one", url="spam.example.com"),
            _record(2, query="query two", url="good.example.com"),
        ]
        report = ingestor.ingest(iter(records))
        assert report.declicked_urls == 1
        assert report.records_ingested == 2

    def test_gate_normalizes_queries(self):
        ingestor, state, manager = _fresh_ingestor(IngestConfig(batch_size=1))
        ingestor.ingest([_record(1, query="  MiXeD CaSe  ")])
        assert "mixed case" in manager.current().log.unique_queries


class TestReplaySource:
    def test_unpaced_replay_passes_through(self):
        records = [_record(i) for i in range(5)]
        assert list(replay(records)) == records

    def test_paced_replay_sleeps_by_compressed_gaps(self):
        records = [_record(0), _record(1, gap=10.0), _record(2, gap=10.0)]
        started = time.perf_counter()
        out = list(replay(records, speedup=100.0))
        elapsed = time.perf_counter() - started
        assert out == records
        # Two 10s gaps at 100x => ~0.2s of sleeping.
        assert elapsed >= 0.15

    def test_negative_speedup_rejected(self):
        with pytest.raises(ValueError, match="speedup"):
            list(replay([], speedup=-1.0))


class TestTailSource:
    def test_tail_reads_appended_rows(self, tmp_path):
        path = tmp_path / "live.tsv"
        first = [_record(1, query="first query", url="a.example.com")]
        write_aol(QueryLog(first), path)

        seen: list[str] = []

        def consume() -> None:
            for record in tail_aol(path, poll_seconds=0.05, idle_timeout=2.0):
                seen.append(record.query)

        consumer = threading.Thread(target=consume)
        consumer.start()
        time.sleep(0.2)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("u9\tappended query\t2012-12-12 12:00:00\t\t\n")
        consumer.join(timeout=30)
        assert not consumer.is_alive()
        assert seen == ["first query", "appended query"]

    def test_tail_skips_header_and_malformed(self, tmp_path):
        path = tmp_path / "junk.tsv"
        path.write_text(
            "AnonID\tQuery\tQueryTime\tItemRank\tClickURL\n"
            "not a valid row\n"
            "u1\tgood query\t2012-12-12 12:00:00\t\t\n",
            encoding="utf-8",
        )
        records = list(tail_aol(path, poll_seconds=0.05, idle_timeout=0.1))
        assert [r.query for r in records] == ["good query"]

    def test_tail_rejects_bad_poll(self, tmp_path):
        path = tmp_path / "x.tsv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError, match="poll_seconds"):
            list(tail_aol(path, poll_seconds=0.0))


class TestProfileFeedback:
    @pytest.fixture(scope="class")
    def profile_store(self):
        from repro.logs.sessionizer import sessionize
        from repro.personalize.profiles import (
            ArrayProfileStore,
            ProfileArrays,
        )
        from repro.personalize.upm import UPM, UPMConfig
        from repro.topicmodels.corpus import build_corpus
        from tests.personalize.test_upm import two_topic_log

        log = two_topic_log()
        corpus = build_corpus(log, sessionize(log))
        model = UPM(UPMConfig(n_topics=2, iterations=10, seed=0)).fit(corpus)
        return ArrayProfileStore(ProfileArrays.from_model(model))

    def test_clicks_fold_into_epoch_profiles(self, profile_store):
        state = StreamState()
        state.apply([_record(0, query="bootstrap query")])
        manager = EpochManager(Epoch.from_snapshot(0, state.build_snapshot()))
        ingestor = LogIngestor(
            state,
            manager,
            IngestConfig(batch_size=2, epoch_every=1, clean=False),
            profiles=profile_store,
        )
        user = profile_store.user_ids[0]
        clicks = [
            _record(i, user=user, query="java jvm", url="http://j")
            for i in range(1, 5)
        ]
        ingestor.ingest(iter(clicks))
        epoch = manager.current()
        assert epoch.profiles is not None
        # Two full batches -> two publishes, each folding its clicks.
        assert epoch.profiles.generation == 2
        assert ingestor.profiles is epoch.profiles
        # The original store is untouched (copy-on-write fold).
        assert profile_store.generation == 0

    def test_clickless_epoch_carries_no_profiles(self, profile_store):
        state = StreamState()
        state.apply([_record(0, query="bootstrap query")])
        manager = EpochManager(Epoch.from_snapshot(0, state.build_snapshot()))
        ingestor = LogIngestor(
            state,
            manager,
            IngestConfig(batch_size=2, epoch_every=1, clean=False),
            profiles=profile_store,
        )
        user = profile_store.user_ids[0]
        ingestor.ingest(
            iter([_record(i, user=user, query="java jvm") for i in range(1, 4)])
        )
        assert manager.current().profiles is None
        assert ingestor.profiles is profile_store

    def test_streaming_pqsda_rebinds_folded_profiles(self):
        from repro.core import PQSDAConfig
        from repro.personalize.profiles import ArrayProfileStore
        from repro.personalize.upm import UPMConfig
        from tests.personalize.test_upm import two_topic_log

        log = two_topic_log()
        config = PQSDAConfig(
            upm=UPMConfig(n_topics=2, iterations=10, seed=0),
            personalize=True,
        )
        registry = MetricsRegistry()
        suggester, ingestor, manager = streaming_pqsda(
            log,
            config=config,
            ingest=IngestConfig(batch_size=2, epoch_every=1, clean=False),
            registry=registry,
            stream_profiles=True,
        )
        assert isinstance(suggester.profiles, ArrayProfileStore)
        assert ingestor.profiles is suggester.profiles
        # The fitted store reports its serve.profile.* metrics.
        assert registry.gauge("serve.profile.users").value == len(
            suggester.profiles
        )
        suggester.profiles.score_candidates("ghost", ["java jvm"])
        assert registry.counter("serve.profile.unprofiled_misses").value == 1
        user = suggester.profiles.user_ids[0]
        last = max(r.timestamp for r in log.records)
        clicks = [
            QueryRecord(
                user_id=user,
                query="java jvm",
                timestamp=last + i * 60.0,
                clicked_url="http://j",
            )
            for i in range(1, 5)
        ]
        ingestor.ingest(iter(clicks))
        # The epoch subscription rebound the suggester onto the fold
        # (one generation per click-carrying publish: two full batches).
        assert suggester.profiles is ingestor.profiles
        assert suggester.profiles.generation == 2
