"""End-to-end observability: spans, mirrored counters, export parity."""

import json

import pytest

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig
from repro.logs.sessionizer import sessionize
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SPAN_HISTOGRAM
from repro.personalize.upm import UPM, UPMConfig
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.topicmodels.corpus import build_corpus

UPM_ITERATIONS = 4
UPM_CONFIG = UPMConfig(n_topics=4, iterations=UPM_ITERATIONS, seed=0)


@pytest.fixture(scope="module")
def synthetic_log():
    world = make_world(seed=0)
    return generate_log(
        world,
        GeneratorConfig(n_users=20, mean_sessions_per_user=8, seed=11),
    ).log


@pytest.fixture(scope="module")
def instrumented():
    """A personalized suggester built with a registry attached end to end."""
    world = make_world(seed=0)
    log = generate_log(
        world,
        GeneratorConfig(n_users=20, mean_sessions_per_user=8, seed=11),
    ).log
    registry = MetricsRegistry()
    suggester = PQSDA.build(
        log,
        config=PQSDAConfig(
            compact=CompactConfig(size=60),
            diversify=DiversifyConfig(k=8, candidate_pool=15),
            upm=UPM_CONFIG,
        ),
        registry=registry,
    )
    return suggester, registry, log


def _known_probe(suggester, log):
    for record in log:
        if record.query in suggester.representation:
            return record.query
    raise AssertionError("no known probe query")


class TestSpanTree:
    def test_single_suggest_yields_staged_trace(self, instrumented):
        suggester, registry, log = instrumented
        probe = _known_probe(suggester, log)
        suggester.suggest(probe, k=8)
        root = suggester.last_trace
        assert root is not None
        assert root.name == "suggest"
        for stage in ("expand", "solve", "walk"):
            span = root.find(stage)
            assert span is not None, f"missing {stage} span"
            assert span.seconds > 0.0
        assert root.seconds >= root.find("expand").seconds

    def test_rerank_span_when_personalized(self, instrumented):
        suggester, registry, log = instrumented
        assert suggester.profiles is not None
        user = suggester.profiles.user_ids[0]
        probe = _known_probe(suggester, log)
        suggester.suggest(probe, k=8, user_id=user)
        root = suggester.last_trace
        assert root.find("rerank") is not None
        assert root.find("rerank").seconds > 0.0

    def test_span_histogram_populated(self, instrumented):
        suggester, registry, log = instrumented
        probe = _known_probe(suggester, log)
        suggester.suggest(probe, k=8)
        for stage in ("suggest", "expand", "solve", "walk"):
            histogram = registry.histogram(
                SPAN_HISTOGRAM, labels={"span": stage}
            )
            assert histogram.count >= 1
            assert histogram.sum > 0.0


class TestMirroredCounters:
    def test_cache_counters_match_cache_stats(self, instrumented):
        suggester, registry, log = instrumented
        probe = _known_probe(suggester, log)
        suggester.suggest(probe, k=8)
        suggester.suggest(probe, k=8)
        stats = suggester.cache_stats
        assert registry.counter("serving.cache.hits").value == stats.hits
        assert registry.counter("serving.cache.misses").value == stats.misses
        assert registry.gauge("serving.cache.size").value == stats.size
        assert stats.lookups == stats.hits + stats.misses

    def test_upm_training_routed_through_registry(self, instrumented):
        suggester, registry, log = instrumented
        assert registry.counter("upm.fits").value == 1
        assert registry.counter("upm.sweeps").value == UPM_ITERATIONS
        assert registry.histogram("upm.sweep.seconds").count == UPM_ITERATIONS
        fit_seconds = {
            entry["name"]: entry for entry in registry.snapshot()["metrics"]
        }["upm.fit.seconds"]
        assert fit_seconds["count"] == 1 and fit_seconds["sum"] > 0.0
        # The registry carries the fit PQSDA.build ran: a refit of the
        # same corpus ends on the same pseudo-log-likelihood.
        model = UPM(UPM_CONFIG).fit(build_corpus(log, sessionize(log)))
        stats = model.fit_stats
        series = model.fit_metrics.series("upm.sweep.log_likelihood")
        assert series.values == stats.sweep_log_likelihood
        assert registry.gauge("upm.sweep.log_likelihood").value == (
            stats.sweep_log_likelihood[-1]
        )

    def test_batch_queue_depth_returns_to_zero(self, instrumented):
        suggester, registry, log = instrumented
        probe = _known_probe(suggester, log)
        depth = registry.gauge("serving.batch.queue_depth")
        requests = [SuggestRequest(query=probe, k=5) for _ in range(3)]
        suggester.suggest_batch(requests, n_workers=2)
        assert depth.value == 0


class TestExportParity:
    def test_json_and_prometheus_render_the_same_snapshot(self, instrumented):
        suggester, registry, log = instrumented
        probe = _known_probe(suggester, log)
        suggester.suggest(probe, k=8)
        snapshot = registry.snapshot()
        direct = to_prometheus(snapshot)
        via_json = to_prometheus(json.loads(to_json(snapshot)))
        assert via_json == direct
        # The serving metrics actually reach the exposition.
        assert "repro_serving_cache_misses_total" in direct
        assert "repro_trace_span_seconds_bucket" in direct


class TestDetached:
    def test_null_default_keeps_serving_untraced(self, synthetic_log):
        suggester = PQSDA.build(
            synthetic_log,
            config=PQSDAConfig(
                compact=CompactConfig(size=60),
                diversify=DiversifyConfig(k=8, candidate_pool=15),
                personalize=False,
            ),
        )
        probe = _known_probe(suggester, synthetic_log)
        result = suggester.suggest(probe, k=8)
        assert suggester.last_trace is None
        assert suggester.metrics.snapshot() == {"metrics": []}

        # Attaching later changes observability, never results.
        registry = MetricsRegistry()
        suggester.attach_metrics(registry)
        assert suggester.suggest(probe, k=8) == result
        assert suggester.last_trace is not None

        # Detaching returns to the null objects.
        suggester.attach_metrics(None)
        assert suggester.suggest(probe, k=8) == result
        assert suggester.last_trace is None
