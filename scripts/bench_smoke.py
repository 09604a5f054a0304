#!/usr/bin/env python
"""Quick latency smoke run; writes ``BENCH_fig7.json`` (and friends).

Runs the Fig. 7 efficiency protocol (mean per-suggestion latency of
PQS-DA and the DQS/HT/CM baselines on a fixed probe workload) and
records the numbers as JSON.  By default only the smallest scale runs,
which finishes in seconds; ``--full`` sweeps every Fig. 7 scale.

``--ingest`` additionally benchmarks the streaming subsystem: bootstrap a
live suggester from 70% of the log, stream the remaining 30% through the
incremental ingestion path, and record ingestion throughput plus the
post-ingest warm-cache suggestion latency against a from-scratch batch
build over the same full log (acceptance: within 2x).

``--upm`` benchmarks UPM offline training (``BENCH_upm.json``): the
reference Gibbs sampler vs. the vectorized fast engine (serial and
4-worker), sweep throughput in sessions/s, the bit-identity check, and
serving-time ``preference_score`` latency.

``--obs`` benchmarks the observability layer (``BENCH_metrics.json``):
one warm suggester serves the same probe workload detached (the
null-registry default) and with a live
:class:`~repro.obs.registry.MetricsRegistry` + tracer attached, paired
back to back each round; the median of the per-round latency ratios is
the measured instrumentation overhead.  The probes carry a search
context, so each request still runs solve and walk on its warm entry;
bare repeats, which the ranking memo answers, are recorded beside it.
``--max-overhead-ratio`` turns the measurement into a guard (exit 1 when
exceeded; CI uses 1.05 = 5%).  The record also carries the per-stage
span breakdown and the full metrics snapshot.

``--serve`` benchmarks the scale-out serving plane (``BENCH_serve.json``):
pooled QPS at 1, 2 and 4 suggest workers on a warm probe workload with
the hot-query fast tier off (batched envelopes only) and on (head
queries answered O(1) in the parent from the shared table), the
per-request IPC overhead vs. the single-process path, the hot-tier hit
rate, separate bit-identity checks for batched-tail and hot-tier
answers against the single-process path, and the memory ledger (segment
bytes once + per-worker RSS).  The tier-off QPS is timed on probes that
carry a search context, so workers run solve and walk per request; bare
repeats (ranking-memo hits) are timed beside it.
``--min-serve-scaling`` turns the 2-worker/1-worker tier-off QPS ratio
into a guard (exit 1 below the bound; auto-skipped when the machine has
fewer than 2 CPUs, where no scaling is physically available).

Every requested section runs even after a gate fails, so one failure
never hides another; the exit status is 1 if any gate failed.
``--http`` adds an ``"http"`` section to the same record: the async
front-end measured over real sockets — normal-load QPS and p50/p99 with
every answer checked bit-identical to ``suggest_batch`` (shed counters
zero), then an overload burst against tight per-worker thresholds that
retries until every shed tier (rerank-skip, personalize-skip, 503
reject) has fired, recording the shed counters, status mix and
deadline expirations.
``--personalize`` adds a personalized-serving section to the same
record: the pool republishes the UPM profiles through the shared profile
plane and the workload is served twice per worker count — anonymously
and as profiled users — so the gap isolates the per-request cost of
personalization (hot-tier bypass + Borda fusion + zero-copy profile
lookups), with bit-identity checked against the single-process
personalized path.

``--quick`` is the CI profile: smallest Fig. 7 scale, the ingest
benchmark, a small UPM training benchmark, the observability benchmark,
and the serve benchmark (with the personalized section).

Every ``BENCH_*.json`` record carries ``"mode": "quick" | "full"`` so a
reader can tell a CI smoke number from a full-protocol sweep.

Usage::

    PYTHONPATH=src python scripts/bench_smoke.py [--full|--quick]
        [--ingest] [--upm] [--obs] [--serve] [--http]
        [--max-overhead-ratio R] [--min-serve-scaling R]
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import time
from pathlib import Path

import numpy as np

from repro.baselines.base import SuggestRequest
from repro.baselines.registry import build_baseline
from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.eval.efficiency import measure_batch_latency, measure_latency
from repro.graphs.compact import CompactConfig
from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

USER_SCALES = (60, 140, 300)  # mirrors benchmarks/bench_fig7_efficiency.py
N_PROBES = 15

#: Ingest benchmark scales.  The quick profile is sized for CI; the full
#: profile is big enough that per-epoch costs dominate per-batch fixed
#: costs (every epoch re-derives the full plane, so the per-record cost
#: grows with vocabulary size).
INGEST_USERS_QUICK = 60
INGEST_USERS_FULL = 800

#: PQS-DA mean latency (ms) measured on the pre-fast-path revision of this
#: repo, keyed by unique-query count — the reference the speedup is
#: reported against.
SEED_PQSDA_MS = {1028: 13.82, 2170: 16.85, 4174: 22.03}


def _probe_queries(log: QueryLog, n: int) -> list[str]:
    seen: set[str] = set()
    probes: list[str] = []
    for record in log:
        if record.has_click and record.query not in seen:
            seen.add(record.query)
            probes.append(record.query)
        if len(probes) >= n:
            break
    return probes


def _context_requests(probes: list[str], k: int = 10) -> list[SuggestRequest]:
    """*probes* as requests that each carry a one-query search context.

    The ranking memo never answers a context-bearing request (its ``F⁰``
    carries the decayed context weight), so on a warm compact cache each
    one still runs the Eq. 15 solve and the hitting-time walk: the
    per-request work of Algorithm 1.  Repeated bare probes are memo hits
    of ~10 µs, too little work for a relative instrumentation bound or a
    worker-scaling bound to measure anything.  Each probe's context is
    the previous probe, submitted a minute earlier.
    """
    return [
        SuggestRequest(
            query=query,
            k=k,
            context=(QueryRecord("bench", probes[i - 1], timestamp=0.0),),
            timestamp=60.0,
        )
        for i, query in enumerate(probes)
    ]


def _stage_breakdown(snapshot: dict) -> dict:
    """Per-stage span timings out of a registry snapshot.

    Collapses the ``trace.span.seconds`` histogram family (one series per
    ``span`` label) into ``{stage: {count, mean_ms, total_ms}}`` — the
    Fig. 7 latency decomposed into expand / solve / walk / rerank.
    """
    from repro.obs.trace import SPAN_HISTOGRAM

    stages: dict = {}
    for entry in snapshot.get("metrics", ()):
        if entry["name"] != SPAN_HISTOGRAM or entry["type"] != "histogram":
            continue
        span = entry.get("labels", {}).get("span", "?")
        count = entry["count"]
        total = entry["sum"]
        stages[span] = {
            "count": count,
            "mean_ms": round(total / count * 1000, 4) if count else 0.0,
            "total_ms": round(total * 1000, 3),
        }
    return stages


def run_sweep(scales: tuple[int, ...]) -> dict:
    world = make_world(seed=0, pages_per_leaf=24)
    result: dict = {"scales": []}
    for n_users in scales:
        config = GeneratorConfig(
            n_users=n_users,
            mean_sessions_per_user=12,
            click_probability=0.55,
            noise_click_probability=0.12,
            hub_click_probability=0.15,
            seed=42,
        )
        log = generate_log(world, config).log
        probes = _probe_queries(log, N_PROBES)
        n_queries = len(log.unique_queries)

        pqsda = PQSDA.build(
            log,
            config=PQSDAConfig(
                compact=CompactConfig(size=150),
                diversify=DiversifyConfig(k=10, candidate_pool=25),
                personalize=False,
            ),
        )
        systems = {
            "PQS-DA": pqsda,
            "DQS": build_baseline("DQS", log),
            "HT": build_baseline("HT", log),
            "CM": build_baseline("CM", log),
        }
        row = {"n_users": n_users, "n_unique_queries": n_queries,
               "mean_latency_ms": {}}
        for name, suggester in systems.items():
            measured = measure_latency(suggester, probes, k=10)
            row["mean_latency_ms"][name] = measured.mean_seconds * 1000
        # Warm-cache pass through the batch API.  The probes carry a
        # search context, so each request runs the solve and the walk on
        # its warm compact entry instead of returning a memoized ranking.
        requests = _context_requests(probes)
        measure_batch_latency(pqsda, requests)  # cold pass fills the cache
        warm = measure_batch_latency(pqsda, requests)
        row["pqsda_warm_batch_ms"] = warm.mean_seconds * 1000
        row["pqsda_cache"] = {
            "hits": pqsda.cache_stats.hits,
            "misses": pqsda.cache_stats.misses,
            "evictions": pqsda.cache_stats.evictions,
        }
        seed_ms = SEED_PQSDA_MS.get(n_queries)
        if seed_ms is not None:
            row["pqsda_seed_ms"] = seed_ms
            row["pqsda_speedup_vs_seed"] = round(
                seed_ms / row["mean_latency_ms"]["PQS-DA"], 2
            )
        # Stage-level breakdown: attach a registry only AFTER the timed
        # measurements above (so they run with the null-object default),
        # serve the probe workload once traced, read the span histograms.
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
        pqsda.attach_metrics(registry)
        for query in probes:
            pqsda.suggest(query, k=10)
        pqsda.attach_metrics(None)
        row["pqsda_stage_breakdown_ms"] = _stage_breakdown(
            registry.snapshot()
        )
        result["scales"].append(row)
        print(
            f"n_users={n_users:4d} (n={n_queries}): "
            + "  ".join(
                f"{name}={ms:7.2f}ms"
                for name, ms in row["mean_latency_ms"].items()
            )
            + f"  PQS-DA(warm)={row['pqsda_warm_batch_ms']:.2f}ms"
        )
    return result


def run_ingest_bench(n_users: int = INGEST_USERS_QUICK) -> dict:
    """Stream 30% of a log into a 70% bootstrap; record throughput + latency.

    The warm latencies time probes that carry a search context
    (:func:`_context_requests`), so each request runs the solve and the
    walk on its warm compact entry instead of returning a memoized
    ranking.
    """
    from repro.stream import IngestConfig, replay, streaming_pqsda

    world = make_world(seed=0, pages_per_leaf=24)
    config = GeneratorConfig(
        n_users=n_users,
        mean_sessions_per_user=12,
        click_probability=0.55,
        noise_click_probability=0.12,
        hub_click_probability=0.15,
        seed=42,
    )
    log = generate_log(world, config).log
    records = sorted(log.records, key=lambda r: (r.timestamp, r.record_id))
    split = int(len(records) * 0.7)
    bootstrap, tail = QueryLog(records[:split]), records[split:]

    pq_config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10, candidate_pool=25),
        personalize=False,
    )
    suggester, ingestor, manager = streaming_pqsda(
        bootstrap,
        config=pq_config,
        ingest=IngestConfig(batch_size=256, epoch_every=1, clean=False),
    )
    report = ingestor.ingest(replay(tail))

    probes = _probe_queries(log, N_PROBES)
    requests = _context_requests(probes)
    measure_batch_latency(suggester, requests)  # cold pass fills the cache
    warm_stream = measure_batch_latency(suggester, requests)

    reference = PQSDA.build(QueryLog(records), config=pq_config)
    measure_batch_latency(reference, requests)  # cold pass fills the cache
    warm_batch = measure_batch_latency(reference, requests)

    epochs = manager.stats
    cache = suggester.cache_stats
    row = {
        "n_users": n_users,
        "cpu_count": os.cpu_count(),
        "n_records": len(records),
        "bootstrap_records": split,
        "streamed_records": report.records_ingested,
        "ingest_seconds": report.elapsed_seconds,
        "ingest_records_per_second": report.records_per_second,
        "fold_seconds": round(report.fold_seconds, 3),
        "publish_seconds": round(report.publish_seconds, 3),
        "fold_records_per_second": report.fold_records_per_second,
        "micro_batches": report.batches,
        "epochs_published": epochs.published,
        "epochs_retired": epochs.retired,
        "cache": {
            "hits": cache.hits,
            "misses": cache.misses,
            "invalidations": cache.invalidations,
        },
        "stream_warm_batch_ms": warm_stream.mean_seconds * 1000,
        "batch_warm_batch_ms": warm_batch.mean_seconds * 1000,
        "warm_ratio_stream_vs_batch": round(
            warm_stream.mean_seconds / warm_batch.mean_seconds, 3
        ),
    }
    print(
        f"ingest: {report.records_ingested} records at "
        f"{report.records_per_second:,.0f} records/s, "
        f"{epochs.published} epochs; warm stream="
        f"{row['stream_warm_batch_ms']:.2f}ms vs batch="
        f"{row['batch_warm_batch_ms']:.2f}ms "
        f"(ratio {row['warm_ratio_stream_vs_batch']})"
    )
    return row


#: Default UPM training benchmark scale — AOL-like shape: a vocabulary far
#: larger than any one user's working set, so the reference sampler's
#: per-session dense ``beta.sum(axis=1)`` recompute (K x W) dominates.  The
#: quick profile is sized for CI.
UPM_SCALE = {
    "n_users": 1200, "sessions_per_user": 10, "vocab": 20000,
    "urls": 2000, "n_topics": 50, "iterations": 3,
}
UPM_QUICK_SCALE = {
    "n_users": 200, "sessions_per_user": 8, "vocab": 4000,
    "urls": 600, "n_topics": 12, "iterations": 4,
}


def build_upm_corpus(
    n_users: int, sessions_per_user: int, vocab: int, urls: int, seed: int = 0
):
    """A session corpus with real-log shape for the training benchmark.

    Each user draws from a narrow 400-word slice of the vocabulary plus a
    small global head — per-user vocabularies stay tiny (sparse emission
    counts) while the realized global vocabulary approaches *vocab*, which
    is the regime the fast path is built for.  Built directly rather than
    through the synthetic world generator because the generator's browse
    model caps the realized vocabulary far below AOL-like scale.
    """
    from repro.topicmodels.corpus import Document, SessionCorpus, SessionData

    rng = np.random.default_rng(seed)
    docs = []
    for d in range(n_users):
        lo = int(rng.integers(0, max(vocab - 400, 1)))
        sessions = []
        for _ in range(sessions_per_user):
            n = int(rng.integers(3, 8))
            local = rng.integers(lo, min(lo + 400, vocab), size=n)
            head = rng.integers(0, 200, size=max(n // 3, 1))
            words = tuple(int(w) for w in np.concatenate([local, head])[:n])
            m = int(rng.integers(0, 3))
            session_urls = tuple(
                int(u) for u in rng.integers(0, urls, size=m)
            )
            sessions.append(
                SessionData(
                    words=words, urls=session_urls,
                    timestamp=float(rng.random()),
                )
            )
        docs.append(
            Document(user_id=f"user{d:05d}", sessions=tuple(sessions))
        )
    return SessionCorpus(
        documents=tuple(docs),
        word_of_id=tuple(f"w{i}" for i in range(vocab)),
        id_of_word={f"w{i}": i for i in range(vocab)},
        url_of_id=tuple(f"u{i}" for i in range(urls)),
        id_of_url={f"u{i}": i for i in range(urls)},
    )


def run_upm_bench(quick: bool = False) -> dict:
    """Time UPM.fit: reference vs. fast serial vs. fast 4-worker."""
    from repro.personalize.upm import UPM, UPMConfig

    scale = UPM_QUICK_SCALE if quick else UPM_SCALE
    corpus = build_upm_corpus(
        scale["n_users"], scale["sessions_per_user"],
        scale["vocab"], scale["urls"],
    )
    n_sessions = sum(len(d.sessions) for d in corpus.documents)
    # hyperopt_every=0 isolates the sampler: both engines share the same
    # sparse hyperparameter-optimization code, so barriers add identical
    # wall-clock to each and only dilute the sampler comparison.
    base = {
        "n_topics": scale["n_topics"], "iterations": scale["iterations"],
        "hyperopt_every": 0, "seed": 0,
    }

    def timed_fit(engine: str, n_workers: int):
        model = UPM(
            UPMConfig(engine=engine, n_workers=n_workers, **base)
        )
        start = time.perf_counter()
        model.fit(corpus)
        return model, time.perf_counter() - start

    reference, t_reference = timed_fit("reference", 1)
    fast, t_fast = timed_fit("fast", 1)
    fast4, t_fast4 = timed_fit("fast", 4)
    bit_identical = (
        np.array_equal(reference.theta, fast.theta)
        and np.array_equal(reference.beta, fast.beta)
        and np.array_equal(reference.theta, fast4.theta)
        and np.array_equal(reference.beta, fast4.beta)
    )

    def throughput(model) -> float:
        stats = model.fit_stats
        return n_sessions * stats.n_sweeps / sum(stats.sweep_seconds)

    # Serving-time scoring latency on the fitted fast model: p50 over a
    # fixed probe workload (25 users keeps the memoized per-user (K, W)
    # tables bounded).
    rng = np.random.default_rng(1)
    latencies = []
    for _ in range(200):
        user = f"user{int(rng.integers(0, min(scale['n_users'], 25))):05d}"
        query = " ".join(
            f"w{int(w)}" for w in rng.integers(0, scale["vocab"], size=3)
        )
        start = time.perf_counter()
        fast.preference_score(user, query)
        latencies.append(time.perf_counter() - start)

    row = {
        "corpus": {
            "n_users": scale["n_users"],
            "n_sessions": n_sessions,
            "vocab": corpus.n_words,
            "urls": corpus.n_urls,
        },
        "config": dict(base),
        "cpu_count": os.cpu_count(),
        "bit_identical": bit_identical,
        "fit_seconds": {
            "reference": round(t_reference, 3),
            "fast_serial": round(t_fast, 3),
            "fast_4_workers": round(t_fast4, 3),
        },
        "speedup_fast_vs_reference": round(t_reference / t_fast, 2),
        "speedup_4_workers_vs_serial": round(t_fast / t_fast4, 2),
        "sweep_sessions_per_second": {
            "reference": round(throughput(reference), 1),
            "fast_serial": round(throughput(fast), 1),
            "fast_4_workers": round(throughput(fast4), 1),
        },
        "preference_score_p50_ms": round(
            float(np.percentile(latencies, 50)) * 1000, 4
        ),
    }
    print(
        f"upm: D={scale['n_users']} W={corpus.n_words} "
        f"K={scale['n_topics']} x{scale['iterations']} sweeps: "
        f"reference={t_reference:.2f}s fast={t_fast:.2f}s "
        f"(x{row['speedup_fast_vs_reference']}), "
        f"4-worker={t_fast4:.2f}s on {os.cpu_count()} cpus; "
        f"bit_identical={bit_identical}; "
        f"score p50={row['preference_score_p50_ms']:.3f}ms"
    )
    return row


def run_obs_bench(n_users: int = 60, rounds: int = 7) -> dict:
    """Measure end-to-end instrumentation overhead on a warm workload.

    The gated workload is the probes with a search context
    (:func:`_context_requests`): warm compact entries, but every request
    still runs expand, solve and walk.  The same pairing over bare
    repeated probes — ranking-memo hits — is recorded under
    ``memo_hit`` and not gated: there the instrumentation's fixed cost
    per request is reported in microseconds.

    ONE warm suggester, alternating between detached (the null-registry
    default every subsystem boots with) and a live registry + tracer via
    ``attach_metrics`` each round.  Using the same instance for both
    sides keeps the comparison to exactly the instrumentation delta —
    two separately built suggesters differ by several percent from
    allocator/layout drift alone, which would swamp the span cost.

    The estimator is the *median of paired per-round ratios*: each round
    times both sides back to back (order flipping every round so neither
    side systematically rides a warm-up or frequency ramp), and the
    per-round ratio cancels the drift the two adjacent measurements
    share.  The median then discards rounds a scheduler hiccup split
    down the middle — machine noise here is +/- 8 %, the measured effect
    under 1 %, so an unpaired mean would be dominated by noise.
    """
    from repro.obs.export import to_prometheus
    from repro.obs.registry import MetricsRegistry

    world = make_world(seed=0, pages_per_leaf=24)
    config = GeneratorConfig(
        n_users=n_users,
        mean_sessions_per_user=12,
        click_probability=0.55,
        noise_click_probability=0.12,
        hub_click_probability=0.15,
        seed=42,
    )
    log = generate_log(world, config).log
    probes = _probe_queries(log, N_PROBES)
    pq_config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10, candidate_pool=25),
        personalize=False,
    )
    suggester = PQSDA.build(log, config=pq_config)
    registry = MetricsRegistry()
    requests = _context_requests(probes)
    bare = [SuggestRequest(query=q, k=10) for q in probes]
    suggester.suggest_batch(requests)
    suggester.suggest_batch(bare)

    def measure_side(attach, workload) -> float:
        suggester.attach_metrics(attach)
        # The helper's warm-up request settles the new binding.
        return measure_batch_latency(suggester, workload).mean_seconds

    def paired(workload) -> tuple[float, float, float]:
        """Best plain and instrumented means, median paired ratio."""
        plain_means: list[float] = []
        instrumented_means: list[float] = []
        ratios: list[float] = []
        for index in range(rounds):
            if index % 2 == 0:
                plain = measure_side(None, workload)
                live = measure_side(registry, workload)
            else:
                live = measure_side(registry, workload)
                plain = measure_side(None, workload)
            plain_means.append(plain)
            instrumented_means.append(live)
            ratios.append(live / plain if plain > 0 else 1.0)
        ratios.sort()
        return min(plain_means), min(instrumented_means), ratios[rounds // 2]

    best_plain, best_instrumented, ratio = paired(requests)
    snapshot = registry.snapshot()
    memo_plain, memo_instrumented, memo_ratio = paired(bare)
    suggester.attach_metrics(None)

    row = {
        "n_users": n_users,
        "rounds": rounds,
        "probes": len(probes),
        "workload": "probes with a one-query search context",
        "plain_mean_ms": round(best_plain * 1000, 4),
        "instrumented_mean_ms": round(best_instrumented * 1000, 4),
        "overhead_ratio": round(ratio, 4),
        "memo_hit": {
            "plain_mean_us": round(memo_plain * 1e6, 2),
            "instrumented_mean_us": round(memo_instrumented * 1e6, 2),
            "overhead_us": round((memo_instrumented - memo_plain) * 1e6, 2),
            "overhead_ratio": round(memo_ratio, 4),
        },
        "stage_breakdown_ms": _stage_breakdown(snapshot),
        "n_metrics": len(snapshot["metrics"]),
        "prometheus_lines": len(
            to_prometheus(snapshot).strip().splitlines()
        ),
        "snapshot": snapshot,
    }
    memo = row["memo_hit"]
    print(
        f"obs: plain={row['plain_mean_ms']:.3f}ms "
        f"instrumented={row['instrumented_mean_ms']:.3f}ms "
        f"(overhead x{row['overhead_ratio']}), "
        f"{row['n_metrics']} metrics exported; memo hits "
        f"plain={memo['plain_mean_us']:.1f}us "
        f"instrumented={memo['instrumented_mean_us']:.1f}us "
        f"(+{memo['overhead_us']:.1f}us, x{memo['overhead_ratio']}, "
        "not gated)"
    )
    return row


SERVE_WORKER_COUNTS = (1, 2, 4)


def _rss_kb() -> int:
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1])
    except OSError:  # pragma: no cover - non-Linux
        pass
    return 0


SERVE_HOT_TOP = 20


def run_serve_bench(n_users: int = 60, rounds: int = 3) -> dict:
    """Pooled QPS at 1/2/4 workers vs. the single-process serving path.

    One representation build; per worker count, two pools are measured:
    hot tier **off** (batched per-worker envelopes only — the tail path)
    and hot tier **on** (top-``SERVE_HOT_TOP`` head queries precomputed
    into the shared segment, answered O(1) in the parent).  Every
    workload is served warm (a priming pass first) so the numbers
    measure the steady serving state, not compact-cache fills.

    ``qps`` (and the scaling gate on it) times the tier-off pool on the
    probes with a search context (:func:`_context_requests`), so each
    request runs solve and walk in a worker.  ``qps_bare`` times the
    same pool on bare repeated probes, which workers answer from the
    ranking memo; ``qps_hot_tier`` times the tier-on pool on those bare
    probes, the only requests the hot table answers.  Every workload's
    answers are checked bit-identical against the single-process
    reference; ``ipc_overhead_ms`` is the per-request cost the pool adds
    over the single-process path on the context workload (negative once
    parallelism wins).
    ``segment_mb`` counts the shared matrix bytes once — the marginal
    per-worker memory is each worker's own RSS (interpreter + caches),
    not another copy of the matrices.
    """
    from repro.core.suggester import head_queries
    from repro.serve.pool import SuggestWorkerPool
    from repro.utils.text import normalize_query

    world = make_world(seed=0, pages_per_leaf=24)
    config = GeneratorConfig(
        n_users=n_users,
        mean_sessions_per_user=12,
        click_probability=0.55,
        noise_click_probability=0.12,
        hub_click_probability=0.15,
        seed=42,
    )
    log = generate_log(world, config).log
    probes = _probe_queries(log, 40)
    pq_config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10, candidate_pool=25),
        personalize=False,
    )
    suggester = PQSDA.build(log, config=pq_config)
    requests = _context_requests(probes)
    bare = [SuggestRequest(query=q, k=10) for q in probes]
    hot_queries = head_queries(log, SERVE_HOT_TOP)
    hot_set = set(hot_queries)
    hot_positions = [
        i for i, q in enumerate(probes) if normalize_query(q) in hot_set
    ]
    tail_positions = [
        i for i, q in enumerate(probes) if normalize_query(q) not in hot_set
    ]

    suggester.suggest_batch(requests)  # warm the single-process cache
    start = time.perf_counter()
    for _ in range(rounds):
        expected = suggester.suggest_batch(requests)
    single_qps = len(requests) * rounds / (time.perf_counter() - start)
    expected_bare = suggester.suggest_batch(bare)

    def timed_qps(pool, workload=requests, want=expected):
        identical = pool.suggest_many(workload) == want  # warm pass
        start = time.perf_counter()
        got = None
        for _ in range(rounds):
            got = pool.suggest_many(workload)
            identical = got == want and identical
        qps = len(workload) * rounds / (time.perf_counter() - start)
        return qps, identical, got

    row = {
        "n_users": n_users,
        "n_unique_queries": len(log.unique_queries),
        "probes": len(probes),
        "rounds": rounds,
        "hot_top": SERVE_HOT_TOP,
        "cpu_count": os.cpu_count(),
        "parent_rss_kb": _rss_kb(),
        "single_process_qps": round(single_qps, 1),
        "workers": [],
    }
    for n_workers in SERVE_WORKER_COUNTS:
        with SuggestWorkerPool.from_suggester(
            suggester, n_workers=n_workers, prefix=f"bench{n_workers}"
        ) as pool:
            qps, tail_identical, _ = timed_qps(pool)
            qps_bare, bare_identical, _ = timed_qps(pool, bare, expected_bare)
            tail_identical = tail_identical and bare_identical
            stats = pool.stats()
            segment_mb = round(pool.segment_bytes / 1e6, 3)
            worker_rss = [w.rss_kb for w in stats.workers]
            shares = all(w.shares_memory for w in stats.workers)
            attach = [
                round(info["attach_seconds"], 4)
                for _, info in sorted(pool.ready_info.items())
            ]
        with SuggestWorkerPool.from_suggester(
            suggester,
            n_workers=n_workers,
            prefix=f"benchhot{n_workers}",
            hot_queries=hot_queries,
        ) as pool:
            qps_hot, _, got_hot = timed_qps(pool, bare, expected_bare)
            hot_stats = pool.stats()
            hot_identical = all(
                got_hot[i] == expected_bare[i] for i in hot_positions
            )
            tail_identical = tail_identical and all(
                got_hot[i] == expected_bare[i] for i in tail_positions
            )
            served = len(bare) * (rounds + 1)
            hit_rate = hot_stats.hot_hits / served if served else 0.0
        entry = {
            "n_workers": n_workers,
            "qps": round(qps, 1),
            "qps_bare": round(qps_bare, 1),
            "qps_hot_tier": round(qps_hot, 1),
            "scaling_vs_1_worker": None,  # filled below
            "ipc_overhead_ms": round(1000.0 / qps - 1000.0 / single_qps, 3),
            "hot_entries": hot_stats.hot_entries,
            "hot_hit_rate": round(hit_rate, 3),
            "bit_identical_tail": tail_identical,
            "bit_identical_hot": hot_identical,
            "bit_identical": tail_identical and hot_identical,
            "segment_mb": segment_mb,
            "worker_rss_kb": worker_rss,
            "shares_memory": shares,
            "attach_seconds": attach,
        }
        row["workers"].append(entry)
        print(
            f"serve: {n_workers} workers: {qps:7.1f} QPS tail / "
            f"bare {qps_bare:7.1f} QPS tail / {qps_hot:7.1f} QPS hot-tier "
            f"(single-process {single_qps:.1f}), "
            f"hot hit rate {hit_rate:.0%}, "
            f"bit_identical={entry['bit_identical']}, "
            f"segment={segment_mb}MB, "
            f"rss={[round(k / 1024) for k in worker_rss]}MB"
        )
    base_qps = row["workers"][0]["qps"]
    for entry in row["workers"]:
        entry["scaling_vs_1_worker"] = round(entry["qps"] / base_qps, 2)
    return row


def _http_get(url: str):
    """GET *url*; returns ``(status, parsed_body, seconds)`` (4xx/5xx too)."""
    import urllib.error
    import urllib.request

    start = time.perf_counter()
    try:
        with urllib.request.urlopen(url, timeout=60) as response:
            body = json.loads(response.read())
            return response.status, body, time.perf_counter() - start
    except urllib.error.HTTPError as error:
        body = json.loads(error.read())
        return error.code, body, time.perf_counter() - start


def run_http_bench(n_users: int = 60, rounds: int = 3) -> dict:
    """The async HTTP front-end end to end (``"http"`` in BENCH_serve.json).

    Two phases over one 2-worker pool:

    * **normal load** — 8 client threads replay the warm probe workload
      through real sockets with shed thresholds far out of reach; records
      QPS and p50/p99 latency and checks every HTTP answer bit-identical
      to ``suggest_batch`` (shed counters must stay zero — this is the
      acceptance gate for the front-end being a transparent transport);
    * **overload burst** — a fresh front-end over the same pool with
      per-worker thresholds pulled in tight (1/2/4) and 24 concurrent
      clients; bursts repeat (bounded retries) until every shed tier —
      rerank-skip, personalize-skip, reject — has fired at least once,
      and the recorded ``shed`` counters + status mix document the
      degradation ladder under saturation.
    """
    from concurrent.futures import ThreadPoolExecutor
    from urllib.parse import quote

    from repro.obs.registry import MetricsRegistry
    from repro.serve.frontend import FrontendConfig, run_in_thread
    from repro.serve.pool import SuggestWorkerPool

    def shed_counts(registry) -> dict:
        counts = {"rerank": 0, "personalize": 0, "reject": 0}
        for entry in registry.snapshot()["metrics"]:
            for tier in counts:
                if entry["name"] == f"serve.http.shed.{tier}":
                    counts[tier] = entry["value"]
        return counts

    world = make_world(seed=0, pages_per_leaf=24)
    config = GeneratorConfig(
        n_users=n_users,
        mean_sessions_per_user=12,
        click_probability=0.55,
        noise_click_probability=0.12,
        hub_click_probability=0.15,
        seed=42,
    )
    log = generate_log(world, config).log
    probes = _probe_queries(log, 40)
    pq_config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10, candidate_pool=25),
        personalize=False,
    )
    suggester = PQSDA.build(log, config=pq_config)
    requests = [SuggestRequest(query=q, k=10) for q in probes]
    suggester.suggest_batch(requests)  # warm the single-process cache
    expected = dict(zip(probes, suggester.suggest_batch(requests)))

    registry = MetricsRegistry()
    row: dict = {"n_workers": 2, "probes": len(probes)}
    with SuggestWorkerPool.from_suggester(
        suggester, n_workers=2, registry=registry, prefix="benchhttp"
    ) as pool:
        urls_of = lambda base: [  # noqa: E731 - tiny local binding
            base + "/suggest?q=" + quote(query) + "&k=10" for query in probes
        ]

        # -- normal load: thresholds out of reach, answers must be exact.
        normal_config = FrontendConfig(
            default_deadline_ms=30_000.0,
            shed_rerank_depth=64.0,
            shed_personalize_depth=128.0,
            reject_depth=256.0,
        )
        n_clients = 8
        with run_in_thread(
            pool, config=normal_config, registry=registry
        ) as handle:
            urls = urls_of(handle.url)
            with ThreadPoolExecutor(n_clients) as client:
                list(client.map(_http_get, urls))  # warm worker caches
                start = time.perf_counter()
                outcomes = []
                for _ in range(rounds):
                    outcomes.extend(client.map(_http_get, urls))
                elapsed = time.perf_counter() - start
        latencies = sorted(seconds for _, _, seconds in outcomes)
        bit_identical = all(
            status == 200
            and body["shed_tier"] == 0
            and body["suggestions"] == expected[body["query"]]
            for status, body, _ in outcomes
        )
        row["normal"] = {
            "clients": n_clients,
            "requests": len(outcomes),
            "qps": round(len(outcomes) / elapsed, 1),
            "p50_ms": round(
                float(np.percentile(latencies, 50)) * 1000, 3
            ),
            "p99_ms": round(
                float(np.percentile(latencies, 99)) * 1000, 3
            ),
            "errors": sum(1 for status, _, _ in outcomes if status != 200),
            "bit_identical": bit_identical,
            "shed": shed_counts(registry),
        }
        print(
            f"http[normal]: {row['normal']['qps']:7.1f} QPS over "
            f"{n_clients} clients, p50={row['normal']['p50_ms']:.2f}ms "
            f"p99={row['normal']['p99_ms']:.2f}ms, "
            f"bit_identical={bit_identical}, shed={row['normal']['shed']}"
        )

        # -- overload burst: tight thresholds, bounded retries until every
        # shed tier has fired.
        overload_registry = MetricsRegistry()
        overload_config = FrontendConfig(
            default_deadline_ms=5_000.0,
            shed_rerank_depth=1.0,
            shed_personalize_depth=2.0,
            reject_depth=4.0,
            max_dispatchers=2,
        )
        n_burst_clients, max_attempts = 24, 6
        outcomes, attempts = [], 0
        with run_in_thread(
            pool, config=overload_config, registry=overload_registry
        ) as handle:
            urls = urls_of(handle.url)
            start = time.perf_counter()
            while attempts < max_attempts:
                attempts += 1
                burst = (urls * ((n_burst_clients * 4) // len(urls) + 1))[
                    : n_burst_clients * 4
                ]
                with ThreadPoolExecutor(n_burst_clients) as client:
                    outcomes.extend(client.map(_http_get, burst))
                if all(
                    count > 0
                    for count in shed_counts(overload_registry).values()
                ):
                    break
            elapsed = time.perf_counter() - start
        shed = shed_counts(overload_registry)
        latencies = sorted(seconds for _, _, seconds in outcomes)
        status_counts: dict = {}
        for status, _, _ in outcomes:
            status_counts[str(status)] = status_counts.get(str(status), 0) + 1
        deadline_expired = 0
        for entry in overload_registry.snapshot()["metrics"]:
            if entry["name"] == "serve.http.deadline_expired":
                deadline_expired = entry["value"]
        row["overload"] = {
            "clients": n_burst_clients,
            "bursts": attempts,
            "requests": len(outcomes),
            "qps": round(len(outcomes) / elapsed, 1),
            "p50_ms": round(
                float(np.percentile(latencies, 50)) * 1000, 3
            ),
            "p99_ms": round(
                float(np.percentile(latencies, 99)) * 1000, 3
            ),
            "status_counts": status_counts,
            "shed": shed,
            "deadline_expired": deadline_expired,
            "all_tiers_observed": all(count > 0 for count in shed.values()),
            "thresholds_per_worker": {
                "rerank": overload_config.shed_rerank_depth,
                "personalize": overload_config.shed_personalize_depth,
                "reject": overload_config.reject_depth,
            },
        }
        print(
            f"http[overload]: {row['overload']['qps']:7.1f} QPS over "
            f"{n_burst_clients} clients x{attempts} bursts, "
            f"p50={row['overload']['p50_ms']:.2f}ms "
            f"p99={row['overload']['p99_ms']:.2f}ms, shed={shed}, "
            f"statuses={status_counts}, "
            f"all_tiers_observed={row['overload']['all_tiers_observed']}"
        )
    return row


def run_serve_personalize_bench(
    n_users: int = 60, rounds: int = 3, mode: str = "quick"
) -> dict:
    """Personalized vs. anonymous pooled QPS over the shared profile plane.

    One personalized suggester (small UPM fit); the same probe workload is
    served twice per pool — once anonymously and once with every request
    carrying a profiled ``user_id`` (round-robin over the store), so the
    gap isolates what personalization costs per request: the hot-tier
    bypass, the Borda fusion, and the zero-copy profile lookups.  The
    single-process gap is recorded as ``profile_lookup_overhead_ms``;
    pooled personalized answers are checked bit-identical against the
    single-process personalized path at every worker count.
    """
    from repro.personalize.upm import UPMConfig
    from repro.serve.pool import SuggestWorkerPool

    world = make_world(seed=0, pages_per_leaf=24)
    config = GeneratorConfig(
        n_users=n_users,
        mean_sessions_per_user=12,
        click_probability=0.55,
        noise_click_probability=0.12,
        hub_click_probability=0.15,
        seed=42,
    )
    log = generate_log(world, config).log
    probes = _probe_queries(log, 40)
    pq_config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=10, candidate_pool=25),
        upm=UPMConfig(
            n_topics=6, iterations=8, hyperopt_every=0, seed=0
        ),
        personalize=True,
    )
    suggester = PQSDA.build(log, config=pq_config)
    users = suggester.profiles.user_ids
    personalized = [
        SuggestRequest(query=q, k=10, user_id=users[i % len(users)])
        for i, q in enumerate(probes)
    ]
    anonymous = [SuggestRequest(query=q, k=10) for q in probes]

    def single_qps(requests):
        suggester.suggest_batch(requests)  # warm pass
        start = time.perf_counter()
        expected = None
        for _ in range(rounds):
            expected = suggester.suggest_batch(requests)
        return len(requests) * rounds / (time.perf_counter() - start), expected

    qps_anon, _ = single_qps(anonymous)
    qps_personal, expected = single_qps(personalized)
    overhead_ms = round(1000.0 / qps_personal - 1000.0 / qps_anon, 3)

    row = {
        # Stamped here as well as on the parent record: the personalized
        # section is read standalone by dashboards, so it carries the
        # same run provenance (mode + machine size) uniformly.
        "mode": mode,
        "cpu_count": os.cpu_count(),
        "n_users": n_users,
        "profiled_users": len(users),
        "probes": len(probes),
        "rounds": rounds,
        "upm_topics": pq_config.upm.n_topics,
        "single_process_qps": round(qps_personal, 1),
        "single_process_anonymous_qps": round(qps_anon, 1),
        "profile_lookup_overhead_ms": overhead_ms,
        "workers": [],
    }
    for n_workers in SERVE_WORKER_COUNTS:
        with SuggestWorkerPool.from_suggester(
            suggester, n_workers=n_workers, prefix=f"benchp{n_workers}"
        ) as pool:
            pool.suggest_many(personalized)  # warm pass
            identical = True
            start = time.perf_counter()
            for _ in range(rounds):
                got = pool.suggest_many(personalized)
                identical = got == expected and identical
            qps = len(personalized) * rounds / (time.perf_counter() - start)
            pool.suggest_many(anonymous)  # warm the anonymous side
            start = time.perf_counter()
            for _ in range(rounds):
                pool.suggest_many(anonymous)
            pool_anon_qps = (
                len(anonymous) * rounds / (time.perf_counter() - start)
            )
            stats = pool.stats()
            entry = {
                "n_workers": n_workers,
                "qps_personalized": round(qps, 1),
                "qps_anonymous": round(pool_anon_qps, 1),
                "bit_identical": identical,
                "profile_segment_mb": round(
                    pool.profile_segment_bytes / 1e6, 3
                ),
                "profile_shares_memory": all(
                    w.profile_shares_memory for w in stats.workers
                ),
            }
        row["workers"].append(entry)
        print(
            f"serve[personalized]: {n_workers} workers: "
            f"{qps:7.1f} QPS personalized / {pool_anon_qps:7.1f} QPS "
            f"anonymous (single-process {qps_personal:.1f}), "
            f"bit_identical={identical}, "
            f"profile segment={entry['profile_segment_mb']}MB, "
            f"shared profile views={entry['profile_shares_memory']}"
        )
    return row


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--full", action="store_true",
        help="sweep every Fig. 7 scale (default: smallest only)",
    )
    parser.add_argument(
        "--quick", action="store_true",
        help="CI profile: smallest Fig. 7 scale, ingest, and a small "
        "UPM training benchmark",
    )
    parser.add_argument(
        "--ingest", action="store_true",
        help="also run the streaming-ingestion benchmark",
    )
    parser.add_argument(
        "--upm", action="store_true",
        help="also run the UPM training benchmark (reference vs. fast "
        "engine)",
    )
    parser.add_argument(
        "--obs", action="store_true",
        help="also run the observability overhead benchmark",
    )
    parser.add_argument(
        "--max-overhead-ratio", type=float, default=None, metavar="R",
        help="fail (exit 1) when the instrumented/plain latency ratio "
        "of the --obs benchmark exceeds R (CI uses 1.05)",
    )
    parser.add_argument(
        "--serve", action="store_true",
        help="also run the scale-out serving benchmark (pooled QPS at "
        "1/2/4 workers over one shared-memory segment)",
    )
    parser.add_argument(
        "--min-serve-scaling", type=float, default=None, metavar="R",
        help="fail (exit 1) when 2-worker QPS is below R x 1-worker QPS "
        "(CI uses 1.3; auto-skipped on machines with fewer than 2 CPUs)",
    )
    parser.add_argument(
        "--personalize", action="store_true",
        help="also benchmark personalized serving over the shared profile "
        "plane (personalized vs. anonymous QPS at 1/2/4 workers; implies "
        "--serve)",
    )
    parser.add_argument(
        "--http", action="store_true",
        help="also benchmark the async HTTP front-end (normal-load QPS + "
        "p50/p99 with bit-identity, overload burst until every shed tier "
        "fires; implies --serve)",
    )
    parser.add_argument(
        "--output", default="BENCH_fig7.json",
        help="where to write the Fig. 7 JSON record",
    )
    parser.add_argument(
        "--ingest-output", default="BENCH_ingest.json",
        help="where to write the ingest JSON record",
    )
    parser.add_argument(
        "--upm-output", default="BENCH_upm.json",
        help="where to write the UPM training JSON record",
    )
    parser.add_argument(
        "--obs-output", default="BENCH_metrics.json",
        help="where to write the observability JSON record",
    )
    parser.add_argument(
        "--serve-output", default="BENCH_serve.json",
        help="where to write the scale-out serving JSON record",
    )
    args = parser.parse_args()
    failures: list[str] = []

    def fail(message: str) -> None:
        print(f"FAIL: {message}")
        failures.append(message)

    if args.quick:
        args.ingest = True
        args.upm = True
        args.obs = True
        args.serve = True
        args.personalize = True
        args.http = True
    if args.max_overhead_ratio is not None:
        args.obs = True
    if args.min_serve_scaling is not None or args.personalize or args.http:
        args.serve = True
    mode = "full" if args.full else "quick"
    scales = USER_SCALES if args.full else USER_SCALES[:1]
    record = {
        "benchmark": "fig7_efficiency",
        "mode": mode,
        "protocol": {
            "probes": N_PROBES,
            "compact_size": 150,
            "k": 10,
            "candidate_pool": 25,
        },
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        **run_sweep(scales),
    }
    Path(args.output).write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.output}")
    if args.ingest:
        ingest_record = {
            "benchmark": "stream_ingest",
            "mode": mode,
            "protocol": {
                "bootstrap_fraction": 0.7,
                "batch_size": 256,
                "epoch_every": 1,
                "probes": N_PROBES,
                "compact_size": 150,
                "k": 10,
            },
            "python": platform.python_version(),
            **run_ingest_bench(
                n_users=(
                    INGEST_USERS_FULL if args.full else INGEST_USERS_QUICK
                ),
            ),
        }
        Path(args.ingest_output).write_text(
            json.dumps(ingest_record, indent=2) + "\n"
        )
        print(f"wrote {args.ingest_output}")
    if args.upm:
        upm_record = {
            "benchmark": "upm_training",
            "mode": mode,
            "profile": "quick" if args.quick else "default",
            "python": platform.python_version(),
            **run_upm_bench(quick=args.quick),
        }
        Path(args.upm_output).write_text(
            json.dumps(upm_record, indent=2) + "\n"
        )
        print(f"wrote {args.upm_output}")
    if args.obs:
        obs_row = run_obs_bench()
        obs_record = {
            "benchmark": "observability_overhead",
            "mode": mode,
            "max_overhead_ratio": args.max_overhead_ratio,
            "python": platform.python_version(),
            **obs_row,
        }
        Path(args.obs_output).write_text(
            json.dumps(obs_record, indent=2) + "\n"
        )
        print(f"wrote {args.obs_output}")
        if (
            args.max_overhead_ratio is not None
            and obs_row["overhead_ratio"] > args.max_overhead_ratio
        ):
            fail(
                f"instrumentation overhead x{obs_row['overhead_ratio']}"
                f" exceeds the x{args.max_overhead_ratio} bound"
            )
    if args.serve:
        serve_row = run_serve_bench(rounds=2 if args.quick else 3)
        personal_row = None
        if args.personalize:
            personal_row = run_serve_personalize_bench(
                rounds=2 if args.quick else 3, mode=mode
            )
            serve_row["personalized"] = personal_row
        http_row = None
        if args.http:
            http_row = run_http_bench(rounds=2 if args.quick else 3)
            serve_row["http"] = http_row
        serve_record = {
            "benchmark": "serve_scaleout",
            "mode": mode,
            "min_serve_scaling": args.min_serve_scaling,
            "python": platform.python_version(),
            **serve_row,
        }
        Path(args.serve_output).write_text(
            json.dumps(serve_record, indent=2) + "\n"
        )
        print(f"wrote {args.serve_output}")
        if not all(entry["bit_identical"] for entry in serve_row["workers"]):
            fail("pooled output diverged from the single-process path")
        if personal_row is not None and not all(
            entry["bit_identical"] for entry in personal_row["workers"]
        ):
            fail(
                "pooled personalized output diverged from the "
                "single-process path"
            )
        if http_row is not None:
            if not http_row["normal"]["bit_identical"]:
                fail(
                    "HTTP answers diverged from suggest_batch "
                    "under normal load"
                )
            if not http_row["overload"]["all_tiers_observed"]:
                fail(
                    "overload bursts never reached every shed tier "
                    f"(shed={http_row['overload']['shed']})"
                )
        if args.min_serve_scaling is not None:
            cpus = serve_row["cpu_count"] or 1
            if cpus < 2:
                print(
                    f"serve scaling gate skipped: {cpus} CPU(s) — no "
                    "parallel speedup is physically available"
                )
            else:
                by_workers = {
                    entry["n_workers"]: entry["qps"]
                    for entry in serve_row["workers"]
                }
                scaling = by_workers[2] / by_workers[1]
                if scaling < args.min_serve_scaling:
                    fail(
                        f"2-worker scaling x{scaling:.2f} below the "
                        f"x{args.min_serve_scaling} bound"
                    )
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
