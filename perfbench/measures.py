"""From raw observations to the metrics ``BENCHMARK.json`` names.

The runner collects four kinds of raw material per run: the client-side
request results, the server's set-up report, the pool/worker counters at
the start and end of the timed phase, and (traced runs) spans from both
processes.  This module turns them into the end-to-end metrics and, for
traced runs, into per-layer metrics; it does no I/O.
"""

from __future__ import annotations

import bisect
import statistics

from benchstats import percentile, self_times

__all__ = [
    "SERVING_SPANS",
    "end_to_end",
    "join_request_spans",
    "per_layer",
    "self_time_table",
    "stream_metrics",
]

#: Worker-side spans of ``PQSDA.suggest`` and the layer each one times.
SERVING_SPANS = {
    "graphs.expand_ms": "expand",
    "diversify.solve_ms": "solve",
    "diversify.walk_ms": "walk",
    "personalize.rerank_ms": "rerank",
}


def end_to_end(setup_s, timed, probes, pss_mb) -> dict:
    """The end-to-end metrics of one run (values only, units in the spec).

    *timed* are the timed phase's requests, *probes* the live workload's
    checked probes (empty otherwise); both count towards the success
    rate.  A timed request that failed counts as infinitely slow in the
    latency percentiles.
    """
    latencies = [(r.done - r.due) * 1000.0 for r in timed if r.ok]
    failed_timed = len(timed) - len(latencies)
    span = max(r.done for r in timed) - min(r.due for r in timed)
    attempted = len(timed) + len(probes)
    failed = failed_timed + sum(1 for r in probes if not r.ok)
    return {
        "setup_s": setup_s,
        "latency_p50_ms": percentile(latencies, 50, failed_timed),
        "latency_p90_ms": percentile(latencies, 90, failed_timed),
        "throughput_per_s": len(latencies) / span,
        "success_rate": (attempted - failed) / attempted,
        "server_pss_mb": pss_mb,
    }


def stream_metrics(stream) -> dict:
    """Ingest rate and micro-batch freshness of the live stream (0 without).

    Only live_ingest streams, and the end-to-end list must hold for every
    workload and never read 0, so these are reported with the layers.
    """
    if stream is None:
        return {
            "stream.ingest_records_per_s": 0.0,
            "stream.freshness_p50_ms": 0.0,
            "stream.freshness_p90_ms": 0.0,
        }
    freshness = [value * 1000.0 for value in stream["freshness"]]
    return {
        "stream.ingest_records_per_s": stream["records"] / stream["seconds"],
        "stream.freshness_p50_ms": percentile(freshness, 50),
        "stream.freshness_p90_ms": percentile(freshness, 90),
    }


def join_request_spans(results, server_spans, recorder) -> None:
    """Record each timed request's span tree on the runner's *recorder*.

    A request span runs from its due time to its last response byte.  Its
    children are the generator's lateness (due -> sent) and the pool call
    that served it, matched by (query, user) to the ``serve.pool.call``
    span that started and ended while the request was in flight.  The
    pool span is copied under the request with the request id, so the
    front-end's self time is the request span's self time.
    """
    calls: dict = {}
    for span in server_spans:
        if span["name"] != "serve.pool.call":
            continue
        for query, user in span["attrs"]["requests"]:
            calls.setdefault((query, user), []).append(
                (span["start"], span["end"])
            )
    for entries in calls.values():
        entries.sort()
    for result in results:
        rid = result.rid
        root = recorder.record("http.request", result.due, result.done, rid=rid)
        recorder.record("loadgen.lateness", result.due, result.sent, root, rid)
        entries = calls.get((result.query, result.user), [])
        index = bisect.bisect_left(entries, (result.sent,))
        for start, end in entries[index:]:
            if start > result.done:
                break
            if end <= result.done:
                recorder.record("serve.pool.call", start, end, root, rid)
                break


def _delta(end: dict, start: dict, key: str):
    return end[key] - start[key]


def _mean_ms(spans, name: str) -> float:
    durations = [s["end"] - s["start"] for s in spans if s["name"] == name]
    return statistics.fmean(durations) * 1000.0 if durations else 0.0


def per_layer(ready, start, end, spans, stream) -> dict:
    """Per-layer metrics of one traced run (see ``BENCHMARK.json``).

    *start*/*end* are the server's counters at the timed phase's edges,
    *spans* every span of the run (server and runner, request trees
    joined), *stream* the live stream's report or ``None``.

    Which end-to-end metric each layer should move, and where it does the
    most work:

    ========================  =========================  ==================
    layer metrics             should move                most work on
    ========================  =========================  ==================
    logs.load_s,              setup_s                    all alike
    graphs.build_s,
    serve.pool.start_s,
    serve.pool.attach_s
    personalize.upm_fit_s     setup_s                    live_ingest
    serve.frontend.*,         latency_p50_ms             head_http
    serve.pool.hot_hit_ratio,
    serve.pool.ipc_ms
    serve.pool.call_ms,       latency_p50_ms,            live_ingest
    serve.worker.*,           latency_p90_ms,
    graphs.expand_ms,         throughput_per_s
    diversify.*,
    personalize.rerank_ms,
    core.cache.hit_ratio
    core.cache.invalidations  latency_p50_ms             live_ingest
    stream.fold_ms,           latency_p90_ms (and the     live_ingest
    stream.derive_ms,         stream's own ingest rate
    stream.publish_ms,        and freshness)
    serve.pool.publish_ms,
    serve.pool.swap_ms,
    serve.pool.segment_mb,
    stream.full_publish_ratio
    stream.touched_queries    none (explains publishes)  live_ingest
    ========================  =========================  ==================
    """
    times = ready["times"]
    phase_s = end["t"] - start["t"]
    workers = list(zip(start["workers"], end["workers"]))
    busy = [e["busy"] - s["busy"] for s, e in workers]
    worker_requests = sum(e["requests"] - s["requests"] for s, e in workers)
    hits = sum(e["hits"] - s["hits"] for s, e in workers)
    lookups = hits + sum(e["misses"] - s["misses"] for s, e in workers)
    invalidations = sum(
        e["invalidations"] - s["invalidations"] for s, e in workers
    )
    pool_requests = _delta(end, start, "pool_requests")
    batch_sum = end["http_batch"][0] - start["http_batch"][0]
    batch_count = end["http_batch"][1] - start["http_batch"][1]
    swap_sum = end["swap"][0] - start["swap"][0]
    swap_count = end["swap"][1] - start["swap"][1]

    in_phase = [s for s in spans if start["t"] <= s["start"] <= end["t"]]
    calls = [
        s["end"] - s["start"]
        for s in in_phase
        if s["name"] == "serve.pool.call" and s["rid"] is None
    ]
    own = self_times(spans)
    frontend_self = [
        own[s["id"]] for s in in_phase if s["name"] == "http.request"
    ]
    publishes = stream["publishes"] if stream else []
    epochs = len(publishes)

    metrics = {
        "logs.load_s": times["load_s"],
        "graphs.build_s": times["build_s"] - times["upm_fit_s"],
        "personalize.upm_fit_s": times["upm_fit_s"],
        "serve.pool.start_s": times["pool_start_s"],
        "serve.pool.attach_s": times["attach_s"],
        "serve.frontend.self_ms": (
            statistics.median(frontend_self) * 1000.0 if frontend_self else 0.0
        ),
        "serve.frontend.batch_size": (
            batch_sum / batch_count if batch_count else 0.0
        ),
        "serve.pool.call_ms": (
            statistics.median(calls) * 1000.0 if calls else 0.0
        ),
        "serve.pool.hot_hit_ratio": (
            _delta(end, start, "hot_hits") / pool_requests
            if pool_requests else 0.0
        ),
        "serve.pool.ipc_ms": (
            (sum(calls) - sum(busy)) / worker_requests * 1000.0
            if worker_requests else 0.0
        ),
        "serve.worker.busy_ms": (
            sum(busy) / worker_requests * 1000.0 if worker_requests else 0.0
        ),
        "serve.worker.utilization": max(busy) / phase_s,
        "core.cache.hit_ratio": hits / lookups if lookups else 0.0,
        "core.cache.invalidations": invalidations / epochs if epochs else 0.0,
    }
    for metric, span_name in SERVING_SPANS.items():
        total = end["spans"].get(span_name, [0.0, 0])
        before = start["spans"].get(span_name, [0.0, 0])
        count = total[1] - before[1]
        metrics[metric] = (
            (total[0] - before[0]) / count * 1000.0 if count else 0.0
        )
    metrics.update(stream_metrics(stream))
    metrics.update({
        "stream.fold_ms": _mean_ms(spans, "stream.fold"),
        "stream.derive_ms": _mean_ms(spans, "stream.derive"),
        "stream.publish_ms": _mean_ms(spans, "stream.publish"),
        "serve.pool.publish_ms": _mean_ms(spans, "serve.pool.publish"),
        "serve.pool.swap_ms": swap_sum / swap_count * 1000.0 if swap_count else 0.0,
        "serve.pool.segment_mb": (
            statistics.fmean(p["packed_bytes"] for p in publishes) / 1e6
            if publishes else 0.0
        ),
        "stream.touched_queries": (
            statistics.fmean(p["touched"] for p in publishes)
            if publishes else 0.0
        ),
        "stream.full_publish_ratio": (
            sum(1 for p in publishes if p["full"]) / epochs if epochs else 0.0
        ),
    })
    return metrics


def self_time_table(spans) -> dict:
    """Per span name: count, total seconds and self seconds."""
    own = self_times(spans)
    table: dict = {}
    for span in spans:
        row = table.setdefault(span["name"], {"count": 0, "total_s": 0.0, "self_s": 0.0})
        row["count"] += 1
        row["total_s"] += span["end"] - span["start"]
        row["self_s"] += own[span["id"]]
    return table
