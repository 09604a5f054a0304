"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``generate`` — build the synthetic world and write an AOL-format log;
* ``suggest``  — build PQS-DA over an AOL-format log and print suggestions
  for a query (optionally personalized for a user);
* ``stats``    — print summary statistics of an AOL-format log, or render a
  ``--metrics-out`` snapshot (``--metrics``) as a table, JSON, or
  Prometheus text;
* ``perplexity`` — run the Fig. 4 protocol for chosen models over a log;
* ``ingest``   — bootstrap a live suggester from a log prefix, then stream
  the remainder through the incremental ingestion path (epoch snapshots,
  each flushing the serving cache) and report throughput;
* ``serve``    — build the representation once, publish it into shared
  memory, and serve a request set from ``--workers`` suggest processes
  (zero-copy scale-out; reports per-worker throughput and memory); with
  ``--listen HOST:PORT`` it instead serves HTTP through the async
  front-end until SIGINT/SIGTERM.

Every command is deterministic given ``--seed``.
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from dataclasses import replace

from repro.baselines.base import SuggestRequest
from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig
from repro.logs.aol import read_aol, write_aol
from repro.logs.cleaning import clean_log
from repro.logs.sessionizer import sessionize
from repro.personalize.upm import UPMConfig
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.topicmodels import build_corpus, build_model
from repro.topicmodels.perplexity import evaluate_perplexity
from repro.topicmodels.zoo import MODEL_NAMES

__all__ = ["main", "build_parser"]


def _count(text: str) -> int:
    """argparse ``type=`` for count flags: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    """The ``repro`` argument parser (exposed for testing and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PQS-DA (ICDE 2014) reproduction command-line interface",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    generate = sub.add_parser(
        "generate", help="generate a synthetic AOL-format query log"
    )
    generate.add_argument("output", help="path of the AOL TSV to write")
    generate.add_argument("--users", type=int, default=50)
    generate.add_argument("--sessions", type=float, default=10.0,
                          help="mean sessions per user")
    generate.add_argument("--seed", type=int, default=0)

    suggest = sub.add_parser(
        "suggest", help="suggest queries from an AOL-format log"
    )
    suggest.add_argument("log", help="AOL TSV file")
    suggest.add_argument("query", nargs="+",
                         help="input query (repeat for a batch)")
    suggest.add_argument("--user", default=None,
                         help="AnonID to personalize for")
    suggest.add_argument("--k", type=_count, default=10)
    suggest.add_argument("--workers", type=_count, default=1,
                         help="thread-pool size for batched suggestion")
    suggest.add_argument("--cache-stats", action="store_true",
                         help="print serving-cache hit/miss counters")
    suggest.add_argument("--raw", action="store_true",
                         help="use the raw (non-cfiqf) representation")
    suggest.add_argument("--no-personalize", action="store_true",
                         help="skip UPM training (diversification only)")
    suggest.add_argument("--compact-size", type=int, default=150)
    suggest.add_argument("--topics", type=int, default=10)
    suggest.add_argument("--upm-engine", default="fast",
                         choices=("fast", "reference"),
                         help="UPM sampler implementation (bit-identical; "
                              "'reference' is the executable specification)")
    suggest.add_argument("--upm-workers", type=int, default=1,
                         help="document-parallel UPM training processes "
                              "(fast engine only)")
    suggest.add_argument("--verbose", action="store_true",
                         help="print per-fit UPM training statistics")
    suggest.add_argument("--metrics-out", default=None, metavar="JSON",
                         help="attach a metrics registry to the whole "
                              "pipeline and write its snapshot here")
    suggest.add_argument("--seed", type=int, default=0)
    suggest.add_argument("--max-records", type=int, default=None)

    stats = sub.add_parser(
        "stats",
        help="summarize an AOL-format log or render a metrics snapshot",
    )
    stats.add_argument("log", nargs="?", default=None, help="AOL TSV file")
    stats.add_argument("--max-records", type=int, default=None)
    stats.add_argument("--metrics", default=None, metavar="JSON",
                       help="render this --metrics-out snapshot instead of "
                            "summarizing a log")
    stats.add_argument("--format", default="table",
                       choices=("table", "json", "prometheus"),
                       help="metrics rendering (with --metrics)")

    perplexity = sub.add_parser(
        "perplexity", help="Fig. 4 perplexity protocol over a log"
    )
    perplexity.add_argument("log", help="AOL TSV file")
    perplexity.add_argument(
        "--models", nargs="+", default=list(MODEL_NAMES),
        choices=list(MODEL_NAMES),
    )
    perplexity.add_argument("--topics", type=int, default=10)
    perplexity.add_argument("--iterations", type=int, default=30)
    perplexity.add_argument("--upm-engine", default="fast",
                            choices=("fast", "reference"),
                            help="UPM sampler implementation")
    perplexity.add_argument("--observed", type=float, default=0.7)
    perplexity.add_argument("--seed", type=int, default=0)
    perplexity.add_argument("--max-records", type=int, default=None)

    ingest = sub.add_parser(
        "ingest",
        help="stream an AOL-format log through the incremental ingestion path",
    )
    ingest.add_argument("log", help="AOL TSV file")
    ingest.add_argument("--bootstrap", type=float, default=0.7,
                        help="fraction of the log (time-ordered) used to "
                             "bootstrap epoch 0; the rest is streamed")
    ingest.add_argument("--batch-size", type=_count, default=256,
                        help="records per micro-batch")
    ingest.add_argument("--epoch-every", type=_count, default=1,
                        help="micro-batches per published epoch")
    ingest.add_argument("--replay", type=float, default=0.0, metavar="SPEEDUP",
                        help="pace the stream by timestamp gaps compressed "
                             "by this factor (0 = as fast as possible)")
    ingest.add_argument("--probe", default=None,
                        help="query to suggest for before and after the "
                             "stream (default: most frequent bootstrap query)")
    ingest.add_argument("--k", type=_count, default=10)
    ingest.add_argument("--compact-size", type=int, default=150)
    ingest.add_argument("--metrics-out", default=None, metavar="JSON",
                        help="attach a metrics registry to the streaming "
                             "stack and write its snapshot here")
    ingest.add_argument("--max-records", type=int, default=None)

    serve = sub.add_parser(
        "serve",
        help="serve suggestions from a shared-memory multi-process pool",
    )
    serve.add_argument("log", help="AOL TSV file")
    serve.add_argument("query", nargs="*",
                       help="queries to serve (default: the 20 most "
                            "frequent log queries)")
    serve.add_argument("--workers", type=_count, default=2,
                       help="suggest worker processes")
    serve.add_argument("--k", type=_count, default=10)
    serve.add_argument("--rounds", type=_count, default=1,
                       help="times to replay the request set "
                            "(throughput measurement)")
    serve.add_argument("--compact-size", type=int, default=150)
    serve.add_argument("--hot-top", type=int, default=0, metavar="N",
                       help="precompute the N most frequent log queries "
                            "into the shared hot-query table; hits are "
                            "answered O(1) in the parent (0 = tier off)")
    serve.add_argument("--personalize", action="store_true",
                       help="fit the UPM on the log, publish the profiles "
                            "into the shared profile plane, and serve each "
                            "request as a profiled user (round-robin over "
                            "the store)")
    serve.add_argument("--topics", type=int, default=5,
                       help="UPM topics when --personalize is set")
    serve.add_argument("--upm-iterations", type=int, default=10,
                       help="UPM Gibbs sweeps when --personalize is set")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve over HTTP instead of replaying a request "
                            "set: bind the async front-end here (e.g. "
                            "127.0.0.1:8080) and run until SIGINT/SIGTERM")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most queued HTTP requests one dispatch to the "
                            "pool takes")
    serve.add_argument("--deadline-ms", type=float, default=1000.0,
                       help="default per-request deadline of the HTTP "
                            "front-end (504 past it)")
    serve.add_argument("--shed-rerank-depth", type=float, default=4.0,
                       help="per-worker queue depth at which the front-end "
                            "skips the hitting-time rerank (shed tier 1)")
    serve.add_argument("--shed-personalize-depth", type=float, default=8.0,
                       help="per-worker depth at which it also skips "
                            "personalization (shed tier 2)")
    serve.add_argument("--reject-depth", type=float, default=16.0,
                       help="per-worker depth at which it rejects with 503 "
                            "(shed tier 3)")
    serve.add_argument("--quiet", action="store_true",
                       help="skip printing the per-query suggestions")
    serve.add_argument("--metrics-out", default=None, metavar="JSON",
                       help="write the merged pool+worker metrics snapshot "
                            "here")
    serve.add_argument("--max-records", type=int, default=None)

    report = sub.add_parser(
        "report", help="run the full evaluation battery, print markdown"
    )
    report.add_argument("--output", default=None,
                        help="write the markdown report to this file")
    report.add_argument("--quick", action="store_true",
                        help="small-scale smoke run (seconds, noisy numbers)")
    report.add_argument("--seed", type=int, default=42)

    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    world = make_world(seed=args.seed)
    synthetic = generate_log(
        world,
        GeneratorConfig(
            n_users=args.users,
            mean_sessions_per_user=args.sessions,
            seed=args.seed,
        ),
    )
    rows = write_aol(synthetic.log, args.output)
    print(
        f"wrote {rows} rows for {len(synthetic.log.users)} users "
        f"({len(synthetic.log.unique_queries)} unique queries) to "
        f"{args.output}"
    )
    return 0


def _load_cleaned(path: str, max_records: int | None):
    log = read_aol(path, max_records=max_records)
    cleaned, _ = clean_log(log)
    return cleaned


def _make_registry(metrics_out: str | None):
    """A live registry when *metrics_out* is set, else ``None``."""
    if metrics_out is None:
        return None
    from repro.obs.registry import MetricsRegistry

    return MetricsRegistry()


def _write_metrics(registry, metrics_out: str | None) -> None:
    if registry is None or metrics_out is None:
        return
    from repro.obs.export import write_json

    write_json(registry.snapshot(), metrics_out)
    print(f"wrote metrics snapshot to {metrics_out}", file=sys.stderr)


def _cmd_suggest(args: argparse.Namespace) -> int:
    try:
        upm = UPMConfig(
            n_topics=args.topics,
            iterations=30,
            engine=args.upm_engine,
            n_workers=args.upm_workers,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    cleaned = _load_cleaned(args.log, args.max_records)
    if len(cleaned) == 0:
        print("error: log is empty after cleaning", file=sys.stderr)
        return 1
    config = PQSDAConfig(
        weighted=not args.raw,
        compact=CompactConfig(size=args.compact_size),
        diversify=DiversifyConfig(k=args.k),
        upm=upm,
        personalize=not args.no_personalize,
    )
    registry = _make_registry(args.metrics_out)
    suggester = PQSDA.build(cleaned, config=config, registry=registry)
    if args.verbose and suggester.profiles is not None:
        stats = suggester.profiles.model.fit_stats
        lls = stats.sweep_log_likelihood
        print(
            f"UPM fit: engine={stats.engine} workers={stats.n_workers} "
            f"{stats.n_sweeps} sweeps in {stats.total_seconds:.2f}s "
            f"({stats.mean_sweep_seconds * 1000:.1f} ms/sweep sampling)",
            file=sys.stderr,
        )
        print(
            f"UPM fit: pseudo-log-likelihood {lls[0]:.1f} -> {lls[-1]:.1f}",
            file=sys.stderr,
        )
    requests = [
        SuggestRequest(query=query, k=args.k, user_id=args.user)
        for query in args.query
    ]
    batch = suggester.suggest_batch(requests, n_workers=args.workers)
    for query, suggestions in zip(args.query, batch):
        if len(args.query) > 1:
            print(f"[{query}]")
        if not suggestions:
            print("(no suggestions — query unknown and no term overlap)")
            continue
        for rank, suggestion in enumerate(suggestions, start=1):
            print(f"{rank:2d}. {suggestion}")
    if args.cache_stats:
        stats = suggester.cache_stats
        print(
            f"cache: {stats.hits} hits, {stats.misses} misses, "
            f"{stats.evictions} evictions, {stats.size}/{stats.maxsize} "
            "entries"
        )
    _write_metrics(registry, args.metrics_out)
    return 0


def _render_metrics_table(snapshot: dict) -> None:
    for entry in snapshot.get("metrics", ()):
        labels = entry.get("labels", {})
        rendered = ""
        if labels:
            body = ",".join(f"{k}={labels[k]}" for k in sorted(labels))
            rendered = "{" + body + "}"
        name = f"{entry['name']}{rendered}"
        kind = entry["type"]
        if kind in ("counter", "gauge"):
            print(f"{name:48s} {kind:9s} {entry['value']}")
        elif kind == "histogram":
            count = entry["count"]
            total = entry["sum"]
            mean = total / count if count else 0.0
            print(
                f"{name:48s} {kind:9s} count={count} sum={total:.6f} "
                f"mean={mean:.6f}"
            )
        else:  # series
            values = entry.get("values", [])
            last = f" last={values[-1]:.4f}" if values else ""
            print(f"{name:48s} {kind:9s} samples={len(values)}{last}")


def _cmd_stats(args: argparse.Namespace) -> int:
    if args.metrics is not None:
        import json

        from repro.obs.export import to_json, to_prometheus

        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
        if args.format == "json":
            print(to_json(snapshot), end="")
        elif args.format == "prometheus":
            print(to_prometheus(snapshot), end="")
        else:
            _render_metrics_table(snapshot)
        return 0
    if args.log is None:
        print("error: a log path (or --metrics) is required", file=sys.stderr)
        return 1
    log = read_aol(args.log, max_records=args.max_records)
    cleaned, report = clean_log(log)
    sessions = sessionize(cleaned)
    clicks = sum(1 for r in cleaned if r.has_click)
    print(f"records          {len(log)}")
    print(f"after cleaning   {report.output_records}")
    print(f"users            {len(cleaned.users)}")
    print(f"unique queries   {len(cleaned.unique_queries)}")
    print(f"vocabulary       {len(cleaned.vocabulary)}")
    print(f"clicked rows     {clicks}")
    print(f"distinct urls    {len(cleaned.urls)}")
    print(f"sessions         {len(sessions)}")
    if len(cleaned) > 0:
        low, high = cleaned.time_range
        print(f"time span days   {(high - low) / 86400:.1f}")
    return 0


def _cmd_perplexity(args: argparse.Namespace) -> int:
    cleaned = _load_cleaned(args.log, args.max_records)
    if len(cleaned) == 0:
        print("error: log is empty after cleaning", file=sys.stderr)
        return 1
    corpus = build_corpus(cleaned, sessionize(cleaned))
    print(f"{'model':6s} perplexity")
    for name in args.models:
        model = build_model(
            name,
            n_topics=args.topics,
            iterations=args.iterations,
            seed=args.seed,
            upm_engine=args.upm_engine,
        )
        value = evaluate_perplexity(model, corpus, args.observed)
        print(f"{name:6s} {value:10.1f}")
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    from collections import Counter

    from repro.logs.storage import QueryLog
    from repro.stream import IngestConfig, replay, streaming_pqsda
    from repro.utils.text import normalize_query

    cleaned = _load_cleaned(args.log, args.max_records)
    if len(cleaned) == 0:
        print("error: log is empty after cleaning", file=sys.stderr)
        return 1
    if not 0.0 < args.bootstrap < 1.0:
        print("error: --bootstrap must be in (0, 1)", file=sys.stderr)
        return 1
    records = sorted(
        cleaned.records, key=lambda r: (r.timestamp, r.record_id)
    )
    split = max(1, int(len(records) * args.bootstrap))
    bootstrap, tail = QueryLog(records[:split]), records[split:]
    if not tail:
        print("error: nothing left to stream after the bootstrap split",
              file=sys.stderr)
        return 1

    config = PQSDAConfig(
        compact=CompactConfig(size=args.compact_size),
        diversify=DiversifyConfig(k=args.k),
        personalize=False,
    )
    registry = _make_registry(args.metrics_out)
    suggester, ingestor, manager = streaming_pqsda(
        bootstrap,
        config=config,
        # The log is already cleaned once, wholesale; don't re-gate online.
        ingest=IngestConfig(
            batch_size=args.batch_size,
            epoch_every=args.epoch_every,
            clean=False,
        ),
        registry=registry,
    )
    probe = args.probe
    if probe is None:
        frequency = Counter(normalize_query(r.query) for r in bootstrap)
        probe = frequency.most_common(1)[0][0]
    print(f"bootstrap: {split} records, epoch 0 published")
    before = suggester.suggest(probe, k=args.k)
    report = ingestor.ingest(replay(tail, speedup=args.replay))
    after = suggester.suggest(probe, k=args.k)

    print(
        f"streamed {report.records_ingested} records in "
        f"{report.elapsed_seconds:.2f}s "
        f"({report.records_per_second:,.0f} records/s), "
        f"{report.batches} micro-batches, "
        f"{report.epochs_published} epochs"
    )
    print(
        f"timing: fold {report.fold_seconds:.2f}s "
        f"({report.fold_records_per_second:,.0f} records/s fold-only), "
        f"publish {report.publish_seconds:.2f}s"
    )
    epochs = manager.stats
    print(
        f"epochs: current={epochs.current_epoch} "
        f"published={epochs.published} retired={epochs.retired} "
        f"live={epochs.live}"
    )
    cache = suggester.cache_stats
    print(
        f"cache: {cache.hits} hits, {cache.misses} misses, "
        f"{cache.invalidations} invalidated by epoch swaps"
    )
    print(f"[{probe}] before the stream:")
    for rank, suggestion in enumerate(before, start=1):
        print(f"{rank:2d}. {suggestion}")
    print(f"[{probe}] after the stream:")
    for rank, suggestion in enumerate(after, start=1):
        print(f"{rank:2d}. {suggestion}")
    _write_metrics(registry, args.metrics_out)
    return 0


def _parse_listen(spec: str) -> tuple[str, int]:
    """``HOST:PORT`` → ``(host, port)`` (raises ``ValueError`` otherwise)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not host:
        raise ValueError(f"--listen expects HOST:PORT, got {spec!r}")
    try:
        port = int(port_text)
    except ValueError:
        raise ValueError(f"--listen port must be an integer, got {spec!r}")
    if not 0 <= port <= 65535:
        raise ValueError(f"--listen port out of range: {port}")
    return host, port


def _cmd_serve(args: argparse.Namespace) -> int:
    import time
    from collections import Counter

    from repro.serve.pool import SuggestWorkerPool
    from repro.utils.text import normalize_query

    listen = None
    if args.listen is not None:
        try:
            listen = _parse_listen(args.listen)
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    cleaned = _load_cleaned(args.log, args.max_records)
    if len(cleaned) == 0:
        print("error: log is empty after cleaning", file=sys.stderr)
        return 1
    config = PQSDAConfig(
        compact=CompactConfig(size=args.compact_size),
        diversify=DiversifyConfig(k=args.k),
        personalize=args.personalize,
    )
    if args.personalize:
        config = replace(
            config,
            upm=UPMConfig(
                n_topics=args.topics,
                iterations=args.upm_iterations,
                hyperopt_every=0,
                seed=0,
            ),
        )
    suggester = PQSDA.build(cleaned, config=config)
    queries = args.query
    if not queries:
        frequency = Counter(normalize_query(r.query) for r in cleaned)
        queries = [query for query, _ in frequency.most_common(20)]
    profiled_users: list[str] = []
    if args.personalize and suggester.profiles is not None:
        profiled_users = suggester.profiles.user_ids
    if profiled_users:
        requests = [
            SuggestRequest(
                query=query,
                k=args.k,
                user_id=profiled_users[i % len(profiled_users)],
            )
            for i, query in enumerate(queries)
        ]
    else:
        requests = [SuggestRequest(query=query, k=args.k) for query in queries]

    hot_queries = None
    if args.hot_top > 0:
        from repro.core.suggester import head_queries

        hot_queries = head_queries(cleaned, args.hot_top)
    registry = _make_registry(args.metrics_out)
    if listen is not None and registry is None:
        # HTTP mode always carries a registry: /metrics serves it and the
        # shutdown summary reads it, even without --metrics-out.
        from repro.obs.registry import MetricsRegistry

        registry = MetricsRegistry()
    # Explicit try/finally (not ``with``): the pool, the metrics snapshot,
    # and the shutdown summary must all unwind on *every* exit — clean,
    # SIGINT, or a crashed worker — not just the happy path.
    pool = SuggestWorkerPool.from_suggester(
        suggester,
        n_workers=args.workers,
        registry=registry,
        hot_queries=hot_queries,
        hot_top=args.hot_top,
    )
    try:
        print(
            f"pool: {pool.n_workers} workers over a "
            f"{pool.segment_bytes / 1e6:.1f} MB shared segment "
            f"({pool.segment_name})"
        )
        if pool.hot_entries:
            print(f"hot tier: {pool.hot_entries} precomputed head queries")
        if pool.serves_profiles:
            print(
                f"profile plane: {pool.profile_users} users, "
                f"generation {pool.profile_generation}, "
                f"{pool.profile_segment_bytes / 1e6:.1f} MB shared segment "
                f"({pool.profile_segment_name})"
            )
        if listen is not None:
            return _serve_http(pool, registry, listen, args)
        start = time.perf_counter()
        for _ in range(args.rounds):
            batch = pool.suggest_many(requests)
        elapsed = time.perf_counter() - start
        served = len(requests) * args.rounds
        print(
            f"served {served} requests in {elapsed:.2f}s "
            f"({served / elapsed:,.0f} QPS)"
        )
        pool_stats = pool.stats()
        if pool_stats.hot_entries:
            print(
                f"hot tier: {pool_stats.hot_hits}/{served} hits "
                f"({pool_stats.hot_hits / served:.0%}) answered O(1) "
                f"from the shared table"
            )
        for worker in pool_stats.workers:
            line = (
                f"worker {worker.worker_id}: {worker.requests} requests, "
                f"{worker.qps:.0f} QPS, rss {worker.rss_kb / 1024:.0f} MB, "
                f"cache {worker.cache.hits}/{worker.cache.hits + worker.cache.misses} hits, "
                f"shared views: {worker.shares_memory}"
            )
            if pool.serves_profiles:
                line += (
                    f", profile views: {worker.profile_shares_memory} "
                    f"(gen {worker.profile_generation})"
                )
            print(line)
        if not args.quiet:
            for query, suggestions in zip(queries, batch):
                print(f"[{query}]")
                if not suggestions:
                    print("(no suggestions)")
                for rank, suggestion in enumerate(suggestions, start=1):
                    print(f"{rank:2d}. {suggestion}")
    finally:
        try:
            if registry is not None and args.metrics_out is not None:
                from repro.obs.export import write_json

                write_json(pool.merged_metrics(), args.metrics_out)
                print(f"wrote metrics snapshot to {args.metrics_out}",
                      file=sys.stderr)
        finally:
            pool.close()
    return 0


def _serve_http(pool, registry, listen, args: argparse.Namespace) -> int:
    """The ``repro serve --listen`` main loop (runs until SIGINT/SIGTERM)."""
    from repro.serve.frontend import FrontendConfig, serve_until_interrupt

    try:
        frontend_config = FrontendConfig(
            max_batch=args.max_batch,
            default_deadline_ms=args.deadline_ms,
            shed_rerank_depth=args.shed_rerank_depth,
            shed_personalize_depth=args.shed_personalize_depth,
            reject_depth=args.reject_depth,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    def ready(host: str, port: int) -> None:
        print(f"listening on http://{host}:{port} (Ctrl-C to stop)")
        print("endpoints: GET/POST /suggest, /healthz, /metrics, "
              "/metrics.json")

    host, port = listen
    serve_until_interrupt(
        pool, host, port,
        config=frontend_config,
        registry=registry,
        ready=ready,
    )
    served = int(registry.counter("serve.http.requests").value)
    shed = {
        tier: int(registry.counter(f"serve.http.shed.{tier}").value)
        for tier in ("rerank", "personalize", "reject")
    }
    expired = int(registry.counter("serve.http.deadline_expired").value)
    print(
        f"shut down cleanly: {served} requests "
        f"(shed: {shed['rerank']} rerank, {shed['personalize']} "
        f"personalize, {shed['reject']} rejected; "
        f"{expired} deadline-expired)"
    )
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.eval.report import ReportConfig, run_report

    if args.quick:
        config = ReportConfig(
            n_users=15,
            mean_sessions_per_user=8,
            n_test_queries=15,
            n_topics=4,
            gibbs_iterations=8,
            topic_models=("LDA", "UPM"),
            seed=args.seed,
        )
    else:
        config = ReportConfig(seed=args.seed)
    markdown = run_report(config).to_markdown()
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(markdown)
        print(f"wrote report to {args.output}")
    else:
        print(markdown)
    return 0


_COMMANDS = {
    "generate": _cmd_generate,
    "suggest": _cmd_suggest,
    "stats": _cmd_stats,
    "perplexity": _cmd_perplexity,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "report": _cmd_report,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    return _COMMANDS[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
