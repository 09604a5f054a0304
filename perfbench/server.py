"""Benchmark server: the PQS-DA serving stack, wired through public calls.

``run.py`` starts this as its own process::

    python3 perfbench/server.py --workload W --log LOG --prefix P [--trace]

with ``PYTHONPATH`` pointing at the checkout's ``src``.  It builds what
``repro serve --listen`` builds with its defaults — ``read_aol`` +
``clean_log``, ``PQSDA.build`` (or ``streaming_pqsda`` for the live
workload), a two-worker ``SuggestWorkerPool`` over the unsharded plane
with the hot tier on, the serial fold and the default ``FrontendConfig``
behind ``run_in_thread`` — and then talks to the runner in JSON lines:
events go to stdout, commands come from stdin.

Commands: ``mark`` (report pool and worker counters), ``stream`` (live
workload: ingest the rest of the log, report ``stream_done``),
``reference`` (answer requests with the single-process reference),
``spans`` (hand over recorded spans) and ``stop``.  End of input stops
the server too.

The server times its own calls into the stack and wraps the pool it
hands to the front-end; with ``--trace`` it also records spans around
those calls.  Nothing under ``src/`` is changed or patched.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import threading
import time
import traceback

import workloads
from spans import SpanRecorder


class Events:
    """The event channel to the runner: JSON lines on the original stdout.

    The channel keeps a private, non-inheritable copy of file descriptor
    1 and points descriptor 1 at stderr, so stray library output cannot
    corrupt it and the pool's spawned workers and resource tracker never
    hold the runner's pipe open after this process has gone.
    """

    def __init__(self) -> None:
        sys.stdout.flush()
        self._out = os.fdopen(os.dup(1), "w")
        os.dup2(2, 1)
        self._lock = threading.Lock()

    def emit(self, event: str, **fields) -> None:
        line = json.dumps({"event": event, **fields})
        with self._lock:
            self._out.write(line + "\n")
            self._out.flush()


class TimedPool:
    """The pool as the front-end sees it, with each call into it timed.

    Exposes exactly what the front-end uses (``n_workers``,
    ``queue_depth``, ``suggest_many``) plus the epoch subscription, so a
    publish of the live workload is timed and acknowledged here.
    """

    def __init__(self, pool, recorder: SpanRecorder, on_published=None) -> None:
        self._pool = pool
        self._recorder = recorder
        self._on_published = on_published
        self.n_workers = pool.n_workers

    @property
    def queue_depth(self) -> int:
        return self._pool.queue_depth

    def suggest_many(self, requests, return_errors: bool = False):
        if not self._recorder.enabled:
            return self._pool.suggest_many(requests, return_errors=return_errors)
        start = time.monotonic()
        try:
            return self._pool.suggest_many(requests, return_errors=return_errors)
        finally:
            self._recorder.record(
                "serve.pool.call",
                start,
                time.monotonic(),
                requests=[[r.query, r.user_id] for r in requests],
            )

    def publish_epoch(self, epoch) -> None:
        pool = self._pool
        with self._recorder.span("serve.pool.publish", epoch=epoch.epoch_id):
            pool.publish_epoch(epoch)
        if self._on_published is not None:
            packed = pool.segment_bytes
            if epoch.profiles is not None:
                packed += pool.profile_segment_bytes
            self._on_published(epoch, packed)

    def attach_epochs(self, manager) -> None:
        manager.subscribe(self.publish_epoch)


class TimedState:
    """A ``StreamState`` whose fold and derive calls are spans."""

    def __init__(self, state, recorder: SpanRecorder) -> None:
        self._state = state
        self._recorder = recorder

    def apply(self, records):
        with self._recorder.span("stream.fold", records=len(records)):
            return self._state.apply(records)

    def build_snapshot(self):
        with self._recorder.span("stream.derive"):
            return self._state.build_snapshot()

    def __getattr__(self, name):
        return getattr(self._state, name)


class TimedManager:
    """An ``EpochManager`` whose publish (with all subscribers) is a span."""

    def __init__(self, manager, recorder: SpanRecorder) -> None:
        self._manager = manager
        self._recorder = recorder

    def publish(self, epoch) -> None:
        with self._recorder.span("stream.publish", epoch=epoch.epoch_id):
            self._manager.publish(epoch)

    def __getattr__(self, name):
        return getattr(self._manager, name)


def _histogram(snapshot: dict, name: str) -> list:
    for entry in snapshot["metrics"]:
        if entry["name"] == name and not entry.get("labels"):
            return [entry["sum"], entry["count"]]
    return [0.0, 0]


def counters(pool, registry) -> dict:
    """Pool, worker and front-end counters the runner diffs across a phase."""
    stats = pool.stats()
    snapshot = registry.snapshot()
    spans: dict = {}
    for entry in pool.merged_metrics()["metrics"]:
        labels = entry.get("labels", {})
        if entry["name"] == "trace.span.seconds" and "worker" in labels:
            total = spans.setdefault(labels["span"], [0.0, 0])
            total[0] += entry["sum"]
            total[1] += entry["count"]
    return {
        "t": time.monotonic(),
        "workers": [
            {
                "requests": w.requests,
                "busy": w.busy_seconds,
                "hits": w.cache.hits,
                "misses": w.cache.misses,
                "invalidations": w.cache.invalidations,
            }
            for w in stats.workers
        ],
        "hot_hits": stats.hot_hits,
        "pool_requests": registry.counter("serve.pool.requests").value,
        "spans": spans,
        "http_batch": _histogram(snapshot, "serve.http.batch_size"),
        "swap": _histogram(snapshot, "serve.pool.swap_seconds"),
    }


class Server:
    """Set-up, the command loop and teardown of one benchmark server."""

    def __init__(self, args, events: Events) -> None:
        self.args = args
        self.emit = events.emit
        self.workload = args.workload
        self.recorder = SpanRecorder(enabled=args.trace, origin="s")
        self.pool = None
        self.handle = None
        self.ingest = None
        self.publishes: list = []

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> dict:
        from repro.core.suggester import PQSDA, head_queries
        from repro.logs.storage import QueryLog
        from repro.obs.registry import MetricsRegistry
        from repro.serve.frontend import FrontendConfig, run_in_thread
        from repro.serve.pool import SuggestWorkerPool

        recorder = self.recorder
        self.registry = registry = MetricsRegistry()
        times: dict = {}
        start = time.monotonic()
        with recorder.span("logs.load"):
            self.cleaned = cleaned = workloads.load_cleaned(self.args.log)
        times["load_s"] = time.monotonic() - start
        start = time.monotonic()
        self.config = config = workloads.pqsda_config(
            personalize=self.workload == "live_ingest"
        )
        with recorder.span("graphs.build"):
            if self.workload == "live_ingest":
                bootstrap, self.streamed = workloads.bootstrap_split(cleaned)
                graph_log = QueryLog(bootstrap)
                self.suggester = self._streaming(graph_log)
            else:
                self.suggester = PQSDA.build(
                    cleaned, config=config, registry=registry
                )
                graph_log = cleaned
        times["build_s"] = time.monotonic() - start
        times["upm_fit_s"] = _histogram(registry.snapshot(), "upm.fit.seconds")[0]
        start = time.monotonic()
        with recorder.span("serve.pool.start"):
            pool = SuggestWorkerPool.from_suggester(
                self.suggester,
                n_workers=2,
                registry=registry,
                hot_queries=head_queries(graph_log, workloads.HOT_TOP),
                hot_top=workloads.HOT_TOP,
                prefix=self.args.prefix,
            )
        self.pool = pool
        times["pool_start_s"] = time.monotonic() - start
        ready_info = pool.ready_info
        times["attach_s"] = max(i["attach_seconds"] for i in ready_info.values())
        self.timed_pool = TimedPool(pool, recorder, self._published)
        if self.workload == "live_ingest":
            self.timed_pool.attach_epochs(self.manager)
        with recorder.span("serve.frontend.start"):
            self.handle = run_in_thread(
                self.timed_pool,
                "127.0.0.1",
                0,
                config=FrontendConfig(),
                registry=registry,
            )
        return {
            "port": self.handle.address[1],
            "pids": [info["pid"] for info in ready_info.values()],
            "graph_records": len(graph_log),
            "times": times,
        }

    def _streaming(self, bootstrap_log):
        from repro.stream import IngestConfig, LogIngestor, streaming_pqsda

        suggester, ingestor, manager = streaming_pqsda(
            bootstrap_log,
            config=self.config,
            ingest=IngestConfig(
                batch_size=workloads.INGEST_BATCH,
                epoch_every=workloads.EPOCH_EVERY,
                clean=False,
            ),
            registry=self.registry,
            stream_profiles=True,
        )
        # The same writer loop over the same state, manager and profile
        # generation, with the fold/derive/publish calls timed.
        self.manager = manager
        self.ingest = LogIngestor(
            TimedState(ingestor.state, self.recorder),
            TimedManager(manager, self.recorder),
            ingestor.config,
            registry=self.registry,
            profiles=ingestor.profiles,
        )
        return suggester

    # -- live stream ----------------------------------------------------------

    def _published(self, epoch, packed_bytes: int) -> None:
        self.tracker.acked(time.monotonic())
        self.publishes.append(
            {
                "touched": len(epoch.touched_queries),
                "full": epoch.shard_updates is None,
                "packed_bytes": packed_bytes,
            }
        )

    def _source(self):
        tracker = self.tracker
        for record in self.streamed:
            tracker.handed(time.monotonic())
            yield record
        tracker.end_of_stream()

    def _run_stream(self) -> None:
        from benchstats import FreshnessTracker

        self.tracker = FreshnessTracker(workloads.INGEST_BATCH)
        try:
            start = time.monotonic()
            report = self.ingest.ingest(self._source())
            seconds = time.monotonic() - start
        except Exception:
            self.emit("error", error=traceback.format_exc())
            return
        self.emit(
            "stream_done",
            records=len(self.streamed),
            seconds=seconds,
            freshness=self.tracker.samples,
            unacked=self.tracker.pending,
            batches=report.batches,
            epochs=report.epochs_published,
            publishes=self.publishes,
        )

    # -- reference ------------------------------------------------------------

    def reference(self, requests) -> list:
        """Answers of ``PQSDA.suggest`` in this process (no pool, no HTTP).

        Serving workloads answer with the suggester the pool was built
        from.  After a live stream the reference is a fresh
        ``PQSDA.build`` over the whole log, which the streamed epochs must
        match exactly.
        """
        suggester = self.suggester
        if self.workload == "live_ingest":
            from dataclasses import replace

            from repro.core.suggester import PQSDA
            from repro.logs.storage import QueryLog

            bootstrap, streamed = workloads.bootstrap_split(self.cleaned)
            suggester = PQSDA.build(
                QueryLog(bootstrap + streamed),
                config=replace(self.config, personalize=False),
            )
        return [
            suggester.suggest(query, k=workloads.K, user_id=user)
            for query, user in requests
        ]

    # -- command loop ---------------------------------------------------------

    def serve(self) -> None:
        stream_thread = None
        for line in sys.stdin:
            command = json.loads(line)
            kind = command["cmd"]
            if kind == "mark":
                self.emit("marked", counters=counters(self.pool, self.registry))
            elif kind == "stream":
                stream_thread = threading.Thread(
                    target=self._run_stream, name="bench-stream"
                )
                stream_thread.start()
            elif kind == "reference":
                if stream_thread is not None:
                    stream_thread.join()
                self.emit("reference", answers=self.reference(command["requests"]))
            elif kind == "spans":
                self.emit("spans", spans=self.recorder.spans)
            elif kind == "stop":
                break
        if stream_thread is not None:
            stream_thread.join()

    def close(self) -> None:
        try:
            if self.handle is not None:
                self.handle.stop()
        finally:
            if self.pool is not None:
                self.pool.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--log", required=True)
    parser.add_argument("--prefix", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    events = Events()
    server = Server(args, events)
    try:
        ready = server.setup()
        events.emit("ready", **ready)
        server.serve()
    except Exception:
        events.emit("error", error=traceback.format_exc())
        return 1
    finally:
        server.close()
    events.emit("stopped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
