"""Async HTTP front-end: dispatch on arrival, deadlines, tiered load shedding.

The socket layer of the serving stack (ROADMAP item 1): an
``asyncio``-streams HTTP/1.1 server — hand-rolled on the stdlib, no new
dependency — over a :class:`~repro.serve.pool.SuggestWorkerPool`.  The
pool is process-parallel but synchronous; this module turns it into an
online service that answers real sockets under real overload:

Dispatch on arrival
    Requests land in an asyncio queue; a batcher task waits only for the
    first ticket, then dispatches it together with every ticket already
    queued behind it (up to ``max_batch``) to
    :meth:`~repro.serve.pool.SuggestWorkerPool.suggest_many` on an
    executor thread **without awaiting it**, so consecutive batches
    overlap — the pool's reply dispatcher correlates them by batch id.
    Batches form from backlog, never from a timer: an idle server adds
    no wait, and a loaded one still amortizes the per-request IPC tax
    over every ticket that queued up meanwhile.

Admission control and shed tiers
    Every request is admitted at a *shed tier* chosen from the live
    per-worker queue depth (the number behind the ``serve.pool.queue_depth``
    gauge, plus the front-end's own not-yet-dispatched queue):

    ========  =========================  ===============================
    tier      entered when depth/worker  degradation
    ========  =========================  ===============================
    0         < ``shed_rerank_depth``    full pipeline
    1         ≥ ``shed_rerank_depth``    skip hitting-time rerank
    2         ≥ ``shed_personalize_depth``  + skip personalization
    3         ≥ ``reject_depth``         reject with 503, never enqueued
    ========  =========================  ===============================

    Tiers 1 and 2 ride into the workers as ``SuggestRequest.shed`` (see
    :class:`~repro.core.serving.ShedOptions`); tier 3 is answered here.
    Each tier entry is counted in ``serve.http.shed.{rerank,personalize,
    reject}``.  Hot-table hits are unaffected — they are O(1) whatever
    the tier.

Deadlines
    Each request carries a deadline (``deadline_ms`` query parameter,
    default ``default_deadline_ms``).  A request that cannot be answered
    in time — still queued or still being served — returns 504 and is
    counted in ``serve.http.deadline_expired``; a request already
    expired when its batch dispatches is skipped, never burning worker
    time on an answer nobody is waiting for.

Failure isolation
    The pool is called with ``return_errors=True``: a request whose
    worker-side ``suggest`` raised maps to *its own* 500 (traceback in
    the JSON body) while every sibling in the batch is answered
    normally.

Endpoints
    * ``GET /suggest?q=Q[&k=K][&user=U][&timestamp=T][&deadline_ms=D]``
    * ``POST /suggest`` — JSON ``{"q": ...}`` or ``{"requests": [...]}``
    * ``GET /healthz`` — liveness (never shed, never batched)
    * ``GET /metrics`` — Prometheus text of the attached registry
    * ``GET /metrics.json`` — the same snapshot as JSON

Run it inline with :meth:`SuggestFrontend.start` on a running loop,
blocking with :func:`serve_until_interrupt` (the ``repro serve --listen``
path; SIGINT/SIGTERM-clean), or on a dedicated loop thread with
:func:`run_in_thread` (tests and benchmarks).
"""

from __future__ import annotations

import asyncio
import json
import signal
import threading
import time
from dataclasses import dataclass, field
from urllib.parse import parse_qs, unquote, urlsplit

from repro.baselines.base import SuggestRequest
from repro.obs.export import to_json, to_prometheus
from repro.obs.registry import MetricsRegistry
from repro.serve.pool import SuggestError, SuggestWorkerPool

__all__ = [
    "FrontendConfig",
    "FrontendHandle",
    "SuggestFrontend",
    "run_in_thread",
    "serve_until_interrupt",
    "tier_for_depth",
]

#: Batch-size histogram bounds (requests per dispatched batch).
_BATCH_SIZE_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)

#: Hard cap on an HTTP request body (bytes) — requests are tiny JSON.
_MAX_BODY_BYTES = 1 << 20
#: Header lines accepted per request (the stdlib ``http.client`` limit).
_MAX_HEADER_LINES = 100

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    413: "Payload Too Large",
    414: "URI Too Long",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
    504: "Gateway Timeout",
}


@dataclass(frozen=True, slots=True)
class FrontendConfig:
    """Tuning of the HTTP front-end.

    Attributes:
        max_batch: Most requests one dispatch takes off the queue.
        default_deadline_ms: Per-request deadline when the request does
            not carry ``deadline_ms`` itself.
        shed_rerank_depth: Per-worker queue depth at which tier 1 starts
            (skip the hitting-time rerank).
        shed_personalize_depth: Per-worker depth at which tier 2 starts
            (additionally skip personalization).
        reject_depth: Per-worker depth at which tier 3 starts (reject
            with 503 before enqueueing).
        max_dispatchers: Executor threads calling into the pool — the
            bound on concurrently in-flight pool batches.
    """

    max_batch: int = 64
    default_deadline_ms: float = 1000.0
    shed_rerank_depth: float = 4.0
    shed_personalize_depth: float = 8.0
    reject_depth: float = 16.0
    max_dispatchers: int = 4

    def __post_init__(self) -> None:
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")
        if self.default_deadline_ms <= 0:
            raise ValueError("default_deadline_ms must be positive")
        if not 0 < self.shed_rerank_depth <= self.shed_personalize_depth <= self.reject_depth:
            raise ValueError(
                "shed depths must satisfy 0 < rerank <= personalize <= "
                f"reject, got {self.shed_rerank_depth}/"
                f"{self.shed_personalize_depth}/{self.reject_depth}"
            )
        if self.max_dispatchers < 1:
            raise ValueError("max_dispatchers must be >= 1")


def tier_for_depth(depth_per_worker: float, config: FrontendConfig) -> int:
    """The shed tier a request arriving at *depth_per_worker* enters.

    Monotone in depth by construction (the config validates the
    threshold ordering), so the server degrades in documented tier order
    as load rises: 0 → 1 → 2 → 3.
    """
    if depth_per_worker >= config.reject_depth:
        return 3
    if depth_per_worker >= config.shed_personalize_depth:
        return 2
    if depth_per_worker >= config.shed_rerank_depth:
        return 1
    return 0


@dataclass(slots=True)
class _HttpRequest:
    """One parsed HTTP/1.1 request."""

    method: str
    path: str
    query: dict[str, list[str]]
    headers: dict[str, str]
    body: bytes
    keep_alive: bool


@dataclass(slots=True)
class _Ticket:
    """One admitted suggest request waiting for its batch's answer."""

    request: SuggestRequest
    deadline: float  # loop-time deadline
    future: asyncio.Future = field(init=False)


async def _read_request(reader: asyncio.StreamReader) -> _HttpRequest | None:
    """Parse one HTTP/1.1 request off *reader* (``None`` on clean EOF).

    Malformed framing raises :class:`_BadRequest`, which the connection
    handler answers with a 4xx JSON reply and ``Connection: close``: a
    line longer than the stream's limit (asyncio's 64 KiB default), more
    than :data:`_MAX_HEADER_LINES` header lines, a ``Content-Length``
    that is not a plain decimal, or a request target ``urlsplit`` rejects.
    """
    try:
        line = await reader.readline()
    except ConnectionError:
        return None
    except ValueError:  # the line overran the stream limit
        raise _BadRequest("request line too long", status=414) from None
    if not line or line in (b"\r\n", b"\n"):
        return None
    try:
        method, target, version = line.decode("latin-1").strip().split(" ", 2)
    except ValueError:
        raise _BadRequest("malformed request line") from None
    headers: dict[str, str] = {}
    n_lines = 0
    while True:
        try:
            raw = await reader.readline()
        except ValueError:
            raise _BadRequest("header line too long", status=431) from None
        if not raw:
            return None
        if raw in (b"\r\n", b"\n"):
            break
        n_lines += 1
        if n_lines > _MAX_HEADER_LINES:
            raise _BadRequest("too many header lines", status=431)
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    declared = headers.get("content-length") or "0"
    if not (declared.isascii() and declared.isdigit()):
        raise _BadRequest(f"bad Content-Length {declared!r}")
    length = int(declared)
    if length > _MAX_BODY_BYTES:
        raise _BadRequest("request body too large", status=413)
    body = await reader.readexactly(length) if length else b""
    try:
        parts = urlsplit(target)
    except ValueError:
        raise _BadRequest("malformed request target") from None
    keep_alive = headers.get("connection", "").lower() != "close" and (
        version.upper() != "HTTP/1.0"
        or headers.get("connection", "").lower() == "keep-alive"
    )
    return _HttpRequest(
        method=method.upper(),
        path=unquote(parts.path),
        query=parse_qs(parts.query),
        headers=headers,
        body=body,
        keep_alive=keep_alive,
    )


class _BadRequest(Exception):
    """A request the parser or router rejects with a 4xx."""

    def __init__(self, message: str, status: int = 400) -> None:
        super().__init__(message)
        self.status = status


def _render(status: int, payload: bytes, content_type: str,
            keep_alive: bool) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: {content_type}\r\n"
        f"Content-Length: {len(payload)}\r\n"
        f"Connection: {connection}\r\n"
        "\r\n"
    )
    return head.encode("latin-1") + payload


class SuggestFrontend:
    """Asyncio HTTP/1.1 front-end over a :class:`SuggestWorkerPool`.

    Args:
        pool: The worker pool (its :attr:`~SuggestWorkerPool.queue_depth`
            drives admission control; ``suggest_many(..., return_errors=
            True)`` is the dispatch path).  Anything pool-shaped with
            those three members works — tests inject fakes.
        config: Batching/deadline/shed thresholds.
        registry: Metrics registry for the ``serve.http.*`` instruments
            (and ``/metrics``).  Pass the pool's registry to export both
            planes from one endpoint; ``None`` creates a private one.
    """

    def __init__(
        self,
        pool: SuggestWorkerPool,
        config: FrontendConfig | None = None,
        registry: MetricsRegistry | None = None,
    ) -> None:
        self._pool = pool
        self._config = config if config is not None else FrontendConfig()
        self._registry = registry if registry is not None else MetricsRegistry()
        self._server: asyncio.base_events.Server | None = None
        self._loop: asyncio.AbstractEventLoop | None = None
        self._queue: asyncio.Queue[_Ticket] | None = None
        self._batcher: asyncio.Task | None = None
        self._dispatches: set[asyncio.Task] = set()
        self._executor = None  # created on start, torn down on stop
        self._closed = False

        registry = self._registry
        self._m_requests = registry.counter("serve.http.requests")
        self._m_batches = registry.counter("serve.http.batches")
        self._m_batch_size = registry.histogram(
            "serve.http.batch_size", buckets=_BATCH_SIZE_BUCKETS
        )
        self._m_latency = registry.histogram("serve.http.latency_seconds")
        self._m_inflight = registry.gauge("serve.http.inflight")
        self._m_deadline = registry.counter("serve.http.deadline_expired")
        self._m_shed = {
            1: registry.counter("serve.http.shed.rerank"),
            2: registry.counter("serve.http.shed.personalize"),
            3: registry.counter("serve.http.shed.reject"),
        }
        self._m_responses: dict[int, object] = {}

    # -- lifecycle ---------------------------------------------------------------

    async def start(self, host: str = "127.0.0.1", port: int = 0) -> None:
        """Bind and start serving on the running loop (port 0 = ephemeral)."""
        if self._server is not None:
            raise RuntimeError("frontend already started")
        from concurrent.futures import ThreadPoolExecutor

        self._loop = asyncio.get_running_loop()
        self._queue = asyncio.Queue()
        self._executor = ThreadPoolExecutor(
            max_workers=self._config.max_dispatchers,
            thread_name_prefix="http-dispatch",
        )
        self._batcher = self._loop.create_task(self._batch_loop())
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` (resolves an ephemeral port)."""
        if self._server is None:
            raise RuntimeError("frontend not started")
        return self._server.sockets[0].getsockname()[:2]

    async def stop(self) -> None:
        """Stop accepting, fail queued work, and release the executor."""
        if self._closed:
            return
        self._closed = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self._batcher is not None:
            self._batcher.cancel()
            try:
                await self._batcher
            except asyncio.CancelledError:
                pass
        # Nothing new can arrive; fail whatever never got dispatched.
        if self._queue is not None:
            while not self._queue.empty():
                ticket = self._queue.get_nowait()
                if not ticket.future.done():
                    ticket.future.set_exception(
                        ConnectionError("frontend shutting down")
                    )
        if self._dispatches:
            await asyncio.gather(*self._dispatches, return_exceptions=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)

    # -- connection handling -----------------------------------------------------

    async def _handle_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await _read_request(reader)
                except _BadRequest as exc:
                    writer.write(self._json_response(
                        exc.status, {"error": str(exc)}, keep_alive=False
                    ))
                    await writer.drain()
                    break
                except asyncio.IncompleteReadError:
                    break
                if request is None:
                    break
                started = self._loop.time()
                status, payload, content_type = await self._route(request)
                self._m_latency.observe(self._loop.time() - started)
                self._count_response(status)
                writer.write(_render(
                    status, payload, content_type, request.keep_alive
                ))
                await writer.drain()
                if not request.keep_alive:
                    break
        except (ConnectionError, asyncio.CancelledError):
            pass
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):  # pragma: no cover
                pass

    def _count_response(self, status: int) -> None:
        counter = self._m_responses.get(status)
        if counter is None:
            counter = self._registry.counter(
                "serve.http.responses", labels={"code": str(status)}
            )
            self._m_responses[status] = counter
        counter.inc()

    def _json_response(
        self, status: int, body: dict, keep_alive: bool
    ) -> bytes:
        self._count_response(status)
        return _render(
            status,
            json.dumps(body).encode("utf-8"),
            "application/json",
            keep_alive,
        )

    # -- routing -----------------------------------------------------------------

    async def _route(
        self, request: _HttpRequest
    ) -> tuple[int, bytes, str]:
        path = request.path
        if path == "/healthz":
            body = {"status": "ok", "workers": self._pool.n_workers}
            return 200, json.dumps(body).encode(), "application/json"
        if path == "/metrics":
            text = to_prometheus(self._registry.snapshot())
            return 200, text.encode(), "text/plain; version=0.0.4"
        if path == "/metrics.json":
            text = to_json(self._registry.snapshot())
            return 200, text.encode(), "application/json"
        if path == "/suggest":
            if request.method == "GET":
                return await self._suggest_single(request.query)
            if request.method == "POST":
                return await self._suggest_post(request.body)
            return 405, json.dumps({"error": "use GET or POST"}).encode(), \
                "application/json"
        return 404, json.dumps({"error": f"no route {path}"}).encode(), \
            "application/json"

    @staticmethod
    def _parse_params(params: dict) -> tuple[SuggestRequest, float | None]:
        """A ``SuggestRequest`` (tier 0) + deadline override from *params*.

        *params* maps names to either strings (JSON body) or lists of
        strings (query string).
        """

        def one(name: str, default=None):
            value = params.get(name, default)
            if isinstance(value, list):
                value = value[0] if value else default
            return value

        query = one("q") or one("query")
        if not query or not str(query).strip():
            raise _BadRequest("missing query parameter 'q'")
        try:
            k = int(one("k", 10))
            timestamp = float(one("timestamp", 0.0))
            deadline_ms = one("deadline_ms")
            deadline_ms = float(deadline_ms) if deadline_ms is not None else None
        except (TypeError, ValueError) as exc:
            raise _BadRequest(f"bad numeric parameter: {exc}") from None
        if deadline_ms is not None and not deadline_ms > 0:  # NaN too
            raise _BadRequest("deadline_ms must be positive")
        user = one("user") or one("user_id")
        try:
            request = SuggestRequest(
                query=str(query), k=k, user_id=user, timestamp=timestamp
            )
        except ValueError as exc:
            raise _BadRequest(str(exc)) from None
        return request, deadline_ms

    async def _suggest_single(self, params: dict) -> tuple[int, bytes, str]:
        try:
            request, deadline_ms = self._parse_params(params)
        except _BadRequest as exc:
            return exc.status, json.dumps({"error": str(exc)}).encode(), \
                "application/json"
        status, body = await self._admit_and_serve(request, deadline_ms)
        return status, json.dumps(body).encode(), "application/json"

    async def _suggest_post(self, body: bytes) -> tuple[int, bytes, str]:
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (ValueError, RecursionError):  # nesting past the stack
            return 400, json.dumps({"error": "body is not JSON"}).encode(), \
                "application/json"
        if isinstance(payload, dict) and "requests" in payload:
            items = payload["requests"]
            if not isinstance(items, list) or not items:
                return 400, json.dumps(
                    {"error": "'requests' must be a non-empty list"}
                ).encode(), "application/json"
            outcomes = await asyncio.gather(*(
                self._admit_one(item) for item in items
            ))
            results = [
                {"status": status, **body} for status, body in outcomes
            ]
            return 200, json.dumps({"results": results}).encode(), \
                "application/json"
        status, body = await self._admit_one(payload)
        return status, json.dumps(body).encode(), "application/json"

    async def _admit_one(self, params) -> tuple[int, dict]:
        if not isinstance(params, dict):
            return 400, {"error": "each request must be a JSON object"}
        try:
            request, deadline_ms = self._parse_params(params)
        except _BadRequest as exc:
            return exc.status, {"error": str(exc)}
        return await self._admit_and_serve(request, deadline_ms)

    # -- admission + batching ----------------------------------------------------

    def _current_depth(self) -> float:
        """Per-worker load signal: dispatched + still-queued requests."""
        queued = self._queue.qsize() if self._queue is not None else 0
        depth = self._pool.queue_depth + queued
        return depth / max(1, self._pool.n_workers)

    async def _admit_and_serve(
        self, request: SuggestRequest, deadline_ms: float | None
    ) -> tuple[int, dict]:
        """Admission control, batching, deadline — one request end to end."""
        self._m_requests.inc()
        depth = self._current_depth()
        tier = tier_for_depth(depth, self._config)
        if tier:
            self._m_shed[tier].inc()
        if tier >= 3:
            return 503, {
                "error": "overloaded",
                "shed_tier": 3,
                "depth_per_worker": depth,
            }
        if tier:
            request = SuggestRequest(
                query=request.query,
                k=request.k,
                user_id=request.user_id,
                context=request.context,
                timestamp=request.timestamp,
                shed=tier,
            )
        if deadline_ms is None:
            deadline_ms = self._config.default_deadline_ms
        ticket = _Ticket(
            request=request,
            deadline=self._loop.time() + deadline_ms / 1000.0,
        )
        ticket.future = self._loop.create_future()
        self._m_inflight.inc()
        try:
            await self._queue.put(ticket)
            timeout = ticket.deadline - self._loop.time()
            try:
                result = await asyncio.wait_for(ticket.future, timeout)
            except asyncio.TimeoutError:
                self._m_deadline.inc()
                return 504, {
                    "error": "deadline expired",
                    "query": request.query,
                    "deadline_ms": deadline_ms,
                    "shed_tier": tier,
                }
            except ConnectionError as exc:
                return 503, {"error": str(exc), "query": request.query}
        finally:
            self._m_inflight.dec()
        if isinstance(result, SuggestError):
            return 500, {
                "error": result.error,
                "worker": result.worker_id,
                "query": request.query,
            }
        if isinstance(result, Exception):
            return 500, {"error": str(result), "query": request.query}
        return 200, {
            "query": request.query,
            "suggestions": result,
            "shed_tier": tier,
            "k": request.k,
        }

    async def _batch_loop(self) -> None:
        """Wait for a ticket, dispatch it with the backlog behind it, repeat.

        Dispatch is fire-and-forget (a task per batch): the loop goes
        straight back to the queue, so batches overlap in the pool
        exactly as concurrent ``suggest_many`` callers do.
        """
        max_batch = self._config.max_batch
        while True:
            batch = [await self._queue.get()]
            while len(batch) < max_batch and not self._queue.empty():
                batch.append(self._queue.get_nowait())
            self._m_batches.inc()
            self._m_batch_size.observe(len(batch))
            task = self._loop.create_task(self._dispatch(batch))
            self._dispatches.add(task)
            task.add_done_callback(self._dispatches.discard)

    async def _dispatch(self, batch: list[_Ticket]) -> None:
        """Send one batch through the pool on an executor thread."""
        pool = self._pool

        def call() -> tuple[list[_Ticket], object]:
            # The expiry filter runs HERE — when an executor slot is
            # actually free — not when the batch was formed: a request
            # whose deadline passed while earlier batches hogged the
            # dispatchers gets its 504 without ever burning a worker.
            # (asyncio's loop clock is ``time.monotonic``, so ticket
            # deadlines compare directly.)
            cutoff = time.monotonic()
            live = [t for t in batch if t.deadline > cutoff]
            if not live:
                return live, []
            requests = [t.request for t in live]
            try:
                return live, pool.suggest_many(requests, return_errors=True)
            except Exception as exc:
                # Pool-level failure (timeout, dead worker): every ticket
                # of this batch fails; other batches are untouched.
                return live, exc

        live, results = await self._loop.run_in_executor(self._executor, call)
        if isinstance(results, Exception):
            for ticket in live:
                if not ticket.future.done():
                    ticket.future.set_result(results)
            return
        for ticket, result in zip(live, results):
            if not ticket.future.done():
                ticket.future.set_result(result)


class FrontendHandle:
    """A :class:`SuggestFrontend` running on its own event-loop thread."""

    def __init__(
        self,
        frontend: SuggestFrontend,
        loop: asyncio.AbstractEventLoop,
        thread: threading.Thread,
    ) -> None:
        self._frontend = frontend
        self._loop = loop
        self._thread = thread

    @property
    def frontend(self) -> SuggestFrontend:
        return self._frontend

    @property
    def address(self) -> tuple[str, int]:
        return self._frontend.address

    @property
    def url(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def stop(self, timeout: float = 30.0) -> None:
        """Stop the server and join its loop thread (idempotent)."""
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._loop.stop)
            self._thread.join(timeout=timeout)

    def __enter__(self) -> "FrontendHandle":
        return self

    def __exit__(self, *exc_info) -> None:
        self.stop()


def run_in_thread(
    pool,
    host: str = "127.0.0.1",
    port: int = 0,
    config: FrontendConfig | None = None,
    registry: MetricsRegistry | None = None,
    start_timeout: float = 30.0,
) -> FrontendHandle:
    """Start a frontend on a dedicated event-loop thread and return it.

    The blocking-world adapter used by tests, benchmarks and anything
    else that already owns its thread of control.  ``port=0`` binds an
    ephemeral port; read it off ``handle.address``.
    """
    started = threading.Event()
    holder: dict = {}

    def runner() -> None:
        loop = asyncio.new_event_loop()
        asyncio.set_event_loop(loop)
        frontend = SuggestFrontend(pool, config, registry)
        try:
            loop.run_until_complete(frontend.start(host, port))
        except Exception as exc:  # surface bind errors to the caller
            holder["error"] = exc
            started.set()
            loop.close()
            return
        holder["loop"] = loop
        holder["frontend"] = frontend
        started.set()
        try:
            loop.run_forever()
        finally:
            loop.run_until_complete(frontend.stop())
            loop.close()

    thread = threading.Thread(target=runner, daemon=True, name="suggest-http")
    thread.start()
    if not started.wait(timeout=start_timeout):
        raise TimeoutError("frontend failed to start in time")
    if "error" in holder:
        raise holder["error"]
    return FrontendHandle(holder["frontend"], holder["loop"], thread)


def serve_until_interrupt(
    pool,
    host: str,
    port: int,
    config: FrontendConfig | None = None,
    registry: MetricsRegistry | None = None,
    ready=None,
) -> None:
    """Serve on the calling thread until SIGINT/SIGTERM (then stop cleanly).

    The ``repro serve --listen`` main loop: binds, reports the bound
    address through *ready* (a callable receiving ``(host, port)``), and
    shuts the front-end down — failing queued requests, joining dispatch
    tasks, releasing the executor — before returning, whatever ends the
    loop.
    """

    async def _main() -> None:
        frontend = SuggestFrontend(pool, config, registry)
        await frontend.start(host, port)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        registered: list[signal.Signals] = []
        for signum in (signal.SIGINT, signal.SIGTERM):
            try:
                loop.add_signal_handler(signum, stop.set)
                registered.append(signum)
            except (NotImplementedError, ValueError):  # pragma: no cover
                pass  # non-main thread / non-Unix: KeyboardInterrupt path
        if ready is not None:
            ready(*frontend.address)
        try:
            await stop.wait()
        finally:
            for signum in registered:
                loop.remove_signal_handler(signum)
            await frontend.stop()

    try:
        asyncio.run(_main())
    except KeyboardInterrupt:  # pragma: no cover - non-Unix fallback
        pass
