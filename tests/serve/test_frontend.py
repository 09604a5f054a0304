"""The async HTTP front-end: identity, deadlines, shedding, isolation.

Fake pools make the control-plane behavior deterministic (tier
selection, deadline expiry, per-request failures, coalescing of queued
tickets); raw sockets feed the hand-rolled parser malformed framing; one
real :class:`SuggestWorkerPool` closes the loop end to end — bytes over
a socket must equal ``suggest_batch`` bit for bit.
"""

import asyncio
import json
import socket
import threading
import time
import urllib.error
import urllib.request

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.base import SuggestRequest
from repro.obs.registry import MetricsRegistry
from repro.serve.frontend import (
    FrontendConfig,
    SuggestFrontend,
    _BadRequest,
    _HttpRequest,
    _read_request,
    run_in_thread,
    tier_for_depth,
)
from repro.serve.pool import SuggestError, SuggestWorkerPool

from tests.serve.conftest import SERVE_CONFIG


def _metric_value(registry, name, labels=None):
    for entry in registry.snapshot()["metrics"]:
        if entry["name"] == name and (
            labels is None or entry["labels"] == labels
        ):
            return entry["value"]
    return None


def _get(url):
    try:
        with urllib.request.urlopen(url) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


def _post(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode(),
        method="POST",
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        with error:
            return error.code, json.loads(error.read())


class FakePool:
    """Scriptable pool: fixed depth, optional delay, recorded calls."""

    def __init__(self, n_workers=2, depth=0, delay=0.0, fail_queries=()):
        self.n_workers = n_workers
        self.queue_depth = depth
        self.delay = delay
        self.fail_queries = set(fail_queries)
        self.calls: list[list[SuggestRequest]] = []
        self._lock = threading.Lock()

    def suggest_many(self, requests, return_errors=False):
        with self._lock:
            self.calls.append(list(requests))
        if self.delay:
            time.sleep(self.delay)
        results = []
        for request in requests:
            if request.query in self.fail_queries:
                assert return_errors
                results.append(SuggestError(0, "TypeError: scripted failure"))
            else:
                results.append(
                    [f"{request.query}-s{i}" for i in range(request.k)]
                )
        return results

    @property
    def dispatched(self):
        with self._lock:
            return [request for call in self.calls for request in call]


def _raw_exchange(handle, payload):
    """Send raw *payload*, read to EOF: (status, headers, JSON body).

    Reading to EOF is itself an assertion: the server must close the
    connection after answering.
    """
    with socket.create_connection(handle.address, timeout=30) as sock:
        sock.sendall(payload)
        chunks = []
        while chunk := sock.recv(65536):
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, json.loads(body)


def test_config_validates_tier_ordering():
    with pytest.raises(ValueError, match="shed depths"):
        FrontendConfig(shed_rerank_depth=8.0, shed_personalize_depth=4.0)
    with pytest.raises(ValueError, match="shed depths"):
        FrontendConfig(reject_depth=1.0)
    with pytest.raises(ValueError, match="max_batch"):
        FrontendConfig(max_batch=0)


def test_tier_is_monotone_in_depth():
    config = FrontendConfig()
    tiers = [
        tier_for_depth(depth, config) for depth in (0, 3.9, 4, 7.9, 8, 16, 99)
    ]
    assert tiers == [0, 0, 1, 1, 2, 3, 3]
    assert tiers == sorted(tiers)


class TestShedTiers:
    def test_tiers_follow_queue_depth_in_order(self):
        """Rising depth walks the documented tier order 0 → 1 → 2 → 3,
        forwarding the tier to the pool — until 3, which never dispatches."""
        pool = FakePool(n_workers=1)
        registry = MetricsRegistry()
        config = FrontendConfig(
            shed_rerank_depth=4.0,
            shed_personalize_depth=8.0,
            reject_depth=16.0,
        )
        with run_in_thread(pool, config=config, registry=registry) as handle:
            for depth, want_tier, want_status in (
                (0, 0, 200),
                (4, 1, 200),
                (8, 2, 200),
                (16, 3, 503),
            ):
                pool.queue_depth = depth
                status, body = _get(handle.url + f"/suggest?q=d{depth}&k=2")
                assert status == want_status
                assert body["shed_tier"] == want_tier
        shed_of = {request.query: request.shed for request in pool.dispatched}
        assert shed_of == {"d0": 0, "d4": 1, "d8": 2}  # d16 never dispatched
        for label, want in (("rerank", 1), ("personalize", 1), ("reject", 1)):
            assert _metric_value(registry, f"serve.http.shed.{label}") == want
        assert _metric_value(
            registry, "serve.http.responses", {"code": "503"}
        ) == 1

    def test_depth_is_per_worker(self):
        """The same absolute backlog sheds on a small pool, not a big one."""
        config = FrontendConfig(reject_depth=16.0)
        for n_workers, expected_status in ((1, 503), (8, 200)):
            pool = FakePool(n_workers=n_workers, depth=20)
            with run_in_thread(pool, config=config) as handle:
                status, _ = _get(handle.url + "/suggest?q=x&k=1")
                assert status == expected_status


class TestDeadlines:
    def test_deadline_expiry_returns_504(self):
        pool = FakePool(delay=1.0)
        registry = MetricsRegistry()
        with run_in_thread(pool, registry=registry) as handle:
            status, body = _get(
                handle.url + "/suggest?q=slow&k=2&deadline_ms=80"
            )
            assert status == 504
            assert body["error"] == "deadline expired"
            assert _metric_value(registry, "serve.http.deadline_expired") == 1
            assert _metric_value(
                registry, "serve.http.responses", {"code": "504"}
            ) == 1

    def test_request_expired_in_queue_is_never_dispatched(self):
        """A request whose deadline passes while it waits behind a slow
        batch gets its 504 without ever burning a worker on it."""
        pool = FakePool(delay=0.6)
        config = FrontendConfig(max_dispatchers=1)
        with run_in_thread(pool, config=config) as handle:
            slow = threading.Thread(
                target=_get, args=(handle.url + "/suggest?q=first&k=1",)
            )
            slow.start()
            deadline = time.monotonic() + 5
            while not pool.calls and time.monotonic() < deadline:
                time.sleep(0.01)  # first batch must be in flight
            status, _ = _get(
                handle.url + "/suggest?q=doomed&k=1&deadline_ms=50"
            )
            slow.join(timeout=30)
            assert status == 504
        assert {r.query for r in pool.dispatched} == {"first"}


class TestPerRequestFailures:
    def test_worker_error_maps_to_500_for_that_request_only(self):
        pool = FakePool(fail_queries={"bad"})
        registry = MetricsRegistry()
        with run_in_thread(pool, registry=registry) as handle:
            status, body = _post(handle.url + "/suggest", {
                "requests": [
                    {"q": "good1", "k": 2},
                    {"q": "bad", "k": 2},
                    {"q": "good2", "k": 2},
                ],
            })
            assert status == 200
            statuses = [result["status"] for result in body["results"]]
            assert statuses == [200, 500, 200]
            assert body["results"][0]["suggestions"] == ["good1-s0", "good1-s1"]
            assert "TypeError" in body["results"][1]["error"]
            assert body["results"][1]["worker"] == 0
            assert body["results"][2]["suggestions"] == ["good2-s0", "good2-s1"]
        # All three were queued before the batcher ran, so they rode one
        # dispatch — isolation is per-request, not an artifact of
        # separate dispatches.
        assert [len(call) for call in pool.calls] == [3]


class TestHttpPlumbing:
    def test_bad_requests_and_routes(self):
        pool = FakePool()
        with run_in_thread(pool) as handle:
            assert _get(handle.url + "/suggest?k=3")[0] == 400
            assert _get(handle.url + "/suggest?q=x&k=zero")[0] == 400
            assert _get(handle.url + "/suggest?q=x&deadline_ms=-5")[0] == 400
            assert _get(handle.url + "/suggest?q=x&deadline_ms=nan")[0] == 400
            assert _get(handle.url + "/nope")[0] == 404
            status, _ = _post(handle.url + "/suggest", {"requests": []})
            assert status == 400
            nested = urllib.request.Request(
                handle.url + "/suggest", data=b"[" * 100_000, method="POST"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(nested)
            excinfo.value.close()
            assert excinfo.value.code == 400
            request = urllib.request.Request(
                handle.url + "/suggest", data=b"{}", method="PUT"
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request)
            excinfo.value.close()
            assert excinfo.value.code == 405
        assert pool.calls == []  # nothing malformed reached the pool

    @pytest.mark.parametrize(
        "payload, want_status",
        [
            pytest.param(
                b"POST /suggest HTTP/1.1\r\nContent-Length: abc\r\n\r\n",
                400,
                id="non-numeric-content-length",
            ),
            pytest.param(
                b"POST /suggest HTTP/1.1\r\nContent-Length: -5\r\n\r\n",
                400,
                id="negative-content-length",
            ),
            pytest.param(
                b"GET /suggest?q=x HTTP/1.1\r\nX-Big: "
                + b"a" * 66_000 + b"\r\n\r\n",
                431,
                id="header-line-over-limit",
            ),
            pytest.param(
                b"GET /suggest?q=x HTTP/1.1\r\n"
                + b"".join(b"X-H%d: v\r\n" % i for i in range(150))
                + b"\r\n",
                431,
                id="header-count-over-limit",
            ),
            pytest.param(
                b"GET /suggest?q=" + b"a" * 66_000 + b" HTTP/1.1\r\n\r\n",
                414,
                id="request-line-over-limit",
            ),
            pytest.param(
                b"GET http://[::1/suggest?q=x HTTP/1.1\r\n\r\n",
                400,
                id="unsplittable-target",
            ),
        ],
    )
    def test_malformed_framing_gets_4xx_and_close(self, payload, want_status):
        pool = FakePool()
        with run_in_thread(pool) as handle:
            status, headers, body = _raw_exchange(handle, payload)
            assert status == want_status
            assert headers["connection"] == "close"
            assert headers["content-type"] == "application/json"
            assert body["error"]
            # The connection task answered instead of dying; the server
            # keeps serving.
            assert _get(handle.url + "/suggest?q=after&k=1")[0] == 200
        assert [r.query for r in pool.dispatched] == ["after"]

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.sampled_from([
                    b"GET /suggest?q=x HTTP/1.1\r\n",
                    b"POST /suggest HTTP/1.0\r\n",
                    b"Content-Length: ",
                    b"Connection: close\r\n",
                    b"\r\n",
                    b"\n",
                    b":",
                    b" ",
                    b"[",
                ]),
                st.binary(max_size=24),
                st.integers(-99, 99).map(lambda n: str(n).encode()),
            ),
            max_size=12,
        )
    )
    def test_parser_fails_only_with_a_bad_request(self, pieces):
        """Whatever bytes arrive, parsing yields a request, a clean EOF,
        a 4xx, or a truncated read — never another exception."""

        async def parse():
            reader = asyncio.StreamReader(limit=32)
            reader.feed_data(b"".join(pieces))
            reader.feed_eof()
            return await _read_request(reader)

        try:
            result = asyncio.run(parse())
        except _BadRequest as exc:
            assert 400 <= exc.status < 500
        except asyncio.IncompleteReadError:
            pass  # body shorter than its Content-Length: connection drops
        else:
            assert result is None or isinstance(result, _HttpRequest)

    def test_healthz_and_metrics_endpoints(self):
        registry = MetricsRegistry()
        with run_in_thread(FakePool(n_workers=3), registry=registry) as handle:
            status, body = _get(handle.url + "/healthz")
            assert (status, body) == (200, {"status": "ok", "workers": 3})
            _get(handle.url + "/suggest?q=x&k=1")
            with urllib.request.urlopen(handle.url + "/metrics") as response:
                text = response.read().decode()
            assert "repro_serve_http_requests_total 1" in text
            assert 'repro_serve_http_responses_total{code="200"}' in text
            status, snapshot = _get(handle.url + "/metrics.json")
            assert status == 200
            assert any(
                entry["name"] == "serve.http.batch_size"
                for entry in snapshot["metrics"]
            )

    def test_pool_level_failure_maps_to_500(self):
        class ExplodingPool(FakePool):
            def suggest_many(self, requests, return_errors=False):
                super().suggest_many(requests, return_errors)
                raise TimeoutError("replies outstanding after 30s")

        with run_in_thread(ExplodingPool()) as handle:
            status, body = _get(handle.url + "/suggest?q=x&k=1")
            assert status == 500
            assert "outstanding" in body["error"]


class TestEndToEnd:
    """One real pool behind a real socket: answers must be bit-identical."""

    @pytest.fixture(scope="class")
    def served(self, expander, multibipartite):
        registry = MetricsRegistry()
        with SuggestWorkerPool(
            expander,
            SERVE_CONFIG,
            multibipartite=multibipartite,
            n_workers=2,
            registry=registry,
            prefix="t-http",
        ) as pool:
            with run_in_thread(pool, registry=registry) as handle:
                yield pool, handle, registry

    def test_http_answers_are_bit_identical_to_suggest_batch(
        self, served, multibipartite, single_suggester
    ):
        _, handle, _ = served
        queries = multibipartite.queries[:10]
        expected = single_suggester.suggest_batch(
            [SuggestRequest(query=query, k=8) for query in queries]
        )
        for query, want in zip(queries, expected):
            status, body = _get(
                handle.url + "/suggest?q="
                + urllib.request.quote(query) + "&k=8"
            )
            assert status == 200
            assert body["suggestions"] == want
            assert body["shed_tier"] == 0

    def test_http_batch_post_matches_too(
        self, served, multibipartite, single_suggester
    ):
        _, handle, _ = served
        queries = multibipartite.queries[10:16]
        expected = single_suggester.suggest_batch(
            [SuggestRequest(query=query, k=8) for query in queries]
        )
        status, body = _post(handle.url + "/suggest", {
            "requests": [{"q": query, "k": 8} for query in queries],
        })
        assert status == 200
        assert [r["suggestions"] for r in body["results"]] == expected
        assert all(r["status"] == 200 for r in body["results"])

    def test_depth_gauge_settles_after_load(self, served):
        pool, _, registry = served
        deadline = time.monotonic() + 10
        while pool.queue_depth and time.monotonic() < deadline:
            time.sleep(0.05)
        assert pool.queue_depth == 0
        assert _metric_value(registry, "serve.pool.queue_depth") == 0
