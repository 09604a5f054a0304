"""Tests of the benchmark's own logic (no PQS-DA stack involved).

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import asyncio
import json
import math
import os
import subprocess
import sys
import time

import pytest

from benchstats import FreshnessTracker, percentile, self_times
from isolation import (
    RUN_ENV,
    leftover_processes,
    leftover_segments,
    reap,
)
from loadgen import OpenLoopClient, Result, due_times
from measures import join_request_spans
from spans import SpanRecorder


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(1, 101))
        assert percentile(values, 50) == 50
        assert percentile(values, 90) == 90
        assert percentile(values, 100) == 100
        assert percentile([7.0], 90) == 7.0

    def test_order_does_not_matter(self):
        assert percentile([5, 1, 4, 2, 3], 50) == 3

    def test_failures_count_as_infinitely_slow(self):
        values = list(range(1, 91))  # 90 answered
        # 10 failures out of 100 attempts sit above every answer.
        assert percentile(values, 90, failures=10) == 90
        assert percentile(values, 91, failures=10) == math.inf
        # Failures push the median up even though no answer got slower.
        assert percentile([1, 2, 3], 50, failures=3) == 3
        assert percentile([1, 2, 3], 50, failures=4) == math.inf

    def test_all_failed(self):
        assert percentile([], 50, failures=2) == math.inf

    def test_rejects_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1], 0)


def _span(span_id, start, end, parent=None):
    return {"id": span_id, "start": start, "end": end, "parent": parent}


class TestSelfTimes:
    def test_children_are_subtracted(self):
        spans = [
            _span("root", 0.0, 10.0),
            _span("a", 1.0, 3.0, "root"),
            _span("b", 5.0, 6.0, "root"),
            _span("a1", 1.5, 2.0, "a"),
        ]
        own = self_times(spans)
        assert own["root"] == pytest.approx(7.0)
        assert own["a"] == pytest.approx(1.5)
        assert own["a1"] == pytest.approx(0.5)
        assert own["b"] == pytest.approx(1.0)

    def test_overlapping_children_are_not_subtracted_twice(self):
        spans = [
            _span("call", 0.0, 10.0),
            _span("w0", 2.0, 6.0, "call"),
            _span("w1", 4.0, 8.0, "call"),
        ]
        assert self_times(spans)["call"] == pytest.approx(4.0)

    def test_children_are_clipped_to_the_parent(self):
        spans = [
            _span("p", 2.0, 4.0),
            _span("early", 1.0, 3.0, "p"),
            _span("late", 3.5, 9.0, "p"),
        ]
        assert self_times(spans)["p"] == pytest.approx(0.5)

    def test_recorder_nests_spans_by_thread(self):
        recorder = SpanRecorder(enabled=True, origin="t")
        with recorder.span("outer"):
            with recorder.span("inner", rid=7):
                pass
        inner, outer = recorder.spans
        assert inner["parent"] == outer["id"]
        assert inner["rid"] == 7
        assert outer["parent"] is None
        assert self_times(recorder.spans)[outer["id"]] >= 0.0

    def test_disabled_recorder_records_nothing(self):
        recorder = SpanRecorder(enabled=False, origin="t")
        with recorder.span("outer"):
            pass
        assert recorder.record("x", 0.0, 1.0) is None
        assert recorder.spans == []

    def test_request_tree_gives_frontend_self_time(self):
        request = Result(rid=3, query="q", user=None, due=1.0, sent=1.5, done=4.0)
        other = Result(rid=4, query="q", user="u", due=1.0, sent=1.0, done=9.0)
        server = [
            # The pool call serving `request`, and one for another user.
            {"id": "s0", "name": "serve.pool.call", "start": 2.0, "end": 3.0,
             "parent": None, "rid": None, "attrs": {"requests": [["q", None]]}},
            {"id": "s1", "name": "serve.pool.call", "start": 5.0, "end": 6.0,
             "parent": None, "rid": None, "attrs": {"requests": [["q", "u"]]}},
        ]
        recorder = SpanRecorder(enabled=True, origin="d")
        join_request_spans([request, other], server, recorder)
        roots = {s["rid"]: s for s in recorder.spans if s["name"] == "http.request"}
        own = self_times(recorder.spans)
        # 3.0 s in flight - 0.5 s late - 1.0 s in the pool.
        assert own[roots[3]["id"]] == pytest.approx(1.5)
        assert own[roots[4]["id"]] == pytest.approx(7.0)


class TestFreshness:
    def test_batches_close_on_size_and_wait_for_the_next_ack(self):
        tracker = FreshnessTracker(batch_size=2)
        tracker.handed(0.0)
        tracker.handed(1.0)   # closes batch 0 at t=1
        tracker.handed(2.0)
        tracker.acked(2.5)    # covers batch 0 only: batch 1 is still open
        assert tracker.samples == [1.5]
        tracker.handed(3.0)   # closes batch 1 at t=3
        tracker.handed(4.0)
        tracker.handed(5.0)   # closes batch 2 at t=5
        assert tracker.pending == 2
        tracker.acked(6.0)    # one epoch covers both closed batches
        assert tracker.samples == [1.5, 3.0, 1.0]
        assert tracker.pending == 0

    def test_partial_last_batch_closes_at_end_of_stream(self):
        tracker = FreshnessTracker(batch_size=3)
        for now in (0.0, 1.0, 2.0, 3.0):
            tracker.handed(now)
        tracker.end_of_stream()  # the last batch holds one record, t=3
        tracker.acked(3.25)
        assert tracker.samples == [1.25, 0.25]

    def test_ack_without_closed_batches_adds_nothing(self):
        tracker = FreshnessTracker(batch_size=4)
        tracker.acked(1.0)
        tracker.handed(2.0)
        tracker.acked(3.0)
        tracker.end_of_stream()
        assert tracker.samples == []
        assert tracker.pending == 1


class _StallingServer:
    """A minimal keep-alive HTTP server whose first reply stalls."""

    def __init__(self, stall: float) -> None:
        self.stall = stall
        self.served = 0

    async def handle(self, reader, writer) -> None:
        try:
            while True:
                await reader.readuntil(b"\r\n\r\n")
                self.served += 1
                if self.served == 1:
                    await asyncio.sleep(self.stall)
                body = json.dumps({"suggestions": ["a", "b"]}).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\nContent-Length: "
                    + str(len(body)).encode()
                    + b"\r\n\r\n"
                    + body
                )
                await writer.drain()
        except (asyncio.IncompleteReadError, ConnectionError):
            pass
        finally:
            writer.close()


class TestOpenLoop:
    def test_due_times_are_fixed_spacing(self):
        assert due_times(10.0, 4.0, 3) == [10.0, 10.25, 10.5]
        assert due_times(1.0, math.inf, 3) == [1.0, 1.0, 1.0]
        with pytest.raises(ValueError):
            due_times(0.0, 0.0, 1)

    def test_requests_are_timed_from_their_due_time(self):
        async def scenario():
            fake = _StallingServer(stall=0.3)
            server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = OpenLoopClient("127.0.0.1", port, connections=1)
            await client.start()
            try:
                requests = [(f"q{i}", None) for i in range(12)]
                return await client.run(requests, rate=20.0)
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        results = asyncio.run(scenario())
        assert [r.rid for r in results] == list(range(12))
        assert all(r.ok for r in results)
        # The schedule never slips: due times keep their 50 ms spacing.
        for i, result in enumerate(results):
            assert result.due - results[0].due == pytest.approx(i * 0.05)
        # Requests due during the stall waited for the only connection:
        # they were sent late and that wait is part of their latency.
        stalled = results[1]
        assert stalled.sent - stalled.due > 0.15
        assert stalled.done - stalled.due > 0.2
        assert stalled.done - stalled.sent < 0.1
        # Long after the stall the generator is on time again.
        assert results[-1].sent - results[-1].due < 0.04

    def test_stop_event_ends_sending(self):
        async def scenario():
            fake = _StallingServer(stall=0.0)
            server = await asyncio.start_server(fake.handle, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            client = OpenLoopClient("127.0.0.1", port, connections=2)
            await client.start()
            stop = asyncio.Event()
            asyncio.get_running_loop().call_later(0.12, stop.set)
            try:
                return await client.run(
                    [("q", None)] * 100, rate=50.0, stop=stop
                )
            finally:
                await client.close()
                server.close()
                await server.wait_closed()

        results = asyncio.run(scenario())
        assert 3 <= len(results) <= 9


class TestLeakCheck:
    def test_segments_match_by_prefix(self, tmp_path):
        for name in ("pqsbenchab-1-e0", "pqsbenchcd-2-p0", "pqsda-3-e0"):
            (tmp_path / name).write_bytes(b"")
        assert leftover_segments(str(tmp_path)) == [
            "pqsbenchab-1-e0",
            "pqsbenchcd-2-p0",
        ]
        reap("ab", shm_dir=str(tmp_path))
        assert leftover_segments(str(tmp_path)) == ["pqsbenchcd-2-p0"]
        assert leftover_segments(str(tmp_path / "missing")) == []

    def test_marked_process_is_found_and_reaped(self):
        token = f"test{os.getpid()}"
        env = dict(os.environ, **{RUN_ENV: token})
        child = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"], env=env
        )
        try:
            deadline = time.monotonic() + 10
            while child.pid not in leftover_processes(value=token):
                assert time.monotonic() < deadline
                time.sleep(0.05)
            assert child.pid in leftover_processes()
            assert child.pid not in leftover_processes(value=token + "x")
            reap(token)
            assert child.wait(timeout=10) != 0
            assert child.pid not in leftover_processes(value=token)
        finally:
            if child.poll() is None:
                child.kill()
                child.wait(timeout=10)


class TestIdlePollers:
    def test_pollers_run_idle_and_stop(self):
        from idlepoll import IdlePollers

        with IdlePollers() as pollers:
            pids = pollers.pids
            assert len(pids) == len(os.sched_getaffinity(0))
            deadline = time.monotonic() + 10
            for pid in pids:
                while os.sched_getscheduler(pid) != os.SCHED_IDLE:
                    assert time.monotonic() < deadline
                    time.sleep(0.01)
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
