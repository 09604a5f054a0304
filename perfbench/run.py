"""End-to-end benchmark of the PQS-DA serving stack.

Run from the root of a checkout::

    python3 perfbench/run.py --workload head_http --seed 1 --seconds 30 --trace 0

One run generates the seed's synthetic log (cached per seed under
``.perfbench/``), launches ``perfbench/server.py`` as a process of its
own, waits for its ready signal (``setup_s``), warms it up, drives one
open-loop timed phase over two keep-alive connections, checks a seeded
sample of the answers against the single-process reference, stops the
server and checks that nothing it started outlives it.  From launch to
teardown every CPU runs an idle-priority poller (see ``idlepoll.py``),
so host contention does not reach the latencies through vCPU wake-ups.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` makes an
untraced run and then a traced run on the same inputs, prints the
per-layer metrics of the traced one plus the traced-minus-untraced
difference of every end-to-end metric (the tracing overhead), and writes
the spans of both processes to ``.perfbench/traces/``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before
it is the run record (stamp, load-generator honesty, counts).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import os
import platform
import random
import secrets
import sys
import time
from pathlib import Path

import workloads
from benchstats import summarize_lateness
from isolation import (
    RUN_ENV,
    SHM_PREFIX,
    pss_mb,
    reap,
    wait_until_clean,
)
from idlepoll import IdlePollers
from loadgen import OpenLoopClient
from measures import (
    end_to_end,
    join_request_spans,
    per_layer,
    self_time_table,
    stream_metrics,
)
from spans import SpanRecorder
from spec import with_units

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"

#: Seconds the server may take from launch to its ready signal.
SETUP_TIMEOUT = 150.0
#: Seconds to wait for a stopped server's processes and segments to go.
TEARDOWN_TIMEOUT = 20.0


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop: the host's speed right now."""
    start = time.perf_counter()
    total = 0
    for i in range(3_000_000):
        total += i * i % 7
    return time.perf_counter() - start


def steal_seconds() -> float:
    """CPU time the hypervisor gave other guests so far (all CPUs, s)."""
    with open("/proc/stat") as stat:
        fields = stat.readline().split()
    return int(fields[8]) / os.sysconf("SC_CLK_TCK")


class ServerError(RuntimeError):
    """The server reported an error or exited before answering."""


class ServerEvents:
    """Routes the server's stdout event lines to whoever awaits them."""

    def __init__(self, stdout) -> None:
        self._stdout = stdout
        self._queues: dict[str, asyncio.Queue] = {}
        self._failure: str | None = None
        self._task = asyncio.ensure_future(self._pump())

    def _queue(self, kind: str) -> asyncio.Queue:
        return self._queues.setdefault(kind, asyncio.Queue())

    async def _pump(self) -> None:
        while True:
            line = await self._stdout.readline()
            if not line:
                self._failure = self._failure or "server exited"
                break
            try:
                event = json.loads(line)
            except ValueError:
                sys.stderr.write(f"server: {line.decode(errors='replace')}")
                continue
            if event["event"] == "error":
                self._failure = event["error"]
                break
            self._queue(event["event"]).put_nowait(event)
        for queue in self._queues.values():
            queue.put_nowait(None)

    async def next(self, kind: str, timeout: float) -> dict:
        if self._failure is not None and self._queue(kind).empty():
            raise ServerError(self._failure)
        event = await asyncio.wait_for(self._queue(kind).get(), timeout)
        if event is None:
            raise ServerError(self._failure)
        return event

    async def close(self) -> None:
        self._task.cancel()
        try:
            await self._task
        except asyncio.CancelledError:
            pass


class Run:
    """One server lifetime: set-up, warm-up, timed phase, checks, teardown."""

    def __init__(self, workload, seed, plan, log_path, trace: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.plan = plan
        self.log_path = log_path
        self.trace = trace
        self.token = secrets.token_hex(4)

    async def _command(self, cmd: dict) -> None:
        self.proc.stdin.write((json.dumps(cmd) + "\n").encode())
        await self.proc.stdin.drain()

    async def execute(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(SRC)
        env[RUN_ENV] = self.token
        args = [
            sys.executable, str(HERE / "server.py"),
            "--workload", self.workload,
            "--log", str(self.log_path),
            "--prefix", f"{SHM_PREFIX}{self.token}",
        ]
        if self.trace:
            args.append("--trace")
        launched = time.monotonic()
        self.proc = await asyncio.create_subprocess_exec(
            *args,
            stdin=asyncio.subprocess.PIPE,
            stdout=asyncio.subprocess.PIPE,
            env=env,
            limit=1 << 28,
        )
        events = ServerEvents(self.proc.stdout)
        client = None
        try:
            ready = await events.next("ready", SETUP_TIMEOUT)
            setup_s = time.monotonic() - launched
            client = OpenLoopClient("127.0.0.1", ready["port"], connections=2)
            await client.start()
            plan = self.plan
            await client.run(plan.warmup, plan.rate)
            await self._command({"cmd": "mark"})
            start = (await events.next("marked", 60))["counters"]
            steal = steal_seconds()
            stream = None
            if self.workload == "live_ingest":
                stop = asyncio.Event()
                await self._command({"cmd": "stream"})
                stream_done = asyncio.ensure_future(events.next("stream_done", 170))
                stream_done.add_done_callback(lambda _: stop.set())
                results = await client.run(plan.timed, plan.rate, stop=stop)
                stream = await stream_done
            else:
                results = await client.run(plan.timed, plan.rate)
            pss = pss_mb([self.proc.pid] + ready["pids"])
            steal = steal_seconds() - steal
            await self._command({"cmd": "mark"})
            end = (await events.next("marked", 60))["counters"]
            checked = await self._check(client, events, results)
            await client.close()
            spans = []
            if self.trace:
                await self._command({"cmd": "spans"})
                spans = (await events.next("spans", 60))["spans"]
            await self._command({"cmd": "stop"})
            await events.next("stopped", 60)
            await asyncio.wait_for(self.proc.wait(), 60)
        finally:
            if client is not None:
                await client.close()
            if self.proc.returncode is None:
                # End of input stops a server that is still serving; one
                # that does not stop in time is killed.
                self.proc.stdin.close()
                try:
                    await asyncio.wait_for(self.proc.wait(), 60)
                except asyncio.TimeoutError:
                    self.proc.kill()
                    await self.proc.wait()
            await events.close()
        return {
            "setup_s": setup_s,
            "ready": ready,
            "results": results,
            "probes": checked["probes"],
            "checked": checked["checked"],
            "mismatches": checked["mismatches"],
            "pss_mb": pss,
            "steal_s": steal,
            "start": start,
            "end": end,
            "stream": stream,
            "spans": spans,
        }

    async def _check(self, client, events, results) -> dict:
        """Compare served answers with the single-process reference.

        Serving workloads check a seeded sample of the timed phase's
        answers; the live workload sends its probes after the stream has
        drained and checks all of them.  A wrong answer marks its request
        failed.
        """
        probes = []
        if self.plan.probes:
            probes = await client.run(self.plan.probes, math.inf)
            checked = [p for p in probes if p.ok]
        else:
            answered = [r for r in results if r.ok]
            rng = random.Random(f"{self.seed}-{self.workload}-check")
            checked = rng.sample(
                answered, min(workloads.REFERENCE_SAMPLE, len(answered))
            )
        await self._command({
            "cmd": "reference",
            "requests": [[r.query, r.user] for r in checked],
        })
        answers = (await events.next("reference", 120))["answers"]
        mismatches = 0
        for result, answer in zip(checked, answers):
            if result.suggestions != answer:
                result.mismatch = True
                mismatches += 1
        return {"probes": probes, "checked": len(checked), "mismatches": mismatches}


def _send_rates(results, offered: float) -> dict:
    sent = sorted(r.sent for r in results)
    achieved = (len(sent) - 1) / (sent[-1] - sent[0]) if len(sent) > 1 else 0.0
    return {"offered_per_s": offered, "achieved_per_s": achieved}


def measure(workload, seed, plan, log_path, trace: bool) -> dict:
    """One full run (server launch to teardown) and its leak checks."""
    run = Run(workload, seed, plan, log_path, trace)
    try:
        with IdlePollers(dict(os.environ, **{RUN_ENV: run.token})):
            outcome = asyncio.run(run.execute())
    finally:
        processes, segments = wait_until_clean(TEARDOWN_TIMEOUT)
        if processes or segments:
            reap(run.token)
    outcome["leftovers"] = {"processes": processes, "segments": segments}
    everything = outcome["results"] + outcome["probes"]
    outcome["e2e"] = end_to_end(
        outcome["setup_s"],
        outcome["results"],
        outcome["probes"],
        outcome["pss_mb"],
    )
    outcome["attempted"] = len(everything)
    outcome["failed"] = sum(1 for r in everything if not r.ok)
    outcome["correct"] = (
        outcome["mismatches"] == 0
        and outcome["checked"] > 0
        and not processes
        and not segments
        and (outcome["stream"] is None or outcome["stream"]["unacked"] == 0)
    )
    return outcome


def _write_trace(workload: str, seed: int, outcome: dict):
    """Join the request trees, compute per-layer metrics, write the spans.

    Returns the per-layer metrics, the self-time table and the trace path.
    """
    recorder = SpanRecorder(enabled=True, origin="d")
    join_request_spans(outcome["results"], outcome["spans"], recorder)
    spans = outcome["spans"] + recorder.spans
    layers = per_layer(
        outcome["ready"], outcome["start"], outcome["end"], spans, outcome["stream"]
    )
    path = STATE / "traces" / f"{workload}-seed{seed}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    table = self_time_table(spans)
    path.write_text(json.dumps({
        "workload": workload,
        "seed": seed,
        "self_time": table,
        "spans": spans,
    }))
    return layers, table, path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no PQS-DA sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    calibration_before = calibrate()
    processes, segments = wait_until_clean(TEARDOWN_TIMEOUT)
    if processes or segments:
        # Fail this run, and clear the leftovers so they fail only this one.
        reap("")
        print(f"error: an earlier run left processes {processes} and "
              f"segments {segments} behind", file=sys.stderr)
        return 3

    log_path = STATE / "logs" / f"log-seed{args.seed}.tsv"
    if not log_path.exists():
        log_path.parent.mkdir(parents=True, exist_ok=True)
        workloads.generate_log_file(args.seed, log_path)
    cleaned = workloads.load_cleaned(log_path)
    plan = workloads.make_plan(args.workload, args.seed, cleaned, args.seconds)

    runs = [measure(args.workload, args.seed, plan, log_path, trace=False)]
    if args.trace:
        runs.append(measure(args.workload, args.seed, plan, log_path, trace=True))
    calibration_after = calibrate()

    last = runs[-1]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": {
            "cpu_count": os.cpu_count(),
            "python": platform.python_version(),
            "calibration_before_s": calibration_before,
            "calibration_after_s": calibration_after,
        },
        "runs": [
            {
                "traced": index == 1,
                "attempted": run["attempted"],
                "succeeded": run["attempted"] - run["failed"],
                "failed": run["failed"],
                "error_rate": run["failed"] / run["attempted"],
                "checked_against_reference": run["checked"],
                "reference_mismatches": run["mismatches"],
                "send_rate": _send_rates(run["results"], plan.rate),
                "lateness": summarize_lateness(
                    [r.sent - r.due for r in run["results"]]
                ),
                "stream": stream_metrics(run["stream"]),
                "leftovers": run["leftovers"],
                "timed_phase_cpu_steal_s": run["steal_s"],
                "timed_requests": len(run["results"]),
                "e2e": run["e2e"],
            }
            for index, run in enumerate(runs)
        ],
    }
    if args.trace:
        metrics, table, path = _write_trace(args.workload, args.seed, last)
        for name, value in runs[1]["e2e"].items():
            metrics[f"tracing.overhead.{name}"] = value - runs[0]["e2e"][name]
        record["trace_file"] = str(path.relative_to(ROOT))
        record["self_time_s"] = {
            name: row["self_s"] for name, row in sorted(table.items())
        }
    else:
        metrics = dict(last["e2e"])
    print(json.dumps(record))
    print(json.dumps({
        "correct": all(run["correct"] for run in runs),
        "attempted": sum(run["attempted"] for run in runs),
        "failed": sum(run["failed"] for run in runs),
        "metrics": with_units(metrics, traced=bool(args.trace)),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
