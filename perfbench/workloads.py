"""Workload definitions shared by the runner and the server.

One seed makes one synthetic AOL-style log at the full ingest-bench scale
(800 users, ~25k records).  From that log the runner derives each
workload's request stream, and the server derives the same bootstrap
split, hot-query list and serving configuration, so both sides agree on
what is served without talking about it.

Load shapes (all open loop, constant spacing, at most two keep-alive
connections, every request timed from its due time):

``head_http``
    Anonymous ``GET /suggest`` drawn by log frequency from the head: the
    hot table (:data:`HOT_TOP` queries, answered in the server process)
    plus the next :data:`NEXT_TIER` queries, which fit in the workers'
    compact-entry caches once warm-up has touched each of them.
``live_ingest``
    The server bootstraps on the first :data:`BOOTSTRAP_FRACTION` of the
    time-ordered log and streams the rest flat out while a light load
    runs: queries drawn by frequency from the head's next tier, each sent
    for a profiled user.  Every read therefore crosses the pool while
    epochs swap under it, misses caches the epochs invalidated, and is
    reranked against the profile generations the click feedback folds.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from urllib.parse import quote

__all__ = [
    "WORKLOADS",
    "Plan",
    "bootstrap_split",
    "generate_log_file",
    "load_cleaned",
    "make_plan",
    "pqsda_config",
    "request_path",
]

WORKLOADS = ("head_http", "live_ingest")

#: Synthetic log scale and shape (the full-mode ingest benchmark's).
N_USERS = 800
GENERATOR = {
    "mean_sessions_per_user": 12,
    "click_probability": 0.55,
    "noise_click_probability": 0.12,
    "hub_click_probability": 0.15,
}

#: Suggestions per request (the ``repro serve`` default ``--k``).
K = 10
#: Hot-table size and the next tier, which fits the two workers'
#: 128-entry caches.  Drawn by frequency, the hot table takes ~65% of the
#: head's traffic, so the head's p50 lies well inside the hot-hit mode and
#: its p90 well inside the worker cache-hit mode, never on the edge
#: between them.
HOT_TOP = 48
NEXT_TIER = 112
#: live_ingest: bootstrap share of the time-ordered log, micro-batch size
#: and micro-batches per epoch.  ~7.3k streamed records make ~150
#: micro-batches, so the freshness p90 has ten samples beyond it.
BOOTSTRAP_FRACTION = 0.7
INGEST_BATCH = 48
EPOCH_EVERY = 8

#: Offered request rates (1/s).  Each keeps the busiest worker well under
#: half busy on two CPUs, so queueing does not amplify host drift.
RATES = {"head_http": 60.0, "live_ingest": 20.0}
#: Untimed warm-up length (s) before the timed phase; head_http instead
#: sends every head query once.
WARMUP_SECONDS = {"live_ingest": 1.5}
#: Served answers compared with the single-process reference per run.
REFERENCE_SAMPLE = 300
#: live_ingest probes after the stream drains: head queries plus queries
#: the stream touched.
PROBE_HEAD = 100
PROBE_STREAMED = 100


@dataclass(frozen=True)
class Plan:
    """Request streams of one run; a request is ``(query, user or None)``."""

    warmup: list
    timed: list
    rate: float
    probes: list


def pqsda_config(personalize: bool):
    """The serving configuration of ``repro serve`` with its CLI defaults."""
    from repro.core.config import (
        CompactConfig,
        DiversifyConfig,
        PQSDAConfig,
        UPMConfig,
    )

    config = PQSDAConfig(
        compact=CompactConfig(size=150),
        diversify=DiversifyConfig(k=K),
        personalize=personalize,
    )
    if personalize:
        from dataclasses import replace

        config = replace(
            config,
            upm=UPMConfig(n_topics=5, iterations=10, hyperopt_every=0, seed=0),
        )
    return config


def generate_log_file(seed: int, path: Path) -> None:
    """Write the seed's synthetic log to *path* (AOL TSV)."""
    from repro.logs.aol import write_aol
    from repro.synth.generator import GeneratorConfig, generate_log
    from repro.synth.world import make_world

    world = make_world(seed=seed, pages_per_leaf=24)
    config = GeneratorConfig(n_users=N_USERS, seed=seed, **GENERATOR)
    tmp = path.with_suffix(".tmp")
    write_aol(generate_log(world, config).log, tmp)
    tmp.replace(path)


def load_cleaned(path):
    """``read_aol`` + ``clean_log``: the log exactly as the server sees it."""
    from repro.logs.aol import read_aol
    from repro.logs.cleaning import clean_log

    cleaned, _ = clean_log(read_aol(path))
    return cleaned


def bootstrap_split(cleaned) -> tuple[list, list]:
    """Time-ordered records split into (bootstrap prefix, streamed rest)."""
    records = sorted(cleaned.records, key=lambda r: (r.timestamp, r.record_id))
    split = int(len(records) * BOOTSTRAP_FRACTION)
    return records[:split], records[split:]


def request_path(query: str, user: str | None) -> str:
    """The ``GET /suggest`` target of one request."""
    path = f"/suggest?q={quote(query)}&k={K}"
    if user is not None:
        path += f"&user={quote(user)}"
    return path


def _head(log, n: int):
    from repro.core.suggester import head_queries

    head = head_queries(log, n)
    return head, [log.query_frequency(query) for query in head]


def make_plan(workload: str, seed: int, cleaned, seconds: float) -> Plan:
    """Warm-up, timed and probe requests of *workload* for *seed*."""
    from repro.logs.storage import QueryLog
    from repro.utils.text import normalize_query

    rate = RATES[workload]
    n_warmup = round(WARMUP_SECONDS.get(workload, 0.0) * rate)
    n_timed = round(seconds * rate)
    rng = random.Random(f"{seed}-{workload}")
    probes: list = []
    if workload == "head_http":
        head, weights = _head(cleaned, HOT_TOP + NEXT_TIER)
        # Warm-up touches every head query once, so the timed phase finds
        # the next tier in the workers' caches.
        warmup = [(query, None) for query in head]
        rng.shuffle(warmup)
        timed = [(q, None) for q in rng.choices(head, weights, k=n_timed)]
    elif workload == "live_ingest":
        bootstrap, streamed = bootstrap_split(cleaned)
        head, weights = _head(QueryLog(bootstrap), HOT_TOP + NEXT_TIER)
        head, weights = head[HOT_TOP:], weights[HOT_TOP:]
        users = sorted({record.user_id for record in bootstrap})

        def draw(n):
            return [
                (query, rng.choice(users))
                for query in rng.choices(head, weights, k=n)
            ]

        warmup = draw(n_warmup)
        # The stream's length sets the timed phase; draw far more requests
        # than it can take and stop sending when the stream has drained.
        timed = draw(n_timed * 8)
        whole_head, _ = _head(cleaned, PROBE_HEAD)
        touched = sorted({normalize_query(r.query) for r in streamed})
        probes = [(q, None) for q in whole_head]
        probes += [
            (q, None)
            for q in rng.sample(touched, min(PROBE_STREAMED, len(touched)))
        ]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return Plan(warmup=warmup, timed=timed, rate=rate, probes=probes)
