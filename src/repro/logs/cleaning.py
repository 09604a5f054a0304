"""Query-log cleaning in the spirit of Wang & Zhai (SIGIR 2007).

The paper (Sec. VI-A) cleans its raw commercial log "in a similar way as
[33]" before running any suggestion algorithm.  The published recipe removes
(1) navigational/empty noise rows, (2) extremely rare queries that carry no
co-occurrence signal, and (3) hyperactive robot-like users whose volume would
otherwise dominate every graph.  :func:`clean_log` implements that recipe with
explicit, testable thresholds and returns an auditable report.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.utils.text import normalize_query, tokenize

__all__ = ["CleaningRules", "CleaningReport", "clean_log"]


@dataclass(frozen=True, slots=True)
class CleaningRules:
    """Thresholds controlling :func:`clean_log`.

    Attributes:
        min_query_frequency: Drop queries issued fewer times than this across
            the whole log (rare queries have no graph neighbourhood).
        max_user_queries: Drop users with more rows than this (robot filter).
        min_query_terms: Drop queries with fewer topical terms than this after
            normalization (empty / pure-stopword queries).
        max_query_terms: Drop queries longer than this many terms (pasted
            text, not search queries).
        drop_urls: Specific URLs to treat as noise (e.g. search-engine
            self-links); clicks on them become no-click rows.
    """

    min_query_frequency: int = 1
    max_user_queries: int = 10_000
    min_query_terms: int = 1
    max_query_terms: int = 10
    drop_urls: frozenset[str] = frozenset()

    def __post_init__(self) -> None:
        if self.min_query_frequency < 1:
            raise ValueError("min_query_frequency must be >= 1")
        if self.max_user_queries < 1:
            raise ValueError("max_user_queries must be >= 1")
        if self.min_query_terms < 0:
            raise ValueError("min_query_terms must be >= 0")
        if self.max_query_terms < self.min_query_terms:
            raise ValueError("max_query_terms must be >= min_query_terms")


@dataclass(slots=True)
class CleaningReport:
    """What :func:`clean_log` removed and why."""

    input_records: int = 0
    output_records: int = 0
    dropped_empty: int = 0
    dropped_rare: int = 0
    dropped_long: int = 0
    dropped_robot_users: int = 0
    robot_users: list[str] = field(default_factory=list)
    declicked_urls: int = 0

    @property
    def dropped_total(self) -> int:
        """Total removed rows."""
        return self.input_records - self.output_records


def clean_log(
    log: QueryLog, rules: CleaningRules | None = None
) -> tuple[QueryLog, CleaningReport]:
    """Clean *log* per *rules*; return ``(cleaned_log, report)``.

    Queries are normalized (lower-case, punctuation stripped) in the output
    log.  The input log is never mutated.
    """
    if rules is None:
        rules = CleaningRules()
    report = CleaningReport(input_records=len(log))

    user_volume = Counter(record.user_id for record in log)
    robots = {u for u, n in user_volume.items() if n > rules.max_user_queries}
    report.robot_users = sorted(robots)

    # Each distinct raw query is normalized once, and each distinct
    # normalized query tokenized once.
    normalized_of: dict[str, str] = {}
    for record in log:
        if record.query not in normalized_of:
            normalized_of[record.query] = normalize_query(record.query)
    terms_of = {
        query: len(tokenize(query)) for query in set(normalized_of.values())
    }
    # Query frequency is counted over non-robot rows so that a robot hammering
    # one query cannot rescue it from the rare-query filter.
    frequency: Counter[str] = Counter(
        normalized_of[record.query]
        for record in log
        if record.user_id not in robots
    )

    kept: list[QueryRecord] = []
    for record in log:
        if record.user_id in robots:
            report.dropped_robot_users += 1
            continue
        normalized = normalized_of[record.query]
        n_terms = terms_of[normalized]
        if n_terms < rules.min_query_terms:
            report.dropped_empty += 1
            continue
        if n_terms > rules.max_query_terms:
            report.dropped_long += 1
            continue
        if frequency[normalized] < rules.min_query_frequency:
            report.dropped_rare += 1
            continue
        clicked = record.clicked_url
        if clicked is not None and clicked in rules.drop_urls:
            clicked = None
            report.declicked_urls += 1
        kept.append(
            QueryRecord(
                user_id=record.user_id,
                query=normalized,
                timestamp=record.timestamp,
                clicked_url=clicked,
            )
        )

    cleaned = QueryLog(kept)
    report.output_records = len(cleaned)
    return cleaned, report
