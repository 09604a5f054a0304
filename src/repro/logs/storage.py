"""In-memory query-log store with the per-entity indexes the algorithms need.

:class:`QueryLog` is the single handle the rest of the library takes for raw
log data.  It assigns stable ``record_id``\\ s, maintains per-user ordering,
and exposes the frequency indexes (query, term, URL) that the multi-bipartite
weighting of Sec. III consumes.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Iterable, Iterator

from repro.logs.schema import QueryRecord
from repro.utils.text import normalize_query, tokenize

__all__ = ["QueryLog"]


class QueryLog:
    """An immutable collection of query records.

    Records are stored in timestamp order per user (the global order is the
    input order).  All analytics — unique queries, vocabularies, click counts
    — are computed once at construction.

    A log never changes after construction; growing a log produces a *new*
    log.  :meth:`extend` is the supported extension path — it appends fresh
    records without re-scanning the existing ones, which is what the
    streaming ingestion layer (:mod:`repro.stream`) leans on to fold live
    traffic into epoch snapshots.  In-place mutation is loudly rejected:
    :meth:`append` raises, and :attr:`records` returns a defensive copy so
    the internal indexes cannot be corrupted from outside.
    """

    def __init__(self, records: Iterable[QueryRecord]) -> None:
        self._records: list[QueryRecord] = []
        for record in records:
            self._records.append(record.with_record_id(len(self._records)))

        self._by_user: dict[str, list[QueryRecord]] = defaultdict(list)
        self._query_counts: Counter[str] = Counter()
        self._term_counts: Counter[str] = Counter()
        self._url_counts: Counter[str] = Counter()
        self._count(self._records)
        for record in self._records:
            self._by_user[record.user_id].append(record)
        for user_records in self._by_user.values():
            user_records.sort(key=lambda r: (r.timestamp, r.record_id))

    def _count(self, records: list[QueryRecord]) -> None:
        """Fold *records* into the query, term and URL counters.

        Each distinct raw query is normalized once and each distinct
        normalized query tokenized once; its terms are counted once,
        weighted by its row count.  Keys still enter every counter in
        first-occurrence order, as a row-by-row pass would insert them.
        """
        rows: Counter[str] = Counter()
        for raw, n in Counter(record.query for record in records).items():
            rows[normalize_query(raw)] += n
        for query, n in rows.items():
            self._query_counts[query] += n
            for term in set(tokenize(query)):
                self._term_counts[term] += n
        for record in records:
            if record.clicked_url is not None:
                self._url_counts[record.clicked_url] += 1

    # -- basic container protocol -------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[QueryRecord]:
        return iter(self._records)

    def __getitem__(self, record_id: int) -> QueryRecord:
        return self._records[record_id]

    def __repr__(self) -> str:
        return (
            f"QueryLog(records={len(self._records)}, users={len(self._by_user)}, "
            f"unique_queries={len(self._query_counts)})"
        )

    # -- accessors ---------------------------------------------------------------

    @property
    def records(self) -> list[QueryRecord]:
        """All records in insertion order (a copy; the log is immutable)."""
        return list(self._records)

    @property
    def users(self) -> list[str]:
        """Distinct user ids, sorted for determinism."""
        return sorted(self._by_user)

    def records_of(self, user_id: str) -> list[QueryRecord]:
        """One user's records in timestamp order (empty list if unknown)."""
        return list(self._by_user.get(user_id, []))

    @property
    def unique_queries(self) -> list[str]:
        """Distinct normalized query strings, sorted for determinism."""
        return sorted(self._query_counts)

    def query_frequency(self, query: str) -> int:
        """How many log rows issued *query* (after normalization)."""
        return self._query_counts[normalize_query(query)]

    def term_frequency(self, term: str) -> int:
        """How many distinct query submissions contained *term*."""
        return self._term_counts[term]

    def url_frequency(self, url: str) -> int:
        """How many rows clicked *url*."""
        return self._url_counts[url]

    @property
    def vocabulary(self) -> list[str]:
        """Distinct query terms, sorted for determinism."""
        return sorted(self._term_counts)

    @property
    def urls(self) -> list[str]:
        """Distinct clicked URLs, sorted for determinism."""
        return sorted(self._url_counts)

    @property
    def total_queries(self) -> int:
        """Total query submissions ``|Q|`` — the numerator of Eqs. 1-3."""
        return len(self._records)

    @property
    def time_range(self) -> tuple[float, float]:
        """(min, max) record timestamp; raises on an empty log."""
        if not self._records:
            raise ValueError("empty log has no time range")
        stamps = [record.timestamp for record in self._records]
        return min(stamps), max(stamps)

    # -- derived logs --------------------------------------------------------------

    def append(self, record: QueryRecord) -> None:
        """Unsupported: a :class:`QueryLog` is immutable after construction.

        Raises ``TypeError`` pointing at :meth:`extend`, the documented way
        to grow a log (it returns a new log and leaves this one untouched).
        """
        raise TypeError(
            "QueryLog is immutable after construction; use "
            "QueryLog.extend(records), which returns a new log"
        )

    def extend(self, records: Iterable[QueryRecord]) -> "QueryLog":
        """New log with *records* appended after this log's records.

        Equivalent to ``QueryLog(self.records + list(records))`` but
        incremental: existing indexes are copied and only the new records
        are scanned, so the cost is ``O(existing + new)`` pointer work plus
        ``O(new)`` analysis instead of a full re-scan.  Record ids continue
        this log's sequence; the original log is not modified.  This is the
        extension path the streaming layer (:mod:`repro.stream`) uses to
        snapshot the cumulative log per epoch.
        """
        appended: list[QueryRecord] = []
        for record in records:
            appended.append(
                record.with_record_id(len(self._records) + len(appended))
            )

        clone = QueryLog.__new__(QueryLog)
        clone._records = self._records + appended
        clone._query_counts = self._query_counts.copy()
        clone._term_counts = self._term_counts.copy()
        clone._url_counts = self._url_counts.copy()
        # Copy-on-write per-user lists: untouched users share this log's
        # (never-mutated) lists; only users with new records get a fresh,
        # re-sorted list — the same (timestamp, record_id) order the batch
        # constructor produces.
        clone._by_user = defaultdict(list, self._by_user)
        clone._count(appended)
        fresh: dict[str, list[QueryRecord]] = {}
        for record in appended:
            fresh.setdefault(record.user_id, []).append(record)
        for user_id, new_records in fresh.items():
            merged = list(self._by_user.get(user_id, [])) + new_records
            merged.sort(key=lambda r: (r.timestamp, r.record_id))
            clone._by_user[user_id] = merged
        return clone

    def filter(self, predicate) -> "QueryLog":
        """New :class:`QueryLog` of the records satisfying *predicate*.

        Record ids are re-assigned in the new log.
        """
        return QueryLog(
            QueryRecord(
                user_id=r.user_id,
                query=r.query,
                timestamp=r.timestamp,
                clicked_url=r.clicked_url,
            )
            for r in self._records
            if predicate(r)
        )

    def restrict_users(self, user_ids: Iterable[str]) -> "QueryLog":
        """New log containing only the given users' records."""
        wanted = set(user_ids)
        return self.filter(lambda record: record.user_id in wanted)
