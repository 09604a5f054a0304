"""Record and session datatypes for search-engine query logs.

A :class:`QueryRecord` is one row of the paper's Table I; a :class:`Session`
is the paper's Definition 1 — a consecutive run of one user's queries serving
a single information need.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import datetime, timezone

from repro.utils.text import tokenize

__all__ = ["QueryRecord", "Session", "parse_timestamp", "format_timestamp"]

_TIMESTAMP_FORMAT = "%Y-%m-%d %H:%M:%S"
#: The canonical form :func:`format_timestamp` writes, ASCII digits only.
_CANONICAL_TIMESTAMP = re.compile(
    r"(\d{4})-(\d\d)-(\d\d) (\d\d):(\d\d):(\d\d)", re.ASCII
)


def parse_timestamp(text: str) -> float:
    """Parse a ``YYYY-MM-DD HH:MM:SS`` timestamp into epoch seconds (UTC).

    Accepts exactly what ``strptime`` accepts and returns the same float.
    The canonical zero-padded ASCII form, which every log row carries, is
    parsed without ``strptime``'s per-call locale and regex work; any
    other string (unpadded fields, extra whitespace, non-ASCII digits), or
    a canonical one with an out-of-range field, goes through ``strptime``,
    which parses it or raises its own ``ValueError``.
    """
    match = _CANONICAL_TIMESTAMP.fullmatch(text)
    if match is not None:
        try:
            return datetime(
                *map(int, match.groups()), tzinfo=timezone.utc
            ).timestamp()
        except ValueError:
            pass  # out of range: strptime raises its own error below
    dt = datetime.strptime(text, _TIMESTAMP_FORMAT).replace(tzinfo=timezone.utc)
    return dt.timestamp()


def format_timestamp(epoch_seconds: float) -> str:
    """Format epoch seconds as the log's ``YYYY-MM-DD HH:MM:SS`` (UTC)."""
    dt = datetime.fromtimestamp(epoch_seconds, tz=timezone.utc)
    return dt.strftime(_TIMESTAMP_FORMAT)


@dataclass(frozen=True, slots=True)
class QueryRecord:
    """One query-log row: who searched what, what they clicked, and when.

    Attributes:
        user_id: Anonymized user identifier.
        query: The raw query string as typed (normalize via cleaning).
        timestamp: Submission time in epoch seconds (UTC).
        clicked_url: The clicked URL, or ``None`` for a no-click row.
        record_id: Stable per-log row identifier (assigned by the store).
    """

    user_id: str
    query: str
    timestamp: float
    clicked_url: str | None = None
    record_id: int = -1

    @property
    def has_click(self) -> bool:
        """Whether this row recorded a click."""
        return self.clicked_url is not None

    @property
    def terms(self) -> list[str]:
        """The topical terms of the query (lower-cased, stopwords removed)."""
        return tokenize(self.query)

    def with_record_id(self, record_id: int) -> "QueryRecord":
        """Copy of this record with *record_id* assigned."""
        return QueryRecord(
            self.user_id, self.query, self.timestamp, self.clicked_url, record_id
        )


@dataclass(slots=True)
class Session:
    """A maximal run of one user's queries serving a single information need.

    The paper's Definition 1.  Sessions are produced by
    :func:`repro.logs.sessionizer.sessionize` (or come labelled from the
    synthetic generator, which knows the ground truth).
    """

    session_id: str
    user_id: str
    records: list[QueryRecord] = field(default_factory=list)

    def __post_init__(self) -> None:
        for record in self.records:
            if record.user_id != self.user_id:
                raise ValueError(
                    f"record user {record.user_id!r} does not match "
                    f"session user {self.user_id!r}"
                )

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    @property
    def queries(self) -> list[str]:
        """The query strings in submission order."""
        return [record.query for record in self.records]

    @property
    def clicked_urls(self) -> list[str]:
        """All clicked URLs in the session (clicks only, in order)."""
        return [r.clicked_url for r in self.records if r.clicked_url is not None]

    @property
    def start_time(self) -> float:
        """Timestamp of the first record (raises on an empty session)."""
        if not self.records:
            raise ValueError("empty session has no start time")
        return self.records[0].timestamp

    @property
    def end_time(self) -> float:
        """Timestamp of the last record (raises on an empty session)."""
        if not self.records:
            raise ValueError("empty session has no end time")
        return self.records[-1].timestamp

    def search_context(self, index: int) -> list[QueryRecord]:
        """The paper's Definition 2: records preceding position *index*.

        ``session.search_context(0)`` is empty; for the paper's example
        session ``[q1, q2, q3]``, ``search_context(2) == [q1, q2]``.
        """
        if not 0 <= index < len(self.records):
            raise IndexError(
                f"index {index} out of range for session of {len(self.records)}"
            )
        return self.records[:index]
