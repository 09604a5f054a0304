"""Reader/writer for the public AOL query-log TSV format.

The 2006 AOL research collection ships as tab-separated files with header::

    AnonID\tQuery\tQueryTime\tItemRank\tClickURL

One row per (query submission, click) pair; a submission without a click has
empty ``ItemRank`` and ``ClickURL``.  The reproduction's synthetic generator
exports this exact layout (see :func:`write_aol`), so the same pipeline code
runs unchanged on the real public collection when it is available.
"""

from __future__ import annotations

import io
from collections.abc import Iterable
from itertools import islice
from pathlib import Path

from repro.logs.schema import QueryRecord, format_timestamp, parse_timestamp
from repro.logs.storage import QueryLog

__all__ = ["read_aol", "write_aol", "parse_aol_line", "AOL_HEADER"]

AOL_HEADER = "AnonID\tQuery\tQueryTime\tItemRank\tClickURL"


def parse_aol_line(line: str) -> QueryRecord | None:
    """Parse one AOL TSV row into a :class:`QueryRecord`.

    Returns ``None`` for the header, blank lines, and malformed rows (wrong
    column count, unparsable timestamp) — the skip rules of
    :func:`read_aol`, shared with the streaming file-tail source.
    """
    line = line.rstrip("\n")
    if not line or line.startswith("AnonID"):
        return None
    parts = line.split("\t")
    if len(parts) not in (3, 5):
        return None
    anon_id, query, query_time = parts[0], parts[1], parts[2]
    click_url = None
    if len(parts) == 5 and parts[4]:
        click_url = parts[4]
    try:
        timestamp = parse_timestamp(query_time)
    except ValueError:
        return None
    return QueryRecord(
        user_id=anon_id,
        query=query,
        timestamp=timestamp,
        clicked_url=click_url,
    )


def _open_text(source: str | Path | io.TextIOBase, mode: str):
    if isinstance(source, io.TextIOBase):
        return source, False
    return open(source, mode, encoding="utf-8"), True


def read_aol(
    source: str | Path | io.TextIOBase, max_records: int | None = None
) -> QueryLog:
    """Parse an AOL-format TSV into a :class:`QueryLog`.

    Malformed rows (wrong column count, unparsable timestamp) are skipped —
    the public collection contains a handful of such rows.  ``max_records``
    truncates the read to that many parsed records (0 reads none), which
    is useful for sampling the 36M-row collection; a negative value raises
    ``ValueError``.
    """
    if max_records is not None and max_records < 0:
        raise ValueError(f"max_records must be >= 0, got {max_records}")
    handle, should_close = _open_text(source, "r")
    try:
        parsed = map(parse_aol_line, handle)
        records = list(
            islice((r for r in parsed if r is not None), max_records)
        )
    finally:
        if should_close:
            handle.close()
    return QueryLog(records)


def write_aol(
    log: QueryLog | Iterable[QueryRecord],
    destination: str | Path | io.TextIOBase,
) -> int:
    """Write records in AOL TSV layout; return the number of rows written.

    Click rows carry ``ItemRank`` 1 (the collection's rank information is not
    modelled by this reproduction); no-click rows have empty rank and URL
    columns, exactly like the public files.
    """
    handle, should_close = _open_text(destination, "w")
    written = 0
    try:
        handle.write(AOL_HEADER + "\n")
        for record in log:
            stamp = format_timestamp(record.timestamp)
            if record.clicked_url is not None:
                row = f"{record.user_id}\t{record.query}\t{stamp}\t1\t{record.clicked_url}"
            else:
                row = f"{record.user_id}\t{record.query}\t{stamp}\t\t"
            handle.write(row + "\n")
            written += 1
    finally:
        if should_close:
            handle.close()
    return written
