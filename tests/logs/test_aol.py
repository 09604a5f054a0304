"""Tests for repro.logs.aol (AOL TSV round-trip)."""

import io

import pytest

from repro.logs.aol import AOL_HEADER, read_aol, write_aol
from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog


def sample_log():
    return QueryLog(
        [
            QueryRecord("142", "sun java", 1355310781.0, "www.java.com"),
            QueryRecord("142", "jvm download", 1355310861.0, None),
            QueryRecord("977", "solar cell", 1355382861.0, "en.wikipedia.org"),
        ]
    )


class TestWriteAol:
    def test_header_written(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        assert buffer.getvalue().splitlines()[0] == AOL_HEADER

    def test_row_count_returned(self):
        assert write_aol(sample_log(), io.StringIO()) == 3

    def test_noclick_row_has_empty_columns(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        noclick = buffer.getvalue().splitlines()[2]
        assert noclick.endswith("\t\t")
        assert noclick.count("\t") == 4

    def test_click_row_has_rank_and_url(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        click = buffer.getvalue().splitlines()[1]
        parts = click.split("\t")
        assert parts[3] == "1"
        assert parts[4] == "www.java.com"


class TestReadAol:
    def test_roundtrip(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        buffer.seek(0)
        log = read_aol(buffer)
        assert len(log) == 3
        assert log[0].query == "sun java"
        assert log[0].clicked_url == "www.java.com"
        assert log[1].clicked_url is None
        assert log[0].timestamp == 1355310781.0

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "aol.txt"
        write_aol(sample_log(), path)
        log = read_aol(path)
        assert len(log) == 3

    def test_max_records(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        buffer.seek(0)
        assert len(read_aol(buffer, max_records=2)) == 2

    def test_max_records_zero_reads_nothing(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        buffer.seek(0)
        assert len(read_aol(buffer, max_records=0)) == 0

    def test_negative_max_records_rejected(self):
        buffer = io.StringIO()
        write_aol(sample_log(), buffer)
        buffer.seek(0)
        with pytest.raises(ValueError, match="max_records"):
            read_aol(buffer, max_records=-5)

    def test_malformed_rows_skipped(self):
        text = "\n".join(
            [
                AOL_HEADER,
                "1\tsun\t2006-03-01 10:00:00\t1\twww.sun.com",
                "garbage row without tabs",
                "2\tsun\tnot-a-date\t\t",
                "3\tmoon\t2006-03-01 11:00:00\t\t",
                "",
            ]
        )
        log = read_aol(io.StringIO(text))
        assert len(log) == 2
        assert {r.user_id for r in log} == {"1", "3"}

    def test_three_column_variant_accepted(self):
        # Some AOL extracts omit the two click columns on no-click rows.
        text = AOL_HEADER + "\n5\tsun java\t2006-03-01 10:00:00\n"
        log = read_aol(io.StringIO(text))
        assert len(log) == 1
        assert log[0].clicked_url is None

    def test_headerless_file(self):
        text = "7\tsun\t2006-03-01 10:00:00\t1\twww.sun.com\n"
        log = read_aol(io.StringIO(text))
        assert len(log) == 1
