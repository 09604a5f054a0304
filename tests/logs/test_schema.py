"""Tests for repro.logs.schema."""

from dataclasses import replace
from datetime import datetime, timezone

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.logs import schema
from repro.logs.schema import (
    QueryRecord,
    Session,
    format_timestamp,
    parse_timestamp,
)


def record(user="u1", query="sun", ts=0.0, url=None):
    return QueryRecord(user_id=user, query=query, timestamp=ts, clicked_url=url)


def _strptime_reference(text):
    dt = datetime.strptime(text, "%Y-%m-%d %H:%M:%S")
    return dt.replace(tzinfo=timezone.utc).timestamp()


def _outcome(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


#: Non-ASCII decimal digits: Arabic-Indic and fullwidth.
_DIGITS = (
    "".join(chr(0x0660 + i) for i in range(10)),
    "".join(chr(0xFF10 + i) for i in range(10)),
)
#: Per field (year, month, day, hour, minute, second): values just out
#: of range.
_OUT_OF_RANGE = ((0,), (0, 13), (0, 30, 32), (24,), (60,), (60, 61))


@st.composite
def timestamp_texts(draw):
    """Canonical ``YYYY-MM-DD HH:MM:SS`` strings and near misses of them.

    Up to two drawn perturbations move one field out of range (day 30
    lands on February), unpad one field, change the separator, append a
    fractional or zone tail, write one field in non-ASCII digits or add
    surrounding whitespace; with none drawn the string is canonical.
    """
    values = [
        # Below 1000 the year's zero padding matters.
        draw(st.integers(1, 999) | st.integers(1000, 9999)),
        draw(st.integers(1, 12)),
        draw(st.integers(1, 31)),
        draw(st.integers(0, 23)),
        draw(st.integers(0, 59)),
        draw(st.integers(0, 59)),
    ]
    perturb = draw(st.sets(st.sampled_from(
        ["range", "unpad", "separator", "tail", "digits", "whitespace"]
    ), max_size=2))
    if "range" in perturb:
        field = draw(st.integers(0, 5))
        values[field] = draw(st.sampled_from(_OUT_OF_RANGE[field]))
        if values[2] == 30:
            values[1] = 2
    fields = [f"{values[0]:04d}"] + [f"{value:02d}" for value in values[1:]]
    if "unpad" in perturb:
        field = draw(st.integers(0, 5))
        fields[field] = str(values[field])
    if "digits" in perturb:
        field = draw(st.integers(0, 5))
        digits = str.maketrans("0123456789", draw(st.sampled_from(_DIGITS)))
        fields[field] = fields[field].translate(digits)
    separator = " "
    if "separator" in perturb:
        separator = draw(st.sampled_from(["T", "  ", "\t", "_"]))
    text = "-".join(fields[:3]) + separator + ":".join(fields[3:])
    if "tail" in perturb:
        text += draw(st.sampled_from([".5", ".000001", ",25", "Z", ":00"]))
    if "whitespace" in perturb:
        pad = st.sampled_from(["", " ", "\t", "\n"])
        text = draw(pad) + text + draw(pad)
    return text


class TestTimestamps:
    def test_roundtrip(self):
        text = "2012-12-12 11:12:41"
        assert format_timestamp(parse_timestamp(text)) == text

    def test_paper_table1_order(self):
        t1 = parse_timestamp("2012-12-12 11:12:41")
        t2 = parse_timestamp("2012-12-12 11:13:01")
        assert t2 - t1 == 20

    def test_bad_format_raises(self):
        with pytest.raises(ValueError):
            parse_timestamp("12/12/2012")

    @settings(max_examples=300)
    @given(timestamp_texts())
    @example("2006-02-30 00:00:00")
    @example("2004-02-29 23:59:59")
    @example("2006-13-01 00:00:00")
    @example("2006-01-01 24:00:00")
    @example("2006-01-01 00:00:60")
    @example("2006-01-01 00:00:61")
    @example("0000-01-01 00:00:00")
    @example("0001-01-01 00:00:00")
    @example("2006-3-1 1:2:3")
    @example("999-01-01 00:00:00")
    @example("2006-03-01T12:34:56")
    @example("2006-03-01 12:34:56.5")
    @example(" 2006-03-01 12:34:56")
    @example("2006-03-01 12:34:56\n")
    @example("\u0662\u0660\u0660\u0666-03-01 12:34:56")
    def test_matches_strptime(self, text):
        """Same float, or ``ValueError`` from both, for every input."""
        assert _outcome(parse_timestamp, text) == _outcome(
            _strptime_reference, text
        )

    def test_canonical_form_skips_strptime(self, monkeypatch):
        class NoStrptime(datetime):
            @classmethod
            def strptime(cls, *args):
                raise AssertionError("strptime called")

        monkeypatch.setattr(schema, "datetime", NoStrptime)
        assert parse_timestamp("2012-12-12 11:12:41") == 1355310761.0
        with pytest.raises(AssertionError):
            parse_timestamp("2012-12-12T11:12:41")


class TestQueryRecord:
    def test_has_click(self):
        assert record(url="www.java.com").has_click
        assert not record().has_click

    def test_terms(self):
        assert record(query="the sun java").terms == ["sun", "java"]

    def test_with_record_id(self):
        base = record(url="www.java.com", ts=3.5)
        r = base.with_record_id(5)
        assert r.record_id == 5
        assert r == replace(base, record_id=5)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            record().query = "other"  # type: ignore[misc]


class TestSession:
    def test_user_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            Session("s", "u1", [record(user="u2")])

    def test_queries_and_clicks(self):
        s = Session(
            "s",
            "u1",
            [record(query="sun", url="a.com"), record(query="sun java", ts=1)],
        )
        assert s.queries == ["sun", "sun java"]
        assert s.clicked_urls == ["a.com"]

    def test_times(self):
        s = Session("s", "u1", [record(ts=10), record(ts=30)])
        assert s.start_time == 10
        assert s.end_time == 30

    def test_empty_session_times_raise(self):
        s = Session("s", "u1", [])
        with pytest.raises(ValueError):
            _ = s.start_time
        with pytest.raises(ValueError):
            _ = s.end_time

    def test_search_context_definition2(self):
        # Paper Definition 2: in session [q1, q2, q3], the context of q2 is
        # {q1} and the context of q3 is {q1, q2}.
        r1, r2, r3 = record(ts=0), record(query="sun java", ts=1), record(
            query="jvm download", ts=2
        )
        s = Session("s", "u1", [r1, r2, r3])
        assert s.search_context(0) == []
        assert s.search_context(1) == [r1]
        assert s.search_context(2) == [r1, r2]

    def test_search_context_bounds(self):
        s = Session("s", "u1", [record()])
        with pytest.raises(IndexError):
            s.search_context(1)
        with pytest.raises(IndexError):
            s.search_context(-1)

    def test_len_and_iter(self):
        s = Session("s", "u1", [record(), record(ts=1)])
        assert len(s) == 2
        assert len(list(s)) == 2
