"""Tests for repro.logs.storage."""

from collections import Counter

import pytest

from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.utils.text import normalize_query, tokenize


class TestQueryLogBasics:
    def test_len_and_iteration(self, table1_log):
        assert len(table1_log) == 7
        assert len(list(table1_log)) == 7

    def test_record_ids_assigned(self, table1_log):
        assert [r.record_id for r in table1_log] == list(range(7))

    def test_getitem(self, table1_log):
        assert table1_log[0].query == "sun"

    def test_users_sorted(self, table1_log):
        assert table1_log.users == ["u1", "u2", "u3"]

    def test_records_of_user_ordered(self, table1_log):
        queries = [r.query for r in table1_log.records_of("u1")]
        assert queries == ["sun", "sun java", "jvm download"]

    def test_records_of_unknown_user(self, table1_log):
        assert table1_log.records_of("nobody") == []

    def test_repr_mentions_counts(self, table1_log):
        assert "records=7" in repr(table1_log)


class TestQueryLogIndexes:
    def test_unique_queries(self, table1_log):
        assert "sun" in table1_log.unique_queries
        assert len(table1_log.unique_queries) == 6  # "sun" appears twice

    def test_query_frequency(self, table1_log):
        assert table1_log.query_frequency("sun") == 2
        assert table1_log.query_frequency("SUN") == 2  # normalized lookup
        assert table1_log.query_frequency("absent") == 0

    def test_term_frequency(self, table1_log):
        # "sun" occurs as a term in: sun, sun java, sun (u2), sun oracle -> 4
        assert table1_log.term_frequency("sun") == 4
        assert table1_log.term_frequency("java") == 2

    def test_url_frequency(self, table1_log):
        assert table1_log.url_frequency("www.java.com") == 2
        assert table1_log.url_frequency("www.oracle.com") == 1

    def test_total_queries_is_Q(self, table1_log):
        assert table1_log.total_queries == 7

    def test_vocabulary_and_urls_sorted(self, table1_log):
        assert table1_log.vocabulary == sorted(table1_log.vocabulary)
        assert table1_log.urls == sorted(table1_log.urls)

    def test_time_range(self, table1_log):
        low, high = table1_log.time_range
        assert low < high


class TestQueryLogDerivation:
    def test_filter(self, table1_log):
        clicks_only = table1_log.filter(lambda r: r.has_click)
        assert len(clicks_only) == 6
        assert all(r.has_click for r in clicks_only)

    def test_filter_reassigns_ids(self, table1_log):
        subset = table1_log.filter(lambda r: r.user_id == "u3")
        assert [r.record_id for r in subset] == [0, 1]

    def test_restrict_users(self, table1_log):
        sub = table1_log.restrict_users(["u1", "u3"])
        assert sub.users == ["u1", "u3"]
        assert len(sub) == 5

    def test_empty_log(self):
        empty = QueryLog([])
        assert len(empty) == 0
        assert empty.users == []
        try:
            empty.time_range
        except ValueError:
            pass
        else:  # pragma: no cover
            raise AssertionError("expected ValueError")


class TestQueryLogExtend:
    """The documented extension path: ``extend`` builds, mutation is rejected."""

    def _new_records(self):
        return [
            QueryRecord(
                user_id="u1",
                query="solar flare",
                timestamp=1_355_400_000.0,
                clicked_url="space.example.com",
            ),
            QueryRecord(
                user_id="u4",
                query="sun",
                timestamp=1_355_400_100.0,
            ),
        ]

    def test_extend_returns_new_log(self, table1_log):
        extended = table1_log.extend(self._new_records())
        assert extended is not table1_log
        assert len(extended) == 9
        assert len(table1_log) == 7  # original untouched
        assert extended.users == ["u1", "u2", "u3", "u4"]

    def test_extend_continues_record_ids(self, table1_log):
        extended = table1_log.extend(self._new_records())
        assert [r.record_id for r in extended] == list(range(9))

    def test_extend_updates_indexes(self, table1_log):
        extended = table1_log.extend(self._new_records())
        assert extended.query_frequency("sun") == 3
        assert extended.query_frequency("solar flare") == 1
        assert extended.term_frequency("solar") == 2  # "solar cell" + new
        assert extended.url_frequency("space.example.com") == 1
        # The source log's indexes are unchanged.
        assert table1_log.query_frequency("sun") == 2
        assert table1_log.url_frequency("space.example.com") == 0

    def test_extend_keeps_per_user_time_order(self, table1_log):
        extended = table1_log.extend(self._new_records())
        for user in extended.users:
            stamps = [r.timestamp for r in extended.records_of(user)]
            assert stamps == sorted(stamps)

    def test_extend_empty_is_equivalent_copy(self, table1_log):
        extended = table1_log.extend([])
        assert len(extended) == len(table1_log)
        assert extended.unique_queries == table1_log.unique_queries

    def test_append_is_loudly_rejected(self, table1_log):
        record = self._new_records()[0]
        with pytest.raises(TypeError, match="immutable after construction"):
            table1_log.append(record)
        assert len(table1_log) == 7

    def test_records_property_is_defensive_copy(self, table1_log):
        records = table1_log.records
        records.clear()
        assert len(table1_log) == 7
        assert len(table1_log.records) == 7


def test_duplicate_rows_counted_independently():
    rows = [
        QueryRecord(user_id="u", query="sun", timestamp=float(i))
        for i in range(3)
    ]
    log = QueryLog(rows)
    assert log.query_frequency("sun") == 3
    assert log.total_queries == 3


def _row_by_row_counts(records):
    """The query and term counters as a one-row-at-a-time pass builds them."""
    queries: Counter[str] = Counter()
    terms: Counter[str] = Counter()
    for record in records:
        query = normalize_query(record.query)
        queries[query] += 1
        terms.update(set(tokenize(query)))
    return list(queries.items()), list(terms.items())


def test_counters_equal_a_row_by_row_pass():
    # Raw variants that normalize alike, repeats, shared and stopword
    # terms: counting per distinct query must keep values and key order.
    raw = ["Sun Java", "sun java!", "JVM", "the sun", "java  jvm", "JVM"]
    rows = [
        QueryRecord(user_id=f"u{i % 3}", query=raw[(i * 5) % 6],
                    timestamp=float(i))
        for i in range(30)
    ]
    log = QueryLog(rows[:17])
    assert (
        list(log._query_counts.items()),
        list(log._term_counts.items()),
    ) == _row_by_row_counts(rows[:17])
    extended = log.extend(rows[17:])
    assert (
        list(extended._query_counts.items()),
        list(extended._term_counts.items()),
    ) == _row_by_row_counts(rows)

