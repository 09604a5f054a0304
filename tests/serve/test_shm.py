"""Tests for the shared-memory matrix plane: zero-copy, parity, lifecycle."""

import os

import numpy as np
import pytest

from repro.core import PQSDA
from repro.graphs.multibipartite import BIPARTITE_KINDS
from repro.serve.shm import SharedMatrixStore, attach, hot_hash

from tests.serve.conftest import SERVE_CONFIG


@pytest.fixture()
def store(multibipartite, expander):
    store = SharedMatrixStore.publish(
        expander.matrices, expander, multibipartite, prefix="t-shm"
    )
    yield store
    store.unlink()
    store.close()


class TestRoundTrip:
    def test_matrices_identical(self, store, expander):
        plane = attach(store.meta)
        original = expander.matrices
        assert plane.matrices.queries == original.queries
        assert plane.matrices.query_index == original.query_index
        for kind in BIPARTITE_KINDS:
            for table in ("incidence", "gram"):
                ours = getattr(plane.matrices, table)[kind]
                theirs = getattr(original, table)[kind]
                assert ours.shape == theirs.shape
                assert np.array_equal(ours.indptr, theirs.indptr)
                assert np.array_equal(ours.indices, theirs.indices)
                assert np.array_equal(ours.data, theirs.data)
        plane.close()

    def test_walk_stacks_identical(self, store, expander):
        plane = attach(store.meta)
        for ours, theirs in zip(plane.expander.walk_stacks, expander.walk_stacks):
            assert np.array_equal(ours.data, theirs.tocsr().data)
            assert np.array_equal(ours.indices, theirs.tocsr().indices)
        plane.close()

    def test_views_are_shared_not_copies(self, store):
        plane = attach(store.meta)
        assert plane.shares_memory()
        plane.close()

    def test_views_are_read_only(self, store):
        plane = attach(store.meta)
        with pytest.raises(ValueError):
            plane.matrices.incidence["U"].data[0] = 99.0
        plane.close()

    def test_restrict_works_on_attached_matrices(self, store, expander):
        plane = attach(store.meta)
        chosen = list(range(10))
        ours = plane.matrices.restrict(chosen)
        theirs = expander.matrices.restrict(chosen)
        assert ours.queries == theirs.queries
        for kind in BIPARTITE_KINDS:
            assert np.array_equal(
                ours.affinity[kind].toarray(), theirs.affinity[kind].toarray()
            )
        plane.close()


class TestTermIndex:
    def test_queries_of_parity(self, store, multibipartite):
        plane = attach(store.meta)
        original = multibipartite.bipartite("T")
        shared = plane.representation.bipartite("T")
        assert shared.facets == original.facets
        for term in original.facets:
            assert shared.queries_of(term) == original.queries_of(term)
        plane.close()

    def test_facet_set_parity(self, store, multibipartite):
        plane = attach(store.meta)
        original = multibipartite.bipartite("T")
        shared = plane.representation.bipartite("T")
        for query in plane.representation.queries:
            assert shared.facet_set(query) == original.facet_set(query)
        assert shared.facet_set("never seen before") == frozenset()
        plane.close()

    def test_membership(self, store, multibipartite):
        plane = attach(store.meta)
        for query in multibipartite.queries[:5]:
            assert query in plane.representation
        assert "definitely not a logged query" not in plane.representation
        plane.close()

    def test_only_term_bipartite_is_exposed(self, store):
        plane = attach(store.meta)
        with pytest.raises(KeyError):
            plane.representation.bipartite("U")
        plane.close()

    def test_publish_without_multibipartite(self, expander):
        store = SharedMatrixStore.publish(
            expander.matrices, expander, prefix="t-shm-bare"
        )
        try:
            plane = attach(store.meta)
            assert not store.meta.has_term_index
            with pytest.raises(KeyError):
                plane.representation.bipartite("T")
            plane.close()
        finally:
            store.unlink()
            store.close()


class TestSuggestParity:
    def test_in_process_suggestions_identical(
        self, store, single_suggester, multibipartite
    ):
        plane = attach(store.meta)
        shared = PQSDA(plane.representation, plane.expander, None, SERVE_CONFIG)
        probes = multibipartite.queries[:15] + [
            "totally unseen query",
            multibipartite.queries[0].split()[0] + " unseen suffix",
        ]
        for query in probes:
            assert shared.suggest(query, k=8) == single_suggester.suggest(
                query, k=8
            )
        plane.close()


class TestHotTable:
    TABLE = {
        "alpha beta": ["suggestion one", "suggestion two"],
        "gamma": ["suggestion two", "shared string", "delta"],
        "empty ranking": [],
    }

    @pytest.fixture()
    def hot_store(self, multibipartite, expander):
        store = SharedMatrixStore.publish(
            expander.matrices,
            expander,
            multibipartite,
            prefix="t-shm-hot",
            hot_table=self.TABLE,
        )
        yield store
        store.unlink()
        store.close()

    def test_meta_reports_table(self, hot_store, store):
        assert hot_store.meta.has_hot_table
        assert hot_store.meta.n_hot == len(self.TABLE)
        assert not store.meta.has_hot_table
        assert store.meta.n_hot == 0

    def test_publisher_side_round_trip(self, hot_store):
        table = hot_store.hot_table()
        assert table.as_dict() == self.TABLE
        assert len(table) == len(self.TABLE)
        assert table.lookup("never packed") is None

    def test_attached_side_round_trip(self, hot_store):
        plane = attach(hot_store.meta)
        assert plane.hot_table is not None
        assert plane.hot_table.as_dict() == self.TABLE
        assert plane.hot_table.lookup("never packed") is None
        plane.close()

    def test_entries_sorted_by_stable_hash(self, hot_store):
        table = hot_store.hot_table()
        hashes = [hot_hash(query) for query in table.queries]
        assert hashes == sorted(hashes)

    def test_plane_without_table_has_none(self, store):
        assert store.hot_table() is None
        plane = attach(store.meta)
        assert plane.hot_table is None
        plane.close()


class TestLifecycle:
    def test_unlink_removes_dev_shm_entry(self, multibipartite, expander):
        store = SharedMatrixStore.publish(
            expander.matrices, expander, multibipartite, prefix="t-shm-life"
        )
        path = f"/dev/shm/{store.segment_name}"
        if not os.path.isdir("/dev/shm"):  # pragma: no cover - non-Linux
            pytest.skip("/dev/shm not available")
        assert os.path.exists(path)
        store.unlink()
        store.close()
        assert not os.path.exists(path)

    def test_unlink_is_idempotent(self, multibipartite, expander):
        store = SharedMatrixStore.publish(
            expander.matrices, expander, multibipartite, prefix="t-shm-idem"
        )
        store.unlink()
        store.unlink()
        store.close()

    def test_store_close_is_idempotent_and_composes_with_unlink(
        self, multibipartite, expander
    ):
        # The full teardown matrix: every interleaving of the publisher's
        # close()/unlink() must be safe to repeat — the pool's cleanup
        # paths (swap failure, close()) may each
        # run over a store another path already tore down.
        store = SharedMatrixStore.publish(
            expander.matrices, expander, multibipartite, prefix="t-shm-seq"
        )
        store.unlink()
        store.close()
        store.close()
        store.unlink()
        store.close()

    def test_close_is_idempotent(self, store):
        plane = attach(store.meta)
        plane.close()
        plane.close()
        assert plane.matrices is None

    def test_publish_requires_grams(self, expander):
        from dataclasses import replace

        stripped = replace(expander.matrices, gram=None)
        with pytest.raises(ValueError, match="gram"):
            SharedMatrixStore.publish(stripped, expander)
