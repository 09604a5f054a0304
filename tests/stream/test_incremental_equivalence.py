"""Incremental ingestion must be *bit-identical* to a one-shot batch build.

The streaming layer's core guarantee (ISSUE 2 satellite a): replaying a log
through ``StreamState`` in micro-batches — any batch size, including one
record at a time — produces exactly the same bipartite weights, cfiqf
values, matrix structures and suggestion rankings as ``build_matrices`` /
``PQSDA.build`` over the same records.  Equality is asserted on raw arrays
(``array_equal``, no tolerance): the patch path performs the same IEEE
operations on the same operands as the batch path.
"""

import numpy as np
import pytest

from repro.core import PQSDA, PQSDAConfig
from repro.diversify.candidates import DiversifyConfig
from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.matrices import build_matrices
from repro.graphs.multibipartite import BIPARTITE_KINDS, build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.logs.storage import QueryLog
from repro.stream import StreamState
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world


@pytest.fixture(scope="module")
def synthetic_log():
    world = make_world(seed=0)
    return generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    ).log


@pytest.fixture(scope="module")
def ordered_records(synthetic_log):
    """The batch sessionizer's arrival order: (timestamp, record_id)."""
    return sorted(
        synthetic_log.records, key=lambda r: (r.timestamp, r.record_id)
    )


@pytest.fixture(scope="module")
def batch_matrices(synthetic_log):
    sessions = sessionize(synthetic_log)
    multibipartite = build_multibipartite(
        synthetic_log, sessions, weighted=True
    )
    return build_matrices(multibipartite)


def _replay(records, batch_size, snapshot_every=1):
    """Stream *records* through a fresh state; return the final snapshot."""
    state = StreamState()
    snapshot = None
    batches = 0
    for lo in range(0, len(records), batch_size):
        state.apply(records[lo : lo + batch_size])
        batches += 1
        if batches % snapshot_every == 0:
            snapshot = state.build_snapshot()
    if state.n_pending:
        snapshot = state.build_snapshot()
    return snapshot


def _assert_csr_identical(a, b, label):
    assert a.shape == b.shape, label
    assert np.array_equal(a.indptr, b.indptr), label
    assert np.array_equal(a.indices, b.indices), label
    assert np.array_equal(a.data, b.data), label
    assert a.indices.dtype == b.indices.dtype, label


class TestMatrixEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 7, 64, 10_000])
    def test_bit_identical_to_batch_build(
        self, ordered_records, batch_matrices, batch_size
    ):
        snapshot = _replay(ordered_records, batch_size)
        stream = snapshot.matrices
        assert stream.queries == batch_matrices.queries
        assert stream.query_index == batch_matrices.query_index
        for kind in BIPARTITE_KINDS:
            _assert_csr_identical(
                batch_matrices.incidence[kind],
                stream.incidence[kind],
                f"incidence[{kind}] batch_size={batch_size}",
            )
            _assert_csr_identical(
                batch_matrices.affinity[kind],
                stream.affinity[kind],
                f"affinity[{kind}] batch_size={batch_size}",
            )

    def test_snapshot_cadence_does_not_matter(
        self, ordered_records, batch_matrices
    ):
        """Patching through many intermediate epochs ends at the same bits."""
        snapshot = _replay(ordered_records, batch_size=16, snapshot_every=3)
        for kind in BIPARTITE_KINDS:
            _assert_csr_identical(
                batch_matrices.incidence[kind],
                snapshot.matrices.incidence[kind],
                f"incidence[{kind}] cadence",
            )

    @pytest.mark.parametrize("weighted", [True, False], ids=["cfiqf", "raw"])
    def test_every_epoch_matches_batch_over_its_prefix(
        self, ordered_records, weighted
    ):
        """Each intermediate snapshot, not only the last, is a batch build."""
        state = StreamState(weighted=weighted)
        for end in range(48, len(ordered_records) + 48, 48):
            prefix = ordered_records[:end]
            state.apply(prefix[end - 48 :])
            stream = state.build_snapshot().matrices
            log = QueryLog(prefix)
            batch = build_matrices(
                build_multibipartite(log, sessionize(log), weighted=weighted)
            )
            assert stream.queries == batch.queries, end
            for kind in BIPARTITE_KINDS:
                for name in ("incidence", "affinity"):
                    _assert_csr_identical(
                        getattr(batch, name)[kind],
                        getattr(stream, name)[kind],
                        f"{name}[{kind}] after {len(prefix)} records",
                    )

    def test_raw_weighting_equivalence(self, synthetic_log, ordered_records):
        """The raw (non-cfiqf) ablation streams bit-identically too."""
        sessions = sessionize(synthetic_log)
        batch = build_matrices(
            build_multibipartite(synthetic_log, sessions, weighted=False)
        )
        state = StreamState(weighted=False)
        state.apply(ordered_records)
        stream = state.build_snapshot().matrices
        for kind in BIPARTITE_KINDS:
            _assert_csr_identical(
                batch.incidence[kind],
                stream.incidence[kind],
                f"raw incidence[{kind}]",
            )


class TestRepresentationEquivalence:
    def test_bipartite_weights_match_batch(
        self, synthetic_log, ordered_records
    ):
        """The raw bipartite edge dicts match the batch builder's exactly."""
        sessions = sessionize(synthetic_log)
        batch_mb = build_multibipartite(
            synthetic_log, sessions, weighted=False
        )
        state = StreamState(weighted=False)
        state.apply(ordered_records)
        stream_mb = state.build_snapshot().multibipartite
        for kind in BIPARTITE_KINDS:
            batch_bipartite = batch_mb.bipartite(kind)
            stream_bipartite = stream_mb.bipartite(kind)
            assert batch_bipartite.queries == stream_bipartite.queries
            for query in batch_bipartite.queries:
                assert batch_bipartite.facets_of(
                    query
                ) == stream_bipartite.facets_of(query), (kind, query)


class TestSuggestionEquivalence:
    @pytest.mark.parametrize("batch_size", [1, 32])
    def test_rankings_match_batch_build(
        self, synthetic_log, ordered_records, batch_size
    ):
        config = PQSDAConfig(
            compact=CompactConfig(size=60),
            diversify=DiversifyConfig(k=8, candidate_pool=15),
            personalize=False,
        )
        batch_suggester = PQSDA.build(synthetic_log, config=config)
        snapshot = _replay(ordered_records, batch_size)
        # The streaming multibipartite holds raw counts; the cfiqf weights
        # live in the patched matrices, so the expander must come from them.
        stream_suggester = PQSDA.build(
            snapshot.log,
            sessions=[],
            config=config,
            multibipartite=snapshot.multibipartite,
            expander=RandomWalkExpander(
                snapshot.multibipartite, matrices=snapshot.matrices
            ),
        )
        probes = [
            record.query
            for record in ordered_records[:25]
            if record.has_click
        ]
        assert probes
        for probe in probes:
            assert batch_suggester.suggest(probe, k=8) == (
                stream_suggester.suggest(probe, k=8)
            ), probe


class TestLogEquivalence:
    def test_streamed_log_matches_batch_log(
        self, synthetic_log, ordered_records
    ):
        state = StreamState()
        for lo in range(0, len(ordered_records), 50):
            state.apply(ordered_records[lo : lo + 50])
        log = state.build_snapshot().log
        assert len(log) == len(synthetic_log)
        assert sorted(log.unique_queries) == sorted(
            synthetic_log.unique_queries
        )
        for streamed, original in zip(log.records, ordered_records):
            assert streamed.user_id == original.user_id
            assert streamed.query == original.query
            assert streamed.timestamp == original.timestamp
            assert streamed.clicked_url == original.clicked_url
