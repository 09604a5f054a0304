"""Sharded streaming: per-shard delta folds, minimal epoch update sets.

The contract: a sharded :class:`StreamState` derives per-shard slices at
every snapshot that are bit-identical to slicing a batch rebuild over the
same record prefix, and — for deltas that add no queries — reports the
*minimal* update set, reusing the previous epoch's slice objects for
every shard whose bytes did not change.  The scale-out pool consumes that
set as independent per-shard segment swaps.
"""

import multiprocessing

import numpy as np
import pytest

from repro.graphs.multibipartite import BIPARTITE_KINDS
from repro.graphs.shard import ShardPlan, build_shard_slices, stitch_slices
from repro.logs.schema import QueryRecord
from repro.logs.storage import QueryLog
from repro.obs.registry import MetricsRegistry
from repro.stream.delta import StreamState
from repro.stream.epoch import Epoch, EpochManager
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world
from repro.utils.text import normalize_query

N_SHARDS = 4
_T0 = 1_700_000_000.0


@pytest.fixture(scope="module")
def records():
    synthetic = generate_log(
        make_world(seed=0),
        GeneratorConfig(n_users=40, mean_sessions_per_user=6, seed=7),
    )
    return sorted(
        synthetic.log.records, key=lambda r: (r.timestamp, r.record_id)
    )


@pytest.fixture(scope="module")
def split(records):
    cut = len(records) * 2 // 3
    return records[:cut], records[cut:]


def _bootstrapped(split, weighted=False, plan=None):
    state = StreamState(
        weighted=weighted, shard_plan=plan or ShardPlan.hashed(N_SHARDS)
    )
    state.apply(split[0])
    return state, state.build_snapshot()


def _same_shard_records(snapshot, tail, plan, shard_id, limit=25):
    """Tail records whose (known) query homes on *shard_id*."""
    known = set(snapshot.matrices.queries)
    picked = []
    for record in tail:
        query = normalize_query(record.query)
        if query in known and plan.shard_of(query) == shard_id:
            picked.append(record)
            if len(picked) >= limit:
                break
    return picked


def _assert_csr_equal(left, right):
    assert left.shape == right.shape
    assert np.array_equal(left.data, right.data)
    assert np.array_equal(
        np.asarray(left.indices, dtype=np.int64),
        np.asarray(right.indices, dtype=np.int64),
    )


def _assert_slices_match_batch(snapshot, plan):
    """Every streamed slice equals slicing the snapshot's full plane."""
    batch = build_shard_slices(snapshot.matrices, plan, snapshot.multibipartite)
    assert set(snapshot.shard_slices) == set(batch)
    for shard_id, theirs in batch.items():
        ours = snapshot.shard_slices[shard_id]
        assert ours.queries == theirs.queries
        assert np.array_equal(ours.rows, theirs.rows)
        assert ours.closed == theirs.closed
        assert (ours.gram is None) == (theirs.gram is None)
        for kind in BIPARTITE_KINDS:
            assert ours.facet_names[kind] == theirs.facet_names[kind]
            _assert_csr_equal(ours.incidence[kind], theirs.incidence[kind])
            if theirs.gram is not None:
                _assert_csr_equal(ours.gram[kind], theirs.gram[kind])


class TestDeltaBookkeeping:
    def test_touched_shards_label_the_touched_queries(self, split):
        plan = ShardPlan.hashed(N_SHARDS)
        state, _ = _bootstrapped(split, plan=plan)
        delta = state.apply(split[1][:30])
        assert delta.touched_shards == frozenset(
            plan.shard_of(query) for query in delta.touched_queries
        )

    def test_unsharded_state_reports_no_shards(self, split):
        state = StreamState(weighted=False)
        delta = state.apply(split[0][:30])
        assert delta.touched_shards == frozenset()
        assert state.build_snapshot().shard_updates is None


class TestSnapshotUpdates:
    def test_bootstrap_snapshot_forces_full_publish(self, split):
        _, snapshot = _bootstrapped(split)
        assert snapshot.shard_updates is None
        assert snapshot.shard_slices is not None
        assert len(snapshot.shard_slices) == N_SHARDS

    def test_single_shard_delta_yields_single_shard_update(self, split):
        plan = ShardPlan.hashed(N_SHARDS)
        state, s0 = _bootstrapped(split, plan=plan)
        target = next(
            shard_id
            for shard_id in range(N_SHARDS)
            if _same_shard_records(s0, split[1], plan, shard_id)
        )
        batch = _same_shard_records(s0, split[1], plan, target)
        delta = state.apply(batch)
        assert delta.touched_shards == frozenset([target])
        assert not delta.new_queries
        s1 = state.build_snapshot()
        assert set(s1.shard_updates) == {target}
        for shard_id in range(N_SHARDS):
            if shard_id == target:
                assert s1.shard_slices[shard_id] is not s0.shard_slices[shard_id]
            else:
                # Untouched shards are the previous epoch's very objects.
                assert s1.shard_slices[shard_id] is s0.shard_slices[shard_id]

    def test_new_queries_force_a_full_publish(self, split):
        state, s0 = _bootstrapped(split)
        known = set(s0.matrices.queries)
        novel = [
            r for r in split[1] if normalize_query(r.query) not in known
        ][:10]
        assert novel, "synthetic tail must introduce new queries"
        delta = state.apply(novel)
        assert delta.new_queries
        assert state.build_snapshot().shard_updates is None

    def test_cfiqf_weighting_updates_every_shard(self, split):
        # The epoch-level |Q| correction rescales every facet weight, so
        # weighted states legitimately republish all shards.
        plan = ShardPlan.hashed(N_SHARDS)
        state, s0 = _bootstrapped(split, weighted=True, plan=plan)
        target = next(
            shard_id
            for shard_id in range(N_SHARDS)
            if _same_shard_records(s0, split[1], plan, shard_id)
        )
        state.apply(_same_shard_records(s0, split[1], plan, target))
        s1 = state.build_snapshot()
        assert set(s1.shard_updates) == set(range(N_SHARDS))


class TestPerShardBitIdentity:
    def test_streamed_slices_match_batch_built_slices(self, split):
        plan = ShardPlan.hashed(N_SHARDS)
        state, s0 = _bootstrapped(split, plan=plan)
        known = set(s0.matrices.queries)
        safe = [r for r in split[1] if normalize_query(r.query) in known][:40]
        state.apply(safe)
        _assert_slices_match_batch(state.build_snapshot(), plan)

    @pytest.mark.parametrize("weighted", [False, True])
    @pytest.mark.parametrize("n_shards", [1, 2, 4])
    def test_each_epoch_matches_batch(self, split, n_shards, weighted):
        plan = ShardPlan.hashed(n_shards)
        state, s0 = _bootstrapped(split, weighted=weighted, plan=plan)
        _assert_slices_match_batch(s0, plan)
        tail = split[1]
        for lo in range(0, len(tail), 40):
            state.apply(tail[lo : lo + 40])
            _assert_slices_match_batch(state.build_snapshot(), plan)

    def test_stitched_slices_reassemble_the_snapshot_matrices(self, split):
        state, s0 = _bootstrapped(split)
        known = set(s0.matrices.queries)
        state.apply(
            [r for r in split[1] if normalize_query(r.query) in known][:40]
        )
        snapshot = state.build_snapshot()
        stitched = stitch_slices(snapshot.shard_slices)
        assert stitched.queries == snapshot.matrices.queries
        for kind in BIPARTITE_KINDS:
            _assert_csr_equal(
                stitched.incidence[kind], snapshot.matrices.incidence[kind]
            )


class TestDirtyShortCircuit:
    """Snapshots re-derive exactly the shards whose slices changed."""

    def test_untouched_snapshot_skips_slice_derivation(
        self, records, monkeypatch
    ):
        plan = ShardPlan.hashed(4)
        state = StreamState(weighted=False, shard_plan=plan)
        state.apply(records[:80])
        first = state.build_snapshot()

        import repro.stream.delta as delta_module

        def _boom(*args, **kwargs):
            raise AssertionError("slice derivation ran on an empty delta")

        monkeypatch.setattr(delta_module, "build_shard_slices", _boom)
        # Empty-query records grow the log but touch no shard; with raw
        # counts that leaves every slice byte-stable.
        state.apply(
            [
                QueryRecord(
                    user_id="u-blank",
                    query="???",
                    timestamp=_T0,
                    clicked_url=None,
                )
            ]
        )
        second = state.build_snapshot()
        assert second.shard_updates == {}
        for shard_id, piece in second.shard_slices.items():
            assert piece is first.shard_slices[shard_id]

    def test_foreign_impurity_rederives_flipped_shard(self):
        """A foreign edge that opens a closed shard must dirty it."""
        plan = ShardPlan.hashed(2)
        state = StreamState(weighted=False, shard_plan=plan)
        state.apply(
            [
                QueryRecord("u1", "alpha beam", _T0, clicked_url="http://a"),
                QueryRecord("u2", "delta flux", _T0 + 1, clicked_url="http://d"),
            ]
        )
        base = state.build_snapshot()
        home = plan.shard_of("alpha beam")
        assert plan.shard_of("delta flux") != home
        assert all(piece.closed for piece in base.shard_slices.values())
        _assert_slices_match_batch(base, plan)
        # "alpha beam" clicking the other shard's URL impurifies that
        # column: the delta touches one shard, but both shards open.
        delta = state.apply(
            [QueryRecord("u1", "alpha beam", _T0 + 9, clicked_url="http://d")]
        )
        assert delta.touched_shards == frozenset([home])
        cross = state.build_snapshot()
        assert not any(piece.closed for piece in cross.shard_slices.values())
        assert set(cross.shard_updates) == {0, 1}
        _assert_slices_match_batch(cross, plan)


class TestEpochPlumbing:
    def test_epoch_carries_the_shard_fields(self, split):
        plan = ShardPlan.hashed(N_SHARDS)
        state, s0 = _bootstrapped(split, plan=plan)
        epoch0 = Epoch.from_snapshot(0, s0)
        assert epoch0.shard_plan == plan
        assert epoch0.shard_updates is None
        known = set(s0.matrices.queries)
        state.apply(
            [r for r in split[1] if normalize_query(r.query) in known][:20]
        )
        epoch1 = Epoch.from_snapshot(1, state.build_snapshot())
        assert epoch1.shard_plan == plan
        assert epoch1.shard_updates is not None

    def test_manager_counts_per_shard_publishes(self, split):
        state, s0 = _bootstrapped(split)
        registry = MetricsRegistry()
        manager = EpochManager(Epoch.from_snapshot(0, s0), registry=registry)
        known = set(s0.matrices.queries)
        state.apply(
            [r for r in split[1] if normalize_query(r.query) in known][:20]
        )
        epoch1 = Epoch.from_snapshot(1, state.build_snapshot())
        manager.publish(epoch1)
        snapshot = {
            (m["name"],): m.get("value")
            for m in registry.snapshot()["metrics"]
            if not m.get("labels")
        }
        assert snapshot[("stream.epochs.shard_publishes",)] == 1
        assert snapshot[("stream.epochs.shard_updates",)] == len(
            epoch1.shard_updates
        )


class TestEndToEndPoolSwap:
    def test_streamed_epoch_swaps_only_touched_shards(self, split):
        if "fork" not in multiprocessing.get_all_start_methods():
            pytest.skip("fork start method unavailable")
        from repro.baselines.base import SuggestRequest
        from repro.core.config import PQSDAConfig
        from repro.serve.pool import SuggestWorkerPool
        from repro.stream import streaming_pqsda

        plan = ShardPlan.hashed(N_SHARDS)
        config = PQSDAConfig(weighted=False, personalize=False)
        suggester, ingestor, manager = streaming_pqsda(
            QueryLog(tuple(split[0])), config=config, shard_plan=plan
        )
        epoch0 = manager.current()
        target = next(
            shard_id
            for shard_id in range(N_SHARDS)
            if _same_shard_records(epoch0, split[1], plan, shard_id)
        )
        batch = _same_shard_records(epoch0, split[1], plan, target)
        pool = SuggestWorkerPool(
            epoch0.expander,
            config,
            multibipartite=epoch0.multibipartite,
            n_workers=2,
            start_method="fork",
            n_shards=N_SHARDS,
            shard_plan=plan,
            prefix="t-shstream",
        )
        try:
            pool.attach_epochs(manager)
            before_ids = dict(pool.shard_epoch_ids)
            ingestor.ingest(iter(batch))
            epoch = manager.current()
            assert set(epoch.shard_updates) == {target}
            after_ids = dict(pool.shard_epoch_ids)
            assert after_ids[target] == epoch.epoch_id
            for shard_id in range(N_SHARDS):
                if shard_id != target:
                    assert after_ids[shard_id] == before_ids[shard_id]
            requests = [
                SuggestRequest(query=query, k=8)
                for query in epoch.matrices.queries[:12]
            ]
            expected = [
                suggester.suggest(r.query, k=r.k) for r in requests
            ]
            assert pool.suggest_many(requests) == expected
        finally:
            pool.close()
