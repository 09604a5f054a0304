"""Equivalence of the serving fast path with the string-rebuild slow path.

``BipartiteMatrices.restrict(ordinals)`` must produce matrices numerically
identical to ``build_matrices(multibipartite.restrict_queries(...))`` over
the same query set — this is what lets the online pipeline skip the string
rebuilding entirely.
"""

import numpy as np
import pytest

from repro.graphs.compact import CompactConfig, RandomWalkExpander
from repro.graphs.matrices import build_matrices
from repro.graphs.multibipartite import BIPARTITE_KINDS, build_multibipartite
from repro.logs.sessionizer import sessionize
from repro.synth.generator import GeneratorConfig, generate_log
from repro.synth.world import make_world

MATRIX_NAMES = ("incidence", "affinity", "transition")


@pytest.fixture(scope="module")
def graph():
    world = make_world(seed=0)
    synthetic = generate_log(
        world,
        GeneratorConfig(n_users=25, mean_sessions_per_user=8, seed=11),
    )
    mb = build_multibipartite(synthetic.log, sessionize(synthetic.log))
    expander = RandomWalkExpander(mb)
    return mb, expander


def _expanded_ordinals(graph, seed_ordinals, size=40):
    expander = graph[1]
    full = expander.matrices
    seeds = {full.queries[i]: 1.0 for i in seed_ordinals}
    chosen = expander.expand(seeds, CompactConfig(size=size))
    return sorted(full.query_index[q] for q in chosen)


def _restricted_pair(graph, ordinals):
    mb, expander = graph
    full = expander.matrices
    fast = full.restrict(ordinals)
    slow = build_matrices(
        mb.restrict_queries([full.queries[i] for i in ordinals])
    )
    return fast, slow


class TestFastRestrictEquivalence:
    def test_matrices_identical_over_random_seed_sets(self, graph):
        full = graph[1].matrices
        rng = np.random.default_rng(3)
        ordinal_sets = [
            _expanded_ordinals(
                graph,
                [int(i) for i in rng.choice(full.n_queries, 3, replace=False)],
            )
            for _ in range(5)
        ]
        # A spread-out set whose slices drop many facet columns, so the
        # compact gram rests on the column renumbering.
        ordinal_sets.append(list(range(0, full.n_queries, 7)))
        for ordinals in ordinal_sets:
            fast, slow = _restricted_pair(graph, ordinals)
            assert fast.queries == slow.queries
            assert fast.query_index == slow.query_index
            for kind in BIPARTITE_KINDS:
                for name in MATRIX_NAMES:
                    a = getattr(fast, name)[kind]
                    b = getattr(slow, name)[kind]
                    assert a.shape == b.shape, (name, kind)
                    assert np.array_equal(a.toarray(), b.toarray()), (
                        name,
                        kind,
                    )

    def test_restrict_without_cached_gram(self, graph):
        # restrict carries no cached gram: the compact gram is the
        # product of its own incidence slice, and must equal the
        # row+column slice of the full W W^T, entry for entry.
        full = graph[1].matrices
        for ordinals in (
            _expanded_ordinals(graph, [0, 5]),
            list(range(0, full.n_queries, 7)),
        ):
            compact = full.restrict(ordinals)
            for kind in BIPARTITE_KINDS:
                w = full.incidence[kind]
                expected = (w @ w.T).tocsr()[ordinals][:, ordinals]
                expected.sort_indices()
                w_c = compact.incidence[kind]
                got = (w_c @ w_c.T).tocsr()
                got.sort_indices()
                assert np.array_equal(got.indptr, expected.indptr), kind
                assert np.array_equal(got.indices, expected.indices), kind
                assert np.array_equal(got.data, expected.data), kind

    def test_restrict_validates_ordinals(self, graph):
        full = graph[1].matrices
        with pytest.raises(ValueError):
            full.restrict([])
        with pytest.raises(ValueError):
            full.restrict([-1])
        with pytest.raises(ValueError):
            full.restrict([full.n_queries])

    def test_restricted_transitions_substochastic(self, graph):
        fast, _ = _restricted_pair(graph, _expanded_ordinals(graph, [0, 5]))
        for kind in BIPARTITE_KINDS:
            sums = np.asarray(fast.transition[kind].sum(axis=1)).ravel()
            assert (sums <= 1.0 + 1e-9).all()
