"""Tests for repro.graphs.weighting (Eqs. 1-6)."""

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.graphs.bipartite import Bipartite
from repro.graphs.weighting import apply_cfiqf, apply_entropy_bias, iqf


class TestIqf:
    def test_eq1_formula(self):
        # iqf = log(|Q| / n)
        assert iqf(100, 10) == pytest.approx(math.log(10))

    def test_fully_connected_facet_is_zero(self):
        assert iqf(50, 50) == pytest.approx(0.0)

    def test_rare_facet_large(self):
        assert iqf(10_000, 1) == pytest.approx(math.log(10_000))

    def test_monotonically_decreasing_in_count(self):
        values = [iqf(1000, n) for n in (1, 10, 100, 1000)]
        assert values == sorted(values, reverse=True)

    @pytest.mark.parametrize("total,count", [(0, 1), (10, 0), (10, -1), (5, 6)])
    def test_invalid_inputs(self, total, count):
        with pytest.raises(ValueError):
            iqf(total, count)

    @given(
        st.integers(min_value=1, max_value=10**6),
        st.integers(min_value=1, max_value=10**6),
    )
    def test_non_negative_whenever_defined(self, total, count):
        if count <= total:
            assert iqf(total, count) >= 0.0


class TestApplyCfiqf:
    def test_eq4_weights(self):
        b = Bipartite()
        # URL A clicked by 2 submissions, URL B by 1; |Q| = 10.
        b.add("q1", "urlA", 1.0)
        b.add("q2", "urlA", 1.0)
        b.add("q1", "urlB", 1.0)
        weighted = apply_cfiqf(b, total_queries=10)
        assert weighted.weight("q1", "urlA") == pytest.approx(math.log(10 / 2))
        assert weighted.weight("q1", "urlB") == pytest.approx(math.log(10 / 1))

    def test_raw_count_multiplies(self):
        b = Bipartite()
        b.add("q1", "urlA", 3.0)  # three submissions of q1 clicked urlA
        b.add("q2", "urlA", 1.0)
        weighted = apply_cfiqf(b, total_queries=8)
        expected = 3.0 * math.log(8 / 4)
        assert weighted.weight("q1", "urlA") == pytest.approx(expected)

    def test_discriminative_facet_upweighted(self):
        b = Bipartite()
        for i in range(9):
            b.add(f"q{i}", "popular", 1.0)
        b.add("q0", "rare", 1.0)
        weighted = apply_cfiqf(b, total_queries=10)
        assert weighted.weight("q0", "rare") > weighted.weight("q0", "popular")

    def test_ubiquitous_facet_keeps_epsilon(self):
        b = Bipartite()
        b.add("q1", "everywhere", 1.0)
        b.add("q2", "everywhere", 1.0)
        weighted = apply_cfiqf(b, total_queries=2)
        assert weighted.weight("q1", "everywhere") > 0.0

    def test_overweight_facet_clamped_not_raised(self):
        # A repeated term can make facet weight exceed |Q|.
        b = Bipartite()
        b.add("q1", "term", 2.0)
        b.add("q2", "term", 2.0)
        weighted = apply_cfiqf(b, total_queries=3)
        assert weighted.weight("q1", "term") > 0.0

    def test_original_untouched(self):
        b = Bipartite()
        b.add("q1", "urlA", 1.0)
        apply_cfiqf(b, total_queries=10)
        assert b.weight("q1", "urlA") == 1.0

    def test_structure_preserved(self):
        b = Bipartite()
        b.add("q1", "a", 1.0)
        b.add("q2", "b", 1.0)
        weighted = apply_cfiqf(b, total_queries=4)
        assert weighted.queries == b.queries
        assert weighted.facets == b.facets
        assert weighted.n_edges == b.n_edges


def _layout(bipartite: Bipartite):
    """Both edge indexes with their key order."""
    return (
        [(q, list(row.items())) for q, row in bipartite._edges.items()],
        [(f, list(col.items())) for f, col in bipartite._facet_edges.items()],
    )


class TestDirectReweighting:
    """The weighted bipartites equal an edge-by-edge ``add`` rebuild."""

    @given(
        st.lists(
            st.tuples(
                st.sampled_from(["q1", "q2", "q3", "q4"]),
                st.sampled_from(["a", "b", "c", "d", "e"]),
                st.sampled_from([1.0, 2.0, 3.0]),
            ),
            min_size=1,
            max_size=20,
        )
    )
    def test_equals_add_rebuild(self, edges):
        raw = Bipartite()
        for query, facet, weight in edges:
            raw.add(query, facet, weight)
        total = sum(weight for _, _, weight in edges)
        cfiqf = apply_cfiqf(raw, total_queries=int(total))
        entropy = apply_entropy_bias(raw)
        for weighted in (cfiqf, entropy):
            rebuilt = Bipartite()
            for query in raw.queries:
                for facet in raw.facets_of(query):
                    rebuilt.add(query, facet, weighted.weight(query, facet))
            assert _layout(weighted) == _layout(rebuilt)
            assert weighted.facet_set("q1") == rebuilt.facet_set("q1")

