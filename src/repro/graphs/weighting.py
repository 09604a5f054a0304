"""Inverse-query-frequency edge weighting (paper Eqs. 1-6).

The raw frequency of a (query, facet) relation under-values rare but
discriminative facets.  The paper multiplies each raw count ``c^X_{ij}`` by
the facet's inverse query frequency::

    iqf^X(x_j) = log(|Q| / n^X(x_j))          (Eqs. 1-3)
    cfiqf^X(q_i, x_j) = c^X_{ij} * iqf^X(x_j) (Eqs. 4-6)

where ``|Q|`` is the number of query submissions in the log and
``n^X(x_j)`` the number of submissions interacting with facet ``x_j``.
"""

from __future__ import annotations

import math

from repro.graphs.bipartite import Bipartite

__all__ = ["iqf", "apply_cfiqf", "facet_entropy", "apply_entropy_bias"]


def iqf(total_queries: int, facet_query_count: float) -> float:
    """``log(|Q| / n^X(x_j))`` — Eqs. 1-3.

    Raises ``ValueError`` on non-positive inputs; returns 0.0 for a facet
    connected to every submission (fully non-discriminative).
    """
    if total_queries <= 0:
        raise ValueError(f"total_queries must be positive, got {total_queries}")
    if facet_query_count <= 0:
        raise ValueError(
            f"facet_query_count must be positive, got {facet_query_count}"
        )
    if facet_query_count > total_queries:
        raise ValueError(
            f"facet_query_count ({facet_query_count}) exceeds total_queries "
            f"({total_queries})"
        )
    return math.log(total_queries / facet_query_count)


def apply_cfiqf(bipartite: Bipartite, total_queries: int) -> Bipartite:
    """Return a cfiqf-weighted copy of *bipartite* (Eqs. 4-6).

    ``n^X(x_j)`` is taken as the facet's total raw edge weight, i.e. the
    number of query submissions interacting with the facet (the bipartite is
    built with one unit of weight per submission).  Facets whose ``iqf`` is 0
    (connected to every submission) keep a small epsilon weight instead of
    dropping out of the graph entirely.
    """
    epsilon = 1e-3
    factors: dict[str, float] = {}
    for facet in bipartite.facets:
        # A multi-occurrence term can push the facet weight slightly past
        # |Q|; clamp so iqf stays defined (and non-negative).
        count = min(bipartite.facet_weight_sum(facet), float(total_queries))
        factors[facet] = max(iqf(total_queries, count), epsilon)
    # Positive raw weights times positive factors: every edge is valid.
    return Bipartite.from_rows(
        {
            query: {
                facet: raw * factors[facet]
                for facet, raw in bipartite.facets_of(query).items()
            }
            for query in bipartite.queries
        }
    )


def facet_entropy(bipartite: Bipartite, facet: str) -> float:
    """Shannon entropy (nats) of a facet's weight distribution over queries.

    The *click entropy* of Deng, King & Lyu (SIGIR 2009, the paper's ref
    [18]): a URL clicked uniformly from many unrelated queries has high
    entropy and is a poor relevance signal; a URL reached from one focused
    query has entropy 0.
    """
    weights = bipartite.queries_of(facet)
    total = sum(weights.values())
    if total <= 0:
        return 0.0
    entropy = 0.0
    for weight in weights.values():
        p = weight / total
        if p > 0:
            entropy -= p * math.log(p)
    return entropy


def apply_entropy_bias(bipartite: Bipartite) -> Bipartite:
    """Entropy-biased re-weighting: ``c_ij / (1 + H(x_j))``.

    The alternative to :func:`apply_cfiqf` proposed by Deng et al. for the
    click graph: instead of discounting facets by raw popularity (iqf),
    discount by the *entropy* of their query distribution — a popular but
    focused facet keeps its weight, while a facet spread uniformly over
    unrelated queries (the hub-URL pathology) is suppressed.
    """
    entropies = {
        facet: facet_entropy(bipartite, facet) for facet in bipartite.facets
    }
    return Bipartite.from_rows(
        {
            query: {
                facet: raw / (1.0 + entropies[facet])
                for facet, raw in bipartite.facets_of(query).items()
            }
            for query in bipartite.queries
        }
    )
