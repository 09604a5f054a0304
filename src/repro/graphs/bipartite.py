"""Generic weighted bipartite graph between queries and facets.

One side is always the set of (normalized) query strings; the other side —
the *facets* — is URLs, session ids or terms depending on which of the three
bipartites of Sec. III is being represented.  Edge weights are raw
co-occurrence counts until :func:`repro.graphs.weighting.apply_cfiqf`
re-weights them.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

import numpy as np
from scipy import sparse

__all__ = ["Bipartite"]


class Bipartite:
    """A weighted bipartite between query strings and facet identifiers.

    Mutable while being built (:meth:`add`); all read accessors are cheap.
    Weights must be positive; adding the same edge accumulates.
    """

    def __init__(self) -> None:
        self._edges: dict[str, dict[str, float]] = {}
        self._facet_edges: dict[str, dict[str, float]] = {}
        self._facet_sets: dict[str, frozenset[str]] = {}

    # -- construction --------------------------------------------------------------

    def add(self, query: str, facet: str, weight: float = 1.0) -> None:
        """Accumulate *weight* onto the (query, facet) edge."""
        if weight <= 0:
            raise ValueError(f"edge weight must be positive, got {weight}")
        if not query or not facet:
            raise ValueError("query and facet must be non-empty strings")
        self._edges.setdefault(query, {})
        self._edges[query][facet] = self._edges[query].get(facet, 0.0) + weight
        self._facet_edges.setdefault(facet, {})
        self._facet_edges[facet][query] = (
            self._facet_edges[facet].get(query, 0.0) + weight
        )
        self._facet_sets.pop(query, None)

    @classmethod
    def from_rows(cls, rows: dict[str, dict[str, float]]) -> "Bipartite":
        """A bipartite over query -> facet -> weight *rows*, taken as given.

        The facet index is built in one pass.  Skips :meth:`add`'s
        validation, so callers must pass positive weights and non-empty
        names (for example by scaling an existing bipartite's weights by
        positive factors); the result equals adding every edge in row
        order, key order included.
        """
        bipartite = cls()
        facet_edges = bipartite._facet_edges
        for query, row in rows.items():
            for facet, weight in row.items():
                column = facet_edges.get(facet)
                if column is None:
                    column = facet_edges[facet] = {}
                column[query] = weight
        bipartite._edges = rows
        return bipartite

    def scale_facet(self, facet: str, factor: float) -> None:
        """Multiply every edge incident to *facet* by *factor* (> 0)."""
        if factor <= 0:
            raise ValueError(f"scale factor must be positive, got {factor}")
        for query in self._facet_edges.get(facet, {}):
            self._edges[query][facet] *= factor
            self._facet_edges[facet][query] *= factor

    # -- accessors -----------------------------------------------------------------

    @property
    def queries(self) -> list[str]:
        """Query-side nodes, sorted for determinism."""
        return sorted(self._edges)

    @property
    def facets(self) -> list[str]:
        """Facet-side nodes, sorted for determinism."""
        return sorted(self._facet_edges)

    @property
    def n_edges(self) -> int:
        """Number of distinct (query, facet) edges."""
        return sum(len(facets) for facets in self._edges.values())

    def weight(self, query: str, facet: str) -> float:
        """Weight of the (query, facet) edge (0.0 if absent)."""
        return self._edges.get(query, {}).get(facet, 0.0)

    def facets_of(self, query: str) -> dict[str, float]:
        """Facet -> weight for one query (copy; empty if query unknown)."""
        return dict(self._edges.get(query, {}))

    def facet_set(self, query: str) -> frozenset[str]:
        """The facets of *query* as a memoized frozenset.

        For the query-term bipartite this is exactly the query's token
        set, which lets hot paths (e.g. the term-backoff Jaccard scoring)
        skip re-tokenizing candidates; the memo entry is invalidated when
        an edge is added for the query.
        """
        cached = self._facet_sets.get(query)
        if cached is None:
            cached = frozenset(self._edges.get(query, ()))
            self._facet_sets[query] = cached
        return cached

    def queries_of(self, facet: str) -> dict[str, float]:
        """Query -> weight for one facet (copy; empty if facet unknown)."""
        return dict(self._facet_edges.get(facet, {}))

    def facet_query_count(self, facet: str) -> int:
        """Number of distinct queries connected to *facet*.

        This is the ``n^X(x_j)`` of Eqs. 1-3 when raw counts are per-query;
        see :func:`repro.graphs.weighting.apply_cfiqf` for the submission-
        weighted variant.
        """
        return len(self._facet_edges.get(facet, {}))

    def facet_weight_sum(self, facet: str) -> float:
        """Total edge weight incident to *facet*."""
        return sum(self._facet_edges.get(facet, {}).values())

    def query_neighbors(self, query: str) -> set[str]:
        """Queries sharing at least one facet with *query* (excl. itself)."""
        neighbors: set[str] = set()
        for facet in self._edges.get(query, {}):
            neighbors.update(self._facet_edges[facet])
        neighbors.discard(query)
        return neighbors

    # -- derivation ----------------------------------------------------------------

    def copy(self) -> "Bipartite":
        """Deep copy."""
        clone = Bipartite()
        for query, facets in self._edges.items():
            for facet, weight in facets.items():
                clone.add(query, facet, weight)
        return clone

    def restrict_queries(self, queries: Iterable[str]) -> "Bipartite":
        """Sub-bipartite keeping only the given queries (and their facets)."""
        wanted = set(queries)
        restricted = Bipartite()
        for query in wanted:
            for facet, weight in self._edges.get(query, {}).items():
                restricted.add(query, facet, weight)
        return restricted

    def to_matrix(
        self,
        query_index: Mapping[str, int],
        facet_index: Mapping[str, int] | None = None,
    ) -> tuple[sparse.csr_matrix, dict[str, int]]:
        """CSR matrix of shape (n_queries, n_facets) plus the facet index.

        *query_index* fixes the row order (shared across the three
        bipartites); the facet index is built here unless supplied.  Queries
        absent from the bipartite produce empty rows.
        """
        if facet_index is None:
            facet_index = {facet: i for i, facet in enumerate(self.facets)}
        rows: list[int] = []
        cols: list[int] = []
        data: list[float] = []
        for query, row in query_index.items():
            for facet, weight in self._edges.get(query, {}).items():
                if facet in facet_index:
                    rows.append(row)
                    cols.append(facet_index[facet])
                    data.append(weight)
        matrix = sparse.csr_matrix(
            (data, (rows, cols)),
            shape=(len(query_index), len(facet_index)),
            dtype=np.float64,
        )
        return matrix, dict(facet_index)
