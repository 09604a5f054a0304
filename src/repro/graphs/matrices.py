"""Normalized matrices of a (compact) multi-bipartite representation.

For each bipartite ``X ∈ {U, S, T}`` the diversification component needs:

* ``W^X`` — the (n_queries, n_facets) weighted incidence matrix;
* ``D^X`` — diagonal with ``D_ii = Σ_j (W^X W^{X⊤})_ij`` (paper Eq. 9);
* ``L^X = D^{-1/2} W^X W^{X⊤} D^{-1/2}`` — the symmetric normalized
  query-query affinity through X, whose spectral radius is at most 1 (this
  is what makes the Eq. 15 system positive definite);
* ``P^X`` — the row-stochastic two-step transition
  ``query → facet → query`` used by the cross-bipartite walker.

Only ``W^X`` is stored; ``L^X`` and ``P^X`` derive from it on first
access, and serving derives them only over compact representations.

The helpers here sit on the online serving path (a compact representation
is derived per request), so they avoid scipy's Python-level dispatch where
it matters: row sums go through the ``csr_matvec`` kernel, diagonal
scalings operate on the CSR ``data`` array directly, and intermediate
matrices are assembled without re-validating their index structure.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import sparse

from repro.graphs.multibipartite import BIPARTITE_KINDS, MultiBipartite

try:  # scipy's C kernels; private but stable, guarded for safety.
    from scipy.sparse._sparsetools import csr_matvec as _csr_matvec
except ImportError:  # pragma: no cover - exercised only on exotic scipy
    _csr_matvec = None

__all__ = [
    "BipartiteMatrices",
    "build_matrices",
    "csr_from_parts",
    "row_normalize",
]


def _raw_csr(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
    sorted_indices: bool = False,
) -> sparse.csr_matrix:
    """Assemble a csr_matrix from parts already known to be consistent.

    Bypasses ``csr_matrix.__init__`` (and its format validation), which is
    measurable overhead when deriving a compact representation per request.
    Callers must guarantee the arrays form a valid CSR structure.
    """
    matrix = sparse.csr_matrix.__new__(sparse.csr_matrix)
    matrix.data = data
    matrix.indices = indices
    matrix.indptr = indptr
    matrix._shape = shape
    if sorted_indices:
        matrix.has_sorted_indices = True
    return matrix


def _row_sums(matrix: sparse.csr_matrix) -> np.ndarray:
    """Row sums of a CSR matrix, same accumulation order as ``M @ 1``."""
    if _csr_matvec is None:
        return np.asarray(matrix.sum(axis=1)).ravel()
    n_rows, n_cols = matrix.shape
    out = np.zeros(n_rows)
    _csr_matvec(
        n_rows,
        n_cols,
        matrix.indptr,
        matrix.indices,
        matrix.data,
        np.ones(n_cols),
        out,
    )
    return out


def _scale_rows(matrix: sparse.csr_matrix, scale: np.ndarray) -> sparse.csr_matrix:
    """``diag(scale) @ matrix`` without building the diagonal matrix."""
    per_entry = np.repeat(scale, np.diff(matrix.indptr))
    return _raw_csr(
        per_entry * matrix.data,
        matrix.indices,
        matrix.indptr,
        matrix.shape,
        sorted_indices=bool(matrix.has_sorted_indices),
    )


def row_normalize(matrix: sparse.spmatrix) -> sparse.csr_matrix:
    """Row-stochastic copy of *matrix*; all-zero rows stay zero."""
    matrix = matrix.tocsr()
    sums = _row_sums(matrix)
    inverse = np.divide(1.0, sums, out=np.zeros_like(sums), where=sums > 0)
    return _scale_rows(matrix, inverse)


def _take_rows(
    matrix: sparse.csr_matrix, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR row gather: (indices, data, indptr) of ``matrix[rows, :]``.

    Preserves the within-row entry order of the parent, so sorted parents
    yield sorted slices.
    """
    starts = matrix.indptr[rows]
    counts = matrix.indptr[rows + 1] - starts
    indptr = np.zeros(rows.size + 1, dtype=matrix.indptr.dtype)
    np.cumsum(counts, out=indptr[1:])
    take = np.repeat(starts - indptr[:-1], counts) + np.arange(
        int(indptr[-1]), dtype=matrix.indptr.dtype
    )
    return matrix.indices[take], matrix.data[take], indptr


def csr_from_parts(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
    sorted_indices: bool = False,
) -> sparse.csr_matrix:
    """Public validation-free CSR assembly over existing buffers.

    The shared-memory serving plane (:mod:`repro.serve.shm`) wraps
    attached read-only views with this — ``csr_matrix.__init__`` would
    both re-validate and, for non-writable inputs, copy the arrays,
    defeating the zero-copy layout.  Callers must guarantee the arrays
    form a valid CSR structure.
    """
    return _raw_csr(data, indices, indptr, shape, sorted_indices)


class _LazyMatrices(Mapping):
    """Kind -> matrix derived from that kind's incidence on first access.

    The one lazy mapping behind :attr:`BipartiteMatrices.affinity` and
    :attr:`BipartiteMatrices.transition`.  The serving path reads neither
    on the full graph — it restricts the incidences first, and the walker
    assembles its mixed transition straight from them — so full-graph
    products are only ever paid for by the offline callers that ask.
    Threads racing on a first access each derive the same matrix, and
    either copy may be kept.
    """

    def __init__(
        self,
        incidence: Mapping[str, sparse.csr_matrix],
        derive: Callable[[sparse.csr_matrix], sparse.csr_matrix],
    ) -> None:
        self._incidence = incidence
        self._derive = derive
        self._cache: dict[str, sparse.csr_matrix] = {}

    def __getitem__(self, kind: str) -> sparse.csr_matrix:
        if kind not in self._cache:
            self._cache[kind] = self._derive(self._incidence[kind])
        return self._cache[kind]

    def __iter__(self):
        return iter(self._incidence)

    def __len__(self) -> int:
        return len(self._incidence)


@dataclass(frozen=True)
class BipartiteMatrices:
    """All matrices of one representation, on a fixed query ordering.

    Only the incidences are held; :attr:`affinity` and :attr:`transition`
    derive from them per kind on first access.

    Attributes:
        queries: Query strings, row order of every matrix.
        query_index: Query -> row ordinal.
        incidence: Kind -> ``W^X`` (n_queries, n_facets_X).
    """

    queries: list[str]
    query_index: dict[str, int]
    incidence: dict[str, sparse.csr_matrix]

    @cached_property
    def affinity(self) -> Mapping[str, sparse.csr_matrix]:
        """Kind -> ``L^X`` (n_queries, n_queries), symmetric, spectral
        radius <= 1."""
        return _LazyMatrices(self.incidence, _affinity_of)

    @cached_property
    def transition(self) -> Mapping[str, sparse.csr_matrix]:
        """Kind -> ``P^X`` (n_queries, n_queries), row-stochastic (zero
        rows for queries with no facet in X)."""
        return _LazyMatrices(self.incidence, _transition_of)

    @property
    def n_queries(self) -> int:
        """Number of query rows."""
        return len(self.queries)

    def mean_transition(self) -> sparse.csr_matrix:
        """Uniform mixture of the three ``P^X`` (the default walker prior)."""
        mixed = sum(self.transition[kind] for kind in BIPARTITE_KINDS)
        return (mixed / len(BIPARTITE_KINDS)).tocsr()

    def restrict(self, ordinals: Sequence[int]) -> "BipartiteMatrices":
        """Compact matrices over the query rows *ordinals*, by slicing.

        The serving fast path: each compact incidence ``W^X`` is a CSR row
        slice of the full incidence, with the facet columns that lost all
        their edges dropped, and the compact gram ``W_c W_c^T`` behind the
        affinities is the product of that slice.  Restricting the query
        set removes whole rows but never touches the facets a kept query
        is connected to, and the column renumbering is monotone, so scipy
        sums every gram entry over the same facets in the same ascending
        order as over the full incidence.

        The result is numerically identical to
        ``build_matrices(multibipartite.restrict_queries(queries))`` for
        the same query set.
        """
        rows = np.unique(np.asarray(list(ordinals), dtype=np.intp))
        if rows.size == 0:
            raise ValueError("ordinals must be non-empty")
        if rows[0] < 0 or rows[-1] >= self.n_queries:
            raise ValueError("ordinals out of range")
        queries = [self.queries[int(i)] for i in rows]
        incidence: dict[str, sparse.csr_matrix] = {}
        for kind in BIPARTITE_KINDS:
            full = self.incidence[kind]
            indices, data, indptr = _take_rows(full, rows)
            # Every surviving column index appears in the slice, so column
            # compaction is a pure renumbering — no entry is dropped.
            live_columns = np.unique(indices)
            if live_columns.size < full.shape[1]:
                indices = np.searchsorted(live_columns, indices).astype(
                    indices.dtype
                )
            incidence[kind] = _raw_csr(
                data,
                indices,
                indptr,
                (rows.size, int(live_columns.size)),
                sorted_indices=bool(full.has_sorted_indices),
            )
        return BipartiteMatrices(
            queries=queries,
            query_index={query: i for i, query in enumerate(queries)},
            incidence=incidence,
        )


def _affinity_of(incidence: sparse.csr_matrix) -> sparse.csr_matrix:
    """``L = D^{-1/2} G D^{-1/2}`` with ``G = W W^T`` and D its row sums."""
    gram = (incidence @ incidence.T).tocsr()
    gram.sort_indices()
    degrees = _row_sums(gram)
    scale = np.divide(
        1.0, np.sqrt(degrees), out=np.zeros_like(degrees), where=degrees > 0
    )
    per_entry = np.repeat(scale, np.diff(gram.indptr))
    return _raw_csr(
        (per_entry * gram.data) * scale[gram.indices],
        gram.indices,
        gram.indptr,
        gram.shape,
        sorted_indices=True,
    )


def _transition_of(incidence: sparse.csr_matrix) -> sparse.csr_matrix:
    """Two-step ``query -> facet -> query`` row-stochastic transition."""
    forward = row_normalize(incidence)
    backward = row_normalize(incidence.T)
    product = (forward @ backward).tocsr()
    product.sort_indices()
    return product


def build_matrices(multibipartite: MultiBipartite) -> BipartiteMatrices:
    """The incidences of *multibipartite* on its sorted query order."""
    queries = multibipartite.queries
    query_index = {query: i for i, query in enumerate(queries)}
    incidence: dict[str, sparse.csr_matrix] = {}
    for kind in BIPARTITE_KINDS:
        matrix, _ = multibipartite.bipartite(kind).to_matrix(query_index)
        matrix.sort_indices()
        incidence[kind] = matrix
    return BipartiteMatrices(
        queries=list(queries), query_index=query_index, incidence=incidence
    )
