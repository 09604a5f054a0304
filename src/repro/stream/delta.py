"""Incremental multi-bipartite updates for streaming log ingestion.

The batch pipeline derives everything from scratch: raw bipartites from the
log, cfiqf weights (Eqs. 4-6), then the CSR incidence / gram / affinity
matrices of :func:`repro.graphs.matrices.build_matrices`.  A live suggester
cannot afford that per click.  :class:`StreamState` is the writer-side
mirror of that pipeline: micro-batches of records are folded into the raw
structures in ``O(batch)`` (:meth:`StreamState.apply`), and an epoch
snapshot is derived by *patching* the previous epoch's CSR structures
(:meth:`StreamState.build_snapshot`) instead of rebuilding them:

* rows are re-gathered only for the queries a delta touched — untouched
  rows are block-copied with their column indices renumbered;
* the cfiqf reweighting handles the global ``|Q|`` shift of Eqs. 1-3 as an
  epoch-level correction: the per-facet iqf factors are recomputed (an
  ``O(n_facets)`` scalar pass) and applied to the raw-count data array in
  one vectorized multiply — never a from-scratch re-walk of the log;
* the gram/affinity matrices are re-derived from the patched incidence
  with the exact helpers ``build_matrices`` uses, so every epoch snapshot
  is **bit-identical** to a batch rebuild over the same record prefix
  (the equivalence the streaming tests pin down).

Equivalence requires records to arrive in per-user timestamp order (the
natural order of a query log); out-of-order arrivals still produce a valid
representation but sessionization may differ from the batch segmentation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.graphs.bipartite import Bipartite
from repro.graphs.matrices import (
    BipartiteMatrices,
    _affinity_from_gram,
    _gram_of,
    _LazyTransitions,
    _raw_csr,
    _take_rows,
)
from repro.graphs.multibipartite import BIPARTITE_KINDS, MultiBipartite
from repro.graphs.weighting import iqf
from repro.logs.schema import QueryRecord
from repro.logs.sessionizer import SessionizerConfig, continues_session
from repro.logs.storage import QueryLog
from repro.utils.text import normalize_query, tokenize

__all__ = ["GraphDelta", "StreamSnapshot", "StreamState"]

#: The epsilon floor of :func:`repro.graphs.weighting.apply_cfiqf` — facets
#: connected to every submission keep this weight instead of dropping out.
_CFIQF_EPSILON = 1e-3


@dataclass(frozen=True)
class GraphDelta:
    """What one applied micro-batch changed, per Eqs. 1-6 bookkeeping.

    Attributes:
        n_records: Records folded in by this micro-batch.
        touched_queries: Queries that gained an edge or a count increment
            in *any* bipartite.
        new_queries: Subset of ``touched_queries`` seen for the first time.
        new_facets: Kind -> facets (URLs / session ids / terms) created by
            this micro-batch.
    """

    n_records: int
    touched_queries: frozenset[str]
    new_queries: frozenset[str]
    new_facets: dict[str, frozenset[str]]

    @property
    def n_touched(self) -> int:
        """Size of the touched-query set."""
        return len(self.touched_queries)


@dataclass(frozen=True)
class StreamSnapshot:
    """One epoch's immutable view of the stream, ready for serving.

    Attributes:
        log: Cumulative :class:`QueryLog` (grown via ``QueryLog.extend``).
        multibipartite: Raw-count representation handle (query membership
            and term-backoff candidate scans; weights live in ``matrices``).
        matrices: The (cfiqf-weighted) full-graph matrices, incrementally
            patched — bit-identical to ``build_matrices`` over ``log``.
        touched_queries: Union of the applied deltas' touched sets since
            the previous snapshot.
    """

    log: QueryLog
    multibipartite: MultiBipartite
    matrices: BipartiteMatrices
    touched_queries: frozenset[str]


@dataclass
class _OpenSession:
    """Online-sessionizer state for one user's currently open session."""

    ordinal: int
    last_timestamp: float
    terms: set[str] = field(default_factory=set)


class _KindState:
    """Per-bipartite mutable state: raw counts plus the last epoch's CSR."""

    __slots__ = ("bipartite", "facets", "raw", "new_facets", "touched")

    def __init__(self) -> None:
        self.bipartite = Bipartite()
        self.facets: list[str] = []  # sorted, as of the last snapshot
        self.raw: sparse.csr_matrix | None = None  # raw counts, canonical
        self.new_facets: set[str] = set()  # since the last snapshot
        self.touched: set[str] = set()  # queries with edge changes


def _merge_sorted(old: list[str], added: list[str]) -> tuple[list[str], np.ndarray]:
    """Merge sorted *old* with sorted, disjoint *added*.

    Returns the merged list and the position of each old element in it
    (the old -> new renumbering used to remap CSR indices).
    """
    if not added:
        return old, np.arange(len(old), dtype=np.intp)
    merged: list[str] = []
    old_pos = np.empty(len(old), dtype=np.intp)
    i = j = 0
    while i < len(old) and j < len(added):
        if old[i] <= added[j]:
            old_pos[i] = len(merged)
            merged.append(old[i])
            i += 1
        else:
            merged.append(added[j])
            j += 1
    while i < len(old):
        old_pos[i] = len(merged)
        merged.append(old[i])
        i += 1
    merged.extend(added[j:])
    return merged, old_pos


class StreamState:
    """Writer-side mutable mirror of the batch pipeline.

    One writer thread owns the state: :meth:`apply` folds a micro-batch
    into the raw structures, :meth:`build_snapshot` derives the next
    epoch's immutable matrices by patching the previous epoch's.  Readers
    never see this object — they see the :class:`StreamSnapshot`\\ s it
    publishes (copy-on-write: a snapshot's arrays are never mutated by
    later patches, which allocate fresh ones).

    Args:
        sessionizer: Online session segmentation parameters (the batch
            :func:`repro.logs.sessionizer.sessionize` rules, applied
            record-at-a-time).
        weighted: Apply the cfiqf scheme of Eqs. 4-6; ``False`` keeps raw
            submission counts (the paper's "raw" ablation).  The entropy
            scheme is inherently global and is not supported online.
    """

    def __init__(
        self,
        sessionizer: SessionizerConfig | None = None,
        weighted: bool = True,
    ) -> None:
        self._sessionizer = sessionizer or SessionizerConfig()
        self._weighted = weighted
        self._log = QueryLog(())
        self._pending: list[QueryRecord] = []
        self._kinds = {kind: _KindState() for kind in BIPARTITE_KINDS}
        self._open: dict[str, _OpenSession] = {}
        self._queries: list[str] = []  # sorted, as of the last snapshot
        self._seen_queries: set[str] = set()
        self._new_queries: set[str] = set()  # since the last snapshot
        self._touched: set[str] = set()  # union across kinds, ditto
        self._snapshots = 0

    # -- accessors -------------------------------------------------------------

    @property
    def n_records(self) -> int:
        """Records applied so far (including pending, un-snapshotted ones)."""
        return len(self._log) + len(self._pending)

    @property
    def n_pending(self) -> int:
        """Records applied since the last snapshot."""
        return len(self._pending)

    @property
    def n_snapshots(self) -> int:
        """Snapshots built so far."""
        return self._snapshots

    # -- micro-batch application ------------------------------------------------

    def apply(self, records: list[QueryRecord]) -> GraphDelta:
        """Fold *records* into the raw structures; ``O(batch)`` work.

        Runs the online sessionizer, updates the three raw bipartites
        (skipping empty normalized queries, exactly like the batch
        builder), and accumulates the touched/new bookkeeping that
        :meth:`build_snapshot` consumes.
        """
        touched: set[str] = set()
        new_queries: set[str] = set()
        new_facets: dict[str, set[str]] = {kind: set() for kind in BIPARTITE_KINDS}
        for record in records:
            self._pending.append(record)
            session_id = self._sessionize(record)
            query = normalize_query(record.query)
            if not query:
                continue
            if query not in self._seen_queries:
                self._seen_queries.add(query)
                new_queries.add(query)
            if record.clicked_url is not None:
                self._add_edge(
                    "U", query, record.clicked_url, touched, new_facets
                )
            self._add_edge("S", query, session_id, touched, new_facets)
            for term in set(tokenize(query)):
                self._add_edge("T", query, term, touched, new_facets)
        self._new_queries.update(new_queries)
        self._touched.update(touched)
        return GraphDelta(
            n_records=len(records),
            touched_queries=frozenset(touched),
            new_queries=frozenset(new_queries),
            new_facets={k: frozenset(v) for k, v in new_facets.items()},
        )

    def _add_edge(
        self,
        kind: str,
        query: str,
        facet: str,
        touched: set[str],
        new_facets: dict[str, set[str]],
    ) -> None:
        state = self._kinds[kind]
        known = state.bipartite.facet_query_count(facet) > 0
        state.bipartite.add(query, facet, 1.0)
        state.touched.add(query)
        touched.add(query)
        if not known:
            state.new_facets.add(facet)
            new_facets[kind].add(facet)

    def _sessionize(self, record: QueryRecord) -> str:
        """Online Definition-1 segmentation; returns the record's session id.

        Identical to the batch :func:`sessionize` on per-user time-ordered
        input: same pause/lexical rule, same ``"{user}/{ordinal}"`` ids.
        """
        open_session = self._open.get(record.user_id)
        if open_session is None:
            open_session = _OpenSession(ordinal=0, last_timestamp=record.timestamp)
            self._open[record.user_id] = open_session
        else:
            pause = record.timestamp - open_session.last_timestamp
            if not continues_session(
                open_session.terms, record, pause, self._sessionizer
            ):
                open_session.ordinal += 1
                open_session.terms = set()
            open_session.last_timestamp = record.timestamp
        open_session.terms.update(tokenize(record.query))
        return f"{record.user_id}/{open_session.ordinal}"

    # -- epoch derivation --------------------------------------------------------

    def build_snapshot(self) -> StreamSnapshot:
        """Patch the matrices to cover every applied record; reset deltas.

        The expensive, epoch-granularity step: extends the cumulative log,
        merges new query/facet nodes into the sorted orderings, re-gathers
        only the touched CSR rows, applies the epoch-level iqf correction,
        and re-derives gram/affinity from the patched incidence.
        """
        self._log = self._log.extend(self._pending)
        self._pending = []
        total = self._log.total_queries

        queries, old_row_pos = _merge_sorted(
            self._queries, sorted(self._new_queries)
        )
        old_index = {query: i for i, query in enumerate(self._queries)}
        query_index = {query: i for i, query in enumerate(queries)}

        incidence: dict[str, sparse.csr_matrix] = {}
        affinity: dict[str, sparse.csr_matrix] = {}
        gram: dict[str, sparse.csr_matrix] = {}
        for kind in BIPARTITE_KINDS:
            state = self._kinds[kind]
            facets, old_col_pos = _merge_sorted(
                state.facets, sorted(state.new_facets)
            )
            raw = _patch_raw_csr(
                old=state.raw,
                old_index=old_index,
                old_row_pos=old_row_pos,
                queries=queries,
                query_index=query_index,
                facets=facets,
                old_col_pos=old_col_pos,
                touched=state.touched | self._new_queries,
                bipartite=state.bipartite,
            )
            state.raw = raw
            state.facets = facets
            state.new_facets = set()
            state.touched = set()
            weighted = self._reweight(raw, facets, state.bipartite, total)
            incidence[kind] = weighted
            gram[kind] = _gram_of(weighted)
            affinity[kind] = _affinity_from_gram(gram[kind])

        self._queries = queries
        touched_queries = frozenset(self._touched)
        self._touched = set()
        self._new_queries = set()
        self._snapshots += 1

        matrices = BipartiteMatrices(
            queries=list(queries),
            query_index=query_index,
            incidence=incidence,
            affinity=affinity,
            transition=_LazyTransitions(incidence),
            gram=gram,
        )
        multibipartite = MultiBipartite(
            {kind: self._kinds[kind].bipartite for kind in BIPARTITE_KINDS}
        )
        return StreamSnapshot(
            log=self._log,
            multibipartite=multibipartite,
            matrices=matrices,
            touched_queries=touched_queries,
        )

    def _reweight(
        self,
        raw: sparse.csr_matrix,
        facets: list[str],
        bipartite: Bipartite,
        total: int,
    ) -> sparse.csr_matrix:
        """The epoch-level cfiqf correction (Eqs. 4-6 over the live ``|Q|``).

        Every submission shifts ``|Q|`` and therefore every facet's iqf, so
        the correction is a per-facet scalar pass plus one vectorized
        multiply over the raw-count data — scalar math identical to
        :func:`repro.graphs.weighting.apply_cfiqf`, hence bit-identical
        weights.
        """
        if not self._weighted:
            return _raw_csr(
                raw.data.copy(),
                raw.indices,
                raw.indptr,
                raw.shape,
                sorted_indices=True,
            )
        factors = np.empty(len(facets))
        for j, facet in enumerate(facets):
            count = min(bipartite.facet_weight_sum(facet), float(total))
            factors[j] = max(iqf(total, count), _CFIQF_EPSILON)
        return _raw_csr(
            raw.data * factors[raw.indices],
            raw.indices,
            raw.indptr,
            raw.shape,
            sorted_indices=True,
        )


def _patch_raw_csr(
    old: sparse.csr_matrix | None,
    old_index: dict[str, int],
    old_row_pos: np.ndarray,
    queries: list[str],
    query_index: dict[str, int],
    facets: list[str],
    old_col_pos: np.ndarray,
    touched: set[str],
    bipartite: Bipartite,
) -> sparse.csr_matrix:
    """New canonical raw-count CSR from the old one plus a touched set.

    Untouched rows are block-gathered from *old* with their column indices
    renumbered through *old_col_pos* (sorted order is preserved, so the
    result stays canonical); touched rows — including brand-new queries —
    are rebuilt from the raw bipartite dicts in facet-sorted order.  The
    output is identical to ``bipartite.to_matrix(query_index)`` followed by
    ``sort_indices()``, which is what the batch builder produces.
    """
    n_rows = len(queries)
    index_dtype = np.int32 if old is None else old.indices.dtype
    facet_pos = {facet: j for j, facet in enumerate(facets)}

    touched_rows = sorted(
        (query_index[query], query) for query in touched if query in query_index
    )
    counts = np.zeros(n_rows, dtype=np.int64)
    untouched_old: np.ndarray | None = None
    if old is not None and len(old_index) > 0:
        mask = np.ones(len(old_index), dtype=bool)
        for query in touched:
            ordinal = old_index.get(query)
            if ordinal is not None:
                mask[ordinal] = False
        untouched_old = np.nonzero(mask)[0]
        old_nnz = np.diff(old.indptr)
        counts[old_row_pos[untouched_old]] = old_nnz[untouched_old]
    row_dicts: dict[int, list[tuple[int, float]]] = {}
    for row, query in touched_rows:
        pairs = sorted(
            (facet_pos[facet], weight)
            for facet, weight in bipartite.facets_of(query).items()
        )
        row_dicts[row] = pairs
        counts[row] = len(pairs)

    indptr = np.zeros(n_rows + 1, dtype=index_dtype)
    np.cumsum(counts, out=indptr[1:])
    total = int(indptr[-1])
    indices = np.empty(total, dtype=index_dtype)
    data = np.empty(total, dtype=np.float64)

    if untouched_old is not None and untouched_old.size:
        src_indices, src_data, src_indptr = _take_rows(old, untouched_old)
        seg_counts = np.diff(src_indptr)
        dest_rows = old_row_pos[untouched_old]
        dest_starts = indptr[dest_rows].astype(np.int64)
        offsets = np.arange(src_indices.size, dtype=np.int64) - np.repeat(
            src_indptr[:-1].astype(np.int64), seg_counts
        )
        dest = np.repeat(dest_starts, seg_counts) + offsets
        colmap = old_col_pos.astype(index_dtype)
        indices[dest] = colmap[src_indices]
        data[dest] = src_data

    for row, pairs in row_dicts.items():
        lo, hi = int(indptr[row]), int(indptr[row + 1])
        if pairs:
            cols, weights = zip(*pairs)
            indices[lo:hi] = np.asarray(cols, dtype=index_dtype)
            data[lo:hi] = np.asarray(weights, dtype=np.float64)

    return _raw_csr(
        data,
        indices,
        indptr,
        (n_rows, len(facets)),
        sorted_indices=True,
    )
