"""Zero-copy shared-memory publication of the full-graph serving plane.

One :class:`SharedMatrixStore` owns a single ``multiprocessing``
shared-memory segment holding every array a suggest worker needs to serve
against one representation generation:

* the CSR parts (``indptr``/``indices``/``data``) of each bipartite's
  incidence ``W^X`` and gram ``W^X W^{X⊤}`` — everything
  :meth:`~repro.graphs.matrices.BipartiteMatrices.restrict` touches on the
  per-request fast path;
* the expander's factored walk stacks (forward/backward), published
  verbatim so workers skip the per-process re-normalization;
* the query vocabulary (one UTF-8 blob plus an offsets array) that
  reconstructs the row ordering and the query -> ordinal index;
* optionally the query-term adjacency in both directions plus the term
  vocabulary, which powers the unseen-query term backoff without shipping
  the Python-dict :class:`~repro.graphs.bipartite.Bipartite`;
* optionally a precomputed **hot-query table** (:class:`SharedHotTable`):
  a hash-sorted ``query -> k suggestions`` mapping for the head of the
  traffic distribution, packed as a 64-bit hash array, the hot query
  strings (for exact-match collision rejection), per-entry offsets into a
  suggestion-id array, and one deduplicated suggestion-string blob.  The
  pool's parent answers hot hits O(1) from this table without touching a
  worker queue.

Workers call :func:`attach` and get an :class:`AttachedPlane`: read-only
numpy views over the segment, wrapped into ``csr_matrix`` objects via the
validation-free :func:`~repro.graphs.matrices.csr_from_parts` assembly —
no pickling, no per-worker duplication; ``np.shares_memory`` against the
segment buffer holds for every matrix payload (the per-worker cost is the
decoded vocabulary and the dict index, both O(n_queries) strings).

Metadata travels separately as a small picklable :class:`SharedPlaneMeta`
(segment name + array manifest), so publishing N generations to M workers
moves matrix bytes exactly once per generation.

Lifecycle: the publisher (the pool's parent process) keeps the
:class:`SharedMatrixStore` and is the only party that ever calls
:meth:`~SharedMatrixStore.unlink`; attachers :meth:`~AttachedPlane.close`
their mapping.  Attachers outside the publisher's ``multiprocessing``
tree pass ``untrack=True`` so their own ``resource_tracker`` does not
unlink the still-published segment when they exit (see
:class:`AttachedPlane`).
"""

from __future__ import annotations

import gc
import hashlib
import os
import secrets
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from multiprocessing import resource_tracker, shared_memory

import numpy as np
from scipy import sparse

from repro.graphs.compact import RandomWalkExpander
from repro.graphs.matrices import (
    BipartiteMatrices,
    LazyAffinities,
    _LazyTransitions,
    csr_from_parts,
)
from repro.graphs.multibipartite import BIPARTITE_KINDS
from repro.utils.text import normalize_query

__all__ = [
    "AttachedPlane",
    "SharedHotTable",
    "SharedMatrixStore",
    "SharedPlaneMeta",
    "SharedRepresentation",
    "SharedTermBipartite",
    "attach",
    "hot_hash",
]

#: Offset alignment of every array in the segment (covers float64/int64).
_ALIGNMENT = 64


@dataclass(frozen=True)
class _ArraySpec:
    """Location of one array inside the segment."""

    offset: int
    dtype: str
    shape: tuple[int, ...]

    @property
    def nbytes(self) -> int:
        count = 1
        for dim in self.shape:
            count *= dim
        return count * np.dtype(self.dtype).itemsize


@dataclass(frozen=True)
class SharedPlaneMeta:
    """Picklable manifest of one published generation.

    This is the only thing that crosses the process boundary per
    generation: workers attach the named segment and rebuild views from
    the array specs.  ``csr_shapes``/``csr_sorted`` describe the logical
    CSR matrices assembled from ``<name>.indptr/.indices/.data`` triples.
    """

    segment: str
    arrays: dict[str, _ArraySpec]
    csr_shapes: dict[str, tuple[int, int]]
    csr_sorted: dict[str, bool]
    n_queries: int
    n_terms: int
    epoch_id: int
    total_bytes: int

    @property
    def has_term_index(self) -> bool:
        """Whether the term-backoff adjacency was published."""
        return "terms.blob" in self.arrays

    @property
    def has_hot_table(self) -> bool:
        """Whether a precomputed hot-query table was published."""
        return "hot.hashes" in self.arrays

    @property
    def n_hot(self) -> int:
        """Hot-table entry count (0 when no table was published)."""
        spec = self.arrays.get("hot.hashes")
        return int(spec.shape[0]) if spec is not None else 0


def _encode_vocab(strings: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """(uint8 blob, int64 offsets) encoding of a string list."""
    encoded = [s.encode("utf-8") for s in strings]
    offsets = np.zeros(len(encoded) + 1, dtype=np.int64)
    np.cumsum([len(b) for b in encoded], out=offsets[1:])
    blob = np.frombuffer(b"".join(encoded), dtype=np.uint8).copy()
    return blob, offsets


def hot_hash(normalized_query: str) -> int:
    """Stable 64-bit hash keying the shared hot-query table.

    ``blake2b`` (unsalted, 8-byte digest) is process- and run-stable —
    unlike builtin ``hash`` — so the parent can binary-search a table any
    publisher packed.  Collisions are tolerated, not assumed away: the
    table stores the hot query strings and lookups reject hash matches
    whose string differs.
    """
    digest = hashlib.blake2b(
        normalized_query.encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


def _hot_table_arrays(
    hot_table: Mapping[str, Sequence[str]],
) -> dict[str, np.ndarray]:
    """Pack a ``query -> suggestions`` mapping into segment arrays.

    Entries are sorted by (hash, query) so lookups binary-search the hash
    array; suggestion strings are deduplicated into one vocabulary blob
    with per-entry id runs.
    """
    entries = sorted(
        hot_table.items(), key=lambda item: (hot_hash(item[0]), item[0])
    )
    string_index: dict[str, int] = {}
    sugg_ids: list[int] = []
    offsets = np.zeros(len(entries) + 1, dtype=np.int64)
    for row, (_, suggestions) in enumerate(entries):
        for suggestion in suggestions:
            ordinal = string_index.setdefault(suggestion, len(string_index))
            sugg_ids.append(ordinal)
        offsets[row + 1] = len(sugg_ids)
    query_blob, query_offsets = _encode_vocab([q for q, _ in entries])
    string_blob, string_offsets = _encode_vocab(list(string_index))
    return {
        "hot.hashes": np.asarray(
            [hot_hash(query) for query, _ in entries], dtype=np.uint64
        ),
        "hot.queries.blob": query_blob,
        "hot.queries.offsets": query_offsets,
        "hot.sugg.offsets": offsets,
        "hot.sugg.ids": np.asarray(sugg_ids, dtype=np.int64),
        "hot.strings.blob": string_blob,
        "hot.strings.offsets": string_offsets,
    }


class SharedHotTable:
    """O(1) read-only lookup over the packed hot-query table.

    Keys are normalized queries; a hit returns the precomputed full
    diversified ranking (serve ``k`` suggestions as ``ranking[:k]`` —
    the ranking never depends on the request's ``k``).  Lookups hash the
    query, binary-search the sorted hash array, and verify the stored
    query string, so a hash collision degrades to a miss for the other
    query rather than a wrong answer.
    """

    def __init__(
        self,
        hashes: np.ndarray,
        queries: list[str],
        sugg_offsets: np.ndarray,
        sugg_ids: np.ndarray,
        strings: list[str],
    ) -> None:
        self._hashes = hashes
        self._queries = queries
        self._sugg_offsets = sugg_offsets
        self._sugg_ids = sugg_ids
        self._strings = strings

    def __len__(self) -> int:
        return len(self._queries)

    @property
    def queries(self) -> list[str]:
        """The hot queries, in table (hash-sorted) order."""
        return list(self._queries)

    def lookup(self, normalized_query: str) -> list[str] | None:
        """The precomputed ranking for *normalized_query*, or ``None``."""
        key = np.uint64(hot_hash(normalized_query))
        lo = int(np.searchsorted(self._hashes, key, side="left"))
        hi = int(np.searchsorted(self._hashes, key, side="right"))
        for row in range(lo, hi):
            if self._queries[row] == normalized_query:
                start = int(self._sugg_offsets[row])
                stop = int(self._sugg_offsets[row + 1])
                return [
                    self._strings[int(ordinal)]
                    for ordinal in self._sugg_ids[start:stop]
                ]
        return None

    def as_dict(self) -> dict[str, list[str]]:
        """The whole table as ``{query: ranking}`` (table order)."""
        return {
            query: self.lookup(query) for query in self._queries
        }

    @classmethod
    def _from_views(cls, view) -> "SharedHotTable":
        """Build over segment arrays fetched through *view(name)*."""
        return cls(
            view("hot.hashes"),
            _decode_vocab(
                view("hot.queries.blob"), view("hot.queries.offsets")
            ),
            view("hot.sugg.offsets"),
            view("hot.sugg.ids"),
            _decode_vocab(
                view("hot.strings.blob"), view("hot.strings.offsets")
            ),
        )


def _decode_vocab(blob: np.ndarray, offsets: np.ndarray) -> list[str]:
    raw = blob.tobytes()
    bounds = offsets.tolist()
    return [
        raw[bounds[i]:bounds[i + 1]].decode("utf-8")
        for i in range(len(bounds) - 1)
    ]


def _term_adjacency(
    bipartite, queries: list[str], query_index: Mapping[str, int]
) -> tuple[list[str], dict[str, np.ndarray], tuple[int, int]]:
    """CSR encodings of the query-term bipartite in both directions.

    Built from the authoritative :class:`Bipartite` adjacency dicts (not
    from the incidence matrix, whose column order is an internal detail),
    so the attached adapter reproduces ``queries_of``/``facet_set``
    verbatim.
    """
    terms = bipartite.facets
    term_index = {term: i for i, term in enumerate(terms)}
    # query -> term ordinals/weights, rows in query-ordinal order.
    qt_indptr = np.zeros(len(queries) + 1, dtype=np.int64)
    qt_indices: list[int] = []
    qt_data: list[float] = []
    for row, query in enumerate(queries):
        facets = bipartite.facets_of(query)
        for term in sorted(facets):
            qt_indices.append(term_index[term])
            qt_data.append(facets[term])
        qt_indptr[row + 1] = len(qt_indices)
    # term -> query ordinals/weights, rows in sorted-term order.
    tq_indptr = np.zeros(len(terms) + 1, dtype=np.int64)
    tq_indices: list[int] = []
    tq_data: list[float] = []
    for row, term in enumerate(terms):
        for query, weight in sorted(bipartite.queries_of(term).items()):
            ordinal = query_index.get(query)
            if ordinal is not None:
                tq_indices.append(ordinal)
                tq_data.append(weight)
        tq_indptr[row + 1] = len(tq_indices)
    arrays = {
        "termidx.qt.indptr": qt_indptr,
        "termidx.qt.indices": np.asarray(qt_indices, dtype=np.int64),
        "termidx.qt.data": np.asarray(qt_data, dtype=np.float64),
        "termidx.tq.indptr": tq_indptr,
        "termidx.tq.indices": np.asarray(tq_indices, dtype=np.int64),
        "termidx.tq.data": np.asarray(tq_data, dtype=np.float64),
    }
    return terms, arrays, (len(queries), len(terms))


def _pack_segment(
    plan: list[tuple[str, np.ndarray]], prefix: str, epoch_id: int
) -> tuple[shared_memory.SharedMemory, dict[str, _ArraySpec], int]:
    """Lay *plan*'s arrays into a fresh named segment, 64-byte aligned.

    Returns ``(segment, specs, total_bytes)``.  The segment name embeds the pid, a random token and *epoch_id*, so
    concurrent publishers (and generations) never collide.
    """
    specs: dict[str, _ArraySpec] = {}
    cursor = 0
    for name, array in plan:
        cursor = -(-cursor // _ALIGNMENT) * _ALIGNMENT
        specs[name] = _ArraySpec(
            offset=cursor,
            dtype=str(array.dtype),
            shape=tuple(int(d) for d in array.shape),
        )
        cursor += array.nbytes
    total = max(cursor, 1)
    name = f"{prefix}-{os.getpid()}-{secrets.token_hex(4)}-e{epoch_id}"
    segment = shared_memory.SharedMemory(name=name, create=True, size=total)
    for plan_name, array in plan:
        spec = specs[plan_name]
        view = np.ndarray(
            spec.shape,
            dtype=spec.dtype,
            buffer=segment.buf,
            offset=spec.offset,
        )
        view[...] = array
    return segment, specs, total


def _unregister_from_tracker(segment: shared_memory.SharedMemory) -> None:
    """Drop an attach-time ``resource_tracker`` registration.

    ``SharedMemory.__init__`` registers the name unconditionally — for
    attachers too.  An attacher running its *own* tracker (a process
    launched outside the publisher's ``multiprocessing`` tree, e.g. via
    plain ``subprocess``) would have that tracker unlink the still
    published segment when it exits; stripping the registration right
    after attach leaves lifecycle control with the publisher.  Processes
    that *share* the publisher's tracker — the same process, and every
    ``multiprocessing`` child, spawn or fork alike (POSIX children inherit
    the tracker fd) — must NOT do this: the tracker's registry is a set,
    so their unregister would strip the publisher's own registration and
    make the eventual ``unlink`` double-unregister.
    """
    try:  # pragma: no cover - trivial, but guarded across CPython versions
        resource_tracker.unregister(segment._name, "shared_memory")
    except Exception:
        pass


def _close_attached(segment: shared_memory.SharedMemory) -> None:
    """Close an attacher's mapping once its holder dropped the views.

    Views held without reference cycles die with their last reference, so
    the close normally succeeds at once; only when the buffer is still
    pinned does a full collection (tens of milliseconds in a serving
    worker, paid inside its generation swap) run before one retry.  If
    foreign references still pin it, the close is deferred to process
    exit rather than raising mid-swap.
    """
    try:
        segment.close()
    except BufferError:
        gc.collect()
        try:
            segment.close()
        except BufferError:  # views still referenced elsewhere
            pass


class SharedMatrixStore:
    """Publisher-side owner of one generation's shared segment.

    Build one with :meth:`publish`; hand :attr:`meta` to workers; call
    :meth:`unlink` exactly once when every attacher has acked moving off
    this generation (the pool's generation handshake enforces that), then
    :meth:`close`.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, meta: SharedPlaneMeta
    ) -> None:
        self._segment = segment
        self._meta = meta
        self._unlinked = False
        self._closed = False

    @classmethod
    def publish(
        cls,
        matrices: BipartiteMatrices,
        expander: RandomWalkExpander | None = None,
        multibipartite=None,
        epoch_id: int = 0,
        prefix: str = "pqsda",
        hot_table: Mapping[str, Sequence[str]] | None = None,
    ) -> "SharedMatrixStore":
        """Copy one generation's serving plane into a fresh segment.

        *expander* supplies the factored walk stacks (built from
        *matrices* when omitted); *multibipartite* supplies the query-term
        adjacency for the unseen-query backoff (omitted = attached planes
        serve with the backoff unavailable); *hot_table* maps head queries
        to their precomputed diversified rankings (omitted or empty = no
        hot tier in this generation).  The segment name embeds the pid, a
        random token and *epoch_id*, so concurrent publishers (and
        generations) never collide.
        """
        if matrices.gram is None:
            raise ValueError(
                "matrices must carry cached grams (build_matrices output)"
            )
        if expander is None:
            expander = RandomWalkExpander(multibipartite, matrices=matrices)
        plan: list[tuple[str, np.ndarray]] = []
        csr_shapes: dict[str, tuple[int, int]] = {}
        csr_sorted: dict[str, bool] = {}

        def add_csr(name: str, matrix: sparse.csr_matrix) -> None:
            csr_shapes[name] = (int(matrix.shape[0]), int(matrix.shape[1]))
            csr_sorted[name] = bool(matrix.has_sorted_indices)
            plan.append((f"{name}.indptr", np.ascontiguousarray(matrix.indptr)))
            plan.append(
                (f"{name}.indices", np.ascontiguousarray(matrix.indices))
            )
            plan.append((f"{name}.data", np.ascontiguousarray(matrix.data)))

        for kind in BIPARTITE_KINDS:
            add_csr(f"incidence.{kind}", matrices.incidence[kind])
            add_csr(f"gram.{kind}", matrices.gram[kind])
        forward, backward = expander.walk_stacks
        add_csr("stack.forward", forward.tocsr())
        add_csr("stack.backward", backward.tocsr())

        blob, offsets = _encode_vocab(matrices.queries)
        plan.append(("vocab.queries.blob", blob))
        plan.append(("vocab.queries.offsets", offsets))

        n_terms = 0
        if multibipartite is not None:
            terms, term_arrays, (_, n_terms) = _term_adjacency(
                multibipartite.bipartite("T"),
                matrices.queries,
                matrices.query_index,
            )
            term_blob, term_offsets = _encode_vocab(terms)
            plan.append(("terms.blob", term_blob))
            plan.append(("terms.offsets", term_offsets))
            plan.extend(term_arrays.items())

        if hot_table:
            plan.extend(_hot_table_arrays(hot_table).items())

        segment, specs, total = _pack_segment(plan, prefix, epoch_id)
        meta = SharedPlaneMeta(
            segment=segment.name,
            arrays=specs,
            csr_shapes=csr_shapes,
            csr_sorted=csr_sorted,
            n_queries=matrices.n_queries,
            n_terms=n_terms,
            epoch_id=epoch_id,
            total_bytes=total,
        )
        return cls(segment, meta)

    @property
    def meta(self) -> SharedPlaneMeta:
        """The picklable manifest workers attach from."""
        return self._meta

    @property
    def segment_name(self) -> str:
        """The shared-memory segment name (a ``/dev/shm`` entry on Linux)."""
        return self._meta.segment

    @property
    def total_bytes(self) -> int:
        """Bytes held by the segment (counted once however many attach)."""
        return self._meta.total_bytes

    def hot_table(self) -> SharedHotTable | None:
        """The packed hot-query table read from this store's own mapping.

        This is the publisher-side handle the pool parent serves hot hits
        from.  The index arrays are *snapshots* (a few KB), not views, so
        the handle never pins the segment buffer — the parent can keep
        answering from a superseded generation's table for the instant it
        takes to swap references while the old segment is being closed.
        Workers attach the same bytes zero-copy via :class:`AttachedPlane`.
        ``None`` when the generation was published without a table.
        """
        if not self._meta.has_hot_table:
            return None
        meta = self._meta
        segment = self._segment

        def snapshot(name: str) -> np.ndarray:
            spec = meta.arrays[name]
            return np.array(
                np.ndarray(
                    spec.shape,
                    dtype=spec.dtype,
                    buffer=segment.buf,
                    offset=spec.offset,
                )
            )

        return SharedHotTable._from_views(snapshot)

    def unlink(self) -> None:
        """Remove the segment from the system (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            self._segment.unlink()

    def close(self) -> None:
        """Drop this process's mapping (idempotent; unlink is separate)."""
        if not self._closed:
            self._closed = True
            self._segment.close()


class SharedTermBipartite:
    """Read-only term-side adapter over the shared query-term adjacency.

    Quacks like the slice of :class:`~repro.graphs.bipartite.Bipartite`
    the serving path touches — ``queries_of`` and ``facet_set`` — and
    reproduces the originals verbatim (same keys, same weights), so the
    term-backoff seeding is bit-identical across process boundaries.
    """

    def __init__(
        self,
        terms: list[str],
        queries: list[str],
        qt: tuple[np.ndarray, np.ndarray, np.ndarray],
        tq: tuple[np.ndarray, np.ndarray, np.ndarray],
    ) -> None:
        self._terms = terms
        self._term_index = {term: i for i, term in enumerate(terms)}
        self._queries = queries
        self._query_index = {query: i for i, query in enumerate(queries)}
        self._qt_indptr, self._qt_indices, self._qt_data = qt
        self._tq_indptr, self._tq_indices, self._tq_data = tq
        self._facet_sets: dict[str, frozenset[str]] = {}

    @property
    def facets(self) -> list[str]:
        """Term-side nodes, sorted (publish order)."""
        return list(self._terms)

    def queries_of(self, facet: str) -> dict[str, float]:
        """Query -> weight for one term (empty if the term is unknown)."""
        row = self._term_index.get(facet)
        if row is None:
            return {}
        lo, hi = int(self._tq_indptr[row]), int(self._tq_indptr[row + 1])
        return {
            self._queries[int(ordinal)]: float(weight)
            for ordinal, weight in zip(
                self._tq_indices[lo:hi], self._tq_data[lo:hi]
            )
        }

    def facet_set(self, query: str) -> frozenset[str]:
        """The terms of *query* as a memoized frozenset."""
        cached = self._facet_sets.get(query)
        if cached is None:
            row = self._query_index.get(query)
            if row is None:
                cached = frozenset()
            else:
                lo = int(self._qt_indptr[row])
                hi = int(self._qt_indptr[row + 1])
                cached = frozenset(
                    self._terms[int(t)] for t in self._qt_indices[lo:hi]
                )
            self._facet_sets[query] = cached
        return cached


@dataclass(frozen=True)
class SharedRepresentation:
    """The representation handle a worker's ``PQSDA`` serves against.

    Covers exactly what the online path asks of a
    :class:`~repro.graphs.multibipartite.MultiBipartite`: membership
    tests and the query-term bipartite for the unseen-query backoff.
    Offline operations (rebuilds, restrictions) stay with the publisher.
    """

    queries: list[str]
    query_index: dict[str, int]
    term_bipartite: SharedTermBipartite | None = None
    _members: frozenset[str] = field(default=frozenset(), repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "_members", frozenset(self.queries))

    @property
    def n_queries(self) -> int:
        """Number of query nodes."""
        return len(self.queries)

    def __contains__(self, query: str) -> bool:
        return normalize_query(query) in self._members

    def bipartite(self, kind: str):
        """The shared query-term adapter (only ``"T"`` crosses processes)."""
        if kind != "T":
            raise KeyError(
                f"shared representations expose only the 'T' bipartite, "
                f"got {kind!r}"
            )
        if self.term_bipartite is None:
            raise KeyError(
                "term index was not published (publish with multibipartite "
                "to enable the unseen-query backoff)"
            )
        return self.term_bipartite


class AttachedPlane:
    """Worker-side read-only view of one published generation.

    Pass ``untrack=True`` only when attaching from a process with its own
    ``resource_tracker`` (launched outside the publisher's
    ``multiprocessing`` tree), so that tracker does not unlink the
    published segment at exit; every in-tree attacher — pool workers
    included — shares the publisher's tracker and must leave it off (see
    :func:`_unregister_from_tracker`).

    Attributes:
        matrices: :class:`BipartiteMatrices` whose incidence and gram CSR
            parts are views into the shared segment (affinity and
            transition are lazy derivations the hot path never touches).
        expander: Walk expander over ``matrices`` with the published
            stacks attached (views as well).
        representation: The :class:`SharedRepresentation` handle.
        hot_table: :class:`SharedHotTable` over the segment's packed
            hot-query arrays (``None`` when none was published).
    """

    def __init__(self, meta: SharedPlaneMeta, untrack: bool = False) -> None:
        self._meta = meta
        self._segment = shared_memory.SharedMemory(name=meta.segment)
        if untrack:
            _unregister_from_tracker(self._segment)
        self._closed = False

        def view(name: str) -> np.ndarray:
            spec = meta.arrays[name]
            array = np.ndarray(
                spec.shape,
                dtype=spec.dtype,
                buffer=self._segment.buf,
                offset=spec.offset,
            )
            array.flags.writeable = False
            return array

        def csr(name: str) -> sparse.csr_matrix:
            return csr_from_parts(
                view(f"{name}.data"),
                view(f"{name}.indices"),
                view(f"{name}.indptr"),
                meta.csr_shapes[name],
                sorted_indices=meta.csr_sorted[name],
            )

        queries = _decode_vocab(
            view("vocab.queries.blob"), view("vocab.queries.offsets")
        )
        query_index = {query: i for i, query in enumerate(queries)}
        incidence = {kind: csr(f"incidence.{kind}") for kind in BIPARTITE_KINDS}
        gram = {kind: csr(f"gram.{kind}") for kind in BIPARTITE_KINDS}
        self.matrices = BipartiteMatrices(
            queries=queries,
            query_index=query_index,
            incidence=incidence,
            affinity=LazyAffinities(gram),
            transition=_LazyTransitions(incidence),
            gram=gram,
        )
        term_bipartite = None
        if meta.has_term_index:
            term_bipartite = SharedTermBipartite(
                _decode_vocab(view("terms.blob"), view("terms.offsets")),
                queries,
                (
                    view("termidx.qt.indptr"),
                    view("termidx.qt.indices"),
                    view("termidx.qt.data"),
                ),
                (
                    view("termidx.tq.indptr"),
                    view("termidx.tq.indices"),
                    view("termidx.tq.data"),
                ),
            )
        self.hot_table = (
            SharedHotTable._from_views(view) if meta.has_hot_table else None
        )
        self.representation = SharedRepresentation(
            queries=queries,
            query_index=query_index,
            term_bipartite=term_bipartite,
        )
        self.expander = RandomWalkExpander(
            self.representation,
            matrices=self.matrices,
            stacks=(csr("stack.forward"), csr("stack.backward")),
        )

    @property
    def meta(self) -> SharedPlaneMeta:
        """The manifest this plane attached from."""
        return self._meta

    @property
    def epoch_id(self) -> int:
        """The generation's epoch ordinal."""
        return self._meta.epoch_id

    def shares_memory(self) -> bool:
        """True when every matrix payload is a view into the segment."""
        base = np.ndarray(
            (self._meta.total_bytes,),
            dtype=np.uint8,
            buffer=self._segment.buf,
        )
        payloads = [
            self.matrices.incidence[kind].data for kind in BIPARTITE_KINDS
        ] + [
            self.matrices.gram[kind].data for kind in BIPARTITE_KINDS
        ] + [stack.data for stack in self.expander.walk_stacks]
        return all(np.shares_memory(base, payload) for payload in payloads)

    def close(self) -> None:
        """Release the mapping (views must no longer be reachable).

        Drops this plane's references, then closes (see
        :func:`_close_attached`).
        """
        if self._closed:
            return
        self._closed = True
        self.matrices = None
        self.expander = None
        self.representation = None
        self.hot_table = None
        _close_attached(self._segment)


def attach(meta: SharedPlaneMeta, untrack: bool = False) -> AttachedPlane:
    """Attach a published generation (convenience over AttachedPlane)."""
    return AttachedPlane(meta, untrack=untrack)
