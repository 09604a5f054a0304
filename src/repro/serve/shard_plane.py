"""Per-shard shared-memory segments of the sharded graph plane.

The sharded counterpart of :mod:`repro.serve.shm`: instead of one segment
holding the whole plane, each :class:`~repro.graphs.shard.ShardSlice`
packs into its **own** named segment (:class:`SharedShardStore`), so a
per-shard epoch publish creates, swaps and unlinks exactly one shard's
bytes — the other shards' segments, the hot tier and the profile plane
are untouched.

A worker attaches only the shards it serves
(:class:`AttachedShardedPlane` eagerly maps the home shards and lazily
maps foreign ones the first time a walk spills or a term backoff needs
them) and rebuilds a :class:`~repro.graphs.shard.ShardedExpander` whose
``expand``/``walk_mass`` are bit-identical to the unsharded plane.  The
facades a worker's :class:`~repro.core.suggester.PQSDA` serves against:

* :class:`ShardedRepresentation` — membership tests route through the
  shard plan (attaching the owning shard on demand) and the ``"T"``
  bipartite merges the per-shard query-term adjacencies;
* :class:`ShardedTermBipartite` — ``queries_of`` is the union of every
  shard's home rows for that term (shards partition the query side, so
  the merged dict equals the global one key-for-key and bit-for-bit) and
  ``facet_set`` answers from the query's home shard, whose restricted
  bipartite keeps every term of a home query.

Lifecycle mirrors the full-plane store: the publisher owns
:meth:`~SharedShardStore.unlink`; attachers only
:meth:`~AttachedShard.close` their mapping, and both are idempotent.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np
from scipy import sparse

from repro.graphs.matrices import csr_from_parts
from repro.graphs.multibipartite import BIPARTITE_KINDS
from repro.graphs.shard import ShardPlan, ShardSlice, ShardedExpander
from repro.serve.shm import (
    SharedHotTable,
    SharedTermBipartite,
    _ArraySpec,
    _close_attached,
    _decode_vocab,
    _encode_vocab,
    _hot_table_arrays,
    _pack_segment,
    _term_adjacency,
    _unregister_from_tracker,
)

__all__ = [
    "AttachedShard",
    "AttachedShardedPlane",
    "ShardSegmentMeta",
    "SharedShardStore",
    "ShardedRepresentation",
    "ShardedTermBipartite",
]


@dataclass(frozen=True)
class ShardSegmentMeta:
    """Picklable manifest of one shard's published segment.

    The per-shard analogue of
    :class:`~repro.serve.shm.SharedPlaneMeta`: everything a worker needs
    to rebuild the shard's :class:`~repro.graphs.shard.ShardSlice` as
    read-only views — CSR manifests for the local incidence, walk stacks
    and (closed shards) gram, the home-query and per-kind facet-name
    vocabularies, and the global row ordinals.
    """

    segment: str
    arrays: dict[str, _ArraySpec]
    csr_shapes: dict[str, tuple[int, int]]
    csr_sorted: dict[str, bool]
    shard_id: int
    n_queries: int
    n_queries_global: int
    closed: bool
    has_gram: bool
    n_terms: int
    epoch_id: int
    total_bytes: int

    @property
    def has_term_index(self) -> bool:
        """Whether the shard's query-term adjacency was published."""
        return "terms.blob" in self.arrays

    @property
    def has_hot_table(self) -> bool:
        """Whether the shard's hot-query partition was published."""
        return "hot.hashes" in self.arrays


class SharedShardStore:
    """Publisher-side owner of one shard's shared segment.

    Same ownership contract as the full-plane store: hand :attr:`meta`
    to workers, :meth:`unlink` exactly once after every attacher acked
    moving off this shard generation, then :meth:`close`.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, meta: ShardSegmentMeta
    ) -> None:
        self._segment = segment
        self._meta = meta
        self._unlinked = False
        self._closed = False

    @classmethod
    def publish(
        cls,
        piece: ShardSlice,
        epoch_id: int = 0,
        prefix: str = "pqsda-shard",
        term_bipartite=None,
        hot_table: Mapping[str, Sequence[str]] | None = None,
    ) -> "SharedShardStore":
        """Copy one shard slice into a fresh named segment.

        *term_bipartite* is the **global** query-term
        :class:`~repro.graphs.bipartite.Bipartite`; it is restricted to
        the shard's home queries before packing, so the published
        adjacency carries exactly the home rows of the global index (the
        cross-shard merge in :class:`ShardedTermBipartite` reassembles
        the global dicts verbatim).  *hot_table* is this shard's
        partition of the precomputed hot rankings — it rides the shard's
        segment, so a per-shard swap refreshes exactly its own hot
        entries.
        """
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
            add_csr(f"incidence.{kind}", piece.incidence[kind])
            if piece.gram is not None:
                add_csr(f"gram.{kind}", piece.gram[kind])
        add_csr("stack.forward", piece.forward_stack.tocsr())
        add_csr("stack.backward", piece.backward_stack.tocsr())

        plan.append(("rows", np.ascontiguousarray(piece.rows, dtype=np.int64)))
        blob, offsets = _encode_vocab(list(piece.queries))
        plan.append(("vocab.queries.blob", blob))
        plan.append(("vocab.queries.offsets", offsets))
        for kind in BIPARTITE_KINDS:
            facet_blob, facet_offsets = _encode_vocab(
                list(piece.facet_names[kind])
            )
            plan.append((f"facets.{kind}.blob", facet_blob))
            plan.append((f"facets.{kind}.offsets", facet_offsets))

        n_terms = 0
        if term_bipartite is not None:
            home = term_bipartite.restrict_queries(piece.queries)
            terms, term_arrays, (_, n_terms) = _term_adjacency(
                home, list(piece.queries), piece.query_index
            )
            term_blob, term_offsets = _encode_vocab(terms)
            plan.append(("terms.blob", term_blob))
            plan.append(("terms.offsets", term_offsets))
            plan.extend(term_arrays.items())

        if hot_table:
            plan.extend(_hot_table_arrays(hot_table).items())

        segment, specs, total = _pack_segment(
            plan, f"{prefix}{piece.shard_id}", epoch_id
        )
        meta = ShardSegmentMeta(
            segment=segment.name,
            arrays=specs,
            csr_shapes=csr_shapes,
            csr_sorted=csr_sorted,
            shard_id=piece.shard_id,
            n_queries=piece.n_queries,
            n_queries_global=piece.n_queries_global,
            closed=piece.closed,
            has_gram=piece.gram is not None,
            n_terms=n_terms,
            epoch_id=epoch_id,
            total_bytes=total,
        )
        return cls(segment, meta)

    @property
    def meta(self) -> ShardSegmentMeta:
        """The picklable manifest workers attach from."""
        return self._meta

    @property
    def shard_id(self) -> int:
        """The shard this store publishes."""
        return self._meta.shard_id

    @property
    def segment_name(self) -> str:
        """The shared-memory segment name."""
        return self._meta.segment

    @property
    def total_bytes(self) -> int:
        """Bytes held by this shard's segment."""
        return self._meta.total_bytes

    def hot_table(self) -> SharedHotTable | None:
        """This shard's packed hot partition (snapshot arrays, not views)."""
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


class AttachedShard:
    """Read-only mapping of one published shard segment.

    Rebuilds the shard's :class:`~repro.graphs.shard.ShardSlice` over
    zero-copy views (CSR parts, walk stacks, row ordinals) plus the
    shard's :class:`~repro.serve.shm.SharedTermBipartite` when the term
    adjacency was published.
    """

    def __init__(self, meta: ShardSegmentMeta, untrack: bool = False) -> None:
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
        incidence = {kind: csr(f"incidence.{kind}") for kind in BIPARTITE_KINDS}
        gram = (
            {kind: csr(f"gram.{kind}") for kind in BIPARTITE_KINDS}
            if meta.has_gram
            else None
        )
        facet_names = {
            kind: tuple(
                _decode_vocab(
                    view(f"facets.{kind}.blob"), view(f"facets.{kind}.offsets")
                )
            )
            for kind in BIPARTITE_KINDS
        }
        self.slice = ShardSlice(
            shard_id=meta.shard_id,
            queries=tuple(queries),
            rows=view("rows"),
            n_queries_global=meta.n_queries_global,
            closed=meta.closed,
            incidence=incidence,
            facet_names=facet_names,
            gram=gram,
            stacks=(csr("stack.forward"), csr("stack.backward")),
        )
        self.term_bipartite = None
        if meta.has_term_index:
            self.term_bipartite = SharedTermBipartite(
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

    @property
    def meta(self) -> ShardSegmentMeta:
        """The manifest this shard attached from."""
        return self._meta

    @property
    def epoch_id(self) -> int:
        """The shard generation's epoch ordinal."""
        return self._meta.epoch_id

    def shares_memory(self) -> bool:
        """True when every matrix payload is a view into the segment."""
        base = np.ndarray(
            (self._meta.total_bytes,),
            dtype=np.uint8,
            buffer=self._segment.buf,
        )
        payloads = [
            self.slice.incidence[kind].data for kind in BIPARTITE_KINDS
        ] + [self.slice.forward_stack.data, self.slice.backward_stack.data]
        if self.slice.gram is not None:
            payloads += [
                self.slice.gram[kind].data for kind in BIPARTITE_KINDS
            ]
        return all(np.shares_memory(base, payload) for payload in payloads)

    def close(self) -> None:
        """Release the mapping (idempotent; views must be unreachable)."""
        if self._closed:
            return
        self._closed = True
        self.slice = None
        self.term_bipartite = None
        self.hot_table = None
        _close_attached(self._segment)


class ShardedTermBipartite:
    """Cross-shard facade over the per-shard query-term adjacencies.

    Shards partition the query side, so ``queries_of`` is an exact
    reassembly: each shard contributes its home rows of the global
    term -> query dict (disjoint keys, original weights), and the
    downstream jaccard scoring sorts by ``(-score, query)`` — merge
    order cannot change the result.  ``facet_set`` answers from the
    query's home shard, whose restricted bipartite keeps every term of a
    home query.
    """

    def __init__(self, plane: "AttachedShardedPlane") -> None:
        self._plane = plane

    @property
    def facets(self) -> list[str]:
        """Sorted union of every shard's term vocabulary."""
        merged: set[str] = set()
        for shard_id in range(self._plane.plan.n_shards):
            adapter = self._plane.term_adapter(shard_id)
            if adapter is not None:
                merged.update(adapter.facets)
        return sorted(merged)

    def queries_of(self, facet: str) -> dict[str, float]:
        """Query -> weight for one term, merged across every shard."""
        merged: dict[str, float] = {}
        for shard_id in range(self._plane.plan.n_shards):
            adapter = self._plane.term_adapter(shard_id)
            if adapter is not None:
                merged.update(adapter.queries_of(facet))
        return merged

    def facet_set(self, query: str) -> frozenset[str]:
        """The terms of *query*, answered by its home shard."""
        shard_id = self._plane.plan.shard_of(query)
        adapter = self._plane.term_adapter(shard_id)
        return adapter.facet_set(query) if adapter is not None else frozenset()


class ShardedRepresentation:
    """The representation handle a sharded worker's ``PQSDA`` serves against.

    Mirrors :class:`~repro.serve.shm.SharedRepresentation` over a lazily
    attached shard set: membership routes through the plan (attaching
    the owning shard on demand) and ``bipartite("T")`` yields the
    cross-shard term facade.
    """

    def __init__(self, plane: "AttachedShardedPlane") -> None:
        self._plane = plane
        self._term = ShardedTermBipartite(plane)

    @property
    def n_queries(self) -> int:
        """Global query-node count."""
        return self._plane.expander.n_queries_global

    def __contains__(self, query: str) -> bool:
        return query in self._plane.expander.matrices.query_index

    def bipartite(self, kind: str):
        """The cross-shard query-term facade (only ``"T"`` is served)."""
        if kind != "T":
            raise KeyError(
                f"sharded representations expose only the 'T' bipartite, "
                f"got {kind!r}"
            )
        if not self._plane.has_term_index:
            raise KeyError(
                "term index was not published (publish with multibipartite "
                "to enable the unseen-query backoff)"
            )
        return self._term


class AttachedShardedPlane:
    """Worker-side view of a sharded generation: home eager, foreign lazy.

    Args:
        metas: Shard id -> :class:`ShardSegmentMeta` for every shard.
        plan: The shard plan (routing + membership).
        home_shards: The shards this worker serves; they are attached
            eagerly, everything else the first time a spill or a term
            backoff reaches for it.
        untrack: Passed through to each attach (see
            :func:`repro.serve.shm._unregister_from_tracker`).

    Attributes:
        expander: :class:`~repro.graphs.shard.ShardedExpander` over the
            attached slices; bit-identical to the unsharded expander.
        representation: The :class:`ShardedRepresentation` facade.
    """

    def __init__(
        self,
        metas: Mapping[int, ShardSegmentMeta],
        plan: ShardPlan,
        home_shards: Sequence[int],
        untrack: bool = False,
    ) -> None:
        self._metas = dict(metas)
        self._plan = plan
        self._untrack = untrack
        self._attached: dict[int, AttachedShard] = {}
        self._home = sorted(int(s) for s in home_shards)
        slices = {
            shard_id: self._attach(shard_id).slice for shard_id in self._home
        }
        any_meta = next(iter(self._metas.values()))
        self.expander = ShardedExpander(
            plan,
            slices=slices,
            loader=self._load_slice,
            home_shards=self._home,
            n_queries_global=any_meta.n_queries_global,
        )
        self.representation = ShardedRepresentation(self)

    @property
    def plan(self) -> ShardPlan:
        """The shard plan."""
        return self._plan

    @property
    def home_shards(self) -> list[int]:
        """The shards this worker attaches eagerly."""
        return list(self._home)

    @property
    def has_term_index(self) -> bool:
        """Whether the generation was published with term adjacencies."""
        return any(meta.has_term_index for meta in self._metas.values())

    @property
    def epoch_ids(self) -> dict[int, int]:
        """Shard id -> epoch ordinal of the current manifests."""
        return {
            shard_id: meta.epoch_id
            for shard_id, meta in sorted(self._metas.items())
        }

    @property
    def epoch_id(self) -> int:
        """The newest shard epoch (what the worker reports upstream)."""
        return max(meta.epoch_id for meta in self._metas.values())

    @property
    def attached_shards(self) -> frozenset[int]:
        """Shards currently mapped in this process."""
        return frozenset(self._attached)

    def _attach(self, shard_id: int) -> AttachedShard:
        attached = self._attached.get(shard_id)
        if attached is None:
            attached = AttachedShard(
                self._metas[shard_id], untrack=self._untrack
            )
            self._attached[shard_id] = attached
        return attached

    def _load_slice(self, shard_id: int) -> ShardSlice:
        return self._attach(shard_id).slice

    def term_adapter(self, shard_id: int):
        """The shard's term adjacency adapter (attaching on demand)."""
        return self._attach(shard_id).term_bipartite

    def update_shard(self, meta: ShardSegmentMeta) -> None:
        """Swap one shard onto *meta* (the worker half of an ``sswap``).

        Only the touched shard's mapping moves: if the shard is attached
        the new segment is mapped, the expander's slice is replaced in
        place (same query set — per-shard publishes never renumber), and
        the superseded mapping is released; an unattached shard just
        records the new manifest for its eventual lazy attach.
        """
        shard_id = meta.shard_id
        self._metas[shard_id] = meta
        old = self._attached.pop(shard_id, None)
        if old is not None:
            fresh = self._attach(shard_id)
            self.expander.update_slice(fresh.slice)
            old.close()

    def shares_memory(self) -> bool:
        """True when every attached shard's payloads are segment views."""
        return all(
            attached.shares_memory() for attached in self._attached.values()
        )

    def close(self) -> None:
        """Release every mapping (idempotent)."""
        self.expander = None
        self.representation = None
        attached, self._attached = self._attached, {}
        for shard in attached.values():
            shard.close()
