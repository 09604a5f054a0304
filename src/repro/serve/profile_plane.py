"""Zero-copy shared-memory publication of the user-profile plane.

The matrix plane (:mod:`repro.serve.shm`) scales the *diversification*
pipeline across workers; this module does the same for the paper's
*personalization* layer.  One :class:`SharedProfileStore` owns a single
``multiprocessing`` shared-memory segment holding everything
``preference_score`` (Eq. 31) touches for every profiled user:

* the ``theta`` ``(D, K)`` profile matrix (Eq. 30) plus the per-row
  Dirichlet concentration (``theta_weight``) that lets click feedback
  fold into new generations incrementally;
* the per-user topic-word counts as one CSR-style block array
  (``counts.indptr`` / ``counts.gids`` / ``counts.data``) — the sparse
  state ``topic_word_distribution`` scatters dense per lookup;
* the learned ``beta`` ``(K, W)`` hyperparameters;
* the user-id vocab blob in document order — **sorted** order, since
  ``build_corpus`` orders documents by user id — so attached stores
  binary-search it per lookup;
* the word vocab blob (the backoff tokenization vocabulary).

Workers attach an :class:`AttachedProfilePlane` and get a read-only
:class:`~repro.personalize.profiles.ArrayProfileStore` whose numeric
arrays are views into the segment (``np.shares_memory`` holds for every
payload; the per-worker cost is the decoded vocabularies).  It is the
same store class the single-process ``PQSDA`` scores through, over the
same arrays, so Borda-fused pooled rankings equal the single-process
personalized rankings byte for byte.

Layout and lifecycle follow the :class:`~repro.serve.shm.SharedMatrixStore`
conventions, through the same packer and read-only views: 64-byte array
alignment, a picklable manifest
(:class:`SharedProfileMeta`) as the only per-generation IPC payload, the
publisher as the sole party that ever calls :meth:`~SharedProfileStore.unlink`
(after every worker acks moving off the generation — the pool's
``pswap`` handshake), and ``untrack=True`` for attachers outside the
publisher's ``multiprocessing`` tree.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.personalize.profiles import ArrayProfileStore, ProfileArrays
from repro.serve.shm import (
    _all_shared,
    _ArraySpec,
    _close_attached,
    _decode_vocab,
    _encode_vocab,
    _pack_segment,
    _readonly_view,
    _unregister_from_tracker,
)

__all__ = [
    "AttachedProfilePlane",
    "SharedProfileMeta",
    "SharedProfileStore",
    "attach_profiles",
]


@dataclass(frozen=True)
class SharedProfileMeta:
    """Picklable manifest of one published profile generation.

    This is the only thing that crosses the process boundary per profile
    generation: workers attach the named segment and rebuild an
    :class:`~repro.personalize.profiles.ArrayProfileStore` from the array
    specs.
    """

    segment: str
    arrays: dict[str, _ArraySpec]
    n_users: int
    n_topics: int
    n_words: int
    generation: int
    total_bytes: int


class SharedProfileStore:
    """Publisher-side owner of one profile generation's shared segment.

    Build one with :meth:`publish`; hand :attr:`meta` to workers; call
    :meth:`unlink` exactly once when every attacher has acked moving off
    this generation (the pool's profile-swap handshake enforces that),
    then :meth:`close`.
    """

    def __init__(
        self, segment: shared_memory.SharedMemory, meta: SharedProfileMeta
    ) -> None:
        self._segment = segment
        self._meta = meta
        self._unlinked = False

    @classmethod
    def publish(
        cls,
        arrays: ProfileArrays,
        prefix: str = "pqsda",
        generation: int | None = None,
    ) -> "SharedProfileStore":
        """Copy one profile generation into a fresh segment.

        *generation* defaults to the arrays' own ordinal.  The segment
        name embeds the pid, a random token and the generation, so
        concurrent publishers (and generations) never collide; a ``-p``
        marker keeps profile segments distinguishable from matrix
        segments under the same prefix.
        """
        if generation is None:
            generation = arrays.generation
        users_blob, users_offsets = _encode_vocab(list(arrays.users))
        words_blob, words_offsets = _encode_vocab(list(arrays.words))
        plan = [
            ("profile.theta", np.ascontiguousarray(arrays.theta)),
            (
                "profile.theta_weight",
                np.ascontiguousarray(arrays.theta_weight),
            ),
            ("profile.beta", np.ascontiguousarray(arrays.beta)),
            (
                "profile.counts.indptr",
                np.ascontiguousarray(arrays.counts_indptr),
            ),
            ("profile.counts.gids", np.ascontiguousarray(arrays.counts_gids)),
            ("profile.counts.data", np.ascontiguousarray(arrays.counts)),
            ("profile.users.blob", users_blob),
            ("profile.users.offsets", users_offsets),
            ("profile.words.blob", words_blob),
            ("profile.words.offsets", words_offsets),
        ]
        segment, specs, total = _pack_segment(plan, prefix, f"p{generation}")
        meta = SharedProfileMeta(
            segment=segment.name,
            arrays=specs,
            n_users=arrays.n_users,
            n_topics=arrays.n_topics,
            n_words=arrays.n_words,
            generation=generation,
            total_bytes=total,
        )
        return cls(segment, meta)

    @property
    def meta(self) -> SharedProfileMeta:
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

    @property
    def generation(self) -> int:
        """The published profile generation ordinal."""
        return self._meta.generation

    def unlink(self) -> None:
        """Remove the segment from the system (idempotent)."""
        if not self._unlinked:
            self._unlinked = True
            self._segment.unlink()

    def close(self) -> None:
        """Drop this process's mapping (the segment itself needs unlink)."""
        self._segment.close()


class AttachedProfilePlane:
    """Worker-side read-only profile scorer over one published generation.

    Attributes:
        store: :class:`~repro.personalize.profiles.ArrayProfileStore`
            whose numeric arrays are read-only views into the shared
            segment — scoring is bit-identical to the model-backed store
            the arrays were extracted from.

    Pass ``untrack=True`` only when attaching from a process with its own
    ``resource_tracker`` (launched outside the publisher's
    ``multiprocessing`` tree); in-tree attachers — pool workers included —
    share the publisher's tracker and must leave it off (see
    :func:`repro.serve.shm._unregister_from_tracker`).
    """

    def __init__(
        self, meta: SharedProfileMeta, untrack: bool = False
    ) -> None:
        self._meta = meta
        self._segment = shared_memory.SharedMemory(name=meta.segment)
        if untrack:
            _unregister_from_tracker(self._segment)
        self._closed = False

        def view(name: str) -> np.ndarray:
            return _readonly_view(self._segment, meta.arrays[name])

        arrays = ProfileArrays(
            users=tuple(
                _decode_vocab(
                    view("profile.users.blob"),
                    view("profile.users.offsets"),
                )
            ),
            theta=view("profile.theta"),
            theta_weight=view("profile.theta_weight"),
            beta=view("profile.beta"),
            counts_indptr=view("profile.counts.indptr"),
            counts_gids=view("profile.counts.gids"),
            counts=view("profile.counts.data"),
            words=tuple(
                _decode_vocab(
                    view("profile.words.blob"),
                    view("profile.words.offsets"),
                )
            ),
            generation=meta.generation,
        )
        self.store = ArrayProfileStore(arrays)

    @property
    def meta(self) -> SharedProfileMeta:
        """The manifest this plane attached from."""
        return self._meta

    @property
    def generation(self) -> int:
        """The attached profile generation ordinal."""
        return self._meta.generation

    def shares_memory(self) -> bool:
        """True when every numeric payload is a view into the segment."""
        arrays = self.store.arrays
        payloads = [
            arrays.theta,
            arrays.theta_weight,
            arrays.beta,
            arrays.counts_indptr,
            arrays.counts_gids,
            arrays.counts,
        ]
        return _all_shared(self._segment, self._meta.total_bytes, payloads)

    def close(self) -> None:
        """Release the mapping (views must no longer be reachable).

        Drops the store reference, then closes (see
        :func:`repro.serve.shm._close_attached`).
        """
        if self._closed:
            return
        self._closed = True
        self.store = None
        _close_attached(self._segment)


def attach_profiles(
    meta: SharedProfileMeta, untrack: bool = False
) -> AttachedProfilePlane:
    """Attach a published profile generation (convenience wrapper)."""
    return AttachedProfilePlane(meta, untrack=untrack)
