"""Session-structured corpus shared by the UPM and all topic-model baselines.

The paper organizes "the query log entries of each user as a document"
(Sec. V-A); within a document, the *session* is the unit that carries a
topic.  :class:`SessionCorpus` materializes that view: one document per
user, each a list of sessions holding word ids, URL ids and a timestamp
normalized to [0, 1] over the log's span (the Beta-distribution support the
UPM and TOT need).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logs.schema import Session
from repro.logs.storage import QueryLog
from repro.utils.text import tokenize

__all__ = [
    "SessionData",
    "Document",
    "SessionCorpus",
    "build_corpus",
]


@dataclass(frozen=True, slots=True)
class SessionData:
    """One session as the topic models see it.

    Attributes:
        words: Global word ids of the session's query terms (with repeats).
        urls: Global URL ids of the session's clicks (with repeats).
        timestamp: Session start time normalized to [0, 1].
        record_words: Word ids grouped per query submission — the *query*
            topic-unit boundaries that CTM/PTM-style models need.
        record_urls: URL ids grouped per query submission (possibly empty
            groups for no-click submissions).
    """

    words: tuple[int, ...]
    urls: tuple[int, ...]
    timestamp: float
    record_words: tuple[tuple[int, ...], ...] = ()
    record_urls: tuple[tuple[int, ...], ...] = ()


@dataclass(frozen=True, slots=True)
class Document:
    """One user's search history.

    Attributes:
        user_id: The user behind the document.
        sessions: The user's sessions in time order.
    """

    user_id: str
    sessions: tuple[SessionData, ...]

    @property
    def n_words(self) -> int:
        """Total word occurrences across the document's sessions."""
        return sum(len(session.words) for session in self.sessions)

    @property
    def all_words(self) -> list[int]:
        """All word ids in session order (with repeats)."""
        return [w for session in self.sessions for w in session.words]


@dataclass(frozen=True)
class SessionCorpus:
    """All documents plus the word/URL id maps.

    Attributes:
        documents: One per user, ordered by user id.
        word_of_id / id_of_word: Global word vocabulary maps.
        url_of_id / id_of_url: Global URL maps.
    """

    documents: tuple[Document, ...]
    word_of_id: tuple[str, ...]
    id_of_word: dict[str, int]
    url_of_id: tuple[str, ...]
    id_of_url: dict[str, int]
    #: Epoch seconds mapped to normalized time 0.0 (the log's earliest
    #: record); kept so serving-time timestamps can be normalized the same
    #: way the training sessions were.
    time_low: float = 0.0
    #: Length of the normalization window in seconds (>= 1).
    time_span: float = 1.0
    doc_index: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.doc_index:
            object.__setattr__(
                self,
                "doc_index",
                {doc.user_id: i for i, doc in enumerate(self.documents)},
            )

    @property
    def n_documents(self) -> int:
        """Number of documents (users)."""
        return len(self.documents)

    @property
    def n_words(self) -> int:
        """Vocabulary size W."""
        return len(self.word_of_id)

    @property
    def n_urls(self) -> int:
        """URL vocabulary size U."""
        return len(self.url_of_id)

    @property
    def total_tokens(self) -> int:
        """Total word occurrences in the corpus."""
        return sum(doc.n_words for doc in self.documents)

    def document_of(self, user_id: str) -> Document:
        """The document of *user_id*; raises ``KeyError`` if unknown."""
        try:
            return self.documents[self.doc_index[user_id]]
        except KeyError:
            raise KeyError(f"no document for user {user_id!r}") from None

    def normalize_time(self, epoch_seconds: float) -> float:
        """Map an epoch timestamp into the corpus's [0, 1] window (clamped)."""
        value = (epoch_seconds - self.time_low) / self.time_span
        return float(min(max(value, 0.0), 1.0))

    def word_ids(self, text_terms: list[str]) -> list[int]:
        """Map terms to word ids, silently dropping out-of-vocabulary terms."""
        return [
            self.id_of_word[term]
            for term in text_terms
            if term in self.id_of_word
        ]

    def split_prefix(
        self, observed_fraction: float
    ) -> tuple["SessionCorpus", list[list[int]]]:
        """Split each document into an observed prefix and held-out words.

        The first ``ceil(observed_fraction * n_sessions)`` sessions of each
        document stay observed (at least one, so every user retains some
        history); the remaining sessions' word ids become the held-out list.
        This is the Eq. 35 evaluation protocol: train on the prefix, predict
        the suffix words.
        """
        if not 0.0 < observed_fraction < 1.0:
            raise ValueError(
                f"observed_fraction must be in (0, 1), got {observed_fraction}"
            )
        observed_docs: list[Document] = []
        heldout: list[list[int]] = []
        for doc in self.documents:
            n = len(doc.sessions)
            cut = max(1, int(round(observed_fraction * n)))
            cut = min(cut, n)
            observed_docs.append(
                Document(user_id=doc.user_id, sessions=doc.sessions[:cut])
            )
            heldout.append(
                [w for session in doc.sessions[cut:] for w in session.words]
            )
        observed = SessionCorpus(
            documents=tuple(observed_docs),
            word_of_id=self.word_of_id,
            id_of_word=self.id_of_word,
            url_of_id=self.url_of_id,
            id_of_url=self.id_of_url,
            time_low=self.time_low,
            time_span=self.time_span,
        )
        return observed, heldout


def build_corpus(log: QueryLog, sessions: list[Session]) -> SessionCorpus:
    """Build the :class:`SessionCorpus` of *log* under *sessions*.

    Sessions with no topical terms are dropped (they carry no signal for any
    of the models); users whose every session was dropped are omitted.
    """
    word_ids: dict[str, int] = {}
    url_ids: dict[str, int] = {}
    low, high = (0.0, 1.0)
    if len(log) > 0:
        low, high = log.time_range
    span = max(high - low, 1.0)

    per_user: dict[str, list[SessionData]] = {}
    for session in sessions:
        record_words: list[tuple[int, ...]] = []
        record_urls: list[tuple[int, ...]] = []
        for record in session:
            words_of_record: list[int] = []
            for term in tokenize(record.query):
                if term not in word_ids:
                    word_ids[term] = len(word_ids)
                words_of_record.append(word_ids[term])
            urls_of_record: list[int] = []
            if record.clicked_url is not None:
                url = record.clicked_url
                if url not in url_ids:
                    url_ids[url] = len(url_ids)
                urls_of_record.append(url_ids[url])
            if words_of_record:
                record_words.append(tuple(words_of_record))
                record_urls.append(tuple(urls_of_record))
        if not record_words:
            continue
        timestamp = (session.start_time - low) / span
        per_user.setdefault(session.user_id, []).append(
            SessionData(
                words=tuple(w for group in record_words for w in group),
                urls=tuple(u for group in record_urls for u in group),
                timestamp=float(min(max(timestamp, 0.0), 1.0)),
                record_words=tuple(record_words),
                record_urls=tuple(record_urls),
            )
        )

    documents = tuple(
        Document(user_id=user_id, sessions=tuple(data))
        for user_id, data in sorted(per_user.items())
    )
    word_of_id = tuple(sorted(word_ids, key=word_ids.get))
    url_of_id = tuple(sorted(url_ids, key=url_ids.get))
    return SessionCorpus(
        documents=documents,
        word_of_id=word_of_id,
        id_of_word=dict(word_ids),
        url_of_id=url_of_id,
        id_of_url=dict(url_ids),
        time_low=low,
        time_span=span,
    )
