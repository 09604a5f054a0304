"""The paper's multi-bipartite query-log representation (Sec. III).

Three bipartites share the query side:

* ``"U"`` — query-URL (the classic click graph's edges);
* ``"S"`` — query-session (a query connects to every session that issued it);
* ``"T"`` — query-term (a query connects to its topical terms).

Raw edge weights are submission counts (``c^X_{ij}``); the weighted variant
applies the ``cfiqf`` scheme of Eqs. 4-6.
"""

from __future__ import annotations

from collections.abc import Iterable

from repro.graphs.bipartite import Bipartite
from repro.graphs.weighting import apply_cfiqf, apply_entropy_bias
from repro.logs.schema import Session
from repro.logs.storage import QueryLog
from repro.utils.text import normalize_query, tokenize

__all__ = ["BIPARTITE_KINDS", "MultiBipartite", "build_multibipartite"]

#: The three bipartite kinds, in the paper's order (X ∈ {U, S, T}).
BIPARTITE_KINDS: tuple[str, ...] = ("U", "S", "T")


class MultiBipartite:
    """Three bipartites over a shared query-node set."""

    def __init__(self, bipartites: dict[str, Bipartite]) -> None:
        missing = set(BIPARTITE_KINDS) - set(bipartites)
        if missing:
            raise ValueError(f"missing bipartites: {sorted(missing)}")
        self._bipartites = {kind: bipartites[kind] for kind in BIPARTITE_KINDS}
        all_queries: set[str] = set()
        for bipartite in self._bipartites.values():
            all_queries.update(bipartite.queries)
        self._queries = sorted(all_queries)
        self._members = frozenset(all_queries)

    def bipartite(self, kind: str) -> Bipartite:
        """The bipartite of *kind* (``"U"``, ``"S"`` or ``"T"``)."""
        try:
            return self._bipartites[kind]
        except KeyError:
            raise KeyError(
                f"kind must be one of {BIPARTITE_KINDS}, got {kind!r}"
            ) from None

    @property
    def queries(self) -> list[str]:
        """The union of query nodes across the three bipartites, sorted."""
        return list(self._queries)

    @property
    def n_queries(self) -> int:
        """Number of distinct query nodes."""
        return len(self._queries)

    def __contains__(self, query: str) -> bool:
        return normalize_query(query) in self._members

    def query_neighbors(self, query: str) -> set[str]:
        """Queries reachable from *query* through any of the bipartites."""
        normalized = normalize_query(query)
        neighbors: set[str] = set()
        for bipartite in self._bipartites.values():
            neighbors.update(bipartite.query_neighbors(normalized))
        return neighbors

    def restrict_queries(self, queries: Iterable[str]) -> "MultiBipartite":
        """The compact sub-representation over the given query set."""
        wanted = [normalize_query(q) for q in queries]
        return MultiBipartite(
            {
                kind: bipartite.restrict_queries(wanted)
                for kind, bipartite in self._bipartites.items()
            }
        )


def build_multibipartite(
    log: QueryLog,
    sessions: list[Session],
    weighted: bool = True,
    scheme: str = "cfiqf",
) -> MultiBipartite:
    """Build the multi-bipartite representation of *log*.

    Args:
        log: The (cleaned) query log.
        sessions: Session segmentation of the same log (ground truth or the
            output of :func:`repro.logs.sessionizer.sessionize`).
        weighted: Apply edge re-weighting; when False the raw submission
            counts are kept (the paper's "raw" variant in Fig. 3(a)/(c)).
        scheme: Weighting scheme when *weighted*: ``"cfiqf"`` (the paper's
            Eqs. 4-6) or ``"entropy"`` (the entropy bias of Deng et al.,
            ref [18] — the ablation alternative).

    The query-URL and query-term bipartites come straight from the records;
    the query-session bipartite connects each query string to the id of
    every session that issued it.
    """
    if scheme not in ("cfiqf", "entropy"):
        raise ValueError(
            f"scheme must be 'cfiqf' or 'entropy', got {scheme!r}"
        )
    url_bipartite = Bipartite()
    term_bipartite = Bipartite()
    session_bipartite = Bipartite()

    for record in log:
        query = normalize_query(record.query)
        if not query:
            continue
        if record.clicked_url is not None:
            url_bipartite.add(query, record.clicked_url, 1.0)
        for term in set(tokenize(query)):
            term_bipartite.add(query, term, 1.0)

    for session in sessions:
        for record in session:
            query = normalize_query(record.query)
            if not query:
                continue
            session_bipartite.add(query, session.session_id, 1.0)

    bipartites = {"U": url_bipartite, "S": session_bipartite, "T": term_bipartite}
    if weighted:
        if scheme == "cfiqf":
            total = log.total_queries
            bipartites = {
                kind: apply_cfiqf(bipartite, total)
                for kind, bipartite in bipartites.items()
            }
        else:
            bipartites = {
                kind: apply_entropy_bias(bipartite)
                for kind, bipartite in bipartites.items()
            }
    return MultiBipartite(bipartites)
