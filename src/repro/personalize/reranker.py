"""Personalized re-ranking wrapper for arbitrary suggesters.

The paper's Fig. 5 applies "our personalization method" to every
diversification-stage baseline (FRW(P), BRW(P), HT(P), DQS(P)): the base
method produces candidates, the UPM profile scores them, and Borda fuses
the two rankings — exactly PQS-DA's own final stage.  This wrapper makes
that composition a first-class object.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.baselines.base import Suggester
from repro.logs.schema import QueryRecord
from repro.personalize.borda import personalize_ranking
from repro.personalize.profiles import ArrayProfileStore

__all__ = ["PersonalizedReranker"]


class PersonalizedReranker(Suggester):
    """Wrap *base* so its output is re-ranked by the user's UPM profile.

    Suggested name follows the paper: ``"FRW(P)"`` for a wrapped FRW.
    Anonymous calls (no ``user_id`` or unprofiled user) pass the base
    ranking through unchanged.
    """

    def __init__(
        self,
        base: Suggester,
        store: ArrayProfileStore,
        personalization_weight: float = 1.0,
    ) -> None:
        if personalization_weight < 0:
            raise ValueError("personalization_weight must be >= 0")
        self._base = base
        self._store = store
        self._weight = personalization_weight
        self.name = f"{base.name}(P)"

    @property
    def base(self) -> Suggester:
        """The wrapped suggester."""
        return self._base

    def suggest(
        self,
        query: str,
        k: int = 10,
        user_id: str | None = None,
        context: Sequence[QueryRecord] = (),
        timestamp: float = 0.0,
    ) -> list[str]:
        candidates = self._base.suggest(
            query, k=k, user_id=user_id, context=context, timestamp=timestamp
        )
        if not candidates or user_id is None or user_id not in self._store:
            return candidates
        scores = self._store.score_candidates(user_id, candidates)
        final = personalize_ranking(
            candidates, scores, personalization_weight=self._weight
        )
        return final.top(k)
