"""Synthetic search-engine users.

Each user has (1) a sparse Dirichlet preference over taxonomy leaves — their
long-term interests; (2) per-interest *temporal drift*: a Beta curve over the
log's time span modulating when each interest is prominent (the paper's "web
search is essentially dynamic"); and (3) idiosyncratic per-leaf word and URL
biases — the UPM's motivating example of the Toyota user vs. the Ford user.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.synth.taxonomy import Category
from repro.synth.vocabulary import Vocabulary
from repro.synth.web import SyntheticWeb
from repro.utils.rng import ensure_rng
from repro.utils.validation import check_probability

__all__ = ["UserModel", "UserPopulation"]


@dataclass(slots=True)
class UserModel:
    """One synthetic user.

    Attributes:
        user_id: Stable identifier, e.g. ``"user0042"``.
        interests: Leaf -> long-term preference weight (sums to 1).
        drift: Leaf -> ``(a, b)`` Beta parameters over normalized time.
        word_bias: Leaf -> multiplicative bias over the leaf's word list.
        url_bias: Leaf -> multiplicative bias over the leaf's page list.
    """

    user_id: str
    interests: dict[Category, float]
    drift: dict[Category, tuple[float, float]] = field(default_factory=dict)
    word_bias: dict[Category, np.ndarray] = field(default_factory=dict)
    url_bias: dict[Category, np.ndarray] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.interests:
            raise ValueError("user must have at least one interest")
        total = sum(self.interests.values())
        if not np.isclose(total, 1.0, atol=1e-6):
            raise ValueError(f"interest weights must sum to 1, got {total}")

    @property
    def interest_leaves(self) -> list[Category]:
        """The user's interest leaves, strongest first."""
        return sorted(self.interests, key=lambda c: (-self.interests[c], str(c)))

    def topic_weights_at(self, t_norm: float) -> dict[Category, float]:
        """Interest weights modulated by temporal drift at time ``t_norm``.

        ``t_norm`` is the position in the log's time span, in [0, 1].  The
        returned weights are normalized to sum to 1.
        """
        # Imported here, its one use: generation is offline-only, and a
        # module-level import would load scipy.stats into every serving
        # process that touches the package.
        from scipy.stats import beta as beta_dist

        check_probability("t_norm", t_norm)
        # Clamp away from the Beta pdf's possibly-infinite endpoints.
        t = min(max(t_norm, 1e-3), 1 - 1e-3)
        raw: dict[Category, float] = {}
        for leaf, weight in self.interests.items():
            a, b = self.drift.get(leaf, (1.0, 1.0))
            raw[leaf] = weight * float(beta_dist.pdf(t, a, b))
        total = sum(raw.values())
        if total <= 0:
            # Degenerate drift; fall back to the long-term interests.
            return dict(self.interests)
        return {leaf: value / total for leaf, value in raw.items()}

    def sample_intent(
        self, t_norm: float, rng: np.random.Generator
    ) -> Category:
        """Draw the leaf the user searches about at time ``t_norm``."""
        weights = self.topic_weights_at(t_norm)
        leaves = sorted(weights, key=str)
        probs = np.array([weights[leaf] for leaf in leaves])
        return leaves[int(rng.choice(len(leaves), p=probs / probs.sum()))]


class UserPopulation:
    """A collection of :class:`UserModel` with deterministic generation."""

    def __init__(self, users: list[UserModel]) -> None:
        self._users = list(users)
        self._by_id = {user.user_id: user for user in self._users}
        if len(self._by_id) != len(self._users):
            raise ValueError("duplicate user ids in population")

    def __len__(self) -> int:
        return len(self._users)

    def __iter__(self):
        return iter(self._users)

    def __contains__(self, user_id: str) -> bool:
        return user_id in self._by_id

    @property
    def user_ids(self) -> list[str]:
        """All user ids in generation order."""
        return [user.user_id for user in self._users]

    def get(self, user_id: str) -> UserModel:
        """The user with *user_id*; raises ``KeyError`` if unknown."""
        try:
            return self._by_id[user_id]
        except KeyError:
            raise KeyError(f"unknown user {user_id!r}") from None

    @classmethod
    def generate(
        cls,
        n_users: int,
        vocabulary: Vocabulary,
        web: SyntheticWeb,
        interests_per_user: tuple[int, int] = (2, 4),
        seed: int | np.random.Generator | None = 0,
    ) -> "UserPopulation":
        """Generate *n_users* users with sparse interests and biases.

        Interests are a Dirichlet draw over a uniformly sampled subset of
        leaves; word/URL biases are log-normal multipliers truncated away
        from zero so no word is ever impossible for a user.
        """
        if n_users < 1:
            raise ValueError("n_users must be >= 1")
        low, high = interests_per_user
        if not 1 <= low <= high:
            raise ValueError("interests_per_user must satisfy 1 <= low <= high")
        rng = ensure_rng(seed)
        taxonomy = vocabulary.taxonomy
        leaves = taxonomy.leaves
        users: list[UserModel] = []
        for index in range(n_users):
            n_interests = int(rng.integers(low, high + 1))
            n_interests = min(n_interests, len(leaves))
            chosen_idx = rng.choice(len(leaves), size=n_interests, replace=False)
            chosen = [leaves[int(i)] for i in chosen_idx]
            weights = rng.dirichlet(np.full(n_interests, 1.2))
            interests = {
                leaf: float(w) for leaf, w in zip(chosen, weights)
            }
            drift = {
                leaf: (float(rng.uniform(1.0, 4.0)), float(rng.uniform(1.0, 4.0)))
                for leaf in chosen
            }
            # Heavy-tailed biases (sigma 2.2) concentrate each user on a
            # personal subset of the leaf vocabulary / pages — real users
            # are lexically repetitive, which is the signal the UPM (and
            # any personalization) feeds on.
            word_bias = {
                leaf: np.clip(
                    rng.lognormal(0.0, 2.2, size=len(vocabulary.words_of(leaf))),
                    0.02,
                    None,
                )
                for leaf in chosen
            }
            url_bias = {
                leaf: np.clip(
                    rng.lognormal(0.0, 2.2, size=len(web.pages_of(leaf))),
                    0.02,
                    None,
                )
                for leaf in chosen
            }
            users.append(
                UserModel(
                    user_id=f"user{index:04d}",
                    interests=interests,
                    drift=drift,
                    word_bias=word_bias,
                    url_bias=url_bias,
                )
            )
        return cls(users)
