"""Personalization component (paper Sec. V).

Offline, the **User Profiling Model** (:mod:`repro.personalize.upm`) is a
collapsed-Gibbs topic model over per-user documents whose topic unit is the
search session; it jointly models query words, clicked URLs and
Beta-distributed timestamps, and learns asymmetric hyperparameters so each
user's idiosyncratic word/URL usage is captured.  Online, a candidate's
preference score ``P(q|d)`` (Eq. 31), scored by
:class:`~repro.personalize.profiles.ArrayProfileStore` over the fitted
model's packed profile arrays, yields a personal ranking which is fused
with the diversification ranking via Borda's method
(:mod:`repro.personalize.borda`).
"""

from repro.personalize.borda import personalize_ranking
from repro.personalize.hyperopt import (
    dirichlet_log_likelihood,
    optimize_dirichlet_fixed_point,
    optimize_dirichlet_lbfgs,
)
from repro.personalize.profiles import (
    ArrayProfileStore,
    ProfileArrays,
    UserProfile,
)
from repro.personalize.upm import UPM, UPMConfig, UPMFitStats, fit_beta_moments

__all__ = [
    "UPM",
    "UPMConfig",
    "UPMFitStats",
    "ArrayProfileStore",
    "ProfileArrays",
    "UserProfile",
    "fit_beta_moments",
    "dirichlet_log_likelihood",
    "optimize_dirichlet_fixed_point",
    "optimize_dirichlet_lbfgs",
    "personalize_ranking",
]
