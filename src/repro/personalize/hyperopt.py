"""Dirichlet-multinomial hyperparameter optimization (paper Eqs. 25-27).

Unlike plain LDA, the UPM *must* learn its hyperparameters: the asymmetric
``β_{·k}`` / ``δ_{·k}`` vectors are where per-topic word and URL preferences
live.  The objective for one parameter vector ``η`` over count matrix
``C`` (rows = documents, columns = items) is the evidence of the
Dirichlet-multinomial::

    LL(η) = Σ_d Σ_w [lnΓ(C_dw + η_w) − lnΓ(η_w)]
          + Σ_d [lnΓ(Σ_w η_w) − lnΓ(Σ_w C_dw + Σ_w η_w)]

The paper maximizes with limited-memory BFGS [30]; we provide exactly that
(:func:`optimize_dirichlet_lbfgs`, scipy's L-BFGS-B with the analytic
digamma gradient) plus Minka's classical fixed-point iteration
(:func:`optimize_dirichlet_fixed_point`) as a cheaper fallback.

**Sparse counts.**  Every function also accepts a ``scipy.sparse`` matrix.
The UPM's per-topic count matrices are per-document local and tiny (each
user only ever emits their own vocabulary), so the dense ``(D, W)`` view is
almost entirely zeros — and a zero cell contributes *exactly* nothing to
the objective and its derivatives:

    lnΓ(0 + η_w) − lnΓ(η_w) = 0        ψ(0 + η_w) − ψ(η_w) = 0

so the zero-cell "correction" is closed-form zero, the per-cell sums run
over the nonzero cells only, and the per-document term needs nothing but
the row sums.  The sparse path therefore costs O(nnz) per iteration
instead of O(D·W).
"""

from __future__ import annotations

import numpy as np
from scipy import sparse
from scipy.special import gammaln, psi

__all__ = [
    "dirichlet_log_likelihood",
    "dirichlet_log_likelihood_gradient",
    "optimize_dirichlet_fixed_point",
    "optimize_dirichlet_lbfgs",
]

_MIN_PARAM = 1e-4

#: Union of accepted count-matrix types (dense array or any scipy.sparse).
CountMatrix = "np.ndarray | sparse.spmatrix"


def _validate(counts, eta: np.ndarray) -> tuple[object, np.ndarray]:
    eta = np.asarray(eta, dtype=float)
    if sparse.issparse(counts):
        counts = counts.tocsr()
        if counts.dtype != np.float64:
            counts = counts.astype(np.float64)
        if (counts.data < 0).any():
            raise ValueError("counts must be non-negative")
    else:
        counts = np.asarray(counts, dtype=float)
        if counts.ndim != 2:
            raise ValueError(
                f"counts must be 2-D (docs x items), got {counts.ndim}-D"
            )
        if (counts < 0).any():
            raise ValueError("counts must be non-negative")
    if eta.shape != (counts.shape[1],):
        raise ValueError(
            f"eta has shape {eta.shape}, expected ({counts.shape[1]},)"
        )
    if (eta <= 0).any():
        raise ValueError("eta entries must be positive")
    return counts, eta


def _row_sums(counts) -> np.ndarray:
    if sparse.issparse(counts):
        return np.asarray(counts.sum(axis=1)).ravel()
    return counts.sum(axis=1)


def dirichlet_log_likelihood(counts, eta: np.ndarray) -> float:
    """The Eqs. 25-27 objective for one hyperparameter vector."""
    counts, eta = _validate(counts, eta)
    eta_sum = eta.sum()
    row_sums = _row_sums(counts)
    if sparse.issparse(counts):
        cols = counts.indices
        per_cell = gammaln(counts.data + eta[cols]) - gammaln(eta)[cols]
    else:
        per_cell = gammaln(counts + eta) - gammaln(eta)
    per_doc = gammaln(eta_sum) - gammaln(row_sums + eta_sum)
    return float(per_cell.sum() + per_doc.sum())


def dirichlet_log_likelihood_gradient(counts, eta: np.ndarray) -> np.ndarray:
    """Analytic gradient of :func:`dirichlet_log_likelihood` w.r.t. ``eta``."""
    counts, eta = _validate(counts, eta)
    eta_sum = eta.sum()
    row_sums = _row_sums(counts)
    if sparse.issparse(counts):
        cols = counts.indices
        per_cell = psi(counts.data + eta[cols]) - psi(eta)[cols]
        grad = np.bincount(cols, weights=per_cell, minlength=eta.size)
    else:
        grad = (psi(counts + eta) - psi(eta)).sum(axis=0)
    grad += (psi(eta_sum) - psi(row_sums + eta_sum)).sum()
    return grad


def optimize_dirichlet_lbfgs(
    counts,
    eta0: np.ndarray,
    max_iterations: int = 50,
) -> np.ndarray:
    """Maximize the evidence with L-BFGS-B (the paper's choice, ref. [30])."""
    # Imported here: serving processes import this module but never fit.
    from scipy.optimize import minimize

    counts, eta0 = _validate(counts, eta0)

    def objective(eta: np.ndarray) -> tuple[float, np.ndarray]:
        eta = np.maximum(eta, _MIN_PARAM)
        value = dirichlet_log_likelihood(counts, eta)
        grad = dirichlet_log_likelihood_gradient(counts, eta)
        return -value, -grad

    result = minimize(
        objective,
        eta0,
        jac=True,
        method="L-BFGS-B",
        bounds=[(_MIN_PARAM, None)] * eta0.size,
        options={"maxiter": max_iterations},
    )
    return np.maximum(result.x, _MIN_PARAM)


def optimize_dirichlet_fixed_point(
    counts,
    eta0: np.ndarray,
    max_iterations: int = 100,
    tolerance: float = 1e-6,
) -> np.ndarray:
    """Minka's fixed-point update; monotone and cheap.

    ``η_w ← η_w · Σ_d [ψ(C_dw + η_w) − ψ(η_w)] /
              Σ_d [ψ(C_d· + Ση) − ψ(Ση)]``

    Convergence is declared when every component moves by less than
    ``tolerance`` in the mixed absolute/relative sense
    ``|Δη_w| < tolerance · max(1, |η_w|)`` — for parameters below 1 this is
    the plain absolute criterion, while large components (common when the
    evidence supports a concentrated Dirichlet) converge on relative
    change instead of iterating until the absolute drift of a 100-scale
    value crawls under 1e-6.
    """
    counts, eta = _validate(counts, eta0)
    is_sparse = sparse.issparse(counts)
    row_sums = _row_sums(counts)
    if is_sparse:
        cols = counts.indices
        data = counts.data
    for _ in range(max_iterations):
        eta_sum = eta.sum()
        if is_sparse:
            per_cell = psi(data + eta[cols]) - psi(eta)[cols]
            numerator = np.bincount(cols, weights=per_cell, minlength=eta.size)
        else:
            numerator = (psi(counts + eta) - psi(eta)).sum(axis=0)
        denominator = (psi(row_sums + eta_sum) - psi(eta_sum)).sum()
        if denominator <= 0:
            break
        updated = np.maximum(eta * numerator / denominator, _MIN_PARAM)
        change = np.abs(updated - eta)
        eta = updated
        if (change < tolerance * np.maximum(1.0, np.abs(eta))).all():
            break
    return eta
