"""Dense PSD linear algebra shared by the Gaussian oracle and the estimators.

Every factorization of a covariance goes through :func:`cholesky_psd`, which
either factors the matrix or raises :class:`NotPositiveDefiniteError`.  There
is no jitter and no pseudo-inverse: a singular covariance has no density, so
any finite number computed from it would be wrong rather than approximate.
The conditioning gain is a numpy solve behind that same gate, so a given
block that is not positive definite raises before anything is solved.
"""

from __future__ import annotations

import numpy as np


class NotPositiveDefiniteError(ValueError):
    """Matrix is not (numerically) positive definite."""


def cholesky_psd(matrix: np.ndarray) -> np.ndarray:
    """Lower Cholesky factor of a positive-definite matrix; raises
    :class:`NotPositiveDefiniteError` when LAPACK cannot factor it."""
    matrix = np.asarray(matrix, dtype=float)
    try:
        return np.linalg.cholesky(matrix)
    except np.linalg.LinAlgError as exc:
        raise NotPositiveDefiniteError(
            f"matrix of shape {matrix.shape} is not positive definite"
        ) from exc


def conditional_parts(
    cov: np.ndarray, keep_idx: np.ndarray, given_idx: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gain and Schur complement for conditioning a joint Gaussian.

    Returns ``(gain, schur)`` with ``gain = S_kg S_gg^{-1}`` and
    ``schur = S_kk - gain S_gk``; the conditional mean is
    ``mu_k + gain (v - mu_g)`` and the conditional covariance is ``schur``.
    """
    cov_kg = cov[np.ix_(keep_idx, given_idx)]
    cov_gg = cov[np.ix_(given_idx, given_idx)]
    cov_kk = cov[np.ix_(keep_idx, keep_idx)]
    cholesky_psd(cov_gg)  # raises on a given block that is not positive definite
    gain = np.linalg.solve(cov_gg, cov_kg.T).T
    schur = cov_kk - gain @ cov_kg.T
    return gain, 0.5 * (schur + schur.T)
