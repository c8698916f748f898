"""Linear readout: minimum-norm least-squares output weights and residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Singular values below this fraction of the largest are treated as zero;
# rank deficiency is expected (duplicate or near-silent hidden units).
SVD_CUTOFF = 1e-10


@dataclass(frozen=True)
class ResidualState:
    """Residual table and its cached squared Frobenius norm."""

    E: np.ndarray  # (N, m)
    sq_norm: float


def fit_output_weights(H: np.ndarray, F: np.ndarray) -> np.ndarray:
    """Minimum-norm minimizer of ||F - H @ beta||^2, shape (n, m)."""
    H = np.asarray(H, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    if H.ndim != 2 or F.ndim != 2:
        raise ShapeError("feature and target tables must be two-dimensional")
    if H.shape[0] != F.shape[0]:
        raise ShapeError(
            f"feature rows {H.shape[0]} and target rows {F.shape[0]} disagree"
        )
    if H.shape[0] == 0 or H.shape[1] == 0:
        raise ValueError("least-squares problem is empty (no rows or no columns)")
    beta, *_ = np.linalg.lstsq(H, F, rcond=SVD_CUTOFF)
    return beta


def orthonormal_direction(Q: np.ndarray, h: np.ndarray):
    """Unit vector along the part of column h orthogonal to span(Q), or None.

    Q (N, k) has orthonormal columns. Classical Gram-Schmidt with one
    reorthogonalisation pass ("twice is enough": Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 1976) keeps the new direction orthogonal to
    working precision. A remainder of at most SVD_CUTOFF * ||h|| means h
    already lies in span(Q); it adds no direction (None), as lstsq's rcond
    would drop it. Appending the returned q to Q and updating a residual
    E <- E - q (q^T E) gives the least-squares residual of the enlarged
    feature table at O(N (k + m)) cost, with no refit.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or Q.shape[0] != h.shape[0]:
        raise ShapeError(f"basis {Q.shape} and column {h.shape} disagree")
    h_norm = float(np.sqrt(h @ h))
    r = h - Q @ (Q.T @ h)
    r -= Q @ (Q.T @ r)
    r_norm = float(np.sqrt(r @ r))
    if r_norm <= SVD_CUTOFF * h_norm:
        return None
    return r / r_norm


def residual(H: np.ndarray, beta: np.ndarray, F: np.ndarray) -> ResidualState:
    """Residual F - H @ beta with its squared norm."""
    H = np.asarray(H, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    if H.shape[1] != beta.shape[0] or H.shape[0] != F.shape[0] \
            or beta.shape[1] != F.shape[1]:
        raise ShapeError(
            f"shapes disagree: H {H.shape}, beta {beta.shape}, F {F.shape}"
        )
    E = F - H @ beta
    return ResidualState(E, float(np.sum(E * E)))


def predict(h_row: np.ndarray, beta: np.ndarray) -> int:
    """Category index of one feature row; ties break to the lowest index."""
    h_row = np.asarray(h_row, dtype=np.float64)
    beta = np.asarray(beta, dtype=np.float64)
    if h_row.shape != (beta.shape[0],):
        raise ShapeError(f"feature row {h_row.shape} and beta {beta.shape} disagree")
    return int(np.argmax(h_row @ beta))


def predict_batch(H: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Category indices for every row of a feature table."""
    H = np.asarray(H, dtype=np.float64)
    if H.shape[1] != beta.shape[0]:
        raise ShapeError(f"feature table {H.shape} and beta {beta.shape} disagree")
    if beta.shape[0] == 0:
        # No hidden units: every output is zero, argmax tie-breaks to 0.
        return np.zeros(H.shape[0], dtype=np.intp)
    return np.argmax(H @ beta, axis=1)
