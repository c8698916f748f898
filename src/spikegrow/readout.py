"""Linear readout: least-squares output weights, from lstsq or from the QR
factors growth builds, and residuals."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError

# Singular values below this fraction of the largest are treated as zero;
# rank deficiency is expected (duplicate or near-silent hidden units).
SVD_CUTOFF = 1e-10

# Rows per block of the blocked back-substitution.
_SOLVE_BLOCK = 64


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


def orthonormal_direction(Q: np.ndarray, h: np.ndarray, out=None):
    """Unit vector along the part of column h orthogonal to span(Q), or None.

    Q (N, k) has orthonormal columns. Classical Gram-Schmidt with one
    reorthogonalisation pass ("twice is enough": Daniel, Gragg, Kaufman &
    Stewart, Math. Comp. 1976) keeps the new direction orthogonal to
    working precision. A remainder of at most SVD_CUTOFF * ||h|| means h
    already lies in span(Q); it adds no direction (None), as lstsq's rcond
    would drop it. Appending the returned q to Q and updating a residual
    E <- E - q (q^T E) gives the least-squares residual of the enlarged
    feature table at O(N (k + m)) cost, with no refit.

    If given, `out` (k + 1,) receives h's coordinates in the basis [Q, q]:
    the coefficients Q^T h + Q^T r of both passes, then ||r||. That is the
    new column of R in the thin QR factorization H = Q R that appending
    columns this way builds (Golub & Van Loan, Matrix Computations, 4th
    ed., sec. 6.5).
    """
    h = np.asarray(h, dtype=np.float64)
    if h.ndim != 1 or Q.shape[0] != h.shape[0]:
        raise ShapeError(f"basis {Q.shape} and column {h.shape} disagree")
    h_norm = float(np.sqrt(h @ h))
    first = Q.T @ h
    r = h - Q @ first
    second = Q.T @ r
    r -= Q @ second
    r_norm = float(np.sqrt(r @ r))
    if out is not None:
        out[:-1] = first + second
        out[-1] = r_norm
    if r_norm <= SVD_CUTOFF * h_norm:
        return None
    return r / r_norm


def triangular_output_weights(R: np.ndarray, c: np.ndarray):
    """Least-squares output weights beta = R^{-1} c from the thin QR factors
    H = Q R and c = Q^T F, by back-substitution at O(n^2 m).

    Rows are solved from the bottom up in blocks of _SOLVE_BLOCK: each
    block's right-hand side is reduced by the rows already solved in one
    product, and its own triangle is solved by LAPACK. Partial pivoting
    never swaps rows of an upper-triangular block with a nonzero diagonal,
    so this is back-substitution, not a refactorisation.

    Returns None when R's diagonal spans more than 1 / SVD_CUTOFF: there
    lstsq's rcond may cut a direction, and its minimum-norm solution then
    differs from R^{-1} c.
    """
    n = len(R)
    if R.shape != (n, n) or c.ndim != 2 or len(c) != n:
        raise ShapeError(f"triangular factor {R.shape} and c {c.shape} disagree")
    beta = np.empty_like(c, dtype=np.float64)
    if n == 0:
        return beta
    diagonal = np.abs(np.diagonal(R))
    if diagonal.min() <= SVD_CUTOFF * diagonal.max():
        return None
    for hi in range(n, 0, -_SOLVE_BLOCK):
        lo = max(hi - _SOLVE_BLOCK, 0)
        beta[lo:hi] = np.linalg.solve(R[lo:hi, lo:hi],
                                      c[lo:hi] - R[lo:hi, hi:] @ beta[hi:])
    return beta


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
