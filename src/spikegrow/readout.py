"""Linear readout: least-squares output weights and residuals, and the
incremental fit growth keeps, whose test outputs need no output weights."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._util import _Columns
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


class GrowingFit:
    """Least-squares fit of targets F on a feature table H that grows one
    column at a time, and the fit's outputs on a test table that grows
    with it, kept without output weights.

    `add` orthonormalises a training column against the basis Q of those
    before it and takes its direction q out of the residual: E <- E - q c^T
    with c = q^T E. This builds the thin QR factorization H = Q R and
    c = Q^T F a column and a row at a time (Golub & Van Loan, Matrix
    Computations, 4th ed., sec. 6.5), but keeps neither R nor c. The test
    outputs Y = H_test R^{-1} c are kept instead, with the test image
    G = H_test R^{-1}: column k's test features h give
    g = (h - G r[:k]) / r[k], where r is R's new column, then G <- [G, g]
    and Y <- Y + g c^T. Each column is queued until `test_outputs` brings
    its test features, so those can be computed in batches; `pending`
    counts the queued columns.

    A column already in span(Q) adds no direction to Q or E and no weight
    to the fit, so its test features are skipped: the fit always holds the
    least-squares outputs of its independent columns, and every r[k] > 0.
    """

    def __init__(self, F: np.ndarray, test_rows: int):
        self.Q = _Columns(len(F))
        self.E = np.asarray(F, dtype=np.float64)
        self.sq_norm = float(np.sum(self.E * self.E))
        self._G = _Columns(test_rows)
        self._Y = np.zeros((test_rows, self.E.shape[1]))
        self._queue = []  # (r, c) per added column; None for a dependent one

    @property
    def pending(self) -> int:
        """Columns added whose test features `test_outputs` has not taken."""
        return len(self._queue)

    def add(self, h: np.ndarray) -> None:
        """Append training column h; a column already in span(Q) leaves E
        unchanged."""
        r = np.empty(self.Q.n + 1)
        q = orthonormal_direction(self.Q.table, h, out=r)
        if q is None:
            self._queue.append(None)
            return
        self.Q.append(q)
        # q is orthogonal to the old basis, so q^T E equals c's new row q^T F.
        c = q @ self.E
        self.E = self.E - np.outer(q, c)
        self.sq_norm = float(np.sum(self.E * self.E))
        self._queue.append((r, c))

    def test_outputs(self, H_new: np.ndarray) -> np.ndarray:
        """The fit's outputs H_test R^{-1} c, shape (N_test, m), given the
        (N_test, `pending`) test features of the columns added since the
        last call. The array is updated in place."""
        if H_new.shape != (len(self._Y), self.pending):
            raise ShapeError(f"test features {H_new.shape} do not match the "
                             f"{self.pending} queued columns")
        for rc, h in zip(self._queue, H_new.T):
            if rc is not None:
                r, c = rc
                g = (h - self._G.table @ r[:-1]) / r[-1]
                self._G.append(g)
                self._Y += np.outer(g, c)
        self._queue.clear()
        return self._Y


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


def predict_batch(H: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """Category indices for every row of a feature table; ties break to the
    lowest index."""
    H = np.asarray(H, dtype=np.float64)
    if H.shape[1] != beta.shape[0]:
        raise ShapeError(f"feature table {H.shape} and beta {beta.shape} disagree")
    return np.argmax(H @ beta, axis=1)
