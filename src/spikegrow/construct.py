"""Hidden-unit recruitment: random candidate pools and certificate-based pruning.

Each growth step samples a pool of random candidate neurons (weights uniform
in [-weight_scale, weight_scale]), evaluates each candidate's firing-rate
feature over the training samples, and scores the whole pool against the
current residual as one array, a scalar certificate per candidate; the
pool winner is the certificate maximizer.

Growth scores a candidate h by the exact gain of the update it applies: the
least-squares refit on the grown features and h, whose gain is
||E^T h||^2 / ||r||^2, with r = h - Q Q^T h the part of h outside the span
of the orthonormal basis Q of the grown features (the orthogonalised
criterion of constructive networks: Kwok & Yeung, IEEE TNN 8(5), 1997;
Chen, Cowan & Grant, IEEE TNN 2(2), 1991). A non-negative certificate
guarantees that this update shrinks the squared residual to at most sigma
times its previous value. With an empty basis, r = h and the score is the
per-column certificate `xi_index`: the gain of appending h with its own
optimal output weight.

A drawn pool serves up to POOL_UNITS units. After its winner is grown, its
other candidates are kept with their features; the next step scores them
first, with `select_best` at sigma0 against that step's residual and basis,
and grows a certifying one with no kernel pass and no rng draw (orthogonal
least squares re-scores the rest of one candidate set after each pick:
Chen, Cowan & Grant 1991). Only when none certifies is a fresh pool drawn,
and when none of its candidates certifies at sigma0 either, growth
saturates. Every unit is certified against the residual of its own step.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, replace
from typing import Any, Optional

import numpy as np

from ._util import SIZE_MAX, check_settings, setting
from .dataset import LabeledDataset
from .errors import ConfigError, ShapeError
from .lif import LifParams, batch_rate_features

# A candidate whose part outside the grown features' span holds less than
# this fraction of its squared norm is near-dependent and skipped: its
# remainder ||r||^2 = h.h - a.a would then lose more than six of its digits
# to cancellation, and a recruited unit keeps ||r||/||h|| >= 1e-3 up to
# rounding.
NEAR_DEPENDENT = 1e-6

# Units one drawn pool may serve: its winner, then one of its other
# candidates on the next step. More reuses per draw cost test accuracy and
# grew larger networks on stage-20, measured at pool_size 50 (CHANGES.md
# holds the measurements).
POOL_UNITS = 2


@dataclass(frozen=True)
class Candidate:
    """One sampled hidden neuron: input weights, self-feedback, draw position."""

    w: np.ndarray
    v: float
    pool_index: int

    def __post_init__(self):
        # A copy, not a view of the pool's draw, which it would pin.
        w = np.array(self.w, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class PruningConfig:
    """Knobs of the candidate sampling / pruning loop.

    pool_size: candidates drawn per pool; the default 10 is the smallest
        pool whose stage-20 record kept the accuracy and size of pools of 50
        (the rule and record are in CHANGES.md).
    weight_scale: half-width of the uniform weight range; at most half the
        largest float, so the range 2*weight_scale is finite.
    sigma0: contraction target in (0, 1) that every grown unit certifies:
        its update leaves at most sigma0 times the squared residual.
    """

    pool_size: int = setting(10, ge=1, le=SIZE_MAX)
    weight_scale: float = setting(1.0, gt=0.0, le=sys.float_info.max / 2)
    sigma0: float = setting(0.999, gt=0.0, lt=1.0)

    def __post_init__(self):
        check_settings(self, "pruning")


@dataclass(frozen=True)
class SelectionResult:
    """A pool winner: its certificate value, feature vector and error gain."""

    winner: Any  # a pool index; the Candidate in a GrowOutcome
    xi: float
    feature: np.ndarray  # (N,) rate features on the training samples
    error_gain: float  # guaranteed squared-error reduction


@dataclass
class KeptPool:
    """A drawn pool's candidates not grown yet: (pool index, feature) pairs.

    draw: the pool's (P, d + 1) draw; index: the (k,) ascending pool
    indices of the rows not yet grown; features: their C-contiguous (k, N)
    table, the pool's one copy; units: the units the pool has served.
    """

    draw: np.ndarray
    index: np.ndarray
    features: np.ndarray
    units: int

    def __len__(self) -> int:
        return len(self.index)

    def __iter__(self):
        return zip(self.index.tolist(), self.features)

    def clear(self) -> None:
        """Drop every candidate, and with them the pool's feature table."""
        self.index = self.index[:0]
        self.features = np.empty((0, self.features.shape[1]))


@dataclass(frozen=True)
class GrowOutcome:
    """Result of one growth attempt: a selection, or saturation.

    rounds_used is the number of pools drawn: 0 for a winner taken from the
    kept pool, else 1. pool is what the next attempt should be offered: the
    winner's pool without the winner, or None once that pool has served
    POOL_UNITS units or has no candidate left.
    """

    selection: Optional[SelectionResult]
    rounds_used: int
    pool: Optional[KeptPool] = None

    @property
    def saturated(self) -> bool:
        return self.selection is None


def _draw(cfg: PruningConfig, d: int, rng) -> np.ndarray:
    """Draw a candidate pool in one rng call, on a dyadic grid.

    Row p of the (pool_size, d + 1) draw holds candidate p's weights, then
    its feedback: the values a serial w-then-v draw per candidate gives, so
    a larger pool shares its prefix with a smaller one drawn from the same
    rng state. With S = cfg.weight_scale, each value is truncated toward
    zero, keeping |w| <= S, to a multiple of q = 2**(e - 53), where
    2**e > d * S, so every partial sum of a drive over 0/1 inputs is exact
    in any order.
    """
    scale = cfg.weight_scale
    e = np.frexp(scale)[1] + d.bit_length()  # d * scale may overflow
    q = np.ldexp(1.0, max(e - 53, -1074))
    draw = rng.uniform(-scale, scale, size=(cfg.pool_size, d + 1))
    return np.trunc(draw / q) * q


def pool_features(draw, ds, params) -> KeptPool:
    """Evaluate a pool's (P, d + 1) draw in one batched pass over the
    dataset's `spike_tensor()`, whose row blocks the kernel reads as views.

    Returns the pool: row p of its (P, N) table, the kernel's result
    transposed once, equals `batch_rate_features` of row p's weights.
    """
    H = batch_rate_features(ds.spike_tensor(), draw[:, :-1], draw[:, -1],
                            params)
    # Contiguous rows, not strided column views: `GrowingFit.add`'s dot
    # products on a grown winner then give the bits they give on the same
    # unit's contiguous column when a checkpoint's prefix is fitted.
    return KeptPool(draw, np.arange(len(draw)), np.ascontiguousarray(H.T), 0)


def _certificates(H, E, sigma, Q=None):
    """The certificates of the rows h of H against residual E, NaN for a
    silent or near-dependent one, and ||E||^2, after checking their shapes.

    Q (N, k) is an orthonormal basis that E is orthogonal to; None is an
    empty basis. The score is ||E^T h||^2 / ||r||^2 - (1 - sigma) ||E||^2,
    with ||r||^2 = h.h - a.a and a = Q^T h from one GEMM over the (P, N)
    H. Every other product multiplies a stack of (1, n) rows, which numpy's
    matmul hands to BLAS one row at a time: a pool-wide GEMM's blocking
    would make a row's last bit depend on the other rows, so a one-feature
    call gives every pool entry's bits.
    """
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2:
        raise ShapeError(f"residual must be an (N, m) array, got {E.shape}")
    if not (0.0 < sigma < 1.0):
        raise ConfigError("sigma must lie strictly in (0, 1)")
    rows = E.shape[0]
    Q = np.empty((rows, 0)) if Q is None else np.asarray(Q, dtype=np.float64)
    if Q.ndim != 2 or Q.shape[0] != rows:
        raise ShapeError(f"basis {Q.shape} does not have {rows} rows")
    if H.shape[1:] != (rows,):
        raise ShapeError(f"residual of {rows} rows and feature "
                         f"{H.shape[1:]} disagree")
    hh = _row_dots(H, H)
    A = H.dot(Q)
    rr = hh - _row_dots(A, A)
    # Row p is E^T h, which equals E^T r: E is orthogonal to span(Q).
    proj = (H[:, None, :] @ E)[:, 0, :]
    ee = float(np.sum(E * E))
    scored = (hh > 0.0) & (rr >= NEAR_DEPENDENT * hh)
    gain = np.divide(_row_dots(proj, proj), rr,
                     out=np.full(len(H), np.nan), where=scored)
    return gain - (1.0 - sigma) * ee, ee


def _row_dots(X, Y):
    """x.y of every row pair of two (P, n) arrays."""
    return (X[:, None, :] @ Y[:, :, None])[:, 0, 0]


def xi_index(E: np.ndarray, h: np.ndarray, sigma: float) -> float:
    """Per-column convergence certificate of a candidate feature against the
    residual.

    xi = sum_q [ <E_q, h>^2 / <h, h> - (1 - sigma) <E_q, E_q> ].
    xi >= 0 certifies that appending the candidate with its optimal
    per-column weight leaves ||E_new||^2 <= sigma * ||E||^2. It is
    `select_best`'s scorer on a one-candidate pool with an empty basis, so
    it equals that candidate's score in any pool scored without a basis,
    bit for bit; growth scores against the grown features' basis, which
    divides by ||r||^2 <= <h, h> instead.
    """
    [xi], _ = _certificates(np.asarray(h, dtype=np.float64)[None], E, sigma)
    if np.isnan(xi):
        raise ValueError("silent candidate: feature vector is identically zero")
    return float(xi)


def select_best(pool, E, sigma, Q=None) -> Optional[SelectionResult]:
    """Pick the qualifying candidate of a `KeptPool` with the largest
    certificate; the winner is its pool index.

    Q (N, k) is the orthonormal basis of the grown features, which E is
    orthogonal to; None is an empty basis. The pool's feature table is
    scored as it is, one array: each candidate h by the exact gain
    ||E^T h||^2 / ||r||^2 of the least-squares update on [Q, h], with
    ||r||^2 = h.h - a.a and a = Q^T h from one GEMM over the table. With
    an empty basis every score is `xi_index` of its candidate, bit for bit.

    Candidates with a zero feature vector, a near-dependent one (||r||^2
    below NEAR_DEPENDENT * h.h) or a negative certificate are skipped;
    ties break toward the lowest pool index. Returns None when no
    candidate qualifies. The winner's feature is a copy of its row.
    """
    if not len(pool):
        raise ConfigError("candidate pool must be nonempty")
    xi, ee = _certificates(pool.features, E, sigma, Q)
    qualifies = xi >= 0.0  # False for NaN
    if not qualifies.any():
        return None
    # argmax takes the first of equal maxima: the lowest pool index.
    p = int(np.argmax(np.where(qualifies, xi, -np.inf)))
    best = float(xi[p])
    return SelectionResult(int(pool.index[p]), best, pool.features[p].copy(),
                           best + (1.0 - sigma) * ee)


def _grown(selection, pool, rounds) -> GrowOutcome:
    """The outcome that grows `selection`, a winner from `pool`, keeping the
    pool's other candidates, moved up one row in its own table (which spends
    `pool`), while it may serve another unit."""
    p = selection.winner
    winner = Candidate(pool.draw[p, :-1], float(pool.draw[p, -1]), p)
    units = pool.units + 1
    kept = None
    if len(pool) > 1 and units < POOL_UNITS:
        H, i = pool.features, int(np.searchsorted(pool.index, p))
        H[i:-1] = H[i + 1:]
        kept = KeptPool(pool.draw, np.delete(pool.index, i), H[:-1], units)
    return GrowOutcome(replace(selection, winner=winner), rounds, kept)


def grow_one(
    E: np.ndarray,
    ds: LabeledDataset,
    cfg: PruningConfig,
    params: LifParams,
    rng,
    Q: Optional[np.ndarray] = None,
    pool: Optional[KeptPool] = None,
) -> GrowOutcome:
    """One recruitment attempt at contraction target sigma0, scoring every
    pool against the residual E and the basis Q as `select_best` does.

    `pool` is the previous outcome's kept pool, which the attempt spends.
    Its candidates are scored first; a certifying winner is grown from it
    with no kernel pass and no rng draw (rounds_used 0). Otherwise it is
    cleared, so that its table is freed before the fresh pool's kernel pass
    whoever still holds the pool, and one fresh pool is drawn at weight
    range weight_scale (rounds_used 1). The attempt saturates when that
    pool certifies no candidate either.

    A pool serves at most POOL_UNITS units; the outcome keeps the winner's
    pool for the next attempt while it may serve another.
    """
    if pool is not None:
        selection = select_best(pool, E, cfg.sigma0, Q)
        if selection is not None:
            return _grown(selection, pool, 0)
        pool.clear()
    fresh = pool_features(_draw(cfg, ds.d, rng), ds, params)
    selection = select_best(fresh, E, cfg.sigma0, Q)
    if selection is None:
        return GrowOutcome(None, 1)
    return _grown(selection, fresh, 1)
