"""Hidden-unit recruitment: random candidate pools and certificate-based pruning.

Each growth step samples a pool of random candidate neurons (weights uniform
in [-lambda, lambda]), evaluates each candidate's firing-rate feature over
the training samples, and scores it against the current residual with a
scalar certificate. A non-negative certificate guarantees that appending the
candidate with its optimal per-column output weight shrinks the squared
residual to at most sigma times its previous value; the pool winner is the
certificate maximizer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ._util import SIZE_MAX, check_settings, setting
from .dataset import LabeledDataset
from .errors import ConfigError, ShapeError
from .lif import LifParams, batch_rate_features


@dataclass(frozen=True)
class Candidate:
    """One sampled hidden neuron: input weights, self-feedback, draw position."""

    w: np.ndarray
    v: float
    pool_index: int

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)


@dataclass(frozen=True)
class PruningConfig:
    """Knobs of the candidate sampling / pruning loop.

    pool_size: candidates drawn per round.
    weight_scale: half-width of the uniform weight range.
    sigma0: initial contraction target in (0, 1); a round-k retry relaxes it
        to 1 - (1 - sigma0)/2**k.
    sigma_relax_steps: retry rounds after the first (so rounds run
        k = 0..sigma_relax_steps inclusive).
    lambda_growth: multiplicative weight-range escalation per retry round.
    """

    pool_size: int = setting(50, ge=1, le=SIZE_MAX)
    weight_scale: float = setting(1.0, gt=0.0)
    sigma0: float = setting(0.999, gt=0.0, lt=1.0)
    sigma_relax_steps: int = setting(8, ge=0, le=SIZE_MAX)
    lambda_growth: float = setting(1.0, ge=1.0)

    def __post_init__(self):
        check_settings(self, "pruning")


@dataclass(frozen=True)
class SelectionResult:
    """A pool winner: its certificate value, feature vector and error gain."""

    winner: Candidate
    xi: float
    feature: np.ndarray  # (N,) rate features on the training samples
    error_gain: float  # guaranteed squared-error reduction


@dataclass(frozen=True)
class GrowOutcome:
    """Result of one growth attempt: a selection, or saturation."""

    selection: Optional[SelectionResult]
    sigma_used: float
    rounds_used: int

    @property
    def saturated(self) -> bool:
        return self.selection is None


def sample_candidates(cfg: PruningConfig, d: int, rng, weight_scale=None):
    """Draw a fresh candidate pool in one rng call.

    Row p of the (pool_size, d + 1) draw holds candidate p's weights, then
    its feedback: the values a serial w-then-v draw per candidate gives, so
    a larger pool shares its prefix with a smaller one drawn from the same
    rng state.
    """
    scale = cfg.weight_scale if weight_scale is None else weight_scale
    rows = rng.uniform(-scale, scale, size=(cfg.pool_size, d + 1))
    return [Candidate(row[:d], float(row[d]), p) for p, row in enumerate(rows)]


def candidate_features(
    c: Candidate, ds: LabeledDataset, params: LifParams
) -> np.ndarray:
    """Per-sample firing rate of one candidate over the whole dataset."""
    return batch_rate_features(ds.spike_tensor(), c.w, c.v, params)


def pool_features(candidates, ds, params):
    """Evaluate a whole pool in one batched pass over the dataset.

    Returns (candidate, feature) pairs in pool order; each feature equals
    `candidate_features` of its candidate.
    """
    W = np.stack([c.w for c in candidates])
    V = np.array([c.v for c in candidates])
    H = batch_rate_features(ds.spike_tensor(), W, V, params)
    # Contiguous rows, not strided column views, so the certificate's dot
    # products see the same vectors a lone candidate's feature gives.
    return list(zip(candidates, np.ascontiguousarray(H.T)))


def _residual_norm(E, sigma):
    """The residual as a float (N, m) array and its squared norm, after
    checking it and the contraction target."""
    E = np.asarray(E, dtype=np.float64)
    if E.ndim != 2:
        raise ShapeError(f"residual must be an (N, m) array, got {E.shape}")
    if not (0.0 < sigma < 1.0):
        raise ConfigError("sigma must lie strictly in (0, 1)")
    return E, float(np.sum(E * E))


def _xi(E, ee, h, sigma):
    """The certificate of feature h against residual E with ||E||^2 = ee,
    or None for a silent (all-zero) feature."""
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (E.shape[0],):
        raise ShapeError(f"residual {E.shape} and feature {h.shape} disagree")
    hh = float(h @ h)
    if hh == 0.0:
        return None
    proj = E.T @ h  # (m,)
    return float((proj @ proj) / hh - (1.0 - sigma) * ee)


def xi_index(E: np.ndarray, h: np.ndarray, sigma: float) -> float:
    """Convergence certificate of a candidate feature against the residual.

    xi = sum_q [ <E_q, h>^2 / <h, h> - (1 - sigma) <E_q, E_q> ].
    xi >= 0 certifies that appending the candidate with its optimal
    per-column weight leaves ||E_new||^2 <= sigma * ||E||^2.
    """
    E, ee = _residual_norm(E, sigma)
    xi = _xi(E, ee, h, sigma)
    if xi is None:
        raise ValueError("silent candidate: feature vector is identically zero")
    return xi


def select_best(pool_with_features, E, sigma) -> Optional[SelectionResult]:
    """Pick the qualifying candidate with the largest certificate.

    Candidates with a zero feature vector or a negative certificate are
    skipped; ties break toward the lowest pool index. Returns None when no
    candidate qualifies. The residual and sigma are checked, and ||E||^2
    computed, once per pool.
    """
    if not pool_with_features:
        raise ConfigError("candidate pool must be nonempty")
    E, ee = _residual_norm(E, sigma)
    best = None
    for c, h in pool_with_features:
        xi = _xi(E, ee, h, sigma)
        if xi is None or xi < 0.0:
            continue
        if best is None or xi > best[0]:
            best = (xi, c, h)
    if best is None:
        return None
    xi, c, h = best
    return SelectionResult(c, xi, h, xi + (1.0 - sigma) * ee)


def grow_one(
    E: np.ndarray,
    ds: LabeledDataset,
    cfg: PruningConfig,
    params: LifParams,
    rng,
) -> GrowOutcome:
    """One full recruitment attempt with sigma relaxation and range growth.

    Round k samples a pool at weight range weight_scale*lambda_growth**k and
    contraction target 1 - (1 - sigma0)/2**k; round 0 uses sigma0 itself,
    which that expression rounds to 0.0 for sigma0 below 1.1e-16. The first
    round that yields a qualifying candidate wins. The attempt saturates
    after sigma_relax_steps + 1 fruitless rounds, or once the target rounds
    to 1.0 or the weight range 2*scale overflows.
    """
    sigma, rounds = cfg.sigma0, 0
    for k in range(cfg.sigma_relax_steps + 1):
        try:
            scale = cfg.weight_scale * cfg.lambda_growth**k
        except OverflowError:
            break
        relaxed = 1.0 - (1.0 - cfg.sigma0) / 2.0**k if k else cfg.sigma0
        if relaxed >= 1.0 or not np.isfinite(2.0 * scale):
            break
        sigma, rounds = relaxed, k + 1
        pool = sample_candidates(cfg, ds.d, rng, weight_scale=scale)
        selection = select_best(pool_features(pool, ds, params), E, sigma)
        if selection is not None:
            return GrowOutcome(selection, sigma, rounds)
    return GrowOutcome(None, sigma, rounds)
