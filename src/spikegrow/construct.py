"""Hidden-unit recruitment: random candidate pools and certificate-based pruning.

Each growth step samples a pool of random candidate neurons (weights uniform
in [-weight_scale, weight_scale]), evaluates each candidate's firing-rate
feature over the training samples, and scores it against the current
residual with a scalar certificate. A non-negative certificate guarantees
that appending the candidate with its optimal per-column output weight
shrinks the squared residual to at most sigma times its previous value; the
pool winner is the certificate maximizer.
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
    weight_scale: half-width of the uniform weight range in every round; at
        most half the largest float, so the range 2*weight_scale is finite.
    sigma0: initial contraction target in (0, 1); a round-k retry relaxes it
        to 1 - (1 - sigma0)/2**k.
    sigma_relax_steps: retry rounds after the first (so rounds run
        k = 0..sigma_relax_steps inclusive).
    """

    pool_size: int = setting(50, ge=1, le=SIZE_MAX)
    weight_scale: float = setting(1.0, gt=0.0, le=sys.float_info.max / 2)
    sigma0: float = setting(0.999, gt=0.0, lt=1.0)
    sigma_relax_steps: int = setting(8, ge=0, le=SIZE_MAX)

    def __post_init__(self):
        check_settings(self, "pruning")


@dataclass(frozen=True)
class SelectionResult:
    """A pool winner: its certificate value, feature vector and error gain."""

    winner: Any  # select_best's key for it; the Candidate in a GrowOutcome
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


def pool_features(draw, ds, params):
    """Evaluate a pool's (P, d + 1) draw in one batched pass over the
    dataset's cached time-major uint8 tensor, which every pool of a growth
    run re-reads; its row blocks go to the kernel as views, not copies.

    Returns (pool index, feature) pairs in pool order; each feature equals
    `batch_rate_features` of its row's weights over the dataset's spikes.
    """
    H = batch_rate_features(ds.spike_tensor(), draw[:, :-1], draw[:, -1],
                            params)
    # Contiguous rows, not strided column views, so the certificate's dot
    # products see the same vectors a lone candidate's feature gives.
    return list(enumerate(np.ascontiguousarray(H.T)))


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
    or None for a silent (all-zero) feature.

    Runs once per candidate, so its products use `ndarray.dot`: the same
    BLAS calls as `@`, with the same bits, and less dispatch per call.
    """
    h = np.asarray(h, dtype=np.float64)
    if h.shape != (E.shape[0],):
        raise ShapeError(f"residual {E.shape} and feature {h.shape} disagree")
    hh = float(h.dot(h))
    if hh == 0.0:
        return None
    proj = E.T.dot(h)  # (m,)
    return float(proj.dot(proj) / hh - (1.0 - sigma) * ee)


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
    """One full recruitment attempt with sigma relaxation.

    Round k samples a pool at weight range weight_scale and contraction
    target 1 - (1 - sigma0)/2**k; round 0 uses sigma0 itself, which that
    expression rounds to 0.0 for sigma0 below 1.1e-16. The first round that
    yields a qualifying candidate wins. The attempt saturates after
    sigma_relax_steps + 1 fruitless rounds, or once the target rounds to
    1.0; round 0 always runs, since sigma0 < 1.
    """
    for k in range(cfg.sigma_relax_steps + 1):
        relaxed = 1.0 - (1.0 - cfg.sigma0) / 2.0**k if k else cfg.sigma0
        if relaxed >= 1.0:
            break
        sigma, rounds = relaxed, k + 1
        draw = _draw(cfg, ds.d, rng)
        selection = select_best(pool_features(draw, ds, params), E, sigma)
        if selection is not None:
            p = selection.winner
            winner = Candidate(draw[p, :-1], float(draw[p, -1]), p)
            return GrowOutcome(replace(selection, winner=winner), sigma, rounds)
    return GrowOutcome(None, sigma, rounds)
