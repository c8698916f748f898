"""Leaky integrate-and-fire neuron simulation.

The neuron follows a two-line recurrence with exponential synaptic and
membrane leaks and reset-by-subtraction:

    i(t) = exp(-dt/tau_syn) * i(t-1) + w.x(t) + v*s(t-1)
    u(t) = exp(-dt/tau_mem) * u(t-1) + i(t-1) - s(t-1)
    s(t) = 1 if u(t) >= theta else 0

Note that the membrane update reads the *previous* synaptic current and the
*previous* spike flag. The threshold test is inclusive (u == theta fires).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._util import check_settings, setting
from .errors import ShapeError


@dataclass(frozen=True)
class LifParams:
    """Shared neuron constants. Times in milliseconds, threshold dimensionless."""

    dt: float = setting(1.0, gt=0.0)
    tau_syn: float = setting(5.0, gt=0.0)
    tau_mem: float = setting(10.0, gt=0.0)
    theta: float = setting(1.0, gt=0.0)

    def __post_init__(self):
        check_settings(self, "lif")

    @property
    def syn_decay(self) -> float:
        return math.exp(-self.dt / self.tau_syn)

    @property
    def mem_decay(self) -> float:
        return math.exp(-self.dt / self.tau_mem)


@dataclass(frozen=True)
class NeuronState:
    """Instantaneous state: synaptic current, membrane potential, last spike."""

    i: float = 0.0
    u: float = 0.0
    s_prev: int = 0


class SpikeTrain:
    """A fixed-length binary activity sequence."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = np.asarray(bits, dtype=np.uint8)
        if arr.ndim != 1:
            raise ShapeError("spike train must be one-dimensional")
        if arr.size and not np.isin(arr, (0, 1)).all():
            raise ValueError("spike train values must be 0 or 1")
        arr.setflags(write=False)
        self.bits = arr

    @property
    def T(self) -> int:
        return self.bits.size

    def __len__(self) -> int:
        return self.bits.size

    def __eq__(self, other) -> bool:
        return isinstance(other, SpikeTrain) and np.array_equal(self.bits, other.bits)

    def __hash__(self):
        return hash(self.bits.tobytes())

    def __repr__(self) -> str:
        return f"SpikeTrain({self.bits.tolist()})"


def lif_step(state: NeuronState, drive: float, params: LifParams):
    """Advance the neuron one time step under the given synaptic drive.

    Returns (new_state, spike). The caller is responsible for folding the
    self-feedback term v*s(t-1) into `drive`.
    """
    i_new = params.syn_decay * state.i + drive
    u_new = params.mem_decay * state.u + state.i - state.s_prev
    spike = 1 if u_new >= params.theta else 0
    return NeuronState(i_new, u_new, spike), spike


def _pool_weights(w, v, d: int):
    """A pool's (P, d) weights and (P,) feedback, or one neuron's (d,)
    weights and scalar feedback, as (P, d) and (P,) arrays."""
    W = np.asarray(w, dtype=np.float64)
    V = np.asarray(v, dtype=np.float64)
    if W.ndim not in (1, 2) or W.shape[-1] != d or V.shape != W.shape[:-1]:
        raise ShapeError(
            f"weights {W.shape} and feedback {V.shape} do not fit {d} channels"
        )
    return W.reshape(-1, d), V.reshape(-1)


def _lif_raster(x: np.ndarray, W: np.ndarray, V: np.ndarray,
                params: LifParams) -> np.ndarray:
    """Spike raster of P neurons over an (N, d, T) batch, from the zero state.

    `W` holds the (P, d) input weights and `V` the (P,) self-feedback
    weights. Returns the (T, N, P) bool raster. Every spike train and rate
    feature comes from this one loop over time.

    The loop reads the batch time-major: step t multiplies the contiguous
    (N, d) slice `xt[t]`, which BLAS takes as it is. A dataset's cached
    tensor is a view of a time-major buffer, so only batches built by the
    caller are copied here. The state updates run in place and in the order
    of the recurrence, so they round exactly as the formulas read.
    """
    xt = np.ascontiguousarray(x.transpose(2, 0, 1))
    T, N, _ = xt.shape
    syn, mem, theta = params.syn_decay, params.mem_decay, params.theta
    WT = W.T
    i = np.zeros((N, W.shape[0]))
    u = np.zeros_like(i)
    s = np.zeros_like(i)
    drive = np.empty_like(i)
    feedback = np.empty_like(i)
    raster = np.empty((T, N, W.shape[0]), dtype=bool)
    for t in range(T):
        # u <- mem*u + i_prev - s reads i and s before they are overwritten.
        u *= mem
        u += i
        u -= s
        # i <- syn*i + drive + V*s
        np.matmul(xt[t], WT, out=drive)
        np.multiply(V, s, out=feedback)
        i *= syn
        i += drive
        i += feedback
        np.greater_equal(u, theta, out=raster[t])
        s[...] = raster[t]
    return raster


def simulate_neuron(x, w, v: float, params: LifParams) -> SpikeTrain:
    """Run one hidden neuron over a d-channel input block of length T.

    `x` is a (d, T) array of 0/1 input spikes, `w` the d input weights and
    `v` the self-feedback weight. Starts from the all-zero state.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or np.ndim(w) != 1:
        raise ShapeError(f"need a (d, T) input block and (d,) weights, "
                         f"got {x.shape} and {np.shape(w)}")
    W, V = _pool_weights(w, v, x.shape[0])
    return SpikeTrain(_lif_raster(x[None], W, V, params)[:, 0, 0])


def batch_rate_features(x, w, v, params: LifParams) -> np.ndarray:
    """Mean firing rates of one neuron or a pool of P neurons over a batch.

    `x` is an (N, d, T) array of input spikes. With `w` of shape (d,) and a
    scalar `v` the result is (N,); with `w` of shape (P, d) and `v` of shape
    (P,) it is (N, P), column k being neuron k's rates. Each rate equals
    the firing rate of `simulate_neuron` on that sample.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 3:
        raise ShapeError(f"batch must be (N, d, T), got shape {x.shape}")
    W, V = _pool_weights(w, v, x.shape[1])
    T = x.shape[2]
    if T == 0:
        raise ValueError("cannot compute a firing rate over zero time steps")
    rates = _lif_raster(x, W, V, params).sum(axis=0) / T
    return rates[:, 0] if np.ndim(w) == 1 else rates


def rate_feature(s: SpikeTrain) -> float:
    """Mean firing rate (spike count / T) of a train."""
    if s.T == 0:
        raise ValueError("cannot compute a firing rate of an empty train")
    return int(s.bits.sum()) / s.T
