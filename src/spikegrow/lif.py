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

from ._util import as_bits, check_settings, setting
from .errors import ShapeError

# A uint8 batch runs through the kernel in blocks of `block_rows(P)` rows,
# P the number of neurons, so that the kernel's (N, P) states, its
# (T, N, P) raster and its (N, d) step cast are bounded by the block, not
# by the batch: under 1 MB at d = 64, T = 25. 8192 is the fastest size
# measured at a pool of 50, and no slower than one block on small
# batches (the sweeps are in CHANGES.md).
#
# CELLS sets memory and speed only: drives are exact for weights on a
# pool's dyadic grid (construct._draw), so no spike depends on it.
CELLS = 8192

# A pass of fewer neurons, down to none, takes the rows of FEW_NEURONS:
# CELLS // FEW_NEURONS = 1024, so that `eval` of a network of few units,
# which reads the file in the kernel's blocks, holds no more rows than that.
FEW_NEURONS = 8


def block_rows(P: int) -> int:
    """Rows per kernel block for a pass of P neurons:
    max(1, CELLS // max(P, FEW_NEURONS))."""
    return max(1, CELLS // max(P, FEW_NEURONS))


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


class SpikeTrain:
    """A fixed-length binary activity sequence."""

    __slots__ = ("bits",)

    def __init__(self, bits):
        arr = as_bits(bits, ValueError, "spike train")
        if arr.ndim != 1:
            raise ShapeError("spike train must be one-dimensional")
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


def _lif_raster(xt: np.ndarray, W: np.ndarray, V: np.ndarray,
                params: LifParams) -> np.ndarray:
    """Spike raster of P neurons over a time-major (T, N, d) uint8 batch,
    from the zero state.

    `xt` may have any layout, such as a row block of a time-major buffer,
    passed as a view. `W` holds the (P, d) input weights and `V` the (P,)
    self-feedback weights. Returns the (T, N, P) bool raster. Every spike
    train and rate feature comes from this one loop over time.

    Step t casts the (N, d) slice of time t, contiguous or strided, with
    `np.copyto` into one float64 (N, d) buffer, reused at every step, and
    multiplies that: the cast reads a contiguous slice fastest. Matmul on
    the uint8 operand casts it too, but measured at more than twice the
    cost of the copy and the float GEMM together (see CHANGES.md). The
    cast is exact, so BLAS multiplies the 0/1 values.

    The weights go to BLAS as one C-contiguous (d, P) block, copied once per
    call. `W.T` itself is Fortran-ordered, or a strided view when W is a
    column slice of a pool's draw, and at small P the GEMM on it costs
    nearly twice as much; the products are the same. For the same reason of
    short inner loops, the feedback weights are tiled to (N, P) once rather
    than broadcast at every step. The state updates run in place and in the
    order of the recurrence, so they round exactly as the formulas read.
    """
    T, N, d = xt.shape
    syn, mem, theta = params.syn_decay, params.mem_decay, params.theta
    WT = np.ascontiguousarray(W.T)
    VN = np.tile(V, (N, 1))
    cast = np.empty((N, d))
    i = np.zeros((N, W.shape[0]))
    u = np.zeros_like(i)
    s = np.zeros_like(i)
    drive = np.empty_like(i)
    raster = np.empty((T, N, W.shape[0]), dtype=bool)
    for t in range(T):
        # u <- mem*u + i_prev - s reads i and s before they are overwritten.
        u *= mem
        u += i
        u -= s
        # i <- syn*i + drive + V*s; s holds V*s until it is reloaded below.
        np.copyto(cast, xt[t])
        np.matmul(cast, WT, out=drive)
        s *= VN
        i *= syn
        i += drive
        i += s
        np.greater_equal(u, theta, out=raster[t])
        s[...] = raster[t]
    return raster


def simulate_neuron(x, w, v: float, params: LifParams) -> SpikeTrain:
    """Run one hidden neuron over a d-channel input block of length T.

    `x` is a (d, T) array of 0/1 input spikes, `w` the d input weights and
    `v` the self-feedback weight. Starts from the all-zero state. Any other
    input value raises ValueError.
    """
    x = as_bits(x, ValueError, "input spike")
    if x.ndim != 2 or np.ndim(w) != 1:
        raise ShapeError(f"need a (d, T) input block and (d,) weights, "
                         f"got {x.shape} and {np.shape(w)}")
    W, V = _pool_weights(w, v, x.shape[0])
    xt = np.ascontiguousarray(x.T[:, None, :])  # (T, 1, d)
    return SpikeTrain(_lif_raster(xt, W, V, params)[:, 0, 0])


def batch_rate_features(x, w, v, params: LifParams) -> np.ndarray:
    """Mean firing rates of one neuron or a pool of P neurons over a batch.

    `x` is an (N, d, T) array of 0/1 input spikes; any other value raises
    ValueError, checked before any cast (on a uint8 batch, one `max`). With
    `w` of shape (d,) and a scalar `v` the result is (N,); with `w` of shape
    (P, d) and `v` of shape (P,) it is (N, P), column k being neuron k's
    rates. Each rate equals the firing rate of `simulate_neuron` on that
    sample.

    A uint8 array is read a block of `block_rows(P)` rows at a time: each
    block runs through the kernel alone, as a view, and its spike counts
    are summed, so the kernel's memory is bounded by the block, not by N.
    A dataset's `spikes`, and every block `DatasetReader` reads, are views
    of time-major buffers, whose row blocks' time steps are contiguous; the
    kernel casts a strided step, as of a row-major array, more slowly, to
    the same values. Any other batch is copied time-major as uint8 and run
    as one block.

    For weights on a pool's dyadic grid (`construct._draw`) every drive is
    exact, so no rate depends on the block size or the pass's other neurons;
    off it, BLAS may round a drive by block shape and move a spike.
    """
    bits = as_bits(x, ValueError, "input spike")
    if bits.ndim != 3:
        raise ShapeError(f"batch must be (N, d, T), got shape {bits.shape}")
    W, V = _pool_weights(w, v, bits.shape[1])
    N, _, T = bits.shape
    if T == 0:
        raise ValueError("cannot compute a firing rate over zero time steps")
    xt = bits.transpose(2, 0, 1)
    rows = block_rows(len(W))
    if not (isinstance(x, np.ndarray) and x.dtype == np.uint8):
        xt, rows = np.ascontiguousarray(xt), max(1, N)
    # Count in the smallest unsigned type that holds T: numpy's default
    # int64 sum of bools is several times slower.
    counts = np.empty((N, len(W)), dtype=np.min_scalar_type(T))
    for a in range(0, N, rows):
        np.sum(_lif_raster(xt[:, a:a + rows], W, V, params).view(np.uint8),
               axis=0, dtype=counts.dtype, out=counts[a:a + rows])
    rates = counts / T
    return rates[:, 0] if np.ndim(w) == 1 else rates
