"""Independent reference implementations used only to check the library.

Everything here is deliberately written in plain Python / direct linear
algebra, independent of the code paths under test.
"""

import hashlib
import json
import math
from itertools import chain

import numpy as np

from spikegrow import DataFormatError, LabeledDataset
from spikegrow.dataset import _header_line, _parse_header, _zeros


def lif_unroll(x, w, v, dt, tau_syn, tau_mem, theta):
    """Step-by-step scalar evaluation of the neuron recurrence.

    x: list of per-channel spike lists, i.e. x[k][t] in {0, 1}.
    Returns the output spike list of length T.
    """
    d = len(x)
    T = len(x[0]) if d else 0
    a_syn = math.exp(-dt / tau_syn)
    a_mem = math.exp(-dt / tau_mem)
    i = 0.0
    u = 0.0
    s = 0
    out = []
    for t in range(T):
        drive = 0.0
        for k in range(d):
            drive += w[k] * x[k][t]
        drive += v * s
        i_new = a_syn * i + drive
        u_new = a_mem * u + i - s
        s = 1 if u_new >= theta else 0
        i, u = i_new, u_new
        out.append(s)
    return out


def normal_equations_lstsq(H, F):
    """Least squares via explicit normal equations; full-rank H only."""
    H = np.asarray(H, dtype=np.float64)
    F = np.asarray(F, dtype=np.float64)
    return np.linalg.solve(H.T @ H, H.T @ F)


def spike_count_classifier_accuracy(train, test):
    """Accuracy of a plain least-squares classifier on per-channel spike counts.

    Serves as a brute-force separability check for synthetic datasets; it
    never touches the hidden-unit machinery.
    """
    def counts(ds):
        X = ds.spike_tensor().sum(axis=2)  # (N, d)
        return np.column_stack([X, np.ones(len(ds))])

    def one_hot(ds):
        F = np.zeros((len(ds), ds.n_categories))
        F[np.arange(len(ds)), ds.label_indices()] = 1.0
        return F

    beta, *_ = np.linalg.lstsq(counts(train), one_hot(train), rcond=None)
    pred = np.argmax(counts(test) @ beta, axis=1)
    return float(np.mean(pred == test.label_indices()))


def single_unit_update_sq_norm(E, h):
    """Squared residual after applying the optimal per-column weight of one
    appended feature: ||E||^2 - sum_q <E_q, h>^2 / <h, h>."""
    E = np.asarray(E, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    proj = E.T @ h
    return float(np.sum(E * E) - (proj @ proj) / (h @ h))


# The per-line .ds codec that the block codec in spikegrow.dataset replaced,
# kept as its reference: one `str` of a list per sample line, and a loader
# that parses each line with json and re-serialises it. The header functions
# are the library's own; the header format did not change.

def _sample_line(label_index: int, block: np.ndarray) -> str:
    """The one serialiser of a sample line (`str` of a list of ints is JSON)."""
    channel, times = np.nonzero(block)
    ends = np.cumsum(np.bincount(channel, minlength=len(block))).tolist()
    times = times.tolist()
    spikes = [times[a:b] for a, b in zip([0] + ends, ends)]
    return f'{{"label_index": {label_index}, "spikes": {spikes}}}'


def dataset_text(ds: LabeledDataset) -> str:
    """Canonical serialized form, one `_sample_line` per sample."""
    lines = [_header_line(ds.d, ds.T, ds.dt_ms, len(ds), ds.categories)]
    lines += map(_sample_line, ds.label_index.tolist(), ds.spikes)
    return "\n".join(lines) + "\n"


def load_dataset(path: str) -> LabeledDataset:
    """Read a .ds file line by line; only the exact bytes `save_dataset`
    writes load: each sample line is parsed into its row of the spike array,
    which must serialise back to that line. The file's sha256 becomes the
    fingerprint."""
    with open(path, "rb") as fh:
        raw = fh.readline()
        digest = hashlib.sha256(raw)
        d, T, dt_ms, n_samples, categories = _parse_header(raw)
        try:
            spikes = _zeros((n_samples, d, T))
            label_index = _zeros(n_samples, dtype=np.intp)
        except MemoryError as exc:
            raise DataFormatError(f"header at byte 0: {n_samples} samples of "
                                  f"({d}, {T}) spikes cannot be allocated: "
                                  f"{exc}") from None
        for k in range(n_samples):
            offset, raw = fh.tell(), fh.readline()
            if not raw:
                raise DataFormatError(f"truncated sample block at byte {offset}: "
                                      f"expected {n_samples} samples, found {k}")
            digest.update(raw)
            try:
                line = raw.decode("utf-8")
                rec = json.loads(line)
                # Indexing a range rejects an index >= m; a negative one
                # fails the canonical check.
                label_index[k] = range(len(categories))[rec["label_index"]]
                spikes[k][np.repeat(np.arange(d), [len(t) for t in rec["spikes"]]),
                          np.fromiter(chain.from_iterable(rec["spikes"]), np.intp)] = 1
            except (KeyError, TypeError, ValueError, IndexError, OverflowError,
                    RecursionError, MemoryError) as exc:
                raise DataFormatError(
                    f"malformed sample record at byte {offset}: {exc}") from None
            if _sample_line(label_index[k], spikes[k]) + "\n" != line:
                raise DataFormatError(
                    f"sample record at byte {offset} is not in canonical form")
        if fh.read(1):
            raise DataFormatError(f"data after the last of {n_samples} samples at "
                                  f"byte {fh.tell() - 1}")
    ds = LabeledDataset(spikes, label_index, categories, dt_ms)
    ds._fingerprint = digest.hexdigest()
    return ds
