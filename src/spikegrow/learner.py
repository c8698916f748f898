"""Growth orchestration: fresh training, transfer via frozen units, checkpoints.

A network is a single hidden layer grown one neuron at a time. Fresh
training starts from nothing; experienced training starts from a seed
network whose hidden weights are inherited verbatim and never touched
again (the frozen prefix), first re-fitting only the output weights on the
enlarged category set (one-loop adaptation) and then resuming growth.
"""

from __future__ import annotations

import hashlib
import json
import struct
import time
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from ._util import (
    SIZE_MAX,
    atomic_write_bytes,
    check_settings,
    is_int,
    setting,
)
from .construct import PruningConfig, grow_one
from .dataset import LabeledDataset, dataset_fingerprint, encode_targets
from .errors import (
    ChecksumError,
    ConfigError,
    DataFormatError,
    DegenerateDataError,
    InvariantError,
    LineageError,
)
from .lif import LifParams, batch_rate_features
# `residual` is no longer called here; it stays bound in this module because
# the benchmark tracer (benchmarks/tracer.py) wraps it at this binding.
from .readout import (  # noqa: F401
    ResidualState,
    fit_output_weights,
    orthonormal_direction,
    predict_batch,
    residual,
    triangular_output_weights,
)

CHECKPOINT_MAGIC = b"SPIKEGROW-NET 1\n"
CHECKPOINT_VERSION = 1

STATUS_TARGET = "TargetReached"
STATUS_PATIENCE = "Patience"
STATUS_MAX_HIDDEN = "MaxHidden"
STATUS_SATURATED = "Saturated"

# Relative slack for the residual-contraction certificate check.
_CERT_RTOL = 1e-9


@dataclass(frozen=True)
class HiddenNeuron:
    """Input weights and self-feedback weight of one recruited unit."""

    w: np.ndarray
    v: float

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HiddenNeuron)
            and self.v == other.v
            and np.array_equal(self.w, other.w)
        )


@dataclass
class GrowthConfig:
    target_train_accuracy: float = setting(0.99, gt=0.0, le=1.0)
    max_hidden: int = setting(500, ge=1, le=SIZE_MAX)
    patience: int = setting(10, ge=1, le=SIZE_MAX)
    eval_every: int = setting(5, ge=1, le=SIZE_MAX)
    pruning: PruningConfig = field(default_factory=PruningConfig)
    lif: LifParams = field(default_factory=LifParams)
    rng_seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self, "growth")


@dataclass(frozen=True)
class TraceRecord:
    neuron_count: int
    sq_norm: float
    train_accuracy: float
    test_accuracy: float
    elapsed_seconds: float
    sigma_used: float
    retries_used: int


@dataclass
class TrainingTrace:
    records: list
    status: str
    initial_neurons: int = 0

    @property
    def final_neurons(self) -> int:
        return self.records[-1].neuron_count if self.records else self.initial_neurons

    @property
    def added_neurons(self) -> int:
        return self.final_neurons - self.initial_neurons

    @property
    def best_test_accuracy(self) -> float:
        if not self.records:
            return 0.0
        return max(r.test_accuracy for r in self.records)

    @property
    def total_elapsed(self) -> float:
        return self.records[-1].elapsed_seconds if self.records else 0.0


class Network:
    """A grown classifier: hidden units, output weights, category order."""

    def __init__(self, d, lif, hidden, beta, categories, frozen_prefix=0,
                 lineage=None):
        self.d = int(d)
        self.lif = lif
        self.hidden = list(hidden)
        self.beta = np.asarray(beta, dtype=np.float64)
        self.categories = list(categories)
        self.frozen_prefix = int(frozen_prefix)
        self.lineage = list(lineage or [])
        if self.frozen_prefix > len(self.hidden):
            raise ConfigError("frozen_prefix exceeds hidden neuron count")
        if self.beta.shape != (len(self.hidden), len(self.categories)):
            raise ConfigError(
                f"beta shape {self.beta.shape} does not match "
                f"({len(self.hidden)}, {len(self.categories)})"
            )

    @property
    def n_hidden(self) -> int:
        return len(self.hidden)

    @property
    def m(self) -> int:
        return len(self.categories)

    def features(self, ds: LabeledDataset) -> np.ndarray:
        """Rate-feature table of this network's hidden units on a dataset."""
        if ds.d != self.d:
            raise ConfigError(f"dataset has {ds.d} channels, network expects {self.d}")
        return _unit_features(self.hidden, ds.spike_tensor(), self.lif)

    def predict_dataset(self, ds: LabeledDataset) -> np.ndarray:
        """Predicted category index per sample."""
        return predict_batch(self.features(ds), self.beta)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Network)
            and self.d == other.d
            and self.lif == other.lif
            and self.hidden == other.hidden
            and np.array_equal(self.beta, other.beta)
            and self.categories == other.categories
            and self.frozen_prefix == other.frozen_prefix
            and self.lineage == other.lineage
        )


def _unit_features(hidden, tensor: np.ndarray, lif: LifParams) -> np.ndarray:
    """(N, n) rate features of hidden units on an (N, d, T) tensor, in one
    batched pass."""
    if not hidden:
        return np.zeros((len(tensor), 0))
    W = np.stack([h.w for h in hidden])
    V = np.array([h.v for h in hidden])
    return batch_rate_features(tensor, W, V, lif)


def _check_pair(train: LabeledDataset, test: LabeledDataset) -> None:
    if (train.d, train.T) != (test.d, test.T):
        raise ConfigError("train and test datasets disagree in (d, T)")
    if train.categories != test.categories:
        raise ConfigError("train and test datasets disagree in categories")


def _accuracy(H, beta, label_idx) -> float:
    return float(np.mean(predict_batch(H, beta) == label_idx))


def _fitted_accuracy(F, E, label_idx) -> float:
    """Accuracy of the least-squares fit read off its residual: F - E is the
    fitted output H @ beta, so no beta is needed."""
    return float(np.mean(np.argmax(F - E, axis=1) == label_idx))


def _fit(H, F):
    if H.shape[1] == 0:
        return np.zeros((0, F.shape[1]))
    return fit_output_weights(H, F)


class _Columns:
    """An (N, n) table appended to one column at a time, written in place.

    Capacity doubles when full, so n appends copy O(N n) in all rather than
    the O(N n^2) of rebuilding the table on every append. Column-major
    storage keeps each column contiguous and leaves the unused capacity in
    pages that are never touched.
    """

    def __init__(self, rows: int):
        self._buf = np.empty((rows, 16), order="F")
        self.n = 0

    def append(self, columns: np.ndarray) -> None:
        """Append one (N,) column or an (N, k) block of columns."""
        columns = np.asarray(columns, dtype=np.float64).reshape(
            len(self._buf), -1)
        end = self.n + columns.shape[1]
        if end > self._buf.shape[1]:
            grown = np.empty((len(self._buf), max(end, 2 * self._buf.shape[1])),
                             order="F")
            grown[:, :self.n] = self.table
            self._buf = grown
        self._buf[:, self.n:end] = columns
        self.n = end

    @property
    def table(self) -> np.ndarray:
        return self._buf[:, :self.n]


class _QR:
    """Thin QR factors H = Q R of a feature table that grows one column at a
    time, with c = Q^T F, so the table's least-squares output weights are
    R^{-1} c (Golub & Van Loan, Matrix Computations, 4th ed., sec. 6.5).

    Q is a _Columns table. R and c are written in place into buffers whose
    capacity doubles when full, so an eval step solves by back-substitution
    instead of refitting. A column already in span(Q) adds no row to R,
    which then no longer solves for the whole table: `dependent` is set,
    and output weights come from lstsq from then on.
    """

    def __init__(self, F: np.ndarray):
        self.Q = _Columns(len(F))
        self._R = np.zeros((16, 16))
        self._c = np.zeros((16, F.shape[1]))
        self.dependent = False

    def project_out(self, res: ResidualState, h) -> ResidualState:
        """Least-squares residual after feature column h joins the table; a
        column already in span(Q) changes nothing."""
        k = self.Q.n
        if k == len(self._R):
            R, c = np.zeros((2 * k, 2 * k)), np.zeros((2 * k, self._c.shape[1]))
            R[:k, :k], c[:k] = self._R, self._c
            self._R, self._c = R, c
        q = orthonormal_direction(self.Q.table, h, out=self._R[:k + 1, k])
        if q is None:
            self.dependent = True
            return res
        self.Q.append(q)
        # q is orthogonal to the old basis, so q^T E equals c's new row q^T F.
        self._c[k] = q @ res.E
        E = res.E - np.outer(q, self._c[k])
        return ResidualState(E, float(np.sum(E * E)))

    def output_weights(self, H: np.ndarray, F: np.ndarray) -> np.ndarray:
        """Least-squares output weights of the table H so far: R^{-1} c, or
        lstsq's minimum-norm solution where a column was dependent or R is
        too ill-conditioned to back-substitute."""
        n = self.Q.n
        beta = None if self.dependent else \
            triangular_output_weights(self._R[:n, :n], self._c[:n])
        return _fit(H, F) if beta is None else beta


def _grow(hidden, frozen_prefix, train, test, cfg: GrowthConfig, lif: LifParams,
          lineage, kind: str):
    """Shared growth loop; `hidden` is the (possibly empty) inherited prefix.

    The residual is kept by orthogonal projection, one column per unit, so a
    step costs O(N (n + m)) instead of a least-squares refit. Test features
    and output weights are computed only on eval steps; the weights there
    come from the QR factors the projection builds, and lstsq runs once,
    for the returned snapshot. Also returns the number of pools the
    saturating attempt drew (None unless the run saturated).
    """
    _check_pair(train, test)
    hidden = list(hidden)
    n0 = len(hidden)
    F = encode_targets(train)
    train_labels = train.label_indices()
    test_labels = test.label_indices()
    test_tensor = test.spike_tensor()
    H_train, H_test, qr = _Columns(len(train)), _Columns(len(test)), _QR(F)
    H_train.append(_unit_features(hidden, train.spike_tensor(), lif))

    def test_accuracy() -> float:
        H_test.append(_unit_features(hidden[H_test.n:], test_tensor, lif))
        beta = qr.output_weights(H_train.table, F)
        return _accuracy(H_test.table, beta, test_labels)

    res = ResidualState(F, float(np.sum(F * F)))
    for h in H_train.table.T:
        res = qr.project_out(res, h)
    train_acc = _fitted_accuracy(F, res.E, train_labels)
    test_acc = test_accuracy()
    best_test = test_acc if n0 > 0 else -1.0
    best_n = n0
    evals_since_best = 0

    rng = np.random.default_rng(cfg.rng_seed)
    records = []
    status = None
    saturated_rounds = None
    t0 = time.perf_counter()

    if train_acc >= cfg.target_train_accuracy:
        status = STATUS_TARGET
        best_test = max(best_test, test_acc)

    step = 0
    while status is None:
        if len(hidden) >= cfg.max_hidden:
            status = STATUS_MAX_HIDDEN
            break
        outcome = grow_one(res.E, train, cfg.pruning, lif, rng)
        if outcome.saturated:
            status, saturated_rounds = STATUS_SATURATED, outcome.rounds_used
            break
        sel = outcome.selection
        neuron = HiddenNeuron(sel.winner.w, sel.winner.v)
        hidden.append(neuron)
        step += 1
        prev_sq = res.sq_norm
        H_train.append(sel.feature)
        res = qr.project_out(res, sel.feature)
        bound = outcome.sigma_used * prev_sq
        if res.sq_norm > bound * (1.0 + _CERT_RTOL) + 1e-30:
            raise InvariantError(
                f"residual contraction violated: {res.sq_norm} > "
                f"{outcome.sigma_used} * {prev_sq}"
            )
        if res.sq_norm >= prev_sq:
            raise InvariantError("squared residual failed to decrease")
        train_acc = _fitted_accuracy(F, res.E, train_labels)

        reached = train_acc >= cfg.target_train_accuracy
        do_eval = reached or (step % cfg.eval_every == 0) \
            or len(hidden) >= cfg.max_hidden
        if do_eval:
            test_acc = test_accuracy()
            if test_acc > best_test:
                best_test = test_acc
                best_n = len(hidden)
                evals_since_best = 0
            else:
                evals_since_best += 1
        records.append(TraceRecord(
            neuron_count=len(hidden),
            sq_norm=res.sq_norm,
            train_accuracy=train_acc,
            test_accuracy=test_acc,
            elapsed_seconds=time.perf_counter() - t0,
            sigma_used=outcome.sigma_used,
            retries_used=outcome.rounds_used - 1,
        ))
        if reached:
            status = STATUS_TARGET
        elif evals_since_best >= cfg.patience:
            status = STATUS_PATIENCE

    # Return the best-test-accuracy snapshot: hidden weights are never
    # modified after acceptance, so truncation reproduces it. Its output
    # weights are lstsq's, so checkpoints do not depend on the QR path.
    best_hidden = hidden[:best_n]
    best_beta = _fit(H_train.table[:, :best_n], F)
    trace = TrainingTrace(records=records, status=status, initial_neurons=n0)
    entry = {
        "kind": kind,
        "fingerprint": dataset_fingerprint(train),
        "n_hidden_before": n0,
        "n_hidden_after": best_n,
        "status": status,
    }
    net = Network(train.d, lif, best_hidden, best_beta, train.categories,
                  frozen_prefix=frozen_prefix, lineage=lineage + [entry])
    return net, trace, saturated_rounds


def train_fresh(train: LabeledDataset, test: LabeledDataset,
                cfg: GrowthConfig):
    """Grow a classifier from scratch on a dataset pair."""
    net, trace, saturated_rounds = _grow([], 0, train, test, cfg, cfg.lif, [],
                                         "fresh")
    if saturated_rounds == 0:
        raise DegenerateDataError(
            "no candidate pool was drawn: the weight range 2 * "
            "pruning.weight_scale * pruning.lambda_growth**k overflows at "
            "round 0; lower pruning.weight_scale"
        )
    if trace.status == STATUS_SATURATED and not trace.records:
        raise DegenerateDataError(
            "no candidate neuron produced any spikes on this dataset"
        )
    return net, trace


def _check_lineage(seed: Network, enlarged: LabeledDataset) -> None:
    if enlarged.d != seed.d:
        raise LineageError(
            f"seed expects {seed.d} channels, dataset has {enlarged.d}"
        )
    if enlarged.categories[: seed.m] != seed.categories:
        raise LineageError(
            "enlarged dataset categories must extend the seed's as a prefix"
        )


def _one_loop_lineage(seed: Network, enlarged: LabeledDataset) -> list:
    """The seed's lineage plus the entry of its one-loop adaptation."""
    return seed.lineage + [{
        "kind": "one_loop",
        "fingerprint": dataset_fingerprint(enlarged),
        "n_hidden_before": seed.n_hidden,
        "n_hidden_after": seed.n_hidden,
        "status": "OneLoop",
    }]


def one_loop_adapt(seed: Network, enlarged: LabeledDataset) -> Network:
    """Expand the output layer to the enlarged category set, freezing all
    hidden weights, and refit the output weights only."""
    _check_lineage(seed, enlarged)
    beta = _fit(seed.features(enlarged), encode_targets(enlarged))
    return Network(seed.d, seed.lif, seed.hidden, beta, enlarged.categories,
                   frozen_prefix=seed.n_hidden,
                   lineage=_one_loop_lineage(seed, enlarged))


def train_experienced(seed: Network, enlarged_train: LabeledDataset,
                      enlarged_test: LabeledDataset, cfg: GrowthConfig):
    """One-loop adapt a seed, then resume growth on the enlarged data.

    The inherited hidden units stay frozen; only new units and the output
    weights change. LIF constants come from the seed so inherited features
    keep their meaning. The one-loop fit is growth's initial fit, so it is
    recorded in the lineage but not solved twice.
    """
    _check_lineage(seed, enlarged_train)
    net, trace, _ = _grow(seed.hidden, seed.n_hidden, enlarged_train,
                          enlarged_test, cfg, seed.lif,
                          _one_loop_lineage(seed, enlarged_train), "experienced")
    for before, after in zip(seed.hidden, net.hidden):
        if before != after:
            raise InvariantError("frozen hidden weights were modified")
    return net, trace


def _pack_section(arr: np.ndarray) -> bytes:
    payload = np.ascontiguousarray(arr, dtype="<f8").tobytes()
    return struct.pack("<Q", len(payload)) + payload \
        + hashlib.sha256(payload).digest()


def network_to_bytes(net: Network) -> bytes:
    header = {
        "format_version": CHECKPOINT_VERSION,
        "d": net.d,
        "lif": asdict(net.lif),
        "n_hidden": net.n_hidden,
        "frozen_prefix": net.frozen_prefix,
        "m": net.m,
        "categories": list(net.categories),
        "lineage": net.lineage,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    W = (np.stack([h.w for h in net.hidden])
         if net.hidden else np.zeros((0, net.d)))
    V = np.array([h.v for h in net.hidden])
    out = [CHECKPOINT_MAGIC, struct.pack("<I", len(header_bytes)), header_bytes]
    for arr in (W, V, net.beta):
        out.append(_pack_section(arr))
    return b"".join(out)


def save_network(net: Network, path: str) -> None:
    atomic_write_bytes(path, network_to_bytes(net))


class _Reader:
    def __init__(self, blob: bytes):
        self.blob = blob
        self.pos = 0

    def take(self, n: int, what: str) -> bytes:
        if self.pos + n > len(self.blob):
            raise DataFormatError(
                f"truncated checkpoint: {what} at byte {self.pos}"
            )
        chunk = self.blob[self.pos:self.pos + n]
        self.pos += n
        return chunk


_HEADER_KEYS = {"format_version", "d", "lif", "n_hidden", "frozen_prefix",
                "m", "categories", "lineage"}


def _check_header(header) -> None:
    """Raise DataFormatError unless a checkpoint header has every key, no
    other, and values of the types and ranges a saved network writes."""
    if not isinstance(header, dict):
        raise DataFormatError("checkpoint header must be a JSON object")
    if header.get("format_version") != CHECKPOINT_VERSION:
        raise DataFormatError(
            f"unsupported checkpoint version {header.get('format_version')!r}"
        )
    if header.keys() != _HEADER_KEYS:
        missing = sorted(_HEADER_KEYS - header.keys())
        unknown = sorted(header.keys() - _HEADER_KEYS)
        raise DataFormatError(
            f"checkpoint header keys: missing {missing}, unknown {unknown}"
        )
    for key in ("d", "n_hidden", "frozen_prefix", "m"):
        if not is_int(header[key]) or header[key] < 0:
            raise DataFormatError(
                f"checkpoint header {key} must be a non-negative integer, "
                f"got {header[key]!r}"
            )
    if header["frozen_prefix"] > header["n_hidden"]:
        raise DataFormatError(
            f"checkpoint frozen_prefix {header['frozen_prefix']} exceeds "
            f"n_hidden {header['n_hidden']}"
        )
    lif, lif_keys = header["lif"], {f.name for f in fields(LifParams)}
    if not isinstance(lif, dict) or lif.keys() != lif_keys:
        raise DataFormatError(
            f"checkpoint lif must hold exactly {sorted(lif_keys)}, got {lif!r}"
        )
    categories = header["categories"]
    if not isinstance(categories, list) or len(categories) != header["m"] \
            or not all(isinstance(c, str) or is_int(c) for c in categories) \
            or len(set(categories)) != len(categories):
        raise DataFormatError(
            f"checkpoint categories must be {header['m']} distinct integers "
            f"or strings, got {categories!r}"
        )
    if not isinstance(header["lineage"], list) \
            or not all(isinstance(e, dict) for e in header["lineage"]):
        raise DataFormatError("checkpoint lineage must be a list of objects")


def load_network(path: str) -> Network:
    with open(path, "rb") as fh:
        blob = fh.read()
    r = _Reader(blob)
    if r.take(len(CHECKPOINT_MAGIC), "magic") != CHECKPOINT_MAGIC:
        raise DataFormatError("not a network checkpoint or unsupported version")
    (header_len,) = struct.unpack("<I", r.take(4, "header length"))
    try:
        header = json.loads(r.take(header_len, "header").decode("utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise DataFormatError(f"malformed checkpoint header: {exc}") from None
    _check_header(header)
    try:
        lif = LifParams(**header["lif"])
    except ValueError as exc:
        raise DataFormatError(f"invalid checkpoint lif: {exc}") from None
    n, d, m = header["n_hidden"], header["d"], header["m"]
    arrays = []
    for name, shape in (("weights", (n, d)), ("feedback", (n,)),
                        ("beta", (n, m))):
        (length,) = struct.unpack("<Q", r.take(8, f"{name} length"))
        expected = 8 * int(np.prod(shape, dtype=np.int64))
        if length != expected:
            raise DataFormatError(
                f"{name} section length {length} != expected {expected}"
            )
        payload = r.take(length, name)
        digest = r.take(32, f"{name} checksum")
        if hashlib.sha256(payload).digest() != digest:
            raise ChecksumError(f"{name} section failed its checksum")
        arrays.append(np.frombuffer(payload, dtype="<f8").reshape(shape))
    W, V, beta = arrays
    hidden = [HiddenNeuron(W[i], float(V[i])) for i in range(n)]
    return Network(d, lif, hidden, beta, header["categories"],
                   frozen_prefix=header["frozen_prefix"],
                   lineage=header["lineage"])
