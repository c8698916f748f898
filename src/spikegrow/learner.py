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
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from ._util import (
    SIZE_MAX,
    atomic_write_bytes,
    check_keys,
    check_settings,
    is_int,
    setting,
)
from .construct import PruningConfig, grow_one
from .dataset import (
    LabeledDataset,
    _categories_ok,
    dataset_fingerprint,
    encode_targets,
)
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
    GrowingFit,
    fit_output_weights,
    predict_batch,
    residual,
)

CHECKPOINT_MAGIC = b"SPIKEGROW-NET 1\n"
CHECKPOINT_VERSION = 1

STATUS_TARGET = "TargetReached"
STATUS_PATIENCE = "Patience"
STATUS_MAX_HIDDEN = "MaxHidden"
STATUS_SATURATED = "Saturated"
STATUSES = (STATUS_TARGET, STATUS_PATIENCE, STATUS_MAX_HIDDEN,
            STATUS_SATURATED)

# Relative slack for the residual-contraction certificate check.
_CERT_RTOL = 1e-9


@dataclass(frozen=True)
class HiddenNeuron:
    """Input weights and self-feedback weight of one recruited unit."""

    w: np.ndarray
    v: float

    def __post_init__(self):
        w = np.array(self.w, dtype=np.float64)
        w.setflags(write=False)
        object.__setattr__(self, "w", w)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, HiddenNeuron)
            and self.v == other.v
            and np.array_equal(self.w, other.w)
        )


@dataclass(frozen=True)
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
    # Test accuracy of the network growth returned, measured with its
    # checkpoint weights, also when it added no unit. Trace files do not
    # store it; a loaded trace reports the best of its records instead.
    returned_test_accuracy: float | None = None

    @property
    def final_neurons(self) -> int:
        return self.records[-1].neuron_count if self.records else self.initial_neurons

    @property
    def added_neurons(self) -> int:
        return self.final_neurons - self.initial_neurons

    @property
    def best_test_accuracy(self) -> float:
        if self.returned_test_accuracy is not None:
            return self.returned_test_accuracy
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
        """Rate-feature table of this network's hidden units on a dataset:
        `unit_features` of its spikes as one block."""
        if ds.d != self.d:
            raise LineageError(
                f"dataset has {ds.d} channels, network expects {self.d}")
        return unit_features(self.hidden, [ds.spikes], self.lif)

    def predict(self, H: np.ndarray) -> np.ndarray:
        """Predicted category index per row of a rate-feature table of this
        network's hidden units."""
        return predict_batch(H, self.beta)

    def predict_dataset(self, ds: LabeledDataset) -> np.ndarray:
        """Predicted category index per sample."""
        return self.predict(self.features(ds))

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


def unit_features(hidden, blocks, lif: LifParams) -> np.ndarray:
    """(N, n) rate features of hidden units on a batch given as (rows, d, T)
    uint8 spike blocks in row order, such as a file read a block at a time:
    one kernel pass per block, with the weights stacked once for all of
    them. Each block is used before the next is drawn, so the blocks may
    share one buffer. The table of a single block is returned as it is,
    not copied."""
    if not hidden:
        return np.zeros((sum(map(len, blocks)), 0))
    W = np.stack([h.w for h in hidden])
    V = np.array([h.v for h in hidden])
    tables = [batch_rate_features(x, W, V, lif) for x in blocks]
    if len(tables) == 1:
        return tables[0]
    return np.concatenate([np.zeros((0, len(hidden))), *tables])


def _check_pair(train: LabeledDataset, test: LabeledDataset) -> None:
    if (train.d, train.T) != (test.d, test.T):
        raise ConfigError("train and test datasets disagree in (d, T)")
    if train.categories != test.categories:
        raise ConfigError("train and test datasets disagree in categories")


def _fitted_accuracy(F, E, label_idx) -> float:
    """Accuracy of the least-squares fit read off its residual: F - E is the
    fitted output H @ beta, so no beta is needed."""
    return float(np.mean(np.argmax(F - E, axis=1) == label_idx))


def _fit(H, F):
    if H.shape[1] == 0:
        return np.zeros((0, F.shape[1]))
    return fit_output_weights(H, F)


def _grow(hidden, frozen_prefix, train, test, cfg: GrowthConfig, lif: LifParams,
          lineage, kind: str):
    """Shared growth loop; `hidden` is the (possibly empty) inherited prefix.

    A `GrowingFit` keeps the residual by orthogonal projection, one column
    per unit, so a step costs O(N (n + m)) instead of a least-squares
    refit. It also keeps the fit's test outputs, so no step solves for
    output weights: on an eval step the test features of the units added
    since the last one are computed in one batch and fed to it, and test
    accuracy is read off the outputs. lstsq runs once, for the returned
    snapshot, whose test accuracy is then measured with those weights.
    A run that saturates on a step it had not evaluated evaluates that
    step before the snapshot is chosen.

    Each pool is scored against the fit's basis Q, by the exact gain of
    the update `add` then applies, so the contraction check below is
    tight: the realised gain equals the certified one up to rounding.
    The winner's pool is kept, a local of this loop, and handed to the next
    `grow_one`, which re-scores its other candidates at sigma0 before it
    draws a fresh pool; a pool serves at most `construct.POOL_UNITS` units.
    A unit taken from the kept pool is recorded with `retries_used` -1, so
    the records' `retries_used + 1` sum to the pools drawn.

    Growth keeps no feature table, only 8 (N + N_test) bytes a unit of Q
    and the test image: grown units lie on the pool's dyadic grid, so any
    kernel pass gives their features exactly, and the snapshot's are
    recomputed. Every kernel pass reads the sets' time-major buffers as
    views. No unit or winner's feature pins its pool (each is a copy), and
    the prefix's feature rows are dropped once fitted.
    """
    _check_pair(train, test)
    fingerprint = dataset_fingerprint(train)
    hidden = list(hidden)
    n0 = len(hidden)
    F = encode_targets(train)
    train_labels = train.label_index
    test_labels = test.label_index
    train_x, test_x = train.spike_tensor(), test.spike_tensor()
    fit = GrowingFit(F, len(test))

    def test_accuracy() -> float:
        outputs = fit.test_outputs(unit_features(
            hidden[len(hidden) - fit.pending:], [test_x], lif))
        return float(np.mean(np.argmax(outputs, axis=1) == test_labels))

    # Contiguous copies, not strided column views: the fit's dot products
    # then see the same vectors as a grown unit's pool feature.
    for h in map(np.ascontiguousarray,
                 unit_features(hidden, [train_x], lif).T):
        fit.add(h)
    train_acc = _fitted_accuracy(F, fit.E, train_labels)
    test_acc = test_accuracy()
    best_test = test_acc if n0 > 0 else -1.0
    best_n = n0
    evals_since_best = 0

    rng = np.random.default_rng(cfg.rng_seed)
    sigma0 = cfg.pruning.sigma0
    records = []
    status = None
    t0 = time.perf_counter()

    if train_acc >= cfg.target_train_accuracy:
        status = STATUS_TARGET

    step = 0
    pool = None
    while status is None:
        if len(hidden) >= cfg.max_hidden:
            status = STATUS_MAX_HIDDEN
            break
        outcome = grow_one(fit.E, train, cfg.pruning, lif, rng, fit.Q.table,
                           pool)
        pool = outcome.pool
        if outcome.saturated:
            status = STATUS_SATURATED
            break
        sel = outcome.selection
        neuron = HiddenNeuron(sel.winner.w, sel.winner.v)
        hidden.append(neuron)
        step += 1
        prev_sq = fit.sq_norm
        fit.add(sel.feature)
        bound = sigma0 * prev_sq
        if fit.sq_norm > bound * (1.0 + _CERT_RTOL) + 1e-30:
            raise InvariantError(
                f"residual contraction violated: {fit.sq_norm} > "
                f"{sigma0} * {prev_sq}"
            )
        if fit.sq_norm >= prev_sq:
            raise InvariantError("squared residual failed to decrease")
        train_acc = _fitted_accuracy(F, fit.E, train_labels)

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
            sq_norm=fit.sq_norm,
            train_accuracy=train_acc,
            test_accuracy=test_acc,
            elapsed_seconds=time.perf_counter() - t0,
            sigma_used=sigma0,
            retries_used=outcome.rounds_used - 1,
        ))
        if reached:
            status = STATUS_TARGET
        elif evals_since_best >= cfg.patience:
            status = STATUS_PATIENCE

    if fit.pending:
        # Only a saturated run stops on a step it had not evaluated.
        test_acc = test_accuracy()
        records[-1] = replace(records[-1], test_accuracy=test_acc)
        if test_acc > best_test:
            best_test, best_n = test_acc, len(hidden)

    # Return the best-test-accuracy snapshot: hidden weights are never
    # modified after acceptance, so truncation reproduces it. Its output
    # weights are lstsq's, so checkpoints do not depend on the fit's path.
    # The fit is no longer read: dropped first, its Q and test image are not
    # held beside lstsq's copy.
    del fit
    best_hidden = hidden[:best_n]
    best_beta = _fit(unit_features(best_hidden, [train_x], lif), F)
    entry = {
        "kind": kind,
        "fingerprint": fingerprint,
        "n_hidden_before": n0,
        "n_hidden_after": best_n,
        "status": status,
    }
    net = Network(train.d, lif, best_hidden, best_beta, train.categories,
                  frozen_prefix=frozen_prefix, lineage=lineage + [entry])
    # Measured on the returned network, not read off the fit: where two
    # outputs tie in exact arithmetic, the fit and lstsq may break the tie
    # apart, and the accuracy reported must be the written network's.
    returned = float(np.mean(net.predict_dataset(test) == test_labels))
    trace = TrainingTrace(records=records, status=status, initial_neurons=n0,
                          returned_test_accuracy=returned)
    return net, trace


def train_fresh(train: LabeledDataset, test: LabeledDataset,
                cfg: GrowthConfig):
    """Grow a classifier from scratch on a dataset pair."""
    net, trace = _grow([], 0, train, test, cfg, cfg.lif, [], "fresh")
    if trace.status == STATUS_SATURATED and not trace.records:
        raise DegenerateDataError(
            "the first growth step found no qualifying candidate: every "
            "candidate of its pool was silent or fell short of the "
            "contraction target pruning.sigma0"
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
    net, trace = _grow(seed.hidden, seed.n_hidden, enlarged_train,
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
    check_keys(header, _HEADER_KEYS, "checkpoint header")
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
            or not _categories_ok(categories):
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
    if r.pos != len(blob):
        raise DataFormatError(
            f"data after the beta section at byte {r.pos} of the checkpoint")
    W, V, beta = arrays
    hidden = [HiddenNeuron(W[i], float(V[i])) for i in range(n)]
    return Network(d, lif, hidden, beta, header["categories"],
                   frozen_prefix=header["frozen_prefix"],
                   lineage=header["lineage"])
