"""Spike-train datasets: synthetic generator, nesting, splitting, serialization.

A dataset holds N labeled samples, each a (d, T) block of binary spike
trains. The synthetic generator draws one per-channel Bernoulli rate profile
per category and realizes independent spike rasters around it, so class
information lives in the per-channel firing statistics. Families of datasets
are nested: every sample of an earlier stage is literally a member of every
later stage.

File format (version 1, line oriented): a JSON header line
{"format_version": 1, "d", "T", "dt_ms", "n_samples", "categories"}, then
one JSON line per sample {"label_index", "spikes"}, "spikes" listing each
channel's ascending spike times in [0, T). Only the canonical bytes load.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from itertools import chain

import numpy as np

from ._util import atomic_write_bytes, check_settings, is_int, setting
from .errors import ConfigError, DataFormatError, ShapeError

FORMAT_VERSION = 1

# Sample-level Bernoulli probabilities are clamped to this open interval;
# category profiles that would leave it are rejected outright.
_RATE_EPS = 1e-9


@dataclass(frozen=True)
class LabeledSample:
    """One d-channel spike block with its category label."""

    channels: np.ndarray  # (d, T) uint8
    label: int

    def __post_init__(self):
        arr = np.asarray(self.channels, dtype=np.uint8)
        if arr.ndim != 2:
            raise ShapeError("sample channels must form a (d, T) array")
        arr.setflags(write=False)
        object.__setattr__(self, "channels", arr)

    @property
    def d(self) -> int:
        return self.channels.shape[0]

    @property
    def T(self) -> int:
        return self.channels.shape[1]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledSample)
            and self.label == other.label
            and np.array_equal(self.channels, other.channels)
        )


class LabeledDataset:
    """An immutable collection of samples over an ordered category list."""

    def __init__(self, samples, categories, d, T, dt_ms=1.0):
        self.samples = list(samples)
        self.categories = list(categories)
        self.d = int(d)
        self.T = int(T)
        self.dt_ms = float(dt_ms)
        self._tensor = None
        self._fingerprint = None
        if len(set(self.categories)) != len(self.categories):
            raise ConfigError("categories must be distinct")
        cat_set = set(self.categories)
        for k, s in enumerate(self.samples):
            if s.channels.shape != (self.d, self.T):
                raise ShapeError(
                    f"sample {k} has shape {s.channels.shape}, "
                    f"expected {(self.d, self.T)}"
                )
            if s.label not in cat_set:
                raise ConfigError(f"sample {k} label {s.label} not in categories")

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def label_indices(self) -> np.ndarray:
        """Per-sample index into the ordered category list."""
        pos = {c: i for i, c in enumerate(self.categories)}
        return np.array([pos[s.label] for s in self.samples], dtype=np.intp)

    def spike_tensor(self) -> np.ndarray:
        """All samples stacked as a read-only (N, d, T) float array; cached.

        The array is a view of a time-major (T, N, d) buffer, so that
        `transpose(2, 0, 1)` of it, the layout the LIF kernel steps
        through, is C-contiguous and needs no copy.
        """
        if self._tensor is None:
            if self.samples:
                stacked = np.stack([s.channels for s in self.samples])
                t = np.ascontiguousarray(stacked.transpose(2, 0, 1),
                                         dtype=np.float64)
            else:
                t = np.zeros((self.T, 0, self.d))
            t.setflags(write=False)
            self._tensor = t.transpose(1, 2, 0)
        return self._tensor

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledDataset)
            and self.categories == other.categories
            and (self.d, self.T, self.dt_ms) == (other.d, other.T, other.dt_ms)
            and self.samples == other.samples
        )


@dataclass(frozen=True)
class NestedFamily:
    """Strictly nested dataset stages with growing category sets."""

    stages: tuple

    def __post_init__(self):
        stages = tuple(self.stages)
        object.__setattr__(self, "stages", stages)
        for a, b in zip(stages, stages[1:]):
            if not a.n_categories < b.n_categories:
                raise ConfigError("stage category counts must strictly increase")
            if b.categories[: a.n_categories] != a.categories:
                raise ConfigError("stage categories must extend the previous stage")


@dataclass(frozen=True)
class GeneratorConfig:
    d: int = setting(64, ge=1)
    T: int = setting(25, ge=1)
    categories: int = setting(20, ge=1)
    samples_per_category: int = setting(200, ge=1)
    base_rate: float = setting(0.2, gt=0.0, lt=1.0)
    separation: float = setting(0.5, ge=0.0, le=1.0)
    jitter: float = setting(0.1, ge=0.0, le=1.0)
    rng_seed: int = setting(0, ge=0)
    dt_ms: float = 1.0

    def __post_init__(self):
        check_settings(self, "generator")


def generate_family(config: GeneratorConfig, stage_sizes) -> NestedFamily:
    """Build nested synthetic datasets, one stage per requested category count.

    Each category gets a fixed per-channel rate profile (base rate shifted
    up or down by separation*base_rate with a random sign per channel);
    each sample perturbs that profile by jitter and draws independent
    Bernoulli spikes. Fully determined by config.rng_seed.
    """
    stage_sizes = list(stage_sizes)
    if not stage_sizes or not all(is_int(size) for size in stage_sizes) \
            or any(b <= a for a, b in zip(stage_sizes, stage_sizes[1:])) \
            or stage_sizes[0] < 1 or stage_sizes[-1] > config.categories:
        raise ConfigError(
            "stage sizes (generator.stages) must be strictly increasing "
            f"integers in [1, {config.categories}], got {stage_sizes}"
        )

    rng = np.random.default_rng(config.rng_seed)
    d, T = config.d, config.T
    per_category: list[list[LabeledSample]] = []
    for cat in range(stage_sizes[-1]):
        signs = rng.integers(0, 2, size=d) * 2 - 1
        profile = config.base_rate * (1.0 + signs * config.separation)
        if np.any(profile <= 0.0) or np.any(profile >= 1.0):
            raise ConfigError(
                "category rate profile left (0, 1); reduce separation or base_rate"
            )
        samples = []
        for _ in range(config.samples_per_category):
            perturbation = rng.uniform(-1.0, 1.0, size=d) * config.jitter * config.base_rate
            p = np.clip(profile + perturbation, _RATE_EPS, 1.0 - _RATE_EPS)
            spikes = (rng.random((d, T)) < p[:, None]).astype(np.uint8)
            samples.append(LabeledSample(spikes, cat))
        per_category.append(samples)

    stages = []
    for size in stage_sizes:
        samples = [s for cat in range(size) for s in per_category[cat]]
        stages.append(
            LabeledDataset(samples, list(range(size)), d, T, config.dt_ms)
        )
    return NestedFamily(tuple(stages))


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = setting(0.2, gt=0.0, lt=1.0)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self, "split")


def split_train_test(ds: LabeledDataset, test_fraction: float, seed: int):
    """Deterministic stratified split into disjoint train and test datasets."""
    SplitConfig(test_fraction, seed)  # checks both
    rng = np.random.default_rng(seed)
    by_label: dict = {c: [] for c in ds.categories}
    for idx, s in enumerate(ds.samples):
        by_label[s.label].append(idx)
    train_idx, test_idx = [], []
    for c in ds.categories:
        idxs = by_label[c]
        if len(idxs) < 2:
            raise ConfigError(
                f"category {c} has {len(idxs)} sample(s); need >= 2 to stratify"
            )
        order = rng.permutation(len(idxs))
        n_test = int(round(test_fraction * len(idxs)))
        n_test = min(max(n_test, 1), len(idxs) - 1)
        for k, o in enumerate(order):
            (test_idx if k < n_test else train_idx).append(idxs[o])
    train_idx.sort()
    test_idx.sort()
    mk = lambda idxs: LabeledDataset(
        [ds.samples[i] for i in idxs], ds.categories, ds.d, ds.T, ds.dt_ms
    )
    return mk(train_idx), mk(test_idx)


def encode_targets(ds: LabeledDataset) -> np.ndarray:
    """One-hot target table, shape (N, m), rows indexed by sample order."""
    if len(ds) == 0:
        raise ConfigError("cannot encode targets of an empty dataset")
    F = np.zeros((len(ds), ds.n_categories))
    F[np.arange(len(ds)), ds.label_indices()] = 1.0
    return F


def _header_line(d, T, dt_ms, n_samples, categories) -> str:
    return json.dumps({"format_version": FORMAT_VERSION, "d": d, "T": T,
                       "dt_ms": float(dt_ms), "n_samples": n_samples,
                       "categories": list(categories)}, sort_keys=True)


def _sample_line(label_index: int, block: np.ndarray) -> str:
    """The one serialiser of a sample line (`str` of a list of ints is JSON)."""
    channel, times = np.nonzero(block)
    ends = np.cumsum(np.bincount(channel, minlength=len(block))).tolist()
    times = times.tolist()
    spikes = [times[a:b] for a, b in zip([0] + ends, ends)]
    return f'{{"label_index": {label_index}, "spikes": {spikes}}}'


def dataset_to_text(ds: LabeledDataset) -> str:
    """Canonical serialized form; also the basis of dataset fingerprints."""
    lines = [_header_line(ds.d, ds.T, ds.dt_ms, len(ds), ds.categories)]
    lines += map(_sample_line, ds.label_indices().tolist(),
                 [s.channels for s in ds.samples])
    return "\n".join(lines) + "\n"


def dataset_fingerprint(ds: LabeledDataset) -> str:
    """sha256 of the canonical serialized form; computed once per dataset."""
    if ds._fingerprint is None:
        payload = dataset_to_text(ds).encode("utf-8")
        ds._fingerprint = hashlib.sha256(payload).hexdigest()
    return ds._fingerprint


def save_dataset(ds: LabeledDataset, path: str) -> None:
    """Write the canonical form; its sha256 becomes the dataset's fingerprint."""
    payload = dataset_to_text(ds).encode("utf-8")
    atomic_write_bytes(path, payload)
    ds._fingerprint = hashlib.sha256(payload).hexdigest()


def _parse_header(raw: bytes):
    """(d, T, dt_ms, n_samples, categories) of a canonical header line; the
    values are checked before anything is sized or indexed by them."""
    try:
        line = raw.decode("utf-8")
        header = json.loads(line)
    except (ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
        raise DataFormatError(f"malformed header at byte 0: {exc}") from None
    if not isinstance(header, dict) or header.get("format_version") != FORMAT_VERSION:
        raise DataFormatError("malformed header at byte 0: not an object of "
                              f"format_version {FORMAT_VERSION}")
    d, T, dt_ms, n_samples, categories = (
        header.get(k) for k in ("d", "T", "dt_ms", "n_samples", "categories"))
    if not (is_int(d) and is_int(T) and is_int(n_samples) and min(d, T) >= 1
            and n_samples >= 0 and isinstance(dt_ms, float) and math.isfinite(dt_ms)
            and isinstance(categories, list)
            and all(isinstance(c, str) or is_int(c) for c in categories)
            and len(set(categories)) == len(categories)):
        raise DataFormatError("malformed header at byte 0: d and T must be positive "
                              "integers, n_samples a non-negative integer, dt_ms a "
                              "finite float and categories distinct ints or strings")
    if _header_line(d, T, dt_ms, n_samples, categories) + "\n" != line:
        raise DataFormatError("header at byte 0 is not in canonical form")
    return d, T, dt_ms, n_samples, categories


def load_dataset(path: str) -> LabeledDataset:
    """Read a .ds file line by line; only the exact bytes `save_dataset`
    writes load: each sample line is parsed into its (d, T) block, which must
    serialise back to that line. The file's sha256 becomes the fingerprint."""
    with open(path, "rb") as fh:
        raw = fh.readline()
        digest = hashlib.sha256(raw)
        d, T, dt_ms, n_samples, categories = _parse_header(raw)
        pos = {c: i for i, c in enumerate(categories)}
        samples = []
        for k in range(n_samples):
            offset, raw = fh.tell(), fh.readline()
            if not raw:
                raise DataFormatError(f"truncated sample block at byte {offset}: "
                                      f"expected {n_samples} samples, found {k}")
            digest.update(raw)
            try:
                line = raw.decode("utf-8")
                rec = json.loads(line)
                label = categories[rec["label_index"]]
                block = np.zeros((d, T), dtype=np.uint8)
                block[np.repeat(np.arange(d), [len(t) for t in rec["spikes"]]),
                      np.fromiter(chain.from_iterable(rec["spikes"]), np.intp)] = 1
            except (KeyError, TypeError, ValueError, IndexError, OverflowError,
                    RecursionError, MemoryError) as exc:
                raise DataFormatError(
                    f"malformed sample record at byte {offset}: {exc}") from None
            if _sample_line(pos[label], block) + "\n" != line:
                raise DataFormatError(
                    f"sample record at byte {offset} is not in canonical form")
            samples.append(LabeledSample(block, label))
        if fh.read(1):
            raise DataFormatError(f"data after the last of {n_samples} samples at "
                                  f"byte {fh.tell() - 1}")
    ds = LabeledDataset(samples, categories, d, T, dt_ms)
    ds._fingerprint = digest.hexdigest()
    return ds
