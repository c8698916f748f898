"""Spike-train datasets: synthetic generator, nesting, splitting, serialization.

A dataset holds N labeled samples as two columns: an (N, d, T) array of
binary spike blocks and an (N,) array of category indices. The synthetic
generator draws one per-channel Bernoulli rate profile per category and
realizes independent spike rasters around it, so class information lives in
the per-channel firing statistics. Families of datasets are nested: every
earlier stage is a prefix of the rows of every later stage.

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

from ._util import (
    SIZE_MAX,
    atomic_write_bytes,
    check_settings,
    is_int,
    setting,
)
from .errors import ConfigError, DataFormatError, ShapeError

FORMAT_VERSION = 1

# Sample-level Bernoulli probabilities are clamped to this open interval;
# category profiles that would leave it are rejected outright.
_RATE_EPS = 1e-9


def _zeros(shape, dtype=np.uint8) -> np.ndarray:
    """np.zeros, with MemoryError also when numpy cannot even size the array."""
    try:
        return np.zeros(shape, dtype=dtype)
    except ValueError as exc:  # array is too big / maximum dimension exceeded
        raise MemoryError(str(exc)) from None


class LabeledDataset:
    """An immutable dataset over an ordered category list: an (N, d, T) uint8
    array of spike blocks and an (N,) array of indices into the categories."""

    def __init__(self, spikes, label_index, categories, dt_ms=1.0):
        self.spikes = np.asarray(spikes, dtype=np.uint8).view()
        self.label_index = np.asarray(label_index, dtype=np.intp).view()
        self.spikes.setflags(write=False)
        self.label_index.setflags(write=False)
        self.categories = list(categories)
        self.dt_ms = float(dt_ms)
        self._tensor = None
        self._fingerprint = None
        if len(set(self.categories)) != len(self.categories):
            raise ConfigError("categories must be distinct")
        if self.spikes.ndim != 3 or self.label_index.shape != self.spikes.shape[:1]:
            raise ShapeError(f"spikes {self.spikes.shape} must be (N, d, T) with "
                             f"N the length of label_index {self.label_index.shape}")
        _, self.d, self.T = self.spikes.shape
        if np.any((self.label_index < 0) | (self.label_index >= self.n_categories)):
            raise ConfigError(f"label indices must lie in [0, {self.n_categories})")

    def __len__(self) -> int:
        return len(self.spikes)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def label_indices(self) -> np.ndarray:
        """Per-sample index into the ordered category list (read-only)."""
        return self.label_index

    def spike_tensor(self) -> np.ndarray:
        """The spike blocks as a read-only (N, d, T) float array; cached.

        The array is a view of a time-major (T, N, d) buffer, so that
        `transpose(2, 0, 1)` of it, the layout the LIF kernel steps
        through, is C-contiguous and needs no copy.
        """
        if self._tensor is None:
            t = np.ascontiguousarray(self.spikes.transpose(2, 0, 1),
                                     dtype=np.float64)
            t.setflags(write=False)
            self._tensor = t.transpose(1, 2, 0)
        return self._tensor

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, LabeledDataset)
            and self.categories == other.categories
            and self.dt_ms == other.dt_ms
            and np.array_equal(self.spikes, other.spikes)
            and np.array_equal(self.label_index, other.label_index)
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
    d: int = setting(64, ge=1, le=SIZE_MAX)
    T: int = setting(25, ge=1, le=SIZE_MAX)
    categories: int = setting(20, ge=1, le=SIZE_MAX)
    samples_per_category: int = setting(200, ge=1, le=SIZE_MAX)
    base_rate: float = setting(0.2, gt=0.0, lt=1.0)
    separation: float = setting(0.5, ge=0.0, le=1.0)
    jitter: float = setting(0.1, ge=0.0, le=1.0)
    rng_seed: int = setting(0, ge=0)
    dt_ms: float = 1.0

    def __post_init__(self):
        check_settings(self, "generator")


def check_stage_sizes(stage_sizes, categories: int) -> list:
    """The stage sizes as a list; ConfigError naming generator.stages unless
    they are strictly increasing integers in [1, categories]."""
    stage_sizes = list(stage_sizes)
    if not stage_sizes or not all(is_int(size) for size in stage_sizes) \
            or any(b <= a for a, b in zip(stage_sizes, stage_sizes[1:])) \
            or stage_sizes[0] < 1 or stage_sizes[-1] > categories:
        raise ConfigError(
            "stage sizes (generator.stages) must be strictly increasing "
            f"integers in [1, {categories}], got {stage_sizes}"
        )
    return stage_sizes


def generate_family(config: GeneratorConfig, stage_sizes) -> NestedFamily:
    """Build nested synthetic datasets, one stage per requested category count.

    Each category gets a fixed per-channel rate profile (base rate shifted
    up or down by separation*base_rate with a random sign per channel);
    each sample perturbs that profile by jitter and draws independent
    Bernoulli spikes. Fully determined by config.rng_seed.
    """
    stage_sizes = check_stage_sizes(stage_sizes, config.categories)
    rng = np.random.default_rng(config.rng_seed)
    d, T, n = config.d, config.T, config.samples_per_category
    # Samples are ordered by category, so each stage is a prefix of the last.
    spikes = _zeros((stage_sizes[-1] * n, d, T))
    for cat in range(stage_sizes[-1]):
        signs = rng.integers(0, 2, size=d) * 2 - 1
        profile = config.base_rate * (1.0 + signs * config.separation)
        if np.any(profile <= 0.0) or np.any(profile >= 1.0):
            raise ConfigError(
                "category rate profile left (0, 1); reduce separation or base_rate"
            )
        for k in range(cat * n, (cat + 1) * n):
            perturbation = rng.uniform(-1.0, 1.0, size=d) * config.jitter * config.base_rate
            p = np.clip(profile + perturbation, _RATE_EPS, 1.0 - _RATE_EPS)
            spikes[k] = rng.random((d, T)) < p[:, None]
    label_index = np.repeat(np.arange(stage_sizes[-1]), n)
    stages = [LabeledDataset(spikes[:size * n], label_index[:size * n],
                             range(size), config.dt_ms) for size in stage_sizes]
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
    is_test = np.zeros(len(ds), dtype=bool)
    for i, c in enumerate(ds.categories):
        idxs = np.flatnonzero(ds.label_index == i)
        if len(idxs) < 2:
            raise ConfigError(
                f"category {c} has {len(idxs)} sample(s); need >= 2 to stratify"
            )
        n_test = int(round(test_fraction * len(idxs)))
        n_test = min(max(n_test, 1), len(idxs) - 1)
        is_test[rng.permutation(idxs)[:n_test]] = True
    mk = lambda rows: LabeledDataset(ds.spikes[rows], ds.label_index[rows],
                                     ds.categories, ds.dt_ms)
    return mk(~is_test), mk(is_test)


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
    lines += map(_sample_line, ds.label_index.tolist(), ds.spikes)
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
