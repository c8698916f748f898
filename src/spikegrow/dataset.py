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
from functools import lru_cache
from itertools import islice

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

# Sample lines are serialised, hashed and verified this many at a time, so
# the codec's temporaries are bounded by one block, not by the file.
_BLOCK = 256

# A digit run longer than this is out of range: no allocatable T reaches it.
_MAX_DIGITS = 18


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


@lru_cache(maxsize=4)
def _token_table(T: int) -> np.ndarray:
    """The tokens of a sample line with spike times in [0, T), one W-byte
    item each, W a power of two, zero-padded: item t is "t" (a channel's
    first time), T "], [" (between channels), T + 1 + t ", t" and 2T + 1
    "]]}\n" (the end of a line)."""
    digits = len(str(T - 1))
    width = 1 << (digits + 1).bit_length()  # >= digits + 2 and >= 4
    times = np.arange(T).astype(f"S{digits}").view(np.uint8).reshape(T, digits)
    words = np.zeros((2 * T + 2, width), dtype=np.uint8)
    words[:T, :digits] = times
    words[T + 1:2 * T + 1, :2] = np.frombuffer(b", ", np.uint8)
    words[T + 1:2 * T + 1, 2:digits + 2] = times
    words[[T, 2 * T + 1], :4] = np.frombuffer(b"], []]}\n", np.uint8).reshape(2, 4)
    words.setflags(write=False)  # one cached table serves every caller
    return words.view(f"V{width}").ravel()


def _sample_lines(spikes: np.ndarray, label_index: np.ndarray) -> bytes:
    """The canonical lines of a block of samples, `spikes` (k, d, T) and
    `label_index` (k,): each is {"label_index": L, "spikes": S}, S being
    `str` of the list of each channel's ascending spike times.

    In a (k, d, T + 1) grid whose last column marks channel ends, every
    nonzero cell is one token; a spike is first in its channel exactly when
    the token before it is a channel end.
    """
    k, d, T = spikes.shape
    if k == 0:
        return b""
    grid = np.empty((k, d, T + 1), dtype=bool)
    grid[:, :, :T] = spikes
    grid[:, :, T] = True
    ids = np.flatnonzero(grid) % (T + 1)
    spike = ids < T
    ids[1:] += (T + 1) * (spike[1:] & spike[:-1])
    ids[np.flatnonzero(~spike)[d - 1::d]] = 2 * T + 1
    tokens = _token_table(T)[ids].view(np.uint8)
    bodies = tokens[tokens != 0].tobytes().splitlines(keepends=True)
    labels = label_index.tolist()
    prefixes = {label: b'{"label_index": %d, "spikes": [[' % label
                for label in set(labels)}
    parts = [None] * (2 * k)
    parts[0::2] = [prefixes[label] for label in labels]
    parts[1::2] = bodies
    return b"".join(parts)


def _canonical_chunks(ds: LabeledDataset):
    """The canonical bytes of `ds`: its header line, then its sample lines
    in blocks of _BLOCK."""
    yield (_header_line(ds.d, ds.T, ds.dt_ms, len(ds), ds.categories)
           + "\n").encode("ascii")
    for a in range(0, len(ds), _BLOCK):
        yield _sample_lines(ds.spikes[a:a + _BLOCK], ds.label_index[a:a + _BLOCK])


def dataset_to_text(ds: LabeledDataset) -> str:
    """Canonical serialized form; also the basis of dataset fingerprints."""
    return b"".join(_canonical_chunks(ds)).decode("ascii")


def dataset_fingerprint(ds: LabeledDataset) -> str:
    """sha256 of the canonical serialized form, hashed block by block;
    computed once per dataset."""
    if ds._fingerprint is None:
        digest = hashlib.sha256()
        for chunk in _canonical_chunks(ds):
            digest.update(chunk)
        ds._fingerprint = digest.hexdigest()
    return ds._fingerprint


def save_dataset(ds: LabeledDataset, path: str) -> None:
    """Write the canonical form; its sha256 becomes the dataset's fingerprint."""
    payload = b"".join(_canonical_chunks(ds))
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


def _parse_lines(buf: bytes, stops: np.ndarray, spikes: np.ndarray,
                 label_index: np.ndarray, m: int) -> np.ndarray:
    """Scatter the lines of `buf`, ending at `stops`, into the rows of
    `spikes` (k, d, T) and `label_index` (k,).

    Each run of digits is a number: the first of a line is its label index,
    each later one a spike time in the channel that the count of "]" before
    it on the line names. Returns a flag per line that has no number, or a
    number out of range. A canonical line parses to the row it was written
    from; any other line to a row whose canonical line differs from it.
    """
    k, d, T = spikes.shape
    text = np.frombuffer(buf + b"\n", np.uint8)  # the "\n" ends every run
    digits = text - 48  # wraps around for every byte that is not a digit
    edges = np.flatnonzero(np.diff(digits < 10, prepend=False))
    starts, width = edges[0::2], edges[1::2] - edges[0::2]

    def preceding(marks):
        """How many of the sorted byte positions `marks` lie at or before
        each run's start."""
        at = np.searchsorted(starts, marks)
        return np.bincount(at, minlength=len(starts) + 1).cumsum()[:-1]

    line = preceding(stops)
    closes = np.flatnonzero(text == ord("]"))
    line_starts = np.concatenate([[0], stops[:-1]])
    channel = preceding(closes) - np.searchsorted(closes, line_starts)[line]
    value = np.zeros(len(starts), dtype=np.int64)
    for j in range(min(width.max(initial=0), _MAX_DIGITS)):
        digit = digits.take(starts + j, mode="clip")
        value = np.where(width > j, 10 * value + digit, value)
    first = np.ones(len(starts), dtype=bool)
    first[1:] = line[1:] != line[:-1]
    bad = (width > _MAX_DIGITS) | np.where(first, value >= m,
                                           (value >= T) | (channel >= d))
    flagged = np.ones(k, dtype=bool)
    flagged[line[first]] = False
    flagged[line[bad]] = True
    label = first & ~bad
    label_index[line[label]] = value[label]
    spike = ~first & ~bad
    spikes[line[spike], channel[spike], value[spike]] = 1
    return flagged


def load_dataset(path: str) -> LabeledDataset:
    """Read a .ds file in blocks of _BLOCK lines; only the exact bytes
    `save_dataset` writes load: each block is parsed into its rows of the
    spike array, which must serialise back to the block's bytes. A bad
    line is named by its byte offset, the first in file order. The file's
    sha256 becomes the fingerprint."""
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
        offset = len(raw)
        for row in range(0, n_samples, _BLOCK):
            want = min(_BLOCK, n_samples - row)
            lines = list(islice(fh, want))
            buf = b"".join(lines)
            digest.update(buf)
            rows = slice(row, row + len(lines))
            stops = np.cumsum([len(line) for line in lines], dtype=np.intp)
            flagged = _parse_lines(buf, stops, spikes[rows], label_index[rows],
                                   len(categories))
            canonical = _sample_lines(spikes[rows], label_index[rows])
            if canonical != buf or flagged.any():
                _reject_line(buf, canonical, stops, flagged, offset)
            offset += len(buf)
            if len(lines) < want:
                raise DataFormatError(f"truncated sample block at byte {offset}: "
                                      f"expected {n_samples} samples, found "
                                      f"{row + len(lines)}")
        if fh.read(1):
            raise DataFormatError(f"data after the last of {n_samples} samples at "
                                  f"byte {offset}")
    ds = LabeledDataset(spikes, label_index, categories, dt_ms)
    ds._fingerprint = digest.hexdigest()
    return ds


def _reject_line(buf: bytes, canonical: bytes, stops: np.ndarray,
                 flagged: np.ndarray, offset: int):
    """Raise DataFormatError for the first bad line of a block read at
    `offset`: the first flagged line, or the line holding the first byte in
    which `buf` and its canonical form differ, whichever comes first."""
    n = min(len(buf), len(canonical))
    differ = np.flatnonzero(np.frombuffer(buf, np.uint8, n)
                            != np.frombuffer(canonical, np.uint8, n))
    at = differ[0] if len(differ) else n
    line = min(int(np.searchsorted(stops, at, side="right")), len(stops) - 1)
    first_flagged = int(np.argmax(flagged)) if flagged.any() else len(stops)
    start = offset + int(np.concatenate([[0], stops])[min(line, first_flagged)])
    if first_flagged <= line:
        raise DataFormatError(
            f"malformed sample record at byte {start}: it lacks a label index, "
            f"or a label index, channel or spike time is out of range")
    raise DataFormatError(f"sample record at byte {start} is not in canonical form")
