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

Samples are drawn, written and read a block of rows at a time, each by one
block function: `family_blocks` draws, `write_blocks` writes and
`DatasetReader.blocks` reads. `generate_family`, `save_dataset` and
`load_dataset` collect a whole dataset from them; `gen-data` and `eval`
stream through them, holding one block.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import stat
from contextlib import ExitStack
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice

import numpy as np

from ._util import (
    SIZE_MAX,
    as_bits,
    atomic_writer,
    check_settings,
    is_finite_number,
    is_int,
    setting,
)
from .errors import ConfigError, DataFormatError, ShapeError

FORMAT_VERSION = 1

# Sample-level Bernoulli probabilities are clamped to this open interval;
# category profiles that would leave it are rejected outright.
_RATE_EPS = 1e-9

# Sample lines are drawn, serialised, hashed and parsed this many at a time:
# the codec's temporaries, several times a block's spikes, grow with it.
_BLOCK = 128

# Samples drawn per block by generate_family, into one reused buffer of
# 8 * rows * d * (T + 1) bytes. Larger blocks were measured no faster on
# the default family and hold more memory (see CHANGES.md).
_DRAW_ROWS = 64

# Spike times of a T above this are written in groups of four digits.
_GROUP = 10**4

# A digit run longer than this is out of range: no allocatable T reaches it.
_MAX_DIGITS = 18


def _zeros(shape, dtype=np.uint8) -> np.ndarray:
    """np.zeros, with MemoryError also when numpy cannot even size the array."""
    try:
        return np.zeros(shape, dtype=dtype)
    except ValueError as exc:  # array is too big / maximum dimension exceeded
        raise MemoryError(str(exc)) from None


def _categories_ok(categories: list) -> bool:
    """True for distinct categories, each an int that is not a bool, or a
    string: the values a header line holds."""
    return (all(isinstance(c, str) or is_int(c) for c in categories)
            and len(set(categories)) == len(categories))


class LabeledDataset:
    """A dataset over an ordered category list: `spikes`, the read-only
    (N, d, T) uint8 view of a time-major (T, N, d) buffer it owns, and an
    (N,) array of category indices. The constructor copies the spikes; only
    the loader and `split_train_test`, which consumes its input, hand over
    a buffer they built, so no two datasets share a row."""

    def __init__(self, spikes, label_index, categories, dt_ms=1.0):
        spikes = as_bits(spikes, ConfigError, "spike")
        if spikes.ndim == 3:  # any other shape is named by _adopt
            spikes = spikes.transpose(2, 0, 1).copy().transpose(1, 2, 0)
        self._adopt(spikes, label_index, categories, dt_ms)

    def _adopt(self, spikes, label_index, categories, dt_ms):
        """Check the columns and take the `spikes` view as this dataset's."""
        labels = np.asarray(label_index)
        self.categories = list(categories)
        self._fingerprint = None
        # (the _LoadedFile its rows are lines of, in file order, and their
        # line numbers, or None for every line), until it has a fingerprint.
        self._lines = None
        # The loader's rules, so that every dataset saves to a file it loads.
        if not _categories_ok(self.categories):
            raise ConfigError("categories must be distinct ints (not bools) "
                              "or strings")
        if not is_finite_number(dt_ms):
            raise ConfigError(f"dt_ms must be a finite number, got {dt_ms!r}")
        self.dt_ms = float(dt_ms)
        if spikes.ndim != 3 or labels.shape != spikes.shape[:1]:
            raise ShapeError(f"spikes {spikes.shape} must be (N, d, T) with "
                             f"N the length of label_index {labels.shape}")
        _, self.d, self.T = spikes.shape
        # Checked before the cast, so no label is truncated or wrapped.
        if labels.dtype.kind not in "iuf" or not np.all(
                (labels >= 0) & (labels < self.n_categories)
                & (labels == np.trunc(labels))):
            raise ConfigError("label indices must be integers in "
                              f"[0, {self.n_categories})")
        self.spikes = spikes.view()
        self.label_index = labels.astype(np.intp, copy=False).view()
        self.spikes.setflags(write=False)
        self.label_index.setflags(write=False)

    def __len__(self) -> int:
        return len(self.spikes)

    @property
    def n_categories(self) -> int:
        return len(self.categories)

    def spike_tensor(self) -> np.ndarray:
        """`spikes`, the dataset's one copy of its spike blocks: each time
        step of a row block is a C-contiguous (rows, d) slice of the
        time-major buffer, so the LIF kernel reads any row block as a view."""
        return self.spikes

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
        # A channel's rate is base_rate * (1 +/- separation), its sign drawn.
        low, high = (self.base_rate * (1.0 + sign * self.separation)
                     for sign in (-1, 1))
        if low <= 0.0 or high >= 1.0:
            raise ConfigError("generator.base_rate * (1 -/+ generator.separation)"
                              f" must lie in (0, 1), got {low!r} and {high!r}")


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


def family_blocks(config: GeneratorConfig, categories: int):
    """The samples of the first `categories` categories of the family of
    `config`, ordered by category, as (spikes, label_index) row blocks.

    Each category gets a fixed per-channel rate profile (base rate shifted
    up or down by separation*base_rate with a random sign per channel);
    each sample perturbs that profile by jitter and draws independent
    Bernoulli spikes. Fully determined by config.rng_seed. A sample's draws
    are d uniform perturbations, then its d * T spike draws, so up to
    _DRAW_ROWS samples of a category are one (rows, d + d * T) draw into
    one reused buffer: the same doubles as one draw per sample.

    Blocks of at most _BLOCK rows share one row-major buffer, each valid
    until the next is drawn. The buffers are allocated before this returns,
    so a size too large fails before any draw.
    """
    d, T, n = config.d, config.T, config.samples_per_category
    rows = categories * n
    buf = _zeros((min(_BLOCK, rows), d, T))
    draws = _zeros((min(_DRAW_ROWS, n), d + d * T), dtype=np.float64)

    def blocks():
        rng = np.random.default_rng(config.rng_seed)
        start = 0  # the sample in buf[0]
        for cat in range(categories):
            signs = rng.integers(0, 2, size=d) * 2 - 1
            profile = config.base_rate * (1.0 + signs * config.separation)
            for a in range(cat * n, (cat + 1) * n, _DRAW_ROWS):
                b = min(a + _DRAW_ROWS, (cat + 1) * n)
                if b - start > len(buf):
                    yield buf[:a - start], np.arange(start, a) // n
                    start = a
                u = rng.random(out=draws[:b - a])
                # rng.uniform(-1, 1)'s own arithmetic on the same doubles, so
                # the datasets (and their pinned bytes) match a per-sample draw.
                perturbation = (-1.0 + 2.0 * u[:, :d]) * config.jitter * config.base_rate
                p = np.clip(profile + perturbation, _RATE_EPS, 1.0 - _RATE_EPS)
                np.less(u[:, d:].reshape(b - a, d, T), p[:, :, None],
                        out=buf[a - start:b - start].view(bool))
        yield buf[:rows - start], np.arange(start, rows) // n

    return blocks()


def generate_family(config: GeneratorConfig, stage_sizes) -> NestedFamily:
    """Build nested synthetic datasets, one stage per requested category
    count: each block `family_blocks` draws is copied into the last stage's
    time-major buffer, and each earlier stage copies its row prefix from
    that buffer."""
    stage_sizes = check_stage_sizes(stage_sizes, config.categories)
    n = config.samples_per_category
    planes = _zeros((config.T, stage_sizes[-1] * n, config.d))
    a = 0  # the first row of the block
    for spikes, _ in family_blocks(config, stage_sizes[-1]):
        planes[:, a:a + len(spikes)] = spikes.transpose(2, 0, 1)
        a += len(spikes)
    label_index = np.arange(planes.shape[1]) // n
    stages = [_owning((planes if size == stage_sizes[-1]
                       else planes[:, :size * n].copy()).transpose(1, 2, 0),
                      label_index[:size * n], range(size), config.dt_ms)
              for size in stage_sizes]
    return NestedFamily(tuple(stages))


@dataclass(frozen=True)
class SplitConfig:
    test_fraction: float = setting(0.2, gt=0.0, lt=1.0)
    seed: int = setting(0, ge=0)

    def __post_init__(self):
        check_settings(self, "split")


def _owning(spikes, label_index, categories, dt_ms) -> LabeledDataset:
    """A dataset of `spikes`, a time-major buffer's view handed over."""
    ds = LabeledDataset.__new__(LabeledDataset)
    ds._adopt(spikes, label_index, categories, dt_ms)
    return ds


def split_train_test(ds: LabeledDataset, test_fraction: float, seed: int):
    """Deterministic stratified split into disjoint train and test datasets
    in place: `ds`'s buffer is reordered, a time plane at a time, into its
    train rows, then its test rows, each in `ds` order, and train and test
    are its two views. It consumes `ds`, which is left no rows.

    When `ds` holds the lines of a file `load_dataset` read, each half keeps
    which of those lines its rows are, in file order, so that
    `dataset_fingerprint` takes its digest from the file's bytes."""
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
    order, n = np.argsort(is_test, kind="stable"), len(ds) - is_test.sum()
    planes = ds.spikes.transpose(2, 0, 1)
    planes.setflags(write=True)  # the buffer is ds's own, and ds is spent
    for plane in planes:
        plane[...] = plane[order]
    spikes, labels = planes.transpose(1, 2, 0), ds.label_index[order]
    lines, ds._lines = ds._lines, None
    ds.spikes, ds.label_index, ds._fingerprint = spikes[:0], labels[:0], None
    train, test = (_owning(spikes[rows], labels[rows], ds.categories, ds.dt_ms)
                   for rows in (slice(n), slice(n, None)))
    if lines is not None:
        file, taken = lines
        taken = order if taken is None else taken[order]
        train._lines, test._lines = (file, taken[:n]), (file, taken[n:])
    return train, test


def encode_targets(ds: LabeledDataset) -> np.ndarray:
    """One-hot target table, shape (N, m), rows indexed by sample order."""
    if len(ds) == 0:
        raise ConfigError("cannot encode targets of an empty dataset")
    F = np.zeros((len(ds), ds.n_categories))
    F[np.arange(len(ds)), ds.label_index] = 1.0
    return F


def _header_line(d, T, dt_ms, n_samples, categories) -> str:
    return json.dumps({"format_version": FORMAT_VERSION, "d": d, "T": T,
                       "dt_ms": float(dt_ms), "n_samples": n_samples,
                       "categories": list(categories)}, sort_keys=True)


@lru_cache(maxsize=4)
def _token_table(T: int) -> np.ndarray:
    """The tokens of a sample line with spike times in [0, T), T <= _GROUP,
    one W-byte item each, W a power of two, zero-padded: item t is "t" (a
    channel's first time), T "], [" (between channels), T + 1 + t ", t" and
    2T + 1 "]]}\n" (the end of a line)."""
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


@lru_cache(maxsize=1)
def _group_table() -> np.ndarray:
    """(_GROUP, 2) items of 4 bytes: [g, 0] is "g" zero-padded (a time's
    leading digit group), [g, 1] is "g" filled to four digits with "0"s (a
    later group)."""
    groups = np.arange(_GROUP).astype("S4")
    table = np.stack([groups, np.char.zfill(groups, 4)], axis=1).view(np.uint32)
    table.setflags(write=False)
    return table


def _tokens(ids: np.ndarray, T: int) -> np.ndarray:
    """The zero-padded bytes, one row per token, of the tokens numbered
    `ids` as in _token_table. Above T = _GROUP, where a table per time would
    grow with T, a token is its separator, then its time's digits written
    one 4-digit group at a time from _group_table."""
    if T <= _GROUP:
        return _token_table(T)[ids].view(np.uint8)
    kind = np.searchsorted([T, T + 1, 2 * T + 1], ids, side="right")
    gap = (kind == 1) | (kind == 3)
    times = np.where(kind == 0, ids, ids - (T + 1))
    times[gap] = 0
    n_groups = -(-len(str(T - 1)) // 4)
    out = np.empty((len(ids), 1 + n_groups), dtype=np.uint32)
    out[:, 0] = np.frombuffer(b"\0\0\0\0], [, \0\0]]}\n", np.uint32)[kind]
    for j in range(n_groups):
        scale = _GROUP ** (n_groups - 1 - j)
        out[:, 1 + j] = _group_table()[times // scale % _GROUP,
                                       (times >= scale * _GROUP).view(np.int8)]
        out[gap if scale == 1 else times < scale, 1 + j] = 0
    return out.view(np.uint8)


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
    # A copy with no cast, which reads a strided (time-major) block faster.
    grid.view(np.uint8)[:, :, :T] = spikes
    grid[:, :, T] = True
    ids = np.flatnonzero(grid) % (T + 1)
    spike = ids < T
    ids[1:] += (T + 1) * (spike[1:] & spike[:-1])
    ids[np.flatnonzero(~spike)[d - 1::d]] = 2 * T + 1
    tokens = _tokens(ids, T)
    bodies = tokens.tobytes().translate(None, b"\0").splitlines(keepends=True)
    labels = label_index.tolist()
    prefixes = {label: b'{"label_index": %d, "spikes": [[' % label
                for label in set(labels)}
    parts = [None] * (2 * k)
    parts[0::2] = [prefixes[label] for label in labels]
    parts[1::2] = bodies
    return b"".join(parts)


def _header(ds: LabeledDataset) -> tuple:
    """The header values of `ds`: (d, T, dt_ms, n_samples, categories)."""
    return ds.d, ds.T, ds.dt_ms, len(ds), ds.categories


def _row_blocks(ds: LabeledDataset):
    """The (spikes, label_index) views of each block of _BLOCK rows of `ds`."""
    for a in range(0, len(ds), _BLOCK):
        yield ds.spikes[a:a + _BLOCK], ds.label_index[a:a + _BLOCK]


def _canonical_chunks(ds: LabeledDataset):
    """The canonical bytes of `ds`: its header line, then its sample lines
    in blocks of _BLOCK."""
    yield (_header_line(*_header(ds)) + "\n").encode("ascii")
    for spikes, label_index in _row_blocks(ds):
        yield _sample_lines(spikes, label_index)


def dataset_fingerprint(ds: LabeledDataset) -> str:
    """sha256 of the canonical serialized form; computed once per dataset.

    A split of a loaded file hashes its header line and the file's lines of
    its rows, read back from the file (`_file_fingerprint`); any other
    dataset, or a split whose file changed since it was loaded, hashes its
    serialised rows block by block. Either way the digest is the same."""
    if ds._fingerprint is None:
        fingerprint = None if ds._lines is None else _file_fingerprint(ds)
        if fingerprint is None:
            digest = hashlib.sha256()
            for chunk in _canonical_chunks(ds):
                digest.update(chunk)
            fingerprint = digest.hexdigest()
        ds._fingerprint, ds._lines = fingerprint, None
    return ds._fingerprint


@dataclass(frozen=True)
class _LoadedFile:
    """A regular file `load_dataset` read: its absolute path, the sha256 of
    its bytes, and `ends`, the (N + 1,) offsets at which its header line and
    each of its N verified sample lines end."""

    path: str
    sha256: str
    ends: np.ndarray


def _file_fingerprint(ds: LabeledDataset):
    """The fingerprint of `ds`, whose rows are the sample lines `rows` of a
    loaded file in file order (`ds._lines`): its canonical form is its own
    header line, then those lines. The file is read back a block of _BLOCK
    lines at a time, and each block is hashed whole as well as in the runs
    of `ds`'s lines; None, for the serialiser to decide, unless the whole
    file is the bytes that hashed to its sha256 at load, and so the lines
    are the ones the loader verified."""
    file, rows = ds._lines
    ends = file.ends
    take = np.zeros(len(ends) - 1, dtype=np.int8)
    take[rows] = 1
    digest = hashlib.sha256((_header_line(*_header(ds)) + "\n").encode("ascii"))
    try:
        # O_NONBLOCK: a path replaced by a FIFO must not block the open.
        fd = os.open(file.path, os.O_RDONLY | getattr(os, "O_NONBLOCK", 0))
        with open(fd, "rb") as fh:
            if not stat.S_ISREG(os.fstat(fd).st_mode):
                return None
            whole = hashlib.sha256(fh.read(int(ends[0])))
            for a in range(0, len(take), _BLOCK):
                at = ends[a:a + _BLOCK + 1] - ends[a]  # the block's lines
                data = fh.read(int(at[-1]))
                whole.update(data)
                edge = np.diff(take[a:a + _BLOCK], prepend=0, append=0)
                lines = memoryview(data)
                for start, stop in zip(np.flatnonzero(edge > 0),
                                       np.flatnonzero(edge < 0)):
                    digest.update(lines[at[start]:at[stop]])
            if fh.read(1) or whole.hexdigest() != file.sha256:
                return None
    except OSError:  # the file is gone or unreadable
        return None
    return digest.hexdigest()


def write_blocks(paths, headers, blocks) -> list:
    """Write .ds files from row blocks; returns each file's sha256 digest.

    `headers` holds each file's (d, T, dt_ms, n_samples, categories), and
    `blocks` yields (spikes, label_index) blocks of the largest file's rows
    in order, of which every other file holds a prefix. Each block is
    serialised once and written to every file whose rows cover it (the
    file whose last row falls inside the block takes the lines up to it).
    Each file streams to a temp file, hashed as the bytes go out, renamed
    into place at the end; on any error no file is replaced.
    """
    with ExitStack() as stack:
        files = [stack.enter_context(atomic_writer(p)) for p in paths]
        digests = [hashlib.sha256() for _ in paths]

        def write(i, data):
            files[i].write(data)
            digests[i].update(data)

        for i, header in enumerate(headers):
            write(i, (_header_line(*header) + "\n").encode("ascii"))
        a = 0  # the first row of the block
        for spikes, label_index in blocks:
            lines = _sample_lines(spikes, label_index)
            for i, header in enumerate(headers):
                rows = header[3] - a
                if rows >= len(spikes):
                    write(i, lines)
                elif rows > 0:  # this file's last row falls in the block
                    ends = np.flatnonzero(np.frombuffer(lines, np.uint8) == 10)
                    write(i, memoryview(lines)[:ends[rows - 1] + 1])
            a += len(spikes)
    return [digest.hexdigest() for digest in digests]


def save_dataset(ds: LabeledDataset, path) -> None:
    """Write the canonical form of `ds` to `path` with `write_blocks`, a
    block of _BLOCK rows at a time; its sha256, taken as the bytes go out,
    becomes the fingerprint. Several files of row prefixes of one dataset
    are written together by `write_blocks` itself."""
    [ds._fingerprint] = write_blocks([path], [_header(ds)], _row_blocks(ds))
    ds._lines = None


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
            and isinstance(categories, list) and _categories_ok(categories)):
        raise DataFormatError("malformed header at byte 0: d and T must be positive "
                              "integers, n_samples a non-negative integer, dt_ms a "
                              "finite float and categories distinct ints or strings")
    if _header_line(d, T, dt_ms, n_samples, categories) + "\n" != line:
        raise DataFormatError("header at byte 0 is not in canonical form")
    return d, T, dt_ms, n_samples, categories


def _parse_lines(buf: bytes, stops: np.ndarray, spikes: np.ndarray,
                 label_index: np.ndarray, m: int) -> np.ndarray:
    """Scatter the lines of `buf`, ending at `stops`, into the rows of
    `spikes` (k, d, T), all zero and of any layout, and `label_index` (k,).

    Each run of digits is a number: the first of a line is its label index,
    each later one a spike time. A time's channel is read off the bytes
    between it and the number before it. A canonical line puts ", " (2
    bytes) between two times of a channel, "], [" (4 bytes) for each
    channel end crossed, and ', "spikes": [[' (14 bytes) after the label,
    so the channel is the line's running sum of gap // 4, less 3. Returns a
    flag per line that has no number, or a number or channel out of range;
    only the numbers in range are written, each inside its own line's row.
    A canonical line parses to the row it was written from; any other line
    to a row whose canonical line differs from it.

    Every temporary holds one item per run of digits, int32 wherever the
    block's positions and spike offsets fit (always, short of lines of a
    billion spikes), and each is reused or dropped as soon as it is read.
    """
    k, d, T = spikes.shape
    row, step, tick = spikes.strides
    span = (k - 1) * row + (d - 1) * step + (T - 1) * tick + 1 if k else 0
    # The "\n" ends every run; a byte that is not a digit wraps around to a
    # "digit" of 10 or more.
    digits = np.frombuffer(buf + b"\n", np.uint8) - 48
    big = max(len(digits), span) > np.iinfo(np.int32).max
    pos = np.intp if big else np.int32
    edge = np.diff((digits < 10).view(np.int8), prepend=np.int8(0))
    starts = np.flatnonzero(edge > 0).astype(pos)
    gap = np.flatnonzero(edge < 0).astype(pos)  # the runs' ends, for now
    del edge
    width = gap - starts
    gap[1:] = starts[1:] - gap[:-1]
    gap[:1] = 0
    # A line's runs are those from the first at or after its start up to
    # the next line's first; that first run is its label.
    first = np.searchsorted(starts, np.concatenate([[0], stops])[:-1])
    count = np.diff(first, append=len(starts))
    labelled = count > 0
    first = first[labelled]
    line = np.repeat(np.arange(k, dtype=pos), count)
    channel = np.cumsum(gap >> 2, out=gap)
    channel -= np.repeat(channel[first] + 3, count[labelled])
    # A number wider than the widest in range is out of range (or has a
    # leading zero); only the first `widest` digits are read.
    widest = min(len(str(max(T, m) - 1)), _MAX_DIGITS)
    value = digits[starts].astype(np.int64 if widest > 9 else pos)
    for j in range(1, min(width.max(initial=0), widest)):
        more = np.flatnonzero(width > j)
        value[more] = 10 * value[more] + digits[starts[more] + j]
    del digits, starts
    bad = (width > widest) | (value >= T) | (channel < 0) | (channel >= d)
    bad[first] = (width[first] > widest) | (value[first] >= m)
    flagged = ~labelled
    flagged[line[bad]] = True
    label = first[~bad[first]]
    label_index[line[label]] = value[label]
    bad[first] = True  # a label is not a spike
    at = channel  # the offset of each spike in the block's memory
    at *= step
    at += line * row
    at += value * tick
    np.lib.stride_tricks.as_strided(spikes, (span,), (1,)).put(at[~bad], 1)
    return flagged


class DatasetReader:
    """A .ds file open for reading: the header line is read and checked on
    construction, before any sample line, into `d`, `T`, `dt_ms`,
    `n_samples` and `categories`; `blocks` reads the samples."""

    def __init__(self, fh):
        raw = fh.readline()
        self.d, self.T, self.dt_ms, self.n_samples, self.categories = \
            _parse_header(raw)
        self._fh, self._offset = fh, 0
        self._verified(raw, (len(raw),))
        self._offset = len(raw)

    def _verified(self, buf: bytes, stops) -> None:
        """Called with each run of lines read and verified, `buf`, read at
        byte `_offset`, whose lines end at the offsets `stops` within it:
        the header line, then each parsed block. The reader keeps nothing."""

    def arrays(self, rows: int):
        """A zero (the parser writes only 1s) uint8 (rows, d, T) view of a
        time-major buffer and a (rows,) label array; DataFormatError naming
        the header when they cannot be allocated."""
        try:
            return (_zeros((self.T, rows, self.d)).transpose(1, 2, 0),
                    _zeros(rows, dtype=np.intp))
        except MemoryError as exc:
            raise DataFormatError(
                f"header at byte 0: {self.n_samples} samples of ({self.d}, "
                f"{self.T}) spikes cannot be allocated: {exc}") from None

    def blocks(self, rows: int, spikes=None, label_index=None):
        """Yield the samples as (spikes, label_index) blocks of `rows` rows.

        Given `arrays(n_samples)`, each block is read into its own rows of
        them. Otherwise the blocks share one buffer of at most `rows` rows,
        each valid until the next is drawn, and the header's count is never
        allocated. A file with fewer samples than its header claims, or
        more, raises when its end is reached.
        """
        reuse = spikes is None
        if reuse:
            spikes, label_index = self.arrays(min(rows, self.n_samples))
        for row in range(0, self.n_samples, rows):
            at = 0 if reuse else row
            k = min(rows, self.n_samples - row)
            block = spikes[at:at + k], label_index[at:at + k]
            if reuse:
                block[0][...] = 0
            # Parsed _BLOCK lines at a time, whatever the block's size.
            for a in range(0, k, _BLOCK):
                self._read(row + a, block[0][a:a + _BLOCK],
                           block[1][a:a + _BLOCK])
            yield block
        if self._fh.read(1):
            raise DataFormatError(f"data after the last of {self.n_samples} "
                                  f"samples at byte {self._offset}")

    def _read(self, row: int, spikes: np.ndarray, label_index: np.ndarray):
        """Parse the next len(spikes) lines, those of samples `row` onwards,
        into `spikes` (k, d, T), all zero, and `label_index` (k,); they must
        serialise back to exactly the bytes read. A bad line is named by its
        byte offset, the first in file order."""
        want = len(spikes)
        lines = list(islice(self._fh, want))
        buf = b"".join(lines)
        stops = np.cumsum([len(line) for line in lines], dtype=np.intp)
        del lines  # buf holds the same bytes
        k = len(stops)
        flagged = _parse_lines(buf, stops, spikes[:k], label_index[:k],
                               len(self.categories))
        canonical = _sample_lines(spikes[:k], label_index[:k])
        if canonical != buf or flagged.any():
            _reject_line(buf, canonical, stops, flagged, self._offset)
        self._verified(buf, stops)
        self._offset += len(buf)
        if k < want:
            raise DataFormatError(f"truncated sample block at byte "
                                  f"{self._offset}: expected "
                                  f"{self.n_samples} samples, found {row + k}")


class _Loader(DatasetReader):
    """A `DatasetReader` that hashes the bytes it verifies and, reading a
    regular file, keeps the offset at which each verified line ends."""

    def __init__(self, fh):
        self.sha256 = hashlib.sha256()
        self.ends = [] if stat.S_ISREG(os.fstat(fh.fileno()).st_mode) else None
        super().__init__(fh)

    def _verified(self, buf, stops):
        self.sha256.update(buf)
        if self.ends is not None:
            self.ends.append(np.add(stops, self._offset))


def load_dataset(path: str) -> LabeledDataset:
    """Read a .ds file straight into the time-major buffer its header sizes,
    which the dataset then owns: only the exact bytes `save_dataset` writes
    load. The sha256 of the bytes read becomes the fingerprint. Of a regular
    file, the dataset also keeps each line's end offset (N integers), which
    `split_train_test` hands on to its halves."""
    with open(path, "rb") as fh:
        reader = _Loader(fh)
        spikes, label_index = reader.arrays(reader.n_samples)
        for _ in reader.blocks(_BLOCK, spikes, label_index):
            pass
    ds = _owning(spikes, label_index, reader.categories, reader.dt_ms)
    ds._fingerprint = reader.sha256.hexdigest()
    if reader.ends is not None:
        ds._lines = (_LoadedFile(os.path.abspath(path), ds._fingerprint,
                                 np.concatenate(reader.ends)), None)
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
