"""Small shared helpers."""

import operator
import os
import stat
import sys
from contextlib import contextmanager
from dataclasses import field, fields

import numpy as np

from .errors import ConfigError, DataFormatError


def _new_temp(directory: str):
    """Create and open a fresh `.tmp-` file in `directory`, with the mode a
    new file from `open(path, "wb")` gets, 0o666 less the umask; the 0o600
    of `tempfile.mkstemp` would survive the rename."""
    for _ in range(100):
        tmp = os.path.join(directory, f".tmp-{os.urandom(6).hex()}")
        try:
            return open(tmp, "xb"), tmp
        except FileExistsError:
            continue
    raise FileExistsError(f"no free temporary name in {directory}")


@contextmanager
def atomic_writer(path: str):
    """A binary file to stream `path`'s new bytes into. It replaces `path`
    by rename when the block exits cleanly, so readers never see partial
    output; on any error the temp file is removed and `path` is untouched.
    An existing `path` keeps its mode, as it would under `open(path, "wb")`.

    An OSError names `path`, not the temp file the user never asked for.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fh, tmp = _new_temp(directory)
        with fh:
            yield fh
        try:
            os.chmod(tmp, stat.S_IMODE(os.stat(path).st_mode))
        except FileNotFoundError:
            pass
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write a whole file through `atomic_writer`."""
    with atomic_writer(path) as fh:
        fh.write(payload)


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def is_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a JSON number (not a bool) that is finite as a float."""
    return (is_int(value) or isinstance(value, float)) \
        and abs(value) <= sys.float_info.max


def as_bits(values, error, what: str) -> np.ndarray:
    """`values` as a new uint8 array (a view of a uint8 input); `error`
    naming `what` unless every value is a number equal to 0 or 1. Values
    are checked before the cast, so none is truncated or wrapped."""
    arr = np.asarray(values)
    if arr.dtype == np.uint8:
        ok = arr.max(initial=0) <= 1
    else:  # a bool array needs no check
        ok = arr.dtype == bool or (arr.dtype.kind in "iuf"
                                   and bool(np.all((arr == 0) | (arr == 1))))
    if not ok:
        raise error(f"{what} values must be 0 or 1")
    return arr.view() if arr.dtype == np.uint8 else arr.astype(np.uint8)


def check_keys(obj: dict, keys: set, what: str) -> None:
    """Raise DataFormatError naming `what` unless the JSON object `obj` has
    every key of `keys` and no other."""
    if obj.keys() != keys:
        raise DataFormatError(f"{what} keys: missing {sorted(keys - obj.keys())}, "
                              f"unknown {sorted(obj.keys() - keys)}")


# The upper bound of every size or count setting. Any product of two such
# settings times 8 bytes stays inside numpy's array-size limit, so a setting
# too large for the machine ends in MemoryError, not in a ValueError from
# deep inside numpy.
SIZE_MAX = 2**30 - 1

# Field annotation -> (value check, what the value must be).
_KINDS = {"int": (is_int, "an integer"),
          "float": (is_finite_number, "a finite number")}
_SYMBOLS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}


def setting(default, **bounds):
    """A dataclass field: a setting's default and its range (`gt=0.0`, ...)."""
    return field(default=default, metadata=bounds)


def check_settings(config, section: str) -> None:
    """Raise ConfigError naming `section.key` unless every int or float field
    of `config` holds its annotated type within its range; nothing is coerced."""
    for f in fields(config):
        # The annotation is a string under `from __future__ import annotations`.
        kind = _KINDS.get(getattr(f.type, "__name__", f.type))
        value, bounds = getattr(config, f.name), f.metadata.items()
        if kind and not (kind[0](value) and all(
                getattr(operator, op)(value, b) for op, b in bounds)):
            rule = " and".join(f" {_SYMBOLS[op]} {b}" for op, b in bounds)
            raise ConfigError(f"{section}.{f.name} must be {kind[1]}{rule}, "
                              f"got {value!r}")


class _Columns:
    """An (N, n) float64 table appended to one column at a time, written in
    place.

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
        columns = np.asarray(columns).reshape(len(self._buf), -1)
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
