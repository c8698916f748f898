"""Small shared helpers."""

import operator
import os
import sys
import tempfile
from dataclasses import field, fields

from .errors import ConfigError


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write a file via temp-file + rename so readers never see partial output.

    An OSError names `path`, not the temp file the user never asked for.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException as exc:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, path) from None
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def is_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)


def is_finite_number(value) -> bool:
    """True for a JSON number (not a bool) that is finite as a float."""
    return (is_int(value) or isinstance(value, float)) \
        and abs(value) <= sys.float_info.max


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
