"""Small shared helpers."""

import os
import tempfile


def atomic_write_bytes(path: str, payload: bytes) -> None:
    """Write a file via temp-file + rename so readers never see partial output."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path: str, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def is_int(value) -> bool:
    """True for a JSON integer; bools are ints in Python but not here."""
    return isinstance(value, int) and not isinstance(value, bool)
