"""Error types, and the two file guards: `reading` turns an unreadable input
file into a ValidationError, `write_atomic` replaces an output file whole or
not at all."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path
from typing import IO, Iterator


class CureError(Exception):
    """Base class for errors raised by this package."""


class ValidationError(CureError):
    """Malformed input, bad configuration, or a violated precondition."""


class NumericError(CureError):
    """Non-finite values or a diverged computation."""


@contextmanager
def reading(path: str | Path, what: str, mode: str = "r") -> Iterator[IO]:
    """Open path for reading: as UTF-8 text in mode "r", as bytes in "rb". A
    file that cannot be opened or read, or text in it (read or decoded inside
    the block) that is not UTF-8, is a ValidationError naming what it is and
    where."""
    try:
        with open(path, mode, encoding=None if "b" in mode else "utf-8") as fh:
            yield fh
    except OSError as exc:
        raise ValidationError(f"cannot read {what} {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text ({exc})") from exc


def write_atomic(path: str | Path, data: bytes) -> None:
    """Replace path with data in one step: write a temporary file beside it,
    then rename it over path, so a failed write leaves the old file whole."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
