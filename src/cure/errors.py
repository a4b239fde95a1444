"""Error types, and the file guards: `reading` and `writing` turn an input or
output path that cannot be used into a ValidationError, `write_atomic`
replaces an output file whole or not at all, streaming its bytes."""

from __future__ import annotations

import os
from contextlib import contextmanager, suppress
from pathlib import Path
from typing import IO, Iterable, Iterator


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
    except OSError as exc:  # strerror, not str(exc), which names path again
        raise ValidationError(f"cannot read {what} {path}: {exc.strerror or exc}") from exc
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{what} {path} is not UTF-8 text ({exc})") from exc


@contextmanager
def writing(path: str | Path) -> Iterator[None]:
    """An OSError inside the block (a missing directory, a directory where a
    file belongs, a file where a directory belongs) is a ValidationError
    naming path, and no other file (a temporary one, say)."""
    try:
        yield
    except OSError as exc:  # strerror, not str(exc), which names the file the call failed on
        raise ValidationError(f"cannot write {path}: {exc.strerror or exc}") from exc


def write_atomic(path: str | Path, chunks: Iterable[bytes]) -> None:
    """Replace path, in one step, with the concatenated chunks (bytes, or
    any object with a byte buffer): write each chunk to a temporary file
    beside path as it is produced, so that only one chunk at a time need be
    in memory, then rename the file over path. A failed write, or an error
    raised while a chunk is produced, leaves the old file whole and no
    temporary behind."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    with writing(path):
        try:
            with open(tmp, "wb") as fh:
                fh.writelines(chunks)
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):  # never created, or nothing more to do
                tmp.unlink()
            raise
