"""Exception types shared across the toolkit.

The split matters for the CLI exit-code mapping: bad input data (files,
records, checkpoints) is distinct from numeric/runtime failures.

The file boundary lives here too: the readers that turn an unreadable or
non-UTF-8 input into a DataError naming it, and the atomic writer that
every saved vocabulary and checkpoint goes through.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterator


class LexseqError(Exception):
    """Base class for all toolkit errors."""


class DataError(LexseqError):
    """Malformed or inconsistent input data: dataset lines, vocabulary
    files, checkpoints, page manifests."""


class NumericError(LexseqError):
    """Non-finite values or numeric contract violations during
    training or inference."""


class OcrError(LexseqError):
    """External OCR command failed; carries the child process diagnostic."""


def open_input(path: str | Path, mode: str = "r", **kwargs) -> IO:
    """``open`` an input file for reading. A path that cannot be opened
    (missing, a directory, unreadable) raises a DataError naming it."""
    try:
        return open(path, mode, **kwargs)
    except FileNotFoundError:
        raise DataError(f"input path does not exist: {path}") from None
    except OSError as exc:
        raise DataError(f"cannot read input path {path}: {exc.strerror}") from None


def _not_utf8(path: str | Path, data: bytes, exc: UnicodeDecodeError) -> DataError:
    line = data.count(b"\n", 0, exc.start) + 1
    return DataError(f"{path}:{line}: not UTF-8 text (byte {exc.start}: {exc.reason})")


def utf8_lines(path: str | Path) -> Iterator[str]:
    """The lines of a UTF-8 text file, as ``open`` yields them. Bytes
    that are not UTF-8 raise a DataError naming the file and their line."""
    try:
        with open_input(path, encoding="utf-8") as fh:
            yield from fh
    except UnicodeDecodeError:
        data = Path(path).read_bytes()  # the reader's offset is chunk-relative
        try:
            data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise _not_utf8(path, data, exc) from None
        raise


def read_utf8(path: str | Path) -> tuple[bytes, str]:
    """A whole UTF-8 text file: its bytes and their strict decoding. Bytes
    that are not UTF-8 raise a DataError naming the file and their line.
    Line ends are left as they are (``str.splitlines`` splits on each)."""
    with open_input(path, "rb") as fh:
        data = fh.read()
    try:
        return data, data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _not_utf8(path, data, exc) from None


def write_atomically(path: str | Path, write: Callable[[BinaryIO], object]) -> None:
    """Write the file at ``path`` through ``write(fh)``, all or nothing.

    The bytes go to a temporary file in the target's directory, which is
    synced and then replaces the target in one step, so a write that
    fails partway leaves any existing file at ``path`` untouched and no
    temporary file behind.
    """
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            write(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)  # only left behind by a failed write


def json_lines(path: str | Path, kind: str) -> Iterator[tuple[int, object]]:
    """``(lineno, value)`` for each line of a UTF-8 JSON Lines ``kind`` file.
    A blank line, or one the parser refuses (too long an int or too deep
    included), raises a DataError naming the file and line."""
    for lineno, line in enumerate(utf8_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            raise DataError(f"{path}:{lineno}: blank line in {kind}")
        try:
            value = json.loads(stripped)
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: "
                            f"{getattr(exc, 'msg', exc)}") from None
        yield lineno, value
