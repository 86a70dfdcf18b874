"""Exception types shared across the toolkit.

The split matters for the CLI exit-code mapping: bad input data (files,
records, checkpoints) is distinct from numeric/runtime failures.

The file boundary lives here too: the readers that turn an unreadable
or non-UTF-8 input, or a JSON string that no UTF-8 output can hold, into
a DataError naming it; and ``write_atomically``, the one writer of every
output file (vocabulary, checkpoint, report JSON, matrix CSV, history,
extracted text). Its OutputError is an OSError for library callers and
a DataError (exit 2) for the CLI.
"""

from __future__ import annotations

import json
import os
import re
from contextlib import suppress
from pathlib import Path
from typing import IO, BinaryIO, Callable, Iterator


class LexseqError(Exception):
    """Base class for all toolkit errors."""


class DataError(LexseqError):
    """Malformed or inconsistent input data: dataset lines, vocabulary
    files, checkpoints, page manifests."""


class OutputError(DataError, OSError):
    """An output file could not be written. The message names the path;
    ``errno`` is the failed call's."""


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


def write_atomically(path: str | Path,
                     content: bytes | Callable[[BinaryIO], object]) -> None:
    """Write ``content`` (bytes, or a function that writes to a binary
    file) to the file at ``path``. A new path or a regular file (through
    any symlinks, which stay) is replaced in one step by a synced
    temporary file beside it, so a failed write leaves the old file and
    no temporary file; any other file type (a FIFO, ``/dev/stdout``) is
    written in place. An OSError is raised as an OutputError naming it.
    """
    write = content if callable(content) else (lambda fh: fh.write(content))
    try:
        if os.path.exists(path) and not os.path.isfile(path):
            with open(path, "wb") as fh:
                write(fh)
            return
        target = Path(path).resolve()
        tmp = target.with_name(f".lexseq-{os.urandom(8).hex()}.tmp")  # within NAME_MAX
        fh = open(tmp, "xb")
        try:
            with fh:
                write(fh)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, target)
        except BaseException:
            with suppress(OSError):
                tmp.unlink()
            raise
    except OSError as exc:
        error = OutputError(f"cannot write output {path}: {exc.strerror or exc}")
        error.errno = exc.errno
        raise error from exc


_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")


def parse_json(text: str, where: str) -> object:
    """``json.loads(text)``, refusing a string that holds an unpaired
    surrogate (an escape such as ``\\ud800``), which no UTF-8 output can
    write back: a DataError naming ``where``. Only a text that holds a
    surrogate escape has its strings checked."""
    value = json.loads(text)
    if _SURROGATE_ESCAPE.search(text):
        try:
            json.dumps(value, ensure_ascii=False).encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"{where}: unpaired surrogate "
                            f"U+{ord(exc.object[exc.start]):04X} in a string") from None
    return value


def json_lines(path: str | Path, kind: str) -> Iterator[tuple[int, object]]:
    """``(lineno, value)`` for each line of a UTF-8 JSON Lines ``kind`` file.
    A blank line, one the parser refuses (too long an int or too deep
    included) or one holding an unpaired surrogate raises a DataError
    naming the file and line."""
    for lineno, line in enumerate(utf8_lines(path), start=1):
        stripped = line.strip()
        if not stripped:
            raise DataError(f"{path}:{lineno}: blank line in {kind}")
        try:
            value = parse_json(stripped, f"{path}:{lineno}")
        except (ValueError, RecursionError) as exc:
            raise DataError(f"{path}:{lineno}: malformed JSON: "
                            f"{getattr(exc, 'msg', exc)}") from None
        yield lineno, value
