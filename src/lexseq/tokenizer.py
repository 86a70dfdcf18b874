"""Text -> token -> id pipeline with a frequency-capped vocabulary.

Token ids 0 and 1 are reserved (PAD and OOV); real tokens get
contiguous ids starting at 2, ordered by descending training-stream
frequency with ties broken by first occurrence.

Tokens are maximal runs of letters and digits (``isalnum()``); ``.``,
``/`` and ``-`` stay inside a token when the characters on both sides
are decimal digits (``isdecimal()``). ``_TOKEN`` is that definition.
``tokenize`` finds it a whitespace-separated part at a time and keeps a
part that is all letters and digits as it is, with no regex (see its
docstring).

Lowercasing is the vocabulary's (``Vocabulary.lowercase``, kept in its
file), and ``encode`` takes the window ``max_len`` from its caller,
which reads it from the model (``ModelDims.max_len``).

A vocabulary holds its table as two columns, ``tokens`` and ``freqs``,
with no object per entry; ``entries`` pairs them up on demand. A table
from outside input (the constructor, ``load_vocabulary``) is checked
against every table rule and gets its token -> id dict at once, since
the duplicate check builds it. ``build_vocabulary`` checks only what
its stream can break, each token a non-empty string with no
whitespace (its ``Counter`` keeps the rest), and makes the dict on the
table's first ``id_of`` or ``encode``.

A vocabulary's digest is the SHA-256 of its canonical file (what
``save_vocabulary`` writes). ``load_vocabulary`` parses the rows a
column at a time and, when the file's bytes are that canonical file,
keeps the SHA-256 of the bytes it read; any other accepted form (CRLF
or ``\r`` line ends, ``+3`` ids, ``007`` frequencies, no final newline)
is rendered on the first ``digest()``, as a built vocabulary is.
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, count, islice, repeat
from operator import eq, ge, itemgetter
from pathlib import Path
from typing import Iterable, Iterator, NoReturn, Sequence

import numpy as np

from .errors import DataError, read_utf8, write_atomically

PAD_ID = 0
OOV_ID = 1

# [^\W_] is isalnum() and \d is isdecimal(). The punctuation bridge keeps
# citation numbers like 8.112/90 as single tokens.
_TOKEN = re.compile(r"[^\W_]+(?:(?<=\d)[./-](?=\d)[^\W_]+)*")

_VOCAB_MAGIC = "#vocab v1"

# Rows per chunk of the canonical file as digest() hashes it and
# save_vocabulary writes it: tens of KB of text at a time.
RENDER_ROWS = 4096


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split text into tokens: maximal runs of letters and digits.

    The text is NFC-normalized first, then lowercased unless
    ``lowercase`` is false.
    ``.``, ``/`` and ``-`` stay inside a token only when the adjacent
    characters are both decimal digits; every other character separates
    tokens.

    The list is ``_TOKEN.findall`` of that text. It is found a
    whitespace-separated part at a time, in order: whitespace is in no
    token and bridges none, and the bridge's lookarounds fail at a
    part's edge as they fail on whitespace. A part that ``isalnum()`` is
    one maximal run, so it is its own token; every other part goes
    through ``_TOKEN.findall``.
    """
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    tokens: list[str] = []
    keep = tokens.append
    for part in text.split():
        if part.isalnum():
            keep(part)
        else:
            tokens += _TOKEN.findall(part)
    return tokens


@dataclass(frozen=True, init=False)
class Vocabulary:
    """Frequency-ranked token table, held as two columns: ``tokens[k]``
    has id k + 2 and training-stream frequency ``freqs[k]``. ``lowercase``
    is how its texts were tokenized, and how text is tokenized for it.

    Build it from ``(token, frequency)`` pairs (``entries``), which runs
    every check and makes the token -> id dict. The dict is not part of
    ``==``, ``hash`` or ``repr``.
    """

    tokens: tuple[str, ...]
    freqs: tuple[int, ...]
    cap: int
    lowercase: bool = True
    _index: dict[str, int] | None = field(default=None, init=False, repr=False,
                                          compare=False)
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __init__(self, entries: Iterable[tuple[str, int]], *, cap: int,
                 lowercase: bool = True):
        entries = tuple(entries)
        # a pass per column; zip(*entries) would make an iterator per entry
        tokens = tuple(map(itemgetter(0), entries))
        freqs = tuple(map(itemgetter(1), entries))
        self._set(tokens, freqs, cap, lowercase, _checked_index(tokens, freqs, cap))

    @classmethod
    def _trusted(cls, tokens: Iterable[str], freqs: Iterable[int], cap: int,
                 lowercase: bool, index: dict[str, int] | None = None) -> Vocabulary:
        """A table whose checks the caller ran. With no ``index`` the
        token -> id dict is made on the first lookup."""
        vocab = object.__new__(cls)
        vocab._set(tuple(tokens), tuple(freqs), cap, lowercase, index)
        return vocab

    def _set(self, tokens: tuple[str, ...], freqs: tuple[int, ...], cap: int,
             lowercase: bool, index: dict[str, int] | None) -> None:
        for name, value in (("tokens", tokens), ("freqs", freqs), ("cap", cap),
                            ("lowercase", lowercase), ("_index", index),
                            ("_digest", None)):
            object.__setattr__(self, name, value)

    @property
    def entries(self) -> tuple[tuple[str, int], ...]:
        """The table as ``(token, frequency)`` pairs, in id order."""
        return tuple(zip(self.tokens, self.freqs))

    def __len__(self) -> int:
        return len(self.tokens)

    def id_of(self, token: str) -> int:
        """Token id, or OOV_ID for tokens outside the vocabulary."""
        return self._ids().get(token, OOV_ID)

    def _ids(self) -> dict[str, int]:
        """The token -> id dict, made on the first call and kept."""
        if self._index is None:
            object.__setattr__(self, "_index", dict(zip(self.tokens, count(2))))
        return self._index

    @property
    def id_count(self) -> int:
        """Total id space including PAD and OOV."""
        return len(self.tokens) + 2

    def digest(self) -> str:
        """SHA-256 of the canonical file, the bytes ``save_vocabulary``
        writes; checkpoints pin this. The file is hashed a chunk of rows at
        a time, never held whole. Computed on the first call and kept: the
        table is immutable. ``load_vocabulary`` keeps the hash of a
        canonical file's bytes."""
        if self._digest is None:
            sha = hashlib.sha256()
            for chunk in _render_chunks(self):
                sha.update(chunk)
            object.__setattr__(self, "_digest", sha.hexdigest())
        return self._digest


def _checked_index(tokens: tuple[str, ...], freqs: tuple[int, ...], cap: int,
                   index: dict[str, int] | None = None) -> dict[str, int]:
    """The token -> id dict of a table from outside input, once the table
    keeps every rule: no more entries than ``cap``, then each token a
    non-empty string with no whitespace and no token twice, frequencies
    non-increasing. ``index`` is the dict when the caller made it."""
    if len(tokens) > cap:
        raise ValueError("vocabulary exceeds its cap")
    if index is None:
        index = dict(zip(tokens, count(2)))
    # Whole-column checks that make no object per entry; the faulty
    # entry is looked for only when a check fails.
    if not (len(index) == len(tokens) and _plain(tokens)
            and all(map(ge, freqs, islice(freqs, 1, None)))):
        _raise_first_fault(tokens, freqs)
    return index


def _plain(tokens: Sequence[str]) -> bool:
    """Whether every token is non-empty and holds no whitespace. Raises
    TypeError for a token that is not a string but is true."""
    if not all(tokens):
        return False
    # str.split() splits at exactly the code points where str.isspace()
    # holds, so it leaves a text with none as its one part
    text = "".join(tokens)
    return not text or text.split() == [text]


class _EntryFault(ValueError):
    """A table rule broken by the entry at index ``entry``."""

    def __init__(self, message: str, entry: int):
        super().__init__(message)
        self.entry = entry


def _raise_first_fault(tokens: tuple[str, ...], freqs: tuple[int, ...]) -> None:
    """Raise the _EntryFault of the first entry that breaks a table rule,
    in entry order."""
    seen = set()
    prev_freq = None
    for entry, (token, freq) in enumerate(zip(tokens, freqs)):
        if not token:
            raise _EntryFault("empty token in vocabulary", entry)
        if any(ch.isspace() for ch in token):
            raise _EntryFault(f"token {token!r} contains whitespace", entry)
        if token in seen:
            raise _EntryFault(f"duplicate token {token!r} in vocabulary", entry)
        if prev_freq is not None and freq > prev_freq:
            raise _EntryFault("vocabulary frequencies must be non-increasing", entry)
        prev_freq = freq
        seen.add(token)


def build_vocabulary(token_stream: Iterable[str], cap: int = 100_000,
                     lowercase: bool = True) -> Vocabulary:
    """Count the stream and keep the ``cap`` most frequent tokens.
    ``lowercase`` records how the stream was tokenized.

    Ties are broken by first occurrence in the stream; kept order
    defines the id assignment. The stream is consumed once.
    A ``Counter`` iterates in first-occurrence order and the sort is
    stable, so equal counts keep that order (``most_common`` ranks the
    same way, through a slower keyed heap). The sort ranks the tokens
    themselves, with no pair object per distinct token.

    The ``Counter`` makes the tokens unique and the ranking makes the
    frequencies non-increasing and keeps the cap, so the table is checked
    only for what the stream can break: each token a non-empty string
    with no whitespace, with the message the constructor gives. The
    token -> id dict is made on the table's first lookup.
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    counts = Counter(token_stream)
    if not counts:
        raise DataError("cannot build a vocabulary from an empty token stream")
    tokens = sorted(counts, key=counts.__getitem__, reverse=True)
    del tokens[cap:]
    freqs = list(map(counts.__getitem__, tokens))
    del counts  # before the columns are copied: the build peaks in the Counter
    if not _plain(tokens):
        _raise_first_fault(tokens, freqs)
    return Vocabulary._trusted(tokens, freqs, cap, lowercase)


@dataclass(frozen=True)
class EncodedSequence:
    """A document's token ids: the first ``length`` are its tokens, and
    any after them are PAD. :func:`encode` gives exactly ``length`` ids."""

    ids: np.ndarray
    length: int

    def __post_init__(self):
        if not (isinstance(self.ids, np.ndarray) and self.ids.ndim == 1
                and self.ids.dtype.kind in "iu"):
            raise ValueError("ids must be a 1-D integer array")
        if not 0 <= self.length <= self.ids.shape[0]:
            raise ValueError("length out of range for the id buffer")
        if not np.all(self.ids[:self.length] >= 1):
            raise ValueError("PAD id inside the non-PAD prefix")
        if not np.all(self.ids[self.length:] == PAD_ID):
            raise ValueError("non-PAD id in the padded tail")


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> EncodedSequence:
    """Map tokens to ids, truncated to the ``max_len`` window; the ids are
    as long as the document's kept tokens, with no padding."""
    kept = tokens[:max_len]
    ids = np.fromiter(map(vocab._ids().get, kept, repeat(OOV_ID)), np.int64, len(kept))
    return EncodedSequence(ids=ids, length=len(kept))


def encode_text(text: str, vocab: Vocabulary, max_len: int) -> EncodedSequence:
    return encode(tokenize(text, vocab.lowercase), vocab, max_len)


def _header(size: int, cap: int, lowercase: bool) -> str:
    # A lowercase vocabulary has no key, so its bytes and digest predate it.
    casing = "" if lowercase else " lowercase=false"
    return f"{_VOCAB_MAGIC} size={size} cap={cap}{casing}"


def _render_chunks(vocab: Vocabulary) -> Iterator[bytes]:
    """The canonical file of ``vocab`` as UTF-8 chunks: the header line,
    then ``RENDER_ROWS`` rows at a time."""
    yield (_header(len(vocab), vocab.cap, vocab.lowercase) + "\n").encode("utf-8")
    for lo in range(0, len(vocab), RENDER_ROWS):
        hi = lo + RENDER_ROWS
        yield "".join([f"{token}\t{id_}\t{freq}\n" for token, id_, freq in
                       zip(vocab.tokens[lo:hi], range(lo + 2, hi + 2), vocab.freqs[lo:hi])]
                      ).encode("utf-8")


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    """Write ``vocab``'s canonical file through ``errors.write_atomically``,
    a chunk of rows at a time; its SHA-256 is ``vocab.digest()``."""

    def write(fh):
        for chunk in _render_chunks(vocab):
            fh.write(chunk)

    write_atomically(path, write)


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Parse a vocabulary file; load(save(v)) == v including ids.

    The rows are parsed as whole columns. When a column check fails,
    ``_raise_first_bad_row`` walks the rows to name the first bad one.
    A file whose bytes are the ones ``save_vocabulary`` writes for its
    table keeps their SHA-256 as the digest.
    """
    data, text = read_utf8(path)
    lines = text.splitlines()
    if not lines or not lines[0].startswith("#vocab "):
        raise DataError(f"{path}: not a vocabulary file")
    header = lines[0]
    if not header.startswith(_VOCAB_MAGIC + " "):
        raise DataError(f"{path}: unsupported vocabulary version: {header!r}")
    fields = dict(part.partition("=")[::2] for part in header[len(_VOCAB_MAGIC):].split())
    try:
        size = int(fields.pop("size"))
        cap = int(fields.pop("cap"))
    except (KeyError, ValueError):
        raise DataError(f"{path}: malformed vocabulary header: {header!r}") from None
    if fields not in ({}, {"lowercase": "false"}):  # the key of a case-preserving one
        raise DataError(f"{path}: malformed vocabulary header: {header!r}")
    lowercase = "lowercase" not in fields

    n = len(lines) - 1
    plain_ends = text == "\n".join(lines) + "\n"  # "\n" ends every line
    if list(map(str.count, islice(lines, 1, None), repeat("\t"))).count(2) != n:
        _raise_first_bad_row(path, text)
    # Each stage's strings are dropped once the next stage is made, so
    # that at most the rows or their cells are alive at a time.
    cells = "\t".join(islice(lines, 1, None))
    del lines
    cells = cells.split("\t") if n else []
    tokens, id_strs, freq_strs = cells[0::3], cells[1::3], cells[2::3]
    del cells
    try:
        # ids as save_vocabulary writes them are compared as strings; int()
        # also reads a sign, spaces, leading zeros, "_" and non-ASCII digits
        canonical_ids = all(map(eq, id_strs, map(str, count(2))))
        if not (canonical_ids or all(map(eq, map(int, id_strs), count(2)))):
            _raise_first_bad_row(path, text)
        del id_strs
        freqs = list(map(int, freq_strs))
    except ValueError:
        _raise_first_bad_row(path, text)
    canonical = (canonical_ids and plain_ends and header == _header(n, cap, lowercase)
                 and all(map(eq, freq_strs, map(str, freqs))))
    del freq_strs
    # The token strings sat between the number strings just freed; made
    # again after the old ones are freed too, they are packed together.
    # (Left as they were, the holes slowed later work: build_vocabulary
    # by about 10%.)
    tokens = "\n".join(tokens)
    tokens = tokens.split("\n") if n else []
    index = dict(zip(tokens, count(2)))  # the table's, and its duplicate check
    if len(index) != n:
        _raise_first_bad_row(path, text)
    if n != size:
        raise DataError(f"{path}: header declares size={size} but file has {n} rows")
    if not n:
        raise DataError(f"{path}: vocabulary has no tokens")
    try:
        index = _checked_index(tokens, freqs, cap, index)
    except _EntryFault as exc:  # entry k is on line k + 2
        raise DataError(f"{path}:{exc.entry + 2}: {exc}") from None
    except ValueError as exc:  # the cap
        raise DataError(f"{path}: {exc}") from None
    vocab = Vocabulary._trusted(tokens, freqs, cap, lowercase, index)
    if canonical:  # these bytes are _render_chunks(vocab)'s, so their hash is the digest
        object.__setattr__(vocab, "_digest", hashlib.sha256(data).hexdigest())
    return vocab


def _raise_first_bad_row(path: str | Path, text: str) -> NoReturn:
    """Raise the DataError of the first row of a vocabulary file's text
    that breaks a row rule, in file order: three tab-separated fields,
    integer id and frequency, no token twice, ids contiguous from 2."""
    seen: set[str] = set()
    for lineno, line in enumerate(text.splitlines()[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected token<TAB>id<TAB>frequency")
        token, id_str, freq_str = parts
        try:
            token_id = int(id_str)
            int(freq_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id or frequency") from None
        if token in seen:
            raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        if token_id != lineno:  # row k is on line k + 2 and has id k + 2
            raise DataError(
                f"{path}:{lineno}: non-contiguous id {token_id} (expected {lineno})"
            )
    raise AssertionError("the column checks refused rows that every row rule accepts")


def iter_tokens(texts: Iterable[str], lowercase: bool = True) -> Iterator[str]:
    """Flat token stream over many texts, for vocabulary building."""
    return chain.from_iterable(map(tokenize, texts, repeat(lowercase)))
