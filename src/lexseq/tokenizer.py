"""Text -> token -> id pipeline with a frequency-capped vocabulary.

Token ids 0 and 1 are reserved (PAD and OOV); real tokens get
contiguous ids starting at 2, ordered by descending training-stream
frequency with ties broken by first occurrence.

Tokens are maximal runs of letters and digits (``isalnum()``); ``.``,
``/`` and ``-`` stay inside a token when the characters on both sides
are decimal digits (``isdecimal()``). ``_TOKEN`` is that definition.

Lowercasing is the vocabulary's (``Vocabulary.lowercase``, kept in its
file), and ``encode`` takes the window ``max_len`` from its caller,
which reads it from the model (``ModelDims.max_len``).
"""

from __future__ import annotations

import hashlib
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from operator import ge, itemgetter
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .errors import DataError, utf8_lines

PAD_ID = 0
OOV_ID = 1

# [^\W_] is isalnum() and \d is isdecimal(). The punctuation bridge keeps
# citation numbers like 8.112/90 as single tokens.
_TOKEN = re.compile(r"[^\W_]+(?:(?<=\d)[./-](?=\d)[^\W_]+)*")
# Equal to str.isspace on every code point.
_SPACE = re.compile(r"\s")

_VOCAB_MAGIC = "#vocab v1"


def tokenize(text: str, lowercase: bool = True) -> list[str]:
    """Split text into tokens: maximal runs of letters and digits.

    The text is NFC-normalized first, then lowercased unless
    ``lowercase`` is false.
    ``.``, ``/`` and ``-`` stay inside a token only when the adjacent
    characters are both decimal digits; every other character separates
    tokens.
    """
    text = unicodedata.normalize("NFC", text)
    if lowercase:
        text = text.lower()
    return _TOKEN.findall(text)


@dataclass(frozen=True)
class Vocabulary:
    """Frequency-ranked token table. Entry k has id k + 2. ``lowercase``
    is how its texts were tokenized, and how text is tokenized for it."""

    entries: tuple[tuple[str, int], ...]
    cap: int
    lowercase: bool = True
    _index: dict = field(init=False, repr=False, compare=False)
    _digest: str | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.entries) > self.cap:
            raise ValueError("vocabulary exceeds its cap")
        # Whole-table checks that make no object per entry (zip(*entries)
        # would make an iterator each, and wake the garbage collector); the
        # faulty entry is looked for only when a check fails.
        tokens = list(map(itemgetter(0), self.entries))
        freqs = list(map(itemgetter(1), self.entries))
        index = dict(zip(tokens, range(2, len(tokens) + 2)))
        if not (len(index) == len(tokens) and all(tokens)
                and not _SPACE.search("".join(tokens))
                and all(map(ge, freqs, islice(freqs, 1, None)))):
            _raise_first_fault(self.entries)
        object.__setattr__(self, "_index", index)

    def __len__(self) -> int:
        return len(self.entries)

    def id_of(self, token: str) -> int:
        """Token id, or OOV_ID for tokens outside the vocabulary."""
        return self._index.get(token, OOV_ID)

    @property
    def id_count(self) -> int:
        """Total id space including PAD and OOV."""
        return len(self.entries) + 2

    def digest(self) -> str:
        """SHA-256 over the canonical file rendering; checkpoints pin this.
        Computed on the first call and kept: the table is immutable."""
        if self._digest is None:
            object.__setattr__(self, "_digest",
                               hashlib.sha256(_render(self).encode("utf-8")).hexdigest())
        return self._digest


def _raise_first_fault(entries: tuple[tuple[str, int], ...]) -> None:
    """Name the first entry that breaks a table rule, in entry order."""
    seen = set()
    prev_freq = None
    for token, freq in entries:
        if not token:
            raise ValueError("empty token in vocabulary")
        if any(ch.isspace() for ch in token):
            raise ValueError(f"token {token!r} contains whitespace")
        if token in seen:
            raise ValueError(f"duplicate token {token!r} in vocabulary")
        if prev_freq is not None and freq > prev_freq:
            raise ValueError("vocabulary frequencies must be non-increasing")
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
    same way, through a slower keyed heap).
    """
    if cap < 1:
        raise ValueError("cap must be >= 1")
    counts = Counter(token_stream)
    if not counts:
        raise DataError("cannot build a vocabulary from an empty token stream")
    ranked = sorted(counts.items(), key=itemgetter(1), reverse=True)
    return Vocabulary(entries=tuple(ranked[:cap]), cap=cap, lowercase=lowercase)


@dataclass(frozen=True)
class EncodedSequence:
    """Fixed-capacity id vector; positions beyond ``length`` are PAD."""

    ids: np.ndarray
    length: int

    def __post_init__(self):
        if not 0 <= self.length <= self.ids.shape[0]:
            raise ValueError("length out of range for the id buffer")
        if not np.all(self.ids[:self.length] >= 1):
            raise ValueError("PAD id inside the non-PAD prefix")
        if not np.all(self.ids[self.length:] == PAD_ID):
            raise ValueError("non-PAD id in the padded tail")


def encode(tokens: list[str], vocab: Vocabulary, max_len: int) -> EncodedSequence:
    """Map tokens to ids, truncate to the ``max_len`` window, post-pad."""
    kept = tokens[:max_len]
    ids = np.zeros(max_len, dtype=np.int64)
    ids[:len(kept)] = [vocab.id_of(t) for t in kept]
    return EncodedSequence(ids=ids, length=len(kept))


def encode_text(text: str, vocab: Vocabulary, max_len: int) -> EncodedSequence:
    return encode(tokenize(text, vocab.lowercase), vocab, max_len)


def _render(vocab: Vocabulary) -> str:
    # A lowercase vocabulary has no key, so its bytes and digest predate it.
    casing = "" if vocab.lowercase else " lowercase=false"
    lines = [f"{_VOCAB_MAGIC} size={len(vocab.entries)} cap={vocab.cap}{casing}"]
    for pos, (token, freq) in enumerate(vocab.entries):
        lines.append(f"{token}\t{pos + 2}\t{freq}")
    return "\n".join(lines) + "\n"


def save_vocabulary(vocab: Vocabulary, path: str | Path) -> None:
    Path(path).write_text(_render(vocab), encoding="utf-8")


def load_vocabulary(path: str | Path) -> Vocabulary:
    """Parse a vocabulary file; load(save(v)) == v including ids."""
    lines = "".join(utf8_lines(path)).splitlines()
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

    entries: list[tuple[str, int]] = []
    seen: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 3:
            raise DataError(f"{path}:{lineno}: expected token<TAB>id<TAB>frequency")
        token, id_str, freq_str = parts
        try:
            token_id = int(id_str)
            freq = int(freq_str)
        except ValueError:
            raise DataError(f"{path}:{lineno}: non-integer id or frequency") from None
        if token in seen:
            raise DataError(f"{path}:{lineno}: duplicate token {token!r}")
        seen.add(token)
        expected = len(entries) + 2
        if token_id != expected:
            raise DataError(
                f"{path}:{lineno}: non-contiguous id {token_id} (expected {expected})"
            )
        entries.append((token, freq))
    if len(entries) != size:
        raise DataError(
            f"{path}: header declares size={size} but file has {len(entries)} rows"
        )
    if not entries:
        raise DataError(f"{path}: vocabulary has no tokens")
    try:
        return Vocabulary(entries=tuple(entries), cap=cap,
                          lowercase="lowercase" not in fields)
    except ValueError as exc:
        raise DataError(f"{path}: {exc}") from None


def iter_tokens(texts: Iterable[str], lowercase: bool = True) -> Iterator[str]:
    """Flat token stream over many texts, for vocabulary building."""
    return chain.from_iterable(map(tokenize, texts, repeat(lowercase)))
