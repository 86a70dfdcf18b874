"""Dataset ingestion, label management and deterministic splitting.

Datasets are UTF-8 JSON Lines files, one object per line with fields
``id`` (string), ``text`` (string) and optionally ``label`` (string).
Labels files are plain UTF-8, one label per line, order significant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError, json_lines, read_utf8
from .rng import SplitMix64

# Default 6-class label order used by the reference configuration.
DEFAULT_LABELS = ("ARE", "Acórdão", "Despacho", "Outro", "RE", "Sentença")

DEFAULT_RATIOS = (0.7, 0.2, 0.1)


@dataclass(frozen=True)
class LabelSet:
    """Ordered set of distinct class labels; position defines the class index."""

    labels: tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 2:
            raise ValueError("a label set needs at least 2 labels")
        if not all(isinstance(lab, str) and lab for lab in self.labels):
            raise ValueError("labels must be non-empty strings")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("duplicate labels in label set")

    @property
    def size(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise DataError(f"unknown label {label!r}") from None

    @classmethod
    def from_file(cls, path: str | Path) -> "LabelSet":
        lines = read_utf8(path)[1].splitlines()
        try:
            return cls(tuple(line.strip() for line in lines if line.strip()))
        except ValueError as exc:
            raise DataError(f"labels file {path}: {exc}") from None


@dataclass(frozen=True)
class Document:
    """One brief: raw text plus optional gold class index."""

    id: str
    text: str
    label: int | None = None

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")


@dataclass(frozen=True)
class SplitDataset:
    train: tuple[Document, ...]
    validation: tuple[Document, ...]
    test: tuple[Document, ...]


def load_dataset(path: str | Path, labels: LabelSet | None) -> list[Document]:
    """Read a JSON Lines dataset, resolving label strings to class indices.

    With ``labels=None`` any label strings in the file are ignored and
    documents come back unlabeled (useful for vocabulary building and
    prediction inputs).
    """
    docs: list[Document] = []
    seen: set[str] = set()
    for lineno, raw in json_lines(path, "dataset"):
        if not isinstance(raw, dict):
            raise DataError(f"{path}:{lineno}: line is not a JSON object")
        doc_id = raw.get("id")
        text = raw.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            raise DataError(f"{path}:{lineno}: missing or empty 'id'")
        if not isinstance(text, str):
            raise DataError(f"{path}:{lineno}: missing 'text'")
        if doc_id in seen:
            raise DataError(f"{path}:{lineno}: duplicate id {doc_id!r}")
        seen.add(doc_id)
        label: int | None = None
        if labels is not None and raw.get("label") is not None:
            raw_label = raw["label"]
            if not isinstance(raw_label, str):
                raise DataError(f"{path}:{lineno}: 'label' must be a string")
            label = labels.index_of(raw_label)
        docs.append(Document(id=doc_id, text=text, label=label))
    return docs


def check_ratios(ratios: tuple[float, ...]) -> None:
    """Refuse split ratios that are not three non-negative fractions
    summing to 1. The test is ``not r >= 0`` so that NaN fails it."""
    if len(ratios) != 3 or any(not r >= 0 for r in ratios):
        raise ValueError("ratios must be three non-negative fractions")
    if abs(sum(ratios) - 1.0) > 1e-9:
        raise ValueError(f"ratios must sum to 1, got {sum(ratios)}")


def stratified_split(
    docs: list[Document],
    ratios: tuple[float, float, float] = DEFAULT_RATIOS,
    seed: int = 0,
) -> SplitDataset:
    """Per-class seeded shuffle, then floor/floor/remainder assignment.

    Within each class the documents are ordered by id, permuted by a
    Fisher-Yates shuffle on a splitmix64 stream seeded with ``seed``,
    and assigned floor(n*r_train) to train, floor(n*r_val) to
    validation, remainder to test. Classes are processed in ascending
    index order on a single generator stream, so membership is a pure
    function of (ids, labels, ratios, seed).
    """
    if not docs:
        raise DataError("cannot split an empty dataset")
    check_ratios(ratios)
    for doc in docs:
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled; cannot stratify")

    by_class: dict[int, list[Document]] = {}
    for doc in docs:
        by_class.setdefault(doc.label, []).append(doc)

    rng = SplitMix64(seed)
    train: list[Document] = []
    validation: list[Document] = []
    test: list[Document] = []
    for cls in sorted(by_class):
        members = sorted(by_class[cls], key=lambda d: d.id)
        rng.shuffle(members)
        n = len(members)
        n_train = math.floor(n * ratios[0])
        n_val = math.floor(n * ratios[1])
        train.extend(members[:n_train])
        validation.extend(members[n_train:n_train + n_val])
        test.extend(members[n_train + n_val:])

    return SplitDataset(tuple(train), tuple(validation), tuple(test))

