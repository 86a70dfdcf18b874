"""The evaluation report is a confusion matrix and its labels.

Rows of the matrix are true classes, columns are predicted classes.
Accuracy, per-class precision/recall/F1 and their macro and
support-weighted averages are computed from the matrix when read, so a
report cannot disagree with its counts. Any 0/0 ratio (empty column,
empty row, P+R = 0) is 0, so aggregates stay defined for absent classes.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import write_atomically

_FIGURES = ("precision", "recall", "f1")


def _ratio(num: np.ndarray, den: np.ndarray) -> np.ndarray:
    """num / den elementwise, 0 where den is 0."""
    return np.divide(num, den, out=np.zeros_like(num), where=den != 0)


def f1_score(
    precision: float | np.ndarray, recall: float | np.ndarray
) -> float | np.ndarray:
    """Harmonic mean, 0 where both inputs are 0; elementwise on arrays."""
    f1 = _ratio(2.0 * precision * recall, precision + recall)
    return f1 if f1.ndim else float(f1)


def aggregate(
    per_class: tuple[np.ndarray, np.ndarray, np.ndarray],
    supports: np.ndarray,
    mode: str,
) -> tuple[float, float, float]:
    """Average (precision, recall, f1) columns, unweighted or by support."""
    columns = [np.asarray(v, dtype=np.float64) for v in per_class]
    supports = np.asarray(supports)
    if supports.shape != columns[0].shape:
        raise ValueError("supports length must equal the class count")
    if mode == "macro":
        return tuple(float(v.mean()) for v in columns)
    if mode == "weighted":
        total = float(supports.sum())
        if total <= 0:
            raise ValueError("weighted aggregation requires positive total support")
        w = supports / total
        return tuple(float(np.dot(v, w)) for v in columns)
    raise ValueError(f"unknown aggregation mode {mode!r}")


@dataclass(frozen=True)
class EvaluationReport:
    counts: np.ndarray  # (C, C) int64, rows are true classes
    labels: tuple[str, ...]

    def __post_init__(self):
        classes = len(self.labels)
        if self.counts.shape != (classes, classes):
            raise ValueError(f"confusion matrix of shape {self.counts.shape} must be "
                             f"square with one row per label ({classes} labels)")
        if np.any(self.counts < 0):
            raise ValueError("confusion matrix entries must be non-negative")

    def __eq__(self, other) -> bool:  # the generated one compares arrays in a tuple
        if not isinstance(other, EvaluationReport):
            return NotImplemented
        return self.labels == other.labels and np.array_equal(self.counts, other.counts)

    @property
    def accuracy(self) -> float:
        total = int(self.counts.sum())
        return float(np.trace(self.counts)) / total if total else 0.0

    @property
    def weighted(self) -> tuple[float, float, float]:
        """Support-weighted (precision, recall, f1); zeros with no pairs."""
        return self._weighted(self.per_class())

    def _weighted(self, per_class) -> tuple[float, float, float]:
        supports = self.counts.sum(axis=1)
        if supports.sum() == 0:
            return (0.0, 0.0, 0.0)
        return aggregate(per_class, supports, "weighted")

    def per_class(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(precision, recall, f1) arrays over classes."""
        counts = self.counts.astype(np.float64)
        precision = _ratio(np.diag(counts), counts.sum(axis=0))
        recall = _ratio(np.diag(counts), counts.sum(axis=1))
        return precision, recall, f1_score(precision, recall)

    def to_dict(self) -> dict:
        per_class = self.per_class()
        supports = self.counts.sum(axis=1)
        return {
            "total": int(self.counts.sum()),
            "accuracy": self.accuracy,
            "labels": list(self.labels),
            "matrix": self.counts.tolist(),
            "per_class": [
                {"label": label, "precision": float(p), "recall": float(r),
                 "f1": float(f), "support": int(s)}
                for label, p, r, f, s in zip(self.labels, *per_class, supports)
            ],
            "macro": dict(zip(_FIGURES, aggregate(per_class, supports, "macro"))),
            "weighted": dict(zip(_FIGURES, self._weighted(per_class))),
        }

    def save_json(self, path: str | Path) -> None:
        text = json.dumps(self.to_dict(), ensure_ascii=False, indent=2, sort_keys=True)
        write_atomically(path, (text + "\n").encode())

    def matrix_csv(self) -> str:
        """CSV rendering: header row of predicted labels, one row per true
        label; a label holding a comma or a quote is quoted."""
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["", *self.labels])
        for label, row in zip(self.labels, self.counts.tolist()):
            writer.writerow([label, *row])
        return out.getvalue()

    def save_matrix_csv(self, path: str | Path) -> None:
        write_atomically(path, self.matrix_csv().encode())


def evaluation_report(
    pairs: Sequence[tuple[int, int]], labels: tuple[str, ...]
) -> EvaluationReport:
    """Count (true, predicted) class-index pairs into a report over ``labels``."""
    classes = len(labels)
    counts = np.zeros((classes, classes), dtype=np.int64)
    for true_cls, pred_cls in pairs:
        if not (0 <= true_cls < classes and 0 <= pred_cls < classes):
            raise ValueError(f"pair ({true_cls}, {pred_cls}) out of range for "
                             f"{classes} classes")
        counts[true_cls, pred_cls] += 1
    return EvaluationReport(counts, labels)
