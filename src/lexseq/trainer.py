"""Mini-batch training with Adam, deterministic shuffling, epoch-level
validation, and bit-exact checkpointing.

Checkpoint layout: magic ``BLSTM1\\0``, one UTF-8 JSON header line
(dims, label order, vocabulary digest, activation, optimizer, format
version), then raw little-endian float32 tensors, row-major, in
canonical parameter order, followed by the optional Adam first- and
second-moment accumulators in that same order.

Loading streams: the header line is read and checked first, the
payload's size is checked against the file's, and then each tensor is
read straight into its view of a freshly allocated buffer (the
Fortran-ordered W and U through one small C-ordered scratch array).
Peak memory is the buffers themselves, with no copy of the file.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Document, LabelSet, SplitDataset
from .errors import DataError, NumericError, open_input, parse_json, write_atomically
from .metrics import EvaluationReport, evaluation_report
from .nn import (
    ACTIVATIONS,
    ADAM_BLOCK,
    BiLstmClassifier,
    Gradients,
    ModelDims,
    ParamBuffer,
    backward,
    forward,
    loss,
    param_size,
)
from .rng import SplitMix64
from .tokenizer import EncodedSequence, Vocabulary, encode_text

CHECKPOINT_MAGIC = b"BLSTM1\x00"
CHECKPOINT_FORMAT = 1

# Documents per lockstep forward call, and per backward call in training.
# A training group's trace holds 2 * (4 + 2) * hidden floats per token, and
# BPTT writes its dz over the trace's gates; 16 documents of 1000 tokens at
# reference dims peak at 193 MiB under tracemalloc, the gradient buffer
# included. Inference keeps no trace, so its
# memory grows with the rows per step instead: 16 rows hold its step
# temporaries to a few MB (see CHANGES.md).
GROUP_DOCS = 16

# Adam's decay rates and denominator guard (Keras' values).
BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-7


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.001
    seed: int = 0
    checkpoint_path: str | None = None
    clip_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0 < self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and positive")
        if self.clip_norm is not None and not 0 < self.clip_norm < math.inf:
            raise ValueError("clip_norm must be finite and positive when set")


@dataclass
class AdamState:
    """Adam's first and second moments, in the parameter layout."""

    m: ParamBuffer
    v: ParamBuffer
    t: int = 0

    @classmethod
    def zeros_like(cls, model: BiLstmClassifier) -> "AdamState":
        return cls(m=ParamBuffer.zeros_like(model), v=ParamBuffer.zeros_like(model))


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float | None
    val_accuracy: float | None
    seconds: float


@dataclass
class TrainHistory:
    epochs: list[EpochRecord] = field(default_factory=list)

    def to_list(self) -> list[dict]:
        return [vars(e).copy() for e in self.epochs]

    def save_json(self, path: str | Path) -> None:
        write_atomically(path, (json.dumps(self.to_list(), indent=2) + "\n").encode())


def adam_update(
    model: BiLstmClassifier,
    grads: Gradients,
    state: AdamState,
    config: TrainConfig,
) -> tuple[BiLstmClassifier, AdamState]:
    """One bias-corrected Adam step, applied in place to every parameter.

    Walks the flat parameter, gradient, m and v buffers in blocks of
    ADAM_BLOCK elements through two block-sized scratch buffers, with
    ``out=`` ufuncs in the operation order of
    ``param -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``. Every element
    goes through the operations of that expression, so the result is
    bit-identical to it. A non-finite gradient raises a NumericError
    naming its tensor; the blocks before it have been updated.
    """
    state.t += 1
    bc1 = 1.0 - BETA1 ** state.t
    bc2 = 1.0 - BETA2 ** state.t
    flats = (model.params.flat, grads.flat, state.m.flat, state.v.flat)
    step = np.empty(ADAM_BLOCK, grads.flat.dtype)
    denom = np.empty_like(step)
    for lo in range(0, grads.flat.size, ADAM_BLOCK):
        param, grad, m, v = (a[lo:lo + ADAM_BLOCK] for a in flats)
        s, d = step[:grad.size], denom[:grad.size]
        finite = np.isfinite(grad)
        if not finite.all():
            name = grads.name_at(lo + int(np.argmin(finite)))
            raise NumericError(f"non-finite gradient for tensor {name}")
        m *= BETA1
        m += np.multiply(1.0 - BETA1, grad, out=s)
        v *= BETA2
        np.multiply(grad, grad, out=d)
        v += np.multiply(1.0 - BETA2, d, out=d)
        np.divide(m, bc1, out=s)
        np.multiply(config.learning_rate, s, out=s)
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += EPSILON
        s /= d
        param -= s
    return model, state


def encode_document(doc: Document, vocab: Vocabulary, max_len: int) -> EncodedSequence:
    """Encode one document; one with no tokens is a DataError naming it."""
    seq = encode_text(doc.text, vocab, max_len)
    if seq.length == 0:
        raise DataError(f"document {doc.id!r}: empty sequence (no tokens)")
    return seq


def _encode_labeled(
    docs: Sequence[Document],
    vocab: Vocabulary,
    max_len: int,
) -> tuple[list[EncodedSequence], list[int], list[str]]:
    sequences, targets = [], []
    for doc in docs:
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled")
        sequences.append(encode_document(doc, vocab, max_len))
        targets.append(doc.label)
    return sequences, targets, [doc.id for doc in docs]


def _mean_loss_accuracy(
    model: BiLstmClassifier,
    sequences: list[EncodedSequence],
    targets: list[int],
    doc_ids: list[str],
) -> tuple[float, float]:
    probs_list = map_forward(model, sequences, doc_ids)
    total_loss = 0.0
    correct = 0
    for probs, target in zip(probs_list, targets):
        total_loss += loss(probs, target)
        if int(np.argmax(probs)) == target:
            correct += 1
    n = len(sequences)
    return total_loss / n, correct / n


def _length_groups(indices: Sequence[int],
                  sequences: Sequence[EncodedSequence]) -> list[list[int]]:
    """``indices`` sorted by sequence length, longest first (ties keep
    their order), cut into lockstep groups of at most GROUP_DOCS."""
    ranked = sorted(indices, key=lambda k: -sequences[k].length)
    return [ranked[i:i + GROUP_DOCS] for i in range(0, len(ranked), GROUP_DOCS)]


def map_forward(
    model: BiLstmClassifier,
    sequences: list[EncodedSequence],
    doc_ids: Sequence[str] | None = None,
) -> list[np.ndarray]:
    """Probabilities per sequence, in input order, from forward passes
    that keep no trace. Sequences of similar length run together in
    lockstep groups; a document's result does not depend on its group.
    ``doc_ids`` names a rejected document."""
    results: list[np.ndarray] = [None] * len(sequences)
    for group in _length_groups(range(len(sequences)), sequences):
        probs, _ = forward([sequences[k] for k in group], model,
                           None if doc_ids is None else [doc_ids[k] for k in group],
                           keep_trace=False)
        for k, row in zip(group, probs):
            results[k] = row
    return results


def train(
    model: BiLstmClassifier,
    split: SplitDataset,
    vocab: Vocabulary,
    config: TrainConfig,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[BiLstmClassifier, TrainHistory]:
    """Run the full training loop on documents encoded to the model's
    window, ``model.dims.max_len``.

    Per epoch: one seeded shuffle of the train indices, gradients
    averaged over each mini-batch (the final short batch is kept), one
    Adam step per batch, then validation metrics. When a checkpoint
    path is configured, the model is written there each time the
    validation accuracy improves (ties keep the earlier epoch), before
    ``on_epoch`` sees the epoch, so a run stopped early leaves its best
    model so far; without validation it is written once, at the end.

    Returns ``model``, trained in place to the last epoch, and the
    history. The best validation epoch's model is the checkpoint's:
    load it with :func:`load_checkpoint`.
    """
    if not split.train:
        raise DataError("train partition is empty")
    encoding = (vocab, model.dims.max_len)
    train_seqs, train_targets, train_ids = _encode_labeled(split.train, *encoding)
    val_seqs, val_targets, val_ids = _encode_labeled(split.validation, *encoding)

    rng = SplitMix64(config.seed)
    state = AdamState.zeros_like(model)
    grads = Gradients.zeros_like(model)
    history = TrainHistory()
    best_val_acc = -1.0
    n = len(train_seqs)

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        correct = 0
        for start in range(0, n, config.batch_size):
            batch = order[start:start + config.batch_size]
            grads.zero_()
            batch_loss = 0.0
            for group in _length_groups(batch, train_seqs):
                targets = [train_targets[k] for k in group]
                probs, trace = forward([train_seqs[k] for k in group], model,
                                       [train_ids[k] for k in group])
                for row, target in zip(probs, targets):
                    batch_loss += loss(row, target)
                    if int(np.argmax(row)) == target:
                        correct += 1
                backward(trace, targets, out=grads)
                # no trace stays alive through the next group's forward,
                # Adam's step or validation
                del probs, trace
            grads.scale_(1.0 / len(batch))
            if config.clip_norm is not None:
                norm = grads.global_norm()
                if norm > config.clip_norm:
                    grads.scale_(config.clip_norm / norm)
            adam_update(model, grads, state, config)
            epoch_loss += batch_loss
        val_loss = val_acc = None
        if val_seqs:
            val_loss, val_acc = _mean_loss_accuracy(model, val_seqs, val_targets,
                                                    val_ids)
        record = EpochRecord(
            epoch=epoch,
            train_loss=epoch_loss / n,
            train_accuracy=correct / n,
            val_loss=val_loss,
            val_accuracy=val_acc,
            seconds=time.perf_counter() - started,
        )
        history.epochs.append(record)
        if config.checkpoint_path is not None and val_acc is not None:
            if val_acc > best_val_acc:
                best_val_acc = val_acc
                save_checkpoint(model, config.checkpoint_path)
        if on_epoch is not None:
            on_epoch(record)

    if config.checkpoint_path is not None and not val_seqs:
        save_checkpoint(model, config.checkpoint_path)
    return model, history


def evaluate(
    model: BiLstmClassifier,
    docs: Sequence[Document],
    vocab: Vocabulary,
) -> EvaluationReport:
    """tokenize -> encode to the model's window -> forward -> argmax per
    document, then the full metrics report. Argmax ties resolve to the
    lowest class index."""
    if not docs:
        raise DataError("cannot evaluate an empty document list")
    sequences, targets, doc_ids = _encode_labeled(docs, vocab, model.dims.max_len)
    probs_list = map_forward(model, sequences, doc_ids)
    pairs = [
        (target, int(np.argmax(probs)))
        for target, probs in zip(targets, probs_list)
    ]
    return evaluation_report(pairs, model.labels)


def save_checkpoint(
    model: BiLstmClassifier,
    path: str | Path,
    state: AdamState | None = None,
) -> None:
    """Write ``model`` (and optionally its Adam state) to ``path``, one
    tensor at a time, through ``errors.write_atomically``."""
    header = json.dumps({
        "format": CHECKPOINT_FORMAT, "dims": asdict(model.dims),
        "labels": list(model.labels), "vocab_digest": model.vocab_digest,
        "activation": model.activation, "optimizer": "adam",
        "adam_t": None if state is None else state.t,
    }, sort_keys=True, separators=(",", ":"), ensure_ascii=False)

    def write(fh):
        fh.write(CHECKPOINT_MAGIC)
        fh.write(header.encode("utf-8"))
        fh.write(b"\n")
        # through the buffer protocol, in C order (W and U are held in F)
        tensors = model.params.arrays()
        if state is not None:
            tensors += state.m.arrays() + state.v.arrays()
        for arr in tensors:
            fh.write(np.ascontiguousarray(arr, dtype="<f4"))

    write_atomically(path, write)


def load_checkpoint(
    path: str | Path,
    vocab: Vocabulary | None = None,
) -> tuple[BiLstmClassifier, AdamState | None]:
    """Read a checkpoint; round-trips are bit-identical per tensor.

    When a vocabulary is supplied its digest must match the one stored
    in the header. The header's labels must form a :class:`LabelSet`.
    """
    with open_input(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise DataError(f"{path}: bad magic; not a checkpoint file")
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise DataError(f"{path}: truncated payload (no header terminator)")
        try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
            header = parse_json(line[:-1].decode("utf-8"), f"{path}:1")
            if not isinstance(header, dict):
                raise TypeError("the header is not a JSON object")
            if header.get("format") != CHECKPOINT_FORMAT:
                raise DataError(
                    f"{path}: unsupported checkpoint format {header.get('format')!r}")
            dims = ModelDims(**header["dims"])
            if type(header["labels"]) is not list:
                raise TypeError(f"labels {header['labels']!r} are not a list")
            labels = LabelSet(tuple(header["labels"])).labels
            digest = header["vocab_digest"]
            activation = header["activation"]
            adam_t = header["adam_t"]
            if not all(type(n) is int for n in vars(dims).values()):
                raise TypeError(f"dims {header['dims']!r} are not all integers")
            if adam_t is not None and (type(adam_t) is not int or adam_t < 0):
                raise ValueError(f"adam_t {adam_t!r} is not a step count")
            if activation not in ACTIVATIONS or len(labels) != dims.classes:
                raise ValueError(f"activation {activation!r}, {len(labels)} labels")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
        if vocab is not None and vocab.digest() != digest:
            raise DataError(f"{path}: vocabulary digest mismatch")

        # the payload is one buffer of parameters, then m and v with Adam
        # state; its size is checked before anything is allocated
        payload = os.fstat(fh.fileno()).st_size - fh.tell()
        expected = (1 if adam_t is None else 3) * 4 * param_size(dims)
        if payload < expected:
            raise DataError(f"{path}: truncated payload")
        if payload > expected:
            raise DataError(f"{path}: unexpected trailing bytes")
        params = ParamBuffer(dims)
        # W and U are held Fortran-ordered and go through one C-ordered scratch
        scratch = np.empty(max((view.size for view in params.arrays()
                                if not view.flags.c_contiguous), default=0), np.float32)

        def read_into(buf: ParamBuffer) -> ParamBuffer:
            for view in buf.arrays():  # each tensor is C-ordered on disk
                into = view if view.flags.c_contiguous else (
                    scratch[:view.size].reshape(view.shape))
                if fh.readinto(into) != into.nbytes:  # the file shrank
                    raise DataError(f"{path}: truncated payload")
                if into is not view:
                    view[...] = into
            if sys.byteorder == "big":  # the bytes on disk are little-endian
                buf.flat.byteswap(inplace=True)
            return buf

        model = BiLstmClassifier(read_into(params), labels, digest, activation)
        state = None if adam_t is None else AdamState(
            m=read_into(ParamBuffer(dims)), v=read_into(ParamBuffer(dims)), t=adam_t)
    return model, state
