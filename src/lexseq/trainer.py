"""Mini-batch training with Adam, deterministic shuffling, epoch-level
validation, and bit-exact checkpointing.

Checkpoint layout: magic ``BLSTM1\\0``, one UTF-8 JSON header line
(dims, label order, vocabulary digest, activation, optimizer, format
version), then raw little-endian float32 tensors, row-major, in
canonical parameter order, followed by the optional Adam first- and
second-moment accumulators in that same order.
"""

from __future__ import annotations

import json
import math
import os
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from .corpus import Document, SplitDataset
from .errors import DataError, NumericError
from .metrics import EvaluationReport, evaluation_report
from .nn import (
    ACTIVATIONS,
    BiLstmClassifier,
    Gradients,
    ModelDims,
    ParamBuffer,
    backward,
    forward,
    iter_parameters,
    loss,
    param_size,
)
from .rng import SplitMix64
from .tokenizer import EncodedSequence, TokenizerConfig, Vocabulary, encode_text

CHECKPOINT_MAGIC = b"BLSTM1\x00"
CHECKPOINT_FORMAT = 1

# Documents per lockstep forward/backward call. Larger groups gain little
# per step and cost memory: a group's trace and BPTT take 2 * 10 * hidden
# floats per token, 256 MB for 16 documents of 1000 tokens at hidden 200.
GROUP_DOCS = 16

# Elements per block of adam_update. A block of its six arrays (1.5 MB in
# float32) stays in a 2 MB L2 cache; 65,536 measured fastest at reference
# dims, ahead of 32,768 and 131,072 (see CHANGES.md).
ADAM_BLOCK = 65_536


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 20
    batch_size: int = 64
    learning_rate: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-7
    seed: int = 0
    checkpoint_path: str | None = None
    clip_norm: float | None = None

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.clip_norm is not None and self.clip_norm <= 0:
            raise ValueError("clip_norm must be positive when set")


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
        Path(path).write_text(
            json.dumps(self.to_list(), indent=2) + "\n", encoding="utf-8"
        )


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
    bc1 = 1.0 - config.beta1 ** state.t
    bc2 = 1.0 - config.beta2 ** state.t
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
        m *= config.beta1
        m += np.multiply(1.0 - config.beta1, grad, out=s)
        v *= config.beta2
        np.multiply(grad, grad, out=d)
        v += np.multiply(1.0 - config.beta2, d, out=d)
        np.divide(m, bc1, out=s)
        np.multiply(config.learning_rate, s, out=s)
        np.divide(v, bc2, out=d)
        np.sqrt(d, out=d)
        d += config.epsilon
        s /= d
        param -= s
    return model, state


def encode_document(
    doc: Document,
    vocab: Vocabulary,
    tok_config: TokenizerConfig,
) -> EncodedSequence:
    """Encode one document; one with no tokens is a DataError naming it."""
    seq = encode_text(doc.text, vocab, tok_config)
    if seq.length == 0:
        raise DataError(f"document {doc.id!r}: empty sequence (no tokens)")
    return seq


def _encode_labeled(
    docs: Sequence[Document],
    vocab: Vocabulary,
    tok_config: TokenizerConfig,
) -> tuple[list[EncodedSequence], list[int], list[str]]:
    sequences, targets = [], []
    for doc in docs:
        if doc.label is None:
            raise DataError(f"document {doc.id!r} is unlabeled")
        sequences.append(encode_document(doc, vocab, tok_config))
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
    """Probabilities per sequence, in input order. Sequences of similar
    length run together in lockstep groups; a document's result does
    not depend on its group. ``doc_ids`` names a rejected document."""
    results: list[np.ndarray] = [None] * len(sequences)
    for group in _length_groups(range(len(sequences)), sequences):
        probs, _ = forward([sequences[k] for k in group], model,
                           None if doc_ids is None else [doc_ids[k] for k in group])
        for k, row in zip(group, probs):
            results[k] = row
    return results


def train(
    model: BiLstmClassifier,
    split: SplitDataset,
    vocab: Vocabulary,
    config: TrainConfig,
    tok_config: TokenizerConfig | None = None,
    on_epoch: Callable[[EpochRecord], None] | None = None,
) -> tuple[BiLstmClassifier, TrainHistory]:
    """Run the full training loop.

    Per epoch: one seeded shuffle of the train indices, gradients
    averaged over each mini-batch (the final short batch is kept), one
    Adam step per batch, then validation metrics. When a checkpoint
    path is configured the best-validation-accuracy model is written at
    the end (ties keep the earlier epoch).
    """
    if not split.train:
        raise DataError("train partition is empty")
    if tok_config is None:
        tok_config = TokenizerConfig(max_sequence_length=model.dims.max_len)
    train_seqs, train_targets, train_ids = _encode_labeled(split.train, vocab, tok_config)
    val_seqs, val_targets, val_ids = _encode_labeled(split.validation, vocab, tok_config)

    rng = SplitMix64(config.seed)
    state = AdamState.zeros_like(model)
    grads = Gradients.zeros_like(model)
    history = TrainHistory()
    best_val_acc = -1.0
    best_model: BiLstmClassifier | None = None
    n = len(train_seqs)

    for epoch in range(1, config.epochs + 1):
        started = time.perf_counter()
        order = list(range(n))
        rng.shuffle(order)
        epoch_loss = 0.0
        correct = 0
        for batch_no, start in enumerate(range(0, n, config.batch_size)):
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
                backward(trace, targets, model, out=grads)
            if not math.isfinite(batch_loss):
                raise NumericError(
                    f"non-finite loss at epoch {epoch}, batch {batch_no}"
                )
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
        if on_epoch is not None:
            on_epoch(record)
        if config.checkpoint_path is not None and val_acc is not None:
            if val_acc > best_val_acc:
                best_val_acc = val_acc
                best_model = model.clone()

    if config.checkpoint_path is not None:
        save_checkpoint(best_model if best_model is not None else model,
                        config.checkpoint_path)
    return model, history


def evaluate(
    model: BiLstmClassifier,
    docs: Sequence[Document],
    vocab: Vocabulary,
    tok_config: TokenizerConfig | None = None,
) -> EvaluationReport:
    """tokenize -> encode -> forward -> argmax per document, then the
    full metrics report. Argmax ties resolve to the lowest class index."""
    if not docs:
        raise DataError("cannot evaluate an empty document list")
    if tok_config is None:
        tok_config = TokenizerConfig(max_sequence_length=model.dims.max_len)
    sequences, targets, doc_ids = _encode_labeled(docs, vocab, tok_config)
    probs_list = map_forward(model, sequences, doc_ids)
    pairs = [
        (target, int(np.argmax(probs)))
        for target, probs in zip(targets, probs_list)
    ]
    return evaluation_report(pairs, model.dims.classes, labels=model.labels)


def save_checkpoint(
    model: BiLstmClassifier,
    path: str | Path,
    state: AdamState | None = None,
) -> None:
    """Write ``model`` (and optionally its Adam state) to ``path``.

    The bytes go to a temporary file in the target's directory, which
    then replaces the target in one step, so a write that fails partway
    leaves any existing checkpoint at ``path`` untouched.
    """
    header = json.dumps({
        "format": CHECKPOINT_FORMAT, "dims": asdict(model.dims),
        "labels": list(model.labels), "vocab_digest": model.vocab_digest,
        "activation": model.activation, "optimizer": "adam",
        "adam_t": None if state is None else state.t,
    }, sort_keys=True, separators=(",", ":"), ensure_ascii=False)
    target = Path(path)
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(CHECKPOINT_MAGIC)
            fh.write(header.encode("utf-8"))
            fh.write(b"\n")
            # through the buffer protocol, in C order (W and U are held in F)
            tensors = [arr for _, arr in iter_parameters(model)]
            if state is not None:
                tensors += state.m.arrays() + state.v.arrays()
            for arr in tensors:
                fh.write(np.ascontiguousarray(arr, dtype="<f4"))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)  # only left behind by a failed write


def load_checkpoint(
    path: str | Path,
    vocab: Vocabulary | None = None,
) -> tuple[BiLstmClassifier, AdamState | None]:
    """Read a checkpoint; round-trips are bit-identical per tensor.

    When a vocabulary is supplied its digest must match the one stored
    in the header.
    """
    blob = Path(path).read_bytes()
    if not blob.startswith(CHECKPOINT_MAGIC):
        raise DataError(f"{path}: bad magic; not a checkpoint file")
    newline = blob.find(b"\n", len(CHECKPOINT_MAGIC))
    if newline < 0:
        raise DataError(f"{path}: truncated payload (no header terminator)")
    try:  # UnicodeDecodeError and JSONDecodeError are ValueErrors
        header = json.loads(blob[len(CHECKPOINT_MAGIC):newline].decode("utf-8"))
        if not isinstance(header, dict):
            raise TypeError("the header is not a JSON object")
        if header.get("format") != CHECKPOINT_FORMAT:
            raise DataError(
                f"{path}: unsupported checkpoint format {header.get('format')!r}")
        dims = ModelDims(**header["dims"])
        labels = tuple(header["labels"])
        digest = header["vocab_digest"]
        activation = header["activation"]
        adam_t = header["adam_t"]
        if not all(type(n) is int for n in vars(dims).values()):
            raise TypeError(f"dims {header['dims']!r} are not all integers")
        if adam_t is not None and (type(adam_t) is not int or adam_t < 0):
            raise ValueError(f"adam_t {adam_t!r} is not a step count")
        if activation not in ACTIVATIONS or len(labels) != dims.classes:
            raise ValueError(f"activation {activation!r}, {len(labels)} labels")
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint header: {exc!r}") from None
    if vocab is not None and vocab.digest() != digest:
        raise DataError(f"{path}: vocabulary digest mismatch")

    # the payload is one buffer of parameters, then m and v with Adam state;
    # its size is checked before anything is allocated
    payload = memoryview(blob)[newline + 1:]
    nbytes = 4 * param_size(dims)
    expected = (1 if adam_t is None else 3) * nbytes
    if len(payload) < expected:
        raise DataError(f"{path}: truncated payload")
    if len(payload) > expected:
        raise DataError(f"{path}: unexpected trailing bytes")

    def take(k: int) -> ParamBuffer:
        buf, offset = ParamBuffer(dims), k * nbytes
        for view in buf.arrays():  # each tensor is C-ordered on disk
            chunk = np.frombuffer(payload, "<f4", view.size, offset)
            view[...] = chunk.reshape(view.shape)
            offset += view.nbytes
        return buf

    model = BiLstmClassifier.from_params(take(0), labels, digest, activation)
    state = None if adam_t is None else AdamState(m=take(1), v=take(2), t=adam_t)
    return model, state
