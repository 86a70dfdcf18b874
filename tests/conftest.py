"""Shared fixtures and oracles for the test suite."""

from __future__ import annotations

import copy
import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import strategies as st

from lexseq import corpus, nn, trainer
from lexseq.errors import DataError
from lexseq.tokenizer import EncodedSequence

SYNTH_CLASSES = 6
SYNTH_LABELS = tuple(f"class{i}" for i in range(SYNTH_CLASSES))


def traced_peak(fn) -> int:
    """Peak bytes traced while ``fn`` runs; tracemalloc sees numpy's buffers."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def make_synthetic_corpus(
    n_docs: int = 600,
    seed: int = 99,
    classes: int = SYNTH_CLASSES,
    markers: tuple[int, int] = (2, 2),
) -> list[corpus.Document]:
    """Keyword corpus: class k's documents contain the marker token
    ``classk`` (1-2 occurrences) among random filler words."""
    rng = random.Random(seed)
    noise = [f"palavra{i}" for i in range(150)]
    docs = []
    per_class = n_docs // classes
    for cls in range(classes):
        for j in range(per_class):
            words = [rng.choice(noise) for _ in range(rng.randint(8, 14))]
            for _ in range(rng.randint(*markers)):
                words.insert(rng.randrange(len(words) + 1), f"class{cls}")
            docs.append(
                corpus.Document(
                    id=f"doc-{cls}-{j:03d}", text=" ".join(words), label=cls
                )
            )
    return docs


@pytest.fixture(scope="session")
def synthetic_corpus() -> list[corpus.Document]:
    return make_synthetic_corpus()


@pytest.fixture(scope="session")
def synthetic_labels() -> corpus.LabelSet:
    return corpus.LabelSet(SYNTH_LABELS)


def save_dataset(docs: list[corpus.Document], labels: corpus.LabelSet | None,
                 path) -> None:
    """Write documents in the dataset JSONL format that load_dataset reads."""
    with open(path, "w", encoding="utf-8") as fh:
        for doc in docs:
            record: dict = {"id": doc.id, "text": doc.text}
            if doc.label is not None and labels is not None:
                record["label"] = labels.labels[doc.label]
            fh.write(json.dumps(record, ensure_ascii=False) + "\n")


def random_tiny_model(seed: int, dtype=np.float64) -> tuple[nn.BiLstmClassifier, EncodedSequence, int]:
    """Tiny random model + input for gradient checking: vocab rows 12,
    embed 4, hidden 3, sequence length 6, 3 classes."""
    from lexseq.rng import SplitMix64

    dims = nn.ModelDims(vocab_rows=12, embed_dim=4, hidden=3, classes=3, max_len=6)
    model = nn.init_parameters(dims, seed=seed, dtype=dtype)
    rng = SplitMix64(seed + 777)
    ids = np.array([1 + rng.next_below(11) for _ in range(6)])
    seq = EncodedSequence(ids=ids, length=6)
    target = rng.next_below(3)
    return model, seq, target


def swapped_directions(model: nn.BiLstmClassifier) -> nn.BiLstmClassifier:
    """A copy of ``model`` with the forward and backward direction
    tensors exchanged."""
    swapped = copy.deepcopy(model)
    src, dst = model.params.views, swapped.params.views
    for part in ("W", "U", "b"):
        dst[f"forward_dir.{part}"][...] = src[f"backward_dir.{part}"]
        dst[f"backward_dir.{part}"][...] = src[f"forward_dir.{part}"]
    return swapped


def overflow_head(model: nn.BiLstmClassifier, tokens=slice(None)) -> nn.BiLstmClassifier:
    """Zero ``model`` in place, then make its logits overflow for every
    document whose last token is in ``tokens`` while each LSTM state stays
    finite. Only the forward direction's candidate gate reads the input,
    through embedding column 0, which is 4.0 for ``tokens``: there the
    final c is at least 2 and h = 0.5 * c at least 1 in each of hidden
    (>= 2) units, so every logit is at least 2 * 3e38, +inf in float32,
    and the softmax of equal infinities is NaN. Other documents' states
    stay zero and their probabilities uniform."""
    v = model.params.views
    for arr in model.params.arrays():
        arr[...] = 0
    hidden = model.dims.hidden
    v["forward_dir.W"][2 * hidden:3 * hidden, 0] = 1.0
    v["embedding"][tokens, 0] = 4.0
    v["head.W"][...] = 3e38
    return model


# The whole-buffer expressions whose bits the gradient passes and Adam's
# step give (see the docstrings of nn.Gradients and trainer.adam_update):
# references for the passes over the rows of a mask, which read no mask.

def dense_zero(grads: nn.Gradients) -> None:
    grads.flat.fill(0)


def dense_scale(grads: nn.Gradients, k: float) -> None:
    grads.flat *= grads.flat.dtype.type(k)


def dense_norm(grads: nn.Gradients) -> float:
    """The float64 sum of squares of every embedding row, then of each
    block of the buffer after the embedding, gaps included, added to the
    total one at a time in order."""
    embedding, flat, total = grads.views["embedding"], grads.flat, 0.0
    for row in np.multiply(embedding, embedding, dtype=np.float64).sum(axis=1).tolist():
        total += row
    for lo in range(grads.starts[1], flat.size, nn.ADAM_BLOCK):
        block = flat[lo:lo + nn.ADAM_BLOCK]
        total += float(np.multiply(block, block, dtype=np.float64).sum())
    return math.sqrt(total)


def dense_adam(model, grads, state, config):
    """One Adam step over the whole flat buffers, in the operation order
    of ``param -= lr * (m / bc1) / (sqrt(v / bc2) + eps)``."""
    state.t += 1
    bc1 = 1.0 - trainer.BETA1 ** state.t
    bc2 = 1.0 - trainer.BETA2 ** state.t
    param, grad, m, v = (buf.flat for buf in (model.params, grads, state.m, state.v))
    m *= trainer.BETA1
    m += (1.0 - trainer.BETA1) * grad
    v *= trainer.BETA2
    v += (1.0 - trainer.BETA2) * (grad * grad)
    param -= config.learning_rate * (m / bc1) / (np.sqrt(v / bc2) + trainer.EPSILON)
    return model, state


def finite_difference_gradients(
    model: nn.BiLstmClassifier,
    seqs: list[EncodedSequence],
    targets: list[int],
    eps: float = 1e-5,
) -> list[np.ndarray]:
    """Independent gradient oracle: central differences through
    forward + the batch's summed loss only, one scalar parameter at a
    time."""
    def total_loss() -> float:
        probs, _ = nn.forward(seqs, model)
        return sum(nn.loss(row, target) for row, target in zip(probs, targets))

    grads = []
    for param in model.params.arrays():
        fd = np.zeros_like(param)
        it = np.nditer(param, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = param[idx]
            param[idx] = orig + eps
            loss_plus = total_loss()
            param[idx] = orig - eps
            loss_minus = total_loss()
            param[idx] = orig
            fd[idx] = (loss_plus - loss_minus) / (2 * eps)
        grads.append(fd)
    return grads


def batch_gradient_check_error(model, seqs, targets, eps: float = 1e-5) -> float:
    """Max absolute BPTT-vs-FD deviation over the whole gradient
    vector, relative to the gradient's own max magnitude. (Central
    differences at step eps cannot resolve elements much smaller than
    the roundoff floor, so the scale is the full gradient's.)"""
    _, trace = nn.forward(seqs, model)
    analytic = nn.backward(trace, targets)
    fd = finite_difference_gradients(model, seqs, targets, eps)
    diff = max(np.abs(a - f).max() for a, f in zip(analytic.arrays(), fd))
    scale = max(
        max(np.abs(a).max() for a in analytic.arrays()),
        max(np.abs(f).max() for f in fd),
    )
    return float(diff / scale)


def gradient_check_error(model, seq, target, eps: float = 1e-5) -> float:
    """batch_gradient_check_error for a batch of one document."""
    return batch_gradient_check_error(model, [seq], [target], eps)


def flip_bit(blob: bytes, bit: int) -> bytes:
    out = bytearray(blob)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def load_variant(loader, path, blob: bytes):
    """Write ``blob`` to ``path`` and load it: the loader's result, or None
    for a DataError. Any other exception fails the calling test."""
    path.write_bytes(blob)
    try:
        return loader(path)
    except DataError:
        return None


def damaged(blob: bytes, data) -> bytes:
    """``blob`` with one to three bits flipped, then cut, as drawn from
    Hypothesis's ``data``."""
    for _ in range(data.draw(st.integers(1, 3))):
        blob = flip_bit(blob, data.draw(st.integers(0, 8 * len(blob) - 1)))
    return blob[:data.draw(st.integers(0, len(blob)))]


def check_every_truncation_and_bit_flip(loader, path, blob: bytes) -> None:
    """Every prefix of ``blob`` and every single-bit flip of it loads or
    is a DataError."""
    for end in range(len(blob)):
        load_variant(loader, path, blob[:end])
    for bit in range(8 * len(blob)):
        load_variant(loader, path, flip_bit(blob, bit))
