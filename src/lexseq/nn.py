"""Bi-LSTM classifier numerics: embedding, two LSTM directions, sum
merge, dense softmax head, and exact backpropagation through time.

All gradients are hand-derived for exactly this graph; there is no
autodiff. Parameters are 32-bit by default; pass ``dtype=np.float64``
to :func:`init_parameters` for gradient checking.

Gate blocks inside the fused pre-activation vector are ordered
[input, forget, candidate, output]; this order is part of the
checkpoint contract.

BPTT flushes every component of the backward state (dh, dc) whose
magnitude is below ``GRAD_FLUSH`` (2**-100) to zero after each step,
and stops once both are exactly zero. Over a long window the backward
signal vanishes; in float32 it never reaches zero but sinks into
subnormals, and every further step then runs on subnormal operands at
about 20x the cost. A gradient change g of the flushed size moves a
parameter by at most lr / eps * |g| through Adam, about 1e-26 at the
default settings. The float64 finite-difference checks are not
affected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .errors import DataError, NumericError
from .rng import SplitMix64
from .tokenizer import EncodedSequence

# Readings of "the recurrent layer's output uses a ReLU activation":
#   relu             ReLU as both candidate and cell-output activation
#   tanh             standard LSTM cell
#   relu_after_merge standard cell, ReLU applied to the summed merge
ACTIVATIONS = ("relu", "tanh", "relu_after_merge")

# BPTT flushes backward-state components below this magnitude to zero;
# see the module docstring.
GRAD_FLUSH = 2.0 ** -100


@dataclass(frozen=True)
class ModelDims:
    vocab_rows: int
    embed_dim: int = 100
    hidden: int = 200
    classes: int = 6
    max_len: int = 1000

    def __post_init__(self):
        if self.vocab_rows < 3:
            raise ValueError("vocab_rows must cover PAD, OOV and at least one token")
        if self.embed_dim < 1 or self.hidden < 1 or self.max_len < 1:
            raise ValueError("embed_dim, hidden and max_len must be >= 1")
        if self.classes < 2:
            raise ValueError("classes must be >= 2")


@dataclass
class LstmDirectionParams:
    """One direction's weights: W (4H, E), U (4H, H), b (4H,)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray

    @property
    def hidden(self) -> int:
        return self.U.shape[1]


@dataclass
class DenseParams:
    W: np.ndarray
    b: np.ndarray


@dataclass
class BiLstmClassifier:
    dims: ModelDims
    embedding: np.ndarray
    forward_dir: LstmDirectionParams
    backward_dir: LstmDirectionParams
    head: DenseParams
    labels: tuple[str, ...]
    vocab_digest: str = ""
    activation: str = "relu"

    def __post_init__(self):
        d = self.dims
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.labels) != d.classes:
            raise ValueError("label order length must equal the class count")
        expect = {
            "embedding": (d.vocab_rows, d.embed_dim),
            "forward_dir.W": (4 * d.hidden, d.embed_dim),
            "forward_dir.U": (4 * d.hidden, d.hidden),
            "forward_dir.b": (4 * d.hidden,),
            "backward_dir.W": (4 * d.hidden, d.embed_dim),
            "backward_dir.U": (4 * d.hidden, d.hidden),
            "backward_dir.b": (4 * d.hidden,),
            "head.W": (d.classes, d.hidden),
            "head.b": (d.classes,),
        }
        for name, arr in iter_parameters(self):
            if arr.shape != expect[name]:
                raise ValueError(
                    f"{name} has shape {arr.shape}, expected {expect[name]}"
                )

    @property
    def dtype(self) -> np.dtype:
        return self.embedding.dtype

    def clone(self) -> "BiLstmClassifier":
        return BiLstmClassifier(
            dims=self.dims,
            embedding=self.embedding.copy(),
            forward_dir=LstmDirectionParams(
                self.forward_dir.W.copy(),
                self.forward_dir.U.copy(),
                self.forward_dir.b.copy(),
            ),
            backward_dir=LstmDirectionParams(
                self.backward_dir.W.copy(),
                self.backward_dir.U.copy(),
                self.backward_dir.b.copy(),
            ),
            head=DenseParams(self.head.W.copy(), self.head.b.copy()),
            labels=self.labels,
            vocab_digest=self.vocab_digest,
            activation=self.activation,
        )


# Canonical tensor order; initialization, Adam state, and the checkpoint
# payload all follow it.
PARAM_NAMES = (
    "embedding",
    "forward_dir.W",
    "forward_dir.U",
    "forward_dir.b",
    "backward_dir.W",
    "backward_dir.U",
    "backward_dir.b",
    "head.W",
    "head.b",
)


def iter_parameters(model: BiLstmClassifier) -> Iterator[tuple[str, np.ndarray]]:
    yield "embedding", model.embedding
    yield "forward_dir.W", model.forward_dir.W
    yield "forward_dir.U", model.forward_dir.U
    yield "forward_dir.b", model.forward_dir.b
    yield "backward_dir.W", model.backward_dir.W
    yield "backward_dir.U", model.backward_dir.U
    yield "backward_dir.b", model.backward_dir.b
    yield "head.W", model.head.W
    yield "head.b", model.head.b


def parameter_count(model: BiLstmClassifier) -> int:
    return sum(arr.size for _, arr in iter_parameters(model))


@dataclass
class Gradients:
    """Gradient buffers shaped like every parameter tensor."""

    embedding: np.ndarray
    forward_W: np.ndarray
    forward_U: np.ndarray
    forward_b: np.ndarray
    backward_W: np.ndarray
    backward_U: np.ndarray
    backward_b: np.ndarray
    head_W: np.ndarray
    head_b: np.ndarray

    @classmethod
    def zeros_like(cls, model: BiLstmClassifier) -> "Gradients":
        return cls(*(np.zeros_like(arr) for _, arr in iter_parameters(model)))

    def arrays(self) -> tuple[np.ndarray, ...]:
        return (
            self.embedding,
            self.forward_W,
            self.forward_U,
            self.forward_b,
            self.backward_W,
            self.backward_U,
            self.backward_b,
            self.head_W,
            self.head_b,
        )

    def zero_(self) -> None:
        for arr in self.arrays():
            arr.fill(0)

    def scale_(self, k: float) -> None:
        for arr in self.arrays():
            arr *= arr.dtype.type(k)

    def global_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(arr.astype(np.float64) ** 2))
                             for arr in self.arrays()))


def iter_gradients(grads: Gradients) -> Iterator[tuple[str, np.ndarray]]:
    for name, arr in zip(PARAM_NAMES, grads.arrays()):
        yield name, arr


def _sigmoid(z: np.ndarray) -> np.ndarray:
    # two-branch form: exp() only ever sees non-positive arguments
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def _cell_phi(activation: str):
    if activation == "relu":
        return lambda v: np.maximum(v, 0)
    return np.tanh


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits)
    e = np.exp(shifted)
    return e / np.sum(e)


@dataclass
class LstmStepCache:
    z: np.ndarray
    i: np.ndarray
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray
    pc: np.ndarray
    x: np.ndarray
    h_prev: np.ndarray
    c_prev: np.ndarray


def _gates(z, c_prev, phi, hidden):
    sig = _sigmoid(z)  # the candidate block's share is unused
    i = sig[:hidden]
    f = sig[hidden:2 * hidden]
    g = phi(z[2 * hidden:3 * hidden])
    o = sig[3 * hidden:]
    c = f * c_prev + i * g
    pc = phi(c)
    h = o * pc
    return i, f, g, o, c, pc, h


def lstm_step(
    x: np.ndarray,
    h_prev: np.ndarray,
    c_prev: np.ndarray,
    p: LstmDirectionParams,
    activation: str = "relu",
) -> tuple[np.ndarray, np.ndarray, LstmStepCache]:
    """One recurrence step: z = W x + U h_prev + b, gated cell update."""
    hidden = p.hidden
    if x.shape != (p.W.shape[1],) or h_prev.shape != (hidden,) or c_prev.shape != (hidden,):
        raise ValueError(
            f"shape mismatch: x {x.shape}, h_prev {h_prev.shape}, "
            f"c_prev {c_prev.shape} against W {p.W.shape}, U {p.U.shape}"
        )
    phi = _cell_phi(activation if activation != "relu_after_merge" else "tanh")
    z = p.W @ x + p.U @ h_prev + p.b
    i, f, g, o, c, pc, h = _gates(z, c_prev, phi, hidden)
    if not (np.all(np.isfinite(h)) and np.all(np.isfinite(c))):
        raise NumericError("non-finite LSTM state after a single step")
    cache = LstmStepCache(z=z, i=i, f=f, g=g, o=o, c=c, pc=pc,
                          x=x, h_prev=h_prev, c_prev=c_prev)
    return h, c, cache


@dataclass
class DirectionTrace:
    """Per-step caches in processing order (step s, not text position)."""

    z: np.ndarray   # (L, 4H) gate pre-activations
    i: np.ndarray   # (L, H)
    f: np.ndarray
    g: np.ndarray
    o: np.ndarray
    c: np.ndarray   # cell states
    pc: np.ndarray  # cell-output activation phi(c)
    h: np.ndarray   # hidden states


@dataclass
class ForwardTrace:
    ids: np.ndarray           # (L,) the non-PAD token ids
    x: np.ndarray             # (L, E) embedded inputs in text order
    fwd: DirectionTrace
    bwd: DirectionTrace       # step s covers text position L-1-s
    merged_pre: np.ndarray
    merged: np.ndarray
    logits: np.ndarray
    probs: np.ndarray
    length: int
    model: BiLstmClassifier = field(repr=False)


def _run_direction(x_proc: np.ndarray, p: LstmDirectionParams, phi) -> DirectionTrace:
    steps, _ = x_proc.shape
    hidden = p.hidden
    dtype = x_proc.dtype
    z_all = x_proc @ p.W.T + p.b  # input contribution for every step at once
    i_all = np.empty((steps, hidden), dtype)
    f_all = np.empty((steps, hidden), dtype)
    g_all = np.empty((steps, hidden), dtype)
    o_all = np.empty((steps, hidden), dtype)
    c_all = np.empty((steps, hidden), dtype)
    pc_all = np.empty((steps, hidden), dtype)
    h_all = np.empty((steps, hidden), dtype)
    h = np.zeros(hidden, dtype)
    c = np.zeros(hidden, dtype)
    for s in range(steps):
        z_all[s] += p.U @ h
        i, f, g, o, c, pc, h = _gates(z_all[s], c, phi, hidden)
        i_all[s], f_all[s], g_all[s], o_all[s] = i, f, g, o
        c_all[s], pc_all[s], h_all[s] = c, pc, h
    if not (np.all(np.isfinite(h_all)) and np.all(np.isfinite(c_all))):
        bad = np.flatnonzero(
            ~(np.isfinite(h_all).all(axis=1) & np.isfinite(c_all).all(axis=1))
        )[0]
        raise NumericError(f"non-finite LSTM state at timestep {int(bad)}")
    return DirectionTrace(z=z_all, i=i_all, f=f_all, g=g_all, o=o_all,
                          c=c_all, pc=pc_all, h=h_all)


def forward(seq: EncodedSequence, model: BiLstmClassifier) -> tuple[np.ndarray, ForwardTrace]:
    """Full pass over the non-PAD prefix of ``seq``.

    PAD positions never enter either recurrence. The merge sums the
    forward direction's final hidden state with the backward
    direction's final hidden state (text position 0).
    """
    if seq.length == 0:
        raise DataError("empty sequence")
    ids = np.asarray(seq.ids[:seq.length])
    if int(ids.max()) >= model.dims.vocab_rows:
        raise DataError(
            f"token id {int(ids.max())} outside the embedding table "
            f"({model.dims.vocab_rows} rows)"
        )
    phi = _cell_phi(model.activation if model.activation != "relu_after_merge" else "tanh")
    x = model.embedding[ids]
    fwd = _run_direction(x, model.forward_dir, phi)
    bwd = _run_direction(x[::-1], model.backward_dir, phi)
    merged_pre = fwd.h[-1] + bwd.h[-1]
    if model.activation == "relu_after_merge":
        merged = np.maximum(merged_pre, 0)
    else:
        merged = merged_pre
    logits = model.head.W @ merged + model.head.b
    probs = softmax(logits)
    trace = ForwardTrace(ids=ids, x=x, fwd=fwd, bwd=bwd,
                         merged_pre=merged_pre, merged=merged,
                         logits=logits, probs=probs,
                         length=seq.length, model=model)
    return probs, trace


def loss(probs: np.ndarray, target: int) -> float:
    """Categorical cross-entropy with the probability floored at 1e-12."""
    if not 0 <= target < probs.shape[0]:
        raise ValueError(f"target {target} out of range for {probs.shape[0]} classes")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-5 or float(np.min(probs)) < -1e-5:
        raise ValueError("probs are not on the simplex")
    return -math.log(max(float(probs[target]), 1e-12))


def _phi_derivative(activation: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if activation == "relu":
        return (pre > 0).astype(pre.dtype)
    return 1.0 - post * post  # tanh'


def backward(
    trace: ForwardTrace,
    target: int,
    model: BiLstmClassifier,
    out: Gradients | None = None,
) -> Gradients:
    """Exact BPTT for the cross-entropy loss at ``target``.

    Contributions are added into ``out`` (a fresh zero buffer when not
    supplied), so a caller can accumulate a mini-batch into one
    caller-owned buffer. Only embedding rows that actually appear in
    the sequence receive gradient.
    """
    if trace.model is not model:
        raise ValueError("trace was produced by a different model")
    if not 0 <= target < model.dims.classes:
        raise ValueError(f"target {target} out of range")
    grads = Gradients.zeros_like(model) if out is None else out

    cell_act = model.activation if model.activation != "relu_after_merge" else "tanh"
    hidden = model.dims.hidden
    length = trace.length
    dtype = model.dtype

    dlogits = trace.probs.copy()
    dlogits[target] -= 1.0
    grads.head_W += np.outer(dlogits, trace.merged)
    grads.head_b += dlogits
    dmerged = model.head.W.T @ dlogits
    if model.activation == "relu_after_merge":
        dmerged = dmerged * (trace.merged_pre > 0)

    per_direction = (
        (trace.fwd, model.forward_dir, grads.forward_W, grads.forward_U,
         grads.forward_b, trace.x, trace.ids),
        (trace.bwd, model.backward_dir, grads.backward_W, grads.backward_U,
         grads.backward_b, trace.x[::-1], trace.ids[::-1]),
    )
    for dt, params, g_W, g_U, g_b, x_proc, ids_proc in per_direction:
        dZ = np.empty((length, 4 * hidden), dtype)
        dh = dmerged
        dc = np.zeros(hidden, dtype)
        for s in range(length - 1, -1, -1):
            i, f, g, o = dt.i[s], dt.f[s], dt.g[s], dt.o[s]
            c, pc = dt.c[s], dt.pc[s]
            c_prev = dt.c[s - 1] if s > 0 else np.zeros(hidden, dtype)
            do = dh * pc
            dc = dc + dh * o * _phi_derivative(cell_act, c, pc)
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dZ[s, :hidden] = di * i * (1.0 - i)
            dZ[s, hidden:2 * hidden] = df * f * (1.0 - f)
            dZ[s, 2 * hidden:3 * hidden] = dg * _phi_derivative(
                cell_act, dt.z[s, 2 * hidden:3 * hidden], g)
            dZ[s, 3 * hidden:] = do * o * (1.0 - o)
            if s > 0:
                dh = params.U.T @ dZ[s]
                dc = dc * f
                dh[np.abs(dh) < GRAD_FLUSH] = 0
                dc[np.abs(dc) < GRAD_FLUSH] = 0
                if not (dh.any() or dc.any()):
                    dZ[:s] = 0  # exact: every earlier row is linear in dh, dc
                    break
        g_W += dZ.T @ x_proc
        h_prev_all = np.vstack([np.zeros((1, hidden), dtype), dt.h[:-1]])
        g_U += dZ.T @ h_prev_all
        g_b += dZ.sum(axis=0)
        d_x = dZ @ params.W
        np.add.at(grads.embedding, ids_proc, d_x)

    return grads


def init_parameters(
    dims: ModelDims,
    seed: int,
    labels: tuple[str, ...] | None = None,
    vocab_digest: str = "",
    activation: str = "relu",
    dtype=np.float32,
) -> BiLstmClassifier:
    """Seed-deterministic Glorot-uniform initialization.

    Weight tensors are drawn uniformly on +-sqrt(6/(rows+cols)) from a
    single splitmix64 stream in checkpoint tensor order; biases are
    zero except the forget-gate block, which starts at 1.0.
    """
    rng = SplitMix64(seed)

    def glorot(rows: int, cols: int) -> np.ndarray:
        bound = math.sqrt(6.0 / (rows + cols))
        u = rng.uniform_floats(rows * cols)
        return ((u * 2.0 - 1.0) * bound).reshape(rows, cols).astype(dtype)

    def direction() -> LstmDirectionParams:
        W = glorot(4 * dims.hidden, dims.embed_dim)
        U = glorot(4 * dims.hidden, dims.hidden)
        b = np.zeros(4 * dims.hidden, dtype)
        b[dims.hidden:2 * dims.hidden] = 1.0
        return LstmDirectionParams(W=W, U=U, b=b)

    embedding = glorot(dims.vocab_rows, dims.embed_dim)
    fwd = direction()
    bwd = direction()
    head = DenseParams(
        W=glorot(dims.classes, dims.hidden),
        b=np.zeros(dims.classes, dtype),
    )
    if labels is None:
        labels = tuple(str(i) for i in range(dims.classes))
    return BiLstmClassifier(
        dims=dims,
        embedding=embedding,
        forward_dir=fwd,
        backward_dir=bwd,
        head=head,
        labels=tuple(labels),
        vocab_digest=vocab_digest,
        activation=activation,
    )
