"""Bi-LSTM classifier numerics: embedding, two LSTM directions, sum
merge, dense softmax head, and exact backpropagation through time.

All gradients are hand-derived for exactly this graph; there is no
autodiff. Parameters are 32-bit by default; pass ``dtype=np.float64``
to :func:`init_parameters` for gradient checking.

Gate blocks inside the fused pre-activation vector are ordered
[input, forget, candidate, output]; this order is part of the
checkpoint contract.

:func:`forward` and :func:`backward` run a batch of documents in
lockstep: every document and both directions advance through each
timestep together. Rows are sorted longest first, so the rows still
running at step s are a prefix ``[:k]``, and a step is one
``h[:k] @ U.T`` per direction plus one set of gate ufuncs on both
directions stacked. The backward direction reverses each row within
its own length, so PAD never enters the recurrence and no masks are
needed. The input projection ``x @ W.T`` runs for all steps before
the loop.

A document's bits do not depend on its batch: every operation is
elementwise or a matrix product whose output row depends only on its
own input row, and OpenBLAS gives such a row the same bits for any
row count of 2 or more, though not through its one-row and
matrix-vector kernels. So no product runs on fewer than two rows (the
row floor); a lone row takes a spare zero row along.

One layout holds every parameter: :func:`param_shapes` lists the nine
tensors in order, and a :class:`ParamBuffer` holds them in one
contiguous 1-D buffer with a named view each. The model's tensors, the
gradients and Adam's two moments all use it, so zeroing, scaling,
copying and the Adam step are passes over one array. The views of W
and U are Fortran-ordered so that ``W.T`` and ``U.T`` are contiguous:
OpenBLAS is several times slower on a few rows times a transposed
C-ordered matrix. No bit depends on the layout; checkpoints store each
tensor in C order.

BPTT flushes every component of the backward state (dh, dc) whose
magnitude is below ``GRAD_FLUSH`` (2**-100) to zero after each step,
and stops once the state of every row is exactly zero. Over a long
window the backward signal vanishes; in float32 it never reaches zero
but sinks into subnormals, and every further step then runs on
subnormal operands at about 20x the cost. A gradient change g of the
flushed size moves a parameter by at most lr / eps * |g| through Adam,
about 1e-26 at the default settings. The float64 finite-difference
checks are not affected.
"""

from __future__ import annotations

import bisect
import copy
import functools
import math
from dataclasses import dataclass, field
from typing import Iterator, Sequence

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


def param_shapes(dims: ModelDims) -> tuple[tuple[str, tuple[int, ...]], ...]:
    """Name and shape of every parameter tensor, in the canonical order
    that initialization, the flat buffers and the checkpoint follow."""
    h4 = 4 * dims.hidden
    shapes = [("embedding", (dims.vocab_rows, dims.embed_dim))]
    for direction in ("forward_dir", "backward_dir"):
        shapes += [(f"{direction}.W", (h4, dims.embed_dim)),
                   (f"{direction}.U", (h4, dims.hidden)), (f"{direction}.b", (h4,))]
    return tuple(shapes + [("head.W", (dims.classes, dims.hidden)),
                           ("head.b", (dims.classes,))])


def param_size(dims: ModelDims) -> int:
    return sum(math.prod(shape) for _, shape in param_shapes(dims))


class ParamBuffer:
    """Every parameter tensor in one contiguous 1-D buffer ``flat``, with a
    named view each, in :func:`param_shapes` order (see the module
    docstring). Tensors start on 64-byte boundaries, because OpenBLAS's
    small products ran about 5% slower on W and U aligned to 16 bytes; the
    gaps stay zero. ``values``, a flat buffer of this layout, is copied in."""

    def __init__(self, dims: ModelDims, dtype=np.float32,
                 values: np.ndarray | None = None):
        self.dims, self.views = dims, {}
        sizes = [-(-math.prod(shape) // 16) * 16 for _, shape in param_shapes(dims)]
        self.starts = [sum(sizes[:k]) for k in range(len(sizes))]
        nbytes = sum(sizes) * np.dtype(dtype).itemsize
        raw = np.zeros(nbytes + 64, np.uint8)
        self.flat = raw[-raw.ctypes.data % 64:][:nbytes].view(dtype)
        if values is not None:
            self.flat[...] = values
        for (name, shape), start in zip(param_shapes(dims), self.starts):
            chunk = self.flat[start:start + math.prod(shape)]
            order = "F" if name.endswith(("_dir.W", "_dir.U")) else "C"
            self.views[name] = chunk.reshape(shape, order=order)

    @classmethod
    def zeros_like(cls, model: "BiLstmClassifier") -> "ParamBuffer":
        return cls(model.dims, model.dtype)

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(self.views.values())

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds element ``index`` of ``flat``."""
        return list(self.views)[bisect.bisect_right(self.starts, index) - 1]

    def __reduce__(self):  # a copy or a pickle gets its own aligned buffer
        return type(self), (self.dims, self.flat.dtype, self.flat)

    def __deepcopy__(self, memo) -> "ParamBuffer":  # one copy; __reduce__ makes two
        return type(self)(self.dims, self.flat.dtype, self.flat)


@dataclass
class LstmDirectionParams:
    """One direction's weights: W (4H, E), U (4H, H), b (4H,)."""

    W: np.ndarray
    U: np.ndarray
    b: np.ndarray


@dataclass
class DenseParams:
    W: np.ndarray
    b: np.ndarray


def _unpack(params: ParamBuffer):
    v = params.views
    dirs = (LstmDirectionParams(v[f"{d}.W"], v[f"{d}.U"], v[f"{d}.b"])
            for d in ("forward_dir", "backward_dir"))
    return v["embedding"], *dirs, DenseParams(v["head.W"], v["head.b"])


@dataclass
class BiLstmClassifier:
    """Its tensors are views of one :class:`ParamBuffer`, ``params``; write
    into them rather than rebinding them. Tensors that are not views of
    ``params`` are copied into a new buffer at construction."""

    dims: ModelDims
    embedding: np.ndarray
    forward_dir: LstmDirectionParams
    backward_dir: LstmDirectionParams
    head: DenseParams
    labels: tuple[str, ...]
    vocab_digest: str = ""
    activation: str = "relu"
    params: ParamBuffer | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        d = self.dims
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if len(self.labels) != d.classes:
            raise ValueError("label order length must equal the class count")
        tensors = list(iter_parameters(self))
        for (name, arr), (_, shape) in zip(tensors, param_shapes(d)):
            if arr.shape != shape:
                raise ValueError(f"{name} has shape {arr.shape}, expected {shape}")
        if self.params is None or any(a is not self.params.views[n] for n, a in tensors):
            self.params = ParamBuffer(d, self.embedding.dtype)
            for name, arr in tensors:
                self.params.views[name][...] = arr
            self.embedding, self.forward_dir, self.backward_dir, self.head = \
                _unpack(self.params)

    @classmethod
    def from_params(cls, params: ParamBuffer, labels: tuple[str, ...],
                    vocab_digest: str = "", activation: str = "relu"):
        """A model whose tensors are the views of ``params`` (no copy)."""
        return cls(params.dims, *_unpack(params), labels, vocab_digest, activation,
                   params)

    @property
    def dtype(self) -> np.dtype:
        return self.params.flat.dtype

    def clone(self) -> "BiLstmClassifier":
        return copy.deepcopy(self)

    def __reduce__(self):  # a copy or a pickle gets views of its own buffer
        return BiLstmClassifier.from_params, (self.params, self.labels,
                                              self.vocab_digest, self.activation)


def iter_parameters(model: BiLstmClassifier) -> Iterator[tuple[str, np.ndarray]]:
    """(name, tensor) of the model's attributes in param_shapes order."""
    for name, _ in param_shapes(model.dims):
        yield name, functools.reduce(getattr, name.split("."), model)


def parameter_count(model: BiLstmClassifier) -> int:
    return param_size(model.dims)


class Gradients(ParamBuffer):
    """Gradient buffers in the parameter layout."""

    def zero_(self) -> None:
        self.flat.fill(0)

    def scale_(self, k: float) -> None:
        self.flat *= self.flat.dtype.type(k)

    def global_norm(self) -> float:
        return math.sqrt(sum(float(np.sum(arr.astype(np.float64) ** 2))
                             for arr in self.arrays()))


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # two-branch form, 1/(1+e) for z >= 0 and e/(1+e) for z < 0 with
    # e = exp(-|z|), without a masked select: exp(min(z, 0)) is 1 or e.
    # exp() only ever sees non-positive arguments.
    d = 1.0 + np.exp(-np.abs(z))
    return np.divide(np.exp(np.minimum(z, 0)), d, out=out)


def _cell_phi(activation: str):
    if activation == "relu":
        return lambda v: np.maximum(v, 0)
    return np.tanh


def _phi_derivative(activation: str, pre: np.ndarray, post: np.ndarray) -> np.ndarray:
    if activation == "relu":
        return (pre > 0).astype(pre.dtype)
    return 1.0 - post * post  # tanh'


def _cell_activation(model: BiLstmClassifier) -> str:
    return "tanh" if model.activation == "relu_after_merge" else model.activation


def softmax(logits: np.ndarray) -> np.ndarray:
    """Softmax over the last axis (one row per document)."""
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=-1, keepdims=True)


@dataclass
class ForwardTrace:
    """What BPTT reads from one lockstep forward pass.

    Rows are the documents sorted longest first. Step s takes
    ``steps[s]`` consecutive packed rows, one per running document,
    after ``lead`` (at least 2) rows of zero state: PAD tokens, zero c
    and h. Axis 1 is the direction; backward step s reads text position
    ``length - 1 - s``. Per-document fields are in row order.
    """

    order: list[int]          # input index of each row
    steps: list[int]          # rows running at each step
    starts: list[int]         # first packed row of each step
    lead: int                 # zero-state rows before step 0
    tokens: np.ndarray        # (lead + N, 2) token ids
    gates: np.ndarray         # (lead + N, 2, 4H) [i, f, g, o] after activation
    c: np.ndarray             # (lead + N, 2, H) cell states
    h: np.ndarray             # (lead + N, 2, H) hidden states
    merged_pre: np.ndarray    # (B, H)
    merged: np.ndarray        # (B, H)
    probs: np.ndarray         # (B, classes)
    model: BiLstmClassifier = field(repr=False)


def _name(k: int, doc_ids: Sequence[str] | None) -> str:
    return f"sequence {k}" if doc_ids is None else f"document {doc_ids[k]!r}"


def _check_ids(seqs: Sequence[EncodedSequence], rows: int,
               doc_ids: Sequence[str] | None) -> list[np.ndarray]:
    for k, seq in enumerate(seqs):
        if seq.length == 0:
            raise DataError(f"{_name(k, doc_ids)}: empty sequence")
    ids = [np.asarray(seq.ids[:seq.length]) for seq in seqs]
    if int(np.concatenate(ids).max()) >= rows:  # one check for the whole batch
        k = next(k for k, row in enumerate(ids) if int(row.max()) >= rows)
        raise DataError(f"{_name(k, doc_ids)}: token id {int(ids[k].max())} "
                        f"outside the embedding table ({rows} rows)")
    return ids


def forward(
    seqs: Sequence[EncodedSequence],
    model: BiLstmClassifier,
    doc_ids: Sequence[str] | None = None,
) -> tuple[np.ndarray, ForwardTrace]:
    """Lockstep pass of a batch over each sequence's non-PAD prefix.

    Returns the (B, classes) probabilities in input order and the trace
    BPTT needs. PAD positions never enter either recurrence. The merge
    sums the forward direction's final hidden state with the backward
    direction's final hidden state (text position 0). A document's
    probabilities do not depend on the other documents in the batch or
    on their order. ``doc_ids`` only name the document in an error.
    """
    if not seqs:
        raise ValueError("forward needs at least one sequence")
    ids = _check_ids(seqs, model.dims.vocab_rows, doc_ids)
    hidden, dtype = model.dims.hidden, model.dtype
    phi = _cell_phi(_cell_activation(model))

    order = sorted(range(len(ids)), key=lambda k: -ids[k].size)
    lens = np.array([ids[k].size for k in order])
    batch, lead = len(ids), max(len(ids), 2)
    by_step = np.zeros((lens[0], batch, 2), np.intp)  # each direction's
    for j, k in enumerate(order):                     # token at each step
        by_step[:lens[j], j, 0] = ids[k]
        by_step[:lens[j], j, 1] = ids[k][::-1]
    running = np.arange(lens[0])[:, None] < lens
    steps = running.sum(axis=1).tolist()
    tokens = np.zeros((lead + lens.sum(), 2), np.intp)
    tokens[lead:] = by_step[running]

    dirs = (model.forward_dir, model.backward_dir)
    x = model.embedding[tokens]
    gates = np.empty(tokens.shape + (4 * hidden,), dtype)
    for d, p in enumerate(dirs):
        np.matmul(x[:, d], p.W.T, out=gates[:, d])
        gates[:, d] += p.b
    c_all = np.zeros(tokens.shape + (hidden,), dtype)
    h_all = np.zeros(tokens.shape + (hidden,), dtype)
    hu = np.empty((lead, 2, 4 * hidden), dtype)
    starts = []
    prev, lo = 0, lead
    for k in steps:
        starts.append(lo)
        m = max(k, 2)  # row floor: one-row products take other kernels
        for d, p in enumerate(dirs):
            np.matmul(h_all[prev:prev + m, d], p.U.T, out=hu[:m, d])
        z = gates[lo:lo + k]
        z += hu[:k]
        g = phi(z[..., 2 * hidden:3 * hidden])
        _sigmoid(z, out=z)  # the candidate block's share is overwritten next
        z[..., 2 * hidden:3 * hidden] = g
        c = c_all[lo:lo + k]
        np.multiply(z[..., hidden:2 * hidden], c_all[prev:prev + k], out=c)
        c += z[..., :hidden] * g
        np.multiply(z[..., 3 * hidden:], phi(c), out=h_all[lo:lo + k])
        prev, lo = lo, lo + k

    finite = np.isfinite(h_all).all(axis=(1, 2)) & np.isfinite(c_all).all(axis=(1, 2))
    if not finite.all():
        bad = int(np.argmin(finite))
        s = bisect.bisect_right(starts, bad) - 1
        raise NumericError(f"{_name(order[bad - starts[s]], doc_ids)}: "
                           f"non-finite LSTM state at timestep {s}")

    # each row's final states, and a zero row so that the head's product
    # has two rows or more
    final = h_all[[starts[n - 1] + j for j, n in enumerate(lens.tolist())] + [0]]
    merged_pre = final[:, 0] + final[:, 1]
    merged = (np.maximum(merged_pre, 0) if model.activation == "relu_after_merge"
              else merged_pre)
    logits = merged @ model.head.W.T + model.head.b
    probs = softmax(logits)
    trace = ForwardTrace(
        order=order, steps=steps, starts=starts, lead=lead, tokens=tokens,
        gates=gates, c=c_all, h=h_all, merged_pre=merged_pre[:batch],
        merged=merged[:batch], probs=probs[:batch], model=model,
    )
    return trace.probs[np.argsort(order)], trace


def loss(probs: np.ndarray, target: int) -> float:
    """Categorical cross-entropy with the probability floored at 1e-12."""
    if not 0 <= target < probs.shape[0]:
        raise ValueError(f"target {target} out of range for {probs.shape[0]} classes")
    total = float(np.sum(probs))
    if abs(total - 1.0) > 1e-5 or float(np.min(probs)) < -1e-5:
        raise ValueError("probs are not on the simplex")
    return -math.log(max(float(probs[target]), 1e-12))


def backward(
    trace: ForwardTrace,
    targets: Sequence[int],
    model: BiLstmClassifier,
    out: Gradients | None = None,
) -> Gradients:
    """Exact BPTT of the summed cross-entropy loss of a forward batch.

    ``targets`` are in the batch's input order. Contributions are
    added into ``out`` (a fresh zero buffer when not supplied), so a
    caller can accumulate a mini-batch into one caller-owned buffer.
    Only embedding rows that actually appear in the batch receive
    gradient. The rows run backward in the forward's lockstep.
    """
    if trace.model is not model:
        raise ValueError("trace was produced by a different model")
    batch = len(trace.order)
    targets = np.asarray(targets)
    if targets.shape != (batch,):
        raise ValueError(f"{targets.size} targets for a batch of {batch}")
    if targets.min() < 0 or targets.max() >= model.dims.classes:
        raise ValueError(f"target out of range for {model.dims.classes} classes")
    grads = Gradients.zeros_like(model) if out is None else out

    cell_act = _cell_activation(model)
    phi = _cell_phi(cell_act)
    hidden = model.dims.hidden
    steps = trace.steps

    dlogits = trace.probs.copy()
    dlogits[np.arange(batch), targets[trace.order]] -= 1.0
    gv = grads.views
    gv["head.W"] += dlogits.T @ trace.merged
    gv["head.b"] += dlogits.sum(axis=0)
    dmerged = dlogits @ model.head.W
    if model.activation == "relu_after_merge":
        dmerged = dmerged * (trace.merged_pre > 0)

    # per row, dh and dc of both directions; a row's dh starts at dmerged
    # in both directions once BPTT reaches its last step
    state = np.zeros((batch, 2, 2, hidden), model.dtype)
    state[:, 0] = dmerged[:, None]
    dZ = np.empty_like(trace.gates)
    U = [np.ascontiguousarray(p.U) for p in (model.forward_dir, model.backward_dir)]
    starts = trace.starts
    stop = 0
    for s in range(len(steps) - 1, -1, -1):
        k, lo = steps[s], starts[s]
        prev = starts[s - 1] if s else 0
        gates = trace.gates[lo:lo + k]
        i, f = gates[..., :hidden], gates[..., hidden:2 * hidden]
        g, o = gates[..., 2 * hidden:3 * hidden], gates[..., 3 * hidden:]
        c, c_prev = trace.c[lo:lo + k], trace.c[prev:prev + k]
        live = state[:k]
        dh, dc = live[:, 0], live[:, 1]
        pc = phi(c)
        do = dh * pc
        dc += dh * o * _phi_derivative(cell_act, c, pc)
        dz = dZ[lo:lo + k]
        dz[..., :hidden] = dc * g * i * (1.0 - i)
        dz[..., hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        dz[..., 2 * hidden:3 * hidden] = dc * i * _phi_derivative(cell_act, g, g)
        dz[..., 3 * hidden:] = do * o * (1.0 - o)
        if s:
            for d in (0, 1):
                np.matmul(dz[:, d], U[d], out=dh[:, d])
            dc *= f
            live[np.abs(live) < GRAD_FLUSH] = 0
            if k == batch and not live.any():
                stop = s  # exact: every earlier row is linear in dh, dc
                break

    # the post-loop products cover only the rows BPTT reached; a row's
    # previous step is as many rows back as were running in that step
    lo = starts[stop]
    back = np.repeat(([trace.lead] + steps[:-1])[stop:], steps[stop:])
    prev = np.arange(lo, lo + back.size) - back
    for d, name in enumerate(("forward_dir", "backward_dir")):
        dz = dZ[lo:, d]
        tokens = trace.tokens[lo:, d]
        gv[f"{name}.W"] += dz.T @ model.embedding[tokens]
        gv[f"{name}.U"] += dz.T @ trace.h[prev, d]
        gv[f"{name}.b"] += dz.sum(axis=0)
        np.add.at(gv["embedding"], tokens, dz @ getattr(model, name).W)

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
    params = ParamBuffer(dims, dtype)
    for view in params.arrays():
        if view.ndim == 2:  # in place, the same bits as (u * 2 - 1) * bound
            u = rng.uniform_floats(view.size)
            u *= 2.0
            u -= 1.0
            u *= math.sqrt(6.0 / sum(view.shape))
            view[...] = u.reshape(view.shape)
    for direction in ("forward_dir", "backward_dir"):
        params.views[f"{direction}.b"][dims.hidden:2 * dims.hidden] = 1.0
    if labels is None:
        labels = tuple(str(i) for i in range(dims.classes))
    return BiLstmClassifier.from_params(params, tuple(labels), vocab_digest, activation)
