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
``h[:k] @ U.T`` per direction, run in row pieces, plus one set of gate
ufuncs on both directions stacked. The backward direction reverses
each row within its own length, so PAD never enters the recurrence and
no masks are needed.

The one step loop runs in two modes. Training (``keep_trace=True``)
keeps the trace BPTT reads: the input projection ``x @ W.T`` of every
packed row, run before the loop, and the gates, c and h of every
packed row, 2 * (4H + 2H) floats per token (9.6 KB at hidden 200, 154 MB
for 16 documents of 1000 tokens in float32). BPTT spends that trace: each
step's dz goes into one step-sized buffer and then over the gates the
step has read, so :func:`backward` allocates no second array the size of
the gates, and a trace serves one :func:`backward`. Inference
(``keep_trace=False``, which ``trainer.map_forward`` runs) keeps no
trace: c and h live in one row per document, overwritten in place at
each step, and the projection runs in chunks of ``PROJECTION_ROWS``
packed rows (at least the batch's rows) into one reused buffer as the
loop reaches them. A document's final h is the row it stopped in,
since later steps run only the longer documents' rows before it. Per
token it holds only the token ids (16 bytes packed, and at least as much
in the step table); the rest is one chunk, the per-document state and
the step's temporaries, which grow with the rows per step: about 2.4 MiB
for 16 documents of 1000 tokens at reference dims. Both modes run the
same products and ufuncs on the same rows, so their probabilities have
the same bits.

Both modes share one finite check, run on what the call returns: first
each document's final c and h rows, then its probabilities. The final
rows hold every fault of the recurrence, since a non-finite c or h stays
non-finite to the document's last step: ``f * c`` of an infinite or NaN
c is not finite, and an h that is not finite over a finite c is NaN
(from a NaN output gate), which ``h @ U.T`` carries into every gate of
the next step. A non-finite final row is a NumericError naming the
document and the timestep at which its state first left the finite
range; only then does the traced pass scan every packed row to find it,
and the untraced pass reruns the group traced to do so. The head can
overflow on finite states, as the ReLU cell is unbounded: a probability
row that is not finite is a NumericError naming the document ("non-finite
class probabilities"). The arithmetic runs with numpy's overflow and
invalid-value warnings off, so that NumericError is all a caller sees. So
every probability :func:`forward` returns is finite and on the simplex,
its :func:`loss` is finite, and training needs no check of its own;
``trainer.adam_update`` still checks the gradient. :func:`loss` refuses
probabilities off the simplex, NaN among them.

A document's bits do not depend on its batch: every operation is
elementwise or a matrix product whose output row depends only on its
own input row, and OpenBLAS gives such a row the same bits for any
row count of 2 or more, though not through its one-row and
matrix-vector kernels. So no product runs on fewer than two rows (the
row floor); a lone row takes a spare zero row along. The head's
product (hidden by 6 classes at reference dims) breaks the row
property: OpenBLAS gives the rows that fall in one of its blocks of
four rows other bits than the rows of a 2- or 3-row product. So the
head runs every row in a product of two rows, the shape of a lone
document's head.

The row property also lets a step's ``h[:k] @ U.T`` run in pieces,
and :func:`forward` cuts it at OpenBLAS's small-matrix bound
(``BLAS_SMALL_MNK``, :func:`_row_pieces`): balanced pieces of at most
10**6 / (4H * H) rows, 6 at hidden 200. On a core with a small-matrix
kernel (``SkylakeX``, the core OpenBLAS 0.3.31 picks on a Sapphire
Rapids Xeon; one thread) a product within the bound skips packing U,
and one row more packs all of U again. At hidden 200 one float32
product took, by row count (minimum of 25 runs; the 5- and 6-row
products ran at about 21 µs in another run, see CHANGES.md):

    rows   2    4    6    7    8    9    10
    µs     18   20   34   82   60   78   81   as one product
    µs                    55   42   56   70   in pieces of at most 6

No bit moves: each output row has the same bits for every row count
of 2 or more, which ``TestBlasRowInvariance`` checks for 2 to 16 rows.
On a BLAS with no small-matrix path the pieces only cost extra calls.
The input projection and ``backward`` are not cut at the bound (the
untraced pass projects in chunks of rows, which keep their bits):
``backward``'s ``dz @ U`` rows change bits across the bound.

One layout holds every parameter: :func:`param_shapes` lists the nine
tensors in order, and a :class:`ParamBuffer` holds them in one
contiguous 1-D buffer with a named view each. The model is its buffer,
``model.params``, and code reads a tensor as
``model.params.views["forward_dir.U"]``; there is no second copy of
the layout. The gradients and Adam's two moments use it too, so
zeroing, scaling, copying and the Adam step are passes over one
array, and the gradient norm one pass over each tensor's memory. The
views of W and U are Fortran-ordered so that ``W.T`` and ``U.T`` are
contiguous: OpenBLAS is several times slower on a few rows times a
transposed C-ordered matrix. No bit depends on the layout; checkpoints
store each tensor in C order.

The embedding holds 95% of the parameters at reference dims, and a
training batch touches a few hundred of its 100,002 rows, so the
gradient and Adam's state each keep a mask of the embedding rows that
may be nonzero. Every pass over them walks one list of parts
(:func:`_walk`): the mask's rows, gathered in chunks, then every tensor
after the embedding in blocks. Outside the mask the gradient, m and v
are zero, where every pass changes no bit, so a pass gives the bits of
its expression over the whole buffer (see :class:`Gradients` and
``trainer.AdamState``). The embedding of the gradient and moment
buffers is on base pages (:func:`_small_pages`), so a pass over a few
rows of a fresh buffer faults in a few pages, not a few 2 MB huge pages;
the tensors after it, written whole by every batch, keep their huge
pages.

Every pass and projection runs on the calling thread. The step loop
stays on one thread: it holds the GIL between its small products, and
one LSTM direction per thread ran 0.37-0.95 times as fast.

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
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .corpus import LabelSet
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

# Elements per block of the passes over flat buffers: the unit that
# Gradients.global_norm and trainer.adam_update walk through block-sized
# scratch, at which every flat slice of a pass is cut, and, divided by the
# embedding width, the rows per chunk a pass gathers (655 at reference
# dims; see _walk). A block of Adam's six arrays (1.5 MB in float32) stays
# in a 2 MB L2 cache. Adam's step ran 11% faster than at 131,072
# (reference dims; see CHANGES.md).
ADAM_BLOCK = 65_536

# numpy asks the kernel for transparent huge pages on arrays of this many
# bytes or more (see _small_pages).
HUGE_PAGE_ARRAY = 4 << 20

# The size of a transparent huge page on x86-64 (see _small_pages).
HUGE_PAGE = 2 << 20

# OpenBLAS's small-matrix limit: it runs a product of M*N*K <= 10**6 on
# its small-matrix kernel, which does not pack the other operand, on the
# cores that have one. forward() keeps each step's h @ U.T under it; the
# cliff was measured at 25, 6 and 2 rows for hidden 100, 200 and 300 (see the
# module docstring and CHANGES.md).
BLAS_SMALL_MNK = 1_000_000

# Packed rows per chunk of the input projection when forward() keeps no
# trace (at least the batch's row count; see the module docstring). At
# reference dims 64 to 512 rows ran 64 documents of 1000 tokens at the
# same docs/s within noise, and 1024 or more about 7% slower; 256 rows of
# float32 gates are 1.6 MB (see CHANGES.md).
PROJECTION_ROWS = 256

# The two LSTM directions, in parameter order.
DIRECTIONS = ("forward_dir", "backward_dir")


def _walk(buf: "ParamBuffer", mask: np.ndarray) -> list[slice | np.ndarray]:
    """The parts of a pass over ``buf``, in order: the embedding rows of
    ``mask`` (a boolean mask over them) in chunks of at most
    ``ADAM_BLOCK // embed_dim`` row ids, which the pass gathers (see
    :func:`_gathered`), then slices of ``buf.flat`` of at most ADAM_BLOCK
    elements over everything after the embedding, gaps included."""
    size, block = buf.flat.size, ADAM_BLOCK
    rows = np.flatnonzero(mask)
    per = max(1, block // buf.dims.embed_dim)
    return ([rows[lo:lo + per] for lo in range(0, len(rows), per)]
            + [slice(lo, min(lo + block, size)) for lo in range(buf.starts[1], size, block)])


def _gathered(parts: list[slice | np.ndarray], bufs: Sequence["ParamBuffer"],
              writes: Sequence[int]):
    """For each part of a pass (see :func:`_walk`), the part of each buffer
    of ``bufs`` as a 1-D array: for a slice, the slice of its ``flat``; for
    a chunk of rows, those embedding rows gathered into scratch of this
    call, and, once the caller moves on, written back to the buffers at
    positions ``writes``. Yields the part with the arrays. Scratch is
    ``len(bufs)`` arrays the size of the first chunk, the largest."""
    scratch = None
    for part in parts:
        if isinstance(part, slice):
            yield part, [buf.flat[part] for buf in bufs]
            continue
        width = bufs[0].dims.embed_dim
        if scratch is None:
            scratch = np.empty((len(bufs), part.size * width), bufs[0].flat.dtype)
        rows = [s[:part.size * width] for s in scratch]
        for buf, out in zip(bufs, rows):
            # clip, not raise, which copies out; the write-back checks the ids
            np.take(buf.views["embedding"], part, axis=0,
                    out=out.reshape(part.size, width), mode="clip")
        yield part, rows
        for k in writes:
            bufs[k].views["embedding"][part] = rows[k].reshape(part.size, width)


def _small_pages(a: np.ndarray, end: int) -> None:
    """Ask the kernel to back the untouched pages of ``a[:end]``, up to its
    last HUGE_PAGE boundary, with base pages (4 KB on x86-64), not the
    transparent huge pages that numpy asks for on arrays of HUGE_PAGE_ARRAY
    bytes or more; a no-op where the platform has no ``MADV_NOHUGEPAGE``.
    The first write to a page of a fresh buffer zeroes the whole page, so a
    pass over a few scattered rows of a fresh huge-paged buffer zeroes 2 MB
    per row: 150 scattered row writes into a fresh 42 MB buffer took 7.2 ms,
    and 0.53 ms on base pages (a full fill took 9.4 against 29.6 ms). The
    rest of ``a`` keeps its huge pages: ``zeros_like`` advises only the
    embedding, and every batch writes the 1.93 MB after it whole, where
    one or two huge pages fault in place of about 470 base pages (Adam's
    step on a fresh train-long batch took 11.4-12.5 against 14.5-15.0 ms,
    medians of three sessions of interleaved rounds; see CHANGES.md). The
    array stays numpy's own allocation, which tracemalloc sees."""
    if a.nbytes < HUGE_PAGE_ARRAY:
        return
    # imported here: mmap's extension module would add 0.3 MB to the
    # resident size of every `import lexseq`; numpy has imported ctypes
    import ctypes
    import mmap
    advice = getattr(mmap, "MADV_NOHUGEPAGE", None)
    if advice is None:
        return
    madvise = ctypes.CDLL(None).madvise
    madvise.argtypes = (ctypes.c_void_p, ctypes.c_size_t, ctypes.c_int)
    madvise.restype = ctypes.c_int
    page = mmap.PAGESIZE
    lo = -(-a.ctypes.data // page) * page  # the first whole page inside a
    hi = (a.ctypes.data + end * a.itemsize) // HUGE_PAGE * HUGE_PAGE
    if hi > lo:
        # advice only: where the kernel refuses it, the pages stay as they were
        madvise(lo, hi - lo, advice)


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
    for direction in DIRECTIONS:
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
        """A zero buffer in ``model``'s layout, its embedding on base pages
        (see :func:`_small_pages`), for the gradients and Adam's moments."""
        buf = cls(model.dims, model.dtype)
        _small_pages(buf.flat, buf.starts[1])
        return buf

    def arrays(self) -> tuple[np.ndarray, ...]:
        return tuple(self.views.values())

    def nonzero_rows(self) -> np.ndarray:
        """The boolean mask of the embedding rows with a nonzero bit; -0.0
        and NaN count."""
        embedding = self.views["embedding"]
        return embedding.view(f"u{embedding.itemsize}").any(axis=1)

    def name_at(self, index: int) -> str:
        """Name of the tensor that holds element ``index`` of ``flat``."""
        return list(self.views)[bisect.bisect_right(self.starts, index) - 1]

    def __reduce__(self):  # a copy or a pickle gets its own aligned buffer
        return type(self), (self.dims, self.flat.dtype, self.flat)

    def __deepcopy__(self, memo) -> "ParamBuffer":  # one copy; __reduce__ makes two
        return type(self)(self.dims, self.flat.dtype, self.flat)


@dataclass
class BiLstmClassifier:
    """The model is its parameter buffer ``params`` (taken as given, not
    copied) with the label order, the vocabulary digest and the
    activation. Read and write a tensor as ``params.views[name]``.
    ``copy.deepcopy`` and pickling give a model with its own aligned
    buffer (see :class:`ParamBuffer`). The labels must form a
    :class:`LabelSet`, as ``load_checkpoint`` requires of a header."""

    params: ParamBuffer
    labels: tuple[str, ...]
    vocab_digest: str = ""
    activation: str = "relu"

    def __post_init__(self):
        if self.activation not in ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        LabelSet(self.labels)
        if len(self.labels) != self.dims.classes:
            raise ValueError("label order length must equal the class count")

    @property
    def dims(self) -> ModelDims:
        return self.params.dims

    @property
    def dtype(self) -> np.dtype:
        return self.params.flat.dtype


class Gradients(ParamBuffer):
    """Gradient buffers in the parameter layout.

    ``rows`` is a boolean mask over the embedding rows that holds every
    row that may be nonzero; a row outside it is taken to be zero. A fresh
    buffer starts it empty, and one built from values (a copy, a pickle)
    takes its :meth:`nonzero_rows`. :func:`backward` sets the rows it adds
    gradient into, and ``zero_`` clears the mask. Code that writes the
    embedding by hand, not through :func:`backward`, must set the rows it
    writes.

    ``zero_``, ``scale_`` and ``global_norm`` walk the rows of the mask and
    every tensor after the embedding (see :func:`_walk`): ``scale_`` gathers
    the rows into scratch in chunks, scales them and writes them back,
    ``zero_`` writes zero rows, and the norm sums every block of the
    embedding's memory that one of the rows reaches. So the passes cost
    what a batch touched, not the vocabulary, and give the bits of
    ``flat.fill(0)``, ``flat *= k`` and the norm of every block: zero and
    ``0 * k`` stay zero, and a block with none of the rows sums to exactly
    0.0."""

    def __init__(self, dims: ModelDims, dtype=np.float32,
                 values: np.ndarray | None = None):
        super().__init__(dims, dtype, values)
        self.rows = np.zeros(dims.vocab_rows, bool) if values is None else self.nonzero_rows()

    def zero_(self) -> None:
        embedding = self.views["embedding"]
        for part in _walk(self, self.rows):
            if isinstance(part, slice):
                self.flat[part].fill(0)
            else:
                embedding[part] = 0
        self.rows[:] = False

    def scale_(self, k: float) -> None:
        k = self.flat.dtype.type(k)
        for _, (grad,) in _gathered(_walk(self, self.rows), (self,), (0,)):
            np.multiply(grad, k, out=grad)

    def global_norm(self) -> float:
        """L2 norm of every gradient tensor, squared and summed in float64
        over blocks of each tensor's memory; the gaps are not read. The
        blocks' sums are added one by one in block order. An embedding
        block that none of ``rows`` reaches is not summed: its sum would be
        exactly 0.0, and adding it to the nonnegative total changes no bit.
        A block that one reaches is summed whole."""
        # views, not copies: W and U are F-contiguous
        memories = [view.ravel(order="A") for view in self.arrays()]
        blocks = [(memory, lo) for memory in memories
                  for lo in range(0, memory.size, ADAM_BLOCK)]
        # the embedding's blocks are the buffer's first
        width, count = self.dims.embed_dim, -(-memories[0].size // ADAM_BLOCK)
        rows = np.flatnonzero(self.rows)
        # a row reaches the blocks from its first element's to its last's
        first = rows * width // ADAM_BLOCK
        last = ((rows + 1) * width - 1) // ADAM_BLOCK
        reached = np.cumsum(np.bincount(first, minlength=count + 1)
                            - np.bincount(last + 1, minlength=count + 1)) > 0
        blocks = [blocks[k] for k in np.flatnonzero(reached).tolist()] + blocks[count:]
        square = np.empty(ADAM_BLOCK, np.float64)
        total = 0.0
        for memory, lo in blocks:
            block = memory[lo:lo + ADAM_BLOCK]
            total += float(np.multiply(block, block, out=square[:block.size],
                                       dtype=np.float64).sum())
        return math.sqrt(total)


def _sigmoid(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # two-branch form, 1/(1+e) for z >= 0 and e/(1+e) for z < 0 with
    # e = exp(-|z|), without a masked select and with one exp: the
    # numerator max(e, z >= 0) is e for z < 0 (where -|z| is z exactly)
    # and 1 for z >= 0 (where e <= 1). exp() only sees non-positive
    # arguments. min(z, -z) is -|z| but keeps a NaN's sign bit, so a NaN
    # comes out with the bits that exp(min(z, 0)) / (1 + exp(-|z|)) gives.
    e = np.negative(z)
    np.minimum(z, e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, z >= 0, out=e)
    return np.divide(e, d, out=out)


def _row_pieces(m: int, bound: int) -> tuple[tuple[int, int], ...]:
    """Row ranges ``[lo, hi)`` that cover ``[0, m)`` in order: balanced
    pieces of at most ``bound`` rows, none of one row (the row floor).
    A product of ``m <= bound`` rows, or with ``bound < 2``, stays one
    piece. Only at ``bound == 2`` with ``m`` odd would a piece have one
    row; the last piece then starts a row early and computes that row
    twice, with the same bits."""
    if m <= bound or bound < 2:
        return ((0, m),)
    n = -(-m // bound)
    cuts = [-(-m * j // n) for j in range(n + 1)]  # ceiling cuts: larger pieces first
    return tuple((min(lo, hi - 2), hi) for lo, hi in zip(cuts, cuts[1:]))


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

    :func:`backward` spends the trace: it writes each step's dz over the
    gates of the rows BPTT reached, and sets ``spent``.
    """

    order: list[int]          # input index of each row
    steps: list[int]          # rows running at each step
    starts: list[int]         # first packed row of each step
    lead: int                 # zero-state rows before step 0
    tokens: np.ndarray        # (lead + N, 2) token ids
    gates: np.ndarray         # (lead + N, 2, 4H) [i, f, g, o] after activation;
                              # dz once spent
    c: np.ndarray             # (lead + N, 2, H) cell states
    h: np.ndarray             # (lead + N, 2, H) hidden states
    merged_pre: np.ndarray    # (B, H)
    merged: np.ndarray        # (B, H)
    probs: np.ndarray         # (B, classes)
    model: BiLstmClassifier = field(repr=False)
    spent: bool = False       # backward has overwritten the gates with dz


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
    keep_trace: bool = True,
) -> tuple[np.ndarray, ForwardTrace | None]:
    """Lockstep pass of a batch over each sequence's non-PAD prefix.

    Returns the (B, classes) probabilities in input order and the trace
    BPTT needs, or None in its place with ``keep_trace=False``, which
    keeps only the running state (see the module docstring); the
    probabilities are the same bits either way. PAD positions never
    enter either recurrence. The merge sums the forward direction's
    final hidden state with the backward direction's final hidden state
    (text position 0). A document's probabilities do not depend on the
    other documents in the batch or on their order. ``doc_ids`` only
    name the document in an error.

    Every probability returned is finite: a non-finite final c or h row
    raises NumericError naming the document and the timestep, and a
    non-finite probability row, from a head that overflows on finite
    states, one naming the document (see the module docstring).
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
    steps = running.sum(axis=1)
    starts = (lead + np.cumsum(steps) - steps).tolist()  # first packed row of each step
    steps = steps.tolist()
    tokens = np.zeros((lead + lens.sum(), 2), np.intp)
    tokens[lead:] = by_step[running]

    # overflow and NaN are caught by the finite check below, as one
    # NumericError; numpy warns of neither
    with np.errstate(over="ignore", invalid="ignore"):
        v = model.params.views
        # traced: the projection of every packed row, and the state of every
        # packed row after lead zero rows; untraced: the projection of one
        # chunk of packed rows at a time, and one state row per document,
        # overwritten at each step, plus a zero row for a lone row's head
        gates = np.empty((len(tokens) if keep_trace else max(PROJECTION_ROWS, batch),
                          2, 4 * hidden), dtype)
        state_rows = len(tokens) if keep_trace else batch + 1
        c_rows = np.zeros((state_rows, 2, hidden), dtype)
        h_rows = np.zeros((state_rows, 2, hidden), dtype)

        def project(lo: int) -> int:
            """Project packed rows from ``lo`` into ``gates``; the end row."""
            hi = min(len(tokens), lo + len(gates))
            x = v["embedding"][tokens[lo:hi]]
            for d, name in enumerate(DIRECTIONS):
                np.matmul(x[:, d], v[f"{name}.W"].T, out=gates[:hi - lo, d])
                gates[:hi - lo, d] += v[f"{name}.b"]
            return hi

        Us = [v[f"{name}.U"] for name in DIRECTIONS]
        hu = np.empty((lead, 2, 4 * hidden), dtype)
        # pieces within the small-matrix bound and never of one row (the row
        # floor: one-row products take other kernels)
        bound = BLAS_SMALL_MNK // (4 * hidden * hidden)
        pieces = {k: _row_pieces(max(k, 2), bound) for k in set(steps)}
        base, end = 0, project(0) if keep_trace else 0  # gates holds rows [base, end)
        prev = 0
        for lo, k in zip(starts, steps):
            if lo + k > end:  # untraced only; a chunk has at least two rows
                base = min(lo, len(tokens) - 2)
                end = project(base)
            here = lo if keep_trace else 0
            for d, U in enumerate(Us):
                for a, b in pieces[k]:
                    np.matmul(h_rows[prev + a:prev + b, d], U.T, out=hu[a:b, d])
            z = gates[lo - base:lo - base + k]
            z += hu[:k]
            g = phi(z[..., 2 * hidden:3 * hidden])
            _sigmoid(z, out=z)  # the candidate block's share is overwritten next
            z[..., 2 * hidden:3 * hidden] = g
            c = c_rows[here:here + k]
            np.multiply(z[..., hidden:2 * hidden], c_rows[prev:prev + k], out=c)
            c += z[..., :hidden] * g
            np.multiply(z[..., 3 * hidden:], phi(c), out=h_rows[here:here + k])
            prev = here

        # each row's final states (traced: from the packed row where its document
        # stopped; untraced: its own row), and a zero row so that a lone row's
        # head product has two rows; every row's product has two (see the
        # module docstring)
        rows = [starts[n - 1] + j for j, n in enumerate(lens.tolist())] + [0]
        final_c, final = (a[rows] if keep_trace else a for a in (c_rows, h_rows))
        merged_pre = final[:, 0] + final[:, 1]
        merged = (np.maximum(merged_pre, 0) if model.activation == "relu_after_merge"
                  else merged_pre)
        logits = np.empty((batch + 1, model.dims.classes), dtype)
        for a, b in _row_pieces(batch + 1, 2):
            np.matmul(merged[a:b], v["head.W"].T, out=logits[a:b])
        logits += v["head.b"]
        probs = softmax(logits)[:batch]

    # the one finite check, on what the call returns: the final states, then
    # the probabilities; the scan of every packed row runs only once it fails
    if not (np.isfinite(final).all() and np.isfinite(final_c).all()):
        if not keep_trace:  # the traced pass names the document and the timestep
            return forward(seqs, model, doc_ids)[0], None
        finite = np.isfinite(h_rows).all(axis=(1, 2)) & np.isfinite(c_rows).all(axis=(1, 2))
        bad = int(np.argmin(finite))
        s = bisect.bisect_right(starts, bad) - 1
        raise NumericError(f"{_name(order[bad - starts[s]], doc_ids)}: "
                           f"non-finite LSTM state at timestep {s}")
    finite = np.isfinite(probs).all(axis=1)
    if not finite.all():
        raise NumericError(f"{_name(order[int(np.argmin(finite))], doc_ids)}: "
                           "non-finite class probabilities")
    trace = ForwardTrace(
        order=order, steps=steps, starts=starts, lead=lead, tokens=tokens,
        gates=gates, c=c_rows, h=h_rows, merged_pre=merged_pre[:batch],
        merged=merged[:batch], probs=probs, model=model,
    ) if keep_trace else None
    return probs[np.argsort(order)], trace


def loss(probs: np.ndarray, target: int) -> float:
    """Categorical cross-entropy with the probability floored at 1e-12.
    Probabilities off the simplex, or with a NaN, are a ValueError."""
    if not 0 <= target < probs.shape[0]:
        raise ValueError(f"target {target} out of range for {probs.shape[0]} classes")
    total = float(np.sum(probs))
    # written so that a NaN fails it
    if not (abs(total - 1.0) <= 1e-5 and float(np.min(probs)) >= -1e-5):
        raise ValueError("probs are not on the simplex")
    return -math.log(max(float(probs[target]), 1e-12))


def backward(
    trace: ForwardTrace,
    targets: Sequence[int],
    out: Gradients | None = None,
) -> Gradients:
    """Exact BPTT of the summed cross-entropy loss of a forward batch,
    through the model that produced ``trace`` (``trace.model``).

    ``targets`` are in the batch's input order. Contributions are
    added into ``out`` (a fresh zero buffer when not supplied), so a
    caller can accumulate a mini-batch into one caller-owned buffer.
    Only embedding rows that actually appear in the batch receive
    gradient, and those BPTT reaches are set in ``out.rows`` (see
    :class:`Gradients`). The rows run backward in the forward's lockstep.

    BPTT spends the trace: each step computes its dz into one step-sized
    buffer and then copies it over the gates it has read, so after the
    call ``trace.gates`` holds dz for the rows BPTT reached (it may stop
    early; see the module docstring). A second call on the same trace
    raises ValueError.
    """
    if trace.spent:
        raise ValueError("backward has already run on this trace: its gates hold dz")
    model = trace.model
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
    v, gv = model.params.views, grads.views
    gv["head.W"] += dlogits.T @ trace.merged
    gv["head.b"] += dlogits.sum(axis=0)
    dmerged = dlogits @ v["head.W"]
    if model.activation == "relu_after_merge":
        dmerged = dmerged * (trace.merged_pre > 0)

    # per row, dh and dc of both directions; a row's dh starts at dmerged
    # in both directions once BPTT reaches its last step
    state = np.zeros((batch, 2, 2, hidden), model.dtype)
    state[:, 0] = dmerged[:, None]
    step_dz = np.empty((batch,) + trace.gates.shape[1:], model.dtype)
    U = [np.ascontiguousarray(v[f"{name}.U"]) for name in DIRECTIONS]
    starts = trace.starts
    stop = 0
    trace.spent = True
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
        dz = step_dz[:k]
        dz[..., :hidden] = dc * g * i * (1.0 - i)
        dz[..., hidden:2 * hidden] = dc * c_prev * f * (1.0 - f)
        dz[..., 2 * hidden:3 * hidden] = dc * i * _phi_derivative(cell_act, g, g)
        dz[..., 3 * hidden:] = do * o * (1.0 - o)
        if s:
            for d in (0, 1):
                np.matmul(dz[:, d], U[d], out=dh[:, d])
            dc *= f
        gates[...] = dz  # the step's gates are read: dz takes their rows
        live[np.abs(live) < GRAD_FLUSH] = 0
        if k == batch and not live.any():
            stop = s  # exact: every earlier row is linear in dh, dc
            break

    # the post-loop products cover only the rows BPTT reached, whose gates
    # now hold dz; a row's previous step is as many rows back as were
    # running in that step
    lo = starts[stop]
    back = np.repeat(([trace.lead] + steps[:-1])[stop:], steps[stop:])
    prev = np.arange(lo, lo + back.size) - back
    for d, name in enumerate(DIRECTIONS):
        dz = trace.gates[lo:, d]
        tokens = trace.tokens[lo:, d]
        gv[f"{name}.W"] += dz.T @ v["embedding"][tokens]
        gv[f"{name}.U"] += dz.T @ trace.h[prev, d]
        gv[f"{name}.b"] += dz.sum(axis=0)
        np.add.at(gv["embedding"], tokens, dz @ v[f"{name}.W"])
    grads.rows[trace.tokens[lo:]] = True
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
    single splitmix64 stream in checkpoint tensor order, each in C order;
    biases are zero except the forget-gate block, which starts at 1.0.
    The draws go into the views in blocks of about ADAM_BLOCK values, so
    the float64 and uint64 temporaries stay block-sized.
    """
    rng = SplitMix64(seed)
    params = ParamBuffer(dims, dtype)
    for view in params.arrays():
        if view.ndim == 2:
            rows, cols = view.shape
            bound = math.sqrt(6.0 / (rows + cols))
            step = max(1, ADAM_BLOCK // cols)
            for lo in range(0, rows, step):  # whole rows keep the C order
                block = view[lo:lo + step]
                u = rng.uniform_floats(block.size)
                u *= 2.0  # in place, the same bits as (u * 2 - 1) * bound
                u -= 1.0
                u *= bound
                block[...] = u.reshape(block.shape)
    for direction in DIRECTIONS:
        params.views[f"{direction}.b"][dims.hidden:2 * dims.hidden] = 1.0
    if labels is None:
        labels = tuple(str(i) for i in range(dims.classes))
    return BiLstmClassifier(params, tuple(labels), vocab_digest, activation)
