"""Workload profiles shared by the input generator and the timed process.

Every workload runs all three lexseq stages (train, classify, ingest),
because each run must report every end-to-end metric. The workload's own
stage, its focus, runs first on the inputs that stress it and gets most of
the measured time. The other two stages run small probe inputs, interleaved
with the focus operations, so that their metrics exist, guard regressions
there too, and see the same machine noise as the focus stage. The classify
stage is a probe only: on ragged 20-3000-token documents one pass over 100
documents in bulk and one at a time takes about 18 s, too long to repeat
within a run. Training on short documents is a probe only, in ingest: its
epoch of 6 documents in one batch is dominated by the passes over all
10.48M parameters (Adam, zero_, scale_).
"""

from __future__ import annotations

from dataclasses import dataclass

# Share of the busy time kept by the focus stage and by each probe stage.
FOCUS_SHARE = 0.6
PROBE_SHARE = 0.2

# Every operation of a stage is repeated work (see workload.Stage), and a
# run goes on until each stage has done every one of its distinct
# operations at least this many times, and all of them equally often.
MIN_ROUNDS = 3

# How many times the timed process sets up; setup_s is the median.
SETUP_REPEATS = 7

OCR_COMMAND = "cat {input}"


@dataclass(frozen=True)
class Dims:
    vocab_size: int = 100_000   # reference vocabulary entries (rows = +2)
    embed_dim: int = 100
    hidden: int = 200
    max_len: int = 1000


@dataclass(frozen=True)
class TrainSet:
    per_class: int
    lengths: tuple[int, int]          # raw token counts, before the window
    ratios: tuple[float, float, float]
    batch_size: int
    classes: int = 0                  # labels the documents use; 0 = all six
    # Every document of a class gets the same length, the midpoint of one
    # of `classes` equal strata of `lengths`; the seed decides which class
    # gets which. Any split by label then trains on the same lengths.
    class_lengths: bool = False


@dataclass(frozen=True)
class ClassifySet:
    docs: int
    lengths: tuple[int, int]
    chunk: int                        # documents per operation


@dataclass(frozen=True)
class IngestSet:
    docs: int
    pages_per_doc: int
    page_words: tuple[int, int]
    # Share of the words on pages that get read which walk the whole
    # token pool in a seeded order, so that every pool token occurs.
    sweep: float = 0.0
    # Each OCR call spawns a process, whose cost varies with the machine's
    # load far more than lexseq's own work does, so OCR pages are few.
    garbled_share: float = 0.01       # embedded text fails the gate -> OCR
    scan_share: float = 0.01          # no embedded text at all -> OCR


@dataclass(frozen=True)
class Profile:
    focus: str
    model: str                        # "init" or "checkpoint"
    train: TrainSet
    classify: ClassifySet
    ingest: IngestSet
    dims: Dims = Dims()
    pool_extra: int = 10_000          # pool tokens beyond the vocabulary (OOV)
    token_target: int = 1000          # extract_text stops once this is covered


PROBE_TRAIN = TrainSet(per_class=2, lengths=(10, 60),
                       ratios=(0.5, 0.5, 0.0), batch_size=8)
PROBE_CLASSIFY = ClassifySet(docs=100, lengths=(10, 60), chunk=10)
# About 110 pages read per operation, so one garbled and one image-only.
PROBE_INGEST = IngestSet(docs=24, pages_per_doc=8, page_words=(150, 350))

PROFILES = {
    # 950 and 1650 raw tokens, one length per label (the stratum midpoints
    # of 600-2000): one document of each pair stays just short of the
    # 1000-token window and one fills it, where BPTT runs into the float32
    # subnormal tail; forward and backward do almost all the work and the
    # Adam step is about a tenth. Two labels only, so that one epoch (2
    # train, 2 validation documents) takes about 2.5 s and a run repeats it
    # several times.
    "train-long": Profile(
        focus="train", model="init",
        train=TrainSet(per_class=2, lengths=(600, 2000),
                       ratios=(0.5, 0.5, 0.0), batch_size=8, classes=2,
                       class_lengths=True),
        classify=PROBE_CLASSIFY, ingest=PROBE_INGEST,
    ),
    # Page extraction with planted gate failures and OCR, then a vocabulary
    # over more than 100,000 distinct tokens so that the cap binds. The model
    # is a generated checkpoint, so set-up times load_checkpoint and the
    # classify probe reads a loaded model.
    "ingest": Profile(
        focus="ingest", model="checkpoint",
        train=PROBE_TRAIN, classify=PROBE_CLASSIFY,
        ingest=IngestSet(docs=140, pages_per_doc=8, page_words=(150, 350),
                         sweep=0.75),
    ),
}
