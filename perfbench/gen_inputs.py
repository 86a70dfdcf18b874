"""Seeded input generator for the lexseq benchmark.

    python3 perfbench/gen_inputs.py --workload NAME --seed N --out DIR

Writes, for one workload and seed, every file the timed process reads:

    labels.txt              the six class labels
    vocab.txt               the reference vocabulary (profile.dims.vocab_size)
    train.jsonl             labeled class-keyword documents for the train stage
    classify.jsonl          labeled documents for the classify stage
    model.ckpt              reference-dims checkpoint (checkpoint profiles only)
    manifests/*.pages.jsonl page manifests for the ingest stage
    pages/*.txt             page "images"; the OCR command is `cat {input}`
    expected.json           per manifest the planted source of every page that
                            extraction reads, its token count, and the size
                            the ingest vocabulary must have
    run.json                workload name and the seeds the program is given

Paths inside the files are relative to DIR. The same seed gives
byte-identical files; the program under test receives only these files.
Lengths are drawn by stratified sampling, so every seed has nearly the same
length distribution and only the content changes.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import lexseq
import numpy as np

from profiles import PROFILES, ClassifySet, IngestSet, Profile, TrainSet

_LETTERS = np.array(list("abcdefghijklmnopqrstuvwxyz"))
_JUNK = np.array(list("0123456789#%&@*+=-/"))
_SENTENCE = 12  # words per sentence in rendered text
_KEYWORD_RATE = 0.08  # class keywords among a document's words
_KEYWORDS_PER_CLASS = 4


class _Text:
    """Token pool, Zipf sampler and class keywords for one seed."""

    def __init__(self, rng: np.random.Generator, profile: Profile, classes: int):
        self.rng = rng
        self.pool = _word_pool(rng, profile.dims.vocab_size + profile.pool_extra)
        weights = 1.0 / np.arange(1, len(self.pool) + 1)
        self.cdf = np.cumsum(weights) / weights.sum()
        k = _KEYWORDS_PER_CLASS
        # Keywords sit near the head of the ranking, inside the vocabulary.
        self.keywords = [np.arange(20 + c * k, 20 + (c + 1) * k) for c in range(classes)]

    def ranks(self, n: int, cls: int | None = None) -> np.ndarray:
        ranks = np.minimum(np.searchsorted(self.cdf, self.rng.random(n)),
                           len(self.pool) - 1)
        if cls is not None:
            mask = self.rng.random(n) < _KEYWORD_RATE
            ranks[mask] = self.rng.choice(self.keywords[cls], int(mask.sum()))
        return ranks

    def render(self, ranks: np.ndarray) -> str:
        words = [self.pool[r] for r in ranks]
        return ". ".join(" ".join(words[i:i + _SENTENCE])
                         for i in range(0, len(words), _SENTENCE)) + "."


def _word_pool(rng: np.random.Generator, size: int) -> list[str]:
    """`size` distinct lowercase words in Zipf rank order."""
    words: dict[str, None] = {}
    while len(words) < size:
        lengths = rng.integers(4, 11, size)
        letters = _LETTERS[rng.integers(0, 26, int(lengths.sum()))]
        cuts = np.cumsum(lengths)[:-1]
        for chunk in np.split(letters, cuts):
            words.setdefault("".join(chunk), None)
    return list(words)[:size]


def stratified_lengths(rng: np.random.Generator, n: int,
                       bounds: tuple[int, int]) -> np.ndarray:
    """One length per stratum of n equal-probability strata, shuffled."""
    u = (rng.permutation(n) + rng.random(n)) / n
    lo, hi = bounds
    return np.rint(lo + u * (hi - lo)).astype(np.int64)


def _write_jsonl(path: Path, records) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for record in records:
            fh.write(json.dumps(record, ensure_ascii=False, sort_keys=True) + "\n")


def _train_docs(text: _Text, spec: TrainSet, labels) -> list[dict]:
    used = spec.classes or len(labels)
    n = spec.per_class * used
    classes = [i % used for i in range(n)]
    if spec.class_lengths:
        lo, hi = spec.lengths
        mids = text.rng.permutation(np.rint(lo + (np.arange(used) + 0.5) / used * (hi - lo)))
        lengths = mids[classes]
    else:
        lengths = stratified_lengths(text.rng, n, spec.lengths)
    return [{"id": f"train-{i:05d}", "label": labels[c],
             "text": text.render(text.ranks(int(length), c))}
            for i, (c, length) in enumerate(zip(classes, lengths))]


def _classify_docs(text: _Text, spec: ClassifySet, labels) -> list[dict]:
    # Chunk c of m gets length strata c, c + m, c + 2m, ... in a seeded
    # order, so every chunk (one operation) carries the same length mix.
    strata = np.sort(stratified_lengths(text.rng, spec.docs, spec.lengths))
    m = -(-spec.docs // spec.chunk)
    lengths = np.concatenate([text.rng.permutation(strata[c::m]) for c in range(m)])
    classes = text.rng.permutation([i % len(labels) for i in range(spec.docs)])
    return [{"id": f"doc-{i:05d}", "label": labels[int(c)],
             "text": text.render(text.ranks(int(length), int(c)))}
            for i, (c, length) in enumerate(zip(classes, lengths))]


def _garbled(rng: np.random.Generator, words: int) -> str:
    """Embedded text with no wordlike token: fails the quality gate."""
    lengths = rng.integers(2, 6, words)
    chars = _JUNK[rng.integers(0, len(_JUNK), int(lengths.sum()))]
    return " ".join("".join(c) for c in np.split(chars, np.cumsum(lengths)[:-1]))


def _kinds(rng: np.random.Generator, n: int, spec: IngestSet) -> np.ndarray:
    """Exactly the profile's shares of page kinds, in a seeded order."""
    garbled, scan = round(n * spec.garbled_share), round(n * spec.scan_share)
    return rng.permutation(["garbled"] * garbled + ["scan"] * scan
                           + ["embedded"] * (n - garbled - scan))


def _manifests(out: Path, text: _Text, profile: Profile) -> dict:
    rng, spec = text.rng, profile.ingest
    words = stratified_lengths(rng, spec.docs * spec.pages_per_doc,
                               spec.page_words).reshape(spec.docs, -1)
    # extraction reads a page while the pages before it hold fewer tokens
    # than the target; kinds are stratified over read and unread pages alike
    before = np.cumsum(words, axis=1) - words
    read = before < profile.token_target
    kinds = np.empty(words.shape, dtype=object)
    kinds[read] = _kinds(rng, int(read.sum()), spec)
    kinds[~read] = _kinds(rng, int((~read).sum()), spec)
    sweep = rng.permutation(len(text.pool))
    sweep_at = 0
    read_tokens: set[int] = set()
    docs = []
    (out / "manifests").mkdir()
    (out / "pages").mkdir()
    for d in range(spec.docs):
        used = []
        lines = []
        for p in range(1, spec.pages_per_doc + 1):
            kind = kinds[d, p - 1]
            ranks = text.ranks(int(words[d, p - 1]))
            if read[d, p - 1]:
                mask = rng.random(len(ranks)) < spec.sweep
                take = int(mask.sum())
                ranks[mask] = sweep[(sweep_at + np.arange(take)) % len(sweep)]
                sweep_at += take
                read_tokens.update(ranks.tolist())
                used.append([p, "embedded" if kind == "embedded" else "ocr"])
            page_text = text.render(ranks)
            record: dict = {"page": p}
            if kind == "embedded":
                record["text"] = page_text
            else:
                image = f"pages/d{d:04d}-p{p:02d}.txt"
                (out / image).write_text(page_text, encoding="utf-8")
                record["image"] = image
                if kind == "garbled":
                    record["text"] = _garbled(rng, int(words[d, p - 1]))
            lines.append(record)
        manifest = f"manifests/d{d:04d}.pages.jsonl"
        _write_jsonl(out / manifest, lines)
        docs.append({"manifest": manifest, "pages_used": used,
                     "tokens": int(words[d][read[d]].sum())})
    return {"docs": docs,
            "vocab_size": min(profile.dims.vocab_size, len(read_tokens))}


def generate(out: str | Path, workload: str, seed: int,
             profile: Profile | None = None) -> None:
    """Write every input of `workload` for `seed` into the empty dir `out`."""
    profile = profile or PROFILES[workload]
    out = Path(out)
    out.mkdir(parents=True, exist_ok=False)
    seed = seed % 2**63
    rng = np.random.default_rng(seed)
    labels = lexseq.DEFAULT_LABELS
    text = _Text(rng, profile, len(labels))

    (out / "labels.txt").write_text("\n".join(labels) + "\n", encoding="utf-8")
    size = profile.dims.vocab_size
    vocab = lexseq.Vocabulary(
        entries=tuple((w, 10_000_000 // (r + 1) + 1)
                      for r, w in enumerate(text.pool[:size])),
        cap=size,
    )
    lexseq.save_vocabulary(vocab, out / "vocab.txt")
    _write_jsonl(out / "train.jsonl", _train_docs(text, profile.train, labels))
    _write_jsonl(out / "classify.jsonl", _classify_docs(text, profile.classify, labels))
    expected = _manifests(out, text, profile)
    (out / "expected.json").write_text(json.dumps(expected, sort_keys=True) + "\n",
                                       encoding="utf-8")
    model_seed = int(rng.integers(0, 2**31))
    if profile.model == "checkpoint":
        dims = lexseq.ModelDims(vocab_rows=vocab.id_count,
                                embed_dim=profile.dims.embed_dim,
                                hidden=profile.dims.hidden,
                                classes=len(labels),
                                max_len=profile.dims.max_len)
        model = lexseq.init_parameters(dims, model_seed, labels=labels,
                                       vocab_digest=vocab.digest())
        lexseq.save_checkpoint(model, out / "model.ckpt")
    run = {"workload": workload, "seed": seed, "model_seed": model_seed,
           "split_seed": int(rng.integers(0, 2**31)),
           "train_seed": int(rng.integers(0, 2**31))}
    (out / "run.json").write_text(json.dumps(run, sort_keys=True) + "\n",
                                  encoding="utf-8")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    generate(args.out, args.workload, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
