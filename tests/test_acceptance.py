"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with ``pytest tests/test_acceptance.py -v -s``).

The reference corpus is private, so the headline score cannot be
reproduced here; these criteria pin the arithmetic of the reference
tables, gradient/invariance correctness, end-to-end learning
on the shipped synthetic corpus, determinism, and the extraction
contract.
"""

import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import numpy.testing as npt

from conftest import (
    SYNTH_LABELS,
    gradient_check_error,
    make_synthetic_corpus,
    random_tiny_model,
    save_dataset,
    swapped_directions,
)

from lexseq import cli, nn
from lexseq.corpus import LabelSet, stratified_split
from lexseq.extraction import PageRecord, extract_text, ocr_command_backend
from lexseq.metrics import aggregate, f1_score
from lexseq.rng import SplitMix64
from lexseq.tokenizer import (
    EncodedSequence,
    build_vocabulary,
    iter_tokens,
)

# Reference per-class table (rows ARE, Acórdão, Despacho, Outro, RE,
# Sentença) and the test-partition supports.
ROWS = {
    "ARE": (0.82, 0.84, 0.83),
    "Acórdão": (0.71, 0.89, 0.79),
    "Despacho": (0.74, 0.82, 0.78),
    "Outro": (0.91, 0.82, 0.87),
    "RE": (0.77, 0.70, 0.73),
    "Sentença": (0.92, 0.95, 0.93),
}
SUPPORTS = [92, 82, 55, 280, 63, 110]


def check(number: int, description: str, ok: bool, detail: str = ""):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {number}: {description}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_criterion_1_f1_arithmetic():
    worst = 0.0
    ok = True
    for name, (precision, recall, expected_f1) in ROWS.items():
        computed = f1_score(precision, recall)
        tolerance = 0.01 if name == "Outro" else 0.005
        worst = max(worst, abs(computed - expected_f1))
        ok = ok and abs(computed - expected_f1) <= tolerance
    check(1, "per-class F1 column reproduced from (precision, recall)", ok,
          f"max abs dev {worst:.4f}")


def test_criterion_2_weighted_average_row():
    per_class = tuple(
        np.array([ROWS[k][i] for k in ROWS]) for i in range(3)
    )
    averaged = aggregate(per_class, np.array(SUPPORTS), "weighted")
    expected = (0.85, 0.84, 0.84)
    devs = [abs(a - e) for a, e in zip(averaged, expected)]
    check(2, "support-weighted average row within +-0.005", max(devs) <= 0.005,
          f"got ({averaged[0]:.4f}, {averaged[1]:.4f}, {averaged[2]:.4f})")


def test_criterion_3_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    for seed in range(100):
        model, seq, target = random_tiny_model(seed, dtype=np.float64)
        worst = max(worst, gradient_check_error(model, seq, target, eps=1e-5))
    elapsed = time.perf_counter() - started
    check(3, "BPTT matches central finite differences on 100 tiny models",
          worst < 1e-6 and elapsed < 60.0,
          f"max rel err {worst:.3e}, {elapsed:.1f}s")


def test_criterion_4_padding_and_reversal_suites():
    started = time.perf_counter()
    worst = 0.0
    dims = nn.ModelDims(vocab_rows=30, embed_dim=8, hidden=5, classes=4, max_len=20)
    for seed in range(100):
        model = nn.init_parameters(dims, seed=seed)
        rng = SplitMix64(seed * 31 + 5)
        length = 1 + rng.next_below(12)
        ids = np.zeros(20, dtype=np.int64)
        for i in range(length):
            ids[i] = 1 + rng.next_below(29)
        probs_a, _ = nn.forward([EncodedSequence(ids=ids, length=length)], model)
        padded = np.zeros(31, dtype=np.int64)
        padded[:length] = ids[:length]
        probs_b, _ = nn.forward([EncodedSequence(ids=padded, length=length)], model)
        worst = max(worst, float(np.abs(probs_a - probs_b).max()))

        swapped = swapped_directions(model)
        rev = np.zeros(20, dtype=np.int64)
        rev[:length] = ids[:length][::-1]
        _, trace_a = nn.forward([EncodedSequence(ids=ids, length=length)], model)
        _, trace_b = nn.forward([EncodedSequence(ids=rev, length=length)], swapped)
        worst = max(worst, float(np.abs(trace_a.merged - trace_b.merged).max()))
    elapsed = time.perf_counter() - started
    check(4, "padding invariance and reversal/parameter-swap symmetry",
          worst < 1e-6 and elapsed < 30.0,
          f"max abs dev {worst:.3e}, {elapsed:.1f}s")


def test_criterion_5_parameter_count():
    dims = nn.ModelDims(vocab_rows=100_002, embed_dim=100, hidden=200,
                        classes=6, max_len=1000)
    model = nn.init_parameters(dims, seed=0)
    count = nn.param_size(model.dims)
    check(5, "reference-configuration parameter count", count == 10_483_006,
          f"{count:,}")


def test_criterion_6_end_to_end_learning(tmp_path):
    """Full pipeline through the CLI: build-vocab -> train -> evaluate."""
    started = time.perf_counter()
    docs = make_synthetic_corpus(n_docs=600, seed=99)
    labels = LabelSet(SYNTH_LABELS)
    data = tmp_path / "corpus.jsonl"
    save_dataset(docs, labels, data)
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("\n".join(SYNTH_LABELS) + "\n", encoding="utf-8")

    seed = 11
    vocab_path = tmp_path / "vocab.txt"
    code = cli.run(["build-vocab", str(data), "--labels", str(labels_path),
                    "--seed", str(seed), "-o", str(vocab_path)])
    assert code == 0

    ckpt = tmp_path / "model.ckpt"
    history_path = tmp_path / "history.json"
    code = cli.run(["train", str(data), "--labels", str(labels_path),
                    "--vocab", str(vocab_path), "--seed", str(seed),
                    "-o", str(ckpt), "--history", str(history_path)])
    assert code == 0

    # evaluate on the held-out 10% (same deterministic split as train)
    split = stratified_split(docs, (0.7, 0.2, 0.1), seed=seed)
    test_data = tmp_path / "test.jsonl"
    save_dataset(list(split.test), labels, test_data)
    report_path = tmp_path / "report.json"
    code = cli.run(["evaluate", str(ckpt), str(test_data),
                    "--vocab", str(vocab_path), "-o", str(report_path)])
    assert code == 0

    history = json.loads(history_path.read_text(encoding="utf-8"))
    best_train = max(r["train_accuracy"] for r in history)
    report = json.loads(report_path.read_text(encoding="utf-8"))
    elapsed = time.perf_counter() - started
    ok = (len(history) == 20 and best_train >= 0.99
          and report["accuracy"] >= 0.95 and elapsed < 300.0)
    check(6, "synthetic-corpus pipeline reaches 99% train / 95% test", ok,
          f"train {best_train:.3f}, test {report['accuracy']:.3f}, {elapsed:.0f}s")


def test_criterion_7_deterministic_checkpoints(tmp_path):
    """Two `python -m lexseq train` processes with other hash seeds write
    the same checkpoint bytes and the same history bytes."""
    docs = make_synthetic_corpus(n_docs=90, seed=31)
    data, labels_path = tmp_path / "corpus.jsonl", tmp_path / "labels.txt"
    save_dataset(docs, LabelSet(SYNTH_LABELS), data)
    labels_path.write_text("\n".join(SYNTH_LABELS) + "\n", encoding="utf-8")
    vocab_path = tmp_path / "vocab.txt"
    assert cli.run(["build-vocab", str(data), "--labels", str(labels_path),
                    "--seed", "8", "--cap", "1000", "-o", str(vocab_path)]) == 0
    src = Path(cli.__file__).resolve().parents[1]
    outputs = []
    for hash_seed in ("0", "1"):
        ckpt, history = tmp_path / f"{hash_seed}.ckpt", tmp_path / f"{hash_seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "lexseq", "train", str(data), "--labels",
             str(labels_path), "--vocab", str(vocab_path), "--seed", "8",
             "--epochs", "2", "--batch", "16", "--embed", "16", "--hidden", "12",
             "--max-len", "40", "-o", str(ckpt), "--history", str(history)],
            env=env, capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        outputs.append((ckpt.read_bytes(), history.read_bytes()))
    check(7, "identical config and seed give byte-identical checkpoints "
          "and histories in processes with other hash seeds", outputs[0] == outputs[1],
          f"{len(outputs[0][0])} bytes")


def test_criterion_8_inference_throughput():
    dims = nn.ModelDims(vocab_rows=100_002, embed_dim=100, hidden=200,
                        classes=6, max_len=1000)
    model = nn.init_parameters(dims, seed=1)
    rng = SplitMix64(2)
    ids = np.array([1 + rng.next_below(100_001) for _ in range(1000)])
    seq = EncodedSequence(ids=ids, length=1000)
    nn.forward([seq], model)  # warm-up outside the timed window
    started = time.perf_counter()
    nn.forward([seq], model)
    elapsed = time.perf_counter() - started
    check(8, "full-dimension single-document inference within 2 s",
          elapsed <= 2.0, f"{elapsed * 1000:.0f} ms")


def test_criterion_9_extraction_contract(tmp_path):
    sentinel = tmp_path / "ocr_was_invoked"
    ocr_script = tmp_path / "stub_ocr.py"
    fixture = tmp_path / "ocr_output.txt"
    fixture.write_text(" ".join(["reconhecido"] * 1200), encoding="utf-8")
    ocr_script.write_text(
        "import pathlib, sys\n"
        f"pathlib.Path({str(sentinel)!r}).touch()\n"
        f"sys.stdout.write(pathlib.Path({str(fixture)!r}).read_text())\n",
        encoding="utf-8",
    )
    backend = ocr_command_backend(f"{sys.executable} {ocr_script} {{input}}")

    # embedded-accept: gate passes, OCR provably never runs
    embedded = " ".join(["palavra"] * 1100)
    result = extract_text(
        [PageRecord(1, embedded_text=embedded, image_path="p1.png")],
        backend, token_target=1000)
    accept_ok = (result.pages_used == ((1, "embedded"),) and result.complete
                 and not sentinel.exists())

    # OCR fallback: gate fails, command output accepted
    result = extract_text(
        [PageRecord(1, embedded_text="@@ :: ##", image_path="p1.png")],
        backend, token_target=1000)
    fallback_ok = (result.pages_used == ((1, "ocr"),) and result.complete
                   and result.token_count == 1200 and sentinel.exists())

    # exhaustion: 2 pages x 200 tokens against a 1000-token target
    page = " ".join(["texto"] * 200)
    result = extract_text(
        [PageRecord(1, embedded_text=page), PageRecord(2, embedded_text=page)],
        backend, token_target=1000)
    exhaustion_ok = (not result.complete and result.token_count == 400
                     and result.pages_used == ((1, "embedded"), (2, "embedded")))

    check(9, "extraction contract (embedded-accept / fallback / exhaustion)",
          accept_ok and fallback_ok and exhaustion_ok)
