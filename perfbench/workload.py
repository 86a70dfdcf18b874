"""The timed benchmark process: one workload over generated inputs.

    python3 perfbench/workload.py --workload NAME --seconds S --result PATH
        [--replay UNTRACED_RESULT --trace --spans PATH]

Runs in the generator's output directory (all input paths are relative to
it) with lexseq importable. It is one single-client closed loop whose
stages interleave their operations for S seconds (see schedule()). With
--replay it instead runs the untraced run's sequence of operations, so a
traced run does the same work and must give the same outputs.
"""

from __future__ import annotations

import argparse
import copy
import functools
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

import tracing
from profiles import (FOCUS_SHARE, MIN_ROUNDS, OCR_COMMAND, PROBE_SHARE,
                      PROFILES, SETUP_REPEATS)

MIN_TAIL = 10  # a percentile is reported only with this many samples beyond it

THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "LEXSEQ_THREADS")


def percentile(samples, q: float):
    """Nearest-rank q-th percentile, or None when fewer than MIN_TAIL
    samples lie beyond it."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    if len(ordered) - rank < MIN_TAIL:
        return None
    return ordered[rank - 1]


def machine_record() -> dict:
    import numpy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": blas.get("name"), "version": blas.get("version")}
    except (TypeError, KeyError):
        blas = {"name": "unknown", "version": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "env": {key: os.environ.get(key) for key in THREAD_ENV},
    }


class Inputs:
    """Everything set-up loads, from the generated files."""

    def __init__(self, lexseq, profile, run: dict):
        self.vocab = lexseq.load_vocabulary("vocab.txt")
        self.labels = lexseq.LabelSet.from_file("labels.txt")
        self.split = lexseq.stratified_split(
            lexseq.load_dataset("train.jsonl", self.labels),
            profile.train.ratios, seed=run["split_seed"])
        self.classify_docs = lexseq.load_dataset("classify.jsonl", self.labels)
        self.expected = json.loads(Path("expected.json").read_text(encoding="utf-8"))
        if profile.model == "checkpoint":
            self.model, _ = lexseq.load_checkpoint("model.ckpt", vocab=self.vocab)
        else:
            dims = lexseq.ModelDims(vocab_rows=self.vocab.id_count,
                                    embed_dim=profile.dims.embed_dim,
                                    hidden=profile.dims.hidden,
                                    classes=self.labels.size,
                                    max_len=profile.dims.max_len)
            self.model = lexseq.init_parameters(
                dims, run["model_seed"], labels=self.labels.labels,
                vocab_digest=self.vocab.digest())
        if self.model.vocab_digest != self.vocab.digest():
            raise RuntimeError("model and vocabulary digests differ")
        # without a generated checkpoint, classify measures the trained model
        self.classify_model = self.model


class Stage:
    """One stage: `op()` runs one operation, timing the library calls and
    checking their outputs. Operations repeat the same work: a stage has
    `units` distinct operations and runs them in turn, each equally often.
    A rate is the total work over the total timed seconds."""

    units = 1

    def __init__(self, lexseq, profile, run: dict, inputs: Inputs):
        self.lexseq, self.profile, self.run, self.inputs = lexseq, profile, run, inputs
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.outputs: dict = {}
        self.work: dict[str, list[float]] = {}  # rate -> [work, seconds]
        self.ops = 0

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def add(self, rate: str, work: float, seconds: float) -> None:
        total = self.work.setdefault(rate, [0.0, 0.0])
        total[0] += work
        total[1] += seconds

    def rate(self, name: str) -> float:
        work, seconds = self.work[name]
        return work / seconds

    def done(self) -> bool:
        """Whether every unit ran MIN_ROUNDS times or more, all equally often."""
        return self.ops >= MIN_ROUNDS * self.units and self.ops % self.units == 0


class TrainStage(Stage):
    """One epoch of train() from the same initial model, with validation
    and a checkpoint save, so every operation is the same work."""

    blob: bytes | None = None

    def op(self) -> None:
        lx, inputs = self.lexseq, self.inputs
        model = copy.deepcopy(inputs.model)
        config = lx.TrainConfig(epochs=1, batch_size=self.profile.train.batch_size,
                                seed=self.run["train_seed"],
                                checkpoint_path="trained.ckpt")
        start = time.perf_counter()
        _, history = lx.train(model, inputs.split, inputs.vocab, config)
        self.add("train_docs_per_s", len(inputs.split.train) * config.epochs,
                 time.perf_counter() - start)
        loss = history.epochs[-1].train_loss
        blob = Path("trained.ckpt").read_bytes()
        if self.blob is None:
            loaded, _ = lx.load_checkpoint("trained.ckpt", vocab=inputs.vocab)
            lx.save_checkpoint(loaded, "roundtrip.ckpt")
            same = Path("roundtrip.ckpt").read_bytes() == blob
            self.blob = blob
            self.outputs = {"train_loss": loss,
                            "checkpoint_sha256": hashlib.sha256(blob).hexdigest()}
            if self.profile.model == "init":  # classify then measures the trained model
                inputs.classify_model = loaded
        else:  # a repeat of the same work must give the same bytes
            same = blob == self.blob and loss == self.outputs["train_loss"]
        self.check(math.isfinite(loss) and same,
                   f"train: loss {loss!r}, checkpoint reproduced: {same}")

    def metrics(self) -> dict:
        return {"train_docs_per_s": self.rate("train_docs_per_s"),
                "train_loss": self.outputs["train_loss"]}


class ClassifyStage(Stage):
    """A bulk evaluate() over a chunk of the documents, then one evaluate()
    per document of the chunk; the per-document confusion matrices must sum
    to the bulk one. Chunks cycle through the documents. A document's
    single-call latency is the mean of its calls."""

    def __init__(self, *args):
        super().__init__(*args)
        docs, chunk = self.inputs.classify_docs, self.profile.classify.chunk
        self.chunks = [docs[i:i + chunk] for i in range(0, len(docs), chunk)]
        self.units = len(self.chunks)
        self.single_s: dict[str, list[float]] = {}  # document id -> seconds

    def op(self) -> None:
        lx, inputs = self.lexseq, self.inputs
        chunk = self.ops % len(self.chunks)
        docs = self.chunks[chunk]
        model = inputs.classify_model
        start = time.perf_counter()
        bulk = lx.evaluate(model, docs, inputs.vocab)
        self.add("evaluate_docs_per_s", len(docs), time.perf_counter() - start)
        singles = []
        for doc in docs:
            start = time.perf_counter()
            report = lx.evaluate(model, [doc], inputs.vocab)
            self.single_s.setdefault(doc.id, []).append(time.perf_counter() - start)
            singles.append(report)
        matrix = bulk.to_dict()["matrix"]
        summed = [[0] * len(row) for row in matrix]
        for report in singles:
            for i, row in enumerate(report.to_dict()["matrix"]):
                for j, count in enumerate(row):
                    summed[i][j] += count
        first = self.outputs.setdefault(f"matrix{chunk}", matrix)
        self.check(summed == matrix == first,
                   f"classify: single matrices sum to {summed}, bulk {matrix}, first bulk {first}")
        self.attempted += len(docs)  # the single evaluate() calls

    def metrics(self) -> dict:
        latency_ms = [statistics.fmean(s) * 1000 for s in self.single_s.values()]
        p50, p90 = percentile(latency_ms, 50), percentile(latency_ms, 90)
        if p90 is None:
            raise RuntimeError(f"{len(latency_ms)} single-document samples "
                               f"leave fewer than {MIN_TAIL} beyond p90")
        return {"evaluate_docs_per_s": self.rate("evaluate_docs_per_s"),
                "single_doc_ms_p50": p50, "single_doc_ms_p90": p90}


class IngestStage(Stage):
    """Extract every manifest, then build the capped vocabulary over the
    extracted texts; check planted page sources, token counts and size."""

    def op(self) -> None:
        lx = self.lexseq
        expected = self.inputs.expected
        ocr = lx.ocr_command_backend(OCR_COMMAND)
        results = []
        start = time.perf_counter()
        for doc in expected["docs"]:
            pages = lx.load_page_manifest(doc["manifest"])
            results.append(lx.extract_text(pages, ocr, token_target=self.profile.token_target))
        self.add("extract_pages_per_s", sum(len(r.pages_used) for r in results),
                 time.perf_counter() - start)
        for doc, result in zip(expected["docs"], results):
            used = [list(p) for p in result.pages_used]
            self.check(used == doc["pages_used"] and result.token_count == doc["tokens"],
                       f"ingest: {doc['manifest']} read {used} ({result.token_count} tokens), "
                       f"expected {doc['pages_used']} ({doc['tokens']})")
        start = time.perf_counter()
        vocab = lx.build_vocabulary(lx.iter_tokens([r.text for r in results]),
                                    cap=self.profile.dims.vocab_size)
        self.add("vocab_tokens_per_s", sum(r.token_count for r in results),
                 time.perf_counter() - start)
        digest = vocab.digest()
        first = self.outputs.setdefault("vocab_digest", digest)
        self.check(len(vocab) == expected["vocab_size"] and digest == first,
                   f"ingest: vocabulary of {len(vocab)} entries (expected "
                   f"{expected['vocab_size']}), digest {digest} (first {first})")

    def metrics(self) -> dict:
        return {"extract_pages_per_s": self.rate("extract_pages_per_s"),
                "vocab_tokens_per_s": self.rate("vocab_tokens_per_s")}


STAGE_TYPES = {"train": TrainStage, "classify": ClassifyStage, "ingest": IngestStage}


def schedule(stages: dict, shares: dict, seconds: float, elapsed: float,
             busy: dict) -> str | None:
    """The next stage to run, or None when the run is over.

    Stages interleave so that each one's busy time keeps to its share of
    the run; machine noise then falls on every stage alike. An operation
    starts only if one of its average length still fits in the measured
    seconds. Then each stage runs on until it is done() (see Stage).
    """
    fits = [name for name, stage in stages.items()
            if elapsed + busy[name] / max(stage.ops, 1) <= seconds]
    if fits:
        return min(fits, key=lambda name: busy[name] / shares[name])
    return next((name for name, stage in stages.items() if not stage.done()), None)


# The calibration kernel measures the host's current speed. It is a fixed
# mix of the two kinds of work lexseq does, a pure-Python token loop and
# small float32 matrix-vector products as in one LSTM step, and takes about
# CALIBRATION_REF_S on an uncontended core of a 2-vCPU Xeon virtual machine.
# See README.md, "Scaling to a reference host speed".
CALIBRATION_REF_S = 0.001
_KERNEL_TEXT = " ".join(f"w{i % 97}x{i % 13}" for i in range(500))

CALIBRATIONS_PER_SETUP = 5  # kernel runs just before and just after a set-up

# What each end-to-end metric is, for scale_to_reference(): rates grow
# with host speed, latencies and setup_s shrink with it, train_loss and
# peak_rss_mb do not depend on it.
RATES = ("train_docs_per_s", "evaluate_docs_per_s", "extract_pages_per_s",
         "vocab_tokens_per_s")
LATENCIES = ("single_doc_ms_p50", "single_doc_ms_p90")


@functools.cache
def _kernel_arrays():
    import numpy as np  # not at the top: setup_s includes numpy's import by lexseq
    rng = np.random.default_rng(0)
    return (rng.standard_normal((800, 300)).astype(np.float32),
            rng.standard_normal(300).astype(np.float32), np.tanh)


def calibrate() -> float:
    """Seconds one run of the calibration kernel takes now."""
    w, x0, tanh = _kernel_arrays()
    start = time.perf_counter()
    counts: dict[str, int] = {}
    current: list[str] = []
    for ch in _KERNEL_TEXT:
        if ch.isalnum():
            current.append(ch)
        elif current:
            token = "".join(current)
            counts[token] = counts.get(token, 0) + 1
            current = []
    x = x0.copy()
    for _ in range(34):
        x[:200] = tanh((w @ x)[:200]) * 0.5
    return time.perf_counter() - start


def scale_to_reference(metrics: dict, slowdown: float, setup_slowdown: float) -> dict:
    """Metrics as on a host where the kernel takes CALIBRATION_REF_S: the
    work phase ran `slowdown` times and set-up `setup_slowdown` times
    slower than that."""
    out = dict(metrics)
    for name in RATES:
        out[name] *= slowdown
    for name in LATENCIES:
        out[name] /= slowdown
    out["setup_s"] /= setup_slowdown
    return out


def run_op(stage: Stage) -> None:
    """One operation; an exception fails it and the run goes on."""
    gc.collect()  # every operation starts from the same collector state
    try:
        stage.op()
    except Exception:
        traceback.print_exc()
        stage.check(False, f"{type(stage).__name__}: {traceback.format_exc(limit=1)}")
    stage.ops += 1


def run_workload(workload: str, seconds: float, replay: dict | None,
                 tracer: tracing.Tracer | None, profile=None) -> dict:
    """Set up, then run the stages' operations for `seconds`, or the
    operation sequence of `replay` (an earlier result) when given."""
    profile = profile or PROFILES[workload]
    run = json.loads(Path("run.json").read_text(encoding="utf-8"))

    started = time.perf_counter()
    import lexseq
    import_s = time.perf_counter() - started
    if tracer is not None:
        tracer.install("lexseq", tracing.TARGETS)
    setup_samples: list[float] = []
    setup_calibration_s: list[float] = []

    def set_up(repeats: int) -> Inputs | None:
        inputs = None
        for _ in range(repeats):
            inputs = None
            gc.collect()
            setup_calibration_s.extend(calibrate() for _ in range(CALIBRATIONS_PER_SETUP))
            start = time.perf_counter()
            inputs = Inputs(lexseq, profile, run)
            setup_samples.append(time.perf_counter() - start)
            setup_calibration_s.extend(calibrate() for _ in range(CALIBRATIONS_PER_SETUP))
        return inputs

    # half of the set-ups before the work and half after it, so that the
    # median sees the machine at both ends of the run
    inputs = set_up(SETUP_REPEATS - SETUP_REPEATS // 2)

    # the focus stage first, then the others in pipeline order on ties
    order = [profile.focus] + [s for s in STAGE_TYPES if s != profile.focus]
    stages = {name: STAGE_TYPES[name](lexseq, profile, run, inputs) for name in order}
    shares = {name: FOCUS_SHARE if name == profile.focus else PROBE_SHARE for name in order}
    busy = dict.fromkeys(order, 0.0)
    replayed = iter(replay["sequence"]) if replay else None
    done: list[str] = []
    calibration_s: list[float] = []  # one kernel run before every operation
    peak_rss_mb = None
    work_start = time.perf_counter()
    while True:
        if replayed is not None:
            name = next(replayed, None)
        elif done:
            name = schedule(stages, shares, seconds, time.perf_counter() - work_start, busy)
        else:
            name = profile.focus
        if name is None:
            break
        calibration_s.append(calibrate())
        start = time.perf_counter()
        run_op(stages[name])
        busy[name] += time.perf_counter() - start
        done.append(name)
        if peak_rss_mb is None:  # high-water mark of set-up and one focus operation
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    work_s = time.perf_counter() - work_start
    if tracer is not None:
        tracer.restore()

    result = {
        "workload": workload,
        "seed": run["seed"],
        "sequence": done,
        "ops": {name: stage.ops for name, stage in stages.items()},
        "busy_s": busy,
        "work_s": work_s,
        "attempted": sum(s.attempted for s in stages.values()),
        "failed": sum(s.failed for s in stages.values()),
        "failures": [f for s in stages.values() for f in s.failures],
        "outputs": {name: s.outputs for name, s in stages.items()},
        "work": {name: s.work for name, s in stages.items()},
        "single_doc_samples": len(stages["classify"].single_s),
        "setup_samples": setup_samples,
        "import_s": import_s,
        "machine": machine_record(),
    }
    metrics = {}
    try:
        for stage in stages.values():
            metrics.update(stage.metrics())
    except (KeyError, RuntimeError, ZeroDivisionError) as exc:
        result["error"] = f"nothing to measure: {exc!r}"  # every operation raised
        return result
    stages = inputs = None
    set_up(SETUP_REPEATS // 2)
    metrics["setup_s"] = import_s + statistics.median(setup_samples)
    metrics["peak_rss_mb"] = peak_rss_mb
    slowdown = statistics.fmean(calibration_s) / CALIBRATION_REF_S
    setup_slowdown = statistics.fmean(setup_calibration_s) / CALIBRATION_REF_S
    result.update(calibration_s=calibration_s, setup_calibration_s=setup_calibration_s,
                  slowdown=slowdown, setup_slowdown=setup_slowdown, measured=metrics,
                  metrics=scale_to_reference(metrics, slowdown, setup_slowdown))
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--result", required=True)
    parser.add_argument("--replay", help="result file of the untraced run to repeat")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", help="where a traced run writes its spans")
    args = parser.parse_args(argv)

    replay = json.loads(Path(args.replay).read_text(encoding="utf-8")) if args.replay else None
    tracer = tracing.Tracer() if args.trace else None
    result = run_workload(args.workload, args.seconds, replay, tracer)
    if tracer is not None:
        overhead = 0.0
        if replay and "slowdown" in result:  # work times at the reference host speed
            overhead = ((result["work_s"] / result["slowdown"])
                        / (replay["work_s"] / replay["slowdown"]) - 1)
        result["layers"] = tracing.layer_metrics(tracer, overhead)
        result["absent"] = tracer.absent
        if args.spans:
            Path(args.spans).write_text(json.dumps(tracer.spans) + "\n", encoding="utf-8")
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n",
                                 encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
