"""lexseq benchmark runner.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a lexseq source tree. It generates the workload's
inputs from the seed in a separate process (perfbench/gen_inputs.py), then
runs the timed process (perfbench/workload.py) on them with lexseq imported
from ./src. With --trace 1 it runs the workload untraced, then traced doing
the same operations, checks that both give the same outputs, and reports the
per-layer metrics and the tracing overhead instead of the end-to-end ones.

The last line of standard output is the result:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
Timings are scaled to a reference host speed (see README.md). The line
before the result records the machine, operation and sample counts, the
slowdowns and the unscaled metrics. Details and spans go to
perfbench/.work/results/.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

from profiles import PROFILES

HERE = Path(__file__).resolve().parent
WORK = HERE / ".work"
TIMEOUT_S = 175  # for all child processes together; a run must end within 180 s

END_TO_END = {
    "setup_s": "s",
    "train_docs_per_s": "docs/s",
    "train_loss": "nats",
    "evaluate_docs_per_s": "docs/s",
    "single_doc_ms_p50": "ms",
    "single_doc_ms_p90": "ms",
    "extract_pages_per_s": "pages/s",
    "vocab_tokens_per_s": "tokens/s",
    "peak_rss_mb": "MB",
}


# BLAS and OpenMP pools default to one thread per core, and their idle
# threads spin; on a few shared cores that makes every timing depend on the
# neighbours' load. lexseq's matrices are too small to gain from them.
BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _child(argv: list[str], cwd: Path, deadline: float) -> None:
    """Run a benchmark script with ./src first on the import path and
    single-threaded BLAS, unless the caller set the thread counts."""
    paths = [str(Path.cwd() / "src"), os.environ.get("PYTHONPATH", "")]
    env = {**dict.fromkeys(BLAS_THREADS, "1"), **os.environ,
           "PYTHONPATH": os.pathsep.join(p for p in paths if p)}
    subprocess.run([sys.executable, *argv], cwd=cwd, env=env, check=True,
                   timeout=max(1.0, deadline - time.monotonic()), stdout=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="lexseq benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(PROFILES))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so subprocess.run kills and reaps
    # the running child and the inputs are removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (Path.cwd() / "src" / "lexseq" / "__init__.py").is_file():
        print("run.py: no lexseq source tree (src/lexseq) in the current directory",
              file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    inputs = WORK / f"{tag}-{os.getpid()}"
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    plain, traced = inputs / "untraced.json", inputs / "traced.json"
    deadline = time.monotonic() + TIMEOUT_S
    try:
        _child([str(HERE / "gen_inputs.py"), "--workload", args.workload,
                "--seed", str(args.seed), "--out", str(inputs)], Path.cwd(), deadline)
        timed = [str(HERE / "workload.py"), "--workload", args.workload,
                 "--seconds", str(args.seconds)]
        _child(timed + ["--result", str(plain)], inputs, deadline)
        run = json.loads(plain.read_text(encoding="utf-8"))
        if args.trace:
            _child(timed + ["--result", str(traced), "--replay", str(plain), "--trace",
                            "--spans", str(results / f"{tag}.spans.json")], inputs, deadline)
            run = {"untraced": run, "traced": json.loads(traced.read_text(encoding="utf-8"))}
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
    (results / f"{tag}.json").write_text(json.dumps(run, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")

    runs = [run["untraced"], run["traced"]] if args.trace else [run]
    if any("metrics" not in r for r in runs):
        print(f"run.py: {runs[-1].get('error', 'no metrics')}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    same = runs[0]["outputs"] == runs[-1]["outputs"]
    if not same:  # tracing must not change an output byte
        attempted, failed = attempted + 1, failed + 1
    for failure in (f for r in runs for f in r["failures"]):
        print(f"run.py: failed: {failure}", file=sys.stderr)
    if args.trace:
        metrics = run["traced"]["layers"]
    else:
        metrics = {name: {"value": run["metrics"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "machine": runs[0]["machine"],
        "ops": runs[0]["ops"], "single_doc_samples": runs[0]["single_doc_samples"],
        "setup_samples_s": runs[0]["setup_samples"],
        "slowdown": runs[0]["slowdown"], "setup_slowdown": runs[0]["setup_slowdown"],
        "measured": runs[0]["measured"],
        "absent": runs[-1].get("absent", []), "outputs_match": same,
    }, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
