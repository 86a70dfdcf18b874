"""Per-layer tracing from outside the program.

A Tracer wraps public lexseq functions and methods so that each call
records a span (name, start, end, parent) in memory. Every module binding
of a wrapped function is patched, because `from .nn import forward` makes
`trainer.forward` a binding of its own; methods are patched on their class.
`restore()` puts the originals back. A name a later commit removed is
reported as absent rather than failing the run.

Self time is a span's duration minus the part of it that its direct child
spans cover. Per-layer metrics are totals over the traced run.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    module: str                       # lexseq submodule, e.g. "nn"
    attr: str                         # "forward", or "Class.method"
    observe: Callable | None = None   # (tracer, args, kwargs, result) -> result

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, observe: Callable | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(self.spans)
            self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
            self._stack.append(index)
            start = self.clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.counts[name + ".failed"] += 1
                raise
            finally:
                end = self.clock()
                self._stack.pop()
                self.spans[index][1:3] = start, end
            return observe(self, args, kwargs, result) if observe else result

        return traced

    def install(self, package: str, targets) -> None:
        """Patch every binding of each target in the loaded `package` modules."""
        modules = [m for key, m in list(sys.modules.items())
                   if m is not None and (key == package or key.startswith(package + "."))]
        for target in targets:
            module = sys.modules.get(f"{package}.{target.module}")
            owner_name, _, attr = target.attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = vars(owner).get(attr) if owner is not None else None
            if original is None:
                self.absent.append(target.name)
                continue
            wrapped = self.wrap(target.name, original, target.observe)
            if owner_name:
                self._set(owner, attr, wrapped, original)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._set(mod, key, wrapped, original)

    def _set(self, owner, attr: str, wrapped, original) -> None:
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapped)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def _covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of intervals."""
    total = 0.0
    end = float("-inf")
    for s, e in sorted(intervals):
        if e <= end:
            continue
        total += e - max(s, end)
        end = e
    return total


def self_times(spans) -> list[float]:
    """Per span: duration minus the time its direct children cover."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for i, (name, start, end, parent) in enumerate(spans):
        inside = [(max(s, start), min(e, end)) for s, e in children[i] if e > start and s < end]
        out.append((end - start) - _covered(inside))
    return out


def span_totals(spans) -> dict[str, dict[str, float]]:
    """calls, inclusive seconds (outermost span of a name only) and self seconds."""
    totals: dict[str, dict[str, float]] = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for (name, start, end, parent), own in zip(spans, self_times(spans)):
        t = totals[name]
        t["calls"] += 1
        t["self_s"] += own
        while parent >= 0 and spans[parent][0] != name:
            parent = spans[parent][3]
        if parent < 0:
            t["s"] += end - start
    return totals


# --- what the benchmark wraps in lexseq, and what it derives ---------------

def _forward_tokens(tracer, args, kwargs, result):
    tracer.counts["nn.forward.tokens"] += getattr(args[0] if args else kwargs["seq"], "length", 0)
    return result


def _tokens(tracer, args, kwargs, result):
    tracer.counts["tokenizer.tokenize.tokens"] += len(result)
    return result


def _discarded(tracer, args, kwargs, result):
    tokens = args[0] if args else kwargs["tokens"]
    tracer.counts["tokenizer.encode.discarded"] += len(tokens) - result.length
    return result


def _checkpoint_bytes(tracer, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    tracer.counts["trainer.save_checkpoint.bytes"] += os.path.getsize(path)
    return result


def _pages(tracer, args, kwargs, result):
    pages = args[0] if args else kwargs["pages"]
    tracer.counts["extraction.pages_in_manifest"] += len(pages)
    tracer.counts["extraction.pages_used"] += len(result.pages_used)
    tracer.counts["extraction.pages_ocr"] += sum(src == "ocr" for _, src in result.pages_used)
    return result


def _wrap_ocr(tracer, args, kwargs, backend):
    return tracer.wrap("extraction.ocr", backend)


TARGETS = (
    Target("nn", "forward", _forward_tokens),
    Target("nn", "backward"),
    Target("nn", "Gradients.zero_"),
    Target("nn", "Gradients.scale_"),
    Target("nn", "init_parameters"),
    Target("rng", "SplitMix64.uniform_floats"),
    Target("trainer", "train"),
    Target("trainer", "adam_update"),
    Target("trainer", "save_checkpoint", _checkpoint_bytes),
    Target("trainer", "load_checkpoint"),
    Target("trainer", "evaluate"),
    Target("trainer", "map_forward"),
    Target("tokenizer", "tokenize", _tokens),
    Target("tokenizer", "encode", _discarded),
    Target("tokenizer", "build_vocabulary"),
    Target("tokenizer", "load_vocabulary"),
    Target("tokenizer", "Vocabulary.digest"),
    Target("extraction", "load_page_manifest"),
    Target("extraction", "extract_text", _pages),
    Target("extraction", "assess_quality"),
    Target("extraction", "ocr_command_backend", _wrap_ocr),
    Target("corpus", "load_dataset"),
    Target("corpus", "stratified_split"),
    Target("metrics", "evaluation_report"),
)

# numerator and denominator counters of each waste or share ratio
RATIOS = {
    "tokenizer.tokens_discarded_share": ("tokenizer.encode.discarded", "tokenizer.tokenize.tokens"),
    "extraction.ocr_share": ("extraction.pages_ocr", "extraction.pages_used"),
    "extraction.pages_read_share": ("extraction.pages_used", "extraction.pages_in_manifest"),
}

OVERHEAD = "trace.overhead_share"  # traced work time / untraced - 1, both scaled

# (metric, unit), in BENCHMARK.json order. A name ending in .calls, .s or
# .self_s reads that field of the span before it; other names are counters.
PER_LAYER = (
    ("nn.forward.calls", "count"),
    ("nn.forward.tokens", "count"),
    ("nn.forward.self_s", "s"),
    ("nn.backward.calls", "count"),
    ("nn.backward.self_s", "s"),
    ("nn.Gradients.zero_.self_s", "s"),
    ("nn.Gradients.scale_.self_s", "s"),
    ("nn.init_parameters.s", "s"),
    ("rng.SplitMix64.uniform_floats.s", "s"),
    ("trainer.adam_update.calls", "count"),
    ("trainer.adam_update.self_s", "s"),
    ("trainer.train.self_s", "s"),
    ("trainer.save_checkpoint.s", "s"),
    ("trainer.save_checkpoint.bytes", "bytes"),
    ("trainer.load_checkpoint.s", "s"),
    ("trainer.evaluate.self_s", "s"),
    ("trainer.map_forward.self_s", "s"),
    ("tokenizer.tokenize.calls", "count"),
    ("tokenizer.tokenize.tokens", "count"),
    ("tokenizer.tokenize.self_s", "s"),
    ("tokenizer.encode.self_s", "s"),
    ("tokenizer.tokens_discarded_share", "ratio"),
    ("tokenizer.build_vocabulary.self_s", "s"),
    ("tokenizer.load_vocabulary.s", "s"),
    ("tokenizer.Vocabulary.digest.calls", "count"),
    ("tokenizer.Vocabulary.digest.s", "s"),
    ("extraction.load_page_manifest.s", "s"),
    ("extraction.extract_text.self_s", "s"),
    ("extraction.assess_quality.calls", "count"),
    ("extraction.assess_quality.self_s", "s"),
    ("extraction.ocr.calls", "count"),
    ("extraction.ocr.s", "s"),
    ("extraction.ocr.failed", "count"),
    ("extraction.ocr_share", "ratio"),
    ("extraction.pages_read_share", "ratio"),
    ("corpus.load_dataset.s", "s"),
    ("corpus.stratified_split.s", "s"),
    ("metrics.evaluation_report.s", "s"),
    (OVERHEAD, "ratio"),
)

_SPAN_FIELDS = ("calls", "s", "self_s")


def layer_metrics(tracer: Tracer, overhead: float) -> dict[str, dict]:
    """Every PER_LAYER metric as {"value", "unit"}; absent spans read 0."""
    totals = span_totals(tracer.spans)
    out = {}
    for metric, unit in PER_LAYER:
        span, _, field = metric.rpartition(".")
        if metric == OVERHEAD:
            value = overhead
        elif metric in RATIOS:
            num, den = RATIOS[metric]
            value = tracer.counts[num] / tracer.counts[den] if tracer.counts[den] else 0.0
        elif field in _SPAN_FIELDS and span in totals:
            value = totals[span][field]
        else:
            value = tracer.counts[metric]
        out[metric] = {"value": value, "unit": unit}
    return out
