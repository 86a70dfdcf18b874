"""Generator determinism and one untraced plus one traced run, at tiny dims."""

import dataclasses
import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the benchmark's modules

import gen_inputs  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workload  # noqa: E402
from profiles import ClassifySet, Dims, IngestSet, Profile, TrainSet  # noqa: E402

TINY = Profile(
    focus="ingest", model="checkpoint",
    train=TrainSet(per_class=2, lengths=(5, 30),
                   ratios=(0.5, 0.5, 0.0), batch_size=4),
    classify=ClassifySet(docs=100, lengths=(3, 60), chunk=25),
    ingest=IngestSet(docs=3, pages_per_doc=4, page_words=(60, 120), sweep=0.5,
                     garbled_share=0.25, scan_share=0.25),
    dims=Dims(vocab_size=300, embed_dim=4, hidden=3, max_len=40),
    pool_extra=60, token_target=200,
)


def _files(root: Path) -> dict:
    return {p.relative_to(root).as_posix(): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        gen_inputs.generate(tmp_path / name, "tiny", seed, TINY)
    a, b, c = (_files(tmp_path / n) for n in "abc")
    assert a == b
    assert {"model.ckpt", "vocab.txt", "expected.json"} <= set(a)
    assert any(name.startswith("pages/") for name in a)
    for name in ("vocab.txt", "train.jsonl", "classify.jsonl", "model.ckpt", "expected.json"):
        assert a[name] != c[name]


def test_planted_pages_and_lengths(tmp_path):
    gen_inputs.generate(tmp_path / "in", "tiny", 1, TINY)
    expected = json.loads((tmp_path / "in" / "expected.json").read_text())
    sources = {src for doc in expected["docs"] for _, src in doc["pages_used"]}
    assert sources == {"embedded", "ocr"}
    assert all(doc["tokens"] >= TINY.token_target for doc in expected["docs"])
    lengths = gen_inputs.stratified_lengths(__import__("numpy").random.default_rng(0),
                                            10, (10, 20))
    assert sorted(lengths) == pytest.approx(range(10, 20), abs=1)
    docs = [json.loads(line) for line in (tmp_path / "in" / "classify.jsonl").open()]
    chunk = TINY.classify.chunk
    means = [sum(len(d["text"].split()) for d in docs[i:i + chunk]) / chunk
             for i in range(0, len(docs), chunk)]
    assert max(means) / min(means) < 1.1  # every operation gets the same length mix


def test_class_lengths_give_every_document_of_a_class_one_midpoint(tmp_path):
    train = dataclasses.replace(TINY.train, lengths=(10, 50), classes=2, class_lengths=True)
    gen_inputs.generate(tmp_path / "in", "tiny", 2, dataclasses.replace(TINY, train=train))
    docs = [json.loads(line) for line in (tmp_path / "in" / "train.jsonl").open()]
    lengths = {}
    for doc in docs:
        lengths.setdefault(doc["label"], set()).add(len(doc["text"].split()))
    assert sorted(lengths.values(), key=min) == [{20}, {40}]


def test_traced_run_repeats_the_untraced_outputs(tmp_path, monkeypatch):
    gen_inputs.generate(tmp_path / "in", "tiny", 3, TINY)
    monkeypatch.chdir(tmp_path / "in")
    plain = workload.run_workload("tiny", 0.5, None, None, TINY)
    assert plain["failed"] == 0, plain["failures"]
    assert set(plain["metrics"]) == set(run.END_TO_END)
    tracer = tracing.Tracer()
    traced = workload.run_workload("tiny", 0.5, plain, tracer, TINY)
    assert traced["ops"] == plain["ops"] and traced["outputs"] == plain["outputs"]
    assert tracer.absent == [] and tracer._patched == []
    layers = tracing.layer_metrics(tracer, 0.0)
    assert layers["nn.forward.calls"]["value"] > 0
    assert layers["extraction.ocr.calls"]["value"] > 0
    assert 0 < layers["extraction.pages_read_share"]["value"] < 1


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((Path(run.HERE).parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(gen_inputs.PROFILES)
