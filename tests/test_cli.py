import json
import sys

import numpy as np
import pytest
from jsonschema import validate

from conftest import SYNTH_LABELS, make_synthetic_corpus

from lexseq import cli, nn
from lexseq.corpus import LabelSet, load_dataset, save_dataset, stratified_split
from lexseq.tokenizer import TokenizerConfig, build_vocabulary, iter_tokens, save_vocabulary
from lexseq.trainer import load_checkpoint, save_checkpoint

REPORT_SCHEMA = {
    "type": "object",
    "required": ["total", "accuracy", "labels", "matrix", "per_class",
                 "macro", "weighted"],
    "properties": {
        "total": {"type": "integer", "minimum": 0},
        "accuracy": {"type": "number", "minimum": 0, "maximum": 1},
        "labels": {"type": "array", "items": {"type": "string"}},
        "matrix": {"type": "array",
                   "items": {"type": "array", "items": {"type": "integer"}}},
        "per_class": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["label", "precision", "recall", "f1", "support"],
            },
        },
        "macro": {"type": "object",
                  "required": ["precision", "recall", "f1"]},
        "weighted": {"type": "object",
                     "required": ["precision", "recall", "f1"]},
    },
}


@pytest.fixture()
def workspace(tmp_path):
    """Small labeled corpus + labels file + vocabulary + zeroed checkpoint."""
    docs = make_synthetic_corpus(n_docs=60, seed=21)
    labels = LabelSet(SYNTH_LABELS)
    data = tmp_path / "data.jsonl"
    save_dataset(docs, labels, data)
    labels_path = tmp_path / "labels.txt"
    labels_path.write_text("\n".join(SYNTH_LABELS) + "\n", encoding="utf-8")
    tok_cfg = TokenizerConfig(max_sequence_length=40)
    vocab = build_vocabulary(iter_tokens((d.text for d in docs), tok_cfg), cap=1000)
    vocab_path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, vocab_path)
    dims = nn.ModelDims(vocab_rows=vocab.id_count, embed_dim=8, hidden=6,
                        classes=6, max_len=40)
    model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS,
                               vocab_digest=vocab.digest())
    for _, arr in nn.iter_parameters(model):
        arr[...] = 0
    ckpt = tmp_path / "zero.ckpt"
    save_checkpoint(model, ckpt)
    return dict(tmp_path=tmp_path, docs=docs, data=data, labels=labels_path,
                vocab=vocab, vocab_path=vocab_path, ckpt=ckpt)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert cli.run(["frobnicate"]) == 1
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, capsys):
        assert cli.run(["predict", "--bogus"]) == 1

    def test_missing_input_path_is_data_error(self, workspace, capsys):
        code = cli.run([
            "predict", "/nonexistent.ckpt", str(workspace["data"]),
            "--vocab", str(workspace["vocab_path"]),
        ])
        assert code == 2
        assert "does not exist" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert cli.run(["--help"]) == 0


class TestPredict:
    def test_zero_checkpoint_uniform_predictions(self, workspace, capsys):
        code = cli.run([
            "predict", str(workspace["ckpt"]), str(workspace["data"]),
            "--vocab", str(workspace["vocab_path"]),
        ])
        assert code == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == len(workspace["docs"])
        for line in out:
            record = json.loads(line)
            assert set(record) == {"id", "label", "probabilities"}
            assert record["label"] == "class0"  # argmax tie -> lowest index
            np.testing.assert_allclose(record["probabilities"], [1 / 6] * 6,
                                       rtol=1e-5)

    def test_document_without_tokens_names_its_id(self, workspace, tmp_path, capsys):
        data = tmp_path / "blank.jsonl"
        lines = [json.dumps({"id": "full-1", "text": "um dois"}),
                 json.dumps({"id": "blank-2", "text": " ;; "})]
        data.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = cli.run([
            "predict", str(workspace["ckpt"]), str(data),
            "--vocab", str(workspace["vocab_path"]),
        ])
        assert code == 2
        assert "'blank-2'" in capsys.readouterr().err

    def test_token_outside_the_table_names_the_document(self, workspace, tmp_path, capsys):
        # a checkpoint whose table is smaller than its own vocabulary
        dims = nn.ModelDims(vocab_rows=4, embed_dim=4, hidden=3, classes=6, max_len=40)
        small = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS,
                                   vocab_digest=workspace["vocab"].digest())
        ckpt = tmp_path / "small.ckpt"
        save_checkpoint(small, ckpt)
        code = cli.run([
            "predict", str(ckpt), str(workspace["data"]),
            "--vocab", str(workspace["vocab_path"]),
        ])
        assert code == 2
        assert "document 'doc-" in capsys.readouterr().err

    def test_digest_mismatch_is_data_error(self, workspace, tmp_path, capsys):
        other_vocab = build_vocabulary(iter(["alpha", "beta"]), cap=10)
        other_path = tmp_path / "other_vocab.txt"
        save_vocabulary(other_vocab, other_path)
        code = cli.run([
            "predict", str(workspace["ckpt"]), str(workspace["data"]),
            "--vocab", str(other_path),
        ])
        assert code == 2
        assert "digest mismatch" in capsys.readouterr().err


class TestEvaluateCommand:
    def test_report_validates_against_schema(self, workspace, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "matrix.csv"
        code = cli.run([
            "evaluate", str(workspace["ckpt"]), str(workspace["data"]),
            "--vocab", str(workspace["vocab_path"]),
            "-o", str(report_path), "--matrix-csv", str(csv_path),
        ])
        assert code == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        validate(payload, REPORT_SCHEMA)
        assert payload["total"] == len(workspace["docs"])
        assert csv_path.read_text(encoding="utf-8").startswith("," + ",".join(SYNTH_LABELS))

    def test_malformed_dataset_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n", encoding="utf-8")
        code = cli.run([
            "evaluate", str(workspace["ckpt"]), str(bad),
            "--vocab", str(workspace["vocab_path"]), "-o", str(tmp_path / "r.json"),
        ])
        assert code == 2


    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_malformed_checkpoint_header_is_data_error(self, workspace, tmp_path,
                                                       capsys, command):
        # a header of the wrong kind over a valid payload
        blob = workspace["ckpt"].read_bytes()
        start = blob.index(b"\x00") + 1
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(blob[:start] + b"[1]" + blob[blob.index(b"\n"):])
        output = ["-o", str(tmp_path / "report.json")] if command == "evaluate" else []
        code = cli.run([command, str(bad), str(workspace["data"]),
                        "--vocab", str(workspace["vocab_path"]), *output])
        assert code == 2
        assert str(bad) in capsys.readouterr().err


class TestBuildVocab:
    def test_whole_file_mode(self, workspace, tmp_path, capsys):
        out = tmp_path / "v.txt"
        code = cli.run(["build-vocab", str(workspace["data"]), "--cap", "50",
                        "-o", str(out)])
        assert code == 0
        assert out.read_text(encoding="utf-8").startswith("#vocab v1 ")

    def test_train_partition_mode_matches_library_split(self, workspace, tmp_path):
        out = tmp_path / "v.txt"
        code = cli.run([
            "build-vocab", str(workspace["data"]), "--cap", "1000",
            "--labels", str(workspace["labels"]), "--seed", "5",
            "-o", str(out),
        ])
        assert code == 0
        docs = load_dataset(workspace["data"], LabelSet(SYNTH_LABELS))
        split = stratified_split(docs, (0.7, 0.2, 0.1), seed=5)
        expected = build_vocabulary(
            iter_tokens((d.text for d in split.train), TokenizerConfig()), cap=1000
        )
        from lexseq.tokenizer import load_vocabulary
        assert load_vocabulary(out) == expected

    def test_output_is_reproducible(self, workspace, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.run(["build-vocab", str(workspace["data"]), "--cap", "50",
                            "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestExtractCommand:
    def test_extract_writes_dataset_line(self, tmp_path, capsys):
        manifest = tmp_path / "doc7.jsonl"
        long_text = " ".join(["palavra"] * 50)
        manifest.write_text(json.dumps({"page": 1, "text": long_text}) + "\n",
                            encoding="utf-8")
        out = tmp_path / "extracted.jsonl"
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "true {input}",
                        "--token-target", "40", "-o", str(out)])
        assert code == 0
        record = json.loads(out.read_text(encoding="utf-8"))
        assert record["id"] == "doc7"
        assert record["text"] == long_text
        assert "complete=true" in capsys.readouterr().err

    def test_ocr_failure_is_runtime_error(self, tmp_path, capsys):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(
            json.dumps({"page": 1, "text": "@@ ##", "image": "x.png"}) + "\n",
            encoding="utf-8",
        )
        script = tmp_path / "fail.py"
        script.write_text("import sys; sys.exit(2)\n", encoding="utf-8")
        code = cli.run([
            "extract", str(manifest),
            "--ocr-cmd", f"{sys.executable} {script} {{input}}",
            "-o", str(tmp_path / "o.jsonl"),
        ])
        assert code == 3

    def test_template_without_placeholder_is_usage_error(self, tmp_path):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": "texto"}) + "\n",
                            encoding="utf-8")
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "tesseract",
                        "-o", str(tmp_path / "o.jsonl")])
        assert code == 1


class TestTrainCommand:
    def test_train_writes_checkpoint_and_history(self, workspace, tmp_path, capsys):
        ckpt = tmp_path / "trained.ckpt"
        history = tmp_path / "history.json"
        code = cli.run([
            "train", str(workspace["data"]),
            "--labels", str(workspace["labels"]),
            "--vocab", str(workspace["vocab_path"]),
            "--epochs", "2", "--batch", "8", "--lr", "0.005", "--seed", "3",
            "--embed", "8", "--hidden", "6", "--max-len", "40",
            "-o", str(ckpt), "--history", str(history),
        ])
        assert code == 0
        model, _ = load_checkpoint(ckpt)
        assert model.dims.hidden == 6
        records = json.loads(history.read_text(encoding="utf-8"))
        assert len(records) == 2
        assert {"epoch", "train_loss", "train_accuracy", "val_loss",
                "val_accuracy", "seconds"} <= set(records[0])

    def test_zero_epochs_is_usage_error(self, workspace, tmp_path, capsys):
        code = cli.run([
            "train", str(workspace["data"]),
            "--labels", str(workspace["labels"]),
            "--vocab", str(workspace["vocab_path"]),
            "--epochs", "0", "-o", str(tmp_path / "x.ckpt"),
        ])
        assert code == 1

    def test_deterministic_checkpoints(self, workspace, tmp_path):
        outs = []
        for name in ("a.ckpt", "b.ckpt"):
            path = tmp_path / name
            code = cli.run([
                "train", str(workspace["data"]),
                "--labels", str(workspace["labels"]),
                "--vocab", str(workspace["vocab_path"]),
                "--epochs", "2", "--batch", "8", "--seed", "11",
                "--embed", "8", "--hidden", "6", "--max-len", "40",
                "-o", str(path),
            ])
            assert code == 0
            outs.append(path.read_bytes())
        assert outs[0] == outs[1]
