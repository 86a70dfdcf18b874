import argparse
import dataclasses
import errno
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from jsonschema import validate

from conftest import SYNTH_LABELS, make_synthetic_corpus, overflow_head, save_dataset

from lexseq import cli, extraction, nn, trainer
from lexseq.corpus import Document, LabelSet, load_dataset, stratified_split
from lexseq.tokenizer import (OOV_ID, build_vocabulary, iter_tokens, load_vocabulary,
                              save_vocabulary)
from lexseq.trainer import encode_document, load_checkpoint, save_checkpoint

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
    vocab = build_vocabulary(iter_tokens(d.text for d in docs), cap=1000)
    vocab_path = tmp_path / "vocab.txt"
    save_vocabulary(vocab, vocab_path)
    dims = nn.ModelDims(vocab_rows=vocab.id_count, embed_dim=8, hidden=6,
                        classes=6, max_len=40)
    model = nn.init_parameters(dims, seed=0, labels=SYNTH_LABELS,
                               vocab_digest=vocab.digest())
    for arr in model.params.arrays():
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

    def test_module_runs_the_cli(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-m", "lexseq", "--help"], env=env,
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: lexseq ")


def assert_one_diagnostic(err):
    """A usage or data error is one ``lexseq`` line on stderr (argparse
    adds its usage lines), never a traceback."""
    assert "Traceback" not in err
    assert len([line for line in err.splitlines() if line.startswith("lexseq")]) == 1


def train_args(workspace, *extra):
    return ["train", str(workspace["data"]), "--labels", str(workspace["labels"]),
            "--vocab", str(workspace["vocab_path"]), "--epochs", "1",
            "--embed", "8", "--hidden", "6", "--max-len", "40", *extra]


def command_args(workspace, tmp_path, command, **paths):
    """Arguments that run ``command`` on the workspace. ``paths`` replaces
    an input (data, labels, vocab, ckpt, manifest) or an output (out,
    history, matrix_csv); the last two are passed only when given."""
    manifest = tmp_path / "doc.jsonl"
    manifest.write_text(json.dumps({"page": 1, "text": " ".join(["palavra"] * 50)})
                        + "\n", encoding="utf-8")
    p = {"data": workspace["data"], "labels": workspace["labels"],
         "vocab": workspace["vocab_path"], "ckpt": workspace["ckpt"],
         "manifest": manifest, "out": tmp_path / "out", **paths}
    p = {key: str(value) for key, value in p.items()}
    model_inputs = [p["ckpt"], p["data"], "--vocab", p["vocab"]]
    args = {
        "extract": ["extract", p["manifest"], "--ocr-cmd", "true {input}"],
        "build-vocab": ["build-vocab", p["data"], "--labels", p["labels"]],
        "train": ["train", p["data"], "--labels", p["labels"], "--vocab", p["vocab"],
                  "--epochs", "1", "--embed", "8", "--hidden", "6", "--max-len", "40"],
        "evaluate": ["evaluate", *model_inputs],
        "predict": ["predict", *model_inputs],
    }[command]
    if command != "predict":
        args += ["-o", p["out"]]
    for key in ("history", "matrix_csv"):
        if key in p:
            args += [f"--{key.replace('_', '-')}", p[key]]
    return args


def rewrite_checkpoint_header(src, dst, edit):
    """Copy the checkpoint ``src`` to ``dst`` with ``edit`` applied to its
    JSON header."""
    blob = src.read_bytes()
    start = len(trainer.CHECKPOINT_MAGIC)
    newline = blob.index(b"\n", start)
    header = edit(json.loads(blob[start:newline]))
    dst.write_bytes(blob[:start] + json.dumps(header).encode() + blob[newline:])


class TestSettings:
    """Every settable value, pinned, so that a new one is a reviewed change
    here: 30 options and 13 config fields."""

    OPTIONS = {
        "extract": ["--ocr-cmd", "--output", "--id", "--token-target",
                    "--min-wordlike-ratio", "--min-chars"],
        "build-vocab": ["--cap", "--output", "--labels", "--seed", "--ratios",
                        "--no-lowercase"],
        "train": ["--labels", "--vocab", "--epochs", "--batch", "--lr", "--seed",
                  "--output", "--ratios", "--embed", "--hidden", "--max-len",
                  "--activation", "--clip-norm", "--history"],
        "evaluate": ["--vocab", "--output", "--matrix-csv"],
        "predict": ["--vocab"],
    }
    FIELDS = {
        trainer.TrainConfig: ["epochs", "batch_size", "learning_rate", "seed",
                              "checkpoint_path", "clip_norm"],
        nn.ModelDims: ["vocab_rows", "embed_dim", "hidden", "classes", "max_len"],
        extraction.QualityGateConfig: ["min_wordlike_ratio", "min_chars"],
    }

    @staticmethod
    def parse(*argv):
        return cli._build_parser().parse_args(argv)

    def test_option_lists_are_pinned(self):
        commands = next(action.choices for action in cli._build_parser()._actions
                        if isinstance(action, argparse._SubParsersAction))
        options = {name: [action.option_strings[-1] for action in sub._actions
                          if action.option_strings and action.dest != "help"]
                   for name, sub in commands.items()}
        assert options == self.OPTIONS

    def test_config_fields_are_pinned(self):
        assert {owner: [f.name for f in dataclasses.fields(owner)]
                for owner in self.FIELDS} == self.FIELDS

    def test_defaults_are_the_library_defaults(self):
        args = self.parse("train", "d", "--labels", "l", "--vocab", "v", "-o", "o")
        config, dims = trainer.TrainConfig(), nn.ModelDims(vocab_rows=3)
        assert ((args.epochs, args.batch, args.lr, args.seed)
                == (config.epochs, config.batch_size, config.learning_rate, config.seed))
        assert ((args.embed, args.hidden, args.max_len)
                == (dims.embed_dim, dims.hidden, dims.max_len))
        assert args.activation == nn.init_parameters(dims, 0).activation
        args = self.parse("build-vocab", "d", "-o", "o")
        assert args.cap == build_vocabulary(iter(["lei"])).cap
        args = self.parse("extract", "m", "--ocr-cmd", "c", "-o", "o")
        gate = extraction.QualityGateConfig()
        assert ((args.min_wordlike_ratio, args.min_chars)
                == (gate.min_wordlike_ratio, gate.min_chars))
        signature = inspect.signature(extraction.extract_text)
        assert args.token_target == signature.parameters["token_target"].default
        assert signature.parameters["token_target"].default == nn.ModelDims.max_len


class TestInputChecks:
    """Each input is checked by its loader when it is opened: one that
    cannot be opened is a data error naming it, never a traceback."""

    @pytest.mark.parametrize("command, role", [
        ("extract", "manifest"), ("build-vocab", "data"), ("build-vocab", "labels"),
        ("train", "data"), ("train", "labels"), ("train", "vocab"),
        ("evaluate", "ckpt"), ("evaluate", "data"), ("evaluate", "vocab"),
        ("predict", "ckpt"), ("predict", "data"), ("predict", "vocab"),
    ])
    def test_directory_is_a_data_error_naming_it(self, workspace, tmp_path, capsys,
                                                 command, role):
        folder = tmp_path / "folder"
        folder.mkdir()
        args = command_args(workspace, tmp_path, command, **{role: folder})
        assert cli.run(args) == 2
        captured = capsys.readouterr()
        assert f"cannot read input path {folder}: Is a directory" in captured.err
        assert "epoch" not in captured.err and not captured.out
        assert_one_diagnostic(captured.err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, text", [
        ("train", "solo\n"), ("train", "a\nb\na\n"),
        ("build-vocab", "solo\n"), ("build-vocab", "a\nb\na\n"),
    ], ids=["train-one-label", "train-duplicate", "build-vocab-one-label",
            "build-vocab-duplicate"])
    def test_labels_file_breaking_a_label_rule_is_a_data_error(
            self, workspace, tmp_path, capsys, command, text):
        labels = tmp_path / "bad-labels.txt"
        labels.write_text(text, encoding="utf-8")
        args = command_args(workspace, tmp_path, command, labels=labels)
        assert cli.run([*args, "--seed", "1"]) == 2
        err = capsys.readouterr().err
        assert f"labels file {labels}: " in err
        assert_one_diagnostic(err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("labels", [
        lambda labels: labels[:1] + labels[:-1],
        lambda labels: list(range(len(labels))),
        lambda labels: "abcdef",
        lambda labels: [""] + labels[1:],
    ], ids=["duplicate", "integers", "string", "empty"])
    @pytest.mark.parametrize("command", ["evaluate", "predict"])
    def test_checkpoint_labels_must_be_a_label_set(self, workspace, tmp_path, capsys,
                                                   command, labels):
        bad = tmp_path / "bad.ckpt"
        rewrite_checkpoint_header(workspace["ckpt"], bad,
                                  lambda h: {**h, "labels": labels(h["labels"])})
        args = command_args(workspace, tmp_path, command, ckpt=bad)
        assert cli.run(args) == 2
        captured = capsys.readouterr()
        assert f"{bad}: malformed checkpoint header" in captured.err
        assert not captured.out
        assert_one_diagnostic(captured.err)


class TestOutputIsADirectory:
    """An output path that is a directory is a data error before any work."""

    @pytest.mark.parametrize("command, output", [
        ("extract", "out"), ("build-vocab", "out"), ("train", "out"),
        ("train", "history"), ("evaluate", "out"), ("evaluate", "matrix_csv"),
    ])
    def test_before_any_work(self, workspace, tmp_path, capsys, command, output):
        folder = tmp_path / "folder"
        folder.mkdir()
        args = command_args(workspace, tmp_path, command, **{output: folder})
        before = sorted(tmp_path.rglob("*"))
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert f"output path is a directory: {folder}" in err
        assert "epoch" not in err
        assert_one_diagnostic(err)
        assert sorted(tmp_path.rglob("*")) == before


class TestBadValues:
    @pytest.mark.parametrize("ratios", ["0.5,0.5,0.5", "-0.1,0.6,0.5", "nan,0.5,0.5"])
    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_ratios_must_be_non_negative_and_sum_to_one(self, workspace, tmp_path,
                                                        capsys, command, ratios):
        args = (["build-vocab", str(workspace["data"]), "--labels",
                 str(workspace["labels"]), "--seed", "1"]
                if command == "build-vocab" else train_args(workspace))
        out = tmp_path / "out"
        assert cli.run([*args, f"--ratios={ratios}", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--ratios" in err and "sum" in err
        assert_one_diagnostic(err)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["build-vocab", "train"])
    def test_negative_seed_is_usage_error(self, workspace, tmp_path, capsys, command):
        args = (["build-vocab", str(workspace["data"]), "--labels", str(workspace["labels"])]
                if command == "build-vocab" else train_args(workspace))
        out = tmp_path / "out"
        assert cli.run([*args, "--seed", "-1", "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert "--seed" in err and ">= 0" in err
        assert_one_diagnostic(err)
        assert not out.exists()

    def test_zero_token_target_is_usage_error(self, tmp_path, capsys):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": "texto"}) + "\n",
                            encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "true {input}",
                        "--token-target", "0", "-o", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--token-target" in err and ">= 1" in err
        assert_one_diagnostic(err)
        assert not out.exists()


    def test_zero_cap_is_usage_error_before_the_data_is_read(self, tmp_path, capsys):
        out = tmp_path / "vocab.txt"
        code = cli.run(["build-vocab", str(tmp_path / "missing.jsonl"), "--cap", "0",
                        "-o", str(out)])
        assert code == 1  # the data path is never looked at: that would be exit 2
        err = capsys.readouterr().err
        assert "--cap" in err and ">= 1" in err
        assert_one_diagnostic(err)
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--epochs", "--batch", "--embed", "--hidden",
                                      "--max-len"])
    def test_train_sizes_must_be_positive(self, workspace, tmp_path, capsys, flag):
        out = tmp_path / "out.ckpt"
        args = train_args(workspace, flag, "0", "-o", str(out))
        args[1] = str(tmp_path / "missing.jsonl")  # never read
        assert cli.run(args) == 1
        err = capsys.readouterr().err
        assert flag in err and ">= 1" in err
        assert_one_diagnostic(err)
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--lr", "nan"), ("--lr", "inf"), ("--lr", "0"),
        ("--clip-norm", "nan"), ("--clip-norm", "inf"), ("--clip-norm", "-1"),
    ])
    def test_lr_and_clip_norm_must_be_finite_and_positive(self, workspace, tmp_path,
                                                          capsys, flag, value):
        out = tmp_path / "out.ckpt"
        assert cli.run(train_args(workspace, flag, value, "-o", str(out))) == 1
        err = capsys.readouterr().err
        assert flag in err and "finite" in err
        assert_one_diagnostic(err)
        assert not out.exists()


class TestNotUtf8:
    """Each reader names the file and line of bytes that are not UTF-8
    (a data error); OCR output that is not UTF-8 names the page image
    (a runtime error)."""

    LATIN1 = "olá".encode("latin-1")

    def test_dataset(self, workspace, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_bytes(workspace["data"].read_bytes()
                         + b'{"id": "z", "text": "' + self.LATIN1 + b'"}\n')
        code = cli.run(["build-vocab", str(data), "-o", str(tmp_path / "v.txt")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{data}:61: not UTF-8" in err
        assert_one_diagnostic(err)

    def test_labels(self, workspace, tmp_path, capsys):
        labels = tmp_path / "labels.txt"
        labels.write_bytes(b"um\n" + self.LATIN1 + b"\n")
        args = train_args(workspace, "--labels", str(labels), "-o", str(tmp_path / "m"))
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert f"{labels}:2: not UTF-8" in err
        assert_one_diagnostic(err)

    def test_vocabulary(self, workspace, tmp_path, capsys):
        vocab = tmp_path / "vocab.txt"
        vocab.write_bytes(b"#vocab v1 size=1 cap=5\n" + self.LATIN1 + b"\t2\t1\n")
        code = cli.run(["predict", str(workspace["ckpt"]), str(workspace["data"]),
                        "--vocab", str(vocab)])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{vocab}:2: not UTF-8" in err
        assert_one_diagnostic(err)

    def test_page_manifest(self, tmp_path, capsys):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_bytes(b'{"page": 1, "text": "' + self.LATIN1 + b'"}\n')
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "true {input}",
                        "-o", str(tmp_path / "o.jsonl")])
        assert code == 2
        err = capsys.readouterr().err
        assert f"{manifest}:1: not UTF-8" in err
        assert_one_diagnostic(err)

    def test_ocr_output(self, tmp_path, capsys):
        page = tmp_path / "page1.txt"
        page.write_bytes(self.LATIN1 + b"\n")
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": "@@", "image": str(page)})
                            + "\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "cat {input}",
                        "-o", str(out)])
        assert code == 3
        err = capsys.readouterr().err
        assert str(page) in err and "not UTF-8" in err
        assert_one_diagnostic(err)
        assert not out.exists()


class TestPathCollision:
    """An output that names the same file as another output or an input is a
    data error naming both paths, before any file is written or changed."""

    @pytest.mark.parametrize("command, paths, output, other", [
        ("train", {"out": "same.out", "history": "same.out"},
         "same.out", "output same.out"),
        ("train", {"out": "r.out", "history": "./r.out"}, "./r.out", "output r.out"),
        ("train", {"out": "vocab.txt"}, "vocab.txt", "input vocab.txt"),
        ("evaluate", {"out": "r.out", "matrix_csv": "r.out"}, "r.out", "output r.out"),
        ("evaluate", {"out": "zero.ckpt"}, "zero.ckpt", "input zero.ckpt"),
        ("evaluate", {"out": "link"}, "link", "input data.jsonl"),
        ("build-vocab", {"out": "data.jsonl"}, "data.jsonl", "input data.jsonl"),
        ("extract", {"out": "doc.jsonl"}, "doc.jsonl", "input doc.jsonl"),
    ])
    def test_before_any_work(self, workspace, tmp_path, capsys, command, paths,
                             output, other):
        (tmp_path / "link").symlink_to(tmp_path / "data.jsonl")
        args = command_args(workspace, tmp_path, command,
                            **{key: f"{tmp_path}/{name}" for key, name in paths.items()})
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        role, name = other.split()
        assert (f"output path {tmp_path}/{output} is the same file as "
                f"{role} {tmp_path}/{name}") in err
        assert "epoch" not in err
        assert_one_diagnostic(err)
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before


class TestOutputWriteFails:
    """An output that cannot be written is a data error naming it; the
    file it would have replaced is kept and no temporary file is left."""

    @pytest.mark.parametrize("command, output", [
        ("extract", "out"), ("build-vocab", "out"), ("train", "out"),
        ("train", "history"), ("evaluate", "out"), ("evaluate", "matrix_csv"),
    ])
    def test_exits_2_naming_the_path(self, workspace, tmp_path, capsys, monkeypatch,
                                     command, output):
        target = tmp_path / "target"
        target.write_bytes(b"old\n")
        replace = os.replace

        def full_disk(src, dst):
            if Path(dst) == target:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            replace(src, dst)

        monkeypatch.setattr(os, "replace", full_disk)
        args = command_args(workspace, tmp_path, command, **{output: target})
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert (f"lexseq: data error: cannot write output {target}: "
                "No space left on device\n") in err
        assert_one_diagnostic(err)
        assert target.read_bytes() == b"old\n"
        assert not list(tmp_path.glob(".lexseq-*"))


class TestUnpairedSurrogate:
    """A JSON input string that no UTF-8 output could hold is a data error
    naming its file and line, before any output is touched."""

    def test_extract_keeps_its_output(self, tmp_path, capsys):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": "\ud800 " + "palavra " * 50})
                            + "\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        out.write_bytes(b"old\n")
        assert cli.run(["extract", str(manifest), "--ocr-cmd", "true {input}",
                        "-o", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}:1: unpaired surrogate U+D800 in a string" in err
        assert_one_diagnostic(err)
        assert out.read_bytes() == b"old\n"

    def test_predict_id(self, workspace, tmp_path, capsys):
        data = tmp_path / "data.jsonl"
        data.write_text(json.dumps({"id": "ok", "text": "um dois"}) + "\n"
                        + json.dumps({"id": "doc\udfff", "text": "um dois"}) + "\n",
                        encoding="utf-8")
        args = command_args(workspace, tmp_path, "predict", data=data)
        assert cli.run(args) == 2
        captured = capsys.readouterr()
        assert f"{data}:2: unpaired surrogate U+DFFF in a string" in captured.err
        assert not captured.out
        assert_one_diagnostic(captured.err)


class TestMissingOutputDirectory:
    """A missing output directory is a data error before any work."""

    def test_train_fails_before_the_first_epoch(self, workspace, tmp_path, capsys):
        before = sorted(tmp_path.iterdir())
        for flags in (["-o", str(tmp_path / "missing" / "m.ckpt")],
                      ["-o", str(tmp_path / "m.ckpt"),
                       "--history", str(tmp_path / "missing" / "h.json")]):
            assert cli.run(train_args(workspace, *flags)) == 2
            err = capsys.readouterr().err
            assert str(tmp_path / "missing") in err and "epoch" not in err
            assert_one_diagnostic(err)
        assert sorted(tmp_path.iterdir()) == before

    @pytest.mark.parametrize("flag", ["-o", "--matrix-csv"])
    def test_evaluate(self, workspace, tmp_path, capsys, flag):
        outputs = {"-o": str(tmp_path / "r.json"), "--matrix-csv": str(tmp_path / "m.csv")}
        outputs[flag] = str(tmp_path / "missing" / "out")
        code = cli.run(["evaluate", str(workspace["ckpt"]), str(workspace["data"]),
                        "--vocab", str(workspace["vocab_path"]),
                        *(x for pair in outputs.items() for x in pair)])
        assert code == 2
        err = capsys.readouterr().err
        assert outputs[flag] in err
        assert_one_diagnostic(err)
        assert not (tmp_path / "r.json").exists() and not (tmp_path / "m.csv").exists()

    def test_build_vocab(self, workspace, tmp_path, capsys):
        out = str(tmp_path / "missing" / "v.txt")
        assert cli.run(["build-vocab", str(workspace["data"]), "-o", out]) == 2
        err = capsys.readouterr().err
        assert out in err
        assert_one_diagnostic(err)

    def test_extract(self, tmp_path, capsys):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": " ".join(["palavra"] * 50)})
                            + "\n", encoding="utf-8")
        out = str(tmp_path / "missing" / "o.jsonl")
        assert cli.run(["extract", str(manifest), "--ocr-cmd", "true {input}",
                        "-o", out]) == 2
        err = capsys.readouterr().err
        assert out in err
        assert_one_diagnostic(err)


class FullDevice(io.RawIOBase):
    """Raw standard output whose writes fail with ``error`` (ENOSPC, as on
    /dev/full) while ``full`` is set. Its descriptor is a file's, which
    main() may redirect to the null device."""

    def __init__(self, fd: int, error: int):
        super().__init__()
        self.fd, self.error, self.full = fd, error, True

    def writable(self) -> bool:
        return True

    def fileno(self) -> int:
        return self.fd

    def write(self, data) -> int:
        if self.full:
            raise OSError(self.error, os.strerror(self.error))
        return len(data)

    def close(self) -> None:
        if not self.closed:
            os.close(self.fd)
        super().close()


@pytest.fixture()
def failing_stdout(tmp_path, monkeypatch):
    """A function that puts a FullDevice failing with the given errno
    behind a 1 KB buffer in place of ``sys.stdout``."""
    streams = []

    def install(error: int = errno.ENOSPC) -> None:
        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        stdout = io.TextIOWrapper(io.BufferedWriter(FullDevice(fd, error), 1024),
                                  encoding="utf-8", write_through=True)
        monkeypatch.setattr(sys, "stdout", stdout)
        streams.append(stdout)

    yield install
    for stdout in streams:
        stdout.buffer.raw.full = False
        stdout.close()


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

    def test_pipe_closed_early_exits_141(self, workspace):
        src = Path(cli.__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
        read_end, write_end = os.pipe()
        os.close(read_end)  # no reader from the start: the first write fails
        try:
            done = subprocess.run(
                [sys.executable, "-m", "lexseq", "predict", str(workspace["ckpt"]),
                 str(workspace["data"]), "--vocab", str(workspace["vocab_path"])],
                env=env, stdout=write_end, stderr=subprocess.PIPE, text=True,
                timeout=120)
        finally:
            os.close(write_end)
        assert done.returncode == 141, done.stderr
        assert not done.stderr

    def test_full_device_is_a_data_error_from_the_write(self, workspace, capsys,
                                                       failing_stdout):
        failing_stdout()
        code = cli.run(["predict", str(workspace["ckpt"]), str(workspace["data"]),
                        "--vocab", str(workspace["vocab_path"])])
        assert code == 2
        err = capsys.readouterr().err
        assert_one_diagnostic(err)
        assert ("lexseq: data error: cannot write standard output: "
                "No space left on device") in err

    @pytest.mark.parametrize("docs", [60, 2], ids=["in-predict", "in-the-final-flush"])
    @pytest.mark.parametrize("error, code", [(errno.ENOSPC, 2), (errno.EPIPE, 141)],
                             ids=["full", "pipe-closed"])
    def test_failed_stdout_exits_with_one_diagnostic(self, workspace, capsys,
                                                     monkeypatch, tmp_path,
                                                     failing_stdout, docs, error,
                                                     code):
        # 60 records overflow the 1 KB buffer inside predict; 2 stay
        # buffered until main()'s flush
        data = tmp_path / "data.jsonl"
        save_dataset(workspace["docs"][:docs], None, data)
        failing_stdout(error)
        monkeypatch.setattr(sys, "argv", ["lexseq", "predict", str(workspace["ckpt"]),
                                          str(data), "--vocab",
                                          str(workspace["vocab_path"])])
        with pytest.raises(SystemExit) as exited:
            cli.main()
        assert exited.value.code == code
        err = capsys.readouterr().err
        if code == 141:
            assert not err
        else:
            assert_one_diagnostic(err)
            assert "cannot write standard output: No space left on device" in err

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


class TestHeadOverflow:
    """A checkpoint whose logits overflow on finite states is a runtime
    error in predict and evaluate, not NaN output or a miscounted class."""

    @pytest.fixture()
    def overflowing(self, workspace):
        dims = nn.ModelDims(vocab_rows=workspace["vocab"].id_count, embed_dim=5,
                            hidden=3, classes=6, max_len=40)
        model = overflow_head(nn.init_parameters(
            dims, seed=0, labels=SYNTH_LABELS, vocab_digest=workspace["vocab"].digest()))
        ckpt = workspace["tmp_path"] / "overflow.ckpt"
        save_checkpoint(model, ckpt)
        data = workspace["tmp_path"] / "d1.jsonl"
        doc = workspace["docs"][0]
        save_dataset([Document("d1", doc.text, doc.label)], LabelSet(SYNTH_LABELS), data)
        return [str(ckpt), str(data), "--vocab", str(workspace["vocab_path"])]

    def assert_runtime_error(self, err):
        assert_one_diagnostic(err)
        assert ("lexseq: runtime error: document 'd1': "
                "non-finite class probabilities") in err.splitlines()

    def test_predict_exits_3_and_writes_nothing(self, overflowing, capsys):
        assert cli.run(["predict", *overflowing]) == 3
        out, err = capsys.readouterr()
        assert out == ""
        self.assert_runtime_error(err)

    def test_evaluate_exits_3_and_writes_no_report(self, overflowing, tmp_path, capsys):
        report = tmp_path / "report.json"
        assert cli.run(["evaluate", *overflowing, "-o", str(report)]) == 3
        assert not report.exists()
        self.assert_runtime_error(capsys.readouterr().err)

    @pytest.mark.parametrize("command", ["predict", "evaluate"])
    def test_the_error_is_the_only_line(self, overflowing, tmp_path, capfd, command):
        # no outer errstate, and warnings printed as a terminal shows them
        def print_warning(message, category, filename, lineno, file=None, line=None):
            sys.stderr.write(warnings.formatwarning(message, category, filename, lineno,
                                                    line))

        output = ["-o", str(tmp_path / "report.json")] if command == "evaluate" else []
        with warnings.catch_warnings():
            warnings.simplefilter("always")
            warnings.showwarning = print_warning
            assert cli.run([command, *overflowing, *output]) == 3
        assert capfd.readouterr().err.splitlines() == [
            "lexseq: runtime error: document 'd1': non-finite class probabilities"]


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
            iter_tokens(d.text for d in split.train), cap=1000
        )
        assert load_vocabulary(out) == expected

    def test_labels_alone_selects_the_train_partition_of_train_defaults(
            self, workspace, tmp_path, capsys):
        alone, explicit = tmp_path / "alone.txt", tmp_path / "explicit.txt"
        args = ["build-vocab", str(workspace["data"]), "--cap", "1000",
                "--labels", str(workspace["labels"])]
        assert cli.run([*args, "-o", str(alone)]) == 0
        assert "train partition (" in capsys.readouterr().err
        assert cli.run([*args, "--seed", "0", "--ratios", "0.7,0.2,0.1",
                        "-o", str(explicit)]) == 0
        assert alone.read_bytes() == explicit.read_bytes()
        docs = load_dataset(workspace["data"], LabelSet(SYNTH_LABELS))
        split = stratified_split(docs, (0.7, 0.2, 0.1), seed=0)
        assert load_vocabulary(alone) == build_vocabulary(
            iter_tokens(d.text for d in split.train), cap=1000)

    @pytest.mark.parametrize("option, value", [("--seed", "1"),
                                               ("--ratios", "0.7,0.2,0.1")])
    def test_split_option_without_labels_is_usage_error(self, tmp_path, capsys,
                                                        option, value):
        out = tmp_path / "v.txt"
        code = cli.run(["build-vocab", str(tmp_path / "missing.jsonl"), option, value,
                        "-o", str(out)])
        assert code == 1  # before the data path is looked at: that would be exit 2
        err = capsys.readouterr().err
        assert f"{option} needs --labels: it selects the train partition" in err
        assert_one_diagnostic(err)
        assert not out.exists()

    def test_output_is_reproducible(self, workspace, tmp_path):
        a, b = tmp_path / "a.txt", tmp_path / "b.txt"
        for out in (a, b):
            assert cli.run(["build-vocab", str(workspace["data"]), "--cap", "50",
                            "-o", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestCasing:
    """build-vocab decides lowercasing and the vocabulary file records it;
    train, evaluate and predict read it from there."""

    @staticmethod
    def build_vocab(workspace, out, transform, *flags):
        """The workspace corpus with ``transform`` applied to every text,
        and the vocabulary build-vocab makes of it."""
        out.mkdir()
        docs = [Document(d.id, transform(d.text), d.label) for d in workspace["docs"]]
        data, vocab = out / "data.jsonl", out / "vocab.txt"
        save_dataset(docs, LabelSet(SYNTH_LABELS), data)
        assert cli.run(["build-vocab", str(data), *flags, "-o", str(vocab)]) == 0
        return docs, data, vocab

    def test_case_preserving_vocabulary_is_read_without_a_flag(self, workspace,
                                                               tmp_path):
        docs, _, path = self.build_vocab(workspace, tmp_path / "upper", str.upper,
                                         "--no-lowercase")
        vocab = load_vocabulary(path)
        assert vocab.lowercase is False
        assert vocab.entries[0][0].isupper()
        for doc in docs:
            seq = encode_document(doc, vocab, 40)
            assert OOV_ID not in seq.ids[:seq.length].tolist()

    def test_upper_case_pipeline_equals_the_lowercase_one(self, workspace, tmp_path,
                                                          capsys):
        # The corpus is lowercase ASCII, so its upper-case twin built with
        # --no-lowercase has the same table up to case, and the same model.
        outputs = []
        for name, transform, flags in (("upper", str.upper, ["--no-lowercase"]),
                                       ("lower", str, [])):
            out = tmp_path / name
            _, data, vocab = self.build_vocab(workspace, out, transform, *flags)
            ckpt = out / "model.ckpt"
            assert cli.run(["train", str(data), "--labels", str(workspace["labels"]),
                            "--vocab", str(vocab), "--epochs", "2", "--batch", "8",
                            "--lr", "0.01", "--embed", "8", "--hidden", "6",
                            "--max-len", "40", "-o", str(ckpt)]) == 0
            assert cli.run(["evaluate", str(ckpt), str(data), "--vocab", str(vocab),
                            "-o", str(out / "report.json")]) == 0
            assert cli.run(["predict", str(ckpt), str(data), "--vocab", str(vocab)]) == 0
            outputs.append(((out / "report.json").read_bytes(), capsys.readouterr().out))
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["accuracy"] > 1 / 6

    @pytest.mark.parametrize("command", ["train", "evaluate", "predict"])
    def test_only_build_vocab_and_extract_take_the_flag(self, workspace, tmp_path,
                                                        capsys, command):
        inputs = [str(workspace["ckpt"]), str(workspace["data"]),
                  "--vocab", str(workspace["vocab_path"])]
        args = {"train": train_args(workspace, "-o", str(tmp_path / "x.ckpt")),
                "evaluate": ["evaluate", *inputs, "-o", str(tmp_path / "r.json")],
                "predict": ["predict", *inputs]}[command]
        assert cli.run([*args, "--no-lowercase"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --no-lowercase" in err
        assert_one_diagnostic(err)

    def test_extract_takes_no_casing_flag(self, workspace, tmp_path, capsys):
        # extract counts tokens as tokenize(text) does
        args = command_args(workspace, tmp_path, "extract")
        assert cli.run([*args, "--no-lowercase"]) == 1
        err = capsys.readouterr().err
        assert "unrecognized arguments: --no-lowercase" in err
        assert_one_diagnostic(err)

    def test_vocabulary_without_tokens_is_data_error(self, workspace, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("#vocab v1 size=0 cap=5\n", encoding="utf-8")
        args = train_args(workspace, "-o", str(tmp_path / "x.ckpt"))
        args[args.index("--vocab") + 1] = str(empty)
        assert cli.run(args) == 2
        err = capsys.readouterr().err
        assert f"{empty}: vocabulary has no tokens" in err
        assert_one_diagnostic(err)


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

    @pytest.mark.parametrize("command", ["not-executable", "a-directory"])
    def test_command_that_cannot_start_is_runtime_error(self, tmp_path, capsys,
                                                        command):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(
            json.dumps({"page": 1, "text": "@@ ##", "image": "x.png"}) + "\n",
            encoding="utf-8",
        )
        program = tmp_path / command
        if command == "a-directory":
            program.mkdir()
        else:
            program.write_text("#!/bin/sh\necho text\n", encoding="utf-8")
            program.chmod(0o644)
        code = cli.run(["extract", str(manifest), "--ocr-cmd", f"{program} {{input}}",
                        "-o", str(tmp_path / "o.jsonl")])
        assert code == 3
        err = capsys.readouterr().err
        assert_one_diagnostic(err)
        assert (f"lexseq: runtime error: OCR command {str(program)!r} could not start: "
                "Permission denied") in err

    def test_template_without_placeholder_is_usage_error(self, tmp_path):
        manifest = tmp_path / "doc.jsonl"
        manifest.write_text(json.dumps({"page": 1, "text": "texto"}) + "\n",
                            encoding="utf-8")
        code = cli.run(["extract", str(manifest), "--ocr-cmd", "tesseract",
                        "-o", str(tmp_path / "o.jsonl")])
        assert code == 1

    @pytest.mark.parametrize("option, value", [
        ("--min-chars", "-1"), ("--min-wordlike-ratio", "2"),
        ("--min-wordlike-ratio", "nan"), ("--ocr-cmd", "tesseract"), ("--id", ""),
    ])
    def test_bad_option_is_reported_before_the_manifest_is_read(
            self, tmp_path, capsys, option, value):
        args = ["extract", str(tmp_path / "missing.jsonl"), "--ocr-cmd", "true {input}",
                "-o", str(tmp_path / "o.jsonl")]
        assert cli.run([*args, option, value]) == 1
        err = capsys.readouterr().err
        assert option in err and "does not exist" not in err
        assert_one_diagnostic(err)


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
        # results only: no wall-clock field, so equal runs write equal bytes
        assert set(records[0]) == {"epoch", "train_loss", "train_accuracy", "val_loss",
                                   "val_accuracy"}

    def test_clip_norm_run_writes_a_checkpoint(self, workspace, tmp_path):
        ckpt = tmp_path / "clipped.ckpt"
        assert cli.run(train_args(workspace, "--clip-norm", "0.01",
                                  "-o", str(ckpt))) == 0
        model, _ = load_checkpoint(ckpt)
        assert model.dims.hidden == 6

    def test_each_epoch_line_times_its_epoch(self, workspace, tmp_path, capsys):
        # the history holds results only; the stderr line keeps the time
        assert cli.run(train_args(workspace, "--epochs", "2",
                                  "-o", str(tmp_path / "m.ckpt"))) == 0
        lines = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("epoch ")]
        assert [line.split(":")[0] for line in lines] == ["epoch 1", "epoch 2"]
        assert all(re.search(r" \(\d+\.\ds\)$", line) for line in lines), lines

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
