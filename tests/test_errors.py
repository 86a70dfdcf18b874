"""The file boundary: the one writer of every output file, and the JSON
parse that refuses a string no UTF-8 output can write back."""

import builtins
import errno
import json
import os
import stat
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from lexseq import cli, errors, nn
from lexseq.errors import DataError, OutputError, json_lines, parse_json, write_atomically
from lexseq.metrics import evaluation_report
from lexseq.tokenizer import build_vocabulary, save_vocabulary
from lexseq.trainer import EpochRecord, TrainHistory, load_checkpoint, save_checkpoint

WORDS = " ".join(["palavra"] * 50)


def write_vocabulary(path, version):
    save_vocabulary(build_vocabulary(iter("xyyz" if version else "aab"), cap=5), path)


def write_checkpoint(path, version):
    dims = nn.ModelDims(vocab_rows=5, embed_dim=2, hidden=2, classes=2, max_len=4)
    save_checkpoint(nn.init_parameters(dims, seed=version), path)


def report(version):
    return evaluation_report([(0, 0), (1, version)], ("Agravo, interno", "Sentença"))


def write_report_json(path, version):
    report(version).save_json(path)


def write_matrix_csv(path, version):
    report(version).save_matrix_csv(path)


def write_history(path, version):
    TrainHistory([EpochRecord(1, 0.5, version / 4, None, None)]).save_json(path)


def write_extract_line(path, version):
    manifest = Path(path).parent / "pages.jsonl"
    manifest.write_text(json.dumps({"page": 1, "text": f"{WORDS} {version}"}) + "\n",
                        encoding="utf-8")
    cli._cmd_extract(cli._build_parser().parse_args(
        ["extract", str(manifest), "--ocr-cmd", "true {input}", "-o", str(path)]))


WRITERS = {
    "vocabulary": write_vocabulary,
    "checkpoint": write_checkpoint,
    "report-json": write_report_json,
    "matrix-csv": write_matrix_csv,
    "history": write_history,
    "extract-line": write_extract_line,
}


@pytest.fixture(params=list(WRITERS))
def writer(request):
    return WRITERS[request.param]


def written(writer, tmp_path, version):
    """The bytes ``writer`` gives a new regular file."""
    folder = tmp_path / f"reference-{version}"
    folder.mkdir()
    writer(folder / "out", version)
    return (folder / "out").read_bytes()


def names(folder):
    return sorted(p.name for p in folder.iterdir())


class FullDisk:
    """A file whose first write stores one byte and then fails."""

    def __init__(self, fh):
        self.fh, self.failed = fh, False

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(memoryview(data).cast("B")[:1])
        self.fh.flush()
        self.failed = True
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    def __getattr__(self, name):
        return getattr(self.fh, name)


class TestEveryOutput:
    """The six outputs share one writer, so each behaves the same way."""

    def test_failure_partway_keeps_the_old_file(self, writer, tmp_path, monkeypatch):
        folder = tmp_path / "out"
        folder.mkdir()
        path = folder / "target"
        writer(path, 0)
        before, listing = path.read_bytes(), names(folder)
        opened = []

        def failing_open(file, mode="r", *args, **kwargs):
            fh = builtins.open(file, mode, *args, **kwargs)
            if "r" in mode:
                return fh
            opened.append(FullDisk(fh))
            return opened[-1]

        monkeypatch.setattr(errors, "open", failing_open, raising=False)
        with pytest.raises(OSError, match="No space left on device") as caught:
            writer(path, 1)
        assert str(path) in str(caught.value) and caught.value.errno == errno.ENOSPC
        assert [fh.failed for fh in opened] == [True]
        assert path.read_bytes() == before
        assert names(folder) == listing

    def test_fifo_is_written_in_place(self, writer, tmp_path):
        expected = written(writer, tmp_path, 1)
        assert len(expected) < 65536  # within a pipe's buffer: the write cannot block
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            writer(fifo, 1)
            chunks = []
            while chunk := os.read(reader, 65536):
                chunks.append(chunk)
        finally:
            os.close(reader)
        assert b"".join(chunks) == expected
        assert stat.S_ISFIFO(os.lstat(fifo).st_mode)

    def test_symlink_stays_and_its_file_is_replaced(self, writer, tmp_path):
        expected = written(writer, tmp_path, 1)
        folder = tmp_path / "out"
        folder.mkdir()
        (folder / "link").symlink_to("file")
        writer(folder / "link", 0)
        writer(folder / "link", 1)
        assert (folder / "link").is_symlink()
        assert os.readlink(folder / "link") == "file"
        assert (folder / "file").read_bytes() == expected
        assert not [name for name in names(folder) if name.startswith(".")]

    def test_name_of_255_bytes(self, writer, tmp_path):
        expected = written(writer, tmp_path, 1)
        folder = tmp_path / "out"
        folder.mkdir()
        path = folder / ("é" * 120 + "n" * 15)
        assert len(os.fsencode(path.name)) == 255
        writer(path, 0)
        writer(path, 1)
        assert path.read_bytes() == expected
        assert not [name for name in names(folder) if name.startswith(".")]


class TestWriteAtomically:
    def test_bytes_or_a_function_of_the_file(self, tmp_path):
        write_atomically(tmp_path / "a", b"one\ntwo\n")
        write_atomically(tmp_path / "b", lambda fh: fh.writelines([b"one\n", b"two\n"]))
        assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()

    def test_error_names_the_path(self, tmp_path):
        path = tmp_path / "missing" / "out"
        with pytest.raises(OutputError) as caught:
            write_atomically(path, b"x")
        assert str(caught.value) == f"cannot write output {path}: No such file or directory"
        assert isinstance(caught.value, OSError) and isinstance(caught.value, DataError)
        assert caught.value.errno == errno.ENOENT

    def test_a_temporary_file_not_made_is_not_removed(self, tmp_path, monkeypatch):
        def refusing_open(file, mode="r", *args, **kwargs):
            raise OSError(errno.ENAMETOOLONG, os.strerror(errno.ENAMETOOLONG))

        unlinked = []
        monkeypatch.setattr(errors, "open", refusing_open, raising=False)
        monkeypatch.setattr(Path, "unlink", lambda self, *a, **k: unlinked.append(self))
        with pytest.raises(OutputError, match="File name too long") as caught:
            write_atomically(tmp_path / "out", b"x")
        assert caught.value.__cause__.__context__ is None
        assert unlinked == []

    def test_interrupt_removes_the_temporary_file(self, tmp_path):
        (tmp_path / "out").write_bytes(b"old")

        def interrupted(fh):
            fh.write(b"new")
            raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            write_atomically(tmp_path / "out", interrupted)
        assert names(tmp_path) == ["out"]
        assert (tmp_path / "out").read_bytes() == b"old"


def surrogate_in(value) -> bool:
    text = json.dumps(value, ensure_ascii=False)
    return any(0xD800 <= ord(ch) <= 0xDFFF for ch in text)


class TestUnpairedSurrogates:
    """A string holding an unpaired surrogate loads without error from
    JSON's escapes, but no UTF-8 output can hold it: each JSON input
    refuses it, naming the file and line."""

    @pytest.mark.parametrize("line, code", [
        ('{"id": "a", "text": "\\ud800 palavra"}', "D800"),
        ('{"id": "a", "text": "palavra \\uDFFF"}', "DFFF"),
        ('{"id": "a", "text": "t", "\\udc00": 1}', "DC00"),
        ('{"id": "a", "text": ["x", {"y": "\\ude00\\ud83d"}]}', "DE00"),
    ], ids=["high", "low", "key", "reversed-pair"])
    def test_json_lines_names_the_line(self, tmp_path, line, code):
        path = tmp_path / "data.jsonl"
        path.write_text('{"id": "ok"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=f"^{path}:2: unpaired surrogate U\\+{code} "):
            list(json_lines(path, "dataset"))

    @pytest.mark.parametrize("text", ['"\\ud83d\\ude00"', '"\\\\ud800"', '"ok"'],
                             ids=["pair", "escaped-backslash", "none"])
    def test_accepted(self, text):
        assert parse_json(text, "here") == json.loads(text)

    @given(st.lists(st.sampled_from(["a", "\ud800", "\udbff", "\udc00", "\udfff",
                                     "😀", "\\", "u", "d800", '"']), max_size=12))
    def test_refused_exactly_when_a_surrogate_loads(self, parts):
        text = json.dumps({"k": "".join(parts)})
        value = json.loads(text)
        if surrogate_in(value):
            with pytest.raises(DataError, match="^here: unpaired surrogate"):
                parse_json(text, "here")
        else:
            assert parse_json(text, "here") == value

    def test_checkpoint_header(self, tmp_path):
        path = tmp_path / "model.ckpt"
        dims = nn.ModelDims(vocab_rows=5, embed_dim=2, hidden=2, classes=2, max_len=4)
        save_checkpoint(nn.init_parameters(dims, seed=0, labels=("a", "b")), path)
        path.write_bytes(path.read_bytes().replace(b'"a"', b'"\\ud800"', 1))
        with pytest.raises(DataError, match=f"^{path}:1: unpaired surrogate U\\+D800 "):
            load_checkpoint(path)
