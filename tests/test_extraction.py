import json
import os
import stat
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import check_every_truncation_and_bit_flip, damaged, load_variant

from lexseq import extraction
from lexseq.errors import DataError, OcrError
from lexseq.extraction import (
    PageRecord,
    QualityGateConfig,
    assess_quality,
    extract_text,
    load_page_manifest,
    ocr_command_backend,
)
from lexseq.tokenizer import tokenize

PROSE = (
    "Trata-se de recurso interposto contra a decisão que negou seguimento "
    "ao pedido formulado pela parte autora, nos termos da legislação vigente "
    "aplicável ao caso concreto em exame por este juízo de primeira instância."
)


def fake_ocr(pages_text):
    """In-process backend mapping image path -> canned text, with call log."""
    calls = []

    def backend(image_path):
        calls.append(image_path)
        return pages_text[image_path]

    return backend, calls


class TestAssessQuality:
    def test_ordinary_prose_passes(self):
        assert len(PROSE) >= 200
        score, passed = assess_quality(PROSE)
        assert score > 0.95
        assert passed

    def test_garbage_scores_zero(self):
        score, passed = assess_quality("@# 12 :: ~~ 9")
        assert score == 0.0
        assert not passed

    def test_empty_fails_min_chars(self):
        score, passed = assess_quality("")
        assert score == 0.0
        assert not passed

    def test_short_but_clean_fails_min_chars(self):
        score, passed = assess_quality("texto bom")
        assert score == 1.0
        assert not passed

    def test_score_is_in_unit_interval(self):
        for text in ("", "ok", "a b c", "@@ bom ruim ##", PROSE):
            score, _ = assess_quality(text)
            assert 0.0 <= score <= 1.0

    def test_threshold_is_configurable(self):
        config = QualityGateConfig(min_wordlike_ratio=0.5, min_chars=1)
        assert assess_quality("bom ## ruim ##", config) == (0.5, True)

    @given(st.text(st.one_of(st.sampled_from("ab1_ .,\n\t\xa0çÃ٣ǅªーİ²"), st.characters()),
                   max_size=80))
    @settings(max_examples=300, deadline=None)
    def test_score_equals_the_per_token_count(self, text):
        tokens = text.split()
        wordlike = sum(1 for tok in tokens if extraction._WORDLIKE.search(tok))
        expected = wordlike / len(tokens) if tokens else 0.0
        assert assess_quality(text)[0] == expected


class TestExtractText:
    def test_embedded_accept_skips_ocr(self):
        long_text = " ".join(["palavra"] * 1200)
        pages = [
            PageRecord(1, embedded_text=long_text),
            PageRecord(2, embedded_text=long_text, image_path="p2.png"),
        ]
        backend, calls = fake_ocr({})
        result = extract_text(pages, backend, token_target=1000)
        assert result.pages_used == ((1, "embedded"),)
        assert result.complete
        assert calls == []

    def test_ocr_fallback_on_failed_gate(self):
        ocr_text = " ".join(["texto"] * 1200)
        pages = [PageRecord(1, embedded_text="@@ ## []", image_path="page1.png")]
        backend, calls = fake_ocr({"page1.png": ocr_text})
        result = extract_text(pages, backend, token_target=1000)
        assert result.pages_used == ((1, "ocr"),)
        assert result.complete
        assert calls == ["page1.png"]

    def test_exhaustion_sets_incomplete(self):
        page_text = " ".join(["palavra"] * 200)
        pages = [
            PageRecord(1, embedded_text=page_text),
            PageRecord(2, embedded_text=page_text),
        ]
        backend, _ = fake_ocr({})
        result = extract_text(pages, backend, token_target=1000)
        assert not result.complete
        assert result.token_count == 400
        assert result.pages_used == ((1, "embedded"), (2, "embedded"))

    def test_token_count_matches_tokenizer(self):
        pages = [
            PageRecord(1, embedded_text=PROSE),
            PageRecord(2, embedded_text=PROSE),
        ]
        backend, _ = fake_ocr({})
        result = extract_text(pages, backend, token_target=10_000)
        assert result.token_count == len(tokenize(result.text))

    @given(st.lists(st.text(st.one_of(st.sampled_from("ab1 \n\t\xa0.-/_²\u0301İ"),
                                      st.characters()), max_size=80),
                    min_size=1, max_size=5))
    @settings(max_examples=200, deadline=None)
    def test_token_count_is_that_of_the_text(self, texts):
        # every page passes the gate, and the target is out of reach
        pages = [PageRecord(n, embedded_text=text) for n, text in enumerate(texts, 1)]
        gate = QualityGateConfig(min_wordlike_ratio=0.0, min_chars=0)
        result = extract_text(pages, fake_ocr({})[0], gate, token_target=10_000)
        assert len(result.pages_used) == len(texts) and not result.complete
        assert result.token_count == len(tokenize(result.text))

    def test_failed_gate_without_image_names_page(self):
        pages = [PageRecord(1, embedded_text=PROSE), PageRecord(2, embedded_text="@@")]
        backend, _ = fake_ocr({})
        with pytest.raises(DataError, match="page 2"):
            extract_text(pages, backend, token_target=10_000)

    def test_early_stop_means_single_page(self):
        long_text = " ".join(["palavra"] * 1500)
        pages = [PageRecord(n, embedded_text=long_text) for n in range(1, 6)]
        backend, _ = fake_ocr({})
        result = extract_text(pages, backend, token_target=1000)
        assert len(result.pages_used) == 1

    def test_empty_page_list_rejected(self):
        backend, _ = fake_ocr({})
        with pytest.raises(DataError):
            extract_text([], backend)

    def test_page_record_needs_text_or_image(self):
        with pytest.raises(ValueError):
            PageRecord(1)


class TestOcrCommandBackend:
    def make_script(self, tmp_path, body):
        script = tmp_path / "fake_ocr.py"
        script.write_text(body, encoding="utf-8")
        return f"{sys.executable} {script} {{input}}"

    def test_template_requires_placeholder(self):
        with pytest.raises(ValueError, match="placeholder"):
            ocr_command_backend("tesseract stdout")

    def test_stub_command_round_trip(self, tmp_path):
        fixture = tmp_path / "page.txt"
        fixture.write_text("texto reconhecido pelo ocr\n", encoding="utf-8")
        backend = ocr_command_backend(
            self.make_script(tmp_path, "import sys\nprint(open(sys.argv[1]).read(), end='')\n")
        )
        assert backend(str(fixture)) == "texto reconhecido pelo ocr\n"

    def test_output_newlines_read_as_in_text_mode(self, tmp_path):
        backend = ocr_command_backend(self.make_script(
            tmp_path, "import sys\nsys.stdout.buffer.write('a\\r\\nb\\rção\\n'.encode())\n"))
        assert backend("page.png") == "a\nb\nção\n"

    def test_nonzero_exit_carries_diagnostics(self, tmp_path):
        backend = ocr_command_backend(
            self.make_script(tmp_path, "import sys\nsys.stderr.write('lens cap on')\nsys.exit(3)\n")
        )
        with pytest.raises(OcrError, match="lens cap on"):
            backend("whatever.png")

    def test_missing_command(self):
        backend = ocr_command_backend("definitely-not-a-real-binary-xyz {input}")
        with pytest.raises(OcrError, match="not found"):
            backend("page.png")

    def test_hung_command_is_killed_at_the_time_limit(self, monkeypatch):
        monkeypatch.setattr(extraction, "OCR_TIMEOUT_S", 0.5)
        backend = ocr_command_backend(
            f'{sys.executable} -c "import time; time.sleep(30)" {{input}}')
        start = time.monotonic()
        with pytest.raises(OcrError) as excinfo:
            backend("scans/p7.png")
        assert time.monotonic() - start < 15
        assert str(excinfo.value) == (
            "OCR command on 'scans/p7.png' did not finish within 0.5 s")

    def test_failure_surfaces_through_extract_text(self, tmp_path):
        backend = ocr_command_backend(
            self.make_script(tmp_path, "import sys\nsys.exit(1)\n")
        )
        pages = [PageRecord(1, embedded_text="@@", image_path="p.png")]
        with pytest.raises(OcrError):
            extract_text(pages, backend, token_target=10)


class TestPageManifest:
    def test_load(self, tmp_path):
        path = tmp_path / "doc.manifest.jsonl"
        rows = [
            {"page": 1, "text": "conteúdo da página"},
            {"page": 2, "image": "scans/p2.png"},
        ]
        path.write_text(
            "\n".join(json.dumps(r, ensure_ascii=False) for r in rows) + "\n",
            encoding="utf-8",
        )
        pages = load_page_manifest(path)
        assert pages[0].embedded_text == "conteúdo da página"
        assert pages[1].image_path == "scans/p2.png"

    def test_page_without_content_is_named(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text('{"page": 3}\n', encoding="utf-8")
        with pytest.raises(DataError, match="page 3"):
            load_page_manifest(path)

    def test_empty_manifest_rejected(self, tmp_path):
        path = tmp_path / "doc.jsonl"
        path.write_text("", encoding="utf-8")
        with pytest.raises(DataError):
            load_page_manifest(path)

    @pytest.mark.parametrize("numbers, lineno, message", [
        ([2, 1, 1], 2, "page 1 after page 2"),
        ([1, 2, 2], 3, "page 2 after page 2"),
        ([1, 3, 2], 3, "page 2 after page 3"),
    ], ids=["decreasing", "repeated", "decreasing-late"])
    def test_page_numbers_must_strictly_increase(self, tmp_path, numbers, lineno, message):
        path = tmp_path / "doc.jsonl"
        path.write_text("".join(json.dumps({"page": n, "text": f"p{n}"}) + "\n"
                                for n in numbers), encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_page_manifest(path)
        assert str(excinfo.value) == (
            f"{path}:{lineno}: {message}; page numbers must strictly increase")

    @pytest.mark.parametrize("line", [
        '{"page": true, "text": "abc"}',
        '{"page": false, "text": "abc"}',
        '{"page": 1.0, "text": "abc"}',
        '{"page": "1", "text": "abc"}',
        '[1, "abc"]',
    ], ids=["true", "false", "float", "string", "list"])
    def test_page_must_be_an_integer(self, tmp_path, line):
        path = tmp_path / "doc.jsonl"
        path.write_text('{"page": 1, "text": "abc"}\n' + line + "\n", encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_page_manifest(path)
        assert str(excinfo.value) == f"{path}:2: expected an object with integer 'page'"

    @pytest.mark.parametrize("line", [
        '{"page": 1, "text": 5}',
        '{"page": 1, "image": ["p1.png"]}',
    ], ids=["number-text", "list-image"])
    def test_text_and_image_must_be_strings(self, tmp_path, line):
        path = tmp_path / "doc.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1: 'text' and 'image' must be strings"):
            load_page_manifest(path)

    @pytest.mark.parametrize("body, message", [
        ('{"page": 1, "text": "t"}\n\n', ":2: blank line in manifest"),
        ('{"page": 1, "text": "t"}\n  \t\n', ":2: blank line in manifest"),
        ('{"page": 1, "text": "t"}\n{oops\n',
         ":2: malformed JSON: Expecting property name enclosed in double quotes"),
        ('{"page": 1, "text": "t"}\n[1] x\n', ":2: malformed JSON: Extra data"),
    ], ids=["empty", "spaces", "bad-key", "extra-data"])
    def test_line_faults_are_named_word_for_word(self, tmp_path, body, message):
        path = tmp_path / "lines.jsonl"
        path.write_text(body, encoding="utf-8")
        with pytest.raises(DataError) as excinfo:
            load_page_manifest(path)
        assert str(excinfo.value) == f"{path}{message}"

    @pytest.mark.parametrize("line", [
        '{"page": ' + "1" * 5000 + ', "text": "t"}',
        "[" * 100_000,
    ], ids=["int-of-5000-digits", "nested-100000-deep"])
    def test_json_the_parser_refuses_is_malformed(self, tmp_path, line):
        path = tmp_path / "doc.jsonl"
        path.write_text(line + "\n", encoding="utf-8")
        with pytest.raises(DataError, match=":1: malformed JSON"):
            load_page_manifest(path)


@pytest.fixture(scope="module")
def manifest_file(tmp_path_factory):
    """A valid manifest of text, image and text-and-image pages, and a
    scratch path for damaged variants."""
    path = tmp_path_factory.mktemp("manifest") / "doc.manifest.jsonl"
    rows = [{"page": 1, "text": "Primeira página do acórdão"},
            {"page": 2, "image": "scans/p2.png"},
            {"page": 3, "text": "zq xv", "image": "scans/p3.png"}]
    path.write_text("".join(json.dumps(r, ensure_ascii=False) + "\n" for r in rows),
                    encoding="utf-8")
    return path.read_bytes(), path.with_name("variant.jsonl")


class TestPageManifestFuzz:
    """A damaged manifest either loads or raises DataError."""

    def test_every_truncation_and_bit_flip(self, manifest_file):
        blob, path = manifest_file
        check_every_truncation_and_bit_flip(load_page_manifest, path, blob)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_flip_and_truncation_anywhere(self, manifest_file, data):
        blob, path = manifest_file
        load_variant(load_page_manifest, path, damaged(blob, data))
