"""Page-level text extraction with a quality gate and OCR fallback.

Pages arrive pre-split as :class:`PageRecord` values (JSON Lines
manifest, one file per document). Embedded page text that passes the
wordlike-ratio gate is accepted as-is; otherwise the page image goes
through an external OCR command. Processing stops as soon as the
accumulated token count covers the target window.
"""

from __future__ import annotations

import re
import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Sequence

from .errors import DataError, OcrError, json_lines
from .nn import ModelDims
from .tokenizer import tokenize

# A token counts as wordlike when it contains two consecutive letters.
_WORDLIKE = re.compile(r"[^\W\d_]{2}")

OcrBackend = Callable[[str], str]

# Seconds one OCR child may run on one page image before it is killed;
# generous, since a dense scanned page can take minutes.
OCR_TIMEOUT_S = 600.0


@dataclass(frozen=True)
class PageRecord:
    page_number: int
    embedded_text: str | None = None
    image_path: str | None = None

    def __post_init__(self):
        if self.page_number < 1:
            raise ValueError("page_number is 1-based")
        if self.embedded_text is None and self.image_path is None:
            raise ValueError(
                f"page {self.page_number} has neither embedded text nor an image"
            )


@dataclass(frozen=True)
class QualityGateConfig:
    min_wordlike_ratio: float = 0.70
    min_chars: int = 50

    def __post_init__(self):
        if not 0.0 <= self.min_wordlike_ratio <= 1.0:
            raise ValueError("min_wordlike_ratio must be in [0, 1]")
        if self.min_chars < 0:
            raise ValueError("min_chars must be non-negative")


@dataclass(frozen=True)
class ExtractionResult:
    text: str
    pages_used: tuple[tuple[int, str], ...]  # (page_number, "embedded" | "ocr")
    token_count: int
    complete: bool


def assess_quality(
    text: str, config: QualityGateConfig = QualityGateConfig()
) -> tuple[float, bool]:
    """Wordlike-token ratio plus a minimum-length requirement.

    The score is wordlike tokens over whitespace-separated tokens
    (0 when there are none); the gate passes when the score reaches the
    configured ratio and the text has at least ``min_chars`` characters.
    """
    tokens = text.split()
    if tokens:
        wordlike = sum(map(bool, map(_WORDLIKE.search, tokens)))
        score = wordlike / len(tokens)
    else:
        score = 0.0
    passed = score >= config.min_wordlike_ratio and len(text) >= config.min_chars
    return score, passed


def extract_text(
    pages: Sequence[PageRecord],
    ocr: OcrBackend,
    gate: QualityGateConfig = QualityGateConfig(),
    token_target: int = ModelDims.max_len,
) -> ExtractionResult:
    """Process pages in order until the token target is covered, counting
    tokens as :func:`~lexseq.tokenizer.tokenize` does.

    Per page: embedded text that passes the gate is accepted directly;
    otherwise the OCR backend runs on the page image. OCR output is
    accepted without gating (it replaces, never merges with, rejected
    embedded text).
    """
    if not pages:
        raise DataError("document has no pages")
    if token_target < 1:
        raise ValueError("token_target must be >= 1")
    chunks: list[str] = []
    pages_used: list[tuple[int, str]] = []
    token_count = 0
    complete = False
    for page in pages:
        if page.embedded_text is not None and assess_quality(page.embedded_text, gate)[1]:
            page_text = page.embedded_text
            source = "embedded"
        elif page.image_path is not None:
            page_text = ocr(page.image_path)
            source = "ocr"
        else:
            raise DataError(
                f"page {page.page_number}: embedded text failed the quality "
                "gate and no page image is available"
            )
        chunks.append(page_text)
        pages_used.append((page.page_number, source))
        token_count += len(tokenize(page_text))
        if token_count >= token_target:
            complete = True
            break
    return ExtractionResult(
        text="\n".join(chunks),
        pages_used=tuple(pages_used),
        token_count=token_count,
        complete=complete,
    )


def ocr_command_backend(command_template: str) -> OcrBackend:
    """Adapter for an external OCR command.

    The template must contain an ``{input}`` placeholder for the page
    image path; the child's standard output (UTF-8) is the page text,
    with newlines translated as in text mode. A missing command, one
    that cannot be started (no exec bit, a directory), a non-zero exit,
    a child still running after ``OCR_TIMEOUT_S`` seconds (it is killed)
    or output that is not UTF-8 surfaces as :class:`OcrError`.
    Each call spawns an independent child process, so the backend
    tolerates concurrent invocations.
    """
    if "{input}" not in command_template:
        raise ValueError("OCR command template must contain an {input} placeholder")
    argv_template = shlex.split(command_template)

    def run(image_path: str) -> str:
        argv = [arg.replace("{input}", image_path) for arg in argv_template]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=OCR_TIMEOUT_S)
        except FileNotFoundError:
            raise OcrError(f"OCR command not found: {argv[0]!r}") from None
        except OSError as exc:  # not executable, a directory, ...
            raise OcrError(f"OCR command {argv[0]!r} could not start: "
                           f"{exc.strerror}") from None
        except subprocess.TimeoutExpired:
            raise OcrError(f"OCR command on {image_path!r} did not finish within "
                           f"{OCR_TIMEOUT_S:g} s") from None
        if proc.returncode != 0:
            raise OcrError(
                f"OCR command exited with status {proc.returncode}: "
                f"{proc.stderr.decode('utf-8', 'replace').strip()}"
            )
        try:
            text = proc.stdout.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise OcrError(f"OCR output for {image_path!r} is not UTF-8 text "
                           f"(byte {exc.start}: {exc.reason})") from None
        return text.replace("\r\n", "\n").replace("\r", "\n")

    return run


def load_page_manifest(path: str | Path) -> list[PageRecord]:
    """Read one document's page manifest (JSON Lines: page, text, image).
    Page numbers must strictly increase from line to line."""
    pages: list[PageRecord] = []
    for lineno, raw in json_lines(path, "manifest"):
        if not isinstance(raw, dict) or type(raw.get("page")) is not int:  # bool is an int
            raise DataError(f"{path}:{lineno}: expected an object with integer 'page'")
        text, image = raw.get("text"), raw.get("image")
        if not all(value is None or isinstance(value, str) for value in (text, image)):
            raise DataError(f"{path}:{lineno}: 'text' and 'image' must be strings")
        try:
            pages.append(PageRecord(page_number=raw["page"], embedded_text=text,
                                    image_path=image))
        except ValueError as exc:
            raise DataError(f"{path}:{lineno}: {exc}") from None
        if len(pages) > 1 and pages[-1].page_number <= pages[-2].page_number:
            raise DataError(f"{path}:{lineno}: page {pages[-1].page_number} after page "
                            f"{pages[-2].page_number}; page numbers must strictly increase")
    if not pages:
        raise DataError(f"{path}: manifest has no pages")
    return pages
