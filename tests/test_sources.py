"""Every Python file of the project parses under the oldest Python that
``pyproject.toml`` accepts (``requires-python``), which this suite may
not be run on."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_source_file_parses_at_the_minimum_python():
    pyproject = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    minimum = re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', pyproject, re.M)
    version = (int(minimum[1]), int(minimum[2]))
    paths = sorted(path for top in ("src", "tests", "perfbench")
                   for path in (ROOT / top).rglob("*.py")
                   if not any(part.startswith(".") for part in path.relative_to(ROOT).parts))
    assert len(paths) > 20
    failures = []
    for path in paths:
        try:
            ast.parse(path.read_bytes(), filename=str(path), feature_version=version)
        except SyntaxError as exc:
            failures.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert not failures
