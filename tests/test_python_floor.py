"""The source and tests parse at the oldest Python that pyproject.toml declares.

This checks grammar only (``ast.parse`` with ``feature_version``), not the
standard library: a call to an API added after the floor still passes.
The floor is read with a regex, because ``tomllib`` needs Python 3.11.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def declared_floor() -> tuple[int, int]:
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    found = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert found, "pyproject.toml declares no requires-python floor"
    return int(found[1]), int(found[2])


def test_every_file_parses_at_the_declared_floor():
    floor = declared_floor()
    files = sorted((ROOT / "src").rglob("*.py")) + sorted((ROOT / "tests").rglob("*.py"))
    assert len(files) > 20
    failures = []
    for path in files:
        try:
            ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=floor)
        except SyntaxError as err:
            failures.append(f"{path.relative_to(ROOT)}:{err.lineno}: {err.msg}")
    assert failures == []
