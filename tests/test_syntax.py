"""Every source file parses as Python 3.10, the oldest version pyproject.toml
allows, so syntax added in a later version fails here on any interpreter.
The parser's feature_version check is best effort, and it says nothing of
library calls that a later version added."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted(p for d in ("src/ccarena", "tests", "demos") for p in (ROOT / d).rglob("*.py"))


def test_sources_are_found():
    assert {p.parent.name for p in SOURCES} >= {"ccarena", "tests", "demos"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: str(p.relative_to(ROOT)))
def test_parses_as_python_3_10(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))


@pytest.mark.parametrize("source", [
    "try:\n    pass\nexcept* ValueError:\n    pass\n",   # 3.11
    "type Alias = int\n",                              # 3.12
])
def test_later_syntax_is_refused(source):
    with pytest.raises(SyntaxError):
        ast.parse(source, feature_version=(3, 10))
