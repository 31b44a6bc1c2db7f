"""Every package module parses as the oldest Python that pyproject allows.

Tier-1 may run on a newer interpreter only, so syntax newer than the floor
(``except*``, type parameter lists, ...) would otherwise go unnoticed.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
MODULES = sorted((ROOT / "src" / "graphspir").glob("*.py"))


def _python_floor() -> tuple[int, int]:
    """``requires-python``'s lower bound, read with a pattern: ``tomllib``
    needs Python 3.11."""
    text = (ROOT / "pyproject.toml").read_text()
    match = re.search(r'^requires-python\s*=\s*">=\s*(\d+)\.(\d+)"', text, re.MULTILINE)
    assert match, "pyproject.toml declares no requires-python lower bound"
    return int(match[1]), int(match[2])


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_module_parses_at_the_python_floor(path):
    ast.parse(path.read_text(), filename=str(path), feature_version=_python_floor())


def test_newer_syntax_is_refused_at_the_floor():
    newer = "try:\n    pass\nexcept* ValueError:\n    pass\n"
    with pytest.raises(SyntaxError):
        ast.parse(newer, feature_version=_python_floor())
