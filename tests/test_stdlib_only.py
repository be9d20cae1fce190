"""The runtime uses no third-party package: every module that
``src/tracewatt`` imports is part of tracewatt or of the standard library."""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tracewatt").glob("*.py"))


def _imported_modules(path: Path) -> list[str]:
    """Top-level names of the absolute imports in one source file."""
    names = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.extend(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.append(node.module.split(".")[0])
    return names


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"__init__.py", "cli.py", "stats.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_tracewatt_or_stdlib(path):
    foreign = [
        name for name in _imported_modules(path)
        if name != "tracewatt" and name not in sys.stdlib_module_names
    ]
    assert foreign == []
