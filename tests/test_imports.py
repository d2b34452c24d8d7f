"""Every name that a module of the package, of tools/ or of tests/ imports is used."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted(
    path for d in ("src/delcodes", "tools", "tests") for path in ROOT.glob(f"{d}/*.py")
)


def unused_imports(source: str) -> list[str]:
    """The names bound by an import and never read, in order of binding."""
    tree = ast.parse(source)
    imported: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # `import a.b` binds a
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [name for name in imported if name not in read]


def test_sources_are_found():
    names = {path.name for path in SOURCES}
    expected = {"__init__.py", "search.py", "rows.py", "root_data.py", "conftest.py"}
    assert expected <= names


@pytest.mark.parametrize(
    "path", SOURCES, ids=[str(p.relative_to(ROOT)) for p in SOURCES]
)
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_an_unused_import_is_found():
    source = "import os.path\nfrom itertools import chain, repeat\nos.sep\nchain()\n"
    assert unused_imports(source) == ["repeat"]
