"""Checks on the package source itself."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "floodgrid"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing in it reads."""
    tree = ast.parse(source)
    imported = {(alias.asname or alias.name).split(".")[0]
                for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__"
                for alias in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_are_found():
    assert unused_imports("import os\nimport json as j\nfrom a.b import c, d\nprint(c)\n") \
        == ["d", "j", "os"]
    assert unused_imports("from __future__ import annotations\nimport os.path\nos.sep\n") == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    assert unused_imports(path.read_text()) == []


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """``module.name`` for each private module-level function, class or constant
    of ``sources`` (module name -> source) that no other statement of any of
    them reads: by name, as an attribute, or in an import."""
    defined, reads = [], []  # (module, name, statement); (module, statement, names read)
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                names = [stmt.name]
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                names = []
            defined += [(module, name, stmt) for name in names
                        if name.startswith("_") and not name.endswith("__")]
            reads.append((module, stmt, {
                *(n.id for n in ast.walk(stmt) if isinstance(n, ast.Name)
                  and isinstance(n.ctx, ast.Load)),
                *(n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)),
                *(a.name for n in ast.walk(stmt) if isinstance(n, ast.ImportFrom)
                  for a in n.names)}))
    return sorted(f"{module}.{name}" for module, name, stmt in defined
                  if not any(name in names for _, s, names in reads if s is not stmt))


def test_unread_private_names_are_found():
    sources = {"a": "_K = 1\n_J = 2\ndef _f():\n    return _f()\n"
                    "class _C:\n    pass\ndef g():\n    return _K\n",
               "b": "from .a import _J\nimport a\na._C\n"}
    assert unread_private_names(sources) == ["a._f"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_private_names(sources) == []


def assert_lines(source: str) -> list[int]:
    """Line numbers of the ``assert`` statements of ``source``."""
    return [node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Assert)]


def test_assert_statements_are_found():
    assert assert_lines("x = 1\nassert x\ndef f():\n    assert x, 'no'\n") == [2, 4]
    assert assert_lines("assertion = 1\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_assert_statement(path):
    # invariants are real exceptions: python -O strips assert statements
    assert assert_lines(path.read_text()) == []
