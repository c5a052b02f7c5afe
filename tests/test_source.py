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


def floodgrid_imports(source: str) -> list[str]:
    """The floodgrid modules ``source``, a module of the package, imports, sorted:
    ``m`` for ``from . import m``, ``from .m import x``, ``import floodgrid.m``,
    ``from floodgrid import m`` and ``from floodgrid.m import x``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            paths = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            where = ".".join(filter(None, ["floodgrid" if node.level else "", node.module]))
            paths = ([f"{where}.{alias.name}" for alias in node.names] if where == "floodgrid"
                     else [where])
        else:
            continue
        found |= {path.split(".")[1] for path in paths if path.startswith("floodgrid.")}
    return sorted(found)


def test_floodgrid_imports_are_found():
    source = ("import os, floodgrid.eda\nfrom . import geodata, terrain as t\n"
              "from .cli import main\nfrom floodgrid import grid\nimport floodgrid\n"
              "from floodgrid.overlay import x\nfrom floodgridx import y\nimport numpy.floodgrid\n"
              "def f():\n    from .scenario import z\n")
    assert floodgrid_imports(source) == [
        "cli", "eda", "geodata", "grid", "overlay", "scenario", "terrain"]
    assert floodgrid_imports("from __future__ import annotations\nimport os.path\n") == []


def test_modules_import_in_layers():
    # geodata reads and writes the formats and imports no other module;
    # only cli imports a module that imports another
    assert {p.stem: floodgrid_imports(p.read_text()) for p in MODULES} == {
        "geodata": [], "terrain": ["geodata"], "eda": ["geodata"],
        "cli": ["eda", "geodata", "terrain"]}


def rebound_names(source: str) -> list[str]:
    """Names that two top-level statements of ``source`` bind (a ``def``,
    ``class``, assignment or import): Python keeps the later one silently."""
    bound = []
    for stmt in ast.parse(source).body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(stmt.name)
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
            bound += [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound += [(a.asname or a.name).split(".")[0] for a in stmt.names]
    return sorted({name for name in bound if bound.count(name) > 1})


def test_rebound_names_are_found():
    source = ("import os\nimport os.path\nfrom a import b as c\nc = 1\n"
              "def f():\n    x = 1\n    x = 2\nclass f:\n    pass\n"
              "y, (z, w) = 1, (2, 3)\nw: int = 4\nif c:\n    y = 5\n")
    assert rebound_names(source) == ["c", "f", "os", "w"]
    assert rebound_names("import os\nimport json\nfrom . import a\nb = a\n") == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_name_is_bound_twice(path):
    assert rebound_names(path.read_text()) == []


def unread_names(sources: dict[str, str], public: bool = False) -> list[str]:
    """``module.name`` for each private (if ``public``, public) module-level
    function, class or constant of ``sources`` (module name -> source) that no
    other statement of any of them reads: by name, as an attribute, or in an
    import, so an export from ``__init__`` counts as a read."""
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
                        if name.startswith("_") != public and not name.endswith("__")]
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
    assert unread_names(sources) == ["a._f"]


def test_unread_public_names_are_found():
    sources = {"a": "K = 1\nJ = 2\ndef f():\n    return f()\nclass C:\n    pass\n"
                    "def g():\n    return K\n__all__ = []\n_P = 3\n",
               "__init__": "from .a import J\n", "b": "import a\na.C\n"}
    assert unread_names(sources, public=True) == ["a.f", "a.g"]


def test_every_private_name_is_read():
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_names(sources) == []


def test_every_public_name_is_read_or_exported():
    # a public helper that only tests call is code that does not pay for itself
    sources = {p.stem: p.read_text() for p in SRC.glob("*.py")}
    assert unread_names(sources, public=True) == []


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


SPAWNING = ("os.fork", "multiprocessing", "concurrent.futures", "subprocess")


def fork_sites(source: str) -> list[str]:
    """Where ``source`` may start a process: ``name: os.fork`` for each os.fork
    read in the module-level function or class ``name`` (``<module>`` outside
    one), and ``import m`` for each import of ``m``, a name in or under SPAWNING."""
    sites = []
    for stmt in ast.parse(source).body:
        for node in ast.walk(stmt):
            if isinstance(node, ast.Attribute) and node.attr == "fork" \
                    and isinstance(node.value, ast.Name) and node.value.id == "os":
                sites.append(f"{getattr(stmt, 'name', '<module>')}: os.fork")
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                prefix = f"{node.module}." if isinstance(node, ast.ImportFrom) else ""
                sites += [f"import {m}" for m in (prefix + a.name for a in node.names)
                          if any(m == s or m.startswith(s + ".") for s in SPAWNING)]
    return sites


def test_fork_sites_are_found():
    source = ("import os, subprocess\nfrom concurrent import futures\nfrom os import fork\n"
              "import multiprocessing.pool as mp\npid = os.fork()\n"
              "def f():\n    def g():\n        return os.fork()\n    return g\n"
              "class C:\n    run = os.fork\n")
    assert fork_sites(source) == [
        "import subprocess", "import concurrent.futures", "import os.fork",
        "import multiprocessing.pool", "<module>: os.fork", "f: os.fork", "C: os.fork"]
    assert fork_sites("import os, subprocesses\nos.forkpty\nfork = os.getpid()\n") == []


def test_every_fork_is_in_forked():
    # a split forks through geodata._forked alone, which keeps no child past the call
    sites = {p.stem: fork_sites(p.read_text()) for p in SRC.glob("*.py")}
    assert {module: found for module, found in sites.items() if found} \
        == {"geodata": ["_forked: os.fork"]}
