"""Static checks of the library's source files."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pathmix"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
# what calls the library besides itself: the demos and the benchmark harness,
# whose own tests are left out
CALLERS = sorted([*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")])
ORACLES = ROOT / "tests" / "oracles.py"
ERROR_TYPES = {"ScenarioError", "NumericError", "ValueError"}


def unused_imports(source: str) -> list[str]:
    """Names a module imports but never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0]
                            for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def private_imports(source: str) -> list[str]:
    """The dotted names a module imports from ``pathmix`` that have a
    ``_``-prefixed part, sorted; a relative import is one of ``pathmix``."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:  # a module of the package, or the package
                module = f"pathmix.{module}".rstrip(".")
            names = [f"{module}.{a.name}" for a in node.names]
        else:
            continue
        found.update(name for name in names
                     if name.split(".")[0] == "pathmix"
                     and any(part.startswith("_")
                             for part in name.split(".")))
    return sorted(found)


def raised_names(source: str) -> list[str]:
    """The name each ``raise`` statement of a module raises, in source
    order: the class called or the name raised, "" for a bare ``raise``."""
    raises = sorted((node for node in ast.walk(ast.parse(source))
                     if isinstance(node, ast.Raise)),
                    key=lambda node: (node.lineno, node.col_offset))
    names = []
    for exc in (node.exc for node in raises):
        if isinstance(exc, ast.Call):
            exc = exc.func
        names.append(exc.attr if isinstance(exc, ast.Attribute)
                     else exc.id if isinstance(exc, ast.Name) else "")
    return names


def names_read(nodes) -> set[str]:
    """The names and attribute names that the code of ``nodes`` reads."""
    read = set()
    for node in nodes:
        for n in ast.walk(node):
            if isinstance(n, ast.Name):
                read.add(n.id)
            elif isinstance(n, ast.Attribute):
                read.add(n.attr)
    return read


def unreferenced(library: list[str], callers: list[str]) -> list[str]:
    """Top-level functions and classes of the ``library`` sources that no
    caller reaches, sorted.  A definition is reached when a ``callers``
    source reads its name, when a library module's top-level statements
    other than imports do, or when a reached definition's code does; a
    definition reading its own name does not reach itself."""
    defs, reached = {}, set()
    for source in library:
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                defs[node.name] = node
            elif not isinstance(node, (ast.Import, ast.ImportFrom)):
                reached |= names_read([node])
    reached |= names_read(ast.parse(source) for source in callers)
    frontier, live = reached & defs.keys(), set()
    while frontier:
        name = frontier.pop()
        live.add(name)
        frontier |= (names_read([defs[name]]) & defs.keys()) - live
    return sorted(defs.keys() - live)


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from math import pi, tau as turn\n"
              "def f(x: 'int') -> float:\n    return numpy.linalg.norm(pi)\n")
    assert unused_imports(source) == ["os", "osp", "turn"]


def test_scan_finds_private_imports():
    source = ("import pathmix\nimport pathmix._hidden\n"
              "from pathmix import predict_x0\n"
              "from pathmix.mixtures import _known, logsumexp\n"
              "from other import _private\n"
              "from .scenario import _write_csv, write_run\n"
              "from . import _module, errors\n"
              "def f():\n    from pathmix.optim import _interior_basis\n")
    assert private_imports(source) == ["pathmix._hidden", "pathmix._module",
                                       "pathmix.mixtures._known",
                                       "pathmix.optim._interior_basis",
                                       "pathmix.scenario._write_csv"]


def test_scan_finds_raised_names():
    source = ("def f(x):\n"
              "    if x:\n        raise ValueError('x')\n"
              "    try:\n        g()\n    except KeyError:\n        raise\n"
              "    raise errors.NumericError('y') from None\n"
              "def g(exc):\n    raise TypeError; raise exc\n")
    assert raised_names(source) == ["ValueError", "", "NumericError",
                                    "TypeError", "exc"]


def test_scan_finds_unreferenced_definitions():
    library = ['"""``dead`` is named here, which is not a call."""\n'
               "from math import pi\n"
               "TABLE = {'key': Listed}\n"
               "class Listed:\n    pass\n"
               "def entry():\n    return helper(pi)\n"
               "def helper(x):\n    return x\n"
               "def dead():\n    return dead_helper()\n",
               "from lib import helper\n"
               "def dead_helper():\n    return helper\n"
               "class Dead:\n    def run(self):\n        return Dead()\n"
               "def recursive():\n    return recursive()\n"]
    callers = ["import lib\nlib.entry()\n"]
    assert unreferenced(library, callers) == ["Dead", "dead", "dead_helper",
                                              "recursive"]


def test_library_modules_found():
    assert {"optim.py", "control.py", "mixtures.py"} <= {p.name
                                                         for p in MODULES}
    assert {"01_single_run.py", "client.py", "layers.py"} <= {p.name
                                                              for p in CALLERS}


def test_oracles_import_no_private_name():
    # an oracle that reuses the library's private code checks nothing
    assert private_imports(ORACLES.read_text()) == []


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_library_imports_no_private_name(path):
    # what one module needs of another is part of that module's interface
    assert private_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_raise_names_a_package_error_or_value_error(path):
    # a bad configuration value exits 2, a non-finite one 1, and any other
    # bad argument is a plain ValueError
    assert set(raised_names(path.read_text())) <= ERROR_TYPES


def test_errors_define_one_type_per_exit_code():
    tree = ast.parse((SRC / "errors.py").read_text())
    assert sorted(node.name for node in tree.body
                  if isinstance(node, ast.ClassDef)) == ["NumericError",
                                                         "ScenarioError"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_every_definition_has_a_caller():
    # the CLI (through ``main``, which cli.py's ``__main__`` block reads),
    # ``pathmix check``, the demos and perfbench; tests do not count
    assert unreferenced([p.read_text() for p in MODULES],
                        [p.read_text() for p in CALLERS]) == []
