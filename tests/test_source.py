"""Static checks of the library's source files."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "pathmix"
# __init__.py imports names to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


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


def test_scan_finds_unused_imports():
    source = ("from __future__ import annotations\n"
              "import os\nimport os.path as osp\nimport numpy.linalg\n"
              "from math import pi, tau as turn\n"
              "def f(x: 'int') -> float:\n    return numpy.linalg.norm(pi)\n")
    assert unused_imports(source) == ["os", "osp", "turn"]


def test_library_modules_found():
    assert {"optim.py", "control.py", "mixtures.py"} <= {p.name
                                                         for p in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
