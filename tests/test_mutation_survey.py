"""The mutant generator of ``tools/mutation_survey.py``; no pytest run is
started here."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "pathmix"

_spec = importlib.util.spec_from_file_location(
    "mutation_survey", ROOT / "tools" / "mutation_survey.py")
survey = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = survey  # dataclasses look their module up
_spec.loader.exec_module(survey)

SNIPPET = '''"""Module docstring: 1 < 2."""
LIMIT = 3


def f(x, y=1):
    """Docstring: x - y."""
    if x < y:
        raise ValueError(f"{x - 1} is small")
    z = x - y  # a comment stays
    return z ** 2 - (x - x)
'''


def docstrings(source: str) -> list:
    """The docstrings of the module and of the definitions in the bodies of
    the module and of its definitions; parsing raises on a syntax error."""
    found, bodies = [], [ast.parse(source)]
    while bodies:
        node = bodies.pop()
        found.append(ast.get_docstring(node, clean=False))
        bodies += [child for child in node.body
                   if isinstance(child, (ast.ClassDef, ast.FunctionDef))]
    return found


def test_each_operator_makes_its_mutants():
    # the f-string, the docstrings and the identical operands of x - x are
    # left alone
    assert [(m.op, m.line, m.before, m.after)
            for m in survey.mutants(SNIPPET, "snippet")] == [
        ("constant", 2, "3", "(4)"),
        ("constant", 5, "1", "(2)"),
        ("guard", 7, "x < y", "False"),
        ("compare", 7, "x < y", "(x >= y)"),
        ("raise", 8, 'raise ValueError(f"{x - 1} is small")', "pass"),
        ("delete", 9, "z = x - y", "pass"),
        ("swap", 9, "x - y", "(y - x)"),
        ("delete", 10, "return z ** 2 - (x - x)", "pass"),
        ("swap", 10, "z ** 2 - (x - x)", "(x - x - z ** 2)"),
        ("swap", 10, "z ** 2", "(2 ** z)"),
        ("constant", 10, "2", "(3)"),
    ]


def test_a_mutant_replaces_one_span_and_keeps_the_layout():
    compare, = (m for m in survey.mutants(SNIPPET) if m.op == "compare")
    assert compare.source == SNIPPET.replace("if x < y:", "if (x >= y):")
    delete = next(m for m in survey.mutants(SNIPPET) if m.op == "delete")
    assert delete.source == SNIPPET.replace(
        "z = x - y  # a comment", "pass  # a comment")


def test_a_float_that_one_cannot_move_is_doubled():
    assert [m.after for m in survey.mutants("X = 1e20 + 0.5\n")] == [
        "(2e+20)", "(1.5)"]


def test_identical_sites_of_one_scope_get_distinct_keys():
    made = survey.mutants("def f(x):\n    return x[1] + x[1]\n", "m")
    assert [m.key for m in made if m.op == "constant"] == [
        "m:f:constant: 1 => (2)", "m:f:constant: 1 => (2) #2"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_package_mutant_parses_and_keeps_the_docstrings(path):
    source = path.read_text()
    want = docstrings(source)
    made = survey.mutants(source, path.stem)
    assert len({m.key for m in made}) == len(made)
    for mutant in made:
        assert mutant.source != source, mutant.key
        assert docstrings(mutant.source) == want, mutant.key


def test_every_equivalence_note_names_a_mutant_and_a_reason():
    keys = {m.key for m in survey.package_mutants(ROOT)}
    notes = survey.read_notes()
    assert set(notes) <= keys
    assert all(notes.values())
