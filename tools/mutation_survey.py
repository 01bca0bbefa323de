#!/usr/bin/env python3
"""Single-site mutation survey of ``src/pathmix`` against the Tier-1 tests.

Each mutant changes one site of one module:

- ``compare``: one comparison operator negated (``<`` and ``>=``, ``>`` and
  ``<=``, ``==`` and ``!=``, ``is`` and ``is not``, ``in`` and ``not in``)
- ``constant``: one int or float literal moved up by one, or doubled where
  adding one leaves a float unchanged
- ``delete``: one simple statement of a function body replaced by ``pass``
- ``raise``: one ``raise`` of a function body replaced by ``pass``
- ``guard``: the condition of one ``if`` of a function body replaced by
  ``False``, so that its body never runs
- ``swap``: the operands of one ``-``, ``/``, ``//``, ``%``, ``**``, ``@``,
  ``<<`` or ``>>`` swapped

Docstrings, imports, f-strings and definitions are left alone.  A mutant is
killed when the Tier-1 files that import its module fail on it (``-x``,
fastest file first; those that name it run before those that import it
through another module), time out, or fail to import; one that passes them
is run against the rest of Tier-1 and counts as a survivor only if it
passes that too.  Tier-1 here leaves out ``tests/test_mutation_survey.py``,
which checks the notes against the unmutated text.  A survivor listed with
a reason in ``tools/equivalent_mutants.txt`` is equivalent: no input can
tell it from the original.

The tree under test is ``git archive`` of ``--rev`` extracted into one
temporary directory per worker; the working tree is never written, and each
pytest runs in its own session, killed with its process group on timeout.
Run from the repository root:

    python3 tools/mutation_survey.py --list        # the mutants, no runs
    python3 tools/mutation_survey.py --json survey.json
    python3 tools/mutation_survey.py --modules segments
    python3 tools/mutation_survey.py --rerun survey.json  # its survivors

The exit code is 0 when no survivor is left unresolved.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path("src") / "pathmix"
NOTES = Path(__file__).resolve().with_name("equivalent_mutants.txt")
SELF_TEST = "test_mutation_survey.py"
KNOWN_FAILURE = "tests/test_acceptance.py::test_criterion_6_directional_fid"
PYTEST = ["-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
          "--hypothesis-seed=0", "--deselect", KNOWN_FAILURE]
MEMORY_LIMIT = 3 << 30  # bytes of address space per pytest process
WORKERS = 2  # pytest processes at once

NEGATED = {ast.Lt: ast.GtE, ast.GtE: ast.Lt, ast.Gt: ast.LtE, ast.LtE: ast.Gt,
           ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
           ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In}
NONCOMMUTATIVE = (ast.Sub, ast.Div, ast.FloorDiv, ast.Mod, ast.Pow,
                  ast.MatMult, ast.LShift, ast.RShift)
DELETABLE = (ast.Assign, ast.AugAssign, ast.AnnAssign, ast.Expr, ast.Return,
             ast.Delete, ast.Assert, ast.Continue, ast.Break)


@dataclass(frozen=True)
class Mutant:
    module: str   # e.g. "segments"
    scope: str    # the enclosing definitions, e.g. "Scenario.build_model"
    op: str
    line: int
    before: str   # the replaced source text, whitespace collapsed
    after: str
    source: str   # the whole mutated module

    @property
    def key(self) -> str:
        return (f"{self.module}:{self.scope}:{self.op}: "
                f"{self.before} => {self.after}")


def _flat(text: str) -> str:
    return " ".join(text.split())


def _is_docstring(node: ast.AST) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


class _Sites(ast.NodeVisitor):
    """(node, op, replacement text, scope) of every mutation site."""

    def __init__(self):
        self.sites, self.scope, self.in_function = [], [], False

    def add(self, node, op, text):
        self.sites.append((node, op, text, ".".join(self.scope) or "<module>"))

    def visit_JoinedStr(self, node):  # f-string parts carry no own positions
        pass

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        outer, self.in_function = self.in_function, False
        for child in node.body:
            self.visit(child)
        self.scope.pop()
        self.in_function = outer

    def visit_FunctionDef(self, node):
        for default in node.args.defaults + node.args.kw_defaults:
            if default is not None:
                self.visit(default)
        self.scope.append(node.name)
        outer, self.in_function = self.in_function, True
        for child in node.body:
            self.visit(child)
        self.scope.pop()
        self.in_function = outer

    def visit_Import(self, node):
        pass

    visit_ImportFrom = visit_Import

    def generic_visit(self, node):
        if self.in_function and isinstance(node, ast.stmt) \
                and not _is_docstring(node):
            if isinstance(node, ast.Raise):
                self.add(node, "raise", "pass")
            elif isinstance(node, DELETABLE):
                self.add(node, "delete", "pass")
        if self.in_function and isinstance(node, ast.If):
            self.add(node.test, "guard", "False")
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                ops = list(node.ops)
                ops[i] = NEGATED[type(op)]()
                self.add(node, "compare", ast.unparse(
                    ast.Compare(node.left, ops, node.comparators)))
        elif isinstance(node, ast.BinOp) and isinstance(node.op,
                                                        NONCOMMUTATIVE):
            if ast.dump(node.left) != ast.dump(node.right):
                self.add(node, "swap", ast.unparse(
                    ast.BinOp(node.right, node.op, node.left)))
        elif (isinstance(node, ast.Constant)
              and type(node.value) in (int, float)):
            moved = node.value + 1
            self.add(node, "constant", repr(moved if moved != node.value
                                            else 2 * node.value))
        if _is_docstring(node):
            return
        super().generic_visit(node)


def mutants(source: str, module: str = "module") -> list[Mutant]:
    """Every single-site mutant of ``source``, in source order.  A mutant's
    text is ``source`` with one node's span replaced, so comments and the
    rest of the layout stay; replaced expressions are parenthesized."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    visitor = _Sites()
    visitor.visit(ast.parse(source))
    out, seen = [], Counter()
    for node, op, text, scope in sorted(
            visitor.sites, key=lambda s: (s[0].lineno, s[0].col_offset)):
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        before = data[begin:end].decode()
        if isinstance(node, ast.expr) and op != "guard":
            text = f"({text})"
        mutated = (data[:begin] + text.encode() + data[end:]).decode()
        mutant = Mutant(module, scope, op, node.lineno, _flat(before),
                        _flat(text), mutated)
        seen[mutant.key] += 1
        if seen[mutant.key] > 1:  # the n-th identical site of its scope
            mutant = Mutant(module, scope, op, node.lineno, mutant.before,
                            f"{mutant.after} #{seen[mutant.key]}", mutated)
        out.append(mutant)
    return out


def package_mutants(tree: Path, modules=None) -> list[Mutant]:
    return [m for path in sorted((tree / PACKAGE).glob("*.py"))
            if modules is None or path.stem in modules
            for m in mutants(path.read_text(), path.stem)]


# -- which Tier-1 files import which module ----------------------------------

def _imports(path: Path) -> list[tuple[str, list[str]]]:
    """(module, names) of each import of ``path``; relative imports of the
    package are given as ``pathmix.<module>``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(a.name, []) for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                module = f"pathmix.{module}".rstrip(".")
            found.append((module, [a.name for a in node.names]))
    return found


def _reached(tree: Path, through_package: bool) -> dict[str, set[str]]:
    """The package modules each Tier-1 file reaches through its imports:
    ``from pathmix import name`` reaches the module that defines ``name``,
    and helper modules (tests/*.py, perfbench/*.py) pass on what they
    reach, and so do package modules if ``through_package``."""
    package = {p.stem: p for p in (tree / PACKAGE).glob("*.py")
               if p.stem != "__init__"}
    exported = {name: module.split(".")[1]
                for module, names in _imports(tree / PACKAGE / "__init__.py")
                for name in names}
    helpers = {p.stem: p for p in (tree / "tests").glob("*.py")}
    helpers.update({f"perfbench.{p.stem}": p
                    for p in (tree / "perfbench").glob("*.py")})
    memo = {}

    def reach(path: Path) -> set[str]:
        if path not in memo:
            memo[path] = set()
            out = set()
            for module, names in _imports(path):
                parts = module.split(".")
                targets = []
                if parts[0] == "pathmix" and len(parts) > 1:
                    targets.append(parts[1])
                elif module == "pathmix":
                    targets += [exported.get(n, n) for n in names]
                for name in [module, *(f"{module}.{n}" for n in names)]:
                    if name in helpers:
                        out |= reach(helpers[name])
                for target in targets:
                    if target in package:
                        out.add(target)
                        if through_package:
                            out |= reach(package[target])
            memo[path] = out
        return memo[path]

    return {str(p.relative_to(tree)): reach(p) for p in tier1_files(tree)}


def tier1_files(tree: Path) -> list[Path]:
    """The Tier-1 test files but this script's own test, which checks the
    notes against the package's text and so fails on every mutant."""
    found = [*(tree / "tests").glob("test_*.py"),
             *(tree / "perfbench" / "tests").glob("test_*.py")]
    return sorted(p for p in found if p.name != SELF_TEST)


# -- runs ---------------------------------------------------------------------

def _limited(argv: list[str]) -> list[str]:
    """``argv`` run under an address-space limit, so that a mutant that
    asks for a huge array fails instead of taking the host's memory."""
    launch = ("import os, resource, sys; limit = int(sys.argv[1]); "
              "resource.setrlimit(resource.RLIMIT_AS, (limit, limit)); "
              "os.execv(sys.argv[2], sys.argv[2:])")
    return [sys.executable, "-c", launch, str(MEMORY_LIMIT), *argv]


class Slot:
    """One worker: a tree extracted from ``git archive`` and at most one
    pytest process running in it."""

    def __init__(self, base: Path, index: int, rev: str):
        self.tree = base / f"worker{index}"
        self.tree.mkdir()
        archive = subprocess.run(["git", "archive", rev], cwd=ROOT,
                                 check=True, capture_output=True).stdout
        subprocess.run(["tar", "-x", "-C", str(self.tree)], input=archive,
                       check=True)
        self.output = base / f"worker{index}.out"
        self.proc = self.job = None

    def start(self, files: list[str], timeout: float):
        # a cached module compiled from another mutant of the same size and
        # second would be reused, and hypothesis replays what it saved
        for cache in (PACKAGE / "__pycache__", Path(".hypothesis")):
            shutil.rmtree(self.tree / cache, ignore_errors=True)
        env = dict(os.environ, PYTHONPATH="src", OPENBLAS_NUM_THREADS="1",
                   OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
        with open(self.output, "wb") as out:
            self.proc = subprocess.Popen(
                _limited([sys.executable, *PYTEST, *files]), cwd=self.tree,
                env=env, stdout=out, stderr=subprocess.STDOUT,
                start_new_session=True)
        self.deadline = time.monotonic() + timeout
        self.started = time.monotonic()

    def poll(self):
        """None while running, else "pass", "timeout" or the first test
        that failed (the exit code if none is named)."""
        code = self.proc.poll()
        if code is None and time.monotonic() < self.deadline:
            return None
        if code is None:
            self.kill()
            return "timeout"
        self.proc = None
        if code == 0:
            return "pass"
        for line in self.output.read_text(errors="replace").splitlines():
            if line.startswith(("FAILED ", "ERROR ")):
                return line.split(" - ")[0]
        return f"exit code {code}"

    def kill(self):
        if self.proc is not None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.wait()
            self.proc = None

    def mutate(self, mutant: Mutant | None, original: dict):
        for module, text in original.items():
            (self.tree / PACKAGE / f"{module}.py").write_text(text)
        if mutant is not None:
            (self.tree / PACKAGE / f"{mutant.module}.py").write_text(
                mutant.source)


def _schedule(slots: list[Slot], jobs: list, original: dict, log):
    """Run each job, (mutant, [(files, timeout), ...]), stage by stage until
    a stage does not pass; return {index: (verdict, seconds of the last
    stage)}, the verdict as ``Slot.poll`` gives it."""
    pending, results = list(range(len(jobs)))[::-1], {}
    try:
        while pending or any(s.job is not None for s in slots):
            for slot in slots:
                if slot.job is None and pending:
                    index = pending.pop()
                    slot.mutate(jobs[index][0], original)
                    slot.job = (index, 0)
                    slot.start(*jobs[index][1][0])
            time.sleep(0.05)
            for slot in slots:
                if slot.job is None:
                    continue
                verdict = slot.poll()
                if verdict is None:
                    continue
                index, stage = slot.job
                stages = jobs[index][1]
                if verdict == "pass" and stage + 1 < len(stages):
                    slot.job = (index, stage + 1)
                    slot.start(*stages[stage + 1])
                    continue
                results[index] = (verdict, time.monotonic() - slot.started)
                slot.job = None
                log(index, results[index])
    finally:
        for slot in slots:
            slot.kill()
    return results


def read_notes(path: Path = NOTES) -> dict[str, str]:
    """{mutant key: reason} of the equivalent mutants; each entry is a key
    line followed by an indented line giving the reason."""
    notes, key = {}, None
    if path.exists():
        for line in path.read_text().splitlines():
            if not line.strip() or line.startswith("#"):
                continue
            if line.startswith((" ", "\t")):
                notes[key] = line.strip()
            else:
                key = line
    return notes


def survey(rev: str, modules=None, keys=None, log=print) -> dict:
    with tempfile.TemporaryDirectory(prefix="mutation-survey-") as base:
        slots = [Slot(Path(base), i, rev) for i in range(WORKERS)]
        tree = slots[0].tree
        original = {p.stem: p.read_text()
                    for p in (tree / PACKAGE).glob("*.py")}
        direct = _reached(tree, through_package=False)
        reached = _reached(tree, through_package=True)
        everything = sorted(reached)
        # the unmutated tree must pass; each file's time orders the subsets
        timing = _schedule(slots, [(None, [([f], 600.0)]) for f in everything]
                           + [(None, [(everything, 1200.0)])], original,
                           lambda *a: None)
        failed = [everything[i] for i, (v, _) in timing.items()
                  if v != "pass" and i < len(everything)]
        if failed or timing[len(everything)][0] != "pass":
            raise SystemExit(f"unmutated tree fails: {failed or 'Tier-1'}")
        seconds = {f: timing[i][1] for i, f in enumerate(everything)}
        log("unmutated: " + ", ".join(f"{f} {s:.1f}s"
                                      for f, s in seconds.items()))
        jobs = []
        made = [m for m in package_mutants(tree, modules)
                if keys is None or m.key in keys]
        for mutant in made:
            # test_source.py reads every module's text.  The files that name
            # the module run first, then those that reach it through another
            # module, then the rest of Tier-1: most mutants fail in the first
            # session, which collects the fewest files.
            first = [f for f in everything if mutant.module in direct[f]
                     or f.endswith("test_source.py")]
            second = [f for f in everything
                      if mutant.module in reached[f] and f not in first]
            rest = [f for f in everything if f not in first + second]
            jobs.append((mutant, [
                (files, 2 * sum(map(seconds.get, files)) + 30)
                for files in (sorted(first, key=seconds.get),
                              sorted(second, key=seconds.get),
                              sorted(rest, key=seconds.get)) if files]))
        start = time.monotonic()

        def progress(index, result):
            done = progress.count = getattr(progress, "count", 0) + 1
            if result[0] == "pass" or done % 50 == 0:
                log(f"[{done}/{len(jobs)} {time.monotonic() - start:.0f}s] "
                    + (f"survivor: {jobs[index][0].key}"
                       if result[0] == "pass" else "running"))

        results = _schedule(slots, jobs, original, progress)
    notes = read_notes()
    report = {"rev": rev, "modules": {}, "survivors": [], "killed_by": {}}
    for index, mutant in enumerate(made):
        verdict = results[index][0]
        row = report["modules"].setdefault(mutant.module, Counter(made=0))
        row["made"] += 1
        if verdict == "pass":
            row["survived"] += 1
            resolved = "equivalent" if mutant.key in notes else "unresolved"
            row[resolved] += 1
            report["survivors"].append({
                "key": mutant.key, "line": mutant.line, "status": resolved,
                "reason": notes.get(mutant.key)})
        else:
            row["killed"] += 1
            row["timeout"] += verdict == "timeout"
            report["killed_by"][mutant.key] = verdict
    fields = ("made", "killed", "timeout", "survived", "equivalent",
              "unresolved")
    report["modules"] = {m: {f: row[f] for f in fields}
                         for m, row in sorted(report["modules"].items())}
    report["total"] = {f: sum(r[f] for r in report["modules"].values())
                       for f in fields}
    report["survivor_rate"] = round(report["total"]["survived"]
                                    / max(report["total"]["made"], 1), 4)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--rev", default="HEAD",
                        help="git revision to survey (default HEAD)")
    parser.add_argument("--modules", nargs="+", metavar="NAME",
                        help="survey only these modules of src/pathmix")
    parser.add_argument("--json", type=Path, metavar="PATH",
                        help="also write the report here")
    parser.add_argument("--rerun", type=Path, metavar="REPORT",
                        help="survey only the survivors of an earlier "
                             "--json report")
    parser.add_argument("--list", action="store_true",
                        help="print every mutant's key and make no run")
    args = parser.parse_args(argv)
    if args.list:
        with tempfile.TemporaryDirectory(prefix="mutation-survey-") as base:
            tree = Slot(Path(base), 0, args.rev).tree
            for mutant in package_mutants(tree, args.modules):
                print(f"{mutant.line:4d}  {mutant.key}")
        return 0
    keys = None
    if args.rerun:
        keys = {s["key"] for s in json.loads(args.rerun.read_text())[
            "survivors"]}
    report = survey(args.rev, args.modules, keys,
                    log=lambda line: print(line, file=sys.stderr, flush=True))
    text = json.dumps(report, indent=2) + "\n"
    if args.json:
        args.json.write_text(text)
    print(text, end="")
    return 0 if report["total"]["unresolved"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
