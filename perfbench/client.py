"""One closed-loop client: issues a workload's CLI requests back to back.

Each request is a call of the public entry point ``pathmix.cli.main`` with
the workload's scenario file and the request's seed.  The client times the
request, checks its outputs through the gate and removes its output
directory afterwards.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from dataclasses import dataclass, field
from pathlib import Path

from . import gate
from .spans import END, NAME, PARENT, START, Tracer
from .workloads import Workload, request_seed, warmup_scenario

RUN_SPAN = "sampling.run"


@dataclass
class RequestRecord:
    index: int
    seed: int
    wall_s: float
    runs: int
    run_s: list           # wall time of each sampling run, in call order
    problems: list = field(default_factory=list)
    snapshot: dict | None = None

    @property
    def run_ms(self) -> float:
        """Time spent in sampling calls divided by the runs performed."""
        return sum(self.run_s) / self.runs * 1e3

    @property
    def failed(self) -> bool:
        return bool(self.problems)


class Client:
    def __init__(self, workload: Workload, seed: int, work_dir: Path,
                 reference: gate.Reference | None = None):
        self.workload = workload
        self.seed = seed
        self.scenario = workload.scenario(seed)
        self.runs = workload.runs_per_request(self.scenario)
        self.reference = reference
        self.work_dir = work_dir
        work_dir.mkdir(parents=True, exist_ok=True)
        self.scenario_path = work_dir / "scenario.json"
        self.scenario_path.write_text(json.dumps(self.scenario))

    def warm_up(self, tracer: Tracer):
        """One untimed, few-step request of the same kind."""
        path = self.work_dir / "warmup.json"
        path.write_text(json.dumps(warmup_scenario(self.scenario)))
        out = self.work_dir / "warmup"
        with tracer.request(-1):
            self._call(self.workload.argv(path, 0, out))
        shutil.rmtree(out, ignore_errors=True)

    @staticmethod
    def _call(argv: list[str]) -> int:
        from pathmix import cli
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def request(self, index: int, tracer: Tracer, keep_snapshot: bool = False,
                digest=None) -> RequestRecord:
        """Issue request ``index``, time it and check its outputs.

        ``digest(first_span, problems)``, when given, runs after the request
        and before its output directory is removed.
        """
        seed = request_seed(self.seed, index)
        out = self.work_dir / f"out-{index}"
        shutil.rmtree(out, ignore_errors=True)
        problems = []
        with tracer.request(index) as first:
            try:
                code = self._call(self.workload.argv(self.scenario_path, seed,
                                                     out))
            except Exception as exc:   # a failed request is counted, not fatal
                code = None
                problems.append(f"raised {type(exc).__name__}: {exc}")
        root = tracer.spans[first]
        wall_ns = root[END] - root[START]
        run_s = [(s[END] - s[START]) * 1e-9 for s in tracer.spans[first + 1:]
                 if s[PARENT] == first and s[NAME] == RUN_SPAN]
        record = RequestRecord(index, seed, wall_ns * 1e-9, self.runs, run_s,
                               problems)
        if code == 0 and len(run_s) != self.runs:
            problems.append(f"{len(run_s)} sampling runs, expected "
                            f"{self.runs}")
        if code is not None and code != 0:
            problems.append(f"exit code {code}")
        if digest is not None:
            digest(first, problems)
        if not problems:
            problems.extend(self.check(index, out))
            if keep_snapshot:
                record.snapshot = gate.snapshot(out)
        shutil.rmtree(out, ignore_errors=True)
        return record

    def check(self, index: int, out: Path) -> list[str]:
        try:
            values = gate.read_outputs(self.workload.command, out)
        except (OSError, ValueError, KeyError) as exc:
            return [f"unreadable outputs: {type(exc).__name__}: {exc}"]
        problems = gate.check_invariants(self.workload.command, self.scenario,
                                         values)
        if self.reference is not None:
            problems += self.reference.compare(self.workload.name, self.seed,
                                               index, values)
        return problems
