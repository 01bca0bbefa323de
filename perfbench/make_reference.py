"""Record the reference outputs the gate compares requests against.

    python3 perfbench/make_reference.py

For each workload and each default workload seed it runs the first
requests of a run and stores their parsed outputs (``metrics.json`` for the
pool workloads; ``segments.csv`` and ``omega.csv`` for ``long-wide``) in
``perfbench/reference.npz``.  Rerun it only when a change is meant to alter
the program's outputs beyond 1e-12, and say so in that change.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_threads()

import numpy as np  # noqa: E402

from perfbench import gate  # noqa: E402
from perfbench.client import Client  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, request_seed  # noqa: E402

DEFAULT_SEEDS = range(10)
# requests per run with a reference; later requests are checked by the
# seed-independent invariants only
REFERENCE_REQUESTS = {"pool-mdpa": 4, "pool-sine": 4, "long-wide": 1}
FIELDS = {"evaluate": ("metrics",), "generate": ("segments", "omega")}


def main() -> int:
    work = ROOT / ".perfbench" / "reference-work"
    arrays = {}
    tracer = Tracer([])
    for name, workload in WORKLOADS.items():
        for seed in DEFAULT_SEEDS:
            client = Client(workload, seed, work)
            for index in range(REFERENCE_REQUESTS[name]):
                out = work / "out"
                shutil.rmtree(out, ignore_errors=True)
                argv = workload.argv(client.scenario_path,
                                     request_seed(seed, index), out)
                with tracer.request(index):
                    code = client._call(argv)
                if code != 0:
                    raise SystemExit(f"{name} seed {seed} request {index} "
                                     f"exited with {code}")
                values = gate.read_outputs(workload.command, out)
                problems = gate.check_invariants(workload.command,
                                                 client.scenario, values)
                if problems:
                    raise SystemExit(f"{name} seed {seed} request {index}: "
                                     f"{problems}")
                for field in FIELDS[workload.command]:
                    arrays[gate.Reference.key(name, seed, index, field)] = \
                        values[field]
            print(f"{name} seed {seed}: recorded", flush=True)
    commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                            capture_output=True, text=True).stdout.strip()
    arrays["commit"] = np.array(commit)
    np.savez_compressed(gate.REFERENCE_PATH, **arrays)
    shutil.rmtree(work, ignore_errors=True)
    print(f"wrote {gate.REFERENCE_PATH} at commit {commit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
