"""Measure the baseline: repeated benchmark runs and their spread.

    python3 perfbench/baseline.py

Runs ``perfbench/run.py`` with ``--trace 0`` on every workload in
BENCHMARK.json for ten seeds per set, over two sets with disjoint seeds
(seed major, so slow periods of the machine fall on all workloads alike),
after one ``--trace 1`` run per workload.  For each set, workload and
end-to-end metric it records the median, the quartiles and the spread
(interquartile range over median); across sets, how far the second median is
worse than the first, as a share of it.  Both are judged against the bounds
in BENCHMARK.json.  Beside ``run_ms`` (per request, the time in sampling
calls divided by the runs, median over requests) it records the median of
single sampling runs, to compare the two estimators' steadiness.  The
result, with every run's metrics and the provenance of the machine and the
code, goes to perfbench/BENCH_0.json.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "BENCH_0.json"
RESULTS = ROOT / ".perfbench" / "results"
RUNS = 10
SETS = 2
RUN_TIMEOUT_S = 600
PER_RUN = "run_ms_per_run_median"


def run_once(workload: str, seed: int, seconds: int, trace: int):
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                         f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: the run failed its checks:"
                         f"\n{proc.stdout}")
    return result, lines


def per_run_median_ms(workload: str, seed: int) -> float:
    """Median wall time of single sampling runs, over every request."""
    record = json.loads(
        (RESULTS / f"{workload}-seed{seed}-trace0.json").read_text())
    return statistics.median(s * 1e3 for r in record["requests"]
                             for s in r["run_s"])


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values)}


def worse_by(first: float, later: float, better: str) -> float:
    """How much worse ``later`` is than ``first``, as a share of ``first``."""
    change = (later - first) / first
    return change if better == "lower" else -change


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]

    traced = {}
    for workload in workloads:
        result, lines = run_once(workload, 0, seconds, 1)
        traced[workload] = {
            "metrics": result["metrics"],
            "accounting": next(line for line in lines
                               if line.startswith("accounting"))}
        print(f"traced {workload}: {traced[workload]['accounting']}",
              flush=True)

    sets = []
    for s in range(SETS):
        seeds = list(range(s * RUNS, (s + 1) * RUNS))
        runs = {w: [] for w in workloads}
        for seed in seeds:
            for workload in workloads:
                result, _ = run_once(workload, seed, seconds, 0)
                values = result["metrics"]
                values[PER_RUN] = {
                    "value": per_run_median_ms(workload, seed), "unit": "ms"}
                runs[workload].append({"seed": seed, "metrics": values})
                print(f"set {s} {workload} seed {seed}: " + ", ".join(
                    f"{k} {v['value']:.5g}" for k, v in values.items()),
                    flush=True)
        summary = {w: {name: summarize(
            [r["metrics"][name]["value"] for r in runs[w]])
            for name in [m["name"] for m in metrics] + [PER_RUN]}
            for w in workloads}
        sets.append({"seeds": seeds, "summary": summary, "runs": runs})

    verdict = []
    for w in workloads:
        for m in metrics:
            name, bound = m["name"], m["bound"]
            spreads = [st["summary"][w][name]["spread"] for st in sets]
            drift = worse_by(sets[0]["summary"][w][name]["median"],
                             sets[1]["summary"][w][name]["median"],
                             m["better"])
            ok = drift <= bound and (name == "setup_s"
                                     or max(spreads) <= bound)
            verdict.append({"workload": w, "metric": name, "bound": bound,
                            "spreads": spreads, "worse_by": drift, "ok": ok})
            print(f"{w:10s} {name:12s} spreads "
                  + " ".join(f"{x:.4f}" for x in spreads)
                  + f"  worse_by {drift:+.4f}  bound {bound}  "
                  + ("ok" if ok else "OUT OF BOUND"), flush=True)
        print(f"{w:10s} {PER_RUN} spreads " + " ".join(
            f"{st['summary'][w][PER_RUN]['spread']:.4f}" for st in sets),
            flush=True)

    provenance = json.loads(
        (RESULTS / f"{workloads[0]}-seed0-trace0.json").read_text()
    )["provenance"]
    OUT.write_text(json.dumps({
        "benchmark": spec, "provenance": provenance, "sets": sets,
        "verdict": verdict, "traced": traced}, indent=1) + "\n")
    print(f"wrote {OUT}")
    return 0 if all(v["ok"] for v in verdict) else 1


if __name__ == "__main__":
    sys.exit(main())
