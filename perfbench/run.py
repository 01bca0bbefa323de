"""pathmix benchmark: one closed-loop client issuing CLI requests.

    python3 perfbench/run.py --workload pool-mdpa --seed 0 --seconds 50 --trace 0

With ``--trace 0`` it measures the end-to-end metrics: cold set-up time,
request wall time, sampling time per run and peak memory.  With
``--trace 1`` it issues every request twice, untraced and with each layer
traced, and reports the per-layer metrics and the tracing overhead.  Every
request's outputs are checked; the last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_PROBES = 7
MIN_PAIRS = 4   # traced/untraced request pairs the accounting check needs
PROBE_TIMEOUT_S = 60

sys.path[:0] = [str(SRC), str(ROOT)]

import perfbench  # noqa: E402

perfbench.pin_threads()

from perfbench import gate, layers  # noqa: E402
from perfbench.client import Client  # noqa: E402
from perfbench.spans import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _version(distribution: str) -> str:
    try:
        return metadata.version(distribution)
    except metadata.PackageNotFoundError:
        return "not installed"


def provenance() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                capture_output=True, text=True
                                ).stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": _version("scipy"),
        "git_commit": commit,
        "pinned_threads": perfbench.THREADS,
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in SRC.rglob("*.py")),
    }


def setup_seconds(scenario_path: Path) -> list[float]:
    """Start-to-ready time of fresh processes, as a CLI user pays it."""
    times = []
    probe = [sys.executable, str(ROOT / "perfbench" / "setup_probe.py"),
             str(scenario_path)]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(probe, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline().strip()
            times.append(time.perf_counter() - start)
            code = proc.wait(timeout=PROBE_TIMEOUT_S)
        if line != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed (exit {code}): {line!r}")
    return times


def closed_loop(client: Client, tracer: Tracer, seconds: float) -> list:
    """Requests back to back until ``seconds`` have passed (at least one)."""
    records = []
    start = time.perf_counter()
    while not records or time.perf_counter() - start < seconds:
        records.append(client.request(len(records), tracer))
    return records


def tail_percentile(values: list[float]):
    """The highest whole percentile with at least ten samples beyond it."""
    n = len(values)
    if n <= 10:
        return None
    return 100 * (n - 10) // n, sorted(values)[n - 11]


def end_to_end(client: Client, args) -> tuple[dict, list, list]:
    setup = setup_seconds(client.scenario_path)
    with Tracer(layers.REQUEST_POINTS) as tracer:
        client.warm_up(tracer)
        records = closed_loop(client, tracer, args.seconds)
    walls = [r.wall_s for r in records]
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "request_s": (statistics.median(walls), "s"),
        "run_ms": (statistics.median(r.run_ms for r in records), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }
    tail = tail_percentile(walls)
    print(f"request_s samples: {len(walls)}; "
          + (f"p{tail[0]} {tail[1]:.4f} s" if tail else
             "no percentile has 10 samples beyond it"))
    print(f"setup_s samples: {' '.join(f'{t:.4f}' for t in setup)}")
    return metrics, records, []


def traced(client: Client, args) -> tuple[dict, list, list]:
    """Each request twice, untraced and traced, in alternating order so that
    drift in the machine's speed falls on both sides alike."""
    plain = Tracer(layers.REQUEST_POINTS)
    tracer = Tracer(layers.LAYER_POINTS)
    scenario = client.scenario

    def digest(first, problems):
        layers.digest(tracer.spans, first,
                      lambda result: gate.check_run(result, scenario), problems)

    def untraced_request(index):
        with plain:
            return client.request(index, plain, keep_snapshot=True)

    def traced_request(index):
        with tracer:
            return client.request(index, tracer, keep_snapshot=True,
                                  digest=digest)

    with plain:
        client.warm_up(plain)
    untraced, replayed = [], []
    start = time.perf_counter()
    while (len(untraced) < MIN_PAIRS
           or time.perf_counter() - start < args.seconds):
        index = len(untraced)
        if index % 2:
            replayed.append(traced_request(index))
            untraced.append(untraced_request(index))
        else:
            untraced.append(untraced_request(index))
            replayed.append(traced_request(index))
        replayed[-1].problems += gate.compare_snapshots(
            untraced[-1].snapshot or {}, replayed[-1].snapshot or {})
        untraced[-1].snapshot = replayed[-1].snapshot = None
    name = f"{args.workload}-seed{args.seed}"
    tracer.write(STATE / "traces" / f"{name}.csv")
    metrics = layers.layer_metrics(tracer.spans, replayed, untraced)
    check = layers.accounting(tracer.spans, replayed, untraced)
    print(f"accounting over {check['pairs']} request pairs, ms per run: "
          f"untraced minus layer self times {check['gap_ms']:.3f}, tracing "
          f"overhead {check['overhead_ms']:.3f}, allowed {check['allowed_ms']:.3f}"
          f" -> {'ok' if check['ok'] else 'FAILED'}")
    problems = [] if check["ok"] else [
        "the traced layers' self times do not account for the untraced "
        "run time within the tracing overhead"]
    return metrics, untraced + replayed, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "pathmix" / "cli.py").is_file():
        print(f"error: no pathmix sources under {SRC}", file=sys.stderr)
        return 2
    work = STATE / "work"
    shutil.rmtree(work, ignore_errors=True)
    client = Client(WORKLOADS[args.workload], args.seed, work,
                    gate.Reference())
    measure = traced if args.trace else end_to_end
    try:
        metrics, records, problems = measure(client, args)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failed = [r for r in records if r.failed]
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "provenance": provenance(), "problems": problems,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "requests": [{"index": r.index, "seed": r.seed, "wall_s": r.wall_s,
                      "run_s": r.run_s,
                      "problems": r.problems}
                     for r in records],
    }
    results = STATE / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1) + "\n")

    for key, value in record["provenance"].items():
        print(f"provenance {key}: {value}")
    for problem in problems:
        print(f"run failed: {problem}")
    for r in failed:
        print(f"request {r.index} (seed {r.seed}) failed: "
              f"{'; '.join(r.problems)}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {len(failed) / len(records):.6g} (of "
          f"{len(records)} requests)")
    print(json.dumps({
        "correct": not failed and not problems,
        "attempted": len(records),
        "failed": len(failed),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
