"""Output gate: what every request's outputs must satisfy.

Three checks, each returning a list of problems (empty when the outputs pass):

* invariants that hold for any seed: exact hard-stitch continuity of the
  final segments, omega pinned at exactly 0 and 1 with its interior in
  [0, 1], finite energies and FIDs, and the expected clip count;
* agreement within 1e-12 with the reference values recorded in
  ``reference.npz`` for the default workload seeds (parsed values, not
  bytes);
* byte equality of a traced request's files with the untraced request's.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

METRIC_KEYS = ("fid_kinetic", "fid_geometric", "div_kinetic", "div_geometric",
               "accel_mean", "accel_var", "jerk_mean", "jerk_var",
               "n_gen", "n_gt")
TOLERANCE = 1e-12
REFERENCE_PATH = Path(__file__).with_name("reference.npz")
# manifest.json keys that differ between two runs of the same request
VOLATILE_MANIFEST_KEYS = ("created_at", "wall_time")


def _read_csv(path: Path) -> np.ndarray:
    rows = path.read_text().strip().splitlines()[1:]
    return np.array([[float(v) for v in row.split(",")] for row in rows])


def read_outputs(command: str, out_dir: Path) -> dict:
    """Parse the files one request wrote into float arrays."""
    if command == "evaluate":
        report = json.loads((out_dir / "metrics.json").read_text())
        return {"metrics": np.array([float(report[k]) for k in METRIC_KEYS])}
    table = _read_csv(out_dir / "segments.csv")
    K, S = int(table[:, 0].max()) + 1, int(table[:, 1].max()) + 1
    return {"segments": table[:, 2:].reshape(K, S, -1),
            "omega": _read_csv(out_dir / "omega.csv")[:, 1:],
            "energy": _read_csv(out_dir / "energy.csv")[:, 1:],
            "long_sequence": _read_csv(out_dir / "long_sequence.csv")[:, 1:]}


def _segment_problems(segments: np.ndarray, omega: np.ndarray,
                      energy_totals: np.ndarray, shape: tuple,
                      steps: int) -> list[str]:
    problems = []
    K, S, _ = shape
    half = S // 2
    if segments.shape != shape:
        return [f"segments have shape {segments.shape}, expected {shape}"]
    if omega.shape != (steps, K):
        return [f"omega has shape {omega.shape}, expected {(steps, K)}"]
    if not np.all(np.isfinite(segments)):
        problems.append("non-finite final segments")
    if not np.array_equal(segments[1:, :half], segments[:-1, half:]):
        problems.append("final segments are not continuous under the hard "
                        "stitch")
    if np.any(omega[:, 0] != 0.0) or np.any(omega[:, -1] != 1.0):
        problems.append("omega is not pinned at exactly 0 and 1")
    interior = omega[:, 1:-1]
    if not np.all((interior >= 0.0) & (interior <= 1.0)):
        problems.append("interior omega outside [0, 1]")
    if len(energy_totals) != steps or not np.all(np.isfinite(energy_totals)):
        problems.append("energy trace is not one finite value per step")
    return problems


def check_invariants(command: str, scenario: dict, values: dict) -> list[str]:
    """Seed-independent properties of one request's parsed outputs."""
    lay = scenario["layout"]
    K, S, C = lay["K"], lay["S"], lay["C"]
    if command == "evaluate":
        report = dict(zip(METRIC_KEYS, values["metrics"]))
        problems = [f"{k} is not finite" for k, v in report.items()
                    if not np.isfinite(v)]
        n_clips = scenario["eval"]["n_clips"]
        for key in ("n_gen", "n_gt"):
            if report[key] != n_clips:
                problems.append(f"{key} is {report[key]:g}, expected "
                                f"n_clips = {n_clips}")
        return problems
    problems = _segment_problems(values["segments"], values["omega"],
                                 values["energy"][:, -1], (K, S, C),
                                 scenario["schedule"]["N"])
    seq = values["long_sequence"]
    if seq.shape != (S + (K - 1) * (S // 2), C) or not np.all(np.isfinite(seq)):
        problems.append(f"long sequence has shape {seq.shape} or is not "
                        "finite")
    return problems


def check_run(result, scenario: dict) -> list[str]:
    """The same invariants on one in-memory sampling result (a RunResult)."""
    lay = scenario["layout"]
    totals = np.array([e.total for e in result.energy_trace])
    return _segment_problems(np.asarray(result.final_segments),
                             np.asarray(result.omega_grid), totals,
                             (lay["K"], lay["S"], lay["C"]),
                             scenario["schedule"]["N"])


class Reference:
    """Reference outputs keyed by workload, workload seed and request index."""

    def __init__(self, path: Path = REFERENCE_PATH):
        with np.load(path) as data:   # a missing file raises
            self._arrays = dict(data)

    @staticmethod
    def key(workload: str, seed: int, index: int, field: str) -> str:
        return f"{workload}/{seed}/{index}/{field}"

    def compare(self, workload: str, seed: int, index: int,
                values: dict) -> list[str]:
        problems = []
        prefix = self.key(workload, seed, index, "")
        for key, expected in self._arrays.items():
            if not key.startswith(prefix):
                continue
            field = key[len(prefix):]
            got = values[field]
            if got.shape != expected.shape:
                problems.append(f"{field} has shape {got.shape}, reference "
                                f"{expected.shape}")
                continue
            err = np.abs(got - expected)
            if np.any(err > TOLERANCE * np.maximum(1.0, np.abs(expected))):
                problems.append(f"{field} differs from the reference by up "
                                f"to {err.max():.3g}")
        return problems


def snapshot(out_dir: Path) -> dict:
    """Every output file's bytes, with the manifest's timestamps removed."""
    files = {}
    for path in sorted(out_dir.iterdir()):
        data = path.read_bytes()
        if path.name == "manifest.json":
            manifest = json.loads(data)
            for key in VOLATILE_MANIFEST_KEYS:
                manifest.pop(key, None)
            data = json.dumps(manifest, sort_keys=True).encode()
        files[path.name] = data
    return files


def compare_snapshots(untraced: dict, traced: dict) -> list[str]:
    if untraced.keys() != traced.keys():
        return [f"traced run wrote {sorted(traced)}, untraced run wrote "
                f"{sorted(untraced)}"]
    return [f"{name} differs between the traced and untraced runs"
            for name in untraced if untraced[name] != traced[name]]
