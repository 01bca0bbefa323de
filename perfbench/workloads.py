"""Workload definitions: the scenario JSON and request seeds of each workload.

Everything here is a pure function of the workload seed, so the same seed
gives the same scenario files and the same sequence of CLI requests.  The
program under test only ever sees the scenario file and the ``--seed`` of
each request.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# The built-in scenario at the commit that defined this benchmark, written
# out in full so that a later change to the program's defaults does not
# silently change the workload.
DEFAULT_SCENARIO = {
    "layout": {"K": 4, "S": 16, "C": 4, "root_channel": 0},
    "domains": {"c0": {"kind": "toy", "cycles": 2.0, "root_drift": 0.5},
                "c1": {"kind": "toy", "cycles": 6.0, "root_drift": 1.5},
                "p0": 0.5},
    "schedule": {"T": 1000, "N": 50},
    "optimizer": {"J": 20, "lr": 0.01, "warm_start": True},
    "control": {"w_T": 1.0, "lambda_mode": "posterior",
                "sigmoid_sharpness": 10.0},
    "eval": {"n_clips": 200, "n_pairs": 2000},
    "seed": 0,
}

LONG_WIDE_K = 16
LONG_WIDE_N = 200
LONG_WIDE_COMPONENTS = 8   # per condition; the null model has twice as many


@dataclass(frozen=True)
class Workload:
    name: str
    command: str      # CLI subcommand: "evaluate" or "generate"
    method: str
    why: str

    def scenario(self, seed: int) -> dict:
        if self.name == "long-wide":
            return long_wide_scenario(seed)
        return json.loads(json.dumps(DEFAULT_SCENARIO))

    def runs_per_request(self, scenario: dict) -> int:
        """Sampling runs one request performs (the CLI's default pool size)."""
        if self.command == "generate":
            return 1
        return math.ceil(scenario["eval"]["n_clips"] / scenario["layout"]["K"])

    def argv(self, scenario_path: Path, request_seed: int,
             out_dir: Path) -> list[str]:
        return [self.command, "--scenario", str(scenario_path),
                "--method", self.method, "--seed", str(request_seed),
                "--out", str(out_dir)]


WORKLOADS = {
    "pool-mdpa": Workload(
        "pool-mdpa", "evaluate", "mdpa",
        "default scenario, 50 optimized runs pooled and scored; the "
        "per-step optimizer dominates"),
    "pool-sine": Workload(
        "pool-sine", "evaluate", "sine",
        "same request with a fixed schedule; bypasses the optimizer, so "
        "predict_x0 dominates"),
    "long-wide": Workload(
        "long-wide", "generate", "mdpa",
        "one K=16, N=200, 8-component run written to disk; a batch of one, "
        "dominated by building the energy model"),
}


def _seed_sequence(seed: int, *key: int) -> np.random.SeedSequence:
    return np.random.SeedSequence(entropy=seed, spawn_key=key)


def request_seed(workload_seed: int, index: int) -> int:
    """The CLI ``--seed`` of request ``index`` in a run."""
    return int(_seed_sequence(workload_seed, 1, index).generate_state(1)[0])


def _components(rng: np.random.Generator, S: int, C: int, cycles: float,
                root_drift: float) -> dict:
    """Sinusoidal mixture components with seeded phases and weights."""
    frames = np.arange(S)[:, None]
    channels = np.arange(C)[None, :]
    weights = rng.uniform(0.5, 1.5, LONG_WIDE_COMPONENTS)
    phases = rng.uniform(0.0, 2.0 * np.pi, LONG_WIDE_COMPONENTS)
    comps = []
    for weight, phase in zip(weights, phases):
        mean = np.sin(2.0 * np.pi * cycles * frames / S + phase
                      + np.pi * channels / C)
        mean[:, 0] = root_drift * np.arange(S) / (S - 1)
        comps.append({"weight": float(weight), "mean": mean.tolist(),
                      "variance": 0.05})
    return {"kind": "components", "components": comps}


def long_wide_scenario(seed: int) -> dict:
    """K=16 segments, N=200 DDIM steps and 8-component domains.

    Component phases and weights are drawn from the workload seed; every
    other value is the default scenario's.
    """
    rng = np.random.default_rng(_seed_sequence(seed, 0))
    raw = json.loads(json.dumps(DEFAULT_SCENARIO))
    S, C = raw["layout"]["S"], raw["layout"]["C"]
    raw["layout"]["K"] = LONG_WIDE_K
    raw["schedule"]["N"] = LONG_WIDE_N
    raw["domains"] = {"c0": _components(rng, S, C, 2.0, 0.5),
                      "c1": _components(rng, S, C, 6.0, 1.5),
                      "p0": 0.5}
    return raw


def warmup_scenario(scenario: dict) -> dict:
    """A few-step copy of a scenario, run once untimed to finish lazy set-up
    (first-call paths in numpy and scipy) before measuring."""
    raw = json.loads(json.dumps(scenario))
    raw["schedule"]["N"] = 2
    raw["eval"] = {"n_clips": 8, "n_pairs": 10}
    return raw
