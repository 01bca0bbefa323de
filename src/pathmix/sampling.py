"""Segmented long-range DDIM sampling with per-step mixing optimization.

One run denoises K segments jointly over an N-step DDIM plan.  At every step
the three clean-signal predictions (source, target, unconditional) are queried
once per segment, the mixing vector is either optimized or taken from a fixed
heuristic schedule, the mixed prediction drives the DDIM update, and the hard
stitching projection restores overlap continuity.  Runs are pure functions of
(scenario, seed).
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .control import (ControlConfig, SegmentPredictions, control_energy,
                      heuristic_omega)
from .errors import InvalidConfigError
from .mixtures import ConditionModel, predict_x0
from .optim import OptimizerConfig, optimize_mixing
from .schedules import ddim_step
from .segments import align_root, assemble_crossfade, hard_stitch_project

# Largest (K-1)*K*S*C allowed: the float64 count of the basis stack that the
# per-step energy model builds, here 2**24 values or 128 MiB.  Checked before
# anything of the layout's size is allocated.  The scenario loader bounds the
# schedule's T+1 and the optimizer's (J+1)*K values by it too.
MAX_LAYOUT_VALUES = 2 ** 24


@dataclass(frozen=True)
class SegmentLayout:
    K: int
    S: int
    C: int
    root_channel: int = 0

    def __post_init__(self):
        if self.K < 2:
            raise InvalidConfigError("layout.K: K must be >= 2")
        if self.S < 2 or self.S % 2 != 0:
            raise InvalidConfigError("layout.S: S must be even and >= 2")
        if self.C < 1:
            raise InvalidConfigError("layout.C: C must be >= 1")
        if not 0 <= self.root_channel < self.C:
            raise InvalidConfigError(
                "layout.root_channel: root_channel out of range")
        size = (self.K - 1) * self.K * self.S * self.C
        if size > MAX_LAYOUT_VALUES:
            raise InvalidConfigError(
                f"layout.K, layout.S and layout.C give (K-1)*K*S*C = {size} "
                f"values, more than the bound of {MAX_LAYOUT_VALUES}")


@dataclass(frozen=True)
class RunResult:
    final_segments: np.ndarray   # (K, S, C) clean samples, hard-stitched
    long_sequence: np.ndarray    # root-aligned cross-fade assembly
    omega_grid: np.ndarray       # (N, K) mixing vector per denoising step
    energy_trace: list           # per-step EnergyBreakdown
    seed: int
    fingerprint: str
    wall_time: float


def initial_segment_noise(layout: SegmentLayout, seed: int) -> np.ndarray:
    """Per-segment standard normal noise from a counter-based seed split.

    Segment k draws from SeedSequence(seed, spawn_key=(k,)), so segment
    streams are independent of K and of each other.
    """
    x = np.empty((layout.K, layout.S, layout.C))
    for k in range(layout.K):
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(k,)))
        x[k] = rng.standard_normal((layout.S, layout.C))
    return x


def _run(scenario, seed: int, kind: str | None) -> RunResult:
    """One run with the heuristic schedule ``kind``, or optimized if None."""
    start = time.perf_counter()
    layout: SegmentLayout = scenario.layout
    schedule = scenario.schedule
    plan = scenario.plan
    model: ConditionModel = scenario.model
    opt_cfg: OptimizerConfig = scenario.optimizer
    ctl_cfg: ControlConfig = scenario.control
    root = layout.root_channel

    x = initial_segment_noise(layout, seed)
    fixed_omega = None if kind is None else heuristic_omega(
        kind, layout.K, ctl_cfg.sigmoid_sharpness)

    omega_grid = np.empty((plan.num_steps, layout.K))
    energy_trace = []
    z_carry = None
    for n in range(plan.num_steps):
        t, t_next = int(plan.steps[n]), int(plan.steps[n + 1])
        preds = SegmentPredictions(*predict_x0(model, x, t, schedule))
        if kind is None:
            mixing = optimize_mixing(preds, t, opt_cfg, ctl_cfg, schedule,
                                     root, z_init=z_carry)
            omega, energy = mixing.omega, mixing.energy
            if opt_cfg.warm_start:
                z_carry = mixing.z
        else:
            omega = fixed_omega
            energy = control_energy(preds, omega, t, ctl_cfg, schedule, root)
        x = hard_stitch_project(ddim_step(x, preds.mixed(omega), t, t_next,
                                          schedule))
        omega_grid[n] = omega
        energy_trace.append(energy)

    long_sequence = assemble_crossfade(align_root(x, root))
    return RunResult(x, long_sequence, omega_grid, energy_trace, seed,
                     scenario.fingerprint, time.perf_counter() - start)


def optimized_sample(scenario, seed: int) -> RunResult:
    """Long-range sampling with per-step optimization of the mixing vector."""
    return _run(scenario, seed, None)


def baseline_sample(scenario, kind: str, seed: int) -> RunResult:
    """Same sampling loop with a fixed heuristic mixing schedule (no inner
    optimization); the control energy is still recorded for comparison."""
    return _run(scenario, seed, kind)
