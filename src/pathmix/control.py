"""Guidance mixing and per-step control energies.

The per-step objective penalizes deviation of the mixed prediction from the
unconditional one (transient term, weighted by lambda_t) plus a terminal
stitching cost on the overlap regions of root-aligned mixed clean-signal
estimates.  With predictions held fixed the objective is exactly quadratic in
the segment mixing vector omega; this module supplies the direct energy
evaluator and the terms the optimizer's quadratic model is built from.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ScenarioError
from .schedules import NoiseSchedule, eps_of_x0
from .segments import align_root, check_stack

POSTERIOR_VAR_FLOOR = 1e-12

# Largest w_T accepted at load.  Adam squares a latent gradient that grows
# linearly in w_T; on the default scenario the square overflows past w_T of
# about 1e152, so this bound leaves some 50 orders of magnitude for steeper
# stitch costs.
MAX_TERMINAL_WEIGHT = 1e100

# Smallest sigmoid_sharpness accepted at load, the smallest normal double:
# heuristic_omega divides by tanh(s / 4), which is 0 at the smallest subnormal.
MIN_SIGMOID_SHARPNESS = float(np.finfo(np.float64).tiny)


@dataclass(frozen=True)
class ControlConfig:
    w_T: float = 1.0                      # terminal (stitch) weight
    lambda_mode: str = "posterior"        # "posterior" | "unit"
    sigmoid_sharpness: float = 10.0

    def __post_init__(self):
        for key in ("w_T", "sigmoid_sharpness"):
            if not np.isfinite(getattr(self, key)):
                raise ScenarioError(f"control.{key} must be finite")
        if not 0 <= self.w_T <= MAX_TERMINAL_WEIGHT:
            raise ScenarioError(
                f"control.w_T must lie in [0, {MAX_TERMINAL_WEIGHT:g}], "
                f"got {self.w_T:g}")
        if self.lambda_mode not in ("posterior", "unit"):
            raise ScenarioError(
                f"control.lambda_mode: unknown lambda_mode {self.lambda_mode!r}")
        if self.sigmoid_sharpness < MIN_SIGMOID_SHARPNESS:
            raise ScenarioError("control.sigmoid_sharpness must be >= "
                                f"{MIN_SIGMOID_SHARPNESS!r}")


@dataclass(frozen=True)
class EnergyBreakdown:
    """Per-step energies over the stacks' leading axes, plus K per segment."""

    transient: np.ndarray
    terminal: np.ndarray
    total: np.ndarray
    per_segment_transient: np.ndarray


@dataclass(frozen=True)
class SegmentPredictions:
    """Per-segment clean-signal predictions under both conditions and none."""

    source: np.ndarray  # (..., K, S, C)
    target: np.ndarray  # (..., K, S, C)
    uncond: np.ndarray  # (..., K, S, C)

    def __post_init__(self):
        if not (self.source.shape == self.target.shape == self.uncond.shape):
            raise ValueError("prediction stacks must share a shape")
        check_stack(self.source)

    @property
    def num_segments(self) -> int:
        return self.source.shape[-3]

    @cached_property
    def directions(self) -> np.ndarray:
        """d mixed_k / d omega_k, the target-source difference."""
        return self.target - self.source

    def mixed(self, omega: np.ndarray) -> np.ndarray:
        """Mixed prediction stacks, (..., K, S, C), of mixing vectors (..., K):
        (1 - omega_k) * source_k + omega_k * target_k."""
        w = omega[..., None, None]
        return (1.0 - w) * self.source + w * self.target


def guidance_delta(x_t: np.ndarray, mixed_x0: np.ndarray, uncond_x0: np.ndarray,
                   t: int, schedule: NoiseSchedule) -> np.ndarray:
    """Noise-space deviation of the mixed prediction from the unconditional one."""
    return (eps_of_x0(x_t, mixed_x0, t, schedule)
            - eps_of_x0(x_t, uncond_x0, t, schedule))


def _transient_weight(t: int, config: ControlConfig,
                      schedule: NoiseSchedule) -> float:
    """lambda_t times the square of sqrt(alpha_bar_t) / sqrt(1 - alpha_bar_t),
    the scale mapping x0-space differences to noise-space deltas."""
    a = schedule.alpha_bar[t]
    return (lambda_weight(t, schedule, config.lambda_mode)
            * (np.sqrt(a) / np.sqrt(1.0 - a)) ** 2)


def lambda_weight(t: int, schedule: NoiseSchedule, mode: str) -> float:
    """Per-timestep weight on the squared noise-space deviation.

    "posterior" is the DDPM reverse-transition KL constant
    beta_t^2 / (2 (1 - beta_t) (1 - alpha_bar_t) posterior_var_t), with
    posterior_var_t floored at POSTERIOR_VAR_FLOOR: it is 0 at t = 1 by
    construction, so a plan that reaches t = 1 gets a large finite weight
    there rather than a division by zero.  "unit" returns 1 for ablations.
    """
    if t < 1:
        raise ValueError("lambda undefined at t=0")
    if mode == "unit":
        return 1.0
    if mode != "posterior":
        raise ScenarioError(f"unknown lambda mode {mode!r}")
    beta = schedule.beta[t]
    pv = max(schedule.posterior_var[t], POSTERIOR_VAR_FLOOR)
    return beta ** 2 / (2.0 * (1.0 - beta) * (1.0 - schedule.alpha_bar[t]) * pv)


def reverse_kl_check(eps_a: np.ndarray, eps_b: np.ndarray, t: int,
                     schedule: NoiseSchedule) -> float:
    """Exact KL between the Gaussian reverse transitions induced by two noise
    predictions (shared posterior variance): ||mu_a - mu_b||^2 / (2 var).

    At t = 1 the variance is 0: equal predictions are 0 apart and different
    ones infinitely far."""
    if t < 1:
        raise ValueError("reverse transition undefined at t=0")
    beta = schedule.beta[t]
    coeff = beta / (np.sqrt(1.0 - beta) * np.sqrt(1.0 - schedule.alpha_bar[t]))
    diff = coeff * (eps_a - eps_b)
    sq = np.sum(diff ** 2)
    return float(sq / (2.0 * schedule.posterior_var[t])) if sq else 0.0


def stitch_cost(x0hat_segments: np.ndarray) -> np.ndarray:
    """Squared L2 distance between overlapping halves of adjacent segments,
    one per stack: a scalar for (K, S, C), an array for (..., K, S, C)."""
    check_stack(x0hat_segments)
    half = x0hat_segments.shape[-2] // 2
    diff = (x0hat_segments[..., 1:, :half, :]
            - x0hat_segments[..., :-1, half:, :])
    return (diff ** 2).sum(axis=(-3, -2, -1))


def heuristic_omega(kind: str, K: int, sharpness: float) -> np.ndarray:
    """Fixed segment-interpolation schedules: linear, sigmoid or sine.

    All are monotone over the segment index with endpoints exactly 0 and 1,
    and constant across denoising steps.  The sigmoid is the logistic of
    s (u - 1/2) rescaled to [0, 1] in its odd form, (tanh(s (u - 1/2) / 2)
    + tanh(s / 4)) / (2 tanh(s / 4)): exact ends, and it cannot overflow.
    """
    if K < 2:
        raise ScenarioError("need K >= 2 segments")
    u = np.arange(K, dtype=np.float64) / (K - 1)
    if kind == "linear":
        return u
    if kind == "sine":
        return 0.5 * (1.0 - np.cos(np.pi * u))
    if kind == "sigmoid":
        raw = np.tanh(sharpness * (u - 0.5) / 2)  # raw[-1] is tanh(s / 4)
        return (raw + raw[-1]) / (2 * raw[-1])
    raise ScenarioError(f"unknown schedule kind {kind!r}")


def control_energy(preds: SegmentPredictions, omega: np.ndarray, t: int,
                   config: ControlConfig, schedule: NoiseSchedule,
                   root_channel: int = 0) -> EnergyBreakdown:
    """Per-step control energy of mixing vectors with pinned boundaries.

    transient = lambda_t * sum_k ||delta_eps_k||^2 with the mixed prediction
    per segment; terminal = w_T * stitch cost of the root-aligned mixed
    clean-signal stack.  The noisy state cancels out of the noise-space
    delta, which depends on the prediction difference alone.
    """
    K = preds.num_segments
    if omega.shape[-1:] != (K,):
        raise ValueError(f"omega must have length {K}")
    if np.any(omega[..., 0] != 0.0) or np.any(omega[..., -1] != 1.0):
        raise ValueError("omega boundaries must be pinned to 0 and 1 exactly")
    weight = _transient_weight(t, config, schedule)
    mixed = preds.mixed(omega)
    per_seg = weight * ((preds.uncond - mixed) ** 2).sum(axis=(-2, -1))
    transient = per_seg.sum(axis=-1)
    terminal = config.w_T * stitch_cost(align_root(mixed, root_channel))
    return EnergyBreakdown(transient, terminal, transient + terminal, per_seg)


# -- quadratic structure -----------------------------------------------------
#
# With predictions fixed, mixed_k = source_k + omega_k * (target_k - source_k)
# is affine in omega, root alignment adds offsets that are affine in omega,
# and both energy terms are quadratic forms.  The helpers below give the
# transient coefficients and the exact terminal gradient over the full omega
# vector, from which ``optim`` builds its per-step energy model.


def transient_coefficients(preds: SegmentPredictions, t: int,
                           config: ControlConfig, schedule: NoiseSchedule):
    """Per-segment quadratics (q2, q1, q0) with
    per_segment_transient_k(w) = q2_k w^2 + q1_k w + q0_k."""
    weight = _transient_weight(t, config, schedule)
    u = preds.uncond - preds.source           # deviation at omega = 0
    w = preds.directions                      # mixing direction
    q2 = weight * (w ** 2).sum(axis=(-2, -1))
    q1 = -2.0 * weight * (u * w).sum(axis=(-2, -1))
    q0 = weight * (u ** 2).sum(axis=(-2, -1))
    return q2, q1, q0


def stitch_cost_aligned_gradient(aligned: np.ndarray, directions: np.ndarray,
                                 root_channel: int) -> np.ndarray:
    """Gradient of stitch_cost(align_root(mixed)) with respect to omega, from
    the root-aligned stack ``aligned = align_root(mixed, root_channel)``.

    ``directions[..., k, :, :]`` is d mixed_k / d omega_k (the target-source
    difference).  Root-alignment offsets accumulate along segments, so earlier
    omegas leak into later segments through the root channel; the offset
    derivatives are tracked explicitly.  The leading axes of ``aligned`` and
    ``directions`` broadcast, so stacks may share one ``directions``.
    """
    K, S = aligned.shape[-3:-1]
    half = S // 2
    resid = aligned[..., 1:, :half, :] - aligned[..., :-1, half:, :]
    into_next = 2.0 * (resid * directions[..., 1:, :half, :]).sum((-2, -1))
    out_of_prev = 2.0 * (resid * directions[..., :-1, half:, :]).sum((-2, -1))
    root_resid = 2.0 * resid[..., root_channel].sum(axis=-1)
    # offset_k = sum_{j<k} (last root of aligned j - first root of j+1), so
    # d offset_k / d omega_j is last_j - first_j for 0 < j < k, last_0 for
    # j = 0 and -first_k for j = k.  ``own`` is d offset_k / d omega_k; the
    # differences keep the rounding of the running sums they stand for.
    first = directions[..., 0, root_channel]
    last = directions[..., S - 1, root_channel]
    own = np.zeros(first.shape)
    own[..., 1:] = 0.0 - first[..., 1:]
    # offset_{k+1} - offset_k with respect to omega_k
    d_own = (own[..., :-1] + last[..., :-1]) - own[..., :-1]
    grad = np.zeros(into_next.shape[:-1] + (K,))
    grad[..., 1:] += into_next
    grad[..., 1:] += root_resid * own[..., 1:]
    grad[..., :-1] -= out_of_prev
    grad[..., :-1] += root_resid * d_own
    return grad

