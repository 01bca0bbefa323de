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

from .errors import DegenerateTimestepError, InvalidConfigError
from .schedules import NoiseSchedule, eps_of_x0
from .segments import align_root

POSTERIOR_VAR_FLOOR = 1e-12

# Largest w_T accepted at load.  Adam squares a latent gradient that grows
# linearly in w_T; on the default scenario the square overflows past w_T of
# about 1e152, so this bound leaves some 50 orders of magnitude for steeper
# stitch costs.
MAX_TERMINAL_WEIGHT = 1e100


@dataclass(frozen=True)
class ControlConfig:
    w_T: float = 1.0                      # terminal (stitch) weight
    lambda_mode: str = "posterior"        # "posterior" | "unit"
    sigmoid_sharpness: float = 10.0

    def __post_init__(self):
        for key in ("w_T", "sigmoid_sharpness"):
            if not np.isfinite(getattr(self, key)):
                raise InvalidConfigError(f"control.{key} must be finite")
        if not 0 <= self.w_T <= MAX_TERMINAL_WEIGHT:
            raise InvalidConfigError(
                f"control.w_T must lie in [0, {MAX_TERMINAL_WEIGHT:g}], "
                f"got {self.w_T:g}")
        if self.lambda_mode not in ("posterior", "unit"):
            raise InvalidConfigError(
                f"control.lambda_mode: unknown lambda_mode {self.lambda_mode!r}")
        if self.sigmoid_sharpness <= 0:
            raise InvalidConfigError("control.sigmoid_sharpness must be > 0")


@dataclass(frozen=True)
class EnergyBreakdown:
    transient: float
    terminal: float
    total: float
    per_segment_transient: np.ndarray


@dataclass(frozen=True)
class SegmentPredictions:
    """Per-segment clean-signal predictions under both conditions and none."""

    source: np.ndarray  # (K, S, C)
    target: np.ndarray  # (K, S, C)
    uncond: np.ndarray  # (K, S, C)

    def __post_init__(self):
        if not (self.source.shape == self.target.shape == self.uncond.shape):
            raise ValueError("prediction stacks must share a shape")
        if self.source.ndim != 3:
            raise ValueError("prediction stacks must be (K, S, C)")

    @property
    def num_segments(self) -> int:
        return self.source.shape[0]

    @cached_property
    def directions(self) -> np.ndarray:
        """d mixed_k / d omega_k, the target-source difference, (K, S, C)."""
        return self.target - self.source

    def mixed(self, omega: np.ndarray) -> np.ndarray:
        """Mixed prediction stacks, (..., K, S, C), of mixing vectors (..., K):
        (1 - omega_k) * source_k + omega_k * target_k."""
        w = omega[..., None, None]
        return (1.0 - w) * self.source + w * self.target


def guidance_delta(x_t: np.ndarray, mixed_x0: np.ndarray, uncond_x0: np.ndarray,
                   t: int, schedule: NoiseSchedule) -> np.ndarray:
    """Noise-space deviation of the mixed prediction from the unconditional one."""
    if t < 1:
        raise DegenerateTimestepError("guidance delta undefined at t=0")
    return (eps_of_x0(x_t, mixed_x0, t, schedule)
            - eps_of_x0(x_t, uncond_x0, t, schedule))


def _delta_coeff(t: int, schedule: NoiseSchedule) -> float:
    """sqrt(alpha_bar_t) / sqrt(1 - alpha_bar_t): scale mapping x0-space
    differences to noise-space deltas."""
    a = schedule.alpha_bar[t]
    return np.sqrt(a) / np.sqrt(1.0 - a)


def lambda_weight(t: int, schedule: NoiseSchedule, mode: str) -> float:
    """Per-timestep weight on the squared noise-space deviation.

    "posterior" is the DDPM reverse-transition KL constant
    beta_t^2 / (2 (1 - beta_t) (1 - alpha_bar_t) posterior_var_t), with
    posterior_var_t floored at POSTERIOR_VAR_FLOOR: it is 0 at t = 1 by
    construction, so a plan that reaches t = 1 gets a large finite weight
    there rather than a division by zero.  "unit" returns 1 for ablations.
    """
    if t < 1:
        raise DegenerateTimestepError("lambda undefined at t=0")
    if mode == "unit":
        return 1.0
    if mode != "posterior":
        raise InvalidConfigError(f"unknown lambda mode {mode!r}")
    beta = schedule.beta[t]
    pv = max(schedule.posterior_var[t], POSTERIOR_VAR_FLOOR)
    return beta ** 2 / (2.0 * (1.0 - beta) * (1.0 - schedule.alpha_bar[t]) * pv)


def reverse_kl_check(eps_a: np.ndarray, eps_b: np.ndarray, t: int,
                     schedule: NoiseSchedule) -> float:
    """Exact KL between the Gaussian reverse transitions induced by two noise
    predictions (shared posterior variance): ||mu_a - mu_b||^2 / (2 var)."""
    if t < 1:
        raise DegenerateTimestepError("reverse transition undefined at t=0")
    beta = schedule.beta[t]
    coeff = beta / (np.sqrt(1.0 - beta) * np.sqrt(1.0 - schedule.alpha_bar[t]))
    diff = coeff * (eps_a - eps_b)
    return float(np.sum(diff ** 2) / (2.0 * schedule.posterior_var[t]))


def stitch_cost(x0hat_segments: np.ndarray) -> float:
    """Squared L2 distance between overlapping halves of adjacent segments."""
    S = x0hat_segments.shape[1]
    if S % 2 != 0:
        raise InvalidConfigError("segment length S must be even")
    half = S // 2
    diff = x0hat_segments[1:, :half] - x0hat_segments[:-1, half:]
    return float((diff ** 2).sum())


def heuristic_omega(kind: str, K: int, sharpness: float) -> np.ndarray:
    """Fixed segment-interpolation schedules: linear, sigmoid or sine.

    All are monotone over the segment index with endpoints exactly 0 and 1,
    and constant across denoising steps.
    """
    if K < 2:
        raise InvalidConfigError("need K >= 2 segments")
    u = np.arange(K, dtype=np.float64) / (K - 1)
    if kind == "linear":
        return u
    if kind == "sine":
        return 0.5 * (1.0 - np.cos(np.pi * u))
    if kind == "sigmoid":
        raw = 1.0 / (1.0 + np.exp(-sharpness * (u - 0.5)))
        return (raw - raw[0]) / (raw[-1] - raw[0])
    raise InvalidConfigError(f"unknown schedule kind {kind!r}")


def control_energy(preds: SegmentPredictions, omega: np.ndarray, t: int,
                   config: ControlConfig, schedule: NoiseSchedule,
                   root_channel: int = 0) -> EnergyBreakdown:
    """Per-step control energy of a mixing vector with pinned boundaries.

    transient = lambda_t * sum_k ||delta_eps_k||^2 with the mixed prediction
    per segment; terminal = w_T * stitch cost of the root-aligned mixed
    clean-signal stack.  The noisy state cancels out of the noise-space
    delta, which depends on the prediction difference alone.
    """
    K = preds.num_segments
    if omega.shape != (K,):
        raise ValueError(f"omega must have length {K}")
    if omega[0] != 0.0 or omega[-1] != 1.0:
        raise ValueError("omega boundaries must be pinned to 0 and 1 exactly")
    lam = lambda_weight(t, schedule, config.lambda_mode)
    c2 = _delta_coeff(t, schedule) ** 2
    mixed = preds.mixed(omega)
    per_seg = lam * c2 * ((preds.uncond - mixed) ** 2).sum(axis=(1, 2))
    transient = float(per_seg.sum())
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
    lam = lambda_weight(t, schedule, config.lambda_mode)
    c2 = _delta_coeff(t, schedule) ** 2
    u = preds.uncond - preds.source           # deviation at omega = 0
    w = preds.directions                      # mixing direction
    q2 = lam * c2 * (w ** 2).sum(axis=(1, 2))
    q1 = -2.0 * lam * c2 * (u * w).sum(axis=(1, 2))
    q0 = lam * c2 * (u ** 2).sum(axis=(1, 2))
    return q2, q1, q0


def stitch_cost_aligned_gradient(aligned: np.ndarray, directions: np.ndarray,
                                 root_channel: int = 0) -> np.ndarray:
    """Gradient of stitch_cost(align_root(mixed)) with respect to omega, from
    the root-aligned stack ``aligned = align_root(mixed, root_channel)``.

    ``directions[k]`` is d mixed_k / d omega_k (the target-source difference).
    Root-alignment offsets accumulate along segments, so earlier omegas leak
    into later segments through the root channel; the offset derivatives are
    tracked explicitly.  Leading axes of ``aligned`` before (K, S, C) index
    independent stacks sharing ``directions``.
    """
    K, S, C = aligned.shape[-3:]
    half = S // 2
    resid = aligned[..., 1:, :half, :] - aligned[..., :-1, half:, :]
    rows = resid.shape[:-2] + (half * C,)       # overlap k | k+1 per row
    into_next = 2.0 * (resid * directions[1:, :half]).reshape(rows).sum(-1)
    out_of_prev = 2.0 * (resid * directions[:-1, half:]).reshape(rows).sum(-1)
    root_resid = 2.0 * resid[..., root_channel].sum(axis=-1)
    # offset_k = sum_{j<k} (last root of aligned j - first root of j+1), so
    # d offset_k / d omega_j is last_j - first_j for 0 < j < k, last_0 for
    # j = 0 and -first_k for j = k.  ``own`` is d offset_k / d omega_k; the
    # differences keep the rounding of the running sums they stand for.
    first = directions[:, 0, root_channel]
    last = directions[:, S - 1, root_channel]
    own = np.concatenate(([0.0], 0.0 - first[1:]))
    d_own = (own[:-1] + last[:-1]) - own[:-1]  # offset_{k+1} - offset_k, omega_k
    grad = np.zeros(aligned.shape[:-2])
    grad[..., 1:] += into_next
    grad[..., 1:] += root_resid * own[1:]
    grad[..., :-1] -= out_of_prev
    grad[..., :-1] += root_resid * d_own
    return grad

