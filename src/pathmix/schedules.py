"""Forward-diffusion bookkeeping and the deterministic DDIM update.

Conventions: timestep t runs from 0 (clean) to T (pure noise).  ``alpha_bar``
is indexed directly by t and has length T+1 with ``alpha_bar[0] == 1``.
``beta`` and ``posterior_var`` are also stored with length T+1 so that
``beta[t]`` is the forward variance of the transition into timestep t; index 0
holds a 0.0 sentinel and is never a valid timestep for them.

The noisy marginal is q(x_t | x_0) = N(sqrt(alpha_bar_t) x_0,
(1 - alpha_bar_t) I), and the DDIM update is fully deterministic (eta = 0).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidConfigError

COSINE_OFFSET = 0.008
BETA_MIN = 1e-8
BETA_MAX = 0.999
ALPHA_BAR_FLOOR = 1e-5


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-timestep alpha_bar/beta tables for the forward diffusion."""

    total_steps: int
    alpha_bar: np.ndarray
    beta: np.ndarray
    posterior_var: np.ndarray

    def __post_init__(self):
        T = self.total_steps
        if self.alpha_bar.shape != (T + 1,):
            raise InvalidConfigError("alpha_bar must have length T+1")
        if self.alpha_bar[0] != 1.0:
            raise InvalidConfigError("alpha_bar[0] must be exactly 1")
        if not np.all(np.diff(self.alpha_bar) < 0):
            raise InvalidConfigError("alpha_bar must be strictly decreasing")
        if not (np.all(np.isfinite(self.alpha_bar))
                and np.all(np.isfinite(self.beta))
                and np.all(np.isfinite(self.posterior_var))):
            raise InvalidConfigError("schedule tables must be finite")


@dataclass(frozen=True)
class TimestepPlan:
    """Strictly decreasing DDIM timestep subsequence from T down to 0."""

    steps: np.ndarray

    def __post_init__(self):
        s = self.steps
        if s[-1] != 0 or not np.all(np.diff(s) < 0):
            raise InvalidConfigError("plan must decrease strictly to 0")

    @property
    def num_steps(self) -> int:
        return len(self.steps) - 1


def build_cosine_schedule(T: int) -> NoiseSchedule:
    """Cosine alpha_bar schedule with beta clipping and an alpha_bar floor.

    alpha_bar is rebuilt as a cumulative product of (1 - beta) after the betas
    are clipped, so the identity alpha_bar[t] = alpha_bar[t-1] * (1 - beta[t])
    holds exactly.  Near t = T the betas are additionally capped so alpha_bar
    never drops below ALPHA_BAR_FLOOR (the raw cosine value underflows there,
    which would make Tweedie inversion explode).
    """
    if not isinstance(T, (int, np.integer)) or T < 2:
        raise InvalidConfigError(f"T must be an integer >= 2, got {T!r}")
    T = int(T)
    t = np.arange(T + 1, dtype=np.float64)
    f = np.cos(((t / T + COSINE_OFFSET) / (1.0 + COSINE_OFFSET)) * np.pi / 2.0) ** 2
    raw_alpha_bar = f / f[0]
    raw_beta = np.clip(1.0 - raw_alpha_bar[1:] / raw_alpha_bar[:-1], BETA_MIN, BETA_MAX)

    # Floor with headroom for the minimum-beta decay steps that may follow it,
    # so the stored alpha_bar stays >= ALPHA_BAR_FLOOR while remaining strictly
    # decreasing.
    floor = ALPHA_BAR_FLOOR / (1.0 - BETA_MIN) ** T
    alpha_bar = np.empty(T + 1)
    beta = np.zeros(T + 1)
    alpha_bar[0] = 1.0
    for i in range(1, T + 1):
        cap = 1.0 - floor / alpha_bar[i - 1]
        b = max(min(raw_beta[i - 1], cap), BETA_MIN)
        beta[i] = b
        alpha_bar[i] = alpha_bar[i - 1] * (1.0 - b)

    posterior_var = np.zeros(T + 1)
    posterior_var[1:] = beta[1:] * (1.0 - alpha_bar[:-1]) / (1.0 - alpha_bar[1:])
    return NoiseSchedule(T, alpha_bar, beta, posterior_var)


def select_ddim_timesteps(schedule: NoiseSchedule, N: int) -> TimestepPlan:
    """Evenly spaced (rounded) subsequence of N+1 timesteps from T to 0; a
    spacing of T/N >= 1 keeps the rounded steps strictly decreasing, and
    ``linspace`` returns both endpoints exactly, which round to T and 0."""
    T = schedule.total_steps
    if N < 1 or N > T:
        raise InvalidConfigError(f"need 1 <= N <= T, got N={N}, T={T}")
    raw = np.linspace(T, 0.0, N + 1)
    steps = np.ceil(raw - 0.5).astype(np.int64)  # ties round toward smaller t
    return TimestepPlan(steps)


def _check_t(t: int, schedule: NoiseSchedule):
    if t < 0 or t > schedule.total_steps:
        raise ValueError(f"timestep {t} outside [0, {schedule.total_steps}]")


def forward_diffuse(x0: np.ndarray, t: int, noise: np.ndarray,
                    schedule: NoiseSchedule) -> np.ndarray:
    """x_t = sqrt(alpha_bar_t) x_0 + sqrt(1 - alpha_bar_t) noise."""
    if x0.shape != noise.shape:
        raise ValueError(f"shape mismatch: {x0.shape} vs {noise.shape}")
    _check_t(t, schedule)
    a = schedule.alpha_bar[t]
    return np.sqrt(a) * x0 + np.sqrt(1.0 - a) * noise


def tweedie_x0(x_t: np.ndarray, eps: np.ndarray, t: int,
               schedule: NoiseSchedule) -> np.ndarray:
    """Clean-signal estimate (x_t - sqrt(1 - alpha_bar_t) eps) / sqrt(alpha_bar_t)."""
    _check_t(t, schedule)
    if t == 0:
        return x_t.copy()
    a = schedule.alpha_bar[t]
    return (x_t - np.sqrt(1.0 - a) * eps) / np.sqrt(a)


def eps_of_x0(x_t: np.ndarray, x0hat: np.ndarray, t: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Noise implied by a clean-signal estimate; inverse of tweedie_x0."""
    _check_t(t, schedule)
    if t == 0:
        raise ValueError("eps is undefined at t=0")
    a = schedule.alpha_bar[t]
    return (x_t - np.sqrt(a) * x0hat) / np.sqrt(1.0 - a)


def ddim_step(x_t: np.ndarray, x0hat: np.ndarray, t_n: int, t_next: int,
              schedule: NoiseSchedule) -> np.ndarray:
    """Deterministic DDIM update from timestep t_n to t_next < t_n."""
    if t_next >= t_n:
        raise ValueError(f"t_next must be < t_n, got {t_next} >= {t_n}")
    _check_t(t_next, schedule)  # eps_of_x0 checks t_n
    a_next = schedule.alpha_bar[t_next]
    eps = eps_of_x0(x_t, x0hat, t_n, schedule)
    return np.sqrt(a_next) * x0hat + np.sqrt(1.0 - a_next) * eps
