"""Reference definitions the tests compare the library against.

None of these is on a path the CLI, the demos or ``pathmix check`` take, so
they live with the tests rather than in the package:

- ``AdamState`` and ``adam_update``: the array form of the Python-float Adam
  loop in ``pathmix.optim.optimize_mixing``.
- ``mix_predictions``: the per-segment mix that ``SegmentPredictions.mixed``
  applies to whole stacks.
- ``conditional_ddim_sample``: a plain, unsegmented DDIM loop under one
  condition, to check the denoiser against the analytic data distribution.
- ``loop_log_density``, ``marginal_log_density`` and
  ``domain_log_likelihood``: exact log-densities, each from its own
  likelihood pass over one condition's mixture.
- ``clip_kinetic_features`` and ``clip_geometric_features``: the feature
  extractors of ``pathmix.metrics`` for one ``(S, C)`` clip, the channel
  pairs taken one at a time.
- ``affine_run``: a whole segmented, mixed, stitched run with given mixing
  vectors, in closed form per element, when each domain is one Gaussian.

They import no private name of ``pathmix`` (``tests/test_source.py`` checks
this), so that each checks the library rather than sharing its code.
"""

from dataclasses import dataclass

import numpy as np

from pathmix import (Condition, ConditionModel, InvalidConfigError,
                     NoiseSchedule, OptimizerConfig, TimestepPlan, ddim_step,
                     predict_x0, scenario_from_dict)
from pathmix.mixtures import logsumexp
from pathmix.optim import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

# the conditions of predict_x0's means, in order
ORDER = (Condition.SOURCE, Condition.TARGET, Condition.NULL)


@dataclass(frozen=True)
class AdamState:
    z: np.ndarray
    m: np.ndarray
    v: np.ndarray
    count: int

    @classmethod
    def fresh(cls, z: np.ndarray) -> "AdamState":
        return cls(z.copy(), np.zeros_like(z), np.zeros_like(z), 0)


def adam_update(state: AdamState, grad: np.ndarray,
                config: OptimizerConfig) -> AdamState:
    """One bias-corrected Adam step on the latent held in ``state``."""
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    count = state.count + 1
    m = b1 * state.m + (1.0 - b1) * grad
    v = b2 * state.v + (1.0 - b2) * grad ** 2
    m_hat = m / (1.0 - b1 ** count)
    v_hat = v / (1.0 - b2 ** count)
    z = state.z - config.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return AdamState(z, m, v, count)


def mix_predictions(pred_c0: np.ndarray, pred_c1: np.ndarray,
                    omega: float) -> np.ndarray:
    """(1 - omega) * pred_c0 + omega * pred_c1."""
    return (1.0 - omega) * pred_c0 + omega * pred_c1


def conditional_ddim_sample(model: ConditionModel, cond: Condition,
                            schedule: NoiseSchedule, plan: TimestepPlan,
                            n: int, seed: int) -> np.ndarray:
    """Plain (unsegmented) DDIM sampling under one fixed condition.

    Returns n clean clips of shape (n, S, C).
    """
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n,) + model.source.shape)
    for i in range(plan.num_steps):
        t, t_next = int(plan.steps[i]), int(plan.steps[i + 1])
        x0hat = predict_x0(model, x, t, schedule)[ORDER.index(cond)]
        x = ddim_step(x, x0hat, t, t_next, schedule)
    return x


def loop_log_density(model: ConditionModel, x: np.ndarray, a: float,
                     cond: Condition) -> np.ndarray:
    """One condition's log-density of x diffused to alpha_bar a, with its own
    likelihood pass."""
    mix = model.mixture(cond)
    s2 = a * mix.variances + (1.0 - a)
    ll = np.log(mix.weights) - 0.5 * np.sum(
        (x[..., None, :, :] - np.sqrt(a) * mix.means) ** 2 / s2
        + np.log(2.0 * np.pi * s2), axis=(-2, -1))
    return logsumexp(ll)[..., 0]


def marginal_log_density(model: ConditionModel, x_t: np.ndarray, t: int,
                         cond: Condition, schedule: NoiseSchedule) -> np.ndarray:
    """Exact log-density of x_t under the noisy marginal at timestep t."""
    return loop_log_density(model, x_t, schedule.alpha_bar[t], cond)


def domain_log_likelihood(model: ConditionModel, clip: np.ndarray,
                          cond: Condition) -> float:
    """Exact mixture log-density of a clean clip under a condition."""
    return float(loop_log_density(model, clip, 1.0, cond))


def clip_kinetic_features(clip: np.ndarray) -> np.ndarray:
    """Per-channel RMS first and second finite differences, length 2C."""
    if len(clip) < 3:
        raise InvalidConfigError("kinetic features need at least 3 frames")
    vel = np.diff(clip, axis=0)
    acc = np.diff(clip, n=2, axis=0)
    rms = lambda d: np.sqrt(np.mean(d ** 2, axis=0))
    return np.concatenate([rms(vel), rms(acc)])


def clip_geometric_features(clip: np.ndarray) -> np.ndarray:
    """Per-channel temporal means plus mean absolute pairwise channel
    differences, length C + C(C-1)/2."""
    C = clip.shape[1]
    if C < 2:
        raise InvalidConfigError("geometric features need at least 2 channels")
    means = clip.mean(axis=0)
    pair = [np.mean(np.abs(clip[:, i] - clip[:, j]))
            for i in range(C) for j in range(i + 1, C)]
    return np.concatenate([means, np.array(pair)])


@dataclass(frozen=True)
class AffineRun:
    """Each final element of a run as ``gain * noise.flat[source] + offset``:
    ``offset`` is its exact mean over the initial noise and ``gain ** 2`` its
    variance."""

    gain: np.ndarray    # (K, S, C)
    offset: np.ndarray  # (K, S, C)
    source: np.ndarray  # (K, S, C) flat indices into noise
    noise: np.ndarray   # (K, S, C) initial noise of the run's seed

    @property
    def final(self) -> np.ndarray:
        return self.gain * self.noise.ravel()[self.source] + self.offset


def affine_run(scenario_raw: dict, omega_grid: np.ndarray,
               seed: int) -> AffineRun:
    """A run of the scenario ``scenario_raw`` with the mixing vector
    ``omega_grid[n]`` at step n, in closed form.

    When each domain is one diagonal Gaussian N(mu, v), its posterior mean
    is elementwise affine in x_t, mu + g (x_t - sqrt(a) mu) with
    g = sqrt(a) v / (a v + 1 - a); so is their mix under a fixed omega, and
    so is the DDIM step.  The hard stitch projection copies elements.  So
    each element stays an affine function of one initial noise element,
    which segment k draws from SeedSequence(seed, spawn_key=(k,)).  This
    checks the sampling loop given omega, not the choice of omega.
    """
    scenario = scenario_from_dict(scenario_raw)
    model, schedule, plan = scenario.model, scenario.schedule, scenario.plan
    K, S, C = scenario.layout.K, scenario.layout.S, scenario.layout.C
    domains = (model.source, model.target)
    if any(len(mix.weights) != 1 for mix in domains):
        raise ValueError("the affine oracle needs one-Gaussian domains")
    noise = np.stack([np.random.default_rng(np.random.SeedSequence(
        seed, spawn_key=(k,))).standard_normal((S, C)) for k in range(K)])
    gain, offset = np.ones((K, S, C)), np.zeros((K, S, C))
    source = np.arange(K * S * C).reshape(K, S, C)
    half = S // 2
    for n, omega in enumerate(omega_grid):
        a = schedule.alpha_bar[plan.steps[n]]
        a_next = schedule.alpha_bar[plan.steps[n + 1]]
        # x0hat = slope * x_t + level per condition, then mixed per segment
        slope, level = [], []
        for mix in domains:
            mu, v = mix.means[0], mix.variances[0]
            g = np.sqrt(a) * v / (a * v + 1.0 - a)
            slope.append(g)
            level.append(mu - g * np.sqrt(a) * mu)
        w = omega[:, None, None]
        slope = (1.0 - w) * slope[0] + w * slope[1]
        level = (1.0 - w) * level[0] + w * level[1]
        # x_next = sqrt(a_next) x0hat + c (x_t - sqrt(a) x0hat)
        c = np.sqrt(1.0 - a_next) / np.sqrt(1.0 - a)
        step_gain = np.sqrt(a_next) * slope + c * (1.0 - np.sqrt(a) * slope)
        step_offset = (np.sqrt(a_next) - c * np.sqrt(a)) * level
        gain, offset = step_gain * gain, step_gain * offset + step_offset
        for array in (gain, offset, source):  # hard stitch projection
            array[1:, :half] = array[:-1, half:]
    return AffineRun(gain, offset, source, noise)
