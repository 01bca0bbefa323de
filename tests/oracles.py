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

They import no private name of ``pathmix`` (``tests/test_source.py`` checks
this), so that each checks the library rather than sharing its code.
"""

from dataclasses import dataclass

import numpy as np

from pathmix import (Condition, ConditionModel, InvalidConfigError,
                     NoiseSchedule, OptimizerConfig, TimestepPlan, ddim_step,
                     predict_x0)
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
    return logsumexp(ll, axis=-1)


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
