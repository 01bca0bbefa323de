"""Closed-form conditional denoiser built on diagonal Gaussian mixtures.

Each condition (source / target) is a mixture of diagonal Gaussians over
S x C clips.  Because the forward diffusion is Gaussian, the posterior mean
E[x_0 | x_t, cond] is available in closed form, which makes this module an
exact stand-in for a trained clean-signal predictor.  The unconditional
model is the prior-weighted union of the two conditional mixtures.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NumericError, ScenarioError
from .schedules import NoiseSchedule

VARIANCE_FLOOR = 1e-8


def logsumexp(a: np.ndarray) -> np.ndarray:
    """log(sum(exp(a))) over the last axis, kept with length 1, with
    scipy.special.logsumexp's arithmetic.

    The maxima are split out of the sum, the other terms are summed as
    exp(a - max) and divided by the number of maxima m, and the result is
    log1p(s) + log(m) + max; non-finite results fall back to the direct
    formula.  Matching that order bit for bit keeps sampled outputs identical.
    """
    a_max = a.max(axis=-1, keepdims=True)
    is_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.exp(np.where(is_max, -np.inf, a) - a_max).sum(axis=-1,
                                                            keepdims=True)
        m = is_max.sum(axis=-1, keepdims=True, dtype=np.float64)
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.isfinite(out).all():
            direct = np.log(np.exp(a).sum(axis=-1, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    return out


class Condition(enum.Enum):
    SOURCE = "c0"
    TARGET = "c1"
    NULL = "null"


@dataclass(frozen=True)
class GaussianMixture:
    """Diagonal-covariance mixture over S x C clips."""

    weights: np.ndarray    # (M,)
    means: np.ndarray      # (M, S, C)
    variances: np.ndarray  # (M, S, C)

    def __post_init__(self):
        if self.weights.ndim != 1 or len(self.weights) == 0:
            raise ScenarioError("mixture needs at least one component")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise ScenarioError("mixture weights must sum to 1")
        if np.any(self.weights < 0):
            raise ScenarioError("mixture weights must be nonnegative")
        if self.means.shape != self.variances.shape or self.means.ndim != 3:
            raise ScenarioError("means/variances must be (M, S, C)")
        if np.any(self.variances < VARIANCE_FLOOR):
            raise ScenarioError(f"variances must be >= {VARIANCE_FLOOR}")

    @property
    def shape(self):
        return self.means.shape[1:]


@dataclass(frozen=True)
class ConditionModel:
    """Source/target conditional mixtures plus the source prior p0 for NULL."""

    source: GaussianMixture
    target: GaussianMixture
    p0: float = 0.5

    def __post_init__(self):
        if self.source.shape != self.target.shape:
            raise ScenarioError("source/target shapes differ")
        if not 0.0 < self.p0 < 1.0:
            raise ScenarioError(
                f"domains.p0 must lie in (0, 1), got {self.p0:g}")

    def mixture(self, cond: Condition) -> GaussianMixture:
        if cond is Condition.SOURCE:
            return self.source
        if cond is Condition.TARGET:
            return self.target
        return self.null

    @cached_property
    def null(self) -> GaussianMixture:
        """The prior-weighted union of both mixtures, the source's components
        first, built on first use."""
        p0 = self.p0
        return GaussianMixture(
            np.concatenate([p0 * self.source.weights,
                            (1.0 - p0) * self.target.weights]),
            np.concatenate([self.source.means, self.target.means]),
            np.concatenate([self.source.variances, self.target.variances]),
        )

    @cached_property
    def null_parts(self) -> tuple:
        """Where the source's, the target's and all components sit among
        ``null``'s components, each with the log of its mixture's weights;
        built on first use.  A zero weight's log is -inf, which gives its
        component a zero responsibility."""
        m0 = len(self.source.weights)
        with np.errstate(divide="ignore"):
            return tuple((part, np.log(mix.weights))
                         for part, mix in ((slice(m0), self.source),
                                           (slice(m0, None), self.target),
                                           (slice(None), self.null)))


def predict_x0(model: ConditionModel, x_t: np.ndarray, t: int,
               schedule: NoiseSchedule) -> tuple:
    """Exact posterior means E[x_0 | x_t, c] under the forward diffusion for
    c = source, target and no condition, in that order.

    Per component the posterior mean is mu + sqrt(a) v / s2 * d, with
    d = x_t - sqrt(a) mu and s2 = a v + 1 - a, combined with
    responsibilities proportional to pi_m N(x_t; sqrt(a) mu_m, s2_m)
    computed in log space.  The component terms are computed once over the
    null mixture and each condition reads its slice ``model.null_parts``;
    the means equal a pass over each condition's own mixture.  ``x_t`` may
    carry leading batch dimensions.
    """
    if t < 1:
        raise ValueError("predict_x0 requires t >= 1")
    if not np.isfinite(x_t).all():
        raise NumericError("x_t contains non-finite values")
    a, mix = schedule.alpha_bar[t], model.null
    root_a = np.sqrt(a)
    d = x_t[..., None, :, :] - root_a * mix.means
    s2 = a * mix.variances + (1.0 - a)
    post = root_a * mix.variances / s2 * d
    post += mix.means  # in place, like d: fewer pages faulted in per step
    d **= 2
    d /= s2
    d += np.log(2.0 * np.pi * s2)
    log_n = -0.5 * d.sum(axis=(-2, -1))
    means = []
    for part, log_weights in model.null_parts:
        if len(log_weights) == 1 and np.isfinite(log_n).all():
            # exact: x - logsumexp([x]) is 0, and sum([1.0 * p]) is p + 0.0
            means.append(post[..., part, :, :][..., 0, :, :] + 0.0)
            continue
        log_r = log_weights + log_n[..., part]
        resp = np.exp(log_r - logsumexp(log_r))
        means.append((resp[..., None, None] * post[..., part, :, :])
                     .sum(axis=-3))
    return tuple(means)


def sample_clips(model: ConditionModel, cond: Condition, n: int,
                 rng_seed: int) -> np.ndarray:
    """n exact draws from the conditional mixture, shape (n, S, C)."""
    if n < 1:
        raise ScenarioError("n must be >= 1")
    mix = model.mixture(cond)
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(len(mix.weights), size=n, p=mix.weights)
    noise = rng.standard_normal((n,) + mix.shape)
    return mix.means[idx] + np.sqrt(mix.variances[idx]) * noise
