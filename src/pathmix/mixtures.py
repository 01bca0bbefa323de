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

from .errors import InvalidConfigError, NumericError
from .schedules import NoiseSchedule

VARIANCE_FLOOR = 1e-8

# The scenario's domains defaults: each condition's toy spec and the prior
# p0.  The source puts two low-frequency sinusoid cycles per segment and the
# target six, with equal variances DEFAULT_VARIANCE and distinct linear drifts
# on the root channel so root alignment is non-trivial.  Whole cycle counts
# over the half-segment overlap keep the sinusoids periodic across stitched
# boundaries, so the stitch cost acts as a smoothness penalty rather than
# favoring sign-flipped neighbors.
DOMAIN_DEFAULTS = {"c0": {"kind": "toy", "cycles": 2.0, "root_drift": 0.5},
                   "c1": {"kind": "toy", "cycles": 6.0, "root_drift": 1.5},
                   "p0": 0.5}
DEFAULT_VARIANCE = 0.05  # of a toy domain or a component entry

# Largest |mean|, |root_drift| and component weight accepted at load;
# variances up to its square.  The latent gradient Adam squares grows with
# w_T times the square of the predictions' scale: at control.w_T's bound of
# 1e100 a mean of 1e27 overflows the second moment, and at w_T = 1 one of
# about 1e71 does, so this bound leaves seven orders of magnitude.  Weights
# are normalized by their sum, which this bound keeps finite.
MAX_DOMAIN_SCALE = 1e20


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
            raise InvalidConfigError("mixture needs at least one component")
        if not abs(self.weights.sum() - 1.0) <= 1e-12:
            raise InvalidConfigError("mixture weights must sum to 1")
        if np.any(self.weights < 0):
            raise InvalidConfigError("mixture weights must be nonnegative")
        if self.means.shape != self.variances.shape or self.means.ndim != 3:
            raise InvalidConfigError("means/variances must be (M, S, C)")
        if np.any(self.variances < VARIANCE_FLOOR):
            raise InvalidConfigError(
                f"variances must be >= {VARIANCE_FLOOR}")

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
            raise InvalidConfigError("source/target shapes differ")
        if not 0.0 < self.p0 < 1.0:
            raise InvalidConfigError(
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


def _toy_mean(S: int, C: int, cycles: float, root_drift: float,
              root_channel: int) -> np.ndarray:
    """Sinusoidal channel trajectories plus a linear drift on the root channel."""
    s = np.arange(S, dtype=np.float64)
    mean = np.sin(2.0 * np.pi * cycles * s[:, None] / S
                  + np.pi * np.arange(C) / C)
    mean[:, root_channel] = root_drift * s / max(S - 1, 1)
    return mean


def _finite(spec: dict, key: str, where: str, default=None, shape=(),
            least=-np.inf, most=np.inf):
    """``spec[key]`` (or ``default``) as finite float64 in [least, most]
    broadcast to ``shape``; otherwise an InvalidConfigError names where.key."""
    value = spec.get(key, default)
    try:
        array = np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    except (TypeError, ValueError, OverflowError):  # e.g. a 400-digit int
        array = np.array(np.nan)
    if isinstance(value, (bool, str)) or not np.all(np.isfinite(array)):
        raise InvalidConfigError(
            f"{where}.{key} must be a finite number (shape {shape})")
    if np.any(array < least):
        raise InvalidConfigError(f"{where}.{key} must be >= {least}")
    if np.any(array > most):
        raise InvalidConfigError(f"{where}.{key} must be <= {most:g}")
    return array


def _known(spec: dict, keys: set, where: str):
    """An InvalidConfigError naming where.key for each key not in ``keys``."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise InvalidConfigError("unknown key(s): " + ", ".join(
            f"{where}.{key}" for key in unknown))


def _mixture_from_spec(spec: dict, S: int, C: int, root_channel: int,
                       where: str) -> GaussianMixture:
    """The mixture of one domain spec, a toy spec already merged over its
    DOMAIN_DEFAULTS entry; an InvalidConfigError names where.key."""
    if not isinstance(spec, dict):
        raise InvalidConfigError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "toy":
        _known(spec, {"kind", "cycles", "root_drift", "variance"}, where)
        mean = _toy_mean(S, C, _finite(spec, "cycles", where),
                         _finite(spec, "root_drift", where,
                                 least=-MAX_DOMAIN_SCALE,
                                 most=MAX_DOMAIN_SCALE), root_channel)
        var = _finite(spec, "variance", where, DEFAULT_VARIANCE, (),
                      VARIANCE_FLOOR, MAX_DOMAIN_SCALE ** 2)
        return GaussianMixture(np.array([1.0]), mean[None],
                               np.full((1, S, C), var))
    if kind == "components":
        _known(spec, {"kind", "components"}, where)
        comps = spec.get("components", [])
        if not (isinstance(comps, list) and comps
                and all(isinstance(c, dict) for c in comps)):
            raise InvalidConfigError(
                f"{where}.components must be a non-empty list of objects")
        parts = [(c, f"{where}.components[{i}]") for i, c in enumerate(comps)]
        for c, n in parts:
            _known(c, {"weight", "mean", "variance"}, n)
        weights = np.array([_finite(c, "weight", n, least=0,
                                    most=MAX_DOMAIN_SCALE) for c, n in parts])
        if not weights.sum() > 0:
            raise InvalidConfigError(
                f"{where} component weights must have a positive sum")
        means = np.stack([_finite(c, "mean", n, None, (S, C),
                                  least=-MAX_DOMAIN_SCALE,
                                  most=MAX_DOMAIN_SCALE) for c, n in parts])
        variances = np.stack([_finite(c, "variance", n, DEFAULT_VARIANCE,
                                      (S, C), VARIANCE_FLOOR,
                                      MAX_DOMAIN_SCALE ** 2)
                              for c, n in parts])
        return GaussianMixture(weights / weights.sum(), means, variances)
    raise InvalidConfigError(f"{where}.kind: unknown domain kind {kind!r}")


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
        raise InvalidConfigError("n must be >= 1")
    mix = model.mixture(cond)
    rng = np.random.default_rng(rng_seed)
    idx = rng.choice(len(mix.weights), size=n, p=mix.weights)
    noise = rng.standard_normal((n,) + mix.shape)
    return mix.means[idx] + np.sqrt(mix.variances[idx]) * noise
