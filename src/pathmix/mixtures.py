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

# the scenario's domains defaults: each condition's toy spec and the prior p0
DOMAIN_DEFAULTS = {"c0": {"kind": "toy", "cycles": 2.0, "root_drift": 0.5},
                   "c1": {"kind": "toy", "cycles": 6.0, "root_drift": 1.5},
                   "p0": 0.5}
DEFAULT_VARIANCE = 0.05  # of a toy domain or a component entry


def logsumexp(a: np.ndarray, axis: int = -1, keepdims: bool = False):
    """log(sum(exp(a))) along ``axis`` with scipy.special.logsumexp's arithmetic.

    The maxima are split out of the sum, the other terms are summed as
    exp(a - max) and divided by the number of maxima m, and the result is
    log1p(s) + log(m) + max; non-finite results fall back to the direct
    formula.  Matching that order bit for bit keeps sampled outputs identical.
    """
    a_max = np.max(a, axis=axis, keepdims=True)
    is_max = a == a_max
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.sum(np.exp(np.where(is_max, -np.inf, a) - a_max), axis=axis,
                   keepdims=True)
        m = np.sum(is_max, axis=axis, keepdims=True, dtype=np.float64)
        out = np.log1p(s / m) + np.log(m) + a_max
        if not np.all(np.isfinite(out)):
            direct = np.log(np.sum(np.exp(a), axis=axis, keepdims=True))
            out = np.where(np.isfinite(out), out, direct)
    return out if keepdims else out.squeeze(axis)[()]


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
    source_prior: float = 0.5

    def __post_init__(self):
        if self.source.shape != self.target.shape:
            raise InvalidConfigError("source/target shapes differ")
        if not 0.0 < self.source_prior < 1.0:
            raise InvalidConfigError(
                "domains.p0: source_prior must lie in (0, 1)")

    @property
    def shape(self):
        return self.source.shape

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
        p0 = self.source_prior
        return GaussianMixture(
            np.concatenate([p0 * self.source.weights,
                            (1.0 - p0) * self.target.weights]),
            np.concatenate([self.source.means, self.target.means]),
            np.concatenate([self.source.variances, self.target.variances]),
        )

    def null_slice(self, cond: Condition) -> slice:
        """Where ``cond``'s components sit among ``null``'s components."""
        m0 = len(self.source.weights)
        return {Condition.SOURCE: slice(m0), Condition.TARGET: slice(m0, None),
                Condition.NULL: slice(None)}[cond]


def _toy_mean(S: int, C: int, cycles: float, root_drift: float,
              root_channel: int = 0) -> np.ndarray:
    """Sinusoidal channel trajectories plus a linear drift on the root channel."""
    s = np.arange(S, dtype=np.float64)
    mean = np.empty((S, C))
    for c in range(C):
        mean[:, c] = np.sin(2.0 * np.pi * cycles * s / S + np.pi * c / C)
    mean[:, root_channel] = root_drift * s / max(S - 1, 1)
    return mean


def _finite(spec: dict, key: str, where: str, default=None, shape=(),
            least=-np.inf):
    """``spec[key]`` (or ``default``) as finite float64 >= ``least``
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
    return array


def _known(spec: dict, keys: set, where: str):
    """An InvalidConfigError naming where.key for each key not in ``keys``."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise InvalidConfigError("unknown key(s): " + ", ".join(
            f"{where}.{key}" for key in unknown))


def _mixture_from_spec(spec: dict, defaults: dict, S: int, C: int,
                       where: str) -> GaussianMixture:
    if not isinstance(spec, dict):
        raise InvalidConfigError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind", "toy")
    if kind == "toy":
        spec = {**defaults, **spec}
        _known(spec, {"kind", "cycles", "root_drift", "variance"}, where)
        mean = _toy_mean(S, C, _finite(spec, "cycles", where),
                         _finite(spec, "root_drift", where))
        var = _finite(spec, "variance", where, DEFAULT_VARIANCE, (),
                      VARIANCE_FLOOR)
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
        weights = np.array([_finite(c, "weight", n) for c, n in parts])
        if np.any(weights < 0) or not weights.sum() > 0:
            raise InvalidConfigError(
                f"{where} component weights must be >= 0 with a positive sum")
        means = np.stack([_finite(c, "mean", n, None, (S, C)) for c, n in parts])
        variances = np.stack([_finite(c, "variance", n, DEFAULT_VARIANCE,
                                      (S, C), VARIANCE_FLOOR) for c, n in parts])
        return GaussianMixture(weights / weights.sum(), means, variances)
    raise InvalidConfigError(f"{where}.kind: unknown domain kind {kind!r}")


def make_condition_model(spec: dict) -> ConditionModel:
    """Build a ConditionModel from a scenario's domains section plus S, C.

    Keys: S, C, c0, c1 (domain specs), p0, each defaulting to its
    DOMAIN_DEFAULTS entry; a toy spec's missing keys take its own domain's.
    The default toy domains put two low-frequency sinusoid cycles per
    segment in the source and six in the target, equal variances 0.05, and
    distinct linear drifts on the root channel so root alignment is
    non-trivial.  Whole cycle counts over the half-segment overlap keep the
    sinusoids periodic across stitched boundaries, so the stitch cost acts
    as a smoothness penalty rather than favoring sign-flipped neighbors.
    """
    S, C = int(spec["S"]), int(spec["C"])
    if S < 1 or C < 1:
        raise InvalidConfigError("S and C must be positive")
    source, target = (_mixture_from_spec(spec.get(name, {}),
                                         DOMAIN_DEFAULTS[name], S, C,
                                         f"domains.{name}")
                      for name in ("c0", "c1"))
    return ConditionModel(source, target,
                          float(spec.get("p0", DOMAIN_DEFAULTS["p0"])))


def _component_terms(model: ConditionModel, x_t: np.ndarray,
                     alpha_bar_t: float, conds: tuple):
    """Per condition c in ``conds``: log[pi_m N(x_t; sqrt(a) mu_m, s2)] and
    the posterior mean mu_m + sqrt(a) v_m / s2 * d of each of its
    components, with d = x_t - sqrt(a) mu_m and s2 = a v_m + 1 - a.

    The terms are computed once over the null mixture and c reads its slice
    ``model.null_slice(c)``; they equal a pass over c's own mixture.
    ``x_t`` may carry leading batch dimensions: the log-likelihoods have
    shape batch + (M,) and the posterior means batch + (M, S, C).
    """
    a, mix = alpha_bar_t, model.null
    d = x_t[..., None, :, :] - np.sqrt(a) * mix.means
    s2 = a * mix.variances + (1.0 - a)
    log_n = -0.5 * np.sum(d ** 2 / s2 + np.log(2.0 * np.pi * s2),
                          axis=(-2, -1))
    post = mix.means + np.sqrt(a) * mix.variances / s2 * d
    for c in conds:
        part = model.null_slice(c)
        yield (np.log(model.mixture(c).weights) + log_n[..., part],
               post[..., part, :, :])


def marginal_log_density(model: ConditionModel, x_t: np.ndarray, t: int,
                         cond: Condition, schedule: NoiseSchedule) -> np.ndarray:
    """Exact log-density of x_t under the noisy marginal at timestep t."""
    ll, _ = next(_component_terms(model, x_t, schedule.alpha_bar[t], (cond,)))
    return logsumexp(ll, axis=-1)


def predict_x0(model: ConditionModel, x_t: np.ndarray, t: int,
               cond: Condition | tuple, schedule: NoiseSchedule):
    """Exact posterior mean E[x_0 | x_t, cond] under the forward diffusion.

    Per component the posterior mean is
    mu + sqrt(a) v / (a v + 1 - a) * (x_t - sqrt(a) mu), combined with
    responsibilities proportional to pi_m N(x_t; sqrt(a) mu_m, a v_m + 1 - a)
    computed in log space.  Supports leading batch dimensions on ``x_t``.

    ``cond`` may be a tuple of conditions, for which a tuple of means is
    returned from one pass over the null mixture's components; the values
    equal separate calls.
    """
    if t < 1:
        raise ValueError("predict_x0 requires t >= 1")
    if not np.all(np.isfinite(x_t)):
        raise NumericError("x_t contains non-finite values")
    conds = cond if isinstance(cond, tuple) else (cond,)
    means = []
    for log_r, post in _component_terms(model, x_t, schedule.alpha_bar[t],
                                        conds):
        resp = np.exp(log_r - logsumexp(log_r, axis=-1, keepdims=True))
        means.append(np.sum(resp[..., None, None] * post, axis=-3))
    return tuple(means) if isinstance(cond, tuple) else means[0]


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


def domain_log_likelihood(model: ConditionModel, clip: np.ndarray,
                          cond: Condition) -> float:
    """Exact mixture log-density of a clean clip under a condition."""
    ll, _ = next(_component_terms(model, clip, 1.0, (cond,)))
    return float(logsumexp(ll, axis=-1))
