"""Inner-loop optimization of the segment mixing vector at one denoising step.

Interior mixing values are reparameterized through a sigmoid of a latent
z in R^(K-2); the boundary values stay pinned at 0 and 1.  Because the
control energy is exactly quadratic in omega for fixed predictions, the
objective is represented once per step by its quadratic coefficients; the
Adam loop runs on that representation, and ``energy_gradient`` is its latent
gradient, the one Adam is fed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .control import (ControlConfig, EnergyBreakdown, SegmentPredictions,
                      stitch_cost, stitch_cost_aligned_gradient,
                      transient_coefficients)
from .errors import NumericError, ScenarioError
from .schedules import NoiseSchedule
from .segments import align_root


ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class OptimizerConfig:
    J: int = 20            # Adam steps per denoising step
    lr: float = 0.01
    warm_start: bool = True

    def __post_init__(self):
        if not np.isfinite(self.lr):
            raise ScenarioError("optimizer.lr must be finite")
        if self.J < 0:
            raise ScenarioError(f"optimizer.J must be >= 0, got {self.J}")
        if self.lr <= 0:
            raise ScenarioError("optimizer.lr must be > 0")


@dataclass(frozen=True)
class MixingSchedule:
    """Optimized mixing state: latent z, omega and energy of the best
    iterate, whose index is ``best``; ``scores`` holds the (omega,
    per-segment transient, transient, terminal) arrays of all iterates."""

    z: np.ndarray
    omega: np.ndarray
    energy: EnergyBreakdown
    best: int
    scores: tuple

    @cached_property
    def step_trace(self) -> list:
        """[(omega, EnergyBreakdown)], one per iterate, built on first use."""
        return [(omega, self.energy if j == self.best
                 else _energy_of(self.scores, j))
                for j, omega in enumerate(self.scores[0])]


def _energy_of(scores: tuple, j: int) -> EnergyBreakdown:
    """The energy of iterate ``j``; it owns its row, so that keeping it does
    not pin the scores of all iterates."""
    _, per_seg, transient, terminal = scores
    return EnergyBreakdown(float(transient[j]), terminal[j],
                           transient[j] + terminal[j], per_seg[j].copy())


def sigmoid(z: np.ndarray) -> np.ndarray:
    """Overflow-safe logistic function: 1 / (1 + e^-z) for z >= 0 and
    e^z / (1 + e^z) below, both from e = exp(-|z|) <= 1."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def pinned(u: np.ndarray) -> np.ndarray:
    """The mixing vectors [0, u..., 1] of interior values ``u`` (..., K-2)."""
    edge = np.zeros(u.shape[:-1] + (1,))
    return np.concatenate([edge, u, edge + 1.0], axis=-1)


@lru_cache(maxsize=8)
def _interior_basis(K: int) -> np.ndarray:
    """Read-only (K-1, K, 1, 1) mask of the ones of the mixing vectors with
    interior omega 0 (row 0) and each interior unit vector; built per K."""
    basis = (pinned(np.eye(K - 1, K - 2, -1)) == 1.0)[..., None, None]
    basis.flags.writeable = False
    return basis


def omega_of_latent(z: np.ndarray) -> np.ndarray:
    return pinned(sigmoid(z))


class _QuadraticEnergy:
    """Exact quadratic model of the per-step control energy over interior omega.

    Built from the analytic per-segment transient coefficients and from
    terminal-gradient evaluations at the interior basis points, batched into
    one call (exact because the terminal cost is quadratic in omega).
    """

    def __init__(self, preds: SegmentPredictions, t: int,
                 control_config: ControlConfig, schedule: NoiseSchedule,
                 root_channel: int = 0):
        self.K = K = preds.num_segments
        self.w_T = control_config.w_T
        self.q2, self.q1, self.q0 = transient_coefficients(
            preds, t, control_config, schedule)
        # preds.mixed(basis) up to zeros' signs, which the model's sums drop
        basis = np.where(_interior_basis(K), preds.target, preds.source)
        aligned = align_root(basis, root_channel)
        self.phi_const = stitch_cost(aligned[0])
        grads = stitch_cost_aligned_gradient(
            aligned, preds.directions, root_channel)[:, 1:K - 1]
        self.phi_grad0 = grads[0]
        # C order: the summation order of phi_hess @ u depends on the layout
        self.phi_hess = np.ascontiguousarray((grads[1:] - grads[0]).T)

    def score(self, u: np.ndarray) -> tuple:
        """(omega, per-segment transient, transient, terminal) of interior
        rows ``u`` (J, K-2), one row or entry per row of ``u``."""
        omega = pinned(u)
        per_seg = self.q2 * omega ** 2 + self.q1 * omega + self.q0
        # per-row matmul rounds as the 1-D dot does; U @ phi_grad0 does not
        terminal = self.w_T * (
            self.phi_const + (self.phi_grad0 @ u[:, :, None])[:, 0]
            + (0.5 * u[:, None, :] @ (self.phi_hess @ u[:, :, None]))[:, 0, 0])
        return omega, per_seg, per_seg.sum(axis=-1), terminal

    def grad_interior(self, u: np.ndarray) -> np.ndarray:
        g = 2.0 * self.q2[1:self.K - 1] * u + self.q1[1:self.K - 1]
        return g + self.w_T * (self.phi_grad0 + self.phi_hess @ u)

    def grad_latent(self, u: np.ndarray) -> np.ndarray:
        """Gradient with respect to the latent z of ``u = sigmoid(z)``."""
        return self.grad_interior(u) * (u * (1.0 - u))


def energy_gradient(z: np.ndarray, preds: SegmentPredictions, t: int,
                    control_config: ControlConfig, schedule: NoiseSchedule,
                    root_channel: int = 0) -> np.ndarray:
    """Exact gradient of the control energy with respect to the latent z.

    The gradient ``optimize_mixing`` feeds to Adam, from the quadratic model;
    matches central finite differences of ``control_energy`` to O(h^2).
    """
    K = preds.num_segments
    if z.shape != (K - 2,):
        raise ValueError(f"latent must have length {K - 2}")
    quad = _QuadraticEnergy(preds, t, control_config, schedule, root_channel)
    grad = quad.grad_latent(sigmoid(z))
    if not np.isfinite(grad).all():
        raise NumericError(f"non-finite gradient at t={t}")
    return grad


def optimize_mixing(preds: SegmentPredictions, t: int,
                    opt_config: OptimizerConfig,
                    control_config: ControlConfig, schedule: NoiseSchedule,
                    root_channel: int = 0,
                    z_init: np.ndarray | None = None) -> MixingSchedule:
    """Run J Adam steps on the latent and return the best iterate seen.

    Adam reads only the gradient; afterwards all J+1 iterates are scored at
    once.  The returned iterate is the first of lowest energy, so its energy
    never exceeds the initialization's.

    The loop runs ``sigmoid``, ``grad_latent`` and a bias-corrected Adam
    step element by element on Python floats, in the array forms' order of
    arithmetic; only ``exp`` and the gemv ``phi_hess @ u``, whose rounding
    numpy and BLAS set, stay in numpy, so the iterates are those of the array
    functions bit for bit (the tests keep the array Adam step as an oracle).
    """
    K = preds.num_segments
    z = np.zeros(K - 2) if z_init is None else np.asarray(z_init, dtype=np.float64)
    if z.shape != (K - 2,):
        raise ValueError(f"latent must have length {K - 2}")
    quad = _QuadraticEnergy(preds, t, control_config, schedule, root_channel)
    b1, b2, lr = ADAM_BETA1, ADAM_BETA2, opt_config.lr
    q2x2 = (2.0 * quad.q2[1:K - 1]).tolist()
    q1, g0 = quad.q1[1:K - 1].tolist(), quad.phi_grad0.tolist()
    w_T, hess = quad.w_T, quad.phi_hess
    zs = z.tolist()
    rows = [zs.copy()]
    m = [0.0] * (K - 2)
    v = [0.0] * (K - 2)
    for count in range(1, opt_config.J + 1):
        es = np.exp([-abs(zi) for zi in zs]).tolist()
        us = [(1.0 if zi >= 0 else e) / (1.0 + e) for zi, e in zip(zs, es)]
        hu = hess.dot(us).tolist()
        c1, c2 = 1.0 - b1 ** count, 1.0 - b2 ** count
        for i, u in enumerate(us):
            g = (q2x2[i] * u + q1[i] + w_T * (g0[i] + hu[i])) * (u * (1.0 - u))
            m[i] = b1 * m[i] + (1.0 - b1) * g
            v[i] = b2 * v[i] + (1.0 - b2) * (g * g)
            zs[i] -= (lr * (m[i] / c1)) / (math.sqrt(v[i] / c2) + ADAM_EPS)
        rows.append(zs.copy())
    latents = np.array(rows)
    scores = quad.score(sigmoid(latents))
    totals = scores[2] + scores[3]
    if not np.isfinite(totals).all():
        j = int(np.argmin(np.isfinite(totals)))
        raise NumericError(f"non-finite energy at t={t}, inner step {j}")
    if not all(map(math.isfinite, v)):  # every later Adam step was zero
        raise NumericError(f"Adam second moment overflowed at t={t}")
    best = int(totals.argmin())
    return MixingSchedule(latents[best].copy(), scores[0][best],
                          _energy_of(scores, best), best, scores)


def closed_form_oracle(preds: SegmentPredictions, t: int,
                       control_config: ControlConfig, schedule: NoiseSchedule,
                       root_channel: int = 0) -> np.ndarray:
    """Unconstrained stationary point of the quadratic energy over interior omega.

    Solves grad = 0 directly; the result ignores the (0, 1) box and is only
    meaningful when it lands inside it.  Raises NumericError on a singular or
    badly conditioned system.
    """
    K = preds.num_segments
    if K < 3:
        raise ScenarioError("oracle needs K >= 3 (an interior segment)")
    quad = _QuadraticEnergy(preds, t, control_config, schedule, root_channel)
    hess = np.diag(2.0 * quad.q2[1:K - 1]) + quad.w_T * quad.phi_hess
    rhs = -(quad.q1[1:K - 1] + quad.w_T * quad.phi_grad0)
    if np.linalg.cond(hess) > 1e12:
        raise NumericError("singular interior system; oracle unavailable")
    return pinned(np.linalg.solve(hess, rhs))
