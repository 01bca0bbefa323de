"""Self-contained verification checks runnable from the command line.

Each check compares the library with an independent closed form (estimator
round trips, KL proportionality, gradients vs finite differences, Frechet
closed forms) and reports a measured error against a fixed threshold.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import (ControlConfig, SegmentPredictions, control_energy,
                      guidance_delta, lambda_weight, reverse_kl_check)
from .metrics import FeatureStats, frechet_distance, psd_sqrt
from .optim import energy_gradient, omega_of_latent
from .schedules import (build_cosine_schedule, eps_of_x0, forward_diffuse,
                        tweedie_x0)


@dataclass(frozen=True)
class CheckResult:
    name: str
    error: float
    threshold: float

    @property
    def passed(self) -> bool:
        return self.error <= self.threshold

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"[{status}] {self.name}: "
                f"error {self.error:.3e} (threshold {self.threshold:.1e})")


def _random_instance(rng, K: int):
    """Random (K, 16, 4) prediction stack: the unconditional prediction is a
    perturbed interior blend of the source and target."""
    shape = (K, 16, 4)
    source = rng.normal(size=shape)
    target = rng.normal(size=shape)
    levels = rng.uniform(0.2, 0.8, size=K)[:, None, None]
    uncond = ((1.0 - levels) * source + levels * target
              + 0.05 * rng.normal(size=shape))
    rng.normal(size=shape)  # unused draw: keeps the seeded instances
    return SegmentPredictions(source, target, uncond)


def check_tweedie_roundtrip() -> CheckResult:
    schedule = build_cosine_schedule(1000)
    rng = np.random.default_rng(11)
    err = 0.0
    for t in rng.integers(1, 1001, size=30):
        x0 = rng.normal(size=(16, 4))
        eps = rng.normal(size=(16, 4))
        x_t = forward_diffuse(x0, int(t), eps, schedule)
        x0_back = tweedie_x0(x_t, eps, int(t), schedule)
        eps_back = eps_of_x0(x_t, x0_back, int(t), schedule)
        err = max(err, float(np.max(np.abs(x0_back - x0))),
                  float(np.max(np.abs(eps_back - eps))))
    return CheckResult("tweedie-roundtrip", err, 1e-12)


def check_kl_proportionality() -> CheckResult:
    schedule = build_cosine_schedule(1000)
    rng = np.random.default_rng(23)
    err = 0.0
    for t in rng.integers(1, 1001, size=20):
        t = int(t)
        lam = lambda_weight(t, schedule, "posterior")
        for _ in range(20):
            x_t = rng.normal(size=(16, 4))
            mixed = rng.normal(size=(16, 4))
            uncond = rng.normal(size=(16, 4))
            delta = guidance_delta(x_t, mixed, uncond, t, schedule)
            lhs = lam * float(np.sum(delta ** 2))
            eps_a = eps_of_x0(x_t, mixed, t, schedule)
            eps_b = eps_of_x0(x_t, uncond, t, schedule)
            kl = reverse_kl_check(eps_a, eps_b, t, schedule)
            err = max(err, abs(lhs - kl) / max(abs(kl), 1e-300))
    return CheckResult("kl-proportionality", err, 1e-10)


def check_gradient_fd() -> CheckResult:
    schedule = build_cosine_schedule(1000)
    cfg = ControlConfig()
    rng = np.random.default_rng(37)
    h = 1e-6
    err = 0.0
    for K in (3, 4, 6):
        for _ in range(10):
            t = int(rng.integers(1, 1001))
            preds = _random_instance(rng, K)
            z = rng.normal(size=K - 2)
            grad = energy_gradient(z, preds, t, cfg, schedule)
            steps = h * np.eye(K - 2)  # row j moves z_j alone
            omegas = omega_of_latent(z + np.stack([steps, -steps]))
            ep, em = control_energy(preds, omegas, t, cfg, schedule).total
            fd = (ep - em) / (2.0 * h)
            err = max(err, np.max(np.abs(grad - fd)
                                  / np.maximum(np.abs(fd), 1.0)))
    return CheckResult("gradient-finite-difference", err, 1e-5)


def check_frechet_closed_form() -> CheckResult:
    rng = np.random.default_rng(71)
    err = 0.0
    # 1-D: d = (m1-m2)^2 + (s1-s2)^2 against sufficient statistics
    for _ in range(10):
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.5, 2.0, size=2)
        a = FeatureStats(np.array([m1]), np.array([[s1 ** 2]]))
        b = FeatureStats(np.array([m2]), np.array([[s2 ** 2]]))
        expect = (m1 - m2) ** 2 + (s1 - s2) ** 2
        err = max(err, abs(frechet_distance(a, b) - expect))
    # matrix square root reconstruction
    for dim in (3, 8, 20):
        m = rng.normal(size=(dim, dim))
        cov = m @ m.T + 0.1 * np.eye(dim)
        root = psd_sqrt(cov)
        rel = (np.linalg.norm(root @ root - cov, "fro")
               / np.linalg.norm(cov, "fro"))
        err = max(err, float(rel))
    # self-distance
    feats = rng.normal(size=(50, 6))
    stats = FeatureStats.from_features(feats)
    err = max(err, abs(frechet_distance(stats, stats)))
    return CheckResult("frechet-closed-form", err, 1e-8)


def run_check() -> int:
    """Run every check, print one line each, return 0 iff all pass."""
    results = [check() for check in (
        check_tweedie_roundtrip, check_kl_proportionality, check_gradient_fd,
        check_frechet_closed_form)]
    for result in results:
        print(result.line())
    failed = [r for r in results if not r.passed]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 0 if not failed else 1
