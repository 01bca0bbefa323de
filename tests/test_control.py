import numpy as np
import pytest

from models import random_preds
from oracles import mix_predictions
from pathmix import (ControlConfig, ScenarioError, SegmentPredictions,
                     control_energy, eps_of_x0, guidance_delta,
                     heuristic_omega, lambda_weight, reverse_kl_check,
                     stitch_cost)
from pathmix.control import transient_coefficients
from pathmix.optim import _QuadraticEnergy
from pathmix.segments import align_root


def pinned_omega(interior):
    return np.concatenate([[0.0], np.atleast_1d(interior), [1.0]])


def two_segments(a, b):
    """Predictions of two segments, each with source ``a`` and target ``b``."""
    return SegmentPredictions(np.stack([a, a]), np.stack([b, b]),
                              np.stack([a, a]))


class TestMixPredictions:
    def test_endpoints(self, rng):
        # SegmentPredictions.mixed gives source and target exactly at 0 and 1
        a, b = rng.normal(size=(2, 16, 4))
        preds = two_segments(a, b)
        np.testing.assert_array_equal(preds.mixed(np.array([0.0, 1.0])),
                                      np.stack([a, b]))
        np.testing.assert_array_equal(preds.mixed(np.array([1.0, 0.0])),
                                      np.stack([b, a]))

    def test_midpoint(self, rng):
        a, b = rng.normal(size=(2, 16, 4))
        np.testing.assert_allclose(two_segments(a, b).mixed(np.full(2, 0.5)),
                                   np.stack([(a + b) / 2] * 2))

    @pytest.mark.parametrize("shapes,error", [
        (((2, 16, 4), (2, 16, 4), (3, 16, 4)), ValueError),
        (((16, 4),) * 3, ValueError),
        (((2, 15, 4),) * 3, ScenarioError)],
        ids=["shapes-differ", "no-segment-axis", "odd-length"])
    def test_bad_stacks_rejected(self, shapes, error):
        with pytest.raises(error):
            SegmentPredictions(*(np.zeros(shape) for shape in shapes))


class TestGuidanceDelta:
    def test_zero_when_predictions_agree(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        p = rng.normal(size=(16, 4))
        np.testing.assert_array_equal(
            guidance_delta(x_t, p, p, 500, schedule), 0.0)

    def test_scale_identity(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        uncond = rng.normal(size=(16, 4))
        d = rng.normal(size=(16, 4))
        t = 321
        a = schedule.alpha_bar[t]
        out = guidance_delta(x_t, uncond - d, uncond, t, schedule)
        np.testing.assert_allclose(out, np.sqrt(a) / np.sqrt(1 - a) * d,
                                   atol=1e-12)

    def test_affine_in_omega(self, schedule, rng):
        x_t, uncond, p0, p1 = rng.normal(size=(4, 16, 4))
        w = 0.37
        mixed = mix_predictions(p0, p1, w)
        lhs = guidance_delta(x_t, mixed, uncond, 600, schedule)
        rhs = ((1 - w) * guidance_delta(x_t, p0, uncond, 600, schedule)
               + w * guidance_delta(x_t, p1, uncond, 600, schedule))
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_t_zero_rejected(self, schedule, rng):
        x = rng.normal(size=(4, 2))
        with pytest.raises(ValueError, match="t=0"):
            guidance_delta(x, x, x, 0, schedule)


class TestLambdaWeight:
    def test_unit_mode(self, schedule):
        assert lambda_weight(123, schedule, "unit") == 1.0

    def test_positive_everywhere(self, schedule):
        for t in (1, 10, 500, 999, 1000):
            assert lambda_weight(t, schedule, "posterior") > 0.0

    def test_matches_gaussian_kl(self, schedule, rng):
        # the posterior weight turns ||delta_eps||^2 into the exact reverse KL
        for t in rng.integers(1, 1001, size=20):
            t = int(t)
            rng.normal(size=(16, 4))  # unused draw: keeps the seeded instances
            eps_a, eps_b = rng.normal(size=(2, 16, 4))
            kl = reverse_kl_check(eps_a, eps_b, t, schedule)
            lam = lambda_weight(t, schedule, "posterior")
            approx = lam * np.sum((eps_a - eps_b) ** 2)
            assert abs(approx - kl) / abs(kl) <= 1e-10

    def test_unknown_mode_rejected(self, schedule):
        with pytest.raises(ScenarioError):
            lambda_weight(5, schedule, "bogus")

    @pytest.mark.parametrize("mode", ["posterior", "unit"])
    def test_t_zero_rejected(self, schedule, mode):
        with pytest.raises(ValueError, match="t=0"):
            lambda_weight(0, schedule, mode)


class TestReverseKlCheck:
    def test_t_zero_rejected(self, schedule, rng):
        e = rng.normal(size=(16, 4))
        with pytest.raises(ValueError, match="t=0"):
            reverse_kl_check(e, e, 0, schedule)

    def test_t_one_is_infinitely_far(self, schedule, rng):
        # posterior_var[1] is 0: the reverse transitions are point masses
        eps_a, eps_b = rng.normal(size=(2, 16, 4))
        with np.errstate(divide="ignore"):
            assert reverse_kl_check(eps_a, eps_b, 1, schedule) == np.inf

    def test_zero_for_equal_predictions(self, schedule, rng):
        rng.normal(size=(16, 4))  # unused draw: keeps the seeded instances
        e = rng.normal(size=(16, 4))
        for t in (1, 100):  # at t = 1 the shared variance is 0
            assert reverse_kl_check(e, e, t, schedule) == 0.0

    def test_quadratic_scaling(self, schedule, rng):
        rng.normal(size=(16, 4))  # unused draw: keeps the seeded instances
        e = rng.normal(size=(16, 4))
        base = reverse_kl_check(e, np.zeros_like(e), 100, schedule)
        doubled = reverse_kl_check(2 * e, np.zeros_like(e), 100, schedule)
        assert abs(doubled - 4 * base) / base < 1e-12


class TestStitchCost:
    def test_consistent_segments_cost_zero(self, rng):
        x = rng.normal(size=(4, 16, 4))
        for k in range(3):
            x[k + 1, :8] = x[k, 8:]
        assert stitch_cost(x) == 0.0

    def test_constant_offset(self):
        x = np.zeros((2, 16, 4))
        x[1, :8] = 0.3
        assert abs(stitch_cost(x) - 8 * 4 * 0.3 ** 2) < 1e-12

    def test_only_overlaps_matter(self, rng):
        x = rng.normal(size=(3, 16, 4))
        base = stitch_cost(x)
        y = x.copy()
        y[0, :8] = rng.normal(size=(8, 4))      # first segment head
        y[2, 8:] = rng.normal(size=(8, 4))      # last segment tail
        assert stitch_cost(y) == base

    def test_single_segment_returns_zero(self, rng):
        assert stitch_cost(rng.normal(size=(1, 16, 4))) == 0.0

    def test_odd_length_rejected(self, rng):
        with pytest.raises(ScenarioError):
            stitch_cost(rng.normal(size=(3, 15, 4)))


class TestHeuristicOmega:
    def test_linear(self):
        np.testing.assert_allclose(heuristic_omega("linear", 5, 10.0),
                                   [0, 0.25, 0.5, 0.75, 1])

    def test_sine_midpoint(self):
        np.testing.assert_allclose(heuristic_omega("sine", 3, 10.0),
                                   [0, 0.5, 1], atol=1e-15)

    def test_sigmoid_endpoints_exact(self):
        omega = heuristic_omega("sigmoid", 6, 10.0)
        assert omega[0] == 0.0 and omega[-1] == 1.0

    def test_sigmoid_is_the_rescaled_logistic(self):
        # the normalized logistic, where that form neither cancels nor
        # overflows; the two differ by at most 6.6e-15 (K 3-64, s 0.1-100)
        for K in (3, 4, 7, 16, 34, 64):
            u = np.arange(K) / (K - 1)
            for s in (0.1, 0.11288, 1.0, 10.0, 100.0):
                raw = 1.0 / (1.0 + np.exp(-s * (u - 0.5)))
                np.testing.assert_allclose(
                    heuristic_omega("sigmoid", K, s),
                    (raw - raw[0]) / (raw[-1] - raw[0]), rtol=0, atol=1e-14)

    def test_sigmoid_limits(self):
        # linear as the sharpness vanishes, a step as it grows without bound
        np.testing.assert_allclose(heuristic_omega("sigmoid", 5, 1e-300),
                                   [0, 0.25, 0.5, 0.75, 1], rtol=0,
                                   atol=1e-15)
        np.testing.assert_array_equal(heuristic_omega("sigmoid", 5, 1e300),
                                      [0, 0, 0.5, 1, 1])

    def test_all_monotone(self):
        for kind in ("linear", "sigmoid", "sine"):
            omega = heuristic_omega(kind, 7, 10.0)
            assert np.all(np.diff(omega) >= 0)
            assert omega[0] == 0.0 and omega[-1] == 1.0

    def test_too_few_segments_rejected(self):
        with pytest.raises(ScenarioError):
            heuristic_omega("linear", 1, 10.0)


class TestControlEnergy:
    def test_identical_predictions(self, schedule, rng):
        p = rng.normal(size=(4, 16, 4))
        preds = SegmentPredictions(p, p.copy(), p.copy())
        omega = pinned_omega([0.3, 0.8])
        e = control_energy(preds, omega, 500, ControlConfig(), schedule)
        # (1-w)p + wp only differs from p by rounding
        assert e.transient <= 1e-24
        assert abs(e.terminal - stitch_cost(align_root(p))) < 1e-12

    def test_zero_terminal_weight(self, schedule, rng):
        preds = random_preds(rng)
        cfg = ControlConfig(w_T=0.0)
        e = control_energy(preds, pinned_omega([0.2, 0.9]), 300, cfg, schedule)
        assert e.terminal == 0.0
        assert e.total == e.transient

    def test_additivity(self, schedule, rng):
        preds = random_preds(rng)
        e = control_energy(preds, pinned_omega([0.4, 0.6]), 777,
                           ControlConfig(), schedule)
        assert abs(e.transient + e.terminal - e.total) <= 1e-12
        assert abs(e.per_segment_transient.sum() - e.transient) <= 1e-12
        assert e.transient >= 0 and e.terminal >= 0

    def test_matches_straight_line_recomputation(self, schedule, rng):
        # independent composition of the definitions: mix, noise-space delta,
        # lambda weighting, aligned overlap cost
        preds = random_preds(rng, K=3)
        x = rng.normal(size=(3, 16, 4))
        omega = pinned_omega([0.41])
        t = 412
        cfg = ControlConfig(w_T=1.7)
        e = control_energy(preds, omega, t, cfg, schedule)

        lam = lambda_weight(t, schedule, "posterior")
        transient = 0.0
        mixed = np.empty_like(preds.source)
        for k in range(3):
            mixed[k] = mix_predictions(preds.source[k], preds.target[k],
                                       omega[k])
            delta = (eps_of_x0(x[k], mixed[k], t, schedule)
                     - eps_of_x0(x[k], preds.uncond[k], t, schedule))
            transient += lam * np.sum(delta ** 2)
        aligned = align_root(mixed)
        terminal = cfg.w_T * (
            np.sum((aligned[1, :8] - aligned[0, 8:]) ** 2)
            + np.sum((aligned[2, :8] - aligned[1, 8:]) ** 2))
        assert abs(e.transient - transient) / transient < 1e-12
        assert abs(e.terminal - terminal) / terminal < 1e-12

    def test_quadratic_along_any_line(self, schedule, rng):
        preds = random_preds(rng)
        rng.normal(size=(4, 16, 4))  # unused draw: keeps the seeded instances
        a = rng.uniform(0.1, 0.4, size=2)
        b = rng.uniform(0.05, 0.3, size=2)
        s_grid = np.linspace(0.0, 1.0, 9)
        vals = [control_energy(preds, pinned_omega(a + s * b), 250,
                               ControlConfig(), schedule).total
                for s in s_grid]
        coeffs = np.polyfit(s_grid, vals, 2)
        fit = np.polyval(coeffs, s_grid)
        assert np.max(np.abs(fit - vals)) < 1e-9

    def test_boundary_pins_enforced(self, schedule, rng):
        preds = random_preds(rng)
        with pytest.raises(ValueError):
            control_energy(preds, np.array([0.1, 0.5, 0.5, 1.0]), 100,
                           ControlConfig(), schedule)

    def test_omega_length_checked(self, schedule, rng):
        with pytest.raises(ValueError, match="omega must have length 4"):
            control_energy(random_preds(rng), np.array([0.0, 0.5, 1.0]), 100,
                           ControlConfig(), schedule)


class TestOmegaGradients:
    def test_transient_coefficients_reproduce_energy(self, schedule, rng):
        preds = random_preds(rng)
        cfg = ControlConfig(w_T=0.0)
        q2, q1, q0 = transient_coefficients(preds, 888, cfg, schedule)
        omega = pinned_omega([0.25, 0.7])
        e = control_energy(preds, omega, 888, cfg, schedule)
        np.testing.assert_allclose(
            q2 * omega ** 2 + q1 * omega + q0, e.per_segment_transient,
            rtol=1e-12)

    def test_full_gradient_matches_finite_differences(self, schedule, rng):
        # the optimizer's interior omega-gradient; includes the root-alignment
        # offset coupling: earlier omegas move later segments through the
        # accumulated root shift
        preds = random_preds(rng, K=5)
        rng.normal(size=(5, 16, 4))  # unused draw: keeps the seeded instances
        cfg = ControlConfig(w_T=2.0)
        omega = pinned_omega(rng.uniform(0.2, 0.8, size=3))
        grad = _QuadraticEnergy(preds, 333, cfg, schedule).grad_interior(
            omega[1:-1])
        h = 1e-6
        for k in range(1, 4):
            op, om = omega.copy(), omega.copy()
            op[k] += h
            om[k] -= h
            fd = (control_energy(preds, op, 333, cfg, schedule).total
                  - control_energy(preds, om, 333, cfg, schedule).total) \
                / (2 * h)
            assert abs(grad[k - 1] - fd) / max(abs(fd), 1.0) < 1e-6
