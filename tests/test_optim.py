import numpy as np
import pytest

from models import interior_instance, random_preds
from oracles import AdamState, adam_update
from pathmix import (ControlConfig, NumericError, OptimizerConfig,
                     ScenarioError, SegmentPredictions, closed_form_oracle,
                     control_energy, energy_gradient, optimize_mixing)
from pathmix.optim import omega_of_latent, sigmoid


class TestLatentParameterization:
    def test_sigmoid_overflow_safe(self):
        z = np.array([-1000.0, 0.0, 1000.0])
        out = sigmoid(z)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out, [0.0, 0.5, 1.0], atol=1e-12)

    def test_pins_always_exact(self, rng):
        for _ in range(10):
            omega = omega_of_latent(rng.normal(scale=5, size=3))
            assert omega[0] == 0.0 and omega[-1] == 1.0
            assert np.all((omega[1:-1] > 0) & (omega[1:-1] < 1))


class TestAdam:
    def test_zero_gradient_keeps_z(self):
        state = AdamState.fresh(np.array([0.3, -0.2]))
        out = adam_update(state, np.zeros(2), OptimizerConfig())
        np.testing.assert_array_equal(out.z, state.z)

    def test_first_step_magnitude(self):
        cfg = OptimizerConfig(lr=0.01)
        state = adam_update(AdamState.fresh(np.zeros(1)), np.array([3.7]), cfg)
        # bias-corrected first step is lr * g/|g| up to eps
        assert abs(abs(state.z[0]) - cfg.lr) < 1e-6

    def test_deterministic(self, rng):
        g = rng.normal(size=3)
        a = adam_update(AdamState.fresh(np.zeros(3)), g, OptimizerConfig())
        b = adam_update(AdamState.fresh(np.zeros(3)), g, OptimizerConfig())
        np.testing.assert_array_equal(a.z, b.z)
        assert a.count == b.count == 1


class TestEnergyGradient:
    def test_empty_for_two_segments(self, schedule, rng):
        preds = random_preds(rng, K=2)
        g = energy_gradient(np.zeros(0), preds, 100, ControlConfig(), schedule)
        assert g.shape == (0,)

    @pytest.mark.parametrize("K", [3, 4, 6])
    def test_matches_finite_differences(self, schedule, rng, K):
        cfg = ControlConfig()
        h = 1e-5
        for trial in range(12):
            t = int(rng.integers(1, 1001))
            preds = interior_instance(rng, K)
            z = rng.normal(size=K - 2)
            grad = energy_gradient(z, preds, t, cfg, schedule)
            for j in range(K - 2):
                zp, zm = z.copy(), z.copy()
                zp[j] += h
                zm[j] -= h
                fd = (control_energy(preds, omega_of_latent(zp), t, cfg,
                                     schedule).total
                      - control_energy(preds, omega_of_latent(zm), t, cfg,
                                       schedule).total) / (2 * h)
                assert abs(grad[j] - fd) / max(abs(fd), 1.0) < 1e-5

    def test_sign_flip_across_scalar_minimum(self, schedule, rng):
        # w_T = 0, one interior segment: the transient is a 1-D quadratic in
        # omega, so the z-gradient changes sign across its minimum
        cfg = ControlConfig(w_T=0.0)
        preds = interior_instance(rng, 3)
        omega_star = closed_form_oracle(preds, 500, cfg, schedule)[1]
        assert 0.05 < omega_star < 0.95
        z_star = np.log(omega_star / (1 - omega_star))
        lo = energy_gradient(np.array([z_star - 0.5]), preds, 500, cfg,
                             schedule)
        hi = energy_gradient(np.array([z_star + 0.5]), preds, 500, cfg,
                             schedule)
        assert lo[0] < 0 < hi[0]

    def test_vanishes_at_oracle_point(self, schedule, rng):
        cfg = ControlConfig()
        done = 0
        while done < 5:
            preds = interior_instance(rng, 4)
            omega_star = closed_form_oracle(preds, 600, cfg, schedule)
            u = omega_star[1:-1]
            if not np.all((u > 0.05) & (u < 0.95)):
                continue
            z_star = np.log(u / (1 - u))
            grad = energy_gradient(z_star, preds, 600, cfg, schedule)
            scale = control_energy(preds, omega_star, 600, cfg, schedule).total
            assert np.max(np.abs(grad)) / scale < 1e-6
            done += 1


class TestOptimizeMixing:
    def test_zero_steps_returns_init(self, schedule, rng):
        preds = interior_instance(rng, 4)
        m = optimize_mixing(preds, 400, OptimizerConfig(J=0),
                            ControlConfig(), schedule)
        np.testing.assert_array_equal(m.omega, [0.0, 0.5, 0.5, 1.0])
        assert len(m.step_trace) == 1

    def test_no_interior(self, schedule, rng):
        preds = random_preds(rng, K=2)
        m = optimize_mixing(preds, 400, OptimizerConfig(), ControlConfig(),
                            schedule)
        np.testing.assert_array_equal(m.omega, [0.0, 1.0])
        assert m.z.shape == (0,)
        assert len(m.step_trace) == OptimizerConfig().J + 1

    def test_non_finite_energy_names_inner_step(self, schedule, rng):
        preds = interior_instance(rng, 4)
        preds.uncond[1, 3, 0] = np.nan
        with pytest.raises(NumericError, match=r"t=400, inner step 0$"):
            optimize_mixing(preds, 400, OptimizerConfig(), ControlConfig(),
                            schedule)

    def test_second_moment_overflow_names_step(self, schedule, rng):
        # grad ** 2 overflows, so every Adam step would be zero and the
        # initialization would come back as if it were optimal
        preds = random_preds(rng, K=3)
        huge = SegmentPredictions(1e100 * preds.source, 1e100 * preds.target,
                                  1e100 * preds.uncond)
        with np.errstate(over="ignore"), \
                pytest.raises(NumericError, match=r"t=500"):
            optimize_mixing(huge, 500, OptimizerConfig(), ControlConfig(),
                            schedule, z_init=np.array([0.3]))

    def test_trace_length_and_pins(self, schedule, rng):
        preds = interior_instance(rng, 4)
        m = optimize_mixing(preds, 400, OptimizerConfig(J=20, lr=0.01),
                            ControlConfig(), schedule)
        assert len(m.step_trace) == 21
        for omega, _ in m.step_trace:
            assert omega[0] == 0.0 and omega[-1] == 1.0

    def test_best_iterate_never_worse_than_init(self, schedule, rng):
        for _ in range(10):
            preds = interior_instance(rng, 5)
            m = optimize_mixing(preds, int(rng.integers(1, 1001)),
                                OptimizerConfig(J=20, lr=0.01),
                                ControlConfig(), schedule)
            energies = [e.total for _, e in m.step_trace]
            assert min(energies) <= energies[0]

    def test_best_iterate_monotone_in_budget(self, schedule, rng):
        preds = interior_instance(rng, 4)
        cfg = ControlConfig()
        prev = np.inf
        for steps in (0, 5, 20, 80):
            m = optimize_mixing(preds, 700,
                                OptimizerConfig(J=steps, lr=0.05), cfg,
                                schedule)
            best = min(e.total for _, e in m.step_trace)
            assert best <= prev + 1e-15
            prev = best

    @pytest.mark.parametrize("K", [3, 4, 6])
    def test_adam_runs_the_checked_gradient(self, schedule, rng, K):
        # replaying Adam by hand on energy_gradient, the gradient the
        # finite-difference checks verify, reproduces the optimizer's iterates
        cfg, opt = ControlConfig(), OptimizerConfig()
        for _ in range(10):
            t = int(rng.integers(1, 1001))
            preds = interior_instance(rng, K)
            z0 = rng.normal(size=K - 2)
            m = optimize_mixing(preds, t, opt, cfg, schedule, z_init=z0)
            state = AdamState.fresh(z0)
            for j, (omega, _) in enumerate(m.step_trace):
                assert np.array_equal(omega, omega_of_latent(state.z))
                if j < opt.J:
                    grad = energy_gradient(state.z, preds, t, cfg, schedule)
                    state = adam_update(state, grad, opt)

    def test_energy_is_first_lowest_trace_entry(self, schedule, rng):
        preds = interior_instance(rng, 5)
        m = optimize_mixing(preds, 400, OptimizerConfig(), ControlConfig(),
                            schedule)
        totals = [e.total for _, e in m.step_trace]
        best = totals.index(min(totals))
        assert m.energy is m.step_trace[best][1]
        assert np.array_equal(m.omega, m.step_trace[best][0])

    def test_warm_start_uses_given_latent(self, schedule, rng):
        preds = interior_instance(rng, 4)
        z0 = np.array([1.2, -0.7])
        m = optimize_mixing(preds, 300, OptimizerConfig(J=0),
                            ControlConfig(), schedule, z_init=z0)
        np.testing.assert_allclose(m.step_trace[0][0][1:-1], sigmoid(z0))


class TestClosedFormOracle:
    def test_requires_interior_segment(self, schedule, rng):
        preds = random_preds(rng, K=2)
        with pytest.raises(ScenarioError):
            closed_form_oracle(preds, 100, ControlConfig(), schedule)

    def test_decoupled_case_matches_grid_search(self, schedule, rng):
        # w_T = 0 decouples segments; compare each interior minimizer against
        # a dense 1-D grid search over the energy itself
        cfg = ControlConfig(w_T=0.0)
        preds = interior_instance(rng, 4)
        omega_star = closed_form_oracle(preds, 500, cfg, schedule)
        grid = np.linspace(0.0, 1.0, 100_001)
        for k in (1, 2):
            vals = []
            omega = omega_star.copy()
            for g in (grid[:: 1000]):  # coarse pass to keep runtime sane
                omega[k] = g
                vals.append(control_energy(preds, omega, 500, cfg,
                                           schedule).per_segment_transient[k])
            coarse = grid[::1000][int(np.argmin(vals))]
            lo, hi = max(coarse - 0.02, 0.0), min(coarse + 0.02, 1.0)
            fine = np.linspace(lo, hi, 4001)
            vals = []
            for g in fine:
                omega[k] = g
                vals.append(control_energy(preds, omega, 500, cfg,
                                           schedule).per_segment_transient[k])
            best = fine[int(np.argmin(vals))]
            assert abs(best - omega_star[k]) < 1e-5

    def test_symmetric_construction_gives_half(self, schedule, rng):
        uncond = rng.normal(size=(4, 16, 4))
        d = rng.normal(size=(4, 16, 4))
        preds = SegmentPredictions(uncond - d, uncond + d, uncond.copy())
        omega = closed_form_oracle(preds, 500,
                                   ControlConfig(w_T=0.0),
                                   schedule)
        np.testing.assert_allclose(omega[1:-1], 0.5, atol=1e-10)

    def test_long_run_adam_converges_to_oracle(self, schedule, rng):
        cfg = ControlConfig()
        opt = OptimizerConfig(J=500, lr=0.1)
        done = 0
        while done < 5:
            preds = interior_instance(rng, 4)
            omega_star = closed_form_oracle(preds, 450, cfg, schedule)
            u = omega_star[1:-1]
            if not np.all((u > 0.05) & (u < 0.95)):
                continue
            m = optimize_mixing(preds, 450, opt, cfg, schedule)
            assert np.max(np.abs(m.omega - omega_star)) < 1e-4
            done += 1
