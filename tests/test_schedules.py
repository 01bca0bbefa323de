import numpy as np
import pytest

from pathmix import (ScenarioError, build_cosine_schedule, ddim_step,
                     eps_of_x0, forward_diffuse, select_ddim_timesteps,
                     tweedie_x0)
from pathmix.schedules import ALPHA_BAR_FLOOR, BETA_MAX, BETA_MIN, COSINE_OFFSET


def raw_cosine_alpha_bar(t, T):
    f = lambda u: np.cos(((u / T + COSINE_OFFSET)
                          / (1.0 + COSINE_OFFSET)) * np.pi / 2.0) ** 2
    return f(t) / f(0)


class TestCosineSchedule:
    def test_alpha_bar_starts_at_one(self, schedule):
        assert schedule.alpha_bar[0] == 1.0

    def test_raw_terminal_value_underflows(self):
        # the unclipped cosine curve reaches ~0 at t = T; the floor must kick in
        assert raw_cosine_alpha_bar(1000, 1000) <= 1e-4
        assert build_cosine_schedule(1000).alpha_bar[1000] >= ALPHA_BAR_FLOOR

    def test_matches_raw_curve_away_from_floor(self, schedule):
        t = np.arange(1, 900)
        raw = raw_cosine_alpha_bar(t.astype(float), 1000)
        assert np.max(np.abs(schedule.alpha_bar[t] - raw) / raw) < 1e-12

    def test_identity_alpha_bar_vs_beta(self, schedule):
        rebuilt = schedule.alpha_bar[:-1] * (1.0 - schedule.beta[1:])
        rel = np.abs(rebuilt - schedule.alpha_bar[1:]) / schedule.alpha_bar[1:]
        assert rel.max() <= 1e-12

    def test_strictly_decreasing_and_beta_range(self):
        sch = build_cosine_schedule(10)
        assert np.all(np.diff(sch.alpha_bar) < 0)
        assert np.all(sch.beta[1:] >= BETA_MIN)
        assert np.all(sch.beta[1:] <= BETA_MAX)

    def test_posterior_var_formula(self, schedule):
        t = np.arange(1, 1001)
        expect = (schedule.beta[t] * (1.0 - schedule.alpha_bar[t - 1])
                  / (1.0 - schedule.alpha_bar[t]))
        np.testing.assert_allclose(schedule.posterior_var[t], expect, rtol=0)

    def test_small_t_rejected(self):
        with pytest.raises(ScenarioError):
            build_cosine_schedule(1)


class TestTimestepPlan:
    def test_default_plan_shape(self, plan):
        assert len(plan.steps) == 51
        assert plan.steps[0] == 1000
        assert plan.steps[-1] == 0
        assert plan.num_steps == 50
        assert np.all(np.diff(plan.steps) < 0)

    def test_identity_stride(self):
        sch = build_cosine_schedule(10)
        plan = select_ddim_timesteps(sch, 10)
        np.testing.assert_array_equal(plan.steps, np.arange(10, -1, -1))

    def test_two_endpoints(self):
        sch = build_cosine_schedule(10)
        np.testing.assert_array_equal(select_ddim_timesteps(sch, 1).steps,
                                      [10, 0])

    def test_steps_are_the_rounded_grid(self):
        # a spacing of T/N >= 1 leaves no rounded step to repair
        for T in range(2, 201):
            sch = build_cosine_schedule(T)
            for N in range(1, T + 1):
                grid = np.ceil(np.linspace(T, 0, N + 1) - 0.5).astype(np.int64)
                grid[0], grid[-1] = T, 0
                np.testing.assert_array_equal(
                    select_ddim_timesteps(sch, N).steps, grid)

    def test_n_larger_than_t_rejected(self):
        sch = build_cosine_schedule(10)
        with pytest.raises(ScenarioError):
            select_ddim_timesteps(sch, 11)


class TestForwardDiffuse:
    def test_t_zero_identity(self, schedule, rng):
        x0 = rng.normal(size=(16, 4))
        out = forward_diffuse(x0, 0, rng.normal(size=(16, 4)), schedule)
        np.testing.assert_array_equal(out, x0)

    def test_zero_signal(self, schedule, rng):
        noise = rng.normal(size=(16, 4))
        out = forward_diffuse(np.zeros((16, 4)), 300, noise, schedule)
        np.testing.assert_allclose(
            out, np.sqrt(1.0 - schedule.alpha_bar[300]) * noise, rtol=1e-15)

    def test_ones_vector_midway(self, schedule):
        out = forward_diffuse(np.ones((16, 4)), 500, np.zeros((16, 4)),
                              schedule)
        np.testing.assert_allclose(out, np.sqrt(schedule.alpha_bar[500]),
                                   rtol=1e-15)

    def test_shape_mismatch(self, schedule):
        with pytest.raises(ValueError):
            forward_diffuse(np.zeros((4, 4)), 1, np.zeros((4, 3)), schedule)


class TestTweedieRoundTrips:
    def test_recovers_x0_from_true_noise(self, schedule, rng):
        for t in (1, 137, 500, 999, 1000):
            x0 = rng.normal(size=(16, 4))
            eps = rng.normal(size=(16, 4))
            x_t = forward_diffuse(x0, t, eps, schedule)
            np.testing.assert_allclose(tweedie_x0(x_t, eps, t, schedule), x0,
                                       atol=1e-12)

    def test_mutual_inverses(self, schedule, rng):
        for t in rng.integers(1, 1001, size=20):
            x_t = rng.normal(size=(16, 4))
            eps = rng.normal(size=(16, 4))
            back = eps_of_x0(x_t, tweedie_x0(x_t, eps, int(t), schedule),
                             int(t), schedule)
            np.testing.assert_allclose(back, eps, atol=1e-12)

    def test_zero_eps(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        np.testing.assert_allclose(
            tweedie_x0(x_t, np.zeros_like(x_t), 400, schedule),
            x_t / np.sqrt(schedule.alpha_bar[400]), rtol=1e-15)

    def test_t_zero_behavior(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        np.testing.assert_array_equal(
            tweedie_x0(x_t, np.zeros_like(x_t), 0, schedule), x_t)
        with pytest.raises(ValueError, match="t=0"):
            eps_of_x0(x_t, x_t, 0, schedule)

    def test_eps_of_x0_is_affine(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        a, b = rng.normal(size=(2, 16, 4))
        lam = 0.3
        mixed = eps_of_x0(x_t, lam * a + (1 - lam) * b, 700, schedule)
        expect = (lam * eps_of_x0(x_t, a, 700, schedule)
                  + (1 - lam) * eps_of_x0(x_t, b, 700, schedule))
        np.testing.assert_allclose(mixed, expect, atol=1e-12)


class TestDdimStep:
    def test_final_step_returns_x0hat(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        x0hat = rng.normal(size=(16, 4))
        np.testing.assert_allclose(ddim_step(x_t, x0hat, 20, 0, schedule),
                                   x0hat, atol=1e-12)

    def test_noise_free_state(self, schedule, rng):
        x0hat = rng.normal(size=(16, 4))
        x_t = np.sqrt(schedule.alpha_bar[500]) * x0hat  # implied eps = 0
        out = ddim_step(x_t, x0hat, 500, 480, schedule)
        np.testing.assert_allclose(
            out, np.sqrt(schedule.alpha_bar[480]) * x0hat, atol=1e-12)

    def test_ordering_enforced(self, schedule, rng):
        x = rng.normal(size=(16, 4))
        with pytest.raises(ValueError):
            ddim_step(x, x, 100, 100, schedule)

    def test_deterministic(self, schedule, rng):
        x_t = rng.normal(size=(16, 4))
        x0hat = rng.normal(size=(16, 4))
        a = ddim_step(x_t, x0hat, 300, 250, schedule)
        b = ddim_step(x_t, x0hat, 300, 250, schedule)
        np.testing.assert_array_equal(a, b)
