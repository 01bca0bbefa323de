import numpy as np
import pytest
from scipy.special import logsumexp

from models import scenario_model
from oracles import domain_log_likelihood, marginal_log_density
from pathmix import (Condition, ConditionModel, GaussianMixture,
                     ScenarioError, eps_of_x0, predict_x0, sample_clips)


def single_gaussian_model(S=4, C=2, mean=0.0, variance=1.0):
    spec = {"S": S, "C": C,
            "c0": {"kind": "components",
                   "components": [{"weight": 1.0, "mean": mean,
                                   "variance": variance}]},
            "c1": {"kind": "components",
                   "components": [{"weight": 1.0, "mean": mean + 1.0,
                                   "variance": variance}]}}
    return scenario_model(**spec)


class TestConstruction:
    def test_default_toy_shapes(self):
        model = scenario_model(S=16, C=4)
        assert model.source.shape == (16, 4)
        assert model.source.means.shape == (1, 16, 4)
        assert model.target.means.shape == (1, 16, 4)
        assert model.p0 == 0.5

    def test_weights_normalized(self):
        spec = {"S": 4, "C": 2,
                "c0": {"kind": "components",
                       "components": [{"weight": 0.7, "mean": 0.0},
                                      {"weight": 0.3, "mean": 1.0}]},
                "c1": {"kind": "toy"}}
        model = scenario_model(**spec)
        assert abs(model.source.weights.sum() - 1.0) <= 1e-12

    def test_empty_components_rejected(self):
        with pytest.raises(ScenarioError, match=r"domains\.c0\.components"):
            scenario_model(S=4, C=2, c0={"kind": "components"},
                           c1={"kind": "toy"})

    @pytest.mark.parametrize("root", [-1, 2])
    def test_root_channel_out_of_range_rejected(self, root):
        with pytest.raises(ScenarioError, match=r"layout\.root_channel"):
            scenario_model(S=4, C=2, root_channel=root)

    def test_small_variance_rejected(self):
        with pytest.raises(ScenarioError):
            GaussianMixture(np.array([1.0]), np.zeros((1, 4, 2)),
                            np.full((1, 4, 2), 1e-9))

    def test_null_mixture_is_weighted_union(self):
        model = scenario_model(S=8, C=2, p0=0.3)
        null = model.mixture(Condition.NULL)
        np.testing.assert_allclose(null.weights, [0.3, 0.7])
        np.testing.assert_array_equal(null.means[0], model.source.means[0])
        np.testing.assert_array_equal(null.means[1], model.target.means[0])

    def test_null_mixture_built_once(self):
        model = scenario_model(S=8, C=2)
        assert model.mixture(Condition.NULL) is model.mixture(Condition.NULL)


class TestPredictX0:
    def test_degenerate_variance_returns_mean(self, schedule, rng):
        mu = rng.normal(size=(1, 4, 2))
        mix = GaussianMixture(np.array([1.0]), mu, np.full((1, 4, 2), 1e-8))
        model = ConditionModel(mix, mix)
        x_t = rng.normal(size=(4, 2))
        out = predict_x0(model, x_t, 500, schedule)[0]
        np.testing.assert_allclose(out, mu[0], atol=1e-3)

    def test_unit_variance_algebra(self, schedule, rng):
        model = single_gaussian_model(variance=1.0)
        x_t = rng.normal(size=(4, 2))
        a = schedule.alpha_bar[300]
        mu = model.source.means[0]
        expect = mu + np.sqrt(a) * (x_t - np.sqrt(a) * mu)
        out = predict_x0(model, x_t, 300, schedule)[0]
        np.testing.assert_allclose(out, expect, atol=1e-12)

    def test_two_component_matches_grid_oracle(self, schedule):
        # independent oracle: numerically integrate E[x0 | x_t] on a dense
        # grid over a 2-dimensional clip (S=2, C=1)
        spec = {"S": 2, "C": 1,
                "c0": {"kind": "components",
                       "components": [{"weight": 0.6, "mean": -1.0,
                                       "variance": 0.4},
                                      {"weight": 0.4, "mean": 1.5,
                                       "variance": 0.8}]},
                "c1": {"kind": "toy"}}
        model = scenario_model(**spec)
        t = 400
        a = schedule.alpha_bar[t]
        grid = np.linspace(-8.0, 8.0, 801)
        g0, g1 = np.meshgrid(grid, grid, indexing="ij")
        x0_grid = np.stack([g0, g1], axis=-1)[..., None]  # (n, n, 2, 1)

        for x_t in (np.array([[0.3], [-0.7]]), np.array([[1.2], [0.1]])):
            log_prior = np.full(g0.shape, -np.inf)
            mix = model.source
            for w, mu, v in zip(mix.weights, mix.means, mix.variances):
                comp = -0.5 * np.sum((x0_grid - mu) ** 2 / v
                                     + np.log(2 * np.pi * v), axis=(-2, -1))
                log_prior = np.logaddexp(log_prior, np.log(w) + comp)
            log_lik = -0.5 * np.sum(
                (x_t - np.sqrt(a) * x0_grid) ** 2 / (1 - a), axis=(-2, -1))
            w_post = np.exp(log_prior + log_lik)
            w_post /= w_post.sum()
            oracle = np.array([[np.sum(w_post * g0)], [np.sum(w_post * g1)]]).reshape(2, 1)
            out = predict_x0(model, x_t, t, schedule)[0]
            np.testing.assert_allclose(out, oracle, atol=1e-6)

    def test_null_with_extreme_prior_matches_source(self, schedule, rng):
        # p0 must be strictly inside (0,1); 1 - 1e-16 rounds to 1 in the
        # weights, which makes NULL coincide with the source mixture
        model = scenario_model(S=8, C=2, p0=1.0 - 1e-16)
        x_t = rng.normal(size=(8, 2))
        source, _, null = predict_x0(model, x_t, 200, schedule)
        np.testing.assert_allclose(null, source, atol=1e-12)

    def test_batched_matches_loop(self, schedule, rng):
        model = scenario_model(S=16, C=4)
        x = rng.normal(size=(3, 16, 4))
        batched = predict_x0(model, x, 600, schedule)[2]
        for k in range(3):
            single = predict_x0(model, x[k], 600, schedule)[2]
            np.testing.assert_allclose(batched[k], single, atol=1e-14)

    def test_prediction_in_component_hull(self, schedule, rng):
        # posterior mean is a convex combination of per-component posteriors;
        # with shared variance all lie between the two component predictions
        model = scenario_model(S=16, C=4)
        x_t = rng.normal(size=(16, 4))
        out = predict_x0(model, x_t, 800, schedule)[2]
        assert np.all(np.isfinite(out))

    def test_score_consistency_via_finite_differences(self, schedule, rng):
        # eps_of_x0(x_t, E[x0|x_t]) must equal -sqrt(1-a) * grad log p_t(x_t)
        model = scenario_model(S=2, C=2)
        for t in (50, 400, 950):
            x_t = rng.normal(size=(2, 2))
            eps = eps_of_x0(x_t, predict_x0(model, x_t, t, schedule)[2], t,
                            schedule)
            h = 1e-5
            grad = np.zeros_like(x_t)
            for i in range(2):
                for j in range(2):
                    xp, xm = x_t.copy(), x_t.copy()
                    xp[i, j] += h
                    xm[i, j] -= h
                    grad[i, j] = (marginal_log_density(model, xp, t,
                                                       Condition.NULL, schedule)
                                  - marginal_log_density(model, xm, t,
                                                         Condition.NULL,
                                                         schedule)) / (2 * h)
            expect = -np.sqrt(1.0 - schedule.alpha_bar[t]) * grad
            np.testing.assert_allclose(eps, expect, rtol=1e-4, atol=1e-6)

    def test_t_zero_rejected(self, schedule, rng):
        model = scenario_model(S=4, C=2)
        with pytest.raises(ValueError):
            predict_x0(model, rng.normal(size=(4, 2)), 0, schedule)


class TestSampling:
    def test_monte_carlo_mean(self):
        model = scenario_model(S=16, C=4)
        clips = sample_clips(model, Condition.SOURCE, 1000, 7)
        sigma = np.sqrt(0.05)
        bound = 5.0 * sigma / np.sqrt(1000)
        err = np.abs(clips.mean(axis=0) - model.source.means[0])
        assert err.max() < bound

    def test_degenerate_variance_clips_at_mean(self):
        model = single_gaussian_model(variance=1e-8)
        clips = sample_clips(model, Condition.SOURCE, 20, 3)
        assert np.max(np.abs(clips - model.source.means[0])) < 1e-3

    def test_seed_determinism(self):
        model = scenario_model(S=8, C=2)
        a = sample_clips(model, Condition.TARGET, 50, 11)
        b = sample_clips(model, Condition.TARGET, 50, 11)
        np.testing.assert_array_equal(a, b)


class TestDomainLogLikelihood:
    def test_component_mean_classifies_correctly(self):
        model = scenario_model(S=16, C=4)
        clip = model.source.means[0]
        assert (domain_log_likelihood(model, clip, Condition.SOURCE)
                > domain_log_likelihood(model, clip, Condition.TARGET))

    def test_null_is_logsumexp_of_conditions(self, rng):
        model = scenario_model(S=16, C=4, p0=0.4)
        clip = rng.normal(size=(16, 4))
        ll0 = domain_log_likelihood(model, clip, Condition.SOURCE)
        ll1 = domain_log_likelihood(model, clip, Condition.TARGET)
        expect = logsumexp([np.log(0.4) + ll0, np.log(0.6) + ll1])
        got = domain_log_likelihood(model, clip, Condition.NULL)
        assert abs(got - expect) <= 1e-12

    def test_variance_scaling_shifts_peak_density(self):
        narrow = single_gaussian_model(S=4, C=2, variance=0.05)
        wide = single_gaussian_model(S=4, C=2, variance=0.2)
        clip = narrow.source.means[0]
        drop = (domain_log_likelihood(narrow, clip, Condition.SOURCE)
                - domain_log_likelihood(wide, clip, Condition.SOURCE))
        assert abs(drop - (4 * 2 / 2) * np.log(4.0)) < 1e-10
