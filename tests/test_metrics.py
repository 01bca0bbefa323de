import numpy as np
import pytest

from models import scenario_model
from pathmix import (Condition, FeatureStats, ScenarioError, diversity,
                     dynamics_stats, evaluate, frechet_distance,
                     geometric_features, kinetic_features, sample_clips,
                     standardize)
from pathmix.metrics import psd_sqrt


class TestKineticFeatures:
    def test_constant_clip(self):
        np.testing.assert_array_equal(kinetic_features(np.full((16, 4), 2.0)),
                                      np.zeros(8))

    def test_linear_ramp(self):
        clip = np.outer(np.arange(16.0), [1.0, -3.0])
        feats = kinetic_features(clip)
        np.testing.assert_allclose(feats[:2], [1.0, 3.0])
        np.testing.assert_allclose(feats[2:], 0.0, atol=1e-12)

    def test_quadratic(self):
        clip = (np.arange(16.0) ** 2)[:, None]
        feats = kinetic_features(clip)
        assert abs(feats[1] - 2.0) < 1e-12  # second difference of s^2 is 2

    @pytest.mark.parametrize("shape", [(2, 4), (5, 2, 4)],
                             ids=["clip", "batch"])
    def test_too_short_rejected(self, shape):
        with pytest.raises(ScenarioError):
            kinetic_features(np.zeros(shape))

    def test_three_frames_suffice(self):
        # one second difference is enough
        clip = (np.arange(3.0) ** 2)[:, None]
        np.testing.assert_array_equal(kinetic_features(clip),
                                      [np.sqrt(5.0), 2.0])


class TestGeometricFeatures:
    def test_zero_clip(self):
        np.testing.assert_array_equal(geometric_features(np.zeros((16, 4))),
                                      np.zeros(4 + 6))

    def test_two_constant_channels(self):
        clip = np.tile([1.0, 3.0], (16, 1))
        np.testing.assert_allclose(geometric_features(clip), [1.0, 3.0, 2.0])

    def test_length(self, rng):
        assert geometric_features(rng.normal(size=(16, 5))).shape == (5 + 10,)

    @pytest.mark.parametrize("shape", [(16, 1), (5, 16, 1)],
                             ids=["clip", "batch"])
    def test_single_channel_rejected(self, shape):
        with pytest.raises(ScenarioError):
            geometric_features(np.zeros(shape))


@pytest.mark.parametrize("features", [kinetic_features, geometric_features,
                                      dynamics_stats])
def test_clips_given_as_a_list(features, rng):
    clips = rng.normal(size=(3, 8, 4))
    np.testing.assert_array_equal(features(clips.tolist()), features(clips))


class TestStandardize:
    def test_self_standardization(self, rng):
        feats = rng.normal(loc=3.0, scale=2.0, size=(200, 6))
        out = standardize(feats, feats.mean(axis=0), feats.std(axis=0))
        assert np.max(np.abs(out.mean(axis=0))) < 1e-10
        assert np.max(np.abs(out.std(axis=0) - 1.0)) < 1e-10

    def test_constant_dimension_floored(self):
        feats = np.ones((10, 2))
        out = standardize(feats, feats.mean(axis=0), feats.std(axis=0))
        assert np.all(np.isfinite(out))

    def test_round_trip(self, rng):
        feats = rng.normal(size=(50, 4))
        mean, std = rng.normal(size=4), rng.uniform(0.5, 2.0, size=4)
        back = standardize(feats, mean, std) * std + mean
        np.testing.assert_allclose(back, feats, atol=1e-10)


class TestFeatureStats:
    def test_stats_of_known_features(self):
        feats = np.array([[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]])
        stats = FeatureStats.from_features(feats)
        np.testing.assert_array_equal(stats.mean, [2.0, 3.0])
        np.testing.assert_array_equal(stats.cov, [[4.0, 2.0], [2.0, 4.0]])

    def test_one_dimensional_stats_keep_a_matrix(self):
        stats = FeatureStats.from_features(np.array([[1.0], [3.0]]))
        assert stats.cov.shape == (1, 1) and stats.cov[0, 0] == 2.0

    def test_stats_need_two_vectors(self):
        with pytest.raises(ScenarioError):
            FeatureStats.from_features(np.ones((1, 3)))

    def test_one_dimensional_array_is_one_vector(self):
        # a 1-D array is one feature vector, not n one-dimensional ones
        with pytest.raises(ScenarioError, match="at least 2 feature vectors"):
            FeatureStats.from_features(np.arange(5.0))

    def test_list_of_vectors_accepted(self):
        feats = [[0.0, 1.0], [2.0, 5.0], [4.0, 3.0]]
        assert (FeatureStats.from_features(feats).cov.tolist()
                == [[4.0, 2.0], [2.0, 4.0]])


class TestFrechetDistance:
    def test_self_distance_zero(self, rng):
        stats = FeatureStats.from_features(rng.normal(size=(100, 8)))
        assert frechet_distance(stats, stats) <= 1e-8

    def test_one_dim_mean_shift(self):
        a = FeatureStats(np.array([0.0]), np.array([[1.0]]))
        b = FeatureStats(np.array([1.0]), np.array([[1.0]]))
        assert abs(frechet_distance(a, b) - 1.0) <= 1e-10

    def test_one_dim_variance_shift(self):
        a = FeatureStats(np.array([0.0]), np.array([[1.0]]))
        b = FeatureStats(np.array([0.0]), np.array([[4.0]]))
        assert abs(frechet_distance(a, b) - 1.0) <= 1e-10

    def test_one_dim_closed_form_random(self, rng):
        for _ in range(20):
            m1, m2 = rng.normal(size=2)
            s1, s2 = rng.uniform(0.3, 3.0, size=2)
            a = FeatureStats(np.array([m1]), np.array([[s1 ** 2]]))
            b = FeatureStats(np.array([m2]), np.array([[s2 ** 2]]))
            expect = (m1 - m2) ** 2 + (s1 - s2) ** 2
            assert abs(frechet_distance(a, b) - expect) <= 1e-10

    def test_negative_past_the_clamp_rejected(self):
        # psd_sqrt tolerates the eigenvalue -9e-7, but the trace keeps it,
        # so the distance comes out 9e-7 below zero: past FID_CLAMP
        a = FeatureStats(np.zeros(1), np.array([[-9e-7]]))
        b = FeatureStats(np.zeros(1), np.zeros((1, 1)))
        with pytest.raises(ValueError, match="below clamp tolerance"):
            frechet_distance(a, b)

    def test_symmetric(self, rng):
        a = FeatureStats.from_features(rng.normal(size=(80, 6)))
        b = FeatureStats.from_features(rng.normal(loc=0.5, size=(80, 6)))
        assert abs(frechet_distance(a, b) - frechet_distance(b, a)) <= 1e-8

    def test_never_negative(self, rng):
        for _ in range(10):
            a = FeatureStats.from_features(rng.normal(size=(30, 4)))
            b = FeatureStats.from_features(rng.normal(size=(30, 4)))
            assert frechet_distance(a, b) >= 0.0

    def test_matrix_sqrt_reconstruction(self, rng):
        for dim in (2, 5, 10, 20):
            m = rng.normal(size=(dim, dim))
            cov = m @ m.T + 0.05 * np.eye(dim)
            root = psd_sqrt(cov)
            rel = (np.linalg.norm(root @ root - cov, "fro")
                   / np.linalg.norm(cov, "fro"))
            assert rel <= 1e-8

    def test_matrix_sqrt_tolerance_is_relative(self):
        # an eigenvalue below -PSD_TOL times the largest one (at least 1)
        # is rejected; one above it is clipped to 0
        np.testing.assert_array_equal(psd_sqrt(np.diag([0.25, -0.9e-6])),
                                      np.diag([0.5, 0.0]))
        np.testing.assert_array_equal(psd_sqrt(np.diag([4e6, -3.0])),
                                      np.diag([2e3, 0.0]))
        for diagonal in ([0.25, -1.1e-6], [4e6, -5.0]):
            with pytest.raises(ValueError, match="not PSD"):
                psd_sqrt(np.diag(diagonal))

    def test_dimension_mismatch_rejected(self, rng):
        a = FeatureStats.from_features(rng.normal(size=(10, 3)))
        b = FeatureStats.from_features(rng.normal(size=(10, 4)))
        with pytest.raises(ValueError, match="feature dimensions differ"):
            frechet_distance(a, b)


class TestDiversity:
    def test_identical_points(self):
        assert diversity(np.ones((10, 3)), 100, 0) == 0.0

    def test_two_points(self):
        feats = np.array([[0.0, 0.0], [3.0, 4.0]])
        assert abs(diversity(feats, 500, 1) - 5.0) < 1e-12

    def test_seed_determinism(self, rng):
        feats = rng.normal(size=(40, 5))
        assert diversity(feats, 200, 9) == diversity(feats, 200, 9)

    def test_needs_two_points(self):
        with pytest.raises(ScenarioError):
            diversity(np.ones((1, 3)), 10, 0)

    def test_one_dimensional_array_is_one_vector(self):
        with pytest.raises(ScenarioError, match="at least 2 feature vectors"):
            diversity(np.arange(5.0), 10, 0)

    def test_needs_a_pair(self):
        with pytest.raises(ScenarioError):
            diversity(np.ones((4, 3)), 0, 0)

    def test_estimates_the_mean_over_distinct_pairs(self):
        # every ordered pair of distinct points is equally likely: the mean
        # of |x_i - x_j| over them is (1 + 10 + 9) / 3
        feats = np.array([[0.0], [1.0], [10.0]])
        assert abs(diversity(feats, 20000, 0) - 20.0 / 3.0) < 0.1


class TestDynamicsStats:
    def test_constant_clips(self):
        out = dynamics_stats(np.ones((5, 16, 4)))
        assert out == (0.0, 0.0, 0.0, 0.0)

    def test_linear_clips(self):
        clips = np.tile(np.arange(16.0)[:, None], (3, 1, 2))
        accel_mean, accel_var, jerk_mean, jerk_var = dynamics_stats(clips)
        assert accel_mean == 0.0 and jerk_mean == 0.0

    def test_quadratic_clip(self):
        clip = ((np.arange(16.0) ** 2)[:, None])[None]
        accel_mean, accel_var, jerk_mean, jerk_var = dynamics_stats(clip)
        assert abs(accel_mean - 2.0) < 1e-12
        assert accel_var < 1e-12
        assert jerk_mean < 1e-12

    def test_too_short_rejected(self):
        with pytest.raises(ScenarioError):
            dynamics_stats(np.zeros((2, 3, 4)))


class TestEvaluate:
    def test_identical_sets(self, rng):
        model = scenario_model(S=16, C=4)
        clips = sample_clips(model, Condition.SOURCE, 100, 5)
        report = evaluate(clips, clips, 500, 3)
        assert report.fid_kinetic <= 1e-6
        assert report.fid_geometric <= 1e-6
        assert report.n_gen == report.n_gt == 100

    def test_same_distribution_below_resampled_null(self):
        # two disjoint draws from one Gaussian domain must score below a
        # null threshold computed by repeated resampling
        spec = {"S": 16, "C": 4,
                "c0": {"kind": "components",
                       "components": [{"weight": 1.0, "mean": 0.0,
                                       "variance": 1.0}]},
                "c1": {"kind": "toy"}}
        model = scenario_model(**spec)
        null = []
        for rep in range(30):
            a = sample_clips(model, Condition.SOURCE, 500, 1000 + 2 * rep)
            b = sample_clips(model, Condition.SOURCE, 500, 1001 + 2 * rep)
            null.append(evaluate(a, b, 100, rep).fid_kinetic)
        threshold = np.mean(null) + 5.0 * np.std(null)
        a = sample_clips(model, Condition.SOURCE, 500, 7770)
        b = sample_clips(model, Condition.SOURCE, 500, 7771)
        assert evaluate(a, b, 100, 0).fid_kinetic < threshold

    def test_cross_domain_exceeds_null(self):
        model = scenario_model(S=16, C=4)
        null = []
        for rep in range(20):
            a = sample_clips(model, Condition.SOURCE, 200, 100 + 2 * rep)
            b = sample_clips(model, Condition.SOURCE, 200, 101 + 2 * rep)
            null.append(evaluate(a, b, 100, rep).fid_kinetic)
        threshold = np.mean(null) + 5.0 * np.std(null)
        gen = sample_clips(model, Condition.SOURCE, 200, 42)
        gt = sample_clips(model, Condition.TARGET, 200, 43)
        assert evaluate(gen, gt, 100, 0).fid_kinetic > threshold

    def test_diversity_consistent_with_direct_call(self, rng):
        model = scenario_model(S=16, C=4)
        clips = sample_clips(model, Condition.SOURCE, 60, 12)
        report = evaluate(clips, clips, 300, 17)
        feats = np.stack([kinetic_features(c) for c in clips])
        direct = diversity(standardize(feats, feats.mean(axis=0),
                                       feats.std(axis=0)), 300, 17)
        assert abs(report.div_kinetic - direct) < 1e-12

    def test_empty_sets_rejected(self, rng):
        # an empty ground-truth set would warn in its feature means first
        for n_gen, n_gt in ((0, 5), (5, 0)):
            with pytest.raises(ScenarioError, match="must be non-empty"):
                evaluate(np.zeros((n_gen, 16, 4)), np.zeros((n_gt, 16, 4)),
                         10, 0)

    def test_clip_sets_given_as_lists(self):
        model = scenario_model(S=16, C=4)
        gen = sample_clips(model, Condition.SOURCE, 20, 8)
        gt = sample_clips(model, Condition.TARGET, 30, 9)
        assert (evaluate(list(gen), list(gt), 50, 1)
                == evaluate(gen, gt, 50, 1))
