import numpy as np
import pytest

from models import scenario_model
from oracles import affine_run, conditional_ddim_sample
from pathmix import (Condition, InvalidConfigError, SegmentLayout,
                     baseline_sample, initial_segment_noise, optimized_sample,
                     scenario_from_dict)
from pathmix.sampling import MAX_LAYOUT_VALUES

# Largest deviation of final_segments from the affine oracle allowed.  When
# it was set, runs deviated by at most 1.8e-15 (default scenario, values up
# to 1.7) and 3.6e-15 (K=16, N=200, values up to 1.9): rounding of the same
# affine maps in another order, a few ulps per step.
AFFINE_ATOL = 1e-14


@pytest.fixture(scope="module")
def fast_scenario():
    return scenario_from_dict({"schedule": {"N": 10}})


@pytest.fixture(scope="module")
def fast_run(fast_scenario):
    return optimized_sample(fast_scenario, seed=5)


class TestLayout:
    def test_validation(self):
        with pytest.raises(InvalidConfigError):
            SegmentLayout(1, 16, 4)
        with pytest.raises(InvalidConfigError):
            SegmentLayout(4, 15, 4)
        with pytest.raises(InvalidConfigError):
            SegmentLayout(4, 16, 4, root_channel=4)

    def test_size_bound(self):
        # (K-1)*K*S*C is even, so 4 past the bound is the nearest step past it
        SegmentLayout(2, MAX_LAYOUT_VALUES // 2, 1)
        with pytest.raises(InvalidConfigError,
                           match=r"layout\.K, layout\.S and layout\.C"):
            SegmentLayout(2, MAX_LAYOUT_VALUES // 2 + 2, 1)


class TestInitialNoise:
    def test_segment_streams_independent_of_k(self):
        # adding segments must not perturb the earlier segments' noise
        a = initial_segment_noise(SegmentLayout(3, 16, 4), 9)
        b = initial_segment_noise(SegmentLayout(5, 16, 4), 9)
        np.testing.assert_array_equal(a, b[:3])

    def test_seed_determinism(self):
        layout = SegmentLayout(4, 16, 4)
        np.testing.assert_array_equal(initial_segment_noise(layout, 2),
                                      initial_segment_noise(layout, 2))


class TestOptimizedRun:
    def test_shapes_and_trace_lengths(self, fast_run, fast_scenario):
        K, S, C = 4, 16, 4
        assert fast_run.final_segments.shape == (K, S, C)
        assert fast_run.long_sequence.shape == (S + 3 * S // 2, C)
        assert fast_run.omega_grid.shape == (10, K)
        assert len(fast_run.energy_trace) == 10
        assert fast_run.fingerprint == fast_scenario.fingerprint

    def test_omega_pins_every_step(self, fast_run):
        assert np.all(fast_run.omega_grid[:, 0] == 0.0)
        assert np.all(fast_run.omega_grid[:, -1] == 1.0)

    def test_interior_omega_strictly_inside(self, fast_run):
        interior = fast_run.omega_grid[:, 1:-1]
        assert np.all((interior > 0.0) & (interior < 1.0))

    def test_hard_stitch_invariant_bitwise(self, fast_run):
        segs = fast_run.final_segments
        for k in range(3):
            np.testing.assert_array_equal(segs[k + 1, :8], segs[k, 8:])

    def test_bitwise_determinism(self, fast_scenario, fast_run):
        again = optimized_sample(fast_scenario, seed=5)
        np.testing.assert_array_equal(again.final_segments,
                                      fast_run.final_segments)
        np.testing.assert_array_equal(again.long_sequence,
                                      fast_run.long_sequence)
        np.testing.assert_array_equal(again.omega_grid, fast_run.omega_grid)

    def test_two_segments_have_no_free_omega(self):
        scenario = scenario_from_dict({"layout": {"K": 2},
                                       "schedule": {"N": 5}})
        result = optimized_sample(scenario, seed=1)
        np.testing.assert_array_equal(result.omega_grid,
                                      np.tile([0.0, 1.0], (5, 1)))


class TestBaselineRun:
    def test_constant_heuristic_rows(self, fast_scenario):
        result = baseline_sample(fast_scenario, "linear", seed=5)
        np.testing.assert_allclose(result.omega_grid,
                                   np.tile([0, 1 / 3, 2 / 3, 1], (10, 1)))

    def test_energy_trace_recorded(self, fast_scenario):
        result = baseline_sample(fast_scenario, "sine", seed=5)
        assert len(result.energy_trace) == 10
        assert all(np.isfinite(e.total) for e in result.energy_trace)

    def test_shares_initial_noise_with_optimized(self, fast_scenario):
        # same seed, same noise derivation: methods differ only in omega
        layout = fast_scenario.layout
        noise = initial_segment_noise(layout, 5)
        np.testing.assert_array_equal(noise, initial_segment_noise(layout, 5))

    def test_unknown_kind_rejected(self, fast_scenario):
        with pytest.raises(InvalidConfigError):
            baseline_sample(fast_scenario, "cubic", seed=0)

    def test_baseline_stitch_invariant(self, fast_scenario):
        segs = baseline_sample(fast_scenario, "sigmoid", seed=7).final_segments
        for k in range(3):
            np.testing.assert_array_equal(segs[k + 1, :8], segs[k, 8:])


class TestConditionalDdim:
    def test_output_shape_and_determinism(self, schedule, plan):
        model = scenario_model(S=8, C=2)
        a = conditional_ddim_sample(model, Condition.SOURCE, schedule, plan,
                                    4, 3)
        b = conditional_ddim_sample(model, Condition.SOURCE, schedule, plan,
                                    4, 3)
        assert a.shape == (4, 8, 2)
        np.testing.assert_array_equal(a, b)

    def test_samples_land_near_data_manifold(self, schedule, plan):
        model = scenario_model(S=16, C=4)
        clips = conditional_ddim_sample(model, Condition.SOURCE, schedule,
                                        plan, 50, 21)
        err = np.abs(clips.mean(axis=0) - model.source.means[0])
        assert err.max() < 0.25  # sigma = sqrt(0.05), 50 draws


class TestAffineOracle:
    """Whole runs against ``oracles.affine_run``, which is exact given each
    run's omega grid because every toy domain is one Gaussian."""

    @pytest.mark.parametrize("seed", [0, 3, 7])
    @pytest.mark.parametrize("method", ["mdpa", "sine"])
    def test_default_run(self, method, seed):
        scenario = scenario_from_dict({})
        run = (optimized_sample(scenario, seed) if method == "mdpa"
               else baseline_sample(scenario, method, seed))
        np.testing.assert_allclose(run.final_segments,
                                   affine_run({}, run.omega_grid, seed).final,
                                   rtol=0, atol=AFFINE_ATOL)

    def test_long_optimized_run(self):
        raw = {"layout": {"K": 16}, "schedule": {"N": 200}}
        run = optimized_sample(scenario_from_dict(raw), 0)
        np.testing.assert_allclose(run.final_segments,
                                   affine_run(raw, run.omega_grid, 0).final,
                                   rtol=0, atol=AFFINE_ATOL)

    def test_needs_one_gaussian_domains(self):
        raw = {"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 0}, {"weight": 1, "mean": 1}]}}}
        with pytest.raises(ValueError, match="one-Gaussian"):
            affine_run(raw, np.zeros((50, 4)), 0)
