import numpy as np
import pytest

from pathmix import (ScenarioError, align_root, assemble_crossfade,
                     hard_stitch_project, slice_windows)


class TestHardStitchProject:
    def test_consistent_input_unchanged(self, rng):
        x = rng.normal(size=(4, 16, 4))
        for k in range(3):
            x[k + 1, :8] = x[k, 8:]
        np.testing.assert_array_equal(hard_stitch_project(x), x)

    def test_idempotent(self, rng):
        x = rng.normal(size=(5, 16, 4))
        once = hard_stitch_project(x)
        np.testing.assert_array_equal(hard_stitch_project(once), once)

    def test_constant_segments_chain(self):
        x = np.stack([np.full((16, 2), v) for v in (1.0, 2.0, 3.0)])
        out = hard_stitch_project(x)
        for k in range(2):
            np.testing.assert_array_equal(out[k + 1, :8], out[k, 8:])
        # untouched halves keep their original values
        np.testing.assert_array_equal(out[0], x[0])
        np.testing.assert_array_equal(out[1, 8:], x[1, 8:])

    def test_cascade_direction(self):
        # the copy runs in ascending order, so segment 0's tail can propagate
        # through a chain of short overlaps in one pass
        x = np.zeros((3, 2, 1))
        x[0] = [[5.0], [7.0]]
        out = hard_stitch_project(x)
        assert out[1, 0, 0] == 7.0
        assert out[2, 0, 0] == out[1, 1, 0]

    def test_odd_length_rejected(self, rng):
        with pytest.raises(ScenarioError):
            hard_stitch_project(rng.normal(size=(2, 15, 4)))


class TestAlignRoot:
    def test_offset_example(self):
        x = np.zeros((2, 4, 2))
        x[0, :, 0] = [0.0, 1.0, 1.5, 2.0]
        x[1, :, 0] = [0.5, 0.7, 0.9, 1.1]
        out = align_root(x, 0)
        np.testing.assert_allclose(out[1, :, 0], [2.0, 2.2, 2.4, 2.6])

    def test_already_aligned_unchanged(self, rng):
        x = rng.normal(size=(3, 8, 2))
        x[1, 0, 0] = x[0, -1, 0]
        x[2, 0, 0] = x[1, -1, 0]
        np.testing.assert_allclose(align_root(x, 0), x, atol=1e-15)

    def test_non_root_channels_untouched(self, rng):
        x = rng.normal(size=(4, 8, 3))
        out = align_root(x, 1)
        np.testing.assert_array_equal(out[:, :, [0, 2]], x[:, :, [0, 2]])

    def test_offsets_accumulate(self):
        x = np.zeros((3, 2, 1))
        x[0, :, 0] = [0.0, 1.0]
        x[1, :, 0] = [0.0, 1.0]
        x[2, :, 0] = [0.0, 1.0]
        out = align_root(x, 0)
        np.testing.assert_allclose(out[1, :, 0], [1.0, 2.0])
        np.testing.assert_allclose(out[2, :, 0], [2.0, 3.0])

    def test_bad_channel_rejected(self, rng):
        with pytest.raises(ScenarioError):
            align_root(rng.normal(size=(2, 4, 2)), 5)

    @pytest.mark.parametrize("root", [-1, 2, 3])
    def test_channel_past_the_last_rejected(self, rng, root):
        # S = 4 frames of C = 2 channels: channels 2 and 3 are frames only
        with pytest.raises(ScenarioError, match=f"root channel {root}"):
            align_root(rng.normal(size=(2, 4, 2)), root)

    @pytest.mark.parametrize("shape,error", [((4, 2), ValueError),
                                             ((2, 5, 2), ScenarioError)],
                             ids=["no-segment-axis", "odd-length"])
    def test_bad_stack_rejected(self, shape, error):
        with pytest.raises(error):
            align_root(np.zeros(shape))


class TestAssembleCrossfade:
    @pytest.mark.parametrize("shape,error", [((4, 2), ValueError),
                                             ((2, 5, 2), ScenarioError)],
                             ids=["no-segment-axis", "odd-length"])
    def test_bad_stack_rejected(self, shape, error):
        with pytest.raises(error):
            assemble_crossfade(np.zeros(shape))

    def test_single_segment_identity(self, rng):
        x = rng.normal(size=(1, 16, 4))
        np.testing.assert_array_equal(assemble_crossfade(x), x[0])

    def test_output_length(self, rng):
        x = rng.normal(size=(3, 16, 4))
        assert assemble_crossfade(x).shape == (32, 4)

    def test_stitched_input_blends_exactly(self, rng):
        x = hard_stitch_project(rng.normal(size=(4, 16, 4)))
        out = assemble_crossfade(x)
        # overlaps agree, so blending reduces to a copy of either side
        np.testing.assert_allclose(out[:16], x[0], atol=1e-15)
        np.testing.assert_allclose(out[8:24], x[1], atol=1e-15)
        np.testing.assert_allclose(out[-16:], x[3], atol=1e-15)

    def test_linear_ramp_weights(self):
        x = np.zeros((2, 4, 1))
        x[0] = 0.0
        x[1] = 1.0
        out = assemble_crossfade(x)
        np.testing.assert_allclose(out[:, 0], [0.0, 0.0, 0.0, 0.5, 1.0, 1.0])


class TestSliceWindows:
    def test_counts(self, rng):
        seq = rng.normal(size=(32, 4))
        assert len(slice_windows(seq, 16, 8)) == 3
        assert len(slice_windows(seq[:16], 16, 8)) == 1
        assert len(slice_windows(seq[:15], 16, 8)) == 0

    def test_window_contents(self, rng):
        seq = rng.normal(size=(40, 4))
        wins = slice_windows(seq, 16, 8)
        assert len(wins) == 4
        for i, w in enumerate(wins):
            np.testing.assert_array_equal(w, seq[8 * i:8 * i + 16])

    def test_single_frame_windows(self):
        seq = np.arange(3.0)[:, None]
        assert [w.tolist() for w in slice_windows(seq, 1, 1)] == [
            [[0.0]], [[1.0]], [[2.0]]]

    def test_invalid_stride_rejected(self, rng):
        with pytest.raises(ScenarioError):
            slice_windows(rng.normal(size=(32, 4)), 16, 0)
