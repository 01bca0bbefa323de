"""Segment-level array operations: stitching, root alignment, assembly.

Segment stacks have shape (K, S, C): K segments of S frames with C channels.
Consecutive segments overlap by S/2 frames in the assembled timeline.
Leading axes before (K, S, C) index independent stacks.
"""

from __future__ import annotations

import numpy as np

from .errors import ScenarioError


def check_stack(segments: np.ndarray):
    if segments.ndim < 3:
        raise ValueError(f"expected (K, S, C) stack, got shape {segments.shape}")
    if segments.shape[-2] % 2 != 0:
        raise ScenarioError("segment length S must be even")


def hard_stitch_project(segments: np.ndarray) -> np.ndarray:
    """Copy each segment's second half into the next segment's first half.

    Exact projection onto the continuity constraint; idempotent.
    """
    check_stack(segments)
    out = segments.copy()
    half = segments.shape[-2] // 2
    out[..., 1:, :half, :] = segments[..., :-1, half:, :]
    return out


def align_root(segments: np.ndarray, root_channel: int = 0) -> np.ndarray:
    """Shift each segment's root channel to continue from its predecessor.

    For k ascending, segment k+1's root channel is shifted by the last root
    value of shifted segment k minus its own first; other channels are
    untouched.  The shifts are every other partial sum of one accumulation
    over [last_0, -first_1, last_1, ...]: the loop's, since x + -y is x - y.
    """
    check_stack(segments)
    if not 0 <= root_channel < segments.shape[-1]:
        raise ScenarioError(f"root channel {root_channel} out of range")
    out = segments.copy()
    firsts = segments[..., 1:, 0, root_channel]
    lasts = segments[..., :-1, -1, root_channel]
    terms = np.empty(firsts.shape[:-1] + (2 * firsts.shape[-1],))
    terms[..., ::2], terms[..., 1::2] = lasts, -firsts
    offsets = np.add.accumulate(terms, axis=-1)[..., 1::2]
    out[..., 1:, :, root_channel] += offsets[..., None]
    return out


def assemble_crossfade(segments: np.ndarray) -> np.ndarray:
    """Assemble segments with 50% overlap using linear cross-fade blending.

    Output length is S + (K-1) * S/2.  On each overlap the incoming segment
    gets weight j / (S/2) and the outgoing one the complement; if the overlaps
    already agree the blend is an exact copy.
    """
    check_stack(segments)
    S, C = segments.shape[-2:]
    half = S // 2
    ramp = (np.arange(half, dtype=np.float64) / half)[:, None]
    blends = ((1.0 - ramp) * segments[..., :-1, half:, :]
              + ramp * segments[..., 1:, :half, :])
    return np.concatenate([segments[..., 0, :half, :],
                           blends.reshape(blends.shape[:-3] + (-1, C)),
                           segments[..., -1, half:, :]], axis=-2)


def slice_windows(sequence: np.ndarray, S: int, stride: int) -> list[np.ndarray]:
    """Fixed-length windows at offsets 0, stride, 2*stride, ...; tail dropped."""
    if S < 1 or stride < 1:
        raise ScenarioError("S and stride must be positive")
    return [sequence[o:o + S].copy()
            for o in range(0, len(sequence) - S + 1, stride)]
