"""Segment-level array operations: stitching, root alignment, assembly.

Segment stacks have shape (K, S, C): K segments of S frames with C channels.
Consecutive segments overlap by S/2 frames in the assembled timeline.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidConfigError


def _check_stack(segments: np.ndarray):
    if segments.ndim != 3:
        raise ValueError(f"expected (K, S, C) stack, got shape {segments.shape}")
    if segments.shape[1] % 2 != 0:
        raise InvalidConfigError("segment length S must be even")


def hard_stitch_project(segments: np.ndarray) -> np.ndarray:
    """Copy each segment's second half into the next segment's first half.

    Exact projection onto the continuity constraint; idempotent.
    """
    _check_stack(segments)
    out = segments.copy()
    half = segments.shape[1] // 2
    out[1:, :half] = segments[:-1, half:]
    return out


def align_root(segments: np.ndarray, root_channel: int = 0) -> np.ndarray:
    """Shift each segment's root channel to continue from its predecessor.

    For k ascending, a constant offset (last root value of the shifted
    segment k minus first root value of segment k+1) is added to every frame
    of segment k+1's root channel; other channels are untouched.  Leading
    axes before (K, S, C) index independent stacks.
    """
    if segments.ndim < 3:
        raise ValueError(f"expected (K, S, C) stack, got shape {segments.shape}")
    if not 0 <= root_channel < segments.shape[-1]:
        raise InvalidConfigError(f"root channel {root_channel} out of range")
    out = segments.copy()
    firsts = segments[..., 1:, 0, root_channel]
    lasts = segments[..., :-1, -1, root_channel]
    offsets = lasts - firsts   # offset of segment k+1; final for k = 0
    for k in range(1, offsets.shape[-1]):
        offsets[..., k] = (lasts[..., k] + offsets[..., k - 1]) - firsts[..., k]
    out[..., 1:, :, root_channel] += offsets[..., None]
    return out


def assemble_crossfade(segments: np.ndarray) -> np.ndarray:
    """Assemble segments with 50% overlap using linear cross-fade blending.

    Output length is S + (K-1) * S/2.  On each overlap the incoming segment
    gets weight j / (S/2) and the outgoing one the complement; if the overlaps
    already agree the blend is an exact copy.
    """
    _check_stack(segments)
    _, S, C = segments.shape
    half = S // 2
    ramp = (np.arange(half, dtype=np.float64) / half)[:, None]
    blends = (1.0 - ramp) * segments[:-1, half:] + ramp * segments[1:, :half]
    return np.concatenate([segments[0, :half], blends.reshape(-1, C),
                           segments[-1, half:]])


def slice_windows(sequence: np.ndarray, S: int, stride: int) -> list[np.ndarray]:
    """Fixed-length windows at offsets 0, stride, 2*stride, ...; tail dropped."""
    if S < 1 or stride < 1:
        raise InvalidConfigError("S and stride must be positive")
    return [sequence[o:o + S].copy()
            for o in range(0, len(sequence) - S + 1, stride)]
