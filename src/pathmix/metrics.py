"""Evaluation metrics: feature spaces, Frechet distances, diversity, dynamics.

Clips are (..., S, C) arrays: S frames of C channels under any leading batch
axes.  The kinetic space concatenates per-channel RMS velocity and
acceleration; the geometric space concatenates per-channel temporal means
with mean absolute pairwise channel differences.  Both feature sets are
standardized with ground-truth statistics before any distance is computed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ScenarioError

STD_FLOOR = 1e-8
PSD_TOL = 1e-6
FID_CLAMP = -1e-8


@dataclass(frozen=True)
class FeatureStats:
    mean: np.ndarray
    cov: np.ndarray

    @classmethod
    def from_features(cls, features: np.ndarray) -> "FeatureStats":
        features = np.atleast_2d(features)
        if len(features) < 2:
            raise ScenarioError("need at least 2 feature vectors")
        mean = features.mean(axis=0)
        cov = np.cov(features, rowvar=False, ddof=1)
        cov = np.atleast_2d(cov)
        return cls(mean, cov)


@dataclass(frozen=True)
class EvalReport:
    fid_kinetic: float
    fid_geometric: float
    div_kinetic: float
    div_geometric: float
    accel_mean: float
    accel_var: float
    jerk_mean: float
    jerk_var: float
    n_gen: int
    n_gt: int


def kinetic_features(clips: np.ndarray) -> np.ndarray:
    """Per-channel RMS first and second finite differences, length 2C."""
    clips = np.asarray(clips)
    if clips.shape[-2] < 3:
        raise ScenarioError("kinetic features need at least 3 frames")
    vel = np.diff(clips, axis=-2)
    acc = np.diff(clips, n=2, axis=-2)
    rms = lambda d: np.sqrt(np.mean(d ** 2, axis=-2))
    return np.concatenate([rms(vel), rms(acc)], axis=-1)


def geometric_features(clips: np.ndarray) -> np.ndarray:
    """Per-channel temporal means plus mean absolute pairwise channel
    differences over pairs i < j, length C + C(C-1)/2 per clip."""
    clips = np.asarray(clips)
    C = clips.shape[-1]
    if C < 2:
        raise ScenarioError("geometric features need at least 2 channels")
    i, j = np.triu_indices(C, 1)
    pair = np.mean(np.abs(clips[..., i] - clips[..., j]), axis=-2)
    return np.concatenate([clips.mean(axis=-2), pair], axis=-1)


def standardize(features: np.ndarray, gt_mean: np.ndarray,
                gt_std: np.ndarray) -> np.ndarray:
    """(x - mean) / std per dimension with ground-truth statistics."""
    return (features - gt_mean) / np.maximum(gt_std, STD_FLOOR)


def _psd_sqrt(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    if vals.min() < -PSD_TOL * max(vals.max(), 1.0):
        raise ValueError(f"matrix not PSD: min eigenvalue {vals.min():g}")
    vals = np.clip(vals, 0.0, None)
    return (vecs * np.sqrt(vals)) @ vecs.T


def frechet_distance(a: FeatureStats, b: FeatureStats) -> float:
    """||mu_a - mu_b||^2 + Tr(S_a + S_b - 2 (S_a^1/2 S_b S_a^1/2)^1/2)."""
    if a.mean.shape != b.mean.shape:
        raise ValueError("feature dimensions differ")
    # Tr((S_a^1/2 S_b S_a^1/2)^1/2) equals the nuclear norm of
    # S_a^1/2 S_b^1/2; singular values are nonnegative by construction, which
    # avoids the sign noise of eigendecomposing the near-singular product.
    cross = np.linalg.svd(_psd_sqrt(a.cov) @ _psd_sqrt(b.cov),
                          compute_uv=False)
    fd = (np.sum((a.mean - b.mean) ** 2) + np.trace(a.cov) + np.trace(b.cov)
          - 2.0 * np.sum(cross))
    if fd < FID_CLAMP:
        raise ValueError(f"Frechet distance {fd:g} below clamp tolerance")
    return float(max(fd, 0.0))


def diversity(features: np.ndarray, n_pairs: int, rng_seed: int) -> float:
    """Mean Euclidean distance over randomly sampled distinct index pairs."""
    features = np.atleast_2d(features)
    if len(features) < 2:
        raise ScenarioError("diversity needs at least 2 feature vectors")
    if n_pairs < 1:
        raise ScenarioError("n_pairs must be >= 1")
    rng = np.random.default_rng(rng_seed)
    n = len(features)
    i = rng.integers(0, n, size=n_pairs)
    j = rng.integers(0, n - 1, size=n_pairs)
    j = np.where(j >= i, j + 1, j)  # distinct partner
    return float(np.mean(np.linalg.norm(features[i] - features[j], axis=1)))


def dynamics_stats(clips: np.ndarray) -> tuple[float, float, float, float]:
    """Pooled acceleration/jerk magnitude statistics over all clips."""
    clips = np.asarray(clips)
    if clips.shape[-2] < 4:
        raise ScenarioError("dynamics stats need at least 4 frames")
    accel = np.abs(np.diff(clips, n=2, axis=-2)).ravel()
    jerk = np.abs(np.diff(clips, n=3, axis=-2)).ravel()
    return (float(accel.mean()), float(accel.var()),
            float(jerk.mean()), float(jerk.var()))


def evaluate(gen_clips, gt_clips, n_pairs: int, rng_seed: int) -> EvalReport:
    """Full metric suite for a generated clip set against ground truth."""
    gen_clips = np.asarray(gen_clips)
    gt_clips = np.asarray(gt_clips)
    if len(gen_clips) == 0 or len(gt_clips) == 0:
        raise ScenarioError("both clip sets must be non-empty")

    report = {}
    for name, extractor in (("kinetic", kinetic_features),
                            ("geometric", geometric_features)):
        gen_f, gt_f = extractor(gen_clips), extractor(gt_clips)
        gt_mean, gt_std = gt_f.mean(axis=0), gt_f.std(axis=0)
        gen_s = standardize(gen_f, gt_mean, gt_std)
        gt_s = standardize(gt_f, gt_mean, gt_std)
        report[f"fid_{name}"] = frechet_distance(
            FeatureStats.from_features(gen_s), FeatureStats.from_features(gt_s))
        report[f"div_{name}"] = diversity(gen_s, n_pairs, rng_seed)

    accel_mean, accel_var, jerk_mean, jerk_var = dynamics_stats(gen_clips)
    return EvalReport(report["fid_kinetic"], report["fid_geometric"],
                      report["div_kinetic"], report["div_geometric"],
                      accel_mean, accel_var, jerk_mean, jerk_var,
                      len(gen_clips), len(gt_clips))
