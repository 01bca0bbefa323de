"""Bit-exactness of the vectorized kernels against their loop definitions.

The sampler amplifies a 1-ulp change in these kernels to differences of
order 1e-4 in its outputs, so the vectorized forms must reproduce the
loops' order of arithmetic exactly: every comparison here is
``np.array_equal``, not a tolerance.  The loop versions below are the
definitions the kernels were written from, kept as oracles.
"""

import subprocess
import sys

import numpy as np
import pytest
from scipy.special import logsumexp as scipy_logsumexp

from oracles import (ORDER, AdamState, adam_update, clip_geometric_features,
                     clip_kinetic_features)
import pathmix.sampling
from pathmix import (ControlConfig, EnergyBreakdown, NumericError,
                     OptimizerConfig, SegmentPredictions,
                     build_cosine_schedule, geometric_features,
                     kinetic_features, optimize_mixing, optimized_sample,
                     scenario_from_dict, select_ddim_timesteps)
from pathmix.control import (control_energy, stitch_cost,
                             stitch_cost_aligned_gradient,
                             transient_coefficients)
from pathmix.mixtures import (ConditionModel, GaussianMixture, logsumexp,
                              predict_x0)
from pathmix.optim import _QuadraticEnergy, _interior_basis, pinned, sigmoid
from pathmix.schedules import ddim_step
from pathmix.segments import (align_root, assemble_crossfade,
                               hard_stitch_project)

SHAPES = [(2, 2, 1, 0), (3, 16, 4, 0), (4, 16, 4, 2), (7, 10, 3, 1),
          (16, 16, 4, 0), (5, 40, 6, 5), (12, 4, 2, 1)]


def loop_hard_stitch_project(segments):
    out = segments.copy()
    half = segments.shape[1] // 2
    for k in range(len(out) - 1):
        out[k + 1, :half] = out[k, half:]
    return out


def loop_align_root(segments, root_channel=0):
    out = segments.copy()
    for k in range(len(out) - 1):
        offset = out[k, -1, root_channel] - out[k + 1, 0, root_channel]
        out[k + 1, :, root_channel] += offset
    return out


def loop_assemble_crossfade(segments):
    K, S, C = segments.shape
    half = S // 2
    ramp = (np.arange(half, dtype=np.float64) / half)[:, None]
    out = np.zeros((S + (K - 1) * half, C))
    out[:S] = segments[0]
    for k in range(1, K):
        start = k * half
        out[start:start + half] = ((1.0 - ramp) * out[start:start + half]
                                   + ramp * segments[k, :half])
        out[start + half:start + S] = segments[k, half:]
    return out


def loop_stitch_cost_aligned_gradient(mixed, directions, root_channel=0):
    K, S, _ = mixed.shape
    half = S // 2
    aligned = loop_align_root(mixed, root_channel)
    offset_grads = np.zeros((K, K))
    for k in range(K - 1):
        offset_grads[k + 1] = offset_grads[k]
        offset_grads[k + 1, k] += directions[k, S - 1, root_channel]
        offset_grads[k + 1, k + 1] -= directions[k + 1, 0, root_channel]
    grad = np.zeros(K)
    for k in range(K - 1):
        resid = aligned[k + 1, :half] - aligned[k, half:]
        grad[k + 1] += 2.0 * np.sum(resid * directions[k + 1, :half])
        grad[k] -= 2.0 * np.sum(resid * directions[k, half:])
        grad += (2.0 * np.sum(resid[:, root_channel])
                 * (offset_grads[k + 1] - offset_grads[k]))
    return grad


def loop_sigmoid(z):
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def loop_terminal_model(preds, root_channel):
    """(phi_const, phi_grad0, phi_hess) from one gradient call per column."""
    K = preds.num_segments
    n = K - 2
    dirs = preds.target - preds.source

    def mixed(u):
        w = np.concatenate([[0.0], u, [1.0]])[:, None, None]
        return (1.0 - w) * preds.source + w * preds.target

    def grad(u):
        return loop_stitch_cost_aligned_gradient(
            mixed(u), dirs, root_channel)[1:K - 1]

    g0 = grad(np.zeros(n))
    hess = np.empty((n, n))
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        hess[:, j] = grad(e) - g0
    const = stitch_cost(loop_align_root(mixed(np.zeros(n)), root_channel))
    return const, g0, hess


def loop_optimize_mixing(preds, t, opt, cfg, schedule, z_init=None):
    """The interleaved Adam loop: score each iterate on its own (1-D model),
    check it is finite, keep the first of strictly lower energy, then step.
    Returns (z, omega, energy) of the best iterate and the trace."""
    quad = _QuadraticEnergy(preds, t, cfg, schedule)
    K = preds.num_segments
    state = AdamState.fresh(np.zeros(K - 2) if z_init is None else z_init)
    trace, best = [], None
    for j in range(opt.J + 1):
        u = sigmoid(state.z)
        omega = np.concatenate([[0.0], u, [1.0]])
        per_seg = quad.q2 * omega ** 2 + quad.q1 * omega + quad.q0
        transient = float(per_seg.sum())
        terminal = quad.w_T * (quad.phi_const + quad.phi_grad0 @ u
                               + 0.5 * u @ (quad.phi_hess @ u))
        energy = EnergyBreakdown(transient, terminal, transient + terminal,
                                 per_seg)
        if not np.isfinite(energy.total):
            raise NumericError(f"non-finite energy at t={t}, inner step {j}")
        trace.append((omega, energy))
        if best is None or energy.total < best[2].total:
            best = (state.z, omega, energy)
        if j == opt.J:
            break
        state = adam_update(state, quad.grad_latent(u), opt)
    return best, trace


def loop_predict_x0(model, x_t, t, cond, schedule):
    """One condition's posterior mean, with its own likelihood pass."""
    mix = model.mixture(cond)
    a = schedule.alpha_bar[t]
    x = x_t[..., None, :, :]
    s2 = a * mix.variances + (1.0 - a)
    log_r = np.log(mix.weights) - 0.5 * np.sum(
        (x - np.sqrt(a) * mix.means) ** 2 / s2 + np.log(2.0 * np.pi * s2),
        axis=(-2, -1))
    resp = np.exp(log_r - logsumexp(log_r))
    post = mix.means + np.sqrt(a) * mix.variances / s2 * (x - np.sqrt(a) * mix.means)
    return np.sum(resp[..., None, None] * post, axis=-3)


def random_model(rng, m0, m1, S, C):
    def mixture(m):
        w = rng.uniform(0.1, 1.0, size=m)
        return GaussianMixture(w / w.sum(), rng.normal(size=(m, S, C)),
                               rng.uniform(0.01, 0.5, size=(m, S, C)))
    return ConditionModel(mixture(m0), mixture(m1), rng.uniform(0.2, 0.8))


def same_energy(a, b):
    return all(np.array_equal(getattr(a, f), getattr(b, f))
               for f in ("transient", "terminal", "total",
                         "per_segment_transient"))


def random_stacks(rng, lead, K, S, C, scale):
    source = rng.normal(size=lead + (K, S, C))
    target = scale * rng.normal(size=lead + (K, S, C))
    omega = np.concatenate([np.zeros(lead + (1,)),
                            rng.uniform(size=lead + (K - 2,)),
                            np.ones(lead + (1,))], axis=-1)
    w = omega[..., None, None]
    return (1.0 - w) * source + w * target, target - source


@pytest.mark.parametrize("K,S,C,root", SHAPES)
class TestSegmentKernels:
    def test_hard_stitch_project(self, rng, K, S, C, root):
        for scale in (1.0, 1e-3, 1e6):
            x = scale * rng.normal(size=(K, S, C))
            assert np.array_equal(hard_stitch_project(x),
                                  loop_hard_stitch_project(x))

    def test_assemble_crossfade(self, rng, K, S, C, root):
        for scale in (1.0, 1e-3, 1e6, 1e-300, 1e300):
            x = scale * rng.normal(size=(K, S, C))
            assert np.array_equal(assemble_crossfade(x),
                                  loop_assemble_crossfade(x))

    def test_align_root(self, rng, K, S, C, root):
        for scale in (1.0, 1e-3, 1e6):
            x = scale * rng.normal(size=(K, S, C))
            assert np.array_equal(align_root(x, root),
                                  loop_align_root(x, root))

    def test_align_root_batched(self, rng, K, S, C, root):
        x = rng.normal(size=(2, 3, K, S, C))
        want = np.stack([[loop_align_root(s, root) for s in row] for row in x])
        assert np.array_equal(align_root(x, root), want)

    def test_align_root_extreme_offsets(self, rng, K, S, C, root):
        # offsets near 1e-300 (subnormal partial sums) and 1e300, of both
        # signs and with signed zeros, compared by bytes: np.array_equal
        # would take -0.0 for 0.0
        for scale in (1e-300, 1e300):
            x = scale * rng.normal(size=(50, K, S, C))
            x[rng.uniform(size=x.shape) < 0.3] = 0.0
            x[rng.uniform(size=x.shape) < 0.3] = -0.0
            want = np.stack([loop_align_root(s, root) for s in x])
            assert align_root(x, root).tobytes() == want.tobytes()
            assert align_root(x[0], root).tobytes() == want[0].tobytes()

    def test_stitch_cost_aligned_gradient(self, rng, K, S, C, root):
        for scale in (1.0, 1e-3, 1e6):
            mixed, dirs = random_stacks(rng, (), K, S, C, scale)
            assert np.array_equal(
                stitch_cost_aligned_gradient(align_root(mixed, root), dirs,
                                             root),
                loop_stitch_cost_aligned_gradient(mixed, dirs, root))

    def test_stitch_cost_aligned_gradient_batched(self, rng, K, S, C, root):
        mixed, dirs = random_stacks(rng, (5,), K, S, C, 1.0)
        dirs = dirs[0]
        want = np.stack([loop_stitch_cost_aligned_gradient(m, dirs, root)
                         for m in mixed])
        assert np.array_equal(
            stitch_cost_aligned_gradient(align_root(mixed, root), dirs, root),
            want)


SCHEDULE = build_cosine_schedule(1000)

# Every per-step kernel of (preds, omega, root, shared directions): called
# on (..., K, S, C) stacks with (..., K) mixing vectors it must give, row for
# row, what it gives on each stack alone.
STACK_KERNELS = {
    "mixed": lambda p, w, root, d: p.mixed(w),
    "directions": lambda p, w, root, d: p.directions,
    "align_root": lambda p, w, root, d: align_root(p.mixed(w), root),
    "stitch_cost": lambda p, w, root, d: stitch_cost(p.mixed(w)),
    "hard_stitch_project": lambda p, w, root, d: hard_stitch_project(
        p.mixed(w)),
    "assemble_crossfade": lambda p, w, root, d: assemble_crossfade(
        p.mixed(w)),
    "transient_coefficients": lambda p, w, root, d: np.stack(
        transient_coefficients(p, 500, ControlConfig(), SCHEDULE), axis=-1),
    "control_energy": lambda p, w, root, d: control_energy(
        p, w, 500, ControlConfig(w_T=0.5), SCHEDULE, root),
    "gradient": lambda p, w, root, d: stitch_cost_aligned_gradient(
        align_root(p.mixed(w), root), p.directions, root),
    "gradient_shared_directions": lambda p, w, root, d:
        stitch_cost_aligned_gradient(align_root(p.mixed(w), root), d, root),
    "ddim_step": lambda p, w, root, d: ddim_step(p.uncond, p.mixed(w), 500,
                                                 480, SCHEDULE),
}


def stacked(per_run, lead):
    """The per-run results of the runs of ``lead``, in C order, as one
    array (or EnergyBreakdown of arrays) with leading axes ``lead``."""
    if isinstance(per_run[0], EnergyBreakdown):
        return EnergyBreakdown(*(stacked([getattr(e, f) for e in per_run],
                                         lead)
                                 for f in ("transient", "terminal", "total",
                                           "per_segment_transient")))
    return np.stack(per_run).reshape(lead + np.shape(per_run[0]))


@pytest.mark.parametrize("lead", [(5,), (2, 3)])
@pytest.mark.parametrize("K,S,C,root", SHAPES)
@pytest.mark.parametrize("name", list(STACK_KERNELS) + ["predict_x0"])
def test_stacked_call_matches_per_run_calls(rng, name, K, S, C, root, lead):
    source, target, uncond = rng.normal(size=(3,) + lead + (K, S, C))
    omega = pinned(rng.uniform(size=lead + (K - 2,)))
    shared = rng.normal(size=(K, S, C))
    if name == "predict_x0":
        model = random_model(rng, 3, 2, S, C)

        def kernel(p, w, root, d):
            return np.stack(predict_x0(model, p.uncond, 500, SCHEDULE))
    else:
        kernel = STACK_KERNELS[name]
    got = kernel(SegmentPredictions(source, target, uncond), omega, root,
                 shared)
    want = stacked([kernel(SegmentPredictions(source[i], target[i],
                                              uncond[i]),
                           omega[i], root, shared)
                    for i in np.ndindex(lead)], lead)
    if name == "control_energy":
        assert same_energy(got, want)
    elif name == "predict_x0":  # (3, ...) of the three conditions
        assert np.array_equal(got, np.moveaxis(want, len(lead), 0))
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("end", [0, -1])
def test_stacked_omega_with_one_unpinned_row_rejected(rng, end):
    preds = SegmentPredictions(*rng.normal(size=(3, 4, 16, 4)))
    omega = pinned(rng.uniform(size=(5, 2)))
    omega[3, end] = 0.5
    with pytest.raises(ValueError, match="pinned"):
        control_energy(preds, omega, 500, ControlConfig(), SCHEDULE)


def signed_zero_stacks(rng, K, S, C):
    """Source and target stacks with about 30% exact +0.0 and -0.0 entries,
    where selecting a basis stack and mixing it, (1 - w) s + w t, differ in
    the sign of a zero."""
    stacks = rng.normal(size=(2, K, S, C))
    zero = rng.uniform(size=stacks.shape) < 0.3
    stacks[zero] = np.copysign(0.0, rng.normal(size=zero.sum()))
    return stacks


@pytest.mark.parametrize("K,S,C,root", [s for s in SHAPES if s[0] >= 3])
def test_terminal_model_matches_per_column_build(rng, K, S, C, root):
    # compared by bytes: np.array_equal would take -0.0 for 0.0
    zeros = signed_zero_stacks(rng, K, S, C)
    w = pinned(np.eye(K - 1, K - 2, -1))[..., None, None]
    mixed = (1.0 - w) * zeros[0] + w * zeros[1]
    selected = np.where(_interior_basis(K), zeros[1], zeros[0])
    assert selected.tobytes() != mixed.tobytes()  # the case is reached
    for source, target in (rng.normal(size=(2, K, S, C)), zeros):
        preds = SegmentPredictions(source, target,
                                   rng.normal(size=(K, S, C)))
        quad = _QuadraticEnergy(preds, 500, ControlConfig(),
                                build_cosine_schedule(1000), root)
        const, g0, hess = loop_terminal_model(preds, root)
        assert np.float64(quad.phi_const).tobytes() == const.tobytes()
        assert quad.phi_grad0.tobytes() == g0.tobytes()
        assert quad.phi_hess.tobytes() == hess.tobytes()
        u = rng.uniform(size=K - 2)
        assert np.array_equal(quad.phi_hess @ u, hess @ u)


@pytest.mark.parametrize("K", [2, 3, 4, 16])
def test_interior_basis_is_read_only(K):
    basis = _interior_basis(K)
    assert basis is _interior_basis(K)
    assert basis.dtype == bool and basis.shape == (K - 1, K, 1, 1)
    assert np.array_equal(basis[..., 0, 0], np.concatenate(
        [np.zeros((K - 1, 1)), np.eye(K - 1, K - 2, -1), np.ones((K - 1, 1))],
        axis=1) == 1.0)
    with pytest.raises(ValueError, match="read-only"):
        basis[0, 0] = True
    with pytest.raises(ValueError, match="read-only"):
        basis |= True


def test_sigmoid_matches_masked_form(rng):
    z = np.concatenate([rng.normal(scale=s, size=50) for s in (0.1, 3, 40)]
                       + [[0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300]])
    assert np.array_equal(sigmoid(z), loop_sigmoid(z))


# warm starts where the sigmoid's branches, exp's underflow and u(1 - u)
# meet their edges
EDGE_LATENTS = [0.0, -0.0, 745.0, -745.0, 1e-300, -1e-300, 40.0, -40.0]


@pytest.mark.parametrize("m0,m1", [(1, 1), (3, 5), (8, 8), (1, 7)])
@pytest.mark.parametrize("lead", [(4,), (16,), (3, 5)])
def test_predict_x0_one_pass_matches_single_conditions(rng, m0, m1, lead):
    schedule = build_cosine_schedule(1000)
    plan = select_ddim_timesteps(schedule, 50)
    model = random_model(rng, m0, m1, 6, 3)
    x = rng.normal(size=lead + (6, 3))
    for t in plan.steps[:-1]:
        t = int(t)
        got = predict_x0(model, x, t, schedule)
        assert len(got) == 3
        for cond, mean in zip(ORDER, got):
            assert np.array_equal(mean,
                                  loop_predict_x0(model, x, t, cond, schedule))
        x = got[2] + 0.3 * rng.normal(size=x.shape)


def test_predict_x0_one_component_domain_matches_single_conditions(rng):
    # a one-component "components" domain of weight 0.37, loaded as a scenario
    # is; its mean has -0.0 entries, and x_t the smallest subnormal of either
    # sign there, so that posterior means of -0.0 occur (a sum over one
    # component gives +0.0 for them); compared by bytes
    S, C = 6, 3
    mean = rng.normal(size=(S, C))
    mean[::2, 0] = -0.0
    domain = {"kind": "components",
              "components": [{"weight": 0.37, "mean": mean.tolist()}]}
    scenario = scenario_from_dict({"layout": {"K": 4, "S": S, "C": C},
                                   "domains": {"c0": domain}})
    model, schedule = scenario.model, scenario.schedule
    assert model.source.weights.tolist() == [1.0]
    x = rng.normal(size=(4, S, C))
    x[..., ::2, 0] = np.copysign(5e-324, rng.normal(size=(4, S // 2)))
    for t in scenario.plan.steps[:-1]:
        t = int(t)
        got = predict_x0(model, x, t, schedule)
        for cond, mean in zip(ORDER, got):
            want = loop_predict_x0(model, x, t, cond, schedule)
            assert mean.tobytes() == want.tobytes()
    # far from every mean the likelihoods underflow to -inf and the
    # oracle's responsibilities are NaN; a shortcut must not hide that
    far = np.full((4, S, C), 1e200)
    with np.errstate(all="ignore"):
        got = predict_x0(model, far, 500, schedule)
        for cond, mean in zip(ORDER, got):
            want = loop_predict_x0(model, far, 500, cond, schedule)
            assert np.isnan(want).all()
            assert np.array_equal(mean, want, equal_nan=True)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_default_run_matches_per_condition_predictions(monkeypatch, seed):
    # the default scenario's toy domains are one-component mixtures: its runs
    # must equal, by bytes, runs whose predictions come from the per-condition
    # oracle's full log-sum-exp pass
    scenario = scenario_from_dict({})
    got = optimized_sample(scenario, seed)

    def oracle(model, x_t, t, schedule):
        return tuple(loop_predict_x0(model, x_t, t, cond, schedule)
                     for cond in ORDER)

    monkeypatch.setattr(pathmix.sampling, "predict_x0", oracle)
    want = optimized_sample(scenario, seed)
    for field in ("final_segments", "long_sequence", "omega_grid"):
        assert (getattr(got, field).tobytes()
                == getattr(want, field).tobytes())
    assert all(a.total.tobytes() == b.total.tobytes()
               for a, b in zip(got.energy_trace, want.energy_trace))


def test_predict_x0_alternating_models_keep_their_own_weights(rng):
    # two models of equal shapes and component counts, different weights:
    # a cache shared between them would give one model the other's
    schedule = build_cosine_schedule(1000)
    models = [random_model(rng, 3, 2, 6, 3) for _ in range(2)]
    assert not np.array_equal(models[0].source.weights,
                              models[1].source.weights)
    x = rng.normal(size=(4, 6, 3))
    for t in (900, 500, 100, 900):
        for model in models + models[::-1]:
            got = predict_x0(model, x, t, schedule)
            for cond, mean in zip(ORDER, got):
                assert np.array_equal(
                    mean, loop_predict_x0(model, x, t, cond, schedule))


@pytest.mark.parametrize("K", [2, 3, 4, 6, 16])
@pytest.mark.parametrize("warm", [False, True])
def test_optimize_mixing_matches_interleaved_loop(rng, K, warm):
    schedule = build_cosine_schedule(1000)
    cfg = ControlConfig()
    for lr in (0.01, 0.3):
        opt = OptimizerConfig(lr=lr)
        for _ in range(6):
            t = int(rng.integers(1, 1001))
            source, target = rng.normal(size=(2, K, 16, 4))
            levels = rng.uniform(size=(K, 1, 1))
            uncond = ((1 - levels) * source + levels * target
                      + 0.1 * rng.normal(size=(K, 16, 4)))
            preds = SegmentPredictions(source, target, uncond)
            starts = [rng.normal(scale=2.0, size=K - 2) if warm else None]
            if warm:
                starts += [np.full(K - 2, e) for e in EDGE_LATENTS]
                starts.append(np.resize(EDGE_LATENTS, K - 2))
            for z0 in starts:
                (z, omega, energy), trace = loop_optimize_mixing(
                    preds, t, opt, cfg, schedule, z0)
                m = optimize_mixing(preds, t, opt, cfg, schedule, z_init=z0)
                assert np.array_equal(m.z, z)
                assert np.array_equal(m.omega, omega)
                assert same_energy(m.energy, energy)
                assert len(m.step_trace) == len(trace) == opt.J + 1
                for (got_omega, got), (want_omega, want) in zip(m.step_trace,
                                                                trace):
                    assert np.array_equal(got_omega, want_omega)
                    assert same_energy(got, want)


@pytest.mark.parametrize("shape", [(500, 16, 4), (200, 4, 2), (7, 6, 5),
                                   (16, 4)],
                         ids=lambda shape: "x".join(map(str, shape)))
@pytest.mark.parametrize("batched,per_clip", [
    (kinetic_features, clip_kinetic_features),
    (geometric_features, clip_geometric_features)],
    ids=["kinetic", "geometric"])
def test_features_of_a_batch_match_per_clip_oracle(rng, shape, batched,
                                                    per_clip):
    # clip scales from 0.1 to 10, so that the reductions' rounding differs
    # from clip to clip
    lead, (S, C) = shape[:-2], shape[-2:]
    scale = np.geomspace(0.1, 10.0, int(np.prod(lead)))
    clips = rng.normal(size=shape) * scale.reshape(lead + (1, 1))
    want = np.stack([per_clip(c) for c in clips.reshape(-1, S, C)])
    got = batched(clips)
    assert got.shape == lead + want.shape[-1:]
    assert np.array_equal(got.reshape(want.shape), want)


class TestLogsumexp:
    # logsumexp reduces the last axis and keeps it with length 1; with
    # keepdims False its [..., 0] is compared with scipy's reduced result
    @pytest.mark.parametrize("shape", [(1,), (5,), (4, 2), (3, 16),
                                       (2, 3, 7), (50, 4, 32)])
    @pytest.mark.parametrize("keepdims", [False, True])
    def test_matches_scipy(self, rng, shape, keepdims):
        for scale in (1.0, 40.0, 800.0):
            a = scale * rng.normal(size=shape)
            got = logsumexp(a) if keepdims else logsumexp(a)[..., 0]
            want = scipy_logsumexp(a, axis=-1, keepdims=keepdims)
            assert np.array_equal(got, want)
            assert np.shape(got) == np.shape(want)

    def test_tied_maxima(self, rng):
        a = rng.normal(size=(6, 5))
        a[:, 1] = a[:, 3] = a.max(axis=-1) + 1.0
        a[0] = 2.5
        assert np.array_equal(logsumexp(a),
                              scipy_logsumexp(a, axis=-1, keepdims=True))

    def test_negative_infinity(self, rng):
        a = rng.normal(size=(4, 6))
        a[:, 2] = -np.inf
        a[1] = -np.inf
        a[3, 1:] = -np.inf
        got = logsumexp(a)
        assert np.array_equal(got, scipy_logsumexp(a, axis=-1, keepdims=True))
        assert got[1, 0] == -np.inf

    def test_vector_keeps_its_axis(self, rng):
        a = rng.normal(size=7)
        got, want = logsumexp(a), scipy_logsumexp(a, axis=-1, keepdims=True)
        assert got.shape == (1,) and np.array_equal(got, want)


def test_cli_import_leaves_scipy_out():
    code = "import sys, pathmix.cli; print('scipy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"
