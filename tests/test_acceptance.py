"""Acceptance gate: ten criteria, one pass/fail line each.

Criteria 6-8 share one sampling protocol over the default scenario: for each
of 10 seeds, 50 optimized runs and 50 sine-baseline runs are pooled into 200
sliding-window clips per method and compared against 200 class-balanced
ground-truth clips.
"""

import json
import time
from dataclasses import dataclass

import numpy as np
import pytest

from models import interior_instance, scenario_model
from oracles import conditional_ddim_sample, domain_log_likelihood
from pathmix import (Condition, ControlConfig, OptimizerConfig, FeatureStats,
                     baseline_sample, build_cosine_schedule,
                     closed_form_oracle, control_energy, energy_gradient,
                     eps_of_x0, evaluate, forward_diffuse, frechet_distance,
                     hard_stitch_project, lambda_weight, optimize_mixing,
                     optimized_sample, reverse_kl_check, sample_clips,
                     scenario_from_dict, select_ddim_timesteps, slice_windows,
                     tweedie_x0)
from pathmix.cli import main
from pathmix.metrics import psd_sqrt
from pathmix.optim import omega_of_latent


def report(number, passed, detail):
    status = "PASS" if passed else "FAIL"
    line = f"[{status}] criterion {number}: {detail}"
    print(line)
    assert passed, line


@dataclass
class ProtocolResult:
    fid_k: dict          # method -> per-seed list
    fid_m: dict
    max_energy: dict
    transitions_ok: int
    transitions_total: int
    final_interior_omegas: list


@pytest.fixture(scope="module")
def protocol():
    scenario = scenario_from_dict({})
    model = scenario.build_model()
    S = scenario.layout.S
    n_seeds, n_runs = 10, 50
    fid_k = {"mdpa": [], "sine": []}
    fid_m = {"mdpa": [], "sine": []}
    max_energy = {"mdpa": [], "sine": []}
    trans_ok = trans_total = 0
    final_omegas = []
    for seed in range(n_seeds):
        gt = np.concatenate([
            sample_clips(model, Condition.SOURCE, 100, 10_000 + seed),
            sample_clips(model, Condition.TARGET, 100, 20_000 + seed)])
        for mi, method in enumerate(("mdpa", "sine")):
            clips = []
            worst = 0.0
            for r in range(n_runs):
                sub = int(np.random.SeedSequence(
                    entropy=seed, spawn_key=(mi, r)).generate_state(1)[0])
                if method == "mdpa":
                    result = optimized_sample(scenario, sub)
                    trans_total += 1
                    first, last = result.final_segments[0], result.final_segments[-1]
                    if (domain_log_likelihood(model, first, Condition.SOURCE)
                            > domain_log_likelihood(model, first, Condition.TARGET)
                            and domain_log_likelihood(model, last, Condition.TARGET)
                            > domain_log_likelihood(model, last, Condition.SOURCE)):
                        trans_ok += 1
                    final_omegas.append(result.omega_grid[-1, 1:-1].copy())
                else:
                    result = baseline_sample(scenario, "sine", sub)
                clips.extend(slice_windows(result.long_sequence, S, S // 2))
                worst = max(worst, max(e.total for e in result.energy_trace))
            rep = evaluate(np.asarray(clips[:scenario.eval_n_clips]), gt,
                           scenario.eval_n_pairs, seed)
            fid_k[method].append(rep.fid_kinetic)
            fid_m[method].append(rep.fid_geometric)
            max_energy[method].append(worst)
    return ProtocolResult(fid_k, fid_m, max_energy, trans_ok, trans_total,
                          final_omegas)


def test_criterion_1_exact_math_suite(schedule):
    start = time.perf_counter()
    rng = np.random.default_rng(1)
    worst = 0.0

    for t in rng.integers(1, 1001, size=40):
        t = int(t)
        x0, eps = rng.normal(size=(2, 16, 4))
        x_t = forward_diffuse(x0, t, eps, schedule)
        worst = max(worst,
                    float(np.max(np.abs(tweedie_x0(x_t, eps, t, schedule) - x0))),
                    float(np.max(np.abs(eps_of_x0(
                        x_t, tweedie_x0(x_t, eps, t, schedule), t, schedule)
                        - eps))))
    roundtrip_ok = worst <= 1e-12

    rebuilt = schedule.alpha_bar[:-1] * (1.0 - schedule.beta[1:])
    identity = float(np.max(np.abs(rebuilt - schedule.alpha_bar[1:])
                            / schedule.alpha_bar[1:]))
    identity_ok = identity <= 1e-12

    x = rng.normal(size=(5, 16, 4))
    once = hard_stitch_project(x)
    stitch_ok = (np.array_equal(hard_stitch_project(once), once)
                 and np.array_equal(once[1:, :8], once[:-1, 8:]))

    run = optimized_sample(scenario_from_dict({"schedule": {"N": 10}}), 0)
    pins_ok = (np.all(run.omega_grid[:, 0] == 0.0)
               and np.all(run.omega_grid[:, -1] == 1.0))

    additivity = 0.0
    for _ in range(10):
        preds = interior_instance(rng, 4)
        omega = np.concatenate([[0.0], rng.uniform(0, 1, size=2), [1.0]])
        e = control_energy(preds, omega, int(rng.integers(1, 1001)),
                           ControlConfig(), schedule)
        additivity = max(additivity, abs(e.transient + e.terminal - e.total))
    additivity_ok = additivity <= 1e-12

    elapsed = time.perf_counter() - start
    ok = (roundtrip_ok and identity_ok and stitch_ok and pins_ok
          and additivity_ok and elapsed < 10.0)
    report(1, ok, f"roundtrip {worst:.2e}, identity {identity:.2e}, "
                  f"stitch exact {stitch_ok}, pins exact {pins_ok}, "
                  f"additivity {additivity:.2e}, {elapsed:.1f}s")


def test_criterion_2_kl_proportionality(schedule):
    rng = np.random.default_rng(2)
    worst = 0.0
    for t in rng.integers(1, 1001, size=20):
        t = int(t)
        lam = lambda_weight(t, schedule, "posterior")
        for _ in range(20):
            _, eps_a, eps_b = rng.normal(size=(3, 16, 4))
            kl = reverse_kl_check(eps_a, eps_b, t, schedule)
            approx = lam * float(np.sum((eps_a - eps_b) ** 2))
            worst = max(worst, abs(approx - kl) / abs(kl))
    report(2, worst <= 1e-10,
           f"max relative deviation {worst:.2e} over 20 x 20 (tol 1e-10)")


def test_criterion_3_gradient_correctness(schedule):
    rng = np.random.default_rng(3)
    cfg = ControlConfig()
    h = 1e-5
    worst = 0.0
    count = 0
    for K in (3, 4, 6):
        for _ in range(34):
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
                      - control_energy(preds, omega_of_latent(zm), t,
                                       cfg, schedule).total) / (2 * h)
                worst = max(worst, abs(grad[j] - fd) / max(abs(fd), 1.0))
            count += 1
    report(3, worst < 1e-5 and count >= 100,
           f"max relative error {worst:.2e} over {count} instances (tol 1e-5)")


def test_criterion_4_optimizer_vs_oracle(schedule):
    rng = np.random.default_rng(4)
    cfg = ControlConfig()
    long_run = OptimizerConfig(J=500, lr=0.1)
    worst_gap = 0.0
    done = 0
    while done < 20:
        t = int(rng.integers(100, 901))
        preds = interior_instance(rng, 4)
        omega_star = closed_form_oracle(preds, t, cfg, schedule)
        u = omega_star[1:-1]
        if not np.all((u > 0.05) & (u < 0.95)):
            continue
        e_star = control_energy(preds, omega_star, t, cfg, schedule).total
        mix = optimize_mixing(preds, t, long_run, cfg, schedule)
        e_opt = control_energy(preds, mix.omega, t, cfg, schedule).total
        worst_gap = max(worst_gap, (e_opt - e_star) / abs(e_star))
        done += 1

    default_run = OptimizerConfig(J=20, lr=0.01)
    best_iterate_ok = True
    for _ in range(20):
        preds = interior_instance(rng, 4)
        t = int(rng.integers(1, 1001))
        mix = optimize_mixing(preds, t, default_run, cfg, schedule)
        # the energy of the initialization, evaluated directly; 1e-12 allows
        # for rounding between the quadratic model and the direct evaluator
        start = control_energy(preds, omega_of_latent(np.zeros(2)), t, cfg,
                               schedule).total
        if not mix.energy.total <= start + 1e-12 * abs(start):
            best_iterate_ok = False
    report(4, worst_gap <= 1e-6 and best_iterate_ok,
           f"max energy gap {worst_gap:.2e} over 20 instances (tol 1e-6), "
           f"best-iterate guarantee {best_iterate_ok}")


def test_criterion_5_sampler_correctness():
    start = time.perf_counter()
    spec = {"S": 16, "C": 4,
            "c0": {"kind": "components",
                   "components": [{"weight": 1.0, "mean": 0.0,
                                   "variance": 1.0}]},
            "c1": {"kind": "toy"}}
    model = scenario_model(**spec)
    schedule = build_cosine_schedule(1000)
    plan = select_ddim_timesteps(schedule, 100)
    clips = conditional_ddim_sample(model, Condition.SOURCE, schedule, plan,
                                    2000, 55)
    mean_err = float(np.max(np.abs(clips.mean(axis=0))))
    mean_bound = 4.0 / np.sqrt(2000)
    pooled_var = float(clips.var(ddof=1))
    var_err = abs(pooled_var - 1.0)
    elapsed = time.perf_counter() - start
    ok = mean_err < mean_bound and var_err < 0.10 and elapsed < 60.0
    report(5, ok, f"max |mean| {mean_err:.4f} (bound {mean_bound:.4f}), "
                  f"pooled variance {pooled_var:.4f} (tol 10%), {elapsed:.1f}s")


def test_criterion_6_directional_fid(protocol):
    wins_k = sum(m <= s for m, s in zip(protocol.fid_k["mdpa"],
                                        protocol.fid_k["sine"]))
    wins_m = sum(m <= s for m, s in zip(protocol.fid_m["mdpa"],
                                        protocol.fid_m["sine"]))
    ok = wins_k >= 8 and wins_m >= 8
    report(6, ok, f"FID_k wins {wins_k}/10, FID_m wins {wins_m}/10 "
                  f"(need >= 8/10 each)")


def test_criterion_7_directional_energy(protocol):
    wins = sum(m < s for m, s in zip(protocol.max_energy["mdpa"],
                                     protocol.max_energy["sine"]))
    report(7, wins >= 9, f"max-energy wins {wins}/10 (need >= 9/10)")


def test_criterion_8_domain_transitions(protocol):
    rate = protocol.transitions_ok / protocol.transitions_total
    interior = np.concatenate(protocol.final_interior_omegas)
    interior_ok = bool(np.all((interior > 0.0) & (interior < 1.0)))
    report(8, rate >= 0.95 and interior_ok,
           f"transition success {protocol.transitions_ok}/"
           f"{protocol.transitions_total} ({rate:.1%}), final interior "
           f"omegas in (0,1): {interior_ok}")


def test_criterion_9_metric_suite():
    rng = np.random.default_rng(9)

    closed = 0.0
    for _ in range(20):
        m1, m2 = rng.normal(size=2)
        s1, s2 = rng.uniform(0.3, 3.0, size=2)
        a = FeatureStats(np.array([m1]), np.array([[s1 ** 2]]))
        b = FeatureStats(np.array([m2]), np.array([[s2 ** 2]]))
        closed = max(closed, abs(frechet_distance(a, b)
                                 - ((m1 - m2) ** 2 + (s1 - s2) ** 2)))

    model = scenario_model(S=16, C=4)
    clips = sample_clips(model, Condition.SOURCE, 200, 99)
    self_fid = max(evaluate(clips, clips, 200, 0).fid_kinetic,
                   evaluate(clips, clips, 200, 0).fid_geometric)

    sqrt_err = 0.0
    for dim in (5, 12, 20):
        m = rng.normal(size=(dim, dim))
        cov = m @ m.T + 0.05 * np.eye(dim)
        root = psd_sqrt(cov)
        sqrt_err = max(sqrt_err, float(np.linalg.norm(root @ root - cov, "fro")
                                       / np.linalg.norm(cov, "fro")))

    single = {"S": 16, "C": 4,
              "c0": {"kind": "components",
                     "components": [{"weight": 1.0, "mean": 0.0,
                                     "variance": 1.0}]},
              "c1": {"kind": "toy"}}
    null_model = scenario_model(**single)
    null = []
    for rep in range(30):
        a = sample_clips(null_model, Condition.SOURCE, 500, 5000 + 2 * rep)
        b = sample_clips(null_model, Condition.SOURCE, 500, 5001 + 2 * rep)
        null.append(evaluate(a, b, 100, rep).fid_kinetic)
    threshold = float(np.mean(null) + 5.0 * np.std(null))
    a = sample_clips(null_model, Condition.SOURCE, 500, 8888)
    b = sample_clips(null_model, Condition.SOURCE, 500, 8889)
    observed = evaluate(a, b, 100, 0).fid_kinetic

    ok = (closed <= 1e-10 and self_fid <= 1e-8 and sqrt_err <= 1e-8
          and observed < threshold)
    report(9, ok, f"1-D closed form {closed:.2e}, self-FID {self_fid:.2e}, "
                  f"sqrt reconstruction {sqrt_err:.2e}, null FID "
                  f"{observed:.3f} < threshold {threshold:.3f}")


def test_criterion_10_cli_determinism(tmp_path):
    scenario_path = tmp_path / "scenario.json"
    scenario_path.write_text(json.dumps({"schedule": {"N": 10},
                                         "eval": {"n_clips": 8,
                                                  "n_pairs": 50}}))
    csvs = ("omega.csv", "energy.csv", "segments.csv", "long_sequence.csv")
    identical = True
    for method in ("mdpa", "sine"):
        args = ["generate", "--scenario", str(scenario_path),
                "--method", method, "--seed", "17"]
        assert main(args + ["--out", str(tmp_path / f"{method}_a")]) == 0
        assert main(args + ["--out", str(tmp_path / f"{method}_b")]) == 0
        for name in csvs:
            if ((tmp_path / f"{method}_a" / name).read_bytes()
                    != (tmp_path / f"{method}_b" / name).read_bytes()):
                identical = False
    report(10, identical,
           f"repeated runs byte-identical across {len(csvs)} CSVs x 2 methods")
