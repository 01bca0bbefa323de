"""Compare optimized mixing against the fixed heuristic schedules.

Pools sliding-window clips from a handful of runs per method, evaluates them
against class-balanced ground-truth clips, and prints a compact table of both
Frechet distances, both diversities, and the peak control energy.  This is a
small-scale version of what `pathmix compare` writes to CSV.

Run with: python3 demos/02_method_comparison.py  (a few seconds)
"""

import numpy as np

from pathmix import (Condition, baseline_sample, evaluate, optimized_sample,
                     sample_clips, scenario_from_dict, slice_windows)

N_RUNS = 25
scenario = scenario_from_dict({"eval": {"n_clips": 100}})
model = scenario.model
S = scenario.layout.S

gt = np.concatenate([sample_clips(model, Condition.SOURCE, 50, 1),
                     sample_clips(model, Condition.TARGET, 50, 2)])

print(f"{'method':<10} {'FID_k':>8} {'FID_m':>8} {'Div_k':>7} {'Div_m':>7}"
      f" {'peak energy':>12}")
for mi, method in enumerate(("linear", "sigmoid", "sine", "mdpa")):
    clips, peak = [], 0.0
    for r in range(N_RUNS):
        seed = int(np.random.SeedSequence(
            entropy=scenario.seed, spawn_key=(mi, r)).generate_state(1)[0])
        if method == "mdpa":
            result = optimized_sample(scenario, seed)
        else:
            result = baseline_sample(scenario, method, seed)
        clips.extend(slice_windows(result.long_sequence, S, S // 2))
        peak = max(peak, max(e.total for e in result.energy_trace))
    rep = evaluate(np.asarray(clips[:100]), gt, scenario.eval_n_pairs,
                   scenario.seed)
    print(f"{method:<10} {rep.fid_kinetic:8.3f} {rep.fid_geometric:8.2f}"
          f" {rep.div_kinetic:7.3f} {rep.div_geometric:7.3f} {peak:12.3f}")

print("\nOptimized mixing trades kinetic fidelity for better geometric")
print("fidelity: the optimizer keeps interior segments close to the")
print("unconditional path and the stitching cost, which shrinks the")
print("root-drift mismatch that dominates FID_m.")
