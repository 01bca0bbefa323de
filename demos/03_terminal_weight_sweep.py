"""Show how the terminal stitching weight shapes the optimized mixing.

The per-step objective balances a transient term (stay near the unconditional
path) against w_T times the overlap stitching cost of the root-aligned mixed
predictions.  Sweeping w_T moves the optimized interior omegas between the
transient optimum and a smooth ramp, and the closed-form oracle shows where
the unconstrained quadratic optimum sits at one representative step.

Run with: python3 demos/03_terminal_weight_sweep.py
"""

from pathmix import (ControlConfig, SegmentPredictions, closed_form_oracle,
                     initial_segment_noise, optimized_sample, predict_x0,
                     scenario_from_dict)

print(f"{'w_T':>6}  final interior omegas   peak energy")
for w_T in (0.0, 0.5, 1.0, 5.0, 20.0):
    scenario = scenario_from_dict({"control": {"w_T": w_T}})
    result = optimized_sample(scenario, 3)
    omegas = "  ".join(f"{w:.3f}" for w in result.omega_grid[-1, 1:-1])
    peak = max(e.total for e in result.energy_trace)
    print(f"{w_T:6.1f}  [{omegas}]          {peak:10.3f}")

# the same trade-off, seen through the unconstrained quadratic optimum at a
# single mid-noise step
scenario = scenario_from_dict({})
schedule = scenario.schedule
model = scenario.model
t = 500
x_t = initial_segment_noise(scenario.layout, 3)  # stand-in noisy state
preds = SegmentPredictions(*predict_x0(model, x_t, t, schedule))

print(f"\nunconstrained quadratic optimum at t={t}:")
for w_T in (0.1, 1.0, 10.0):
    omega = closed_form_oracle(preds, t, ControlConfig(w_T=w_T), schedule)
    print(f"  w_T={w_T:5.1f} -> interior omega* = {omega[1:-1]}")
