"""Inference-time optimization of segment-wise guidance mixing in a DDIM
sampler, with closed-form Gaussian-mixture condition models, stitching
constraints, and a Frechet-distance evaluation suite."""

from .control import (ControlConfig, EnergyBreakdown, SegmentPredictions,
                      control_energy, guidance_delta, heuristic_omega,
                      lambda_weight, reverse_kl_check, stitch_cost)
from .errors import InvalidConfigError, NumericError, ScenarioError
from .metrics import (EvalReport, FeatureStats, diversity, dynamics_stats,
                      evaluate, frechet_distance, geometric_features,
                      kinetic_features, standardize)
from .mixtures import (Condition, ConditionModel, GaussianMixture, predict_x0,
                       sample_clips)
from .optim import (MixingSchedule, OptimizerConfig, closed_form_oracle,
                    energy_gradient, optimize_mixing)
from .sampling import (RunResult, SegmentLayout, baseline_sample,
                       initial_segment_noise, optimized_sample)
from .scenario import (Scenario, export_comparison_table, load_scenario,
                       scenario_from_dict, write_run)
from .schedules import (NoiseSchedule, TimestepPlan, build_cosine_schedule,
                        ddim_step, eps_of_x0, forward_diffuse,
                        select_ddim_timesteps, tweedie_x0)
from .segments import (align_root, assemble_crossfade, hard_stitch_project,
                       slice_windows)

__version__ = "0.1.0"
