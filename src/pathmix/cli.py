"""Command-line interface: generate, evaluate, compare, sweep, check.

Every subcommand is deterministic given an explicit seed and writes only
inside its --out directory.  Exit codes: 0 success, 1 runtime failure or
failing checks, 2 usage / configuration errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .checks import run_check
from .errors import NumericError, ScenarioError
from .metrics import evaluate
from .mixtures import Condition, sample_clips
from .sampling import baseline_sample, optimized_sample
from .scenario import (METHOD_ORDER, RUN_FILES, Scenario, _write_csv,
                       export_comparison_table, load_scenario,
                       scenario_from_dict, write_run)
from .segments import slice_windows


def _load(args) -> Scenario:
    if args.scenario is None:
        scenario = scenario_from_dict({})
    else:
        scenario = load_scenario(args.scenario)
    if args.seed is not None:
        raw = scenario.to_dict()
        raw["seed"] = args.seed
        scenario = scenario_from_dict(raw)
    return scenario


def _check_out(out: Path, files):
    """A ScenarioError naming --out and the path, raised before any sampling
    run, if a path the command writes exists as the wrong kind: ``out``'s
    nearest existing path or the directory of one of the ``files`` under
    ``out`` as anything but a directory, or one of the files as one."""
    nearest = next(p for p in (out, *out.parents) if os.path.lexists(p))
    for path in (nearest, *((out / f).parent for f in files)):
        if os.path.lexists(path) and not path.is_dir():
            raise ScenarioError(f"--out {out}: {path} is not a directory")
    for path in (out / f for f in files):
        if path.is_dir():
            raise ScenarioError(f"--out {out}: {path} is a directory")


def _scorable(scenario: Scenario) -> Scenario:
    """``scenario`` if ``evaluate`` can score its clips, else a ScenarioError
    raised before any sampling run."""
    for key, value, least in (("layout.S", scenario.layout.S, 4),
                              ("layout.C", scenario.layout.C, 2)):
        if value < least:
            raise ScenarioError(
                f"{key} must be >= {least} to score clips, got {value}")
    return scenario


def _run_method(scenario: Scenario, method: str, seed: int):
    if method == "mdpa":
        return optimized_sample(scenario, seed)
    return baseline_sample(scenario, method, seed)


def _sub_seed(base: int, method: str, run_index: int) -> int:
    order = METHOD_ORDER.index(method)
    ss = np.random.SeedSequence(entropy=base, spawn_key=(order, run_index))
    return int(ss.generate_state(1)[0])


def _gt_clips(scenario: Scenario, base_seed: int) -> np.ndarray:
    """Class-balanced ground truth: half the clips from each condition."""
    model = scenario.model
    half = scenario.eval_n_clips // 2
    c0 = sample_clips(model, Condition.SOURCE, half, base_seed + 1)
    c1 = sample_clips(model, Condition.TARGET, scenario.eval_n_clips - half,
                      base_seed + 2)
    return np.concatenate([c0, c1])


def _method_clips(scenario: Scenario, method: str, n_runs: int) -> np.ndarray:
    S = scenario.layout.S
    clips = []
    for r in range(n_runs):
        if len(clips) >= scenario.eval_n_clips:  # later runs would be cut
            break
        result = _run_method(scenario, method,
                             _sub_seed(scenario.seed, method, r))
        clips.extend(slice_windows(result.long_sequence, S, S // 2))
    return np.asarray(clips[:scenario.eval_n_clips])


def _n_runs(args, scenario: Scenario) -> int:
    if args.runs is None:  # one run yields K sliding windows of the sequence
        return -(-scenario.eval_n_clips // scenario.layout.K)
    if args.runs < 1:
        raise ScenarioError(f"--runs must be >= 1, got {args.runs}")
    return args.runs


def cmd_generate(args) -> int:
    _check_out(args.out, RUN_FILES)
    scenario = _load(args)
    result = _run_method(scenario, args.method, scenario.seed)
    write_run(result, out_dir=args.out)
    print(f"wrote run artifacts to {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    _check_out(args.out, ["metrics.json"])
    scenario = _scorable(_load(args))
    gen = _method_clips(scenario, args.method, _n_runs(args, scenario))
    gt = _gt_clips(scenario, scenario.seed)
    report = evaluate(gen, gt, scenario.eval_n_pairs, scenario.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.json").write_text(
        json.dumps(asdict(report), indent=2) + "\n")
    print(f"{args.method}: fid_kinetic {report.fid_kinetic:.4f}, "
          f"fid_geometric {report.fid_geometric:.4f}")
    return 0


def cmd_compare(args) -> int:
    _check_out(args.out, ["comparison.csv"])
    scenario = _scorable(_load(args))
    n_runs = _n_runs(args, scenario)
    gt = _gt_clips(scenario, scenario.seed)
    reports = {"ground_truth": evaluate(gt, gt, scenario.eval_n_pairs,
                                        scenario.seed)}
    for method in METHOD_ORDER[1:]:
        gen = _method_clips(scenario, method, n_runs)
        reports[method] = evaluate(gen, gt, scenario.eval_n_pairs,
                                   scenario.seed)
    out = Path(args.out)
    path = export_comparison_table(reports, out / "comparison.csv")
    print(f"wrote {path}")
    return 0


SWEEP_KEYS = {"w_T": ("control", "w_T"), "J": ("optimizer", "J"),
              "K": ("layout", "K"), "lr": ("optimizer", "lr")}


def _parse_sweep(spec: str):
    if "=" not in spec:
        raise ScenarioError("sweep must look like KEY=V1,V2,...")
    key, _, values = spec.partition("=")
    if key not in SWEEP_KEYS:
        raise ScenarioError(
            f"sweep key must be one of {sorted(SWEEP_KEYS)}, got {key!r}")
    parsed, named = [], {}
    for token in values.split(","):
        try:
            parsed.append(float(token))
        except ValueError:
            raise ScenarioError(
                f"sweep {key} needs numeric values, got {token!r}") from None
        other = named.setdefault(f"{parsed[-1]:g}", token)  # run dir suffix
        if len(named) < len(parsed):
            raise ScenarioError(f"--sweep {key}: values {other!r} and "
                                f"{token!r} would share one run directory")
    return key, parsed


def _variant(scenario: Scenario, key: str, value: float) -> Scenario:
    section, field = SWEEP_KEYS[key]
    raw = scenario.to_dict()
    raw[section][field] = value
    try:
        return scenario_from_dict(raw)
    except ScenarioError as exc:
        raise ScenarioError(f"sweep {key}={value:g}: {exc}") from exc


def cmd_sweep(args) -> int:
    scenario = _load(args)
    key, values = _parse_sweep(args.sweep)
    # every variant is built first, so that a bad value writes nothing
    variants = [_variant(scenario, key, value) for value in values]
    out = Path(args.out)
    _check_out(out, ["summary.csv", *(f"{key}_{value:g}/{name}"
                                      for value in values
                                      for name in RUN_FILES)])
    rows = []
    for value, variant in zip(values, variants):
        result = optimized_sample(variant, variant.seed)
        run_dir = out / f"{key}_{value:g}"
        write_run(result, out_dir=run_dir)
        max_energy = max(e.total for e in result.energy_trace)
        final_energy = result.energy_trace[-1].total
        rows.append((value, max_energy, final_energy))
    _write_csv(out / "summary.csv", [key, "max_energy", "final_energy"], rows)
    print(f"wrote {out / 'summary.csv'} ({len(values)} runs)")
    return 0


def cmd_check(args) -> int:
    return run_check()


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pathmix",
        description="Segmented diffusion sampling with optimized guidance "
                    "mixing: generation, evaluation, and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, handler, method=False, runs=False, sweep=False):
        p.set_defaults(handler=handler)
        p.add_argument("--scenario", type=Path, default=None,
                       help="scenario JSON (defaults to the built-in toy)")
        p.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")
        if method:
            p.add_argument("--method", choices=METHOD_ORDER[1:],
                           default="mdpa")
        if runs:
            p.add_argument("--runs", type=int, default=None,
                           help="most sampling runs to pool; sampling stops "
                                "once eval.n_clips windows are held")
        if sweep:
            p.add_argument("--sweep", required=True, metavar="KEY=V1,V2,...",
                           help=f"scalar to vary, one of {sorted(SWEEP_KEYS)}")
        p.add_argument("--out", type=Path, required=True,
                       help="output directory")

    common(sub.add_parser("generate", help="run one sampler and write "
                          "run artifacts"), cmd_generate, method=True)
    common(sub.add_parser("evaluate", help="pool runs for one method and "
                          "write metrics"), cmd_evaluate, method=True,
           runs=True)
    common(sub.add_parser("compare", help="evaluate all methods against "
                          "ground truth"), cmd_compare, runs=True)
    common(sub.add_parser("sweep", help="vary one scalar over a list of "
                          "values"), cmd_sweep, sweep=True)
    sub.add_parser("check", help="run the verification checks").set_defaults(
        handler=cmd_check)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
