"""Scenario files, the mixture of each domain spec, and run persistence.

Scenarios are JSON; run artifacts are a JSON manifest plus CSV tables for the
sampled tensors and traces.  All floats are serialized with 17 significant
digits so the text round-trips 64-bit values exactly; only the manifest's
``wall_time`` and ``created_at`` vary between equal runs.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import numbers
from dataclasses import asdict, astuple, dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

from .control import ControlConfig
from .errors import ScenarioError
from .mixtures import VARIANCE_FLOOR, ConditionModel, GaussianMixture
from .optim import OptimizerConfig
from .sampling import MAX_LAYOUT_VALUES, RunResult, SegmentLayout
from .schedules import (NoiseSchedule, TimestepPlan, build_cosine_schedule,
                        select_ddim_timesteps)

# The scenario's domains defaults: each condition's toy spec and the prior
# p0.  The source puts two low-frequency sinusoid cycles per segment and the
# target six, with equal variances DEFAULT_VARIANCE and distinct linear drifts
# on the root channel so root alignment is non-trivial.  Whole cycle counts
# over the half-segment overlap keep the sinusoids periodic across stitched
# boundaries, so the stitch cost acts as a smoothness penalty rather than
# favoring sign-flipped neighbors.
DOMAIN_DEFAULTS = {"c0": {"kind": "toy", "cycles": 2.0, "root_drift": 0.5},
                   "c1": {"kind": "toy", "cycles": 6.0, "root_drift": 1.5},
                   "p0": 0.5}
DEFAULT_VARIANCE = 0.05  # of a toy domain or a component entry

# Largest |mean|, |root_drift| and component weight accepted at load;
# variances up to its square.  The latent gradient Adam squares grows with
# w_T times the square of the predictions' scale: at control.w_T's bound of
# 1e100 a mean of 1e27 overflows the second moment, and at w_T = 1 one of
# about 1e71 does, so this bound leaves seven orders of magnitude.  Weights
# are normalized by their sum, which this bound keeps finite.
MAX_DOMAIN_SCALE = 1e20

DEFAULTS = {
    "layout": {"K": 4, "S": 16, "C": 4, "root_channel": 0},
    "domains": DOMAIN_DEFAULTS,
    "schedule": {"T": 1000, "N": 50},
    "optimizer": asdict(OptimizerConfig()),
    "control": asdict(ControlConfig()),
    "eval": {"n_clips": 200, "n_pairs": 2000},
    "seed": 0,
}

# comparison.csv's rows; the entries after ground_truth are the --method
# names, and each method's runs are seeded by its index here.
METHOD_ORDER = ("ground_truth", "linear", "sigmoid", "sine", "mdpa")


@dataclass(frozen=True)
class Scenario:
    """A validated scenario; build one with ``scenario_from_dict``, which also
    fills ``values`` so that it always agrees with the typed fields."""

    layout: SegmentLayout
    total_steps: int    # T
    ddim_steps: int     # N
    optimizer: OptimizerConfig
    control: ControlConfig
    eval_n_clips: int
    eval_n_pairs: int
    seed: int
    values: str         # the merged, typed scenario as canonical JSON

    def __post_init__(self):
        if self.seed < 0:
            raise ScenarioError(f"seed must be >= 0, got {self.seed}")
        self.model  # built now, so that a bad domain spec fails here

    def build_schedule(self) -> NoiseSchedule:
        return build_cosine_schedule(self.total_steps)

    def build_plan(self, schedule: NoiseSchedule) -> TimestepPlan:
        return select_ddim_timesteps(schedule, self.ddim_steps)

    def build_model(self) -> ConditionModel:
        domains, lay = self.to_dict()["domains"], self.layout
        return ConditionModel(
            *(_mixture_from_spec(domains[name], lay.S, lay.C,
                                 lay.root_channel, f"domains.{name}")
              for name in ("c0", "c1")),
            domains["p0"])

    # Built once per scenario and shared by all of its runs.
    @cached_property
    def schedule(self) -> NoiseSchedule:
        return self.build_schedule()

    @cached_property
    def plan(self) -> TimestepPlan:
        return self.build_plan(self.schedule)

    @cached_property
    def model(self) -> ConditionModel:
        return self.build_model()

    def to_dict(self) -> dict:
        """A fresh copy of the scenario's values, safe to modify."""
        return json.loads(self.values)

    @property
    def fingerprint(self) -> str:
        return hashlib.sha256(self.values.encode()).hexdigest()


def _toy_mean(S: int, C: int, cycles: float, root_drift: float,
              root_channel: int) -> np.ndarray:
    """Sinusoidal channel trajectories plus a linear drift on the root channel."""
    s = np.arange(S, dtype=np.float64)
    mean = np.sin(2.0 * np.pi * cycles * s[:, None] / S
                  + np.pi * np.arange(C) / C)
    mean[:, root_channel] = root_drift * s / max(S - 1, 1)
    return mean


def _finite(spec: dict, key: str, where: str, default=None, shape=(),
            least=-np.inf, most=np.inf):
    """``spec[key]`` (or ``default``) as finite float64 in [least, most]
    broadcast to ``shape``; otherwise a ScenarioError names where.key."""
    value = spec.get(key, default)
    try:
        array = np.broadcast_to(np.asarray(value, dtype=np.float64), shape)
    except (TypeError, ValueError, OverflowError):  # e.g. a 400-digit int
        array = np.array(np.nan)
    if isinstance(value, (bool, str)) or not np.all(np.isfinite(array)):
        raise ScenarioError(
            f"{where}.{key} must be a finite number (shape {shape})")
    if np.any(array < least):
        raise ScenarioError(f"{where}.{key} must be >= {least}")
    if np.any(array > most):
        raise ScenarioError(f"{where}.{key} must be <= {most:g}")
    return array


def _known(spec: dict, keys: set, where: str):
    """A ScenarioError naming where.key for each key not in ``keys``."""
    unknown = sorted(set(spec) - keys)
    if unknown:
        raise ScenarioError("unknown key(s): " + ", ".join(
            f"{where}.{key}" for key in unknown))


def _mixture_from_spec(spec: dict, S: int, C: int, root_channel: int,
                       where: str) -> GaussianMixture:
    """The mixture of one domain spec, a toy spec already merged over its
    DOMAIN_DEFAULTS entry; a ScenarioError names where.key."""
    if not isinstance(spec, dict):
        raise ScenarioError(f"{where} must be an object, got {spec!r}")
    kind = spec.get("kind")
    if kind == "toy":
        _known(spec, {"kind", "cycles", "root_drift", "variance"}, where)
        mean = _toy_mean(S, C, _finite(spec, "cycles", where),
                         _finite(spec, "root_drift", where,
                                 least=-MAX_DOMAIN_SCALE,
                                 most=MAX_DOMAIN_SCALE), root_channel)
        var = _finite(spec, "variance", where, DEFAULT_VARIANCE, (),
                      VARIANCE_FLOOR, MAX_DOMAIN_SCALE ** 2)
        return GaussianMixture(np.array([1.0]), mean[None],
                               np.full((1, S, C), var))
    if kind == "components":
        _known(spec, {"kind", "components"}, where)
        comps = spec.get("components", [])
        if not (isinstance(comps, list) and comps
                and all(isinstance(c, dict) for c in comps)):
            raise ScenarioError(
                f"{where}.components must be a non-empty list of objects")
        parts = [(c, f"{where}.components[{i}]") for i, c in enumerate(comps)]
        for c, n in parts:
            _known(c, {"weight", "mean", "variance"}, n)
        weights = np.array([_finite(c, "weight", n, least=0,
                                    most=MAX_DOMAIN_SCALE) for c, n in parts])
        if not weights.sum() > 0:
            raise ScenarioError(
                f"{where} component weights must have a positive sum")
        means = np.stack([_finite(c, "mean", n, None, (S, C),
                                  least=-MAX_DOMAIN_SCALE,
                                  most=MAX_DOMAIN_SCALE) for c, n in parts])
        variances = np.stack([_finite(c, "variance", n, DEFAULT_VARIANCE,
                                      (S, C), VARIANCE_FLOOR,
                                      MAX_DOMAIN_SCALE ** 2)
                              for c, n in parts])
        return GaussianMixture(weights / weights.sum(), means, variances)
    raise ScenarioError(f"{where}.kind: unknown domain kind {kind!r}")


def _typed(name: str, value, kind: type):
    """``value`` as ``kind`` or a ScenarioError; ints may be integral floats."""
    if kind is int and isinstance(value, float) and value.is_integer():
        value = int(value)
    base = {int: numbers.Integral, float: numbers.Real}.get(kind, kind)
    if not isinstance(value, base) or (isinstance(value, bool)
                                       and kind is not bool):
        raise ScenarioError(f"{name} must be {kind.__name__}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:
        raise ScenarioError(f"{name} is too large for a {kind.__name__}") \
            from None


def _merge_section(name: str, raw: dict, defaults: dict) -> dict:
    """``defaults`` updated from ``raw``, each value of the default's type."""
    if not isinstance(raw, dict):
        raise ScenarioError(f"{name!r} must be a JSON object, got {raw!r}")
    _known(raw, set(defaults), name)
    merged = dict(defaults)
    merged.update(raw)
    for key, default in defaults.items():
        if not isinstance(default, dict):
            merged[key] = _typed(f"{name}.{key}", merged[key], type(default))
    return merged


def _check_counts(T: int, N: int, J: int, layout: SegmentLayout,
                  n_clips: int, n_pairs: int):
    """Range and size checks of the step and sample counts, before anything
    of their size is allocated: T+1 schedule values, (J+1)*K latent values
    per step, n_clips*S*C clip values and n_pairs diversity pairs."""
    for key, got, least in zip(("schedule.T", "eval.n_clips", "eval.n_pairs"),
                               (T, n_clips, n_pairs), (2, 2, 1)):
        if got < least:
            raise ScenarioError(f"{key} must be >= {least}, got {got}")
    if not 1 <= N <= T:
        raise ScenarioError(f"schedule.N must lie in [1, T] = [1, {T}], "
                            f"got {N}")
    for names, size in (
            ("schedule.T gives T+1", T + 1),
            ("optimizer.J and layout.K give (J+1)*K", (J + 1) * layout.K),
            ("eval.n_clips, layout.S and layout.C give n_clips*S*C",
             n_clips * layout.S * layout.C),
            ("eval.n_pairs gives n_pairs", n_pairs)):
        if size > MAX_LAYOUT_VALUES:
            raise ScenarioError(f"{names} = {size} values, more than the "
                                f"bound of {MAX_LAYOUT_VALUES}")


def scenario_from_dict(raw: dict) -> Scenario:
    try:
        top = _merge_section("scenario", raw, DEFAULTS)
        for name, default in DEFAULTS.items():
            if isinstance(default, dict):
                top[name] = _merge_section(name, top[name], default)
        domains = top["domains"]
        for name in ("c0", "c1"):  # each toy spec over its domain's defaults
            spec = domains[name]
            if isinstance(spec, dict) and spec.get("kind", "toy") == "toy":
                domains[name] = {**DOMAIN_DEFAULTS[name], **spec}
        layout = SegmentLayout(**top["layout"])
        T, N = top["schedule"]["T"], top["schedule"]["N"]
        _check_counts(T, N, top["optimizer"]["J"], layout,
                      top["eval"]["n_clips"], top["eval"]["n_pairs"])
        return Scenario(
            layout=layout, total_steps=T, ddim_steps=N,
            optimizer=OptimizerConfig(**top["optimizer"]),
            control=ControlConfig(**top["control"]),
            eval_n_clips=top["eval"]["n_clips"],
            eval_n_pairs=top["eval"]["n_pairs"],
            seed=top["seed"],
            values=json.dumps(top, sort_keys=True, separators=(",", ":")),
        )
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc


def load_scenario(path) -> Scenario:
    path = Path(path)
    try:
        raw = json.loads(path.read_text())
    except OSError as exc:  # missing, a directory, unreadable
        raise ScenarioError(
            f"cannot read scenario file {path}: {exc.strerror}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{path}: parse error at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}") from exc
    except ValueError as exc:  # e.g. an integer of more than 4300 digits
        raise ScenarioError(f"{path}: {exc}") from exc
    return scenario_from_dict(raw)


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _write_csv(path: Path, header: list[str], rows):
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(str(c) if isinstance(c, (str, int, np.integer))
                              else _fmt(c) for c in row))
    path.write_text("\n".join(lines) + "\n")


# what write_run writes into a run directory
RUN_FILES = ("segments.csv", "long_sequence.csv", "omega.csv", "energy.csv",
             "manifest.json")


def write_run(result: RunResult, out_dir) -> Path:
    """Persist one run: manifest.json plus CSV tables for the tensors."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    K, S, C = result.final_segments.shape
    chan_cols = [f"c{j}" for j in range(C)]
    _write_csv(out / "segments.csv", ["segment", "frame"] + chan_cols,
               ((k, s, *result.final_segments[k, s])
                for k in range(K) for s in range(S)))
    _write_csv(out / "long_sequence.csv", ["frame"] + chan_cols,
               ((i, *row) for i, row in enumerate(result.long_sequence)))
    N = len(result.omega_grid)
    _write_csv(out / "omega.csv",
               ["step"] + [f"omega_{k}" for k in range(K)],
               ((n, *result.omega_grid[n]) for n in range(N)))
    _write_csv(out / "energy.csv", ["step", "transient", "terminal", "total"],
               ((n, e.transient, e.terminal, e.total)
                for n, e in enumerate(result.energy_trace)))

    manifest = {
        "seed": result.seed,
        "fingerprint": result.fingerprint,
        "wall_time": result.wall_time,
        "created_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    manifest_path = out / "manifest.json"
    manifest_path.write_text(json.dumps(manifest, indent=2) + "\n")
    return manifest_path


def export_comparison_table(reports: dict, path) -> Path:
    """CSV comparing metric reports across methods, one row per method."""
    if not reports:
        raise ScenarioError("no reports to export")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    order = [m for m in METHOD_ORDER if m in reports]
    order += sorted(set(reports) - set(order))
    header = [f.name for f in fields(reports[order[0]])]
    _write_csv(path, ["method"] + header,
               ((method, *astuple(reports[method])) for method in order))
    return path
