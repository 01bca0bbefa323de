"""Wrap points per library module and the per-layer metrics of a traced run.

Each point wraps a function at the name its caller looks it up under, so a
span covers exactly the calls that caller makes.  A point whose attribute
does not exist in the checked-out version stops the run (see ``Tracer``).

Metric conventions: ``*.calls`` are calls per request; ``*.us`` and ``*.ms``
are the median duration of one call; ``*.self_*`` are the median self time
(duration minus child spans) of one span; ``scenario.load.ms`` sums the
loading calls of a request.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .client import RUN_SPAN, RequestRecord
from .spans import END, INFO, NAME, REQUEST, REQUEST_SPAN, START, Point
from .spans import self_times


def _x_t_shape(args, kwargs, result):
    x_t = args[1] if len(args) > 1 else kwargs["x_t"]
    return np.shape(x_t)


def _result(args, kwargs, result):
    return result


def _out_dir(args, kwargs, result):
    return args[2] if len(args) > 2 else kwargs["out_dir"]


# Spans every request records, traced or not: the request's non-sampling
# steps, called at most a few times per request, and each sampling run.
_REQUEST_STEPS = (
    Point("pathmix.cli", "load_scenario", "scenario.load"),
    Point("pathmix.cli", "scenario_from_dict", "scenario.load"),
    Point("pathmix.cli", "sample_clips", "mixtures.sample_clips"),
    Point("pathmix.cli", "evaluate", "metrics.evaluate"),
    Point("pathmix.cli", "write_run", "scenario.write_run", _out_dir),
)


def _run_points(keep=None):
    return (Point("pathmix.cli", "optimized_sample", RUN_SPAN, keep),
            Point("pathmix.cli", "baseline_sample", RUN_SPAN, keep))


REQUEST_POINTS = _REQUEST_STEPS + _run_points()

# The traced run keeps each sampling result to check it.
LAYER_POINTS = _REQUEST_STEPS + _run_points(_result) + (
    Point("pathmix.cli", "slice_windows", "segments.slice_windows"),
    Point("pathmix.scenario", "build_cosine_schedule", "schedules.build"),
    Point("pathmix.sampling", "predict_x0", "mixtures.predict_x0", _x_t_shape),
    Point("pathmix.sampling", "optimize_mixing", "optim.optimize_mixing",
          _result),
    Point("pathmix.sampling", "control_energy", "control.control_energy"),
    Point("pathmix.optim", "transient_coefficients", "control.control_energy"),
    Point("pathmix.optim", "stitch_cost", "control.control_energy"),
    Point("pathmix.optim", "stitch_cost_aligned_gradient",
          "control.control_energy"),
    Point("pathmix.optim", "_QuadraticEnergy", "control.energy_model"),
    Point("pathmix.sampling", "ddim_step", "schedules.ddim_step"),
    Point("pathmix.sampling", "hard_stitch_project",
          "segments.hard_stitch_project"),
    Point("pathmix.sampling", "align_root", "segments.align_root"),
    Point("pathmix.optim", "align_root", "segments.align_root"),
    Point("pathmix.control", "align_root", "segments.align_root"),
    Point("pathmix.sampling", "assemble_crossfade",
          "segments.assemble_crossfade"),
)

# name -> unit, in report order
LAYER_METRICS = {
    "schedules.build.calls": "count",
    "schedules.build.ms": "ms",
    "schedules.ddim_step.calls": "count",
    "schedules.ddim_step.us": "us",
    "mixtures.predict_x0.calls": "count",
    "mixtures.predict_x0.us": "us",
    "mixtures.predict_x0.us_per_segment": "us",
    "mixtures.sample_clips.ms": "ms",
    "control.control_energy.calls": "count",
    "control.control_energy.us": "us",
    "control.energy_model.us": "us",
    "optim.optimize_mixing.calls": "count",
    "optim.optimize_mixing.us": "us",
    "optim.adam.self_us": "us",
    "optim.inner_iters": "count",
    "optim.useful_iter_frac": "frac",
    "segments.hard_stitch_project.us": "us",
    "segments.align_root.calls": "count",
    "segments.assemble_crossfade.us": "us",
    "segments.slice_windows.us": "us",
    "sampling.run.calls": "count",
    "sampling.run.ms": "ms",
    "sampling.self_ms": "ms",
    "metrics.evaluate.ms": "ms",
    "scenario.load.ms": "ms",
    "scenario.write_run.ms": "ms",
    "scenario.write_run.bytes": "bytes",
    "cli.request.self_ms": "ms",
    "trace.overhead_ms": "ms",
    "trace.untraced_run_ms": "ms",
    "trace.run_ms": "ms",
}


def _median(values) -> float:
    return float(np.median(values)) if len(values) else 0.0


def _mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def _best_iterate(step_trace) -> int:
    """Index of the first lowest-energy iterate, as optimize_mixing picks it."""
    totals = [energy.total for _, energy in step_trace]
    return totals.index(min(totals))


def _covered_ms(spans: list[list], own: np.ndarray) -> dict[int, list]:
    """Per request id, the time the named layers cover in each sampling run:
    the run span's duration minus its own self time, which no layer covers.
    Within the run, this equals the sum of the layers' self times."""
    covered: dict[int, list] = {}
    for i, span in enumerate(spans):
        if span[NAME] == RUN_SPAN:
            covered.setdefault(span[REQUEST], []).append(
                (span[END] - span[START] - own[i]) * 1e-6)
    return covered


def digest(spans: list[list], first: int, check_run, problems: list):
    """Replace the kept call results of one request's spans by the small
    numbers the metrics need, checking every sampling result on the way."""
    run_problems = set()
    for span in spans[first:]:
        info = span[INFO]
        if info is None:
            continue
        name = span[NAME]
        if name == RUN_SPAN:
            run_problems.update(check_run(info))
            span[INFO] = None
        elif name == "optim.optimize_mixing":
            trace = getattr(info, "step_trace", None)
            span[INFO] = (len(trace) - 1, _best_iterate(trace)) \
                if trace else None
        elif name == "mixtures.predict_x0":
            span[INFO] = int(np.prod(info[:-2]))
        elif name == "scenario.write_run":
            out = Path(info)
            span[INFO] = sum(p.stat().st_size for p in out.iterdir()) \
                if out.is_dir() else 0
    problems.extend(f"sampling run: {p}" for p in sorted(run_problems))


def layer_metrics(spans: list[list], traced: list[RequestRecord],
                  untraced: list[RequestRecord]) -> dict:
    """Per-layer metrics from the spans of the traced requests."""
    ids = {r.index for r in traced}
    own = self_times(spans)
    keep = [i for i, s in enumerate(spans) if s[REQUEST] in ids]
    by_name: dict[str, list[int]] = {}
    for i in keep:
        by_name.setdefault(spans[i][NAME], []).append(i)

    def calls(name):
        return len(by_name.get(name, ())) / len(ids)

    def durations(name, scale):
        return [(spans[i][END] - spans[i][START]) * scale
                for i in by_name.get(name, ())]

    def selfs(name, scale):
        return [own[i] * scale for i in by_name.get(name, ())]

    def infos(name):
        return [spans[i][INFO] for i in by_name.get(name, ())
                if spans[i][INFO] is not None]

    us, ms = 1e-3, 1e-6
    predict = [(spans[i][END] - spans[i][START]) * us / spans[i][INFO]
               for i in by_name.get("mixtures.predict_x0", ())
               if spans[i][INFO]]
    iters = infos("optim.optimize_mixing")
    load = {}
    for i in by_name.get("scenario.load", ()):
        rid = spans[i][REQUEST]
        load[rid] = load.get(rid, 0.0) + (spans[i][END] - spans[i][START]) * ms

    covered = _covered_ms(spans, own)

    values = {
        "schedules.build.calls": calls("schedules.build"),
        "schedules.build.ms": _median(durations("schedules.build", ms)),
        "schedules.ddim_step.calls": calls("schedules.ddim_step"),
        "schedules.ddim_step.us": _median(durations("schedules.ddim_step", us)),
        "mixtures.predict_x0.calls": calls("mixtures.predict_x0"),
        "mixtures.predict_x0.us": _median(durations("mixtures.predict_x0", us)),
        "mixtures.predict_x0.us_per_segment": _median(predict),
        "mixtures.sample_clips.ms": _median(
            durations("mixtures.sample_clips", ms)),
        "control.control_energy.calls": calls("control.control_energy"),
        "control.control_energy.us": _median(
            durations("control.control_energy", us)),
        "control.energy_model.us": _median(
            durations("control.energy_model", us)),
        "optim.optimize_mixing.calls": calls("optim.optimize_mixing"),
        "optim.optimize_mixing.us": _median(
            durations("optim.optimize_mixing", us)),
        "optim.adam.self_us": _median(selfs("optim.optimize_mixing", us)),
        "optim.inner_iters": _mean([n for n, _ in iters]),
        "optim.useful_iter_frac": _mean([best / n for n, best in iters if n]),
        "segments.hard_stitch_project.us": _median(
            durations("segments.hard_stitch_project", us)),
        "segments.align_root.calls": calls("segments.align_root"),
        "segments.assemble_crossfade.us": _median(
            durations("segments.assemble_crossfade", us)),
        "segments.slice_windows.us": _median(
            durations("segments.slice_windows", us)),
        "sampling.run.calls": calls(RUN_SPAN),
        "sampling.run.ms": _median(durations(RUN_SPAN, ms)),
        "sampling.self_ms": _median(selfs(RUN_SPAN, ms)),
        "metrics.evaluate.ms": _median(durations("metrics.evaluate", ms)),
        "scenario.load.ms": _median(list(load.values())),
        "scenario.write_run.ms": _median(durations("scenario.write_run", ms)),
        "scenario.write_run.bytes": _median(infos("scenario.write_run")),
        "cli.request.self_ms": _median(selfs(REQUEST_SPAN, ms)),
        "trace.overhead_ms": _median([(t.wall_s - u.wall_s) * 1e3
                                      for t, u in zip(traced, untraced)]),
        "trace.untraced_run_ms": _median([r.run_ms for r in untraced]),
        "trace.run_ms": _median([sum(covered.get(r.index, ())) / r.runs
                                 for r in traced]),
    }
    return {name: (values[name], unit) for name, unit in LAYER_METRICS.items()}


def accounting(spans: list[list], traced: list[RequestRecord],
               untraced: list[RequestRecord]) -> dict:
    """Do the traced layers' self times account for the untraced run time?

    For each pair of a traced and an untraced copy of one request, in ms per
    sampling run: ``gap`` is the untraced ``run_ms`` minus the time the
    named layers cover in the traced copy's runs, and ``overhead`` is the
    traced ``run_ms`` minus the untraced one.  The layers
    account for the run when the mean gap is at most the mean tracing
    overhead plus the one-sided 99% confidence bound of the mean gap, which
    allows for how far two executions of the same request differ on the
    machine.  Time no layer covers (``sampling.self_ms``) raises the gap
    above the overhead and fails the check once it exceeds that allowance.
    The check is one-sided: the gap is the uncovered time minus the
    overhead, and uncovered time is never negative.
    """
    from scipy import stats

    covered = _covered_ms(spans, self_times(spans))
    gaps, overheads = [], []
    for t, u in zip(traced, untraced):
        if t.failed or u.failed:
            continue
        gaps.append(u.run_ms - sum(covered[t.index]) / t.runs)
        overheads.append(t.run_ms - u.run_ms)
    n = len(gaps)
    if n < 2:
        return {"pairs": n, "ok": False, "gap_ms": float("nan"),
                "overhead_ms": float("nan"), "allowed_ms": float("nan")}
    gap, overhead = float(np.mean(gaps)), float(np.mean(overheads))
    bound = float(stats.t.ppf(0.99, n - 1)
                  * np.std(gaps, ddof=1) / np.sqrt(n))
    allowed = max(overhead, 0.0) + bound
    return {"pairs": n, "ok": gap <= allowed, "gap_ms": gap,
            "overhead_ms": overhead, "allowed_ms": allowed}
