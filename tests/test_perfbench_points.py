"""Every function the benchmark's tracer wraps must exist and be reached.

``perfbench/layers.py`` lists the library attributes a traced benchmark run
wraps; a missing one stops that run.  Resolving them here makes deleting or
renaming a wrapped function fail the test suite instead.  A refactor that
routes a call around its wrap point would otherwise fail only the traced
run's accounting, so a tiny request of each kind the benchmark makes runs
under ``perfbench.spans.Tracer`` with one span name per point.  The same
requests run under the traced benchmark's own points too, so that its keep
functions and ``perfbench.layers.digest`` read what the library hands them.
Only ``perfbench`` is read; nothing under it changes.
"""

import contextlib
import importlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.gate import check_run  # noqa: E402
from perfbench.layers import LAYER_POINTS, REQUEST_POINTS, digest  # noqa: E402
from perfbench.spans import INFO, NAME, Point, Tracer  # noqa: E402
from pathmix.cli import main  # noqa: E402

POINTS = sorted({(p.module, p.attr) for p in REQUEST_POINTS + LAYER_POINTS})

TINY = {"layout": {"K": 3, "S": 4, "C": 2},
        "schedule": {"T": 4, "N": 1},
        "optimizer": {"J": 1},
        "eval": {"n_clips": 2, "n_pairs": 1}}

# the optimized and the fixed-schedule run of ``generate``, and a pooled,
# scored ``evaluate``: between them they take every traced path
REQUESTS = [["generate", "--method", "mdpa"], ["generate", "--method", "sine"],
            ["evaluate", "--method", "sine", "--runs", "1"]]


@pytest.mark.parametrize("module,attr", POINTS,
                         ids=[f"{m}.{a}" for m, a in POINTS])
def test_wrap_point_resolves(module, attr):
    assert callable(getattr(importlib.import_module(module), attr))


def run_requests(tracer, tmp_path, after=lambda first: None):
    """Each of REQUESTS on the tiny scenario under ``tracer``, inside its
    request span; ``after(first_span)`` runs after each one."""
    scenario = tmp_path / "tiny.json"
    scenario.write_text(json.dumps(TINY))
    with tracer, contextlib.redirect_stdout(io.StringIO()):
        for i, argv in enumerate(REQUESTS):
            with tracer.request(i) as first:
                assert main(argv + ["--scenario", str(scenario), "--seed",
                                    "1", "--out", str(tmp_path / str(i))]) == 0
            after(first)


def test_every_wrap_point_is_reached(tmp_path):
    names = [f"{module}:{attr}" for module, attr in POINTS]
    tracer = Tracer(Point(module, attr, name)
                    for (module, attr), name in zip(POINTS, names))
    run_requests(tracer, tmp_path)
    recorded = {span[NAME] for span in tracer.spans}
    assert [name for name in names if name not in recorded] == []


def test_benchmark_keep_functions_digest(tmp_path):
    # a keep function that misreads its call (a positional ``out_dir``, a
    # renamed ``step_trace``) raises or yields an empty info here
    tracer = Tracer(LAYER_POINTS)
    problems = []
    run_requests(tracer, tmp_path, lambda first: digest(
        tracer.spans, first, lambda result: check_run(result, TINY),
        problems))
    assert problems == []
    infos = {}
    for span in tracer.spans:
        infos.setdefault(span[NAME], []).append(span[INFO])
    J = TINY["optimizer"]["J"]
    assert infos["optim.optimize_mixing"]
    for info in infos["optim.optimize_mixing"]:
        assert info[0] == J and 0 <= info[1] <= J
    for name in ("mixtures.predict_x0", "scenario.write_run"):
        assert infos[name] and all(info > 0 for info in infos[name])
