"""Property test of the CLI boundary: any string given to ``--runs``,
``--seed`` or ``--sweep`` exits 0 or 2, never 1 and never with a traceback.

The scenario is tiny (K=3, S=4, C=2, one DDIM step, one Adam step), so a
request that is accepted runs in milliseconds.  Numbers that would be valid
are capped at 64 in magnitude, as in ``test_scenario_properties.py``, so that
an accepted ``--runs``, ``J`` or ``K`` stays cheap; non-finite values and
10**400 stand for the rest.  ``w_T`` and the scale of the domain data are
the values whose size alone could fail a run: Adam's second moment
overflows past w_T of about 1e152, or a mean of about 1e27 at w_T = 1e100,
so the loader caps them at ``MAX_TERMINAL_WEIGHT`` and ``MAX_DOMAIN_SCALE``,
and the last test runs pairs of a weight and a scale up to 1e300.
"""

import contextlib
import io
import json
import math
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathmix.cli import SWEEP_KEYS, main
from pathmix.control import MAX_TERMINAL_WEIGHT
from pathmix.scenario import MAX_DOMAIN_SCALE

PROFILE = settings(derandomize=True, max_examples=60, deadline=None,
                   database=None)

TINY = {"layout": {"K": 3, "S": 4, "C": 2},
        "schedule": {"T": 4, "N": 1},
        "optimizer": {"J": 1},
        "eval": {"n_clips": 2, "n_pairs": 1}}

ODD = ["", " ", "-", "--", "-h", "1e400", "nan", "inf", "-inf", "0x10",
       " 2 ", "+1", "1_0", "٣", "1" * 5000, "2.0", "--out"]


@pytest.fixture(scope="module")
def paths(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_properties")
    scenario = root / "tiny.json"
    scenario.write_text(json.dumps(TINY))
    return str(scenario), str(root / "out")


def exit_code(argv) -> int:
    """The exit code of ``pathmix argv``, its output discarded."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            return main(argv)
        except SystemExit as exc:  # argparse: usage error or --help
            return exc.code


def numbers(magnitude: int = 64):
    return (st.integers(-magnitude, magnitude).map(str)
            | st.floats(-magnitude, magnitude).map(repr))


TOKENS = numbers() | st.sampled_from(ODD) | st.text(max_size=6)


@st.composite
def sweep_specs(draw):
    key = draw(st.sampled_from(sorted(SWEEP_KEYS)) | st.text(max_size=4))
    values = draw(st.lists(st.integers(0, 8).map(str) | numbers(),
                           min_size=1, max_size=3)
                  | st.lists(TOKENS, min_size=1, max_size=3))
    return f"{key}={','.join(values)}"


@PROFILE
@given(runs=st.integers(-64, 3).map(str) | st.integers(max_value=0).map(str)
       | st.sampled_from(ODD) | st.text(max_size=8))
def test_runs_string_exits_0_or_2(paths, runs):
    scenario, out = paths
    assert exit_code(["evaluate", "--scenario", scenario, "--method", "sine",
                      "--runs", runs, "--out", out]) in (0, 2)


@PROFILE
@given(seed=st.integers().map(str) | st.sampled_from(ODD)
       | st.text(max_size=8))
def test_seed_string_exits_0_or_2(paths, seed):
    scenario, out = paths
    assert exit_code(["generate", "--scenario", scenario, "--seed", seed,
                      "--out", out]) in (0, 2)


@PROFILE
@given(spec=sweep_specs() | st.sampled_from(ODD) | st.text(max_size=12))
def test_sweep_string_exits_0_or_2(paths, spec):
    scenario, out = paths
    assert exit_code(["sweep", "--scenario", scenario, "--sweep", spec,
                      "--out", out]) in (0, 2)


def bounded(least: float, limit: float, steep: list):
    """Floats in [least, 1e300] and in [least, limit], with ``limit``, the
    next float above it and the ``steep`` values that overflowed a run
    before the bound."""
    return (st.floats(least, 1e300) | st.floats(least, limit)
            | st.sampled_from([limit, math.nextafter(limit, math.inf),
                               *steep]))


@PROFILE
@given(w_T=bounded(0, MAX_TERMINAL_WEIGHT, [1e152, 1e155, 1e160, 1e300]),
       scale=bounded(-1e300, MAX_DOMAIN_SCALE, [1e25, 1e27, 1e30, 1e80]),
       seed=st.integers(0, 64))
def test_accepted_w_T_exits_0(paths, w_T, scale, seed):
    # the target's mean alternates +-scale from frame to frame; a pair the
    # loader accepts runs, and one past either bound exits 2
    _, out = paths
    scenario = Path(out).parent / "w_T.json"
    mean = [[scale] * 2, [-scale] * 2] * 2
    scenario.write_text(json.dumps({
        **TINY, "seed": seed, "control": {"w_T": w_T},
        "domains": {"c1": {"kind": "components",
                           "components": [{"weight": 1, "mean": mean}]}}}))
    accepted = w_T <= MAX_TERMINAL_WEIGHT and abs(scale) <= MAX_DOMAIN_SCALE
    assert exit_code(["generate", "--scenario", str(scenario),
                      "--out", out]) == (0 if accepted else 2)
