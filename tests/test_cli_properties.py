"""Property test of the CLI boundary: any string given to ``--runs``,
``--seed`` or ``--sweep`` exits 0 or 2, never 1 and never with a traceback.

The scenario is tiny (K=3, S=4, C=2, one DDIM step, one Adam step), so a
request that is accepted runs in milliseconds.  Numbers that would be valid
are capped at 64 in magnitude, as in ``test_scenario_properties.py``, so that
an accepted ``--runs``, ``J`` or ``K`` stays cheap; non-finite values and
10**400 stand for the rest.  ``w_T`` is the one value whose size alone could
fail a run: past about 1e152 Adam's second moment overflows, so the loader
caps it at ``MAX_TERMINAL_WEIGHT``, and the last test runs weights up to 1e300.
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


@PROFILE
@given(w_T=st.floats(0, 1e300)
       | st.sampled_from([MAX_TERMINAL_WEIGHT,
                          math.nextafter(MAX_TERMINAL_WEIGHT, math.inf),
                          1e152, 1e155, 1e160, 1e300]),
       seed=st.integers(0, 64))
def test_accepted_w_T_exits_0(paths, w_T, seed):
    # a weight the loader accepts runs; one above the bound exits 2
    _, out = paths
    scenario = Path(out).parent / "w_T.json"
    scenario.write_text(json.dumps({**TINY, "seed": seed,
                                    "control": {"w_T": w_T}}))
    expect = 0 if w_T <= MAX_TERMINAL_WEIGHT else 2
    assert exit_code(["generate", "--scenario", str(scenario),
                      "--out", out]) == expect
