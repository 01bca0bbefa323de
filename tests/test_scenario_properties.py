"""Property tests of the scenario boundary: what the loader accepts and what a
loaded scenario gives back.

Every generated integer and float is capped at 64 in magnitude, apart from
non-finite floats and 10**400 (too large for any array size), and every list
and object at 4 entries, so that no example allocates more than a few MB at
load even without the layout size bound.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from pathmix import ScenarioError, scenario_from_dict
from pathmix.scenario import DEFAULTS

PROFILE = settings(derandomize=True, max_examples=200, deadline=None,
                   database=None)

SECTIONS = [name for name, value in DEFAULTS.items() if isinstance(value, dict)]
KEYS = sorted(set(DEFAULTS).union(*(DEFAULTS[s] for s in SECTIONS))
              | {"kind", "cycles", "root_drift", "variance", "components",
                 "weight", "mean"})

SCALARS = (st.none() | st.booleans() | st.integers(-64, 64)
           | st.floats(-64, 64)
           | st.sampled_from([math.nan, math.inf, -math.inf, 10 ** 400])
           | st.sampled_from(["toy", "components", "posterior", "unit"])
           | st.text(max_size=4))
JSON = st.recursive(
    SCALARS,
    lambda inner: (st.lists(inner, max_size=4)
                   | st.dictionaries(st.sampled_from(KEYS) | st.text(max_size=4),
                                     inner, max_size=4)),
    max_leaves=16)


@st.composite
def json_inputs(draw):
    """A JSON value as the whole scenario, as one section, or as one key."""
    value = draw(JSON)
    level = draw(st.sampled_from(["scenario", "section", "key"]))
    if level == "scenario":
        return value
    name = draw(st.sampled_from(list(DEFAULTS)))
    if level == "key" and name in SECTIONS:
        value = {draw(st.sampled_from(sorted(DEFAULTS[name]))): value}
    return {name: value}


@st.composite
def domain_specs(draw):
    if draw(st.booleans()):
        return {"kind": "toy",
                "cycles": draw(st.floats(0, 8)),
                "root_drift": draw(st.floats(-2, 2)),
                "variance": draw(st.floats(0.01, 1))}
    n = draw(st.integers(1, 3))
    return {"kind": "components",
            "components": [{"weight": draw(st.floats(0.1, 2)),
                            "mean": draw(st.floats(-2, 2)),
                            "variance": draw(st.floats(0.01, 1))}
                           for _ in range(n)]}


@st.composite
def valid_scenarios(draw):
    C = draw(st.integers(1, 6))
    T = draw(st.integers(2, 64))
    full = {
        "layout": {"K": draw(st.integers(2, 8).flatmap(
                       lambda n: st.sampled_from([n, float(n)]))),
                   "S": 2 * draw(st.integers(1, 8)), "C": C,
                   "root_channel": draw(st.integers(0, C - 1))},
        "domains": {"c0": draw(domain_specs()), "c1": draw(domain_specs()),
                    "p0": draw(st.floats(0.01, 0.99))},
        "schedule": {"T": T, "N": draw(st.integers(1, T))},
        "optimizer": {"J": draw(st.integers(0, 64)),
                      "lr": draw(st.floats(1e-4, 1)),
                      "warm_start": draw(st.booleans())},
        "control": {"w_T": draw(st.floats(0, 64)),
                    "lambda_mode": draw(st.sampled_from(["posterior",
                                                         "unit"])),
                    "sigmoid_sharpness": draw(st.floats(0.1, 64))},
        "eval": {"n_clips": draw(st.integers(2, 64)),
                 "n_pairs": draw(st.integers(1, 64))},
        "seed": draw(st.integers(0, 64)),
    }
    # any subset of the sections and keys, the rest left to the defaults
    raw = {}
    for name, value in full.items():
        if draw(st.booleans()):
            if isinstance(value, dict):
                value = {k: v for k, v in value.items() if draw(st.booleans())}
                if "root_channel" in value:
                    value["C"] = C
                if "T" in value:  # N <= T, also for the default N
                    value["N"] = full["schedule"]["N"]
            raw[name] = value
    return raw


@PROFILE
@given(json_inputs())
def test_any_json_gives_scenario_or_scenario_error(raw):
    try:
        scenario_from_dict(raw)
    except ScenarioError:
        pass


@PROFILE
@given(valid_scenarios())
def test_to_dict_round_trips(raw):
    sc = scenario_from_dict(raw)
    values = sc.to_dict()
    # every key present, every value of its default's type
    assert values.keys() == DEFAULTS.keys()
    for name in SECTIONS:
        assert values[name].keys() == DEFAULTS[name].keys()
        assert all(type(values[name][key]) is type(default)
                   for key, default in DEFAULTS[name].items()
                   if not isinstance(default, dict))
    again = scenario_from_dict(values)
    assert again.fingerprint == sc.fingerprint
    for name in ("layout", "optimizer", "control", "total_steps",
                 "ddim_steps", "eval_n_clips", "eval_n_pairs", "seed"):
        assert getattr(again, name) == getattr(sc, name), name
