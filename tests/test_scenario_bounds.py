"""Every scenario key at the ends of its accepted range.

``KEYS`` is written from the README's statements, not read from ``src/``:
each key's type and the range a scenario file may give it.  Each numeric key
is tried at its extreme accepted values (5e-324 and +-1e300 where a side has
no bound, 10**300 for an integer) and at the next float or integer past each
bound.  An accepted value must run ``generate`` with every method,
``evaluate``, ``compare`` and ``sweep`` on a tiny scenario and exit 0 with
nothing on stderr and no warning; a rejected value must exit 2 with its
dotted key in the message.  A size near the 2**24 bound is checked at load
only, and the tiny scenario runs its small end.
"""

import contextlib
import io
import json
import math
import warnings
from dataclasses import dataclass

import pytest

from pathmix.cli import main
from pathmix.scenario import scenario_from_dict

BOUND = 2 ** 24              # MAX_LAYOUT_VALUES
SMALLEST_NORMAL = 2.2250738585072014e-308
METHODS = ("mdpa", "linear", "sigmoid", "sine")

# K=3, S=4, C=2, one DDIM step of T=4, one Adam step, two clips
TINY = {"layout": {"K": 3, "S": 4, "C": 2, "root_channel": 0},
        "schedule": {"T": 4, "N": 1},
        "optimizer": {"J": 1},
        "eval": {"n_clips": 2, "n_pairs": 1}}


@dataclass(frozen=True)
class Key:
    """One scenario key: its type and accepted range on the tiny scenario.

    ``least``/``most`` are inclusive (exclusive if ``open``); None is no
    bound.  ``scored`` is the larger lower bound that ``evaluate`` and
    ``compare`` need; ``step`` is the spacing of accepted integers; a
    ``size`` key's upper end is checked at load only.  ``probes`` are
    accepted values run besides the extremes.
    """

    name: str
    kind: type
    least: float | None = None
    most: float | None = None
    open: bool = False
    scored: int | None = None
    step: int = 1
    size: bool = False
    probes: tuple = ()


def component(field):
    return f"domains.c1.components[0].{field}"


KEYS = [
    # (K-1)*K*S*C <= 2**24 with the others at S=4, C=2 / K=3, C=2 / K=3, S=4
    Key("layout.K", int, 2, max(k for k in range(2, 1500)
                                if (k - 1) * k * 8 <= BOUND), size=True),
    Key("layout.S", int, 2, BOUND // 12 // 2 * 2, scored=4, step=2,
        size=True),
    Key("layout.C", int, 1, BOUND // 24, scored=2, size=True),
    Key("layout.root_channel", int, 0, 1),             # [0, C-1]
    Key("schedule.T", int, 2, BOUND - 1, size=True),   # T+1 values
    Key("schedule.N", int, 1, 4),                      # [1, T]
    Key("optimizer.J", int, 0, BOUND // 3 - 1, size=True),  # (J+1)*K
    Key("optimizer.lr", float, 0.0, None, open=True),
    Key("control.w_T", float, 0.0, 1e100),
    Key("control.sigmoid_sharpness", float, SMALLEST_NORMAL, None,
        probes=(1e-17, 1e5)),
    Key("eval.n_clips", int, 2, BOUND // 8, size=True),
    Key("eval.n_pairs", int, 1, BOUND, size=True),
    Key("seed", int, 0, None),
    Key("domains.p0", float, 0.0, 1.0, open=True),
    *(Key(f"domains.{c}.{field}", float, least, most)
      for c in ("c0", "c1")
      for field, least, most in (("cycles", -1e20, 1e20),
                                 ("root_drift", -1e20, 1e20),
                                 ("variance", 1e-8, 1e40))),
    Key(component("weight"), float, 0.0, 1e20),
    Key(component("mean"), float, -1e20, 1e20),
    Key(component("variance"), float, 1e-8, 1e40),
]

# the keys that take a word or a flag: accepted values and one rejected
CHOICES = {
    "control.lambda_mode": (["posterior", "unit"], "bogus"),
    "optimizer.warm_start": ([True, False], 1),
    "domains.c0.kind": (["toy"], "bogus"),
    "domains.c1.kind": (["toy"], "bogus"),
}


def extremes(key: Key) -> tuple[list, list]:
    """(accepted, rejected) values at and past the ends of ``key``'s range."""
    if key.kind is int:
        accepted = [key.most if key.most is not None else 10 ** 300]
        rejected = [key.most + key.step] if key.most is not None else []
        if key.least is not None:
            accepted.append(key.least)
            rejected.append(key.least - 1)
        if key.scored is not None:  # the scoring bound and the value below
            accepted += [key.scored, key.scored - key.step]
        return sorted(set(accepted)), rejected
    accepted, rejected = list(key.probes), []
    for bound, inward, unbounded in ((key.least, math.inf, -1e300),
                                     (key.most, -math.inf, 1e300)):
        if bound is None:
            accepted.append(unbounded)
        elif key.open:
            accepted.append(math.nextafter(bound, inward))
            rejected.append(bound)
        else:
            accepted.append(bound)
            rejected.append(math.nextafter(bound, -inward))
    if min(accepted) < 5e-324 < max(accepted):
        accepted.append(5e-324)
    return accepted, rejected


def with_value(name: str, value) -> dict:
    """The tiny scenario with ``name`` set to ``value``; a component key
    sets the first of two components of c1."""
    raw = json.loads(json.dumps(TINY))
    if ".components[0]." in name:
        field = name.rsplit(".", 1)[1]
        raw["domains"] = {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 0, field: value}, {"weight": 1, "mean": 0}]}}
        return raw
    *path, last = name.split(".")
    node = raw
    for part in path:
        node = node.setdefault(part, {})
    node[last] = value
    return raw


def cli(argv) -> tuple[int, str]:
    """The exit code and stderr of ``pathmix argv`` run in-process, with
    every warning it issues appended to stderr."""
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    return code, err.getvalue() + "".join(f"{w.category.__name__}: "
                                          f"{w.message}\n" for w in caught)


def commands(name: str, path, out) -> dict:
    """Every command on the scenario at ``path``, by label."""
    scenario = ["--scenario", str(path)]
    # sweep a value other than the key under test, at the tiny value
    sweep = "w_T=1" if name == "optimizer.J" else "J=1"
    runs = {f"generate-{m}": ["generate", *scenario, "--method", m]
            for m in METHODS}
    runs.update(evaluate=["evaluate", *scenario],
                compare=["compare", *scenario],
                sweep=["sweep", *scenario, "--sweep", sweep])
    return {label: argv + ["--out", str(out / label)]
            for label, argv in runs.items()}


CASES = []
for key in KEYS:
    accepted, rejected = extremes(key)
    CASES += [(key.name, v, "load" if key.size and v == key.most else "run")
              for v in accepted]
    CASES += [(key.name, v, "reject") for v in rejected]
for name, (good, bad) in CHOICES.items():
    CASES += [(name, v, "run") for v in good] + [(name, bad, "reject")]

SCORED = {key.name: key.scored for key in KEYS if key.scored is not None}


def test_table_covers_every_scenario_key():
    loaded = scenario_from_dict({}).to_dict()
    names = {f"{section}.{key}" for section, values in loaded.items()
             if isinstance(values, dict) for key in values
             if not isinstance(values[key], dict)} | {"seed"}
    names |= {f"domains.{c}.{field}" for c in ("c0", "c1")
              for field in loaded["domains"][c]}
    tested = {name for name, _, _ in CASES}
    assert names <= tested


@pytest.mark.parametrize("name,value,verdict", CASES,
                         ids=[f"{n}={v!r:.24}" for n, v, _ in CASES])
def test_value_at_its_bound(tmp_path, name, value, verdict):
    raw = with_value(name, value)
    if verdict == "load":  # a warning fails the suite's filterwarnings
        scenario_from_dict(raw)
        return
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(raw))
    scored_least = SCORED.get(name)
    for label, argv in commands(name, path, tmp_path).items():
        code, err = cli(argv)
        rejected = verdict == "reject" or (
            label in ("evaluate", "compare") and scored_least is not None
            and value < scored_least)
        if rejected:
            assert code == 2 and name in err, (label, code, err)
        else:
            assert (code, err) == (0, ""), label
