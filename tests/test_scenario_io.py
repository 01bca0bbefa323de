import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

from pathmix import (ControlConfig, OptimizerConfig, ScenarioError,
                     baseline_sample, evaluate, load_scenario, sample_clips,
                     scenario_from_dict)
from pathmix.mixtures import Condition
from pathmix.scenario import export_comparison_table, write_run


@pytest.fixture(scope="module")
def run_result():
    scenario = scenario_from_dict({"schedule": {"N": 8}})
    return baseline_sample(scenario, "linear", seed=4)


class TestScenarioLoading:
    def test_defaults_applied(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"layout": {"K": 4, "S": 16, "C": 4}}))
        sc = load_scenario(path)
        assert sc.total_steps == 1000 and sc.ddim_steps == 50
        assert sc.optimizer.J == 20 and sc.optimizer.lr == 0.01
        assert sc.control.w_T == 1.0
        assert sc.eval_n_clips == 200 and sc.eval_n_pairs == 2000

    def test_missing_file(self, tmp_path):
        with pytest.raises(ScenarioError):
            load_scenario(tmp_path / "absent.json")

    def test_parse_error_positioned(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{\n  broken\n}")
        with pytest.raises(ScenarioError, match="line 2"):
            load_scenario(path)

    def test_unknown_keys_rejected(self):
        with pytest.raises(ScenarioError, match=r"optimizer\.typo_key"):
            scenario_from_dict({"optimizer": {"typo_key": 1}})
        with pytest.raises(ScenarioError, match=r"scenario\.bogus"):
            scenario_from_dict({"bogus": {}})
        with pytest.raises(ScenarioError, match=r"layout\.KK, layout\.SS"):
            scenario_from_dict({"layout": {"SS": 1, "KK": 2}})

    def test_invalid_layout_rejected(self):
        with pytest.raises(ScenarioError):
            scenario_from_dict({"layout": {"K": 1}})
        with pytest.raises(ScenarioError):
            scenario_from_dict({"layout": {"S": 15}})

    def test_negative_seed_rejected(self):
        with pytest.raises(ScenarioError, match="seed"):
            scenario_from_dict({"seed": -1})

    @pytest.mark.parametrize("section,key,field", [
        ("control", "w_T", "w_T"),
        ("control", "sigmoid_sharpness", "sigmoid_sharpness"),
        ("optimizer", "lr", "lr")])
    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    def test_non_finite_floats_rejected(self, section, key, field, value):
        with pytest.raises(ScenarioError, match=field):
            scenario_from_dict({section: {key: value}})

    @pytest.mark.parametrize("raw,named", [
        ({"optimizer": {"warm_start": "no"}}, "optimizer.warm_start"),
        ({"layout": {"C": True}}, "layout.C"),
        ({"seed": 1.5}, "scenario.seed"),
        ({"control": {"lambda_mode": 1}}, "control.lambda_mode"),
        ({"eval": []}, "'eval'"),
        ({"domains": {"c1": 3}}, "c1"),
        ({"domains": {"p0": "x"}}, "domains.p0"),
        ({"domains": {"c0": {"kind": "components", "components": [
            {"weight": 1.0, "mean": [0.0, 1.0]}]}}}, "c0.components[0].mean"),
        ({"domains": {"c1": {"variance": float("nan")}}}, "c1.variance")])
    def test_wrongly_typed_values_rejected(self, raw, named):
        with pytest.raises(ScenarioError, match=re.escape(named)):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("raw,named", [
        ({"control": {"w_T": 10 ** 400}}, "control.w_T"),
        ({"domains": {"c0": {"cycles": 10 ** 400}}}, "c0.cycles"),
        ({"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": [10 ** 400]}]}}}, "c1.components[0].mean"),
        ({"domains": {"c0": {"kind": "components", "components": [
            {"weight": 0, "mean": 0}]}}}, "c0"),
        ({"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 0}, {"weight": -0.5, "mean": 1}]}}}, "c1"),
        ({"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 0, "variance": 0.0}]}}},
         "domains.c1.components[0].variance"),
        ({"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1e308, "mean": 0}, {"weight": 1e308, "mean": 1}]}}},
         "domains.c1.components[0].weight")],
        ids=["huge-integer", "huge-domain-integer", "huge-integer-in-list",
             "zero-weights", "negative-weight", "zero-component-variance",
             "overflowing-weight-sum"])
    def test_out_of_range_values_rejected(self, raw, named):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match=re.escape(named)):
                scenario_from_dict(raw)

    @pytest.mark.parametrize("raw,named", [
        ({"domains": {"c0": {"kind": "toy", "cyclez": 3}}}, "domains.c0.cyclez"),
        ({"domains": {"c1": {"variance": 0.1, "drift": 1.0}}},
         "domains.c1.drift"),
        ({"domains": {"c0": {"kind": "components", "cycles": 2.0,
                             "components": [{"weight": 1, "mean": 0}]}}},
         "domains.c0.cycles"),
        ({"domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 0},
            {"weight": 1, "mean": 1, "varaince": 0.1}]}}},
         "domains.c1.components[1].varaince")],
        ids=["toy", "partial-toy", "components", "component-entry"])
    def test_unknown_domain_keys_rejected(self, raw, named):
        with pytest.raises(ScenarioError, match=re.escape(named)):
            scenario_from_dict(raw)

    @pytest.mark.parametrize("name,side", [("c0", "source"), ("c1", "target")])
    def test_partial_toy_spec_takes_its_own_domains_defaults(self, name, side):
        default = getattr(scenario_from_dict({}).model, side)
        partial = {"domains": {name: {"variance": 0.1}}}
        got = getattr(scenario_from_dict(partial).model, side)
        np.testing.assert_array_equal(got.means, default.means)
        np.testing.assert_array_equal(got.variances, np.full((1, 16, 4), 0.1))

    @pytest.mark.parametrize("root", [0, 2, 3])
    def test_toy_drift_on_root_channel(self, root):
        model = scenario_from_dict({"layout": {"root_channel": root}}).model
        s = np.arange(16.0)
        for mix, cycles, drift in ((model.source, 2.0, 0.5),
                                   (model.target, 6.0, 1.5)):
            mean = mix.means[0]
            np.testing.assert_array_equal(mean[:, root], drift * s / 15)
            for c in set(range(4)) - {root}:
                np.testing.assert_array_equal(
                    mean[:, c], np.sin(2.0 * np.pi * cycles * s / 16
                                       + np.pi * c / 4))

    @pytest.mark.parametrize("raw", [
        {}, {"domains": {"c1": {"kind": "toy"}}},
        {"domains": {"c1": {"cycles": 6.0, "root_drift": 1.5}}}],
        ids=["empty", "toy-kind", "toy-values"])
    def test_default_fingerprint_pinned(self, raw):
        # run manifests record it; the defaults' values must not drift, and
        # a spec equal to the defaults has the defaults' fingerprint
        assert scenario_from_dict(raw).fingerprint == (
            "d538a6b122c75959e6e7e20d4f04794e0e6d9f1de0371c06791cb63d60aa28d3")

    def test_integral_float_counts_as_integer(self):
        sc = scenario_from_dict({"layout": {"K": 6.0}})
        assert sc.layout.K == 6 and isinstance(sc.layout.K, int)
        assert sc.fingerprint == scenario_from_dict(
            {"layout": {"K": 6}}).fingerprint

    def test_runs_share_one_schedule_plan_and_model(self):
        sc = scenario_from_dict({"schedule": {"N": 4}})
        assert sc.schedule is sc.schedule and sc.model is sc.model
        assert sc.plan is sc.plan
        np.testing.assert_array_equal(sc.schedule.alpha_bar,
                                      sc.build_schedule().alpha_bar)
        np.testing.assert_array_equal(sc.plan.steps,
                                      sc.build_plan(sc.schedule).steps)

    def test_fingerprint_round_trip(self, tmp_path):
        sc = scenario_from_dict({"seed": 9, "control": {"w_T": 2.5}})
        path = tmp_path / "rt.json"
        path.write_text(json.dumps(sc.to_dict()))
        assert load_scenario(path).fingerprint == sc.fingerprint

    def test_fingerprint_sensitive_to_content(self):
        a = scenario_from_dict({})
        b = scenario_from_dict({"seed": 1})
        assert a.fingerprint != b.fingerprint


# config field -> its scenario section, key and a value other than the default
SCENARIO_KEYS = {
    "J": ("optimizer", "J", 7),
    "lr": ("optimizer", "lr", 0.05),
    "warm_start": ("optimizer", "warm_start", False),
    "w_T": ("control", "w_T", 2.5),
    "lambda_mode": ("control", "lambda_mode", "unit"),
    "sigmoid_sharpness": ("control", "sigmoid_sharpness", 4.0),
}


@pytest.mark.parametrize("config,attr", [(OptimizerConfig, "optimizer"),
                                         (ControlConfig, "control")])
def test_every_config_field_is_settable_from_the_scenario(config, attr):
    default = getattr(scenario_from_dict({}), attr)
    for field in fields(config):
        assert field.name in SCENARIO_KEYS, \
            f"{config.__name__}.{field.name} has no scenario key"
        section, key, value = SCENARIO_KEYS[field.name]
        assert getattr(default, field.name) != value
        loaded = scenario_from_dict({section: {key: value}})
        assert getattr(getattr(loaded, attr), field.name) == value


class TestWriteRun:
    def test_files_and_shapes(self, tmp_path, run_result):
        manifest_path = write_run(run_result, tmp_path / "run")
        out = manifest_path.parent
        for name in ("manifest.json", "segments.csv", "long_sequence.csv",
                     "omega.csv", "energy.csv"):
            assert (out / name).exists()
        omega_rows = (out / "omega.csv").read_text().strip().splitlines()
        assert len(omega_rows) == 1 + 8           # header + N steps
        assert len(omega_rows[1].split(",")) == 1 + 4
        energy_header = (out / "energy.csv").read_text().splitlines()[0]
        assert energy_header == "step,transient,terminal,total"

    def test_deterministic_except_timestamp(self, tmp_path, run_result):
        write_run(run_result, tmp_path / "a")
        write_run(run_result, tmp_path / "b")
        for name in ("segments.csv", "long_sequence.csv", "omega.csv",
                     "energy.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())
        ma = json.loads((tmp_path / "a" / "manifest.json").read_text())
        mb = json.loads((tmp_path / "b" / "manifest.json").read_text())
        ma.pop("created_at"), mb.pop("created_at")
        ma.pop("wall_time"), mb.pop("wall_time")
        assert ma == mb

    def test_csv_floats_round_trip_exactly(self, tmp_path, run_result):
        out = write_run(run_result, tmp_path / "rt").parent
        rows = (out / "long_sequence.csv").read_text().strip().splitlines()[1:]
        parsed = np.array([[float(v) for v in row.split(",")[1:]]
                           for row in rows])
        np.testing.assert_array_equal(parsed, run_result.long_sequence)


class TestComparisonTable:
    def test_rows_and_order(self, tmp_path):
        sc = scenario_from_dict({})
        model = sc.build_model()
        clips = sample_clips(model, Condition.SOURCE, 30, 2)
        report = evaluate(clips, clips, 50, 0)
        reports = {"mdpa": report, "sine": report, "linear": report,
                   "sigmoid": report, "ground_truth": report}
        path = export_comparison_table(reports, tmp_path / "cmp.csv")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 6
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["ground_truth", "linear", "sigmoid", "sine", "mdpa"]

    def test_empty_rejected(self, tmp_path):
        with pytest.raises(ScenarioError):
            export_comparison_table({}, tmp_path / "x.csv")
