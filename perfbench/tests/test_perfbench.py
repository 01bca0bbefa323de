"""Tests of the benchmark's own code: workload generation, the tracer and
the output gate.  Run with ``python3 -m pytest perfbench/tests``."""

import importlib
import json

import numpy as np
import pytest

from pathmix import ScenarioError, load_scenario, scenario_from_dict
from pathmix.mixtures import Condition
from perfbench import gate, layers
from perfbench.client import RUN_SPAN, Client, RequestRecord
from perfbench.spans import Point, Tracer, self_times
from perfbench.workloads import (WORKLOADS, long_wide_scenario, request_seed,
                                 warmup_scenario)


def _originals(points):
    return {(p.module, p.attr):
            getattr(importlib.import_module(p.module), p.attr, None)
            for p in points}


class TestWorkloads:
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_scenario_deterministic_in_seed(self, name):
        workload = WORKLOADS[name]
        assert json.dumps(workload.scenario(5)) == \
            json.dumps(workload.scenario(5))

    def test_long_wide_varies_with_seed(self):
        assert long_wide_scenario(1) != long_wide_scenario(2)

    def test_request_seeds_deterministic_and_distinct(self):
        seeds = [request_seed(7, i) for i in range(20)]
        assert seeds == [request_seed(7, i) for i in range(20)]
        assert len(set(seeds)) == 20
        assert seeds != [request_seed(8, i) for i in range(20)]

    @pytest.mark.parametrize("seed", [0, 1, 12345])
    def test_long_wide_loads(self, seed, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(long_wide_scenario(seed)))
        try:
            scenario = load_scenario(path)
        except ScenarioError as exc:
            pytest.fail(f"generated scenario rejected: {exc}")
        assert (scenario.layout.K, scenario.ddim_steps) == (16, 200)
        model = scenario.build_model()
        assert len(model.mixture(Condition.SOURCE).weights) == 8
        assert len(model.mixture(Condition.NULL).weights) == 16

    def test_pool_requests_run_fifty(self):
        workload = WORKLOADS["pool-mdpa"]
        assert workload.runs_per_request(workload.scenario(0)) == 50

    def test_warmup_scenario_is_valid(self):
        scenario_from_dict(warmup_scenario(long_wide_scenario(0)))


class TestTracer:
    def test_no_wrapper_remains_after_traced_requests(self, tmp_path):
        before = _originals(layers.LAYER_POINTS)
        client = Client(WORKLOADS["pool-mdpa"], 0, tmp_path)
        with Tracer(layers.LAYER_POINTS) as tracer:
            assert _originals(layers.LAYER_POINTS) != before
            client.warm_up(tracer)
        assert _originals(layers.LAYER_POINTS) == before
        names = {span[0] for span in tracer.spans}
        assert {"cli.request", "sampling.run", "optim.optimize_mixing",
                "mixtures.predict_x0", "metrics.evaluate"} <= names

    def test_restored_when_a_request_raises(self):
        before = _originals(layers.LAYER_POINTS)
        with pytest.raises(RuntimeError):
            with Tracer(layers.LAYER_POINTS):
                raise RuntimeError("request failed")
        assert _originals(layers.LAYER_POINTS) == before

    def test_missing_attribute_raises_and_restores(self):
        points = (layers.LAYER_POINTS[0],
                  Point("pathmix.cli", "no_such_function", "x"))
        before = _originals(points[:1])
        with pytest.raises(AttributeError, match="no_such_function"):
            with Tracer(points):
                pass
        assert _originals(points[:1]) == before

    def test_self_times_subtract_direct_children(self):
        spans = [["a", 0, 100, -1, 0, None],
                 ["b", 10, 40, 0, 0, None],
                 ["c", 20, 30, 1, 0, None],
                 ["d", 50, 90, 0, 0, None]]
        assert self_times(spans).tolist() == [30, 20, 10, 40]


class TestAccounting:
    @staticmethod
    def _pairs(covered_ms):
        """Three request pairs: untraced runs of about 100 ms, traced runs of
        101 ms of which one child layer span covers ``covered_ms``."""
        spans, traced, untraced = [], [], []
        for i, plain_ms in enumerate((100.0, 102.0, 98.0)):
            spans.append([RUN_SPAN, 0, int(101e6), -1, i, None])
            spans.append(["mixtures.predict_x0", 0, int(covered_ms * 1e6),
                          len(spans) - 1, i, None])
            untraced.append(RequestRecord(i, i, 0.2, 1, [plain_ms / 1e3]))
            traced.append(RequestRecord(i, i, 0.2, 1, [0.101]))
        return spans, traced, untraced

    def test_layers_covering_the_run_pass(self):
        check = layers.accounting(*self._pairs(100.0))
        assert check["ok"] and check["pairs"] == 3

    def test_uncovered_time_fails(self):
        check = layers.accounting(*self._pairs(50.0))
        assert not check["ok"]
        assert check["gap_ms"] == pytest.approx(50.0)


class TestGate:
    @pytest.fixture(scope="class")
    def generated(self, tmp_path_factory):
        """Outputs of one small generate request, untraced and traced."""
        work = tmp_path_factory.mktemp("gate")
        workload = WORKLOADS["long-wide"]
        scenario = warmup_scenario(long_wide_scenario(0))
        path = work / "s.json"
        path.write_text(json.dumps(scenario))
        outs = []
        for points in ((), layers.LAYER_POINTS):
            out = work / f"out{len(outs)}"
            with Tracer(points):
                assert Client._call(workload.argv(path, 3, out)) == 0
            outs.append(out)
        return scenario, outs

    def test_outputs_pass_invariants(self, generated):
        scenario, (out, _) = generated
        values = gate.read_outputs("generate", out)
        assert gate.check_invariants("generate", scenario, values) == []

    def test_traced_outputs_bit_identical(self, generated):
        _, (untraced, traced) = generated
        assert gate.compare_snapshots(gate.snapshot(untraced),
                                      gate.snapshot(traced)) == []

    @pytest.mark.parametrize("field, index, value, expected", [
        ("segments", (1, 0, 2), 9.0, "continuous"),
        ("omega", (0, 0), 1e-300, "pinned"),
        ("omega", (1, 1), 1.5, "outside [0, 1]"),
        ("energy", (0, 2), np.nan, "energy"),
    ])
    def test_invariant_breaks_detected(self, generated, field, index, value,
                                       expected):
        scenario, (out, _) = generated
        values = gate.read_outputs("generate", out)
        values[field][index] = value
        problems = gate.check_invariants("generate", scenario, values)
        assert any(expected in p for p in problems), problems

    def test_clip_count_and_finite_fids_checked(self):
        scenario = WORKLOADS["pool-sine"].scenario(0)
        report = dict(zip(gate.METRIC_KEYS, [1.0] * 8 + [200, 199]))
        report["fid_kinetic"] = np.inf
        problems = gate.check_invariants(
            "evaluate", scenario,
            {"metrics": np.array([report[k] for k in gate.METRIC_KEYS])})
        assert any("fid_kinetic" in p for p in problems)
        assert any("n_gt" in p for p in problems)

    def test_reference_tolerance(self, tmp_path):
        path = tmp_path / "ref.npz"
        np.savez(path, **{gate.Reference.key("w", 0, 0, "metrics"):
                          np.array([1.0, 50.0])})
        ref = gate.Reference(path)
        close = {"metrics": np.array([1.0 + 5e-13, 50.0 + 2e-11])}
        far = {"metrics": np.array([1.0 + 5e-12, 50.0])}
        assert ref.compare("w", 0, 0, close) == []
        assert ref.compare("w", 0, 0, far)
        assert ref.compare("w", 1, 0, far) == []

    def test_missing_reference_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            gate.Reference(tmp_path / "absent.npz")
