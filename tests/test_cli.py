import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import pathmix.checks
from pathmix.checks import check_kl_proportionality, run_check
from pathmix.cli import main
from pathmix.sampling import baseline_sample

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="module")
def fast_scenario_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("scenario") / "fast.json"
    path.write_text(json.dumps({
        "schedule": {"N": 8},
        "eval": {"n_clips": 8, "n_pairs": 50},
        "seed": 3,
    }))
    return path


# a value outside its range for each checked scenario key
OUT_OF_RANGE = {
    "layout.K": {"layout": {"K": 1}},
    "layout.S": {"layout": {"S": 15}},
    "layout.C": {"layout": {"C": 0}},
    "layout.root_channel": {"layout": {"root_channel": 4}},
    "optimizer.lr": {"optimizer": {"lr": 0.0}},
    "control.w_T": {"control": {"w_T": -1.0}},
    "control.sigmoid_sharpness": {"control": {"sigmoid_sharpness": 0.0}},
    "control.lambda_mode": {"control": {"lambda_mode": "bogus"}},
    "domains.p0": {"domains": {"p0": 1.5}},
    "domains.c0.variance": {"domains": {"c0": {"variance": 0.0}}},
    "domains.c1.variance": {"domains": {"c1": {"variance": 1e41}}},
    "domains.c1.root_drift": {"domains": {"c1": {"root_drift": -1e21}}},
}

# K=3, S=4, C=2, one DDIM step and one Adam step
TINY = {"layout": {"K": 3, "S": 4, "C": 2}, "schedule": {"T": 4, "N": 1},
        "optimizer": {"J": 1}}


def read_csv(path):
    return path.read_text().strip().splitlines()


@pytest.fixture()
def no_sampling(monkeypatch):
    """Makes every sampling call of the CLI fail the test."""
    def no_run(*args, **kwargs):
        raise AssertionError("sampling ran")
    for name in ("optimized_sample", "baseline_sample", "sample_clips"):
        monkeypatch.setattr(f"pathmix.cli.{name}", no_run)


class TestGenerate:
    def test_artifacts_written(self, fast_scenario_path, tmp_path):
        out = tmp_path / "gen"
        code = main(["generate", "--scenario", str(fast_scenario_path),
                     "--method", "mdpa", "--out", str(out)])
        assert code == 0
        for name in ("manifest.json", "omega.csv", "energy.csv",
                     "segments.csv", "long_sequence.csv"):
            assert (out / name).exists()

    def test_linear_omega_rows_constant(self, fast_scenario_path, tmp_path):
        out = tmp_path / "lin"
        assert main(["generate", "--scenario", str(fast_scenario_path),
                     "--method", "linear", "--out", str(out)]) == 0
        rows = read_csv(out / "omega.csv")[1:]
        values = {row.split(",", 1)[1] for row in rows}
        assert len(values) == 1

    def test_bad_scenario_path_exits_2(self, tmp_path, capsys):
        # missing, a directory, and a path through a file
        (tmp_path / "file").write_text("{}")
        for path in (tmp_path / "nope.json", tmp_path,
                     tmp_path / "file" / "nope.json"):
            code = main(["generate", "--scenario", str(path),
                         "--method", "mdpa", "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith("error:") and str(path) in err
            assert not (tmp_path / "o").exists()

    def test_negative_seed_flag_exits_2(self, fast_scenario_path, tmp_path,
                                        capsys):
        code = main(["generate", "--scenario", str(fast_scenario_path),
                     "--seed", "-1", "--out", str(tmp_path / "o")])
        assert code == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("section,key,value", [
        ("seed", None, -1), ("control", "w_T", float("nan")),
        ("optimizer", "lr", float("inf")), ("control", "w_T", 1e160)])
    def test_invalid_value_rejected_at_load(self, tmp_path, capsys, section,
                                            key, value):
        raw = {section: value if key is None else {key: value}}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--scenario", str(bad), "--method", "mdpa",
                     "--out", str(tmp_path / "o")]) == 2
        assert "error:" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw,named", [
        ({"layout": {"K": "4"}}, "layout.K"),
        ({"layout": 5}, "'layout'"),
        ({"domains": {"c0": {"kind": "components",
                             "components": [{"mean": 0.0}]}}},
         "c0.components[0].weight"),
        ({"domains": {"c0": {"kind": "toy", "cycles": "x"}}}, "c0.cycles"),
        ({"optimizer": {"typo_key": 1}}, "optimizer.typo_key"),
        # past the domain bound, these overflowed Adam's second moment
        # mid-run: a constant mean of 1e80 at any w_T, and a mean
        # alternating +-1e30 from frame to frame at the largest w_T
        ({**TINY, "domains": {"c1": {"kind": "components", "components": [
            {"weight": 1, "mean": 1e80}]}}},
         "domains.c1.components[0].mean"),
        ({**TINY, "control": {"w_T": 1e100},
          "domains": {"c1": {"kind": "components", "components": [
              {"weight": 1, "mean": [[1e30] * 2, [-1e30] * 2] * 2}]}}},
         "domains.c1.components[0].mean"),
    ], ids=["K-string", "layout-number", "component-without-weight",
            "cycles-string", "unknown-section-key", "constant-mean-1e80",
            "alternating-mean-1e30"])
    def test_malformed_value_rejected_at_load(self, tmp_path, capsys, raw,
                                              named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--scenario", str(bad), "--method", "mdpa",
                     "--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("named,raw", list(OUT_OF_RANGE.items()),
                             ids=list(OUT_OF_RANGE))
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, named,
                                              raw):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--scenario", str(bad), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert "source_prior" not in err  # the prior has one name, p0
        assert not (tmp_path / "o").exists()

    def test_invalid_scenario_content_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"layout": {"K": 1}}))
        assert main(["generate", "--scenario", str(bad), "--method", "mdpa",
                     "--out", str(tmp_path / "o")]) == 2

    def test_oversized_layout_exits_2(self, tmp_path, capsys):
        # rejected by the layout size bound before any array is allocated
        bad = tmp_path / "wide.json"
        bad.write_text(json.dumps({"layout": {"S": 2 ** 40}}))
        assert main(["generate", "--scenario", str(bad), "--out",
                     str(tmp_path / "o")]) == 2
        assert "layout.S" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("raw,named", [
        ({"schedule": {"T": -3}}, "schedule.T"),
        ({"schedule": {"N": 0}}, "schedule.N"),
        ({"optimizer": {"J": 10 ** 18}}, "optimizer.J"),
        ({"schedule": {"T": 2 ** 40}}, "schedule.T"),
    ], ids=["T-negative", "N-zero", "J-huge", "T-huge"])
    def test_step_counts_range_checked_at_load(self, tmp_path, capsys,
                                               no_sampling, raw, named):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        assert main(["generate", "--scenario", str(bad), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and named in err
        assert not (tmp_path / "o").exists()

    def test_oversized_integer_exits_2(self, tmp_path, capsys):
        # json.loads raises ValueError past 4300 digits, not JSONDecodeError
        bad = tmp_path / "huge.json"
        bad.write_text('{"seed": ' + "1" * 5000 + "}")
        assert main(["generate", "--scenario", str(bad), "--out",
                     str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(bad) in err
        assert not (tmp_path / "o").exists()

    def test_unscored_layout_still_generates(self, tmp_path):
        # only scoring needs C >= 2 and S >= 4
        path = tmp_path / "narrow.json"
        path.write_text(json.dumps({"layout": {"S": 2, "C": 1},
                                    "schedule": {"N": 4}}))
        assert main(["generate", "--scenario", str(path), "--out",
                     str(tmp_path / "o")]) == 0

    def test_plan_reaching_t1_writes_nothing_to_stderr(self, tmp_path):
        # with N = T the last step is t = 1, where posterior_var is 0 and
        # lambda_weight floors it; run as its own process, so that the
        # test harness's log capture cannot hide what reaches stderr
        path = tmp_path / "to_t1.json"
        path.write_text(json.dumps({**TINY, "schedule": {"T": 4, "N": 4}}))
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "pathmix.cli", "generate", "--scenario",
             str(path), "--out", str(tmp_path / "o")],
            capture_output=True, text=True, env=env)
        assert done.returncode == 0 and done.stderr == ""
        rows = read_csv(tmp_path / "o" / "energy.csv")[1:]
        assert len(rows) == 4
        assert all(np.isfinite(float(v)) for row in rows
                   for v in row.split(","))

    def test_seed_determinism_byte_identical(self, fast_scenario_path,
                                             tmp_path):
        args = ["generate", "--scenario", str(fast_scenario_path),
                "--method", "mdpa", "--seed", "11"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("omega.csv", "energy.csv", "segments.csv",
                     "long_sequence.csv"):
            assert ((tmp_path / "a" / name).read_bytes()
                    == (tmp_path / "b" / name).read_bytes())


class TestEvaluate:
    def test_metrics_written(self, fast_scenario_path, tmp_path):
        out = tmp_path / "eval"
        code = main(["evaluate", "--scenario", str(fast_scenario_path),
                     "--method", "sine", "--runs", "2", "--out", str(out)])
        assert code == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["n_gen"] == 8
        assert np.isfinite(metrics["fid_kinetic"])

    def test_runs_past_n_clips_sample_nothing_more(self, fast_scenario_path,
                                                   tmp_path, monkeypatch):
        # 2 runs of K=4 windows hold the 8 clips; more runs used to be
        # sampled and their windows dropped
        calls = []

        def counted(*args):
            calls.append(args)
            return baseline_sample(*args)
        monkeypatch.setattr("pathmix.cli.baseline_sample", counted)
        written = []
        for runs in ("2", "5"):
            out = tmp_path / runs
            assert main(["evaluate", "--scenario", str(fast_scenario_path),
                         "--method", "sine", "--runs", runs,
                         "--out", str(out)]) == 0
            written.append((out / "metrics.json").read_bytes())
        assert len(calls) == 4
        assert written[0] == written[1]

    # the two oversized counts ended in a numpy memory error after the
    # sampling runs before they were bounded at load
    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("section,key,value", [
        ("eval", "n_clips", 1), ("eval", "n_pairs", 0), ("layout", "C", 1),
        ("layout", "S", 2), ("eval", "n_clips", 10 ** 10),
        ("eval", "n_pairs", 10 ** 11)])
    def test_unscorable_scenario_rejected_before_sampling(
            self, tmp_path, capsys, no_sampling, command, section, key, value):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schedule": {"N": 4},
                                   section: {key: value}}))
        assert main([command, "--scenario", str(bad), "--runs", "1",
                     "--out", str(tmp_path / "o")]) == 2
        assert f"{section}.{key}" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("command", ["evaluate", "compare"])
    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_runs_below_one_rejected_before_sampling(
            self, fast_scenario_path, tmp_path, capsys, no_sampling, command,
            runs):
        assert main([command, "--scenario", str(fast_scenario_path),
                     "--runs", runs, "--out", str(tmp_path / "o")]) == 2
        assert "--runs" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()


class TestCompare:
    def test_table_with_ground_truth_row(self, fast_scenario_path, tmp_path):
        out = tmp_path / "cmp"
        code = main(["compare", "--scenario", str(fast_scenario_path),
                     "--runs", "2", "--out", str(out)])
        assert code == 0
        lines = read_csv(out / "comparison.csv")
        methods = [line.split(",")[0] for line in lines[1:]]
        assert methods == ["ground_truth", "linear", "sigmoid", "sine", "mdpa"]
        gt_fid = float(lines[1].split(",")[1])
        assert gt_fid <= 1e-8

    def test_deterministic(self, fast_scenario_path, tmp_path):
        base = ["compare", "--scenario", str(fast_scenario_path),
                "--runs", "2"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "comparison.csv").read_bytes()
                == (tmp_path / "b" / "comparison.csv").read_bytes())


class TestSweep:
    def test_run_dirs_and_summary(self, fast_scenario_path, tmp_path):
        out = tmp_path / "sweep"
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", "w_T=0.5,2.0", "--out", str(out)])
        assert code == 0
        assert (out / "w_T_0.5" / "omega.csv").exists()
        assert (out / "w_T_2" / "omega.csv").exists()
        lines = read_csv(out / "summary.csv")
        assert lines[0].startswith("w_T,")
        assert len(lines) == 3

    def test_summary_deterministic(self, fast_scenario_path, tmp_path):
        base = ["sweep", "--scenario", str(fast_scenario_path),
                "--sweep", "w_T=0.5,2"]
        assert main(base + ["--out", str(tmp_path / "a")]) == 0
        assert main(base + ["--out", str(tmp_path / "b")]) == 0
        assert ((tmp_path / "a" / "summary.csv").read_bytes()
                == (tmp_path / "b" / "summary.csv").read_bytes())

    def test_bad_key_exits_2(self, fast_scenario_path, tmp_path):
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", "banana=1,2", "--out", str(tmp_path / "s")])
        assert code == 2

    def test_empty_value_exits_2(self, fast_scenario_path, tmp_path, capsys):
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", "w_T=", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "w_T" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    def test_fractional_step_count_exits_2(self, fast_scenario_path, tmp_path,
                                           capsys):
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", "J=1.5", "--out", str(tmp_path / "s")])
        assert code == 2
        assert "J" in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    # 1e300 is above the w_T bound that keeps Adam's second moment finite
    @pytest.mark.parametrize("spec,named", [("w_T=1,-1", "w_T=-1"),
                                            ("K=4,1", "K=1"),
                                            ("w_T=1,1e300", "w_T=1e+300")])
    def test_bad_later_value_exits_2_before_any_run(
            self, fast_scenario_path, tmp_path, capsys, spec, named):
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        assert named in capsys.readouterr().err
        assert not (tmp_path / "s").exists()

    # values that print alike under {value:g} would share one run directory,
    # which would then hold only the later run
    @pytest.mark.parametrize("spec,first,second", [
        ("lr=0.0100000001,0.01", "0.0100000001", "0.01"),
        ("w_T=1,1", "1", "1")])
    def test_values_sharing_a_run_directory_exit_2_before_any_run(
            self, fast_scenario_path, tmp_path, capsys, spec, first, second):
        code = main(["sweep", "--scenario", str(fast_scenario_path),
                     "--sweep", spec, "--out", str(tmp_path / "s")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --sweep")
        assert f"values '{first}' and '{second}'" in err
        assert not (tmp_path / "s").exists()


@pytest.mark.parametrize("argv,out", [
    (["generate"], "file"),
    (["evaluate", "--runs", "1"], "file/x"),
    (["compare", "--runs", "1"], "file"),
    (["sweep", "--sweep", "w_T=1,2"], "file/x/y"),
], ids=["generate", "evaluate", "compare", "sweep"])
def test_out_under_a_file_exits_2_before_sampling(tmp_path, capsys,
                                                  no_sampling, argv, out):
    (tmp_path / "file").write_text("")
    assert main(argv + ["--out", str(tmp_path / out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--out" in err
    assert str(tmp_path / "file") in err
    assert (tmp_path / "file").read_text() == ""


# a directory where the command writes a file, or a file or a dangling
# link where it makes a run directory
WRONG_KIND = [
    *((["generate"], name, "dir") for name in (
        "segments.csv", "long_sequence.csv", "omega.csv", "energy.csv",
        "manifest.json")),
    (["evaluate", "--runs", "1"], "metrics.json", "dir"),
    (["compare", "--runs", "1"], "comparison.csv", "dir"),
    (["sweep", "--sweep", "w_T=0.5,1"], "w_T_1", "file"),
    (["sweep", "--sweep", "w_T=0.5,1"], "w_T_0.5", "link"),
    (["sweep", "--sweep", "w_T=0.5,1"], "w_T_1/omega.csv", "dir"),
    (["sweep", "--sweep", "w_T=0.5,1"], "summary.csv", "dir"),
]


@pytest.mark.parametrize("argv,path,kind", WRONG_KIND,
                         ids=[f"{argv[0]}-{path}" for argv, path, _ in
                              WRONG_KIND])
def test_out_path_of_the_wrong_kind_exits_2_before_sampling(
        tmp_path, capsys, no_sampling, argv, path, kind):
    out = tmp_path / "out"
    (out / path).parent.mkdir(parents=True)
    if kind == "dir":
        (out / path).mkdir()
    elif kind == "file":
        (out / path).write_text("")
    else:
        (out / path).symlink_to(tmp_path / "nowhere")
    before = sorted(tmp_path.rglob("*"))
    assert main(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: --out") and f"{out / path} is" in err
    assert sorted(tmp_path.rglob("*")) == before


class TestCheck:
    def test_all_checks_pass(self, capsys):
        assert run_check() == 0
        out = capsys.readouterr().out
        assert out.count("[PASS]") >= 6
        assert "[FAIL]" not in out

    def test_lambda_fault_injection_detected(self, monkeypatch):
        weight = pathmix.checks.lambda_weight
        monkeypatch.setattr(pathmix.checks, "lambda_weight",
                            lambda *args: 1.001 * weight(*args))
        result = check_kl_proportionality()
        assert not result.passed
        assert run_check() == 1

    def test_cli_entry(self):
        assert main(["check"]) == 0
