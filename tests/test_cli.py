"""Command-line contract: flags, report schemas, exit codes, reproducibility."""

import json
import os
import subprocess
import sys

import numpy as np

import cutchoose as cc
from cutchoose.cli import SEED_ENV_VAR, SWEEP_CSV_COLUMNS, RunConfig, main, run

THIRD = 1.0 / 3.0


def invoke(*args, env_extra=None):
    env = dict(os.environ)
    env.pop("CUT_CHOOSE_SEED", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run(
        [sys.executable, "-m", "cutchoose", *args],
        capture_output=True,
        text=True,
        env=env,
    )


def invoke_json(*args, **kwargs):
    proc = invoke(*args, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


class TestReportSchema:
    def test_top_level_fields(self):
        report = invoke_json("diet", "--cutter", "1/3,1/3,1/3", "--t", "0.5,0.5,0.5")
        assert set(report) == {"command", "inputs", "results", "versions"}
        assert report["command"] == "diet"
        assert set(report["versions"]) == {"artifact", "generator"}
        assert report["versions"]["artifact"] == cc.__version__
        assert "PCG64" in report["versions"]["generator"]

    def test_generator_names_numpy_version_in_fresh_process(self):
        # numpy is not loaded here, so the version comes from package metadata;
        # the golden reports substitute np.__version__ for it.
        report = invoke_json("solve")
        assert report["versions"]["generator"] == f"numpy.random.PCG64 (numpy {np.__version__})"

    def test_json_reparses_losslessly(self):
        proc = invoke("diet", "--cutter", "1/3,1/3,1/3", "--t", "0.5,0.5,0.5")
        report = json.loads(proc.stdout)
        assert json.loads(json.dumps(report)) == report
        assert report["results"]["lambda"][0] == THIRD


class TestDietCommand:
    def test_fair_family_member(self):
        report = invoke_json(
            "diet", "--cutter", "1/3,1/3,1/3", "--t", "0.5,0.5,0.5", "--format", "json"
        )
        results = report["results"]
        assert results["lambda"] == [THIRD] * 3
        assert results["omega"] == [THIRD] * 3
        assert results["is_fair"] is True

    def test_fraction_parsing_matches_float_division(self):
        report = invoke_json("diet", "--cutter", "2/8,3/8,3/8", "--t", "0,0,0")
        assert report["inputs"]["cutter"] == [0.25, 0.375, 0.375]

    def test_near_uniform_decimal_cutter_warns(self):
        proc = invoke(
            "diet",
            "--cutter",
            "0.3333333333333333,0.3333333333333333,0.3333333333333334",
            "--t",
            "0,0,0",
        )
        assert proc.returncode == 0
        assert "uniform" in proc.stderr

    def test_exact_fraction_cutter_does_not_warn(self):
        proc = invoke("diet", "--cutter", "1/3,1/3,1/3", "--t", "0,0,0")
        assert proc.stderr == ""


class TestChooserSpecification:
    def test_conditionals_and_t_are_exclusive(self):
        proc = invoke(
            "diet", "--cutter", "1/3,1/3,1/3",
            "--chooser", "0.5,0.5,0.5", "--t", "0,0,0",
        )
        assert proc.returncode == 2

    def test_missing_chooser_is_config_error(self):
        assert invoke("diet", "--cutter", "1/3,1/3,1/3").returncode == 2

    def test_conditional_form(self):
        report = invoke_json(
            "classify", "--chooser", "0.25,0.75,0.75", "--format", "json"
        )
        klass = report["results"]["classification"]
        assert klass["kind"] == "intransitive_cycle_condition_1"

    def test_invalid_values_exit_2(self):
        assert invoke("classify", "--t", "3,0,0").returncode == 2
        assert invoke("diet", "--cutter", "0.5,0.5,0.5", "--t", "0,0,0").returncode == 2

    def test_negative_t_values_parse(self):
        report = invoke_json("classify", "--t", "-0.5,0.2,0.9")
        chooser = report["results"]["chooser"]
        assert chooser["c20"] == 0.25
        assert chooser["c01"] == 0.6
        assert chooser["c12"] == 0.95

    def test_negative_symmetric_t(self):
        report = invoke_json("classify", "--t", "-0.5,-0.5,-0.5")
        klass = report["results"]["classification"]
        assert klass["kind"] == "intransitive_cycle_condition_2"


class TestSimulateCommand:
    ARGS = (
        "simulate", "--cutter", "1/3,1/3,1/3", "--t", "0.5,0.5,0.5",
        "-n", "100000", "--seed", "42",
    )

    def test_result_includes_seed_and_generator(self):
        results = invoke_json(*self.ARGS)["results"]
        assert results["seed"] == 42
        assert results["generator"] == "numpy.random.PCG64"
        assert sum(results["counts_lambda"]) == 100000

    def test_rerun_is_bit_identical(self):
        first = invoke(*self.ARGS)
        second = invoke(*self.ARGS)
        assert first.stdout == second.stdout

    def test_env_var_supplies_seed(self):
        args = self.ARGS[:-2]  # drop --seed 42
        results = invoke_json(*args, env_extra={"CUT_CHOOSE_SEED": "777"})["results"]
        assert results["seed"] == 777

    def test_flag_beats_env_var(self):
        results = invoke_json(*self.ARGS, env_extra={"CUT_CHOOSE_SEED": "777"})["results"]
        assert results["seed"] == 42

    def test_default_seed_is_zero(self):
        results = invoke_json(*self.ARGS[:-2])["results"]
        assert results["seed"] == 0

    def test_rounds_required(self):
        assert invoke(*self.ARGS[:-4]).returncode == 2

    def test_env_seed_read_only_by_seeded_commands(self, monkeypatch, capsys):
        monkeypatch.setenv(SEED_ENV_VAR, "abc")
        assert main(["simulate", *self.ARGS[1:-4], "-n", "10"]) == 2
        assert main(["diet", "--cutter", "1/3,1/3,1/3", "--t", "0,0,0"]) == 0


class TestFeasibleCommand:
    def test_infeasible_answer_exits_zero(self):
        proc = invoke("feasible", "--cutter", "0.5,0.25,0.25")
        assert proc.returncode == 0
        results = json.loads(proc.stdout)["results"]
        assert results["feasible"] is False
        assert abs(results["certificate"] - 1 / 12) <= 1e-15
        assert results["witness_food"] == 0

    def test_uniform_cutter_returns_family(self):
        results = invoke_json("feasible", "--cutter", "1/3,1/3,1/3")["results"]
        assert results["feasible"] is True
        assert results["family"]["cutter"] == [THIRD] * 3
        assert results["family"]["t_range"] == [-1.0, 1.0]


class TestSweepCommand:
    def test_csv_schema_and_grid(self, tmp_path):
        out = tmp_path / "sweep.csv"
        proc = invoke("sweep", "--t-range", "-1:1:0.1", "--out", str(out))
        assert proc.returncode == 0, proc.stderr
        text = out.read_text(encoding="utf-8")
        lines = text.split("\n")
        assert lines[0] == ",".join(SWEEP_CSV_COLUMNS)
        rows = [line.split(",") for line in lines[1:] if line]
        assert len(rows) == 21
        ts = [float(row[0]) for row in rows]
        assert ts[0] == -1.0 and ts[-1] == 1.0
        assert all(b > a for a, b in zip(ts, ts[1:]))
        # default cutter is uniform, so the family rows are all fair
        for row in rows:
            for cell in row[2:]:
                assert abs(float(cell)) <= 1e-12
        classes = [row[1] for row in rows]
        assert classes[0] == "intransitive_cycle_condition_2"
        assert classes[10] == "intransitive_indifference"
        assert classes[-1] == "intransitive_cycle_condition_1"

    def test_seventeen_digit_serialization(self, tmp_path):
        out = tmp_path / "sweep.csv"
        invoke("sweep", "--t-range", "-1:1:0.1", "--cutter", "0.5,0.25,0.25",
               "--out", str(out))
        lines = out.read_text().strip().split("\n")[1:]
        for line in lines:
            for cell in line.split(",")[2:]:
                assert float(f"{float(cell):.17g}") == float(cell)

    def test_json_format(self):
        report = invoke_json("sweep", "--t-range", "0:1:0.5", "--format", "json")
        rows = report["results"]["rows"]
        assert [row["t"] for row in rows] == [0.0, 0.5, 1.0]

    def test_range_validation(self):
        assert invoke("sweep", "--t-range", "1:-1:0.1").returncode == 2
        assert invoke("sweep", "--t-range", "0:1:0").returncode == 2
        assert invoke("sweep").returncode == 2
        # Ends outside [-1, 1] used to be clamped into duplicate rows.
        assert invoke("sweep", "--t-range", "-2:2:0.5").returncode == 2
        assert invoke("sweep", "--t-range", "-1:1.5:0.5").returncode == 2
        # 100,001 rows: one over the row budget.
        assert invoke("sweep", "--t-range", "-1:1:0.00002").returncode == 2

    def test_rows_counted_over_written_rationals(self, tmp_path, capsys):
        def rows(*args):
            assert main(["sweep", "--format", "json", *args]) == 0
            return [row["t"] for row in json.loads(capsys.readouterr().out)["results"]["rows"]]

        # hi just below a grid point: no row past hi (0.30000000000000004 was emitted).
        assert rows("--t-range", "0:0.29999999995:0.1") == [0.0, 0.1, 0.2]
        # float quotient 2.9999999999999996, exact quotient 3.
        assert rows("--t-range", "0:0.3:0.1") == [0.0, 0.1, 0.2, 0.30000000000000004]
        assert len(rows("--t-range", "0:3/10:1/10")) == 4
        assert len(rows("--t-range", "-1:1:0.0001")) == 20_001
        # JSON floats count as their shortest repr, not their binary value.
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"t_range": [0, 0.3, 0.1]}))
        assert len(rows("--config", str(path))) == 4

    def test_csv_only_for_sweep(self):
        proc = invoke("diet", "--cutter", "1/3,1/3,1/3", "--t", "0,0,0",
                      "--format", "csv")
        assert proc.returncode == 2


class TestVerifyUniquenessCommand:
    def test_pass_exits_zero(self):
        proc = invoke(
            "verify-uniqueness", "--simplex-step", "1/6", "--t-step", "0.5",
            "--residual-tol", "1e-9", "--family-tol", "1e-9",
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["results"]["passed"] is True

    def test_fail_exits_three_and_reports_offender(self):
        proc = invoke(
            "verify-uniqueness", "--simplex-step", "1/3", "--t-step", "1",
            "--residual-tol", "0.4", "--family-tol", "1e-9",
        )
        assert proc.returncode == 3
        results = json.loads(proc.stdout)["results"]
        assert results["passed"] is False
        assert results["worst_offender"] is not None


class TestElectionCommand:
    def test_relabeled_report(self):
        report = invoke_json(
            "election", "--cutter", "1/3,1/3,1/3", "--t", "0.7,0.7,0.7",
            "--labels", "North,South,East",
        )
        results = report["results"]
        assert results["labels"] == ["North", "South", "East"]
        assert results["preference_class"]["kind"] == "intransitive_cycle_condition_1"

    def test_duplicate_labels_exit_2(self):
        proc = invoke(
            "election", "--cutter", "1/3,1/3,1/3", "--t", "0,0,0",
            "--labels", "A,A,B",
        )
        assert proc.returncode == 2


class TestConfigFile:
    def test_config_supplies_missing_fields(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cutter": "1/3,1/3,1/3", "t": [0.5, 0.5, 0.5]}))
        report = invoke_json("diet", "--config", str(path))
        assert report["results"]["is_fair"] is True

    def test_flags_override_config(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"cutter": "1,0,0", "t": "0,0,0"}))
        report = invoke_json("diet", "--config", str(path), "--cutter", "1/3,1/3,1/3")
        assert report["inputs"]["cutter"] == [THIRD] * 3

    def test_command_mismatch_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"command": "solve"}))
        assert invoke("diet", "--config", str(path)).returncode == 2

    def test_env_seed_beats_config_file_seed(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"cutter": "1/3,1/3,1/3", "t": "0,0,0", "n_rounds": 10, "seed": 5}
        ))
        with_env = invoke_json(
            "simulate", "--config", str(path), env_extra={"CUT_CHOOSE_SEED": "9"}
        )
        assert with_env["results"]["seed"] == 9
        without_env = invoke_json("simulate", "--config", str(path))
        assert without_env["results"]["seed"] == 5

    def test_labels_from_config_file(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps(
            {"cutter": "1/3,1/3,1/3", "t": "0.5,0.5,0.5", "labels": ["X", "Y", "Z"]}
        ))
        report = invoke_json("election", "--config", str(path))
        assert report["results"]["labels"] == ["X", "Y", "Z"]

    def test_non_integer_counts_rejected(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SEED_ENV_VAR, raising=False)
        path = tmp_path / "run.json"
        base = {"cutter": "1/3,1/3,1/3", "t": "0,0,0", "n_rounds": 10, "seed": 3}
        for bad in ({"n_rounds": 10.7}, {"seed": 3.9}, {"n_rounds": 10.0},
                    {"seed": True}, {"n_rounds": "10.5"}):
            path.write_text(json.dumps({**base, **bad}))
            assert main(["simulate", "--config", str(path)]) == 2, bad

    def test_unknown_field_rejected(self, tmp_path):
        path = tmp_path / "run.json"
        path.write_text(json.dumps({"mystery": 1}))
        assert invoke("solve", "--config", str(path)).returncode == 2

    def test_field_the_command_does_not_read_rejected(self, tmp_path, capsys):
        path = tmp_path / "run.json"
        base = {"command": "diet", "cutter": "1/3,1/3,1/3", "t": "0,0,0", "format": "json"}
        path.write_text(json.dumps(base))
        assert main(["diet", "--config", str(path)]) == 0
        path.write_text(json.dumps({**base, "n_rounds": 5}))
        assert main(["diet", "--config", str(path)]) == 2
        assert "unknown config fields for 'diet': ['n_rounds']" in capsys.readouterr().err


class TestOutputHandling:
    def test_out_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        proc = invoke("solve", "--out", str(out))
        assert proc.returncode == 0
        assert json.loads(out.read_text())["command"] == "solve"

    def test_unwritable_path_exits_four(self, tmp_path):
        proc = invoke("solve", "--out", str(tmp_path / "missing" / "report.json"))
        assert proc.returncode == 4

    def test_unknown_command_exits_two(self):
        assert invoke("nonsense").returncode == 2


class TestImportPath:
    def test_cli_import_leaves_numpy_unloaded(self):
        code = "import sys, cutchoose, cutchoose.cli; print('numpy' in sys.modules)"
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == "False\n"


class TestRunApi:
    def test_run_returns_status_and_text(self):
        status, text = run(RunConfig(command="solve"))
        assert status == 0
        report = json.loads(text)
        assert report["results"]["cutter"] == [THIRD] * 3
        assert report["results"]["self_check"]["max_abs_residual"] <= 1e-12

    def test_solve_description_names_the_family(self):
        _, text = run(RunConfig(command="solve"))
        description = json.loads(text)["results"]["description"]
        assert "(1+t)/2" in description
