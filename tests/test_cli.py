import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from test_counting import convolved_line

import biphoton.cli as cli
from biphoton.cli import main
from biphoton.counting import SweepPoint, write_sweep_csv
from biphoton.joint_amplitude import JointAmplitude, write_joint_amplitude_csv
from biphoton.memory_interface import DesignPoint, read_in_efficiency
from biphoton.schmidt import schmidt_decompose, write_modes_csv
from biphoton.signal_model import TimeGrid

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")

COUNTS_HEADER = "pump_power_mW,c_T,c_H,c_V,c_H_given_T,c_V_given_T,c_HV_given_T,acc_s_given_T"
COUNTS_BODY = (
    COUNTS_HEADER + "\n"
    "10,10000,5000,5000,70,65,0.5,10\n"
    "20,20000,10000,10000,140,130,2.0,20\n"
    "30,30000,15000,15000,210,195,4.5,30\n"
)


@pytest.fixture
def runner():
    return CliRunner()


def run_json(runner, args):
    result = runner.invoke(main, args)
    assert result.exit_code == 0, result.output
    return json.loads(result.output)


class TestEfficiencyCommand:
    def test_matches_library(self, runner):
        payload = run_json(runner, ["efficiency", "--t-hat", "11", "--gamma-hat", "0.85"])
        expected = read_in_efficiency(DesignPoint(t_hat=11.0, gamma_hat=0.85))
        assert payload["eta_in"] == pytest.approx(expected, rel=1e-8)
        assert payload["schema"] == "1"
        assert len(payload["lambda_sq_head"]) == 8
        assert payload["config"]["kernel"] == "gated"

    def test_config_file_with_flag_override(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"schema": "1", "t_hat": 11.0, "gamma_hat": 0.5}))
        payload = run_json(
            runner,
            ["efficiency", "--config", str(config), "--gamma-hat", "0.85"],
        )
        assert payload["config"]["t_hat"] == 11.0
        assert payload["config"]["gamma_hat"] == 0.85

    def test_unknown_config_key_rejected(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 11.0, "gamma_hat": 0.85, "gamm_hat": 1.0}))
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert "gamm_hat" in result.output

    def test_missing_required_parameter(self, runner):
        result = runner.invoke(main, ["efficiency", "--t-hat", "11"])
        assert result.exit_code == 2
        assert "gamma_hat" in result.output

    def test_config_string_false_disables_gates(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 4.0, "gamma_hat": 0.85, "use_gates": "false"}))
        from_file = run_json(runner, ["efficiency", "--config", str(config)])
        flag = run_json(runner, ["efficiency", "--t-hat", "4", "--gamma-hat", "0.85", "--no-gates"])
        assert from_file["config"]["use_gates"] is False
        assert from_file["eta_in"] == flag["eta_in"]

    def test_config_fractional_integer_rejected(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 4.0, "gamma_hat": 0.85, "points_per_sigma": 16.9}))
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert "16.9" in result.output

    def test_config_boolean_number_rejected(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": True, "gamma_hat": 0.85}))
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert "true" in result.output

    def test_ungated_kernel_without_gates(self, runner):
        args = ["efficiency", "--t-hat", "4", "--gamma-hat", "0.85", "--no-gates"]
        ungated = run_json(runner, args + ["--kernel", "ungated"])
        gated = run_json(runner, args + ["--kernel", "gated"])
        assert 0.0 < ungated["eta_in"] <= gated["eta_in"]

    @pytest.mark.parametrize("gamma_hat", ["30", "1e300"])
    def test_filter_beyond_lattice_resolution_is_numerical_error(self, runner, gamma_hat):
        result = runner.invoke(main, ["efficiency", "--t-hat", "2", "--gamma-hat", gamma_hat])
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and "exceeds points_per_sigma / 2 = 8" in lines[0]

    def test_invalid_physics_parameter(self, runner):
        result = runner.invoke(main, ["efficiency", "--t-hat", "-1", "--gamma-hat", "0.85"])
        assert result.exit_code == 4

    def test_lattice_over_cap_is_numerical_error(self, runner):
        result = runner.invoke(main, ["efficiency", "--t-hat", "1e9", "--gamma-hat", "1", "--no-gates"])
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: lattice of ")

    @pytest.mark.parametrize(
        "error",
        [
            MemoryError("cannot allocate the lattice"),
            MemoryError(),
            np.linalg.LinAlgError("Eigenvalues did not converge"),
            ValueError("operands could not be broadcast together with shapes (3,) (4,)"),
        ],
    )
    def test_memory_and_linalg_errors_are_numerical_errors(self, runner, monkeypatch, error):
        def failing(*args, **kwargs):
            raise error

        monkeypatch.setattr(cli, "evaluate_design", failing)
        result = runner.invoke(main, ["efficiency", "--t-hat", "11", "--gamma-hat", "0.85"])
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"error: {type(error).__name__}: ")
        assert "Traceback" not in result.output

    def test_output_file(self, runner, tmp_path):
        out = tmp_path / "report.json"
        result = runner.invoke(
            main,
            ["efficiency", "--t-hat", "3", "--gamma-hat", "0.9", "--output", str(out)],
        )
        assert result.exit_code == 0
        payload = json.loads(out.read_text())
        assert 0.0 < payload["eta_in"] <= 1.0


class TestSweepCommand:
    ARGS = [
        "sweep",
        "--t-min", "2", "--t-max", "4", "--t-steps", "2",
        "--gamma-min", "0.4", "--gamma-max", "1.2", "--gamma-steps", "4",
    ]

    def test_summary_payload(self, runner):
        payload = run_json(runner, self.ARGS)
        assert payload["command"] == "sweep"
        assert len(payload["t_hat"]) == 2
        assert len(payload["gamma_opt"]) == 2
        assert payload["failures"] == []

    def test_single_cell(self, runner):
        payload = run_json(
            runner,
            [
                "sweep",
                "--t-min", "3", "--t-max", "3", "--t-steps", "1",
                "--gamma-min", "0.9", "--gamma-max", "0.9", "--gamma-steps", "1",
            ],
        )
        assert payload["gamma_opt"] == [0.9]
        assert 0.0 < payload["eta_opt"][0] <= 1.0

    def test_csv_reproducible_byte_for_byte(self, runner, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert runner.invoke(main, self.ARGS + ["--output-csv", str(first)]).exit_code == 0
        assert runner.invoke(main, self.ARGS + ["--output-csv", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_unwritable_output_is_io_error(self, runner, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "map.csv"
        result = runner.invoke(main, self.ARGS + ["--output-csv", str(missing)])
        assert result.exit_code == 3

    def test_csv_identical_across_processes_and_thread_counts(self, tmp_path):
        # Fresh interpreters with one or two pool threads and one or the
        # default number of BLAS threads.  The rectangle holds rows on one
        # lattice and rows on several.
        args = [
            "sweep",
            "--t-min", "2", "--t-max", "20", "--t-steps", "8",
            "--gamma-min", "0.5", "--gamma-max", "3", "--gamma-steps", "16",
        ]
        base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join([SRC_DIR, base.get("PYTHONPATH", "")])
        outputs = []
        for threads in ("1", "2"):
            for blas in ("1", None):
                env = dict(base, BIPHOTON_THREADS=threads)
                if blas is not None:
                    env["OPENBLAS_NUM_THREADS"] = blas
                csv_path = tmp_path / f"map-{threads}-{blas}.csv"
                done = subprocess.run(
                    [sys.executable, "-m", "biphoton.cli", *args, "--output-csv", str(csv_path)],
                    env=env, capture_output=True, text=True, timeout=300,
                )
                assert done.returncode == 0, done.stderr
                assert json.loads(done.stdout)["failures"] == []
                outputs.append(csv_path.read_bytes())
        assert len(outputs[0].splitlines()) == 1 + 8 * 16
        assert all(output == outputs[0] for output in outputs[1:])


class TestSpectrumCommand:
    def test_reference_bandwidths(self, runner):
        payload = run_json(
            runner, ["spectrum", "--pump-fwhm-ghz", "1.3", "--filter-fwhm-ghz", "1.4"]
        )
        assert payload["fwhm_GHz"] == pytest.approx(1.634, abs=2e-3)
        assert payload["quadrature_fwhm_GHz"] == pytest.approx(1.63401346, rel=1e-6)

    def test_broad_filter_limit(self, runner):
        payload = run_json(
            runner, ["spectrum", "--pump-fwhm-ghz", "1.3", "--filter-fwhm-ghz", "1000"]
        )
        assert payload["fwhm_GHz"] == pytest.approx(707.107, rel=1e-3)

    def test_coarse_grid_is_numerical_error(self, runner):
        result = runner.invoke(
            main,
            ["spectrum", "--pump-fwhm-ghz", "1.3", "--filter-fwhm-ghz", "1.4", "--points", "17"],
        )
        assert result.exit_code == 4

    def test_csv_artifact(self, runner, tmp_path):
        out = tmp_path / "spectrum.csv"
        result = runner.invoke(
            main,
            [
                "spectrum",
                "--pump-fwhm-ghz", "1.3",
                "--filter-fwhm-ghz", "1.4",
                "--output-csv", str(out),
            ],
        )
        assert result.exit_code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "frequency_GHz,intensity"
        assert len(lines) == 2050


class TestAnalyzeCommand:
    def analyze_args(self, counts_path):
        return [
            "analyze",
            "--counts-csv", str(counts_path),
            "--transmission", "0.10",
            "--transmission-err", "0.01",
            "--detector-efficiency", "0.5",
        ]

    def test_first_record_efficiency(self, runner, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_BODY)
        payload = run_json(runner, self.analyze_args(counts))
        first = payload["records"][0]
        assert first["eta_her"] == pytest.approx(0.25, abs=1e-9)
        assert first["eta_her_err"] == pytest.approx(0.0348, abs=0.001)
        assert payload["fits"]["c_T"]["slope"] == pytest.approx(1000.0, rel=1e-6)
        assert payload["skipped_rows"] == []

    def test_missing_file_is_io_error(self, runner, tmp_path):
        result = runner.invoke(main, self.analyze_args(tmp_path / "absent.csv"))
        assert result.exit_code == 3

    def test_non_finite_integration_time_rows_skipped(self, runner, tmp_path):
        counts = tmp_path / "counts.csv"
        lines = COUNTS_BODY.splitlines()
        counts.write_text(
            "\n".join([lines[0] + ",integration_time_s", lines[1] + ",1", lines[2] + ",nan",
                       lines[3] + ",inf", "40,40000,20000,20000,280,260,8.0,40,1"]) + "\n"
        )
        payload = run_json(runner, self.analyze_args(counts))
        assert [row["pump_power_mW"] for row in payload["records"]] == [10.0, 40.0]
        assert [issue.split(":")[0] for issue in payload["skipped_rows"]] == ["line 3", "line 4"]
        assert all(row["eta_her_err"] > 0 for row in payload["records"])

    def test_zero_trigger_row_reports_null(self, runner, tmp_path):
        # The 0 mW point of a power scan: no value, kept in the rate fits.
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_BODY + "0,0,0,0,0,0,0,0\n")
        plain = tmp_path / "plain.csv"
        plain.write_text(COUNTS_BODY)
        payload = run_json(runner, self.analyze_args(counts))
        reference = run_json(runner, self.analyze_args(plain))
        zero = payload["records"][3]
        assert zero["pump_power_mW"] == 0.0
        assert zero["eta_her"] is None and zero["eta_her_err"] is None
        assert zero["g2"] is None and zero["g2_err"] is None
        assert payload["records"][:3] == reference["records"]
        assert payload["aggregate"] == reference["aggregate"]
        assert payload["fits"]["c_T"]["slope"] == pytest.approx(1000.0, rel=1e-9)
        assert payload["fits"]["c_T"]["intercept"] == pytest.approx(0.0, abs=1e-9)
        assert payload["fits"]["c_T"]["residual_rms"] != reference["fits"]["c_T"]["residual_rms"]

    def test_headers_only_is_numerical_error(self, runner, tmp_path):
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_HEADER + "\n")
        result = runner.invoke(main, self.analyze_args(counts))
        assert result.exit_code == 4


class TestFitSpectrumCommand:
    def write_sweep(self, path, n=25, delta_nu=1.78, filter_fwhm=1.1):
        # A Gaussian photon line swept by the Gaussian intensity filter line,
        # convolved numerically.
        x = np.linspace(-4.0, 4.0, n)
        rates = convolved_line(x, delta_nu, filter_fwhm / math.sqrt(2.0))
        rows = ["detuning_GHz,normalized_coincidences"]
        rows += [f"{xi:.9g},{r:.9g}" for xi, r in zip(x, rates)]
        path.write_text("\n".join(rows) + "\n")

    def test_roundtrip(self, runner, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        self.write_sweep(sweep_path)
        payload = run_json(
            runner,
            ["fit-spectrum", "--sweep-csv", str(sweep_path), "--filter-fwhm-ghz", "1.1"],
        )
        assert payload["delta_nu_GHz"] == pytest.approx(1.78, rel=0.01)
        assert not payload["resolution_limited"]
        assert payload["n_points"] == 25

    def test_too_few_points_is_numerical_error(self, runner, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        self.write_sweep(sweep_path, n=3)
        result = runner.invoke(
            main,
            ["fit-spectrum", "--sweep-csv", str(sweep_path), "--filter-fwhm-ghz", "1.1"],
        )
        assert result.exit_code == 4


def test_help_screens(runner):
    assert runner.invoke(main, ["--help"]).exit_code == 0
    for command in ("efficiency", "sweep", "spectrum", "analyze", "fit-spectrum"):
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, command


def command_args(tmp_path):
    # One successful invocation of each command.
    counts = tmp_path / "counts.csv"
    counts.write_text(COUNTS_BODY)
    sweep_path = tmp_path / "sweep.csv"
    TestFitSpectrumCommand().write_sweep(sweep_path)
    return {
        "efficiency": ["efficiency", "--t-hat", "3", "--gamma-hat", "0.9"],
        "sweep": TestSweepCommand.ARGS,
        "spectrum": ["spectrum", "--pump-fwhm-ghz", "1.3", "--filter-fwhm-ghz", "1.4"],
        "analyze": TestAnalyzeCommand().analyze_args(counts),
        "fit-spectrum": ["fit-spectrum", "--sweep-csv", str(sweep_path), "--filter-fwhm-ghz", "1.1"],
    }


@pytest.mark.parametrize(
    "command, option, value",
    [
        ("efficiency", "--side-pulses", "-1"),
        ("efficiency", "--points-per-sigma", "8"),
        ("sweep", "--side-pulses", "-1"),
        ("sweep", "--points-per-sigma", "15"),
        ("sweep", "--t-steps", "0"),
        ("sweep", "--gamma-steps", "0"),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_out_of_range_integer_option_is_usage_error(runner, tmp_path, command, option, value, source):
    args = command_args(tmp_path)[command]
    if option in args:  # a flag would override the config file
        at = args.index(option)
        args = args[:at] + args[at + 2 :]
    if source == "flag":
        args = args + [option, value]
    else:
        config = tmp_path / "run.json"
        config.write_text(json.dumps({option[2:].replace("-", "_"): int(value)}))
        args = args + ["--config", str(config)]
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert f"'{option}'" in result.output and value in result.output


@pytest.mark.parametrize("command", ["efficiency", "sweep", "spectrum", "analyze", "fit-spectrum"])
def test_config_echoes_every_option(runner, tmp_path, command):
    payload = run_json(runner, command_args(tmp_path)[command])
    options = {param.name for param in main.commands[command].params}
    assert payload["schema"] == "1" and payload["command"] == command
    assert set(payload["config"]) == options - {"config_path", "output", "output_csv", "output_json"}


def test_csv_artifacts_end_lines_with_lf(runner, tmp_path):
    spectrum_csv = tmp_path / "spectrum.csv"
    map_csv = tmp_path / "map.csv"
    args = command_args(tmp_path)
    assert runner.invoke(main, args["spectrum"] + ["--output-csv", str(spectrum_csv)]).exit_code == 0
    assert runner.invoke(main, args["sweep"] + ["--output-csv", str(map_csv)]).exit_code == 0
    grid = TimeGrid(4, -1.0, 1.0)
    jta = JointAmplitude(np.outer([1.0, 2.0, 3.0, 4.0], [4.0, 1.0, 3.0, 2.0]), grid, grid)
    write_joint_amplitude_csv(jta, str(tmp_path / "jta.csv"))
    write_modes_csv(schmidt_decompose(jta, k_max=1), str(tmp_path / "modes.csv"))
    write_sweep_csv([SweepPoint(-1.0, 0.5), SweepPoint(0.0, 1.0)], str(tmp_path / "sweep-out.csv"))
    for name in ("spectrum.csv", "map.csv", "jta.csv", "modes.csv", "sweep-out.csv"):
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name
