import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from test_counting import convolved_line

from biphoton.cli import main
from biphoton.memory_interface import DesignPoint, read_in_efficiency

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

    def test_invalid_physics_parameter(self, runner):
        result = runner.invoke(main, ["efficiency", "--t-hat", "-1", "--gamma-hat", "0.85"])
        assert result.exit_code == 4

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
