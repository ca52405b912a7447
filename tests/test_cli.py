import inspect
import json
import math
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from test_counting import FIVE_POINT_DETUNINGS, FIVE_POINT_RATES, convolved_line

import biphoton
import biphoton.cli as cli
from biphoton.cli import main
from biphoton.memory_interface import DesignPoint, read_in_efficiency

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
        assert "--gamma-hat" in result.output

    def test_config_null_leaves_default(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 3.0, "gamma_hat": 0.9, "side_pulses": None, "kernel": None}))
        payload = run_json(runner, ["efficiency", "--config", str(config)])
        assert payload["config"]["side_pulses"] == 3 and payload["config"]["kernel"] == "gated"
        flag = run_json(runner, ["efficiency", "--t-hat", "3", "--gamma-hat", "0.9"])
        assert payload == flag

    @pytest.mark.parametrize(
        "text, message",
        [
            ('{"schema": "2", "t_hat": 3.0, "gamma_hat": 0.9}', "unsupported config schema '2'"),
            ('{"t_hat": 3.0,', "config file is not valid JSON"),
            ("[3.0, 0.9]", "config file must hold a JSON object"),
            (None, "cannot read config file"),
        ],
    )
    def test_unreadable_config_is_usage_error(self, runner, tmp_path, text, message):
        config = tmp_path / "run.json"
        if text is not None:
            config.write_text(text)
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert message in result.output

    def test_flags_override_config_file(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 4.0, "gamma_hat": 0.85, "kernel": "ungated", "side_pulses": 2}))
        payload = run_json(runner, ["efficiency", "--config", str(config), "--kernel", "gated", "--side-pulses", "3"])
        assert payload["config"]["kernel"] == "gated" and payload["config"]["side_pulses"] == 3
        flag = run_json(runner, ["efficiency", "--t-hat", "4", "--gamma-hat", "0.85"])
        assert payload == flag

    def test_config_fractional_integer_rejected(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": 4.0, "gamma_hat": 0.85, "side_pulses": 2.9}))
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert "2.9" in result.output

    def test_config_boolean_number_rejected(self, runner, tmp_path):
        config = tmp_path / "run.json"
        config.write_text(json.dumps({"t_hat": True, "gamma_hat": 0.85}))
        result = runner.invoke(main, ["efficiency", "--config", str(config)])
        assert result.exit_code == 2
        assert "true" in result.output

    def test_ungated_kernel_without_gates(self, runner):
        # The kernel of the single-pulse state without gates, projected on the gated photon.
        args = ["efficiency", "--t-hat", "4", "--gamma-hat", "0.85"]
        ungated = run_json(runner, args + ["--kernel", "ungated"])
        gated = run_json(runner, args + ["--kernel", "gated"])
        assert 0.0 < ungated["eta_in"] <= gated["eta_in"]

    def test_filter_beyond_base_density_is_evaluated(self, runner):
        # The lattice refines with gamma_hat: 64 points per sigma_p here.
        payload = run_json(runner, ["efficiency", "--t-hat", "2", "--gamma-hat", "30"])
        assert payload["eta_in"] == pytest.approx(read_in_efficiency(DesignPoint(2.0, 30.0)), rel=1e-8)

    @pytest.mark.parametrize("gamma_hat", ["1e300"])
    def test_filter_beyond_lattice_resolution_is_numerical_error(self, runner, gamma_hat):
        # A filter too narrow for any lattice under the cap is still refused.
        result = runner.invoke(main, ["efficiency", "--t-hat", "2", "--gamma-hat", gamma_hat])
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: lattice of ") and "exceeds the cap" in lines[0]

    def test_gate_without_nodes_is_numerical_error(self, runner):
        args = ["efficiency", "--t-hat", "0.05", "--gamma-hat", "0.9"]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        assert result.stdout == ""
        lines = result.stderr.splitlines()
        assert len(lines) == 1
        assert "t_hat = 0.05 is below the lattice step 0.0625" in lines[0]

    @pytest.mark.parametrize(
        "args",
        [
            ["efficiency", "--t-hat", "4", "--gamma-hat", "0.85"],
            ["sweep", "--t-min", "2", "--t-max", "4", "--t-steps", "3",
             "--gamma-min", "0.4", "--gamma-max", "1.2", "--gamma-steps", "4"],
        ],
        ids=["efficiency", "sweep"],
    )
    def test_integer_beyond_float_range_evaluates(self, runner, args):
        # Pulses beyond PULSE_REACH of the lattice add exactly 0.0, so a train
        # of 10**400 side pulses gives the results of one of 10**6.
        payloads = []
        for count in (10**400, 10**6):
            result = runner.invoke(main, args + ["--side-pulses", str(count)])
            assert result.exit_code == 0 and result.stderr == "", result.output
            payload = json.loads(result.stdout)
            assert payload["config"].pop("side_pulses") == count
            payloads.append(payload)
        assert payloads[0] == payloads[1]

    def test_invalid_physics_parameter(self, runner):
        result = runner.invoke(main, ["efficiency", "--t-hat", "-1", "--gamma-hat", "0.85"])
        assert result.exit_code == 4

    def test_lattice_over_cap_is_numerical_error(self, runner):
        # Every byte size here overflows a float, and the last node count is
        # infinite itself.  The step shrinks with gamma_hat but stays
        # positive, so an extreme filter meets the cap too; a RuntimeWarning
        # on the way would be an error in this suite.
        for t_hat, gamma_hat in [
            ("1e300", "1e-300"),
            ("4", "1e300"),
            ("4", "1e308"),
            ("4", "1.7e308"),
            ("1e308", "1e-308"),
        ]:
            result = runner.invoke(main, ["efficiency", "--t-hat", t_hat, "--gamma-hat", gamma_hat])
            assert result.exit_code == 4, (t_hat, gamma_hat)
            assert result.stdout == ""
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: lattice of ") and "exceeds the cap" in lines[0]

    def test_subnormal_filter_is_numerical_error(self, runner):
        # pi / (2 gamma_hat) overflows, so the lattice is refused before its
        # step is formed; past gamma_hat ~ 3.4e153 the cell area h^2 is
        # subnormal or zero, so the lattice is refused before any weight is
        # scaled by it.
        for t_hat, gamma_hat, cause in [
            ("5", "5e-324", "overflows"),
            ("1e-307", "1e308", "h^2 = 0 is below the smallest normal float64"),
            ("1e-159", "1e160", "h^2 = 2.49997e-321 is below the smallest normal float64"),
            ("1e-161", "1e162", "h^2 = 0 is below the smallest normal float64"),
        ]:
            result = runner.invoke(main, ["efficiency", "--t-hat", t_hat, "--gamma-hat", gamma_hat])
            assert result.exit_code == 4, gamma_hat
            assert result.stdout == ""
            lines = result.stderr.splitlines()
            assert len(lines) == 1 and lines[0].startswith("error: gamma_hat = ") and cause in lines[0]

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

    def test_overflow_error_is_numerical_error(self, runner, monkeypatch):
        def failing(*args, **kwargs):
            raise OverflowError("int too large to convert to float")

        monkeypatch.setattr(cli, "sweep_design_space", failing)
        result = runner.invoke(
            main, ["sweep", "--t-min", "2", "--t-max", "4", "--gamma-min", "0.4", "--gamma-max", "1.2"]
        )
        assert result.exit_code == 4
        assert isinstance(result.exception, SystemExit)
        assert result.stderr.splitlines() == ["error: OverflowError: int too large to convert to float"]
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

    def test_subnormal_filter_cells_are_failures(self, runner):
        # The lattice of every cell at gamma_hat = 5e-324 is refused; the others are evaluated.
        result = runner.invoke(
            main,
            [
                "sweep",
                "--t-min", "2", "--t-max", "3", "--t-steps", "2",
                "--gamma-min", "5e-324", "--gamma-max", "1", "--gamma-steps", "3",
            ],
        )
        assert result.exit_code == 0
        assert result.stderr == ""
        payload = json.loads(result.stdout)
        assert [(f["t_hat"], f["gamma_hat"]) for f in payload["failures"]] == [(2.0, 5e-324), (3.0, 5e-324)]
        assert all(f["error"].startswith("gamma_hat = ") for f in payload["failures"])
        assert all(0.0 < eta <= 1.0 for eta in payload["eta_opt"])

    def test_csv_reproducible_byte_for_byte(self, runner, tmp_path):
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert runner.invoke(main, self.ARGS + ["--output-csv", str(first)]).exit_code == 0
        assert runner.invoke(main, self.ARGS + ["--output-csv", str(second)]).exit_code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_required_options_from_config_file(self, runner, tmp_path):
        names = ["t_min", "t_max", "gamma_min", "gamma_max"]
        config = tmp_path / "run.json"
        config.write_text(json.dumps(dict(zip(names, [2.0, 4.0, 0.4, 1.2]))))
        steps = ["--t-steps", "2", "--gamma-steps", "4"]
        payload = run_json(runner, ["sweep", "--config", str(config), *steps])
        assert payload == run_json(runner, self.ARGS)

    def test_unwritable_output_is_io_error(self, runner, tmp_path):
        missing = tmp_path / "no" / "such" / "dir" / "map.csv"
        result = runner.invoke(main, self.ARGS + ["--output-csv", str(missing)])
        assert result.exit_code == 3

    def test_csv_identical_across_processes_and_thread_counts(self, tmp_path):
        # Fresh interpreters pinned to one CPU (a pool of one) or free to
        # run on every CPU of this process (a pool of that many), with one
        # or the default number of BLAS threads.  The rectangle holds rows
        # on one lattice and rows on several.
        args = [
            "sweep",
            "--t-min", "2", "--t-max", "20", "--t-steps", "8",
            "--gamma-min", "0.5", "--gamma-max", "3", "--gamma-steps", "16",
        ]
        base = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
        base["PYTHONPATH"] = os.pathsep.join([SRC_DIR, base.get("PYTHONPATH", "")])
        cpu = min(os.sched_getaffinity(0))

        def pin_to_one_cpu():
            os.sched_setaffinity(0, {cpu})

        outputs = []
        for pin in (pin_to_one_cpu, None):
            for blas in ("1", None):
                env = dict(base)
                if blas is not None:
                    env["OPENBLAS_NUM_THREADS"] = blas
                csv_path = tmp_path / f"map-{pin is None}-{blas}.csv"
                done = subprocess.run(
                    [sys.executable, "-m", "biphoton.cli", *args, "--output-csv", str(csv_path)],
                    env=env, capture_output=True, text=True, timeout=300, preexec_fn=pin,
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

    def test_axis_floor_resolves_every_line(self, runner):
        rng = np.random.default_rng(65)
        for _ in range(200):
            pump, filt = (10.0 ** rng.uniform(-2.0, 2.0, size=2)).tolist()
            center = float(rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 1.0))
            args = ["spectrum", "--pump-fwhm-ghz", repr(pump), "--filter-fwhm-ghz", repr(filt)]
            result = runner.invoke(main, args + ["--filter-center-ghz", repr(center)])
            assert result.exit_code == 0, (pump, filt, center, result.output)

    FAR = ["spectrum", "--pump-fwhm-ghz", "1", "--filter-fwhm-ghz", "1", "--filter-center-ghz"]

    def test_far_centre_width_is_exact(self, runner):
        payload = run_json(runner, self.FAR + ["-1e12"])
        assert payload["fwhm_GHz"] == pytest.approx(payload["quadrature_fwhm_GHz"], rel=1e-8)

    def test_unresolvable_centre_is_numerical_error(self, runner):
        # At 1e15 the float spacing (0.125) exceeds the axis step (0.0048).
        result = runner.invoke(main, self.FAR + ["-1e15"])
        assert result.exit_code == 4
        assert "too far out" in result.output

    @pytest.mark.parametrize(
        "pump, filt, center, message",
        [
            ("nan", "1", "0", "pump_fwhm must be positive and finite, got nan"),
            ("inf", "1", "0", "pump_fwhm must be positive and finite, got inf"),
            ("1", "-inf", "0", "filter_amplitude_fwhm must be positive and finite, got -inf"),
            ("3e307", "1", "0", "marginal FWHM 3e+307 is out of range: its +/-4-FWHM axis overflows"),
            ("1e-320", "1e-320", "0", "marginal FWHM 1.22479e-320 is out of range: its +/-4-FWHM axis underflows"),
            ("1", "1", "-1e15", "filter centre -1e+15 is too far out"),
            ("1e307", "1", "1.7e308", "filter centre 1.7e+308 is too far out"),
        ],
    )
    @pytest.mark.filterwarnings("error::RuntimeWarning")  # a warning would print a second line
    def test_refusal_names_its_cause(self, runner, pump, filt, center, message):
        args = ["spectrum", "--pump-fwhm-ghz", pump, "--filter-fwhm-ghz", filt, "--filter-center-ghz", center]
        result = runner.invoke(main, args)
        assert result.exit_code == 4
        lines = result.output.splitlines()
        assert len(lines) == 1 and message in lines[0], result.output

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

    def test_excel_utf8_bom_with_crlf_reads_as_plain(self, runner, tmp_path):
        # Excel's "CSV UTF-8" export: a byte-order mark, then CRLF line ends.
        excel, plain = tmp_path / "excel.csv", tmp_path / "plain.csv"
        excel.write_bytes(b"\xef\xbb\xbf" + COUNTS_BODY.replace("\n", "\r\n").encode())
        plain.write_text(COUNTS_BODY)
        payload = run_json(runner, self.analyze_args(excel))
        reference = run_json(runner, self.analyze_args(plain))
        assert payload["skipped_rows"] == []
        assert {**payload, "config": None} == {**reference, "config": None}

    def test_defaulted_columns_warn_in_the_payload_not_on_stderr(self, runner, tmp_path):
        # No triple-coincidence or accidental columns: both read as zero.
        counts = tmp_path / "counts.csv"
        counts.write_text("\n".join(",".join(line.split(",")[:6]) for line in COUNTS_BODY.splitlines()) + "\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = runner.invoke(main, self.analyze_args(counts))
        assert result.exit_code == 0 and result.stderr == ""
        assert caught == []
        payload = json.loads(result.stdout)
        assert payload["warnings"] == [
            "counts CSV lacks c_HV_given_T, acc_s_given_T; treating those rates as zero"
        ]
        assert len(payload["records"]) == 3 and payload["skipped_rows"] == []
        counts.write_text(COUNTS_BODY)
        assert run_json(runner, self.analyze_args(counts))["warnings"] == []

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

    def test_zero_triples_row_keeps_weighted_g2(self, runner, tmp_path):
        # No triple coincidences in one integration: the count is floored at
        # one, so g2 = 0 carries an error and the aggregate stays weighted.
        counts = tmp_path / "counts.csv"
        counts.write_text(COUNTS_BODY + "5,5000,2500,2500,35,32,0,5\n")
        payload = run_json(runner, self.analyze_args(counts))
        zero = payload["records"][3]
        assert zero["g2"] == 0.0 and zero["g2_err"] > 0
        weights = [1.0 / row["g2_err"] ** 2 for row in payload["records"]]
        mean = sum(w * row["g2"] for w, row in zip(weights, payload["records"])) / sum(weights)
        assert payload["aggregate"]["g2"] == pytest.approx(mean, rel=1e-8)
        assert payload["aggregate"]["g2_err"] == pytest.approx(math.sqrt(1.0 / sum(weights)), rel=1e-8)

    @pytest.mark.parametrize(
        "heralded",
        [
            # Every rate near 1e200: the c_T fit's residuals, near 1e199, square past the float maximum.
            "5e199,5e199,7e197,6.5e197,5e195,1e197",
            # Triggers alone near 1e200: so do the terms of g2's error.
            "5000,5000,70,65,0.5,10",
        ],
    )
    def test_rates_near_1e200_give_finite_residual_rms(self, runner, tmp_path, heralded):
        counts = tmp_path / "counts.csv"
        rows = [f"{power},{c_t},{heralded}\n" for power, c_t in ((10, "1e200"), (20, "2.1e200"), (30, "2.9e200"))]
        counts.write_text(COUNTS_HEADER + "\n" + "".join(rows))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            payload = run_json(runner, self.analyze_args(counts))
        assert [str(w.message) for w in caught] == []
        # Residuals -0.05, 0.1, -0.05 (times 1e200) about the line 0.1 + 0.095 p.
        assert payload["fits"]["c_T"]["residual_rms"] == pytest.approx(math.sqrt(0.005) * 1e200, rel=1e-8)
        assert all(math.isfinite(row["g2_err"]) for row in payload["records"])

    def test_rate_fits_need_three_records_and_two_powers(self, runner, tmp_path):
        lines = COUNTS_BODY.splitlines()
        equal_power = ["10," + line.split(",", 1)[1] for line in lines[1:]]
        for name, body in (("two", lines[:3]), ("equal", [lines[0], *equal_power])):
            counts = tmp_path / f"{name}.csv"
            counts.write_text("\n".join(body) + "\n")
            payload = run_json(runner, self.analyze_args(counts))
            assert len(payload["records"]) == len(body) - 1
            assert payload["fits"] == {}

    def test_aggregate_of_tiny_errors_is_finite(self, runner, tmp_path):
        # At an integration time of 1e308 s every error is about 1e-156, so
        # 1 / err^2 overflows; the weights are scaled by the smallest error's.
        counts = tmp_path / "counts.csv"
        lines = COUNTS_BODY.splitlines()
        counts.write_text("\n".join([lines[0] + ",integration_time_s"] + [line + ",1e308" for line in lines[1:]]) + "\n")
        args = self.analyze_args(counts)
        args[args.index("--transmission-err") + 1] = "0"
        payload = run_json(runner, args)
        records, aggregate = payload["records"], payload["aggregate"]
        assert all(0 < row["eta_her_err"] < 1e-150 and 0 < row["g2_err"] < 1e-150 for row in records)
        assert aggregate["eta_her"] == pytest.approx(0.25, abs=1e-9)
        assert 0 < aggregate["eta_her_err"] <= min(row["eta_her_err"] for row in records)
        assert min(row["g2"] for row in records) < aggregate["g2"] < max(row["g2"] for row in records)

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

    def test_excel_utf8_bom_with_crlf_reads_as_plain(self, runner, tmp_path):
        # Excel's "CSV UTF-8" export: a byte-order mark, then CRLF line ends.
        plain, excel = tmp_path / "plain.csv", tmp_path / "excel.csv"
        self.write_sweep(plain)
        excel.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes().replace(b"\n", b"\r\n"))
        payload = run_json(runner, ["fit-spectrum", "--sweep-csv", str(excel), "--filter-fwhm-ghz", "1.1"])
        reference = run_json(runner, ["fit-spectrum", "--sweep-csv", str(plain), "--filter-fwhm-ghz", "1.1"])
        assert {**payload, "config": None} == {**reference, "config": None}

    def test_too_few_points_is_numerical_error(self, runner, tmp_path):
        sweep_path = tmp_path / "sweep.csv"
        self.write_sweep(sweep_path, n=3)
        result = runner.invoke(
            main,
            ["fit-spectrum", "--sweep-csv", str(sweep_path), "--filter-fwhm-ghz", "1.1"],
        )
        assert result.exit_code == 4

    def test_subnormal_filter_is_numerical_error(self, runner, tmp_path):
        # The resolution floor underflows to zero and is divided by; a sweep
        # whose span squared overflows is refused before its spread is formed.
        sweep_path = tmp_path / "sweep.csv"
        self.write_sweep(sweep_path, n=5)
        huge_path = tmp_path / "huge.csv"
        huge_path.write_text(
            "detuning_GHz,normalized_coincidences\n-2e300,0.3\n-1e300,0.7\n0,1\n1e300,0.7\n2e300,0.3\n"
        )
        for path, filter_fwhm, line in [
            (sweep_path, "5e-324", "error: ZeroDivisionError: float division by zero"),
            (huge_path, "1.1", "error: sweep spans 4e+300 GHz, whose square overflows a float64"),
        ]:
            result = runner.invoke(
                main,
                ["fit-spectrum", "--sweep-csv", str(path), "--filter-fwhm-ghz", filter_fwhm],
            )
            assert result.exit_code == 4
            assert result.stdout == ""
            assert result.stderr.splitlines() == [line]

    def test_rates_near_float_maximum_fit(self, runner, tmp_path):
        # The fit and its residual RMS work on scaled rates, so a sweep peaking
        # at 1e308 fits without an overflow warning (an error under pytest).
        sweep_path = tmp_path / "sweep.csv"
        rows = [f"{x!r},{r * 1e308!r}" for x, r in zip(FIVE_POINT_DETUNINGS, FIVE_POINT_RATES)]
        sweep_path.write_text("\n".join(["detuning_GHz,normalized_coincidences", *rows]) + "\n")
        payload = run_json(runner, ["fit-spectrum", "--sweep-csv", str(sweep_path), "--filter-fwhm-ghz", "1.1"])
        # 2.90747451 is the least-squares minimum of the unscaled sweep.
        assert payload["delta_nu_GHz"] == pytest.approx(2.90747451, rel=1e-8)
        assert 0.0 < payload["residual_rms"] < 1e307


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
        ("sweep", "--side-pulses", "-1"),
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


# Retired options, as flags and as config keys: the lattice density follows
# from the design point, the marginal spectrum has a fixed axis, and design
# evaluation always gates.
RETIRED_OPTIONS = {
    "efficiency": [(["--points-per-sigma", "16"], {"points_per_sigma": 16}),
                   (["--no-gates"], {"use_gates": False}),
                   (["--gates"], {"use_gates": True})],
    "sweep": [(["--points-per-sigma", "16"], {"points_per_sigma": 16})],
    "spectrum": [(["--points", "16"], {"points": 16})],
}


@pytest.mark.parametrize("command", ["efficiency", "sweep", "spectrum"])
@pytest.mark.parametrize("source", ["flag", "config"])
def test_retired_points_per_sigma_is_usage_error(runner, tmp_path, command, source):
    for flag, entry in RETIRED_OPTIONS[command]:
        args = command_args(tmp_path)[command]
        if source == "flag":
            args = args + flag
        else:
            config = tmp_path / "run.json"
            config.write_text(json.dumps(entry))
            args = args + ["--config", str(config)]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, (flag, entry)
        errors = [line for line in result.output.splitlines() if line.startswith("Error:")]
        assert len(errors) == 1 and (flag[0] if source == "flag" else next(iter(entry))) in errors[0]


def readme_api():
    """Name -> module of each name listed in the README's Python API section."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = text.split("\n## Python API\n", 1)[1].split("\n## ", 1)[0]
    names = {}
    for line in section.splitlines():
        if line.startswith("### "):
            module = line.strip("#` ")
        elif line.startswith("- "):
            for name in re.findall(r"`(\w+)`", line.split(" — ", 1)[0]):
                names[name] = module
    return names


def test_package_exports_match_readme_api():
    documented = readme_api()
    exported = {
        name for name, value in vars(biphoton).items() if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(documented) == exported
    for name, module in documented.items():
        assert getattr(biphoton, name).__module__ == module, name


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
    for name in ("spectrum.csv", "map.csv"):
        data = (tmp_path / name).read_bytes()
        assert data.endswith(b"\n") and b"\r" not in data, name
