import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.counting import (
    COUNT_COLUMNS,
    CountRecord,
    Measurement,
    OpticalPath,
    SweepPoint,
    fit_hsp_bandwidth,
    heralded_g2,
    heralding_efficiency,
    linear_rate_fit,
    mode_match_ratio,
    read_counts_csv,
    read_sweep_csv,
    subtract_accidentals,
    write_sweep_csv,
)
from biphoton.errors import ParameterError
from biphoton.formatting import sig9, write_csv
from biphoton.signal_model import GaussianFilterSpec


def make_record(**overrides):
    base = dict(
        pump_power_mw=10.0,
        c_t=10000.0,
        c_h=5000.0,
        c_v=5000.0,
        c_h_given_t=70.0,
        c_v_given_t=65.0,
        c_hv_given_t=0.5,
        acc_s_given_t=10.0,
    )
    base.update(overrides)
    return CountRecord(**base)


RATE_FIELDS = ("c_t", "c_h", "c_v", "c_h_given_t", "c_v_given_t", "c_hv_given_t", "acc_s_given_t")


@st.composite
def count_records(draw, low=0.0):
    """A valid record: rates in [low, 1e7], triples at most the smaller conditioned singles rate."""
    rates = {name: draw(st.floats(low, 1e7)) for name in RATE_FIELDS if name != "c_hv_given_t"}
    smaller = min(rates["c_h_given_t"], rates["c_v_given_t"])
    return CountRecord(
        pump_power_mw=draw(st.floats(0.0, 100.0)),
        c_hv_given_t=draw(st.floats(0.0, 1.0)) * smaller,
        integration_time_s=draw(st.floats(1e-3, 1e4)),
        **rates,
    )


class TestRecords:
    def test_validation(self):
        with pytest.raises(ParameterError):
            make_record(c_t=-1.0)
        with pytest.raises(ParameterError):
            make_record(c_hv_given_t=80.0)  # exceeds both conditioned singles
        with pytest.raises(ParameterError):
            make_record(integration_time_s=0.0)

    def test_derived_rates(self):
        record = make_record()
        assert record.c_s_given_t == pytest.approx(135.0)
        assert record.c_signal_total == pytest.approx(10000.0)

    def test_optical_path_validation(self):
        with pytest.raises(ParameterError):
            OpticalPath(transmission=0.0, detector_efficiency=0.5)
        with pytest.raises(ParameterError):
            OpticalPath(transmission=0.1, detector_efficiency=1.5)
        with pytest.raises(ParameterError):
            OpticalPath(transmission=0.1, detector_efficiency=0.5, transmission_err=-0.01)


class TestAccidentals:
    def test_two_percent_accidentals(self):
        record = make_record(c_h_given_t=50.0, c_v_given_t=50.0, acc_s_given_t=2.0)
        net = subtract_accidentals(record)
        assert net.value == pytest.approx(98.0)
        assert not net.clipped

    def test_floor_at_zero_with_flag(self):
        record = make_record(c_h_given_t=1.0, c_v_given_t=1.0, acc_s_given_t=5.0)
        net = subtract_accidentals(record)
        assert net.value == 0.0
        assert net.clipped


class TestHeraldingEfficiency:
    def test_anchor_value(self):
        # net = 135 - 10 = 125 counts/s against 10 kHz triggers through a
        # 10 percent path onto a 50 percent detector.
        record = make_record()
        path = OpticalPath(transmission=0.10, detector_efficiency=0.50, transmission_err=0.01)
        result = heralding_efficiency(record, path)
        assert result.value == pytest.approx(0.25, abs=1e-12)
        # Hand-propagated: Poisson on c_s|T, acc and c_T plus the 10 percent
        # relative transmission systematic.
        err_net = math.sqrt(135.0 + 10.0)
        expected = math.sqrt(
            (err_net / 500.0) ** 2
            + (0.25 * math.sqrt(10000.0) / 10000.0) ** 2
            + (0.25 * 0.01 / 0.10) ** 2
        )
        assert result.err == pytest.approx(expected, rel=1e-12)
        assert 0.02 < result.err < 0.045

    def test_integration_time_shrinks_error(self):
        path = OpticalPath(transmission=0.10, detector_efficiency=0.50)
        short = heralding_efficiency(make_record(), path)
        long = heralding_efficiency(make_record(integration_time_s=100.0), path)
        assert long.value == pytest.approx(short.value)
        assert long.err < short.err / 5.0

    def test_zero_trigger_rate_raises(self):
        path = OpticalPath(transmission=0.10, detector_efficiency=0.50)
        with pytest.raises(ParameterError):
            heralding_efficiency(make_record(c_t=0.0), path)

    def test_clipped_net_gives_zero_with_error(self):
        record = make_record(c_h_given_t=1.0, c_v_given_t=1.0, acc_s_given_t=5.0)
        path = OpticalPath(transmission=0.10, detector_efficiency=0.50)
        result = heralding_efficiency(record, path)
        assert result.value == 0.0
        assert result.err > 0.0


class TestHeraldedG2:
    def test_zero_triples_give_zero(self):
        record = make_record(c_hv_given_t=0.0)
        assert heralded_g2(record).value == 0.0

    def test_coherent_splitting_gives_one(self):
        record = make_record(
            c_t=1000.0, c_h_given_t=100.0, c_v_given_t=100.0, c_hv_given_t=10.0, acc_s_given_t=0.0
        )
        assert heralded_g2(record).value == pytest.approx(1.0, rel=1e-12)

    def test_scale_invariance(self):
        base = make_record(c_hv_given_t=0.4)
        scaled = make_record(
            c_t=base.c_t * 7.0,
            c_h=base.c_h * 7.0,
            c_v=base.c_v * 7.0,
            c_h_given_t=base.c_h_given_t * 7.0,
            c_v_given_t=base.c_v_given_t * 7.0,
            c_hv_given_t=base.c_hv_given_t * 7.0,
            acc_s_given_t=base.acc_s_given_t * 7.0,
        )
        assert abs(heralded_g2(base).value - heralded_g2(scaled).value) <= 1e-12

    def test_empty_port_raises(self):
        with pytest.raises(ParameterError):
            heralded_g2(make_record(c_v_given_t=0.0, c_hv_given_t=0.0))

    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(record=count_records(low=1e-3), scale=st.floats(1e-3, 1e3))
    def test_scale_invariance_property(self, record, scale):
        scaled = dataclasses.replace(
            record, **{name: getattr(record, name) * scale for name in RATE_FIELDS}
        )
        g2 = heralded_g2(record).value
        assert heralded_g2(scaled).value == pytest.approx(g2, rel=1e-13, abs=0.0)


class TestHeraldingEfficiencyProperties:
    @settings(derandomize=True, database=None, max_examples=50, deadline=None)
    @given(
        record=count_records(low=1e-3),
        first=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
        second=st.tuples(st.floats(1e-3, 1.0), st.floats(1e-3, 1.0)),
    )
    def test_linear_in_inverse_path_efficiency(self, record, first, second):
        # eta_her * T * eta_det = (c_s|T - acc) / c_T for any path.
        def scaled_eta(transmission, detector_efficiency):
            path = OpticalPath(transmission=transmission, detector_efficiency=detector_efficiency)
            return heralding_efficiency(record, path).value * transmission * detector_efficiency

        assert scaled_eta(*first) == pytest.approx(scaled_eta(*second), rel=1e-13, abs=0.0)


class TestLinearRateFit:
    def test_recovers_exact_line(self):
        records = [
            make_record(pump_power_mw=p, c_t=1000.0 * p + 50.0) for p in (5.0, 10.0, 20.0, 40.0)
        ]
        fit = linear_rate_fit(records, "c_t")
        assert fit.slope == pytest.approx(1000.0, rel=1e-9)
        assert fit.intercept == pytest.approx(50.0, rel=1e-6)
        assert np.abs(fit.residuals).max() < 1e-6

    def test_callable_channel(self):
        records = [make_record(pump_power_mw=p, c_h=3.0 * p) for p in (1.0, 2.0, 3.0)]
        fit = linear_rate_fit(records, lambda rec: rec.c_h * 2.0)
        assert fit.slope == pytest.approx(6.0, rel=1e-9)

    def test_preconditions(self):
        records = [make_record(pump_power_mw=1.0), make_record(pump_power_mw=2.0)]
        with pytest.raises(ParameterError):
            linear_rate_fit(records, "c_t")
        equal = [make_record(pump_power_mw=5.0) for _ in range(4)]
        with pytest.raises(ParameterError):
            linear_rate_fit(equal, "c_t")


class TestModeMatchRatio:
    def test_plain_ratio(self):
        ratio = mode_match_ratio(Measurement(0.2, 0.0), Measurement(0.4, 0.0))
        assert ratio.value == pytest.approx(0.5)
        assert ratio.err == 0.0

    def test_propagated_error(self):
        ratio = mode_match_ratio(Measurement(0.39, 0.03), Measurement(0.51, 0.02))
        assert ratio.value == pytest.approx(0.39 / 0.51, rel=1e-12)
        expected = math.sqrt((0.03 / 0.51) ** 2 + (0.39 / 0.51 * 0.02 / 0.51) ** 2)
        assert ratio.err == pytest.approx(expected, rel=1e-9)

    def test_zero_reference_raises(self):
        with pytest.raises(ParameterError):
            mode_match_ratio(Measurement(0.3, 0.01), Measurement(0.0, 0.01))


def convolved_line(x, delta_nu, kernel_fwhm):
    """Photon line of FWHM ``delta_nu`` seen through a scan line of FWHM
    ``kernel_fwhm``, by fine-grid numerical convolution, normalized to 1 at 0.

    This is the independent numerical route; the fit model uses the
    closed form of the same convolution.
    """
    narrow = min(delta_nu, kernel_fwhm)
    reach = 6.0 * max(delta_nu, kernel_fwhm)
    step = narrow / 64.0
    nu = np.arange(-reach - np.abs(x).max(), reach + np.abs(x).max() + step, step)
    photon = np.exp(-4.0 * math.log(2.0) * (nu / delta_nu) ** 2)

    def at(offset):
        line = np.exp(-4.0 * math.log(2.0) * ((offset - nu) / kernel_fwhm) ** 2)
        return float((line * photon).sum())

    return np.array([at(offset) for offset in x]) / at(0.0)


def synthetic_sweep(delta_nu, filter_fwhm, *, exponent=2.0, center=0.0, scale=1.0, n=25, span=8.0):
    """Sweep of a Gaussian photon line across the Gaussian filter line.

    ``exponent`` 2 scans with the intensity line (FWHM filter/sqrt 2), 1
    with the amplitude line.
    """
    x = np.linspace(center - span / 2.0, center + span / 2.0, n)
    rates = scale * convolved_line(x - center, delta_nu, filter_fwhm / math.sqrt(exponent))
    return [SweepPoint(float(xi), float(r)) for xi, r in zip(x, rates)]


class TestBandwidthFit:
    @pytest.mark.parametrize("delta_nu", [0.8, 1.78, 3.0])
    def test_noiseless_roundtrip(self, delta_nu):
        points = synthetic_sweep(delta_nu, 1.1)
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(1.1))
        assert abs(fit.delta_nu_ghz - delta_nu) / delta_nu <= 0.01
        assert not fit.resolution_limited

    def test_noisy_roundtrip(self):
        rng = np.random.default_rng(12345)
        clean = synthetic_sweep(1.78, 1.1)
        noisy = [
            SweepPoint(p.detuning_ghz, p.normalized_rate + rng.normal(0.0, 0.02)) for p in clean
        ]
        fit = fit_hsp_bandwidth(noisy, GaussianFilterSpec.from_amplitude_fwhm(1.1))
        assert abs(fit.delta_nu_ghz - 1.78) / 1.78 <= 0.05

    def test_amplitude_convention_roundtrip(self):
        points = synthetic_sweep(1.2, 1.1, exponent=1.0)
        fit = fit_hsp_bandwidth(
            points, GaussianFilterSpec.from_amplitude_fwhm(1.1), transmission="amplitude"
        )
        assert abs(fit.delta_nu_ghz - 1.2) / 1.2 <= 0.01

    def test_offcenter_and_scale_recovered(self):
        points = synthetic_sweep(1.78, 1.1, center=0.9, scale=0.63)
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(1.1))
        assert fit.center_ghz == pytest.approx(0.9, abs=0.02)
        assert fit.scale == pytest.approx(0.63, rel=0.02)
        assert abs(fit.delta_nu_ghz - 1.78) / 1.78 <= 0.01

    def test_monochromatic_input_flagged(self):
        # A photon line far narrower than anything the sweep can resolve
        # pushes the fit to its resolution floor and must be flagged.
        points = synthetic_sweep(0.005, 1.1)
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(1.1))
        assert fit.resolution_limited

    def test_preconditions(self):
        filt = GaussianFilterSpec.from_amplitude_fwhm(1.1)
        with pytest.raises(ParameterError):
            fit_hsp_bandwidth(synthetic_sweep(1.78, 1.1, n=3), filt)
        with pytest.raises(ParameterError):
            fit_hsp_bandwidth(synthetic_sweep(1.78, 1.1, span=0.5), filt)
        flat = [SweepPoint(x, 0.0) for x in np.linspace(-4, 4, 9)]
        with pytest.raises(ParameterError):
            fit_hsp_bandwidth(flat, filt)


COUNTS_HEADER = "pump_power_mW,c_T,c_H,c_V,c_H_given_T,c_V_given_T,c_HV_given_T,acc_s_given_T"

# (column, cell) pairs that make a row unusable: a blank cell only in a
# column without a default.
OPTIONAL_COLUMNS = ("c_HV_given_T", "acc_s_given_T", "integration_time_s")
INJECTIONS = [
    (column, cell)
    for column in COUNT_COLUMNS
    for cell in ("nan", "inf", "-inf", "-1.5", "")
    if cell or column not in OPTIONAL_COLUMNS
]


class TestCsvIngestion:
    def test_counts_roundtrip(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            COUNTS_HEADER + "\n"
            "10,10000,5000,5000,70,65,0.5,10\n"
            "20,20000,10000,10000,140,130,2.0,20\n"
        )
        records, issues = read_counts_csv(str(path))
        assert len(records) == 2 and issues == []
        assert records[0].c_t == 10000.0
        assert records[1].acc_s_given_t == 20.0

    def test_malformed_rows_skipped_with_line_numbers(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            COUNTS_HEADER + "\n"
            "10,10000,5000,5000,70,65,0.5,10\n"
            "oops,20000,10000,10000,140,130,2.0,20\n"
            "30,30000,15000,15000,210,195,4.5,30\n"
        )
        records, issues = read_counts_csv(str(path))
        assert len(records) == 2
        assert len(issues) == 1 and issues[0].startswith("line 3:")

    def test_missing_triple_columns_default_zero_with_warning(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            "pump_power_mW,c_T,c_H,c_V,c_H_given_T,c_V_given_T\n10,10000,5000,5000,70,65\n"
        )
        with pytest.warns(UserWarning, match="treating those rates as zero"):
            records, _ = read_counts_csv(str(path))
        assert records[0].c_hv_given_t == 0.0
        assert records[0].acc_s_given_t == 0.0

    def test_missing_required_column_raises(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text("pump_power_mW,c_T\n10,10000\n")
        with pytest.raises(ParameterError, match="missing required columns"):
            read_counts_csv(str(path))

    def test_empty_counts_file_raises(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(COUNTS_HEADER + "\n")
        with pytest.raises(ParameterError, match="no usable rows"):
            read_counts_csv(str(path))

    def test_integration_time_column_honored(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            COUNTS_HEADER + ",integration_time_s\n10,10000,5000,5000,70,65,0.5,10,60\n"
        )
        records, _ = read_counts_csv(str(path))
        assert records[0].integration_time_s == 60.0

    def test_non_finite_integration_time_rows_skipped(self, tmp_path):
        path = tmp_path / "counts.csv"
        path.write_text(
            COUNTS_HEADER + ",integration_time_s\n"
            "10,10000,5000,5000,70,65,0.5,10,2\n"
            "20,20000,10000,10000,140,130,2.0,20,nan\n"
            "30,30000,15000,15000,210,195,4.5,30,inf\n"
            "40,40000,20000,20000,280,260,8.0,40,1\n"
        )
        records, issues = read_counts_csv(str(path))
        assert [record.pump_power_mw for record in records] == [10.0, 40.0]
        assert [issue.split(":")[0] for issue in issues] == ["line 3", "line 4"]
        assert all("integration_time_s" in issue for issue in issues)

    @settings(derandomize=True, database=None, max_examples=40, deadline=None)
    @given(
        records=st.lists(count_records(), min_size=1, max_size=6),
        injected=st.lists(
            st.tuples(st.integers(0, 6), st.sampled_from(INJECTIONS)), max_size=4
        ),
    )
    def test_counts_csv_roundtrip_property(self, records, injected):
        # Records written under COUNT_COLUMNS read back as their nine-digit
        # cells; a row with an injected bad cell is skipped at its own line.
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "counts.csv")
            fields = list(COUNT_COLUMNS.values())
            write_csv(path, COUNT_COLUMNS, ([getattr(r, name) for name in fields] for r in records))
            with open(path) as handle:
                header, *rows = handle.read().splitlines()
            template = rows[0]
            bad = [False] * len(rows)
            for position, (column, cell) in injected:
                cells = template.split(",")
                cells[list(COUNT_COLUMNS).index(column)] = cell
                position = min(position, len(rows))
                rows.insert(position, ",".join(cells))
                bad.insert(position, True)
            with open(path, "w") as handle:
                handle.write("\n".join([header, *rows]) + "\n")
            back, issues = read_counts_csv(path)
        assert [issue.split(":")[0] for issue in issues] == [
            f"line {k + 2}" for k, is_bad in enumerate(bad) if is_bad
        ]
        assert back == [
            CountRecord(**{name: sig9(getattr(r, name)) for name in fields}) for r in records
        ]

    def test_sweep_roundtrip(self, tmp_path):
        points = synthetic_sweep(1.78, 1.1, n=7)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(points, str(path))
        back = read_sweep_csv(str(path))
        assert len(back) == 7
        assert back[3].detuning_ghz == pytest.approx(points[3].detuning_ghz, rel=1e-8)

    def test_sweep_missing_column_raises(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("detuning_GHz\n0.0\n")
        with pytest.raises(ParameterError):
            read_sweep_csv(str(path))

    def test_sweep_bad_row_reports_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text("detuning_GHz,normalized_coincidences\n0.0,1.0\nbad,0.5\n")
        with pytest.raises(ParameterError, match="line 3"):
            read_sweep_csv(str(path))
