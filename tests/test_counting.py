import dataclasses
import json
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.cli import main
from biphoton.counting import (
    COUNT_COLUMNS,
    SWEEP_COLUMNS,
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
)
from biphoton.errors import ParameterError
from biphoton.formatting import sig9, write_csv
from biphoton.signal_model import GaussianFilterSpec

SRC_DIR = str(Path(__file__).resolve().parents[1] / "src")


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


# A five-point sweep whose fit depended on the scale of its rates.
FIVE_POINT_DETUNINGS = (-2.0, -1.0, 0.0, 1.0, 2.0)
FIVE_POINT_RATES = (0.3, 0.7, 1.0, 0.7, 0.3)


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

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        delta_nu=st.floats(0.3, 3.0),
        filter_fwhm=st.floats(0.5, 2.0),
        center=st.floats(-0.5, 0.5),
        scale=st.floats(0.2, 2.0),
        transmission=st.sampled_from(["intensity", "amplitude"]),
    )
    def test_noiseless_roundtrip_property(self, delta_nu, filter_fwhm, center, scale, transmission):
        exponent = 2.0 if transmission == "intensity" else 1.0
        total_fwhm = math.hypot(delta_nu, filter_fwhm / math.sqrt(exponent))
        points = synthetic_sweep(
            delta_nu, filter_fwhm, exponent=exponent, center=center, scale=scale, span=8.0 * total_fwhm
        )
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(filter_fwhm), transmission)
        assert abs(fit.delta_nu_ghz - delta_nu) <= 1e-4
        assert abs(fit.center_ghz - center) <= 1e-4
        assert abs(fit.scale - scale) <= 1e-4
        assert not fit.resolution_limited

    @pytest.mark.parametrize("k", [-200, -8, 0, 300])
    def test_fit_is_invariant_under_rate_scale(self, k):
        # The rates enter the fit over their peak: scaling them by 10^k moves
        # nu by rounding only and scales the fitted scale by 10^k.
        filt = GaussianFilterSpec.from_amplitude_fwhm(1.1)
        points = [SweepPoint(x, r) for x, r in zip(FIVE_POINT_DETUNINGS, FIVE_POINT_RATES)]
        scaled = [SweepPoint(x, r * 10.0**k) for x, r in zip(FIVE_POINT_DETUNINGS, FIVE_POINT_RATES)]
        reference, fit = fit_hsp_bandwidth(points, filt), fit_hsp_bandwidth(scaled, filt)
        assert fit.delta_nu_ghz == pytest.approx(reference.delta_nu_ghz, rel=1e-8)
        assert fit.scale == pytest.approx(reference.scale * 10.0**k, rel=1e-8)

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
        # Over a subnormal peak, a rate of -0.5 would overflow to -inf.
        subnormal = [SweepPoint(x, -0.5 if x < 0 else 1e-310) for x in np.linspace(-4, 4, 9)]
        with pytest.raises(ParameterError, match="positive normal float64, not 1e-310"):
            fit_hsp_bandwidth(subnormal, filt)

    def test_fit_loads_no_scipy(self):
        # A fresh interpreter: importing the package and its CLI and running
        # a fit leave scipy unloaded, and the fit recovers the bandwidth of a
        # noiseless closed-form sweep (intensity line of FWHM 1.1/sqrt 2).
        probe = """
import json, math, sys
import biphoton, biphoton.cli
from biphoton.counting import SweepPoint, fit_hsp_bandwidth
from biphoton.signal_model import GaussianFilterSpec
total = math.hypot(1.78, 1.1 / math.sqrt(2.0))
detunings = [i / 4.0 - 4.0 for i in range(33)]
points = [SweepPoint(x, math.exp(-4.0 * math.log(2.0) * (x / total) ** 2)) for x in detunings]
fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(1.1))
scipy = sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
print(json.dumps({"scipy": scipy, "delta_nu": fit.delta_nu_ghz}))
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join([SRC_DIR, env.get("PYTHONPATH", "")])
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout)
        assert result["scipy"] == []
        assert abs(result["delta_nu"] - 1.78) <= 1e-6

    @staticmethod
    def normalized_ssr(fit, points):
        peak = max(p.normalized_rate for p in points)
        return float(np.sum((fit.residuals / peak) ** 2))

    def test_pinned_five_point_sweep_reaches_the_minimum(self):
        # Drawn at 2.8135 GHz with 2% noise, then rounded.  A fit stopped at
        # 0.2421 GHz with SSR 1.5e-5; the least-squares point is 2.8165 GHz.
        sweep = [(-9.88, 0.0), (-4.94, 0.00342), (0.0, 0.998033), (4.94, 0.001738), (9.88, 0.0)]
        points = [SweepPoint(x, r) for x, r in sweep]
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(2.5756))
        assert fit.delta_nu_ghz == pytest.approx(2.8135, rel=0.01)
        assert self.normalized_ssr(fit, points) <= 1e-18
        assert not fit.resolution_limited

    def test_pinned_sweep_with_three_informative_points(self):
        # Drawn at 3.188 GHz.  A fit stopped at 0.0843 GHz with SSR 3.2e-6;
        # the three points well above zero fix all three parameters, so the
        # minimum interpolates them: SSR near 1e-26 at 3.1965 GHz.
        sweep = [
            (-10.8037, 6.83654e-13),
            (-5.4018, 0.00165966),
            (0.0, 0.927289),
            (5.4018, 0.000134962),
            (10.8037, 4.43921e-15),
        ]
        points = [SweepPoint(x, r) for x, r in sweep]
        fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(0.9539))
        assert fit.delta_nu_ghz == pytest.approx(3.188, rel=0.01)
        assert self.normalized_ssr(fit, points) <= 1e-20
        assert not fit.resolution_limited

    @staticmethod
    def oracle_sweeps():
        """200 seeded sweeps of both conventions, 21-81 points, photon/filter
        ratios 1.5-3, spans of 2-4 line FWHMs and 2% multiplicative noise."""
        rng = np.random.default_rng(20261019)
        a = 4.0 * math.log(2.0)
        for k in range(200):
            transmission = ("intensity", "amplitude")[k % 2]
            filter_fwhm, ratio = rng.uniform(0.8, 2.0), rng.uniform(1.5, 3.0)
            kernel = filter_fwhm / math.sqrt(2.0 if transmission == "intensity" else 1.0)
            total = math.hypot(kernel, ratio * filter_fwhm)
            half = 0.5 * rng.uniform(2.0, 4.0) * total
            x = np.linspace(-half, half, int(rng.integers(21, 82)))
            center = rng.uniform(-0.3, 0.3) * filter_fwhm
            rates = rng.uniform(0.5, 2.0) * np.exp(-a * ((x - center) / total) ** 2)
            rates *= rng.normal(1.0, 0.02, x.size)
            points = [SweepPoint(float(xi), float(r)) for xi, r in zip(x, rates)]
            fit = fit_hsp_bandwidth(points, GaussianFilterSpec.from_amplitude_fwhm(filter_fwhm), transmission)
            yield k, fit, points, x, rates / rates.max(), kernel, center, ratio * filter_fwhm

    def test_ssr_never_above_curve_fit(self):
        # The least-squares oracle: scipy's curve_fit with the moment-based
        # start and the bounds this fit once used.  Over the oracle sweeps,
        # the fit's SSR never exceeds curve_fit's by more than rounding.
        from scipy.optimize import curve_fit

        a = 4.0 * math.log(2.0)
        for k, fit, points, x, y, kernel, center, photon in self.oracle_sweeps():
            floor = kernel / 16.0
            dt_max = math.sqrt(math.log(2.0)) / (math.pi * floor)

            def model(x, delta_t, center, scale):
                photon = math.sqrt(math.log(2.0)) / (math.pi * delta_t)
                return scale * np.exp(-a * (x - center) ** 2 / (kernel**2 + photon**2))

            weights = np.clip(y, 0.0, None)
            center0 = float((x * weights).sum() / weights.sum())
            spread = 2.355 * math.sqrt(float((weights * (x - center0) ** 2).sum() / weights.sum()))
            nu0_sq = max(max(spread, kernel) ** 2 - kernel**2, (2.0 * floor) ** 2)
            dt0 = min(math.sqrt(math.log(2.0)) / (math.pi * math.sqrt(nu0_sq)), 0.9 * dt_max)
            drawn = math.sqrt(math.log(2.0)) / (math.pi * photon)
            oracle = math.inf
            for start in ([dt0, center0, 1.0], [drawn, center, 1.0]):
                popt, _ = curve_fit(
                    model, x, y, p0=start,
                    bounds=([1e-6, x.min(), 1e-6], [dt_max, x.max(), 10.0]), maxfev=20000,
                )
                oracle = min(oracle, float(np.sum((y - model(x, *popt)) ** 2)))
            assert self.normalized_ssr(fit, points) <= oracle * (1.0 + 1e-9), k

    def test_error_bar_matches_curve_fit(self):
        # The error is curve_fit's (J^T J)^-1 SSR / (n - 3): curve_fit in
        # (scale, centre, photon^2), started at the fit's own point with an
        # analytic Jacobian, gives the same Delta-nu error through the chain rule.
        from scipy.optimize import curve_fit

        a = 4.0 * math.log(2.0)
        for k, fit, points, x, y, kernel, _, _ in self.oracle_sweeps():

            def model(x, scale, center, photon_sq):
                return scale * np.exp(-a * (x - center) ** 2 / (kernel**2 + photon_sq))

            def jac(x, scale, center, photon_sq):
                width_sq = kernel**2 + photon_sq
                line = np.exp(-a * (x - center) ** 2 / width_sq)
                d = (x - center) / width_sq
                return np.column_stack([line, 2.0 * a * scale * line * d, a * scale * line * d * d])

            peak = max(p.normalized_rate for p in points)
            start = [fit.scale / peak, fit.center_ghz, fit.delta_nu_ghz**2]
            _, pcov = curve_fit(model, x, y, p0=start, jac=jac, ftol=1e-15, xtol=1e-15, gtol=1e-15)
            oracle = math.sqrt(pcov[2, 2]) / (2.0 * fit.delta_nu_ghz)
            assert fit.delta_nu_err_ghz == pytest.approx(oracle, rel=1e-6), k


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

    def test_skipped_row_names_its_line_after_a_blank_line(self, tmp_path):
        # The reader drops the blank line 3; the bad row is still line 5 of the file.
        path = tmp_path / "counts.csv"
        path.write_text(
            COUNTS_HEADER + "\n"
            "10,10000,5000,5000,70,65,0.5,10\n"
            "\n"
            "20,20000,10000,10000,140,130,2.0,20\n"
            "oops,30000,15000,15000,210,195,4.5,30\n"
            "40,40000,20000,20000,280,260,8.0,40\n"
        )
        records, issues = read_counts_csv(str(path))
        assert [record.pump_power_mw for record in records] == [10.0, 20.0, 40.0]
        assert len(issues) == 1 and issues[0].startswith("line 5:")

    def test_sweep_row_error_names_its_line_after_a_blank_line(self, tmp_path):
        path = tmp_path / "sweep.csv"
        path.write_text(
            "detuning_GHz,normalized_coincidences\n"
            "-2,0.3\n"
            "\n"
            "-1,0.7\n"
            "0,oops\n"
            "1,0.7\n"
            "2,0.3\n"
        )
        result = CliRunner().invoke(
            main, ["fit-spectrum", "--sweep-csv", str(path), "--filter-fwhm-ghz", "1.1"]
        )
        assert result.exit_code == 4
        assert result.stderr.startswith("error: sweep CSV line 5: ")

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
        write_csv(str(path), SWEEP_COLUMNS, ((p.detuning_ghz, p.normalized_rate) for p in points))
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
