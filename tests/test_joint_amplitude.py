import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from biphoton.errors import GridMismatchError, ParameterError
from biphoton.joint_amplitude import (
    FREQUENCY_DOMAIN,
    JointAmplitude,
    assemble_gated_jta,
    marginal_signal_spectrum,
    quadrature_marginal_fwhm,
    to_frequency_domain,
    write_marginal_spectrum_csv,
)
from biphoton.signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
    half_maximum_width,
    pump_fwhm_from_sigma_p,
)


def small_jta(values, n_i=None, n_s=None, domain="time"):
    values = np.asarray(values)
    n_i = values.shape[0] if n_i is None else n_i
    n_s = values.shape[1] if n_s is None else n_s
    return JointAmplitude(values, TimeGrid(n_i, 0.0, n_i - 1.0), TimeGrid(n_s, 0.0, n_s - 1.0), domain)


class TestJointAmplitude:
    def test_shape_mismatch_raises(self):
        with pytest.raises(GridMismatchError):
            JointAmplitude(np.zeros((3, 4)), TimeGrid(3, 0, 1), TimeGrid(5, 0, 1))

    def test_non_finite_raises(self):
        values = np.zeros((3, 3))
        values[1, 1] = np.nan
        with pytest.raises(ParameterError):
            small_jta(values)

    def test_unknown_domain_raises(self):
        with pytest.raises(ParameterError):
            small_jta(np.zeros((2, 2)), domain="wavelet")

    def test_norm_squared_hand_sum(self):
        values = np.array([[1.0, 2.0], [0.0, 1.0 + 1.0j]])
        jta = JointAmplitude(values, TimeGrid(2, 0.0, 0.5), TimeGrid(2, 0.0, 0.25))
        expected = (1 + 4 + 0 + 2) * 0.5 * 0.25
        assert jta.norm_squared == pytest.approx(expected, rel=1e-14)


class TestAssembly:
    def test_structure_against_direct_formula(self):
        train = PulseTrainSpec(sigma_p=0.9, period=1.7, n_side_pulses=2)
        filt = GaussianFilterSpec(gamma=0.6)
        gate = TimeGateSpec(width=1.7)
        grid = TimeGrid(21, -2.5, 2.5)
        jta = assemble_gated_jta(train, filt, gate, grid_i=grid, grid_s=grid)

        t = grid.points
        for i in (0, 7, 13, 20):
            for s in (0, 3, 11, 20):
                omega = sum(
                    math.exp(-(((t[s] - j * 1.7) / 0.9) ** 2)) for j in range(-2, 3)
                )
                resp = math.exp(-((0.6 * (t[i] - t[s])) ** 2))
                g = (1.0 if abs(t[i]) <= 0.85 else 0.0) * (1.0 if abs(t[s]) <= 0.85 else 0.0)
                assert jta.values[i, s] == pytest.approx(g * resp * omega, abs=1e-15)

    def test_gate_zeroes_outside_bin(self):
        train = PulseTrainSpec(sigma_p=1.0, period=2.0)
        filt = GaussianFilterSpec(gamma=0.5)
        grid = TimeGrid(81, -4.0, 4.0)
        jta = assemble_gated_jta(train, filt, TimeGateSpec(width=2.0), grid_i=grid, grid_s=grid)
        outside = np.abs(grid.points) > 1.0 + 1e-12
        assert np.abs(jta.values[outside, :]).max() == 0.0
        assert np.abs(jta.values[:, outside]).max() == 0.0

    def test_wide_gates_equal_ungated_for_single_pulse(self):
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=0)
        filt = GaussianFilterSpec(gamma=0.5)
        half = 5.0 + 5.0 / filt.gamma
        grid = TimeGrid(301, -half, half)
        wide_gate = TimeGateSpec(width=10.0 + 10.0 / filt.gamma + 4.0)
        gated = assemble_gated_jta(train, filt, wide_gate, grid_i=grid, grid_s=grid)
        ungated = assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)
        diff = np.linalg.norm(gated.values - ungated.values)
        assert diff <= 1e-12 * np.linalg.norm(ungated.values)

    def test_tight_gates_remove_big_norm_fraction(self):
        # Narrowband filter at short period: the filter response spreads the
        # amplitude across many bins, so one bin holds well under 95 percent.
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=3)
        filt = GaussianFilterSpec(gamma=0.2)
        half = train.span + 5.0 / filt.gamma
        n = int(math.ceil(2 * half * 16)) + 1
        grid = TimeGrid(n, -half, half)
        gated = assemble_gated_jta(train, filt, TimeGateSpec(width=2.0), grid_i=grid, grid_s=grid)
        ungated = assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)
        removed = 1.0 - gated.norm_squared / ungated.norm_squared
        assert removed > 0.05

    def test_huge_gamma_confines_to_diagonal(self):
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=0)
        filt = GaussianFilterSpec(gamma=200.0)
        grid = TimeGrid(161, -5.0, 5.0)  # step 1/16
        jta = assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)
        t = grid.points
        off = np.abs(t[:, None] - t[None, :]) > grid.step * (1 + 1e-9)
        assert np.abs(jta.values[off]).max() < 1e-30


class TestFrequencyDomain:
    @pytest.mark.parametrize("shape", [(64, 64), (31, 47), (128, 33)])
    def test_parseval_random_matrices(self, shape):
        rng = np.random.default_rng(7)
        values = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        jta = JointAmplitude(values, TimeGrid(shape[0], -1.3, 2.1), TimeGrid(shape[1], 0.4, 3.3))
        spectral = to_frequency_domain(jta)
        rel = abs(spectral.norm_squared - jta.norm_squared) / jta.norm_squared
        assert rel <= 1e-9

    def test_zero_maps_to_zero(self):
        jta = small_jta(np.zeros((16, 16)))
        assert np.abs(to_frequency_domain(jta).values).max() == 0.0

    def test_frequency_input_rejected(self):
        jta = small_jta(np.ones((4, 4)), domain=FREQUENCY_DOMAIN)
        with pytest.raises(GridMismatchError):
            to_frequency_domain(jta)

    def test_rank_one_stays_rank_one(self):
        grid = TimeGrid(128, -6.0, 6.0)
        t = grid.points
        values = np.outer(np.exp(-(t**2)), np.exp(-((t - 0.4) ** 2) / 2.0))
        spectral = to_frequency_domain(JointAmplitude(values, grid, grid))
        s = np.linalg.svd(spectral.values, compute_uv=False)
        assert s[1] < 1e-10 * s[0]

    def test_unfiltered_pulse_marginal_matches_conversion(self):
        # A near-flat filter response leaves the signal marginal pump-limited.
        train = PulseTrainSpec(sigma_p=1.0, period=5.0, n_side_pulses=0)
        filt = GaussianFilterSpec(gamma=1e-3)
        grid = TimeGrid(512, -16.0, 16.0)
        spectral = to_frequency_domain(assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid))
        marginal = (np.abs(spectral.values) ** 2).sum(axis=0) * spectral.axis_i.step
        fwhm = half_maximum_width(spectral.axis_s.points, marginal)
        assert abs(fwhm - pump_fwhm_from_sigma_p(1.0)) <= spectral.axis_s.step

    def test_pulse_train_gives_frequency_comb(self):
        # Pulses separated by T produce marginal peaks spaced by 1/T.
        period = 4.0
        train = PulseTrainSpec(sigma_p=1.0, period=period, n_side_pulses=3)
        filt = GaussianFilterSpec(gamma=1e-3)
        half = train.span
        n = 1 << 10
        grid = TimeGrid(n, -half, half)
        spectral = to_frequency_domain(assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid))
        marginal = (np.abs(spectral.values) ** 2).sum(axis=0)
        nu = spectral.axis_s.points
        keep = np.abs(nu) < 0.4
        nu, marginal = nu[keep], marginal[keep]
        interior = (marginal[1:-1] > marginal[:-2]) & (marginal[1:-1] > marginal[2:])
        peaks = nu[1:-1][interior & (marginal[1:-1] > 0.05 * marginal.max())]
        spacings = np.diff(np.sort(peaks))
        assert spacings.size >= 2
        assert np.allclose(spacings, 1.0 / period, atol=2 * spectral.axis_s.step)


def marginal_by_quadrature(nu_s, pump_fwhm, filter_amplitude_fwhm, filter_center=0.0):
    """Marginal signal spectrum by numerical integration over nu_i, peak-normalized.

    S(nu_s) = integral exp(-a (nu_i - f_c)^2 - b (nu_s + nu_i)^2) dnu_i with
    a, b the filter-intensity and pump exponents.  Each row is integrated
    by a 257-node trapezoid rule over +/-8 widths of its own integrand, which
    is centred between the filter line and the pump resonance.
    """
    a = 4.0 * math.log(2.0) / (filter_amplitude_fwhm / math.sqrt(2.0)) ** 2
    b = 4.0 * math.log(2.0) / pump_fwhm**2
    center = (a * filter_center - b * nu_s) / (a + b)
    width = 1.0 / math.sqrt(a + b)
    offsets = np.linspace(-8.0, 8.0, 257)
    nu_i = center[:, None] + offsets[None, :] * width
    integrand = np.exp(-a * (nu_i - filter_center) ** 2 - b * (nu_s[:, None] + nu_i) ** 2)
    intensity = np.trapezoid(integrand, dx=(offsets[1] - offsets[0]) * width, axis=1)
    return intensity / intensity.max()


class TestMarginalSpectrum:
    @pytest.mark.parametrize(
        "pump,filt,center",
        [(1.3, 1.4, 0.0), (0.8, 2.0, 1.0), (2.5, 0.9, -3.0), (1.3, 1e-3, 0.0), (1.3, 1000.0, 0.0)],
    )
    def test_curve_matches_quadrature(self, pump, filt, center):
        result = marginal_signal_spectrum(pump, filt, filter_center=center)
        oracle = marginal_by_quadrature(result.frequencies, pump, filt, center)
        assert np.abs(result.intensity - oracle).max() <= 1e-9

    @pytest.mark.parametrize(
        "pump,filt",
        [(1.3, 1.4), (0.8, 2.0), (2.5, 0.9), (1.0, math.sqrt(2.0))],
    )
    def test_fwhm_matches_quadrature(self, pump, filt):
        # The reported width is the closed form; the half-maximum crossings
        # of the returned curve measure it independently.
        result = marginal_signal_spectrum(pump, filt)
        measured = half_maximum_width(result.frequencies, result.intensity)
        assert abs(measured - result.fwhm) / result.fwhm <= 1e-12

    def test_narrow_filter_limit_is_pump_limited(self):
        result = marginal_signal_spectrum(1.3, 1e-3)
        assert result.fwhm == pytest.approx(1.3, rel=1e-3)

    def test_broad_filter_limit_is_filter_limited(self):
        result = marginal_signal_spectrum(1.3, 1000.0)
        assert result.fwhm == pytest.approx(1000.0 / math.sqrt(2.0), rel=1e-3)

    def test_peak_normalized_and_positive(self):
        result = marginal_signal_spectrum(1.3, 1.4)
        assert result.intensity.max() == pytest.approx(1.0)
        assert (result.intensity >= 0).all()

    def test_fwhm_invariant_under_filter_center_shift(self):
        base = marginal_signal_spectrum(1.3, 1.4)
        shifted = marginal_signal_spectrum(1.3, 1.4, filter_center=2.7)
        assert shifted.fwhm == pytest.approx(base.fwhm, rel=1e-9)
        peak = shifted.frequencies[np.argmax(shifted.intensity)]
        assert peak == pytest.approx(-2.7, abs=2 * (shifted.frequencies[1] - shifted.frequencies[0]))

    @settings(derandomize=True, database=None, max_examples=200, deadline=None)
    @given(
        pump=st.floats(1e-3, 1e3),
        filt=st.floats(1e-3, 1e3),
        center=st.floats(-1e9, 1e9),
    )
    def test_peak_sits_on_the_centre_node(self, pump, filt, center):
        # An odd axis over +/-4 FWHM puts its middle node at offset 0.0.
        result = marginal_signal_spectrum(pump, filt, filter_center=center)
        peak = int(np.argmax(result.intensity))
        assert peak == 1024 and result.intensity[peak] == 1.0
        assert result.frequencies[peak] == -center

    def test_vanishing_pump_width_is_filter_limited(self):
        result = marginal_signal_spectrum(1e-320, 1.0)
        expected = quadrature_marginal_fwhm(1e-320, 1.0)
        assert abs(result.fwhm - expected) / expected <= 1e-3

    def test_non_positive_inputs_raise(self):
        with pytest.raises(ParameterError):
            marginal_signal_spectrum(0.0, 1.4)
        with pytest.raises(ParameterError):
            marginal_signal_spectrum(1.3, -1.0)


class TestSerialization:
    def test_marginal_csv_header_and_formatting(self, tmp_path):
        result = marginal_signal_spectrum(1.3, 1.4)
        path = tmp_path / "marginal.csv"
        write_marginal_spectrum_csv(result, str(path))
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "frequency_GHz,intensity"
        assert len(lines) == 1 + result.frequencies.size
        # nine significant digits at most
        for cell in lines[1].split(","):
            mantissa = cell.replace("-", "").replace(".", "").split("e")[0].lstrip("0")
            assert len(mantissa) <= 9
