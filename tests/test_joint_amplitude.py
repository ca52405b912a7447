import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import half_maximum_width, midpoint_grid

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
    TimeGrid,
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

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_norm_squared_allocates_no_matrix(self, kind):
        n = 256
        rng = np.random.default_rng(15)
        values = rng.normal(size=(n, n))
        if kind == "complex":
            values = values + 1j * rng.normal(size=(n, n))
        jta = JointAmplitude(values, TimeGrid(n, -1.3, 2.1), TimeGrid(n, 0.4, 3.3))
        expected = math.fsum((values.real**2).ravel()) + math.fsum((values.imag**2).ravel())
        expected *= jta.axis_i.step * jta.axis_s.step
        assert jta.norm_squared == pytest.approx(expected, rel=1e-13)
        tracemalloc.start()
        try:
            jta.norm_squared
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # An n^2 float64 temporary would be 512 KiB.
        assert peak <= 0.05 * n * n * np.dtype(float).itemsize


class TestAssembly:
    def test_structure_against_direct_formula(self):
        train = PulseTrainSpec(sigma_p=0.9, period=1.7, n_side_pulses=2)
        filt = GaussianFilterSpec(gamma=0.6)
        grid = midpoint_grid(0.85, 0.085)  # the one-period gate, 20 nodes
        jta = assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)

        t = grid.points
        for i in (0, 7, 13, 19):
            for s in (0, 3, 11, 19):
                omega = sum(
                    math.exp(-(((t[s] - j * 1.7) / 0.9) ** 2)) for j in range(-2, 3)
                )
                resp = math.exp(-((0.6 * (t[i] - t[s])) ** 2))
                assert jta.values[i, s] == pytest.approx(resp * omega, abs=1e-15)

    def test_tight_gates_remove_big_norm_fraction(self):
        # Narrowband filter at short period: the filter response spreads the
        # amplitude across many bins, so one bin holds well under 95 percent.
        # The wide grid holds the outermost pulse centre plus five pump
        # widths, and the filter's reach beyond that.
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=3)
        filt = GaussianFilterSpec(gamma=0.2)
        wide = midpoint_grid(11.0 + 5.0 / filt.gamma, 1.0 / 16.0)
        gate = midpoint_grid(1.0, 1.0 / 16.0)
        gated = assemble_gated_jta(train, filt, grid_i=gate, grid_s=gate)
        ungated = assemble_gated_jta(train, filt, grid_i=wide, grid_s=wide)
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

    @pytest.mark.parametrize("is_complex", [False, True])
    @pytest.mark.parametrize("shape", [(7, 8), (8, 7), (31, 47), (64, 64)])
    def test_matches_direct_dft(self, shape, is_complex):
        # Oracle without np.fft: F = dt_i dt_s E_i V E_s^T, E[k, j] = exp(-2 pi i nu_k t_j),
        # on the centred frequencies (k - n // 2) / (n dt).
        rng = np.random.default_rng(11)
        values = rng.normal(size=shape)
        if is_complex:
            values = values + 1j * rng.normal(size=shape)
        grid_i, grid_s = TimeGrid(shape[0], -1.3, 2.1), TimeGrid(shape[1], 0.4, 3.3)
        spectral = to_frequency_domain(JointAmplitude(values, grid_i, grid_s))

        def kernel(grid):
            nu = (np.arange(grid.n_points) - grid.n_points // 2) / (grid.n_points * grid.step)
            return nu, np.exp(-2j * np.pi * np.outer(nu, grid.points))

        nu_i, e_i = kernel(grid_i)
        nu_s, e_s = kernel(grid_s)
        expected = grid_i.step * grid_s.step * (e_i @ values @ e_s.T)
        assert np.allclose(spectral.axis_i.points, nu_i, rtol=0.0, atol=1e-12 * np.abs(nu_i).max())
        assert np.allclose(spectral.axis_s.points, nu_s, rtol=0.0, atol=1e-12 * np.abs(nu_s).max())
        scale = np.abs(expected).max()
        assert np.abs(spectral.values - expected).max() <= 1e-12 * scale

    @pytest.mark.parametrize("shape", [(7, 8), (8, 7), (31, 47), (64, 64)])
    def test_even_real_amplitude_has_real_spectrum(self, shape):
        # f(-t_i, -t_s) = f(t_i, t_s) on a grid symmetric about 0 makes F real.
        rng = np.random.default_rng(12)
        half = rng.normal(size=shape)
        values = half + half[::-1, ::-1]
        jta = JointAmplitude(values, TimeGrid(shape[0], -1.7, 1.7), TimeGrid(shape[1], -2.2, 2.2))
        spectral = to_frequency_domain(jta).values
        assert np.abs(spectral.imag).max() <= 1e-13 * np.abs(spectral).max()

    def test_real_amplitude_peaks_at_one_and_a_half_spectra(self):
        # The real route holds the half spectrum and the output, 1.5 n^2
        # complex values; fft2 plus a shifted copy would hold 2.0.
        n = 256
        values = np.random.default_rng(13).normal(size=(n, n))
        jta = JointAmplitude(values, TimeGrid(n, -1.3, 2.1), TimeGrid(n, 0.4, 3.3))
        to_frequency_domain(jta)
        tracemalloc.start()
        try:
            to_frequency_domain(jta)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.6 * n * n * np.dtype(complex).itemsize

    @pytest.mark.parametrize("shape", [(256, 256), (31, 47), (48, 33)])
    def test_real_route_matches_complex_route(self, shape):
        values = np.random.default_rng(14).normal(size=shape)
        grid_i, grid_s = TimeGrid(shape[0], -1.3, 2.1), TimeGrid(shape[1], 0.4, 3.3)
        real = to_frequency_domain(JointAmplitude(values, grid_i, grid_s))
        cast = to_frequency_domain(JointAmplitude(values.astype(complex), grid_i, grid_s))
        assert (real.axis_i, real.axis_s) == (cast.axis_i, cast.axis_s)
        scale = np.abs(cast.values).max()
        assert np.abs(real.values - cast.values).max() <= 1e-13 * scale

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
        # The pump intensity spectrum FWHM at sigma_p = 1: sqrt(2 ln 2) / pi.
        assert abs(fwhm - math.sqrt(2.0 * math.log(2.0)) / math.pi) <= spectral.axis_s.step

    def test_pulse_train_gives_frequency_comb(self):
        # Pulses separated by T produce marginal peaks spaced by 1/T.
        period = 4.0
        train = PulseTrainSpec(sigma_p=1.0, period=period, n_side_pulses=3)
        filt = GaussianFilterSpec(gamma=1e-3)
        half = 17.0  # the outermost pulse centre plus five pump widths
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
