import math
import sys
import threading
import warnings

import numpy as np
import pytest
from numpy.polynomial.hermite import hermval
from hypothesis import example, given, settings
from hypothesis import strategies as st

from biphoton.errors import DegenerateModeWarning, ParameterError
from biphoton.joint_amplitude import JointAmplitude, assemble_gated_jta, to_frequency_domain
from biphoton.schmidt import FOLD_BUDGET, fundamental_kernel, schmidt_decompose, support
from biphoton.signal_model import GaussianFilterSpec, PulseTrainSpec, TimeGrid


def closed_form_purity(gamma_hat):
    # Independent oracle for the single-pulse filtered double Gaussian:
    # P = 1 / sqrt(1 + gamma_hat^2).
    return 1.0 / math.sqrt(1.0 + gamma_hat**2)


def double_gaussian_jta(gamma_hat, points_per_sigma=16):
    train = PulseTrainSpec(sigma_p=1.0, period=10.0, n_side_pulses=0)
    filt = GaussianFilterSpec(gamma=gamma_hat)
    half = 5.0 * (1.0 + 1.0 / gamma_hat)
    n = int(math.ceil(2 * half * points_per_sigma)) + 1
    grid = TimeGrid(n, -half, half)
    return assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)


def padded_single_pulse_jta(sigma_p, gamma_hat, padding, points_per_sigma=8):
    # Single-pulse filtered amplitude on a lattice `padding` times as wide as
    # the pump and filter supports; the signal axis holds the pump only.
    train = PulseTrainSpec(sigma_p=sigma_p, period=10.0 * sigma_p, n_side_pulses=0)
    filt = GaussianFilterSpec(gamma=gamma_hat / sigma_p)
    half = padding * 5.0 * (sigma_p + sigma_p / gamma_hat)
    n = int(math.ceil(2 * half * points_per_sigma / sigma_p)) + 1
    grid = TimeGrid(n, -half, half)
    return assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)


def midpoint_grid_of_count(half, step):
    # 2 * half nodes (j + 1/2) step, |j| < half: a lattice symmetric about zero.
    edge = (half - 0.5) * step
    return TimeGrid(2 * half, -edge, edge)


def full_svd_oracle(jta, k_max):
    # The decomposition of the whole lattice, with no support trim.
    dx_i, dx_s = jta.axis_i.step, jta.axis_s.step
    u, s, vh = np.linalg.svd(jta.values * math.sqrt(dx_i * dx_s), full_matrices=False)
    coeffs = s / math.sqrt(float((s**2).sum()))
    return coeffs, vh[:k_max] / math.sqrt(dx_s), u[:, :k_max].T / math.sqrt(dx_i)


def assert_matches_full_svd(jta, result, k_max):
    # The phase of a mode is free (a sign for real amplitudes), so each
    # oracle mode is aligned with the result before the comparison.
    coeffs, signal, idler = full_svd_oracle(jta, k_max)
    assert abs(float((result.singular_values**2).sum()) - 1.0) <= 1e-12
    assert result.singular_values.shape == coeffs.shape
    assert np.abs(result.singular_values - coeffs).max() <= 1e-13
    assert abs(result.tail_mass - float((coeffs[k_max:] ** 2).sum())) <= 1e-13
    for k in np.flatnonzero(coeffs[:k_max] ** 2 >= 1e-6):
        phase = np.vdot(signal[k], result.signal_modes[k])
        phase /= abs(phase)
        assert np.abs(result.signal_modes[k] - phase * signal[k]).max() <= 1e-8
        assert np.abs(result.idler_modes[k] - np.conj(phase) * idler[k]).max() <= 1e-8


def first_near_peak(mode):
    # The pivot of the phase convention: the first component within a
    # relative 1e-8 of the largest magnitude.
    magnitude = np.abs(mode)
    return int(np.flatnonzero(magnitude >= (1.0 - 1e-8) * magnitude.max())[0])


def hermite_gauss(k, a, t):
    # Unit-norm H_k(sqrt(2a) t) exp(-a t^2), H_k the physicists' Hermite polynomial.
    coeffs = np.zeros(k + 1)
    coeffs[k] = 1.0
    norm = (2.0 * a / math.pi) ** 0.25 / math.sqrt(2.0**k * math.factorial(k))
    return norm * hermval(math.sqrt(2.0 * a) * t, coeffs) * np.exp(-a * t * t)


def unit_grid_jta(values):
    values = np.asarray(values, dtype=float)
    n_i, n_s = values.shape
    return JointAmplitude(values, TimeGrid(n_i, 0.0, n_i - 1.0), TimeGrid(n_s, 0.0, n_s - 1.0))


class TestSpectrumInvariants:
    def test_antidiagonal_matrix_purity(self):
        n = 8
        jta = unit_grid_jta(np.fliplr(np.eye(n)))
        result = schmidt_decompose(jta, k_max=n)
        assert result.purity == pytest.approx(1.0 / n, rel=1e-12)
        assert np.allclose(result.singular_values, 1.0 / math.sqrt(n), atol=1e-12)

    def test_separable_outer_product_is_pure(self):
        t = np.linspace(-3, 3, 41)
        jta = unit_grid_jta(np.outer(np.exp(-(t**2)), np.exp(-((t - 0.3) ** 2))))
        result = schmidt_decompose(jta)
        assert result.purity == pytest.approx(1.0, abs=1e-12)
        assert result.singular_values[0] == pytest.approx(1.0, abs=1e-12)

    def test_normalization_and_tail_mass(self):
        rng = np.random.default_rng(11)
        jta = unit_grid_jta(rng.normal(size=(24, 36)))
        result = schmidt_decompose(jta, k_max=5)
        total = float((result.singular_values**2).sum())
        assert abs(total - 1.0) <= 1e-12
        head = float((result.singular_values[:5] ** 2).sum())
        assert result.tail_mass == pytest.approx(1.0 - head, abs=1e-12)

    @pytest.mark.parametrize("gamma_hat", [0.3, 0.7615, 1.0, 2.0, 3.0])
    def test_double_gaussian_matches_closed_form(self, gamma_hat):
        purity = schmidt_decompose(double_gaussian_jta(gamma_hat), k_max=1).purity
        assert abs(purity - closed_form_purity(gamma_hat)) <= 1e-3

    def test_purity_matches_partial_trace(self):
        rng = np.random.default_rng(3)
        values = rng.normal(size=(40, 56)) + 1j * rng.normal(size=(40, 56))
        grid_i = TimeGrid(40, -1.0, 1.0)
        grid_s = TimeGrid(56, 0.0, 2.8)
        jta = JointAmplitude(values, grid_i, grid_s)
        # Direct route: rho_s = f^dagger f * dt_i, purity = Tr(rho^2)/Tr(rho)^2.
        rho = values.conj().T @ values * grid_i.step
        trace = np.trace(rho).real * grid_s.step
        trace_sq = np.trace(rho @ rho).real * grid_s.step**2
        expected = trace_sq / trace**2
        assert schmidt_decompose(jta, k_max=1).purity == pytest.approx(expected, rel=1e-10)

    def test_purity_domain_invariant(self):
        jta = double_gaussian_jta(0.7615)
        spectral = to_frequency_domain(jta)
        purities = [schmidt_decompose(state, k_max=1).purity for state in (spectral, jta)]
        assert abs(purities[0] - purities[1]) <= 1e-6

    def test_narrowband_filter_raises_purity(self):
        purities = [schmidt_decompose(double_gaussian_jta(g), k_max=1).purity for g in (2.0, 1.0, 0.5, 0.25)]
        assert all(b > a for a, b in zip(purities, purities[1:]))
        assert purities[-1] > 0.95


class TestModes:
    def test_modes_orthonormal_under_quadrature(self):
        jta = double_gaussian_jta(0.8)
        result = schmidt_decompose(jta, k_max=4)
        overlaps_s = result.signal_modes @ result.signal_modes.conj().T * jta.axis_s.step
        overlaps_i = result.idler_modes @ result.idler_modes.conj().T * jta.axis_i.step
        assert np.allclose(overlaps_s, np.eye(4), atol=1e-10)
        assert np.allclose(overlaps_i, np.eye(4), atol=1e-10)

    def test_reconstruction_from_modes(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(20, 28))
        grid_i = TimeGrid(20, -1.0, 1.0)
        grid_s = TimeGrid(28, -1.4, 1.4)
        jta = JointAmplitude(values, grid_i, grid_s)
        result = schmidt_decompose(jta, k_max=20)
        scale = math.sqrt(jta.norm_squared)
        rebuilt = np.einsum(
            "k,ki,ks->is",
            scale * result.singular_values[:20],
            result.idler_modes,
            result.signal_modes,
        )
        assert np.allclose(rebuilt, values, atol=1e-10)

    def test_sign_convention_pins_largest_component(self):
        jta = double_gaussian_jta(0.9)
        result = schmidt_decompose(jta, k_max=3)
        for mode in np.asarray(result.signal_modes, dtype=complex):
            pivot = mode[first_near_peak(mode)]
            assert pivot.real > 0
            assert abs(pivot.imag) <= 1e-12 * abs(pivot)

    def test_sign_convention_ignores_round_off_between_mirror_components(self):
        # Each mode of a symmetric amplitude on a symmetric lattice is even or
        # odd, so its largest magnitude is taken twice up to round-off; an odd
        # mode's two candidates have opposite signs.  The first one is positive.
        result = schmidt_decompose(double_gaussian_jta(0.8), k_max=8)
        parities = []
        for mode in result.signal_modes:
            parity = np.sign(mode @ mode[::-1])
            assert np.abs(mode - parity * mode[::-1]).max() <= 1e-10 * np.abs(mode).max()
            parities.append(parity)
            assert mode[first_near_peak(mode)] > 0
        assert parities == [1, -1] * 4

    def test_global_sign_flip_keeps_signal_modes(self):
        jta = double_gaussian_jta(0.9)
        flipped = JointAmplitude(-jta.values, jta.axis_i, jta.axis_s)
        a = schmidt_decompose(jta, k_max=2)
        b = schmidt_decompose(flipped, k_max=2)
        assert np.allclose(a.signal_modes, b.signal_modes, atol=1e-10)
        assert np.allclose(a.idler_modes, -b.idler_modes, atol=1e-10)

    @pytest.mark.parametrize("gamma_hat", [0.5, 1.0, 2.0])
    def test_modes_match_hermite_gauss_closed_form(self, gamma_hat):
        # exp(-gamma_hat^2 (t_i - t_s)^2 - t_s^2) has the Mehler expansion
        # sum_k lambda_k zeta_k(t_i) xi_k(t_s) with Hermite-Gauss modes of
        # exponents alpha = sqrt(1 + gamma_hat^2) (signal) and
        # kappa = gamma_hat^2 / alpha (idler), and lambda_k^2 = (1 - mu^2) mu^(2k)
        # with mu^2 = (alpha - 1) / (alpha + 1).  Midpoint lattice, step 1/32.
        step = 1.0 / 32.0
        grid = midpoint_grid_of_count(math.ceil(5.0 * (1.0 + 1.0 / gamma_hat) / step - 0.5), step)
        train = PulseTrainSpec(sigma_p=1.0, period=10.0, n_side_pulses=0)
        jta = assemble_gated_jta(train, GaussianFilterSpec(gamma=gamma_hat), grid_i=grid, grid_s=grid)
        result = schmidt_decompose(jta, k_max=4)
        alpha = math.sqrt(1.0 + gamma_hat**2)
        kappa = gamma_hat**2 / alpha
        mu_sq = (alpha - 1.0) / (alpha + 1.0)
        t = grid.points
        for k in range(4):
            assert result.singular_values[k] ** 2 == pytest.approx((1.0 - mu_sq) * mu_sq**k, abs=1e-14)
            signal = hermite_gauss(k, alpha, t)
            sign = np.sign(result.signal_modes[k] @ signal)
            assert np.abs(result.signal_modes[k] - sign * signal).max() <= 1e-12
            assert np.abs(result.idler_modes[k] - sign * hermite_gauss(k, kappa, t)).max() <= 1e-12

    def test_fundamental_kernel_real_for_real_input(self):
        jta = double_gaussian_jta(0.7615)
        kernel = fundamental_kernel(schmidt_decompose(jta))
        assert np.abs(np.imag(np.asarray(kernel, dtype=complex))).max() <= 1e-10

    def test_fundamental_kernel_degeneracy_warns(self):
        jta = unit_grid_jta(np.eye(4))
        result = schmidt_decompose(jta)
        with pytest.warns(DegenerateModeWarning):
            fundamental_kernel(result)

    def test_kernel_overlap_equals_top_weight(self):
        # <K|rho_s|K> / Tr rho_s must equal lambda_1^2 when K is the
        # fundamental signal mode.
        jta = double_gaussian_jta(0.85)
        result = schmidt_decompose(jta)
        kernel = fundamental_kernel(result)
        dt_s = jta.axis_s.step
        dt_i = jta.axis_i.step
        projected = jta.values @ np.conj(kernel) * dt_s
        overlap = float((np.abs(projected) ** 2).sum() * dt_i)
        ratio = overlap / jta.norm_squared
        assert ratio == pytest.approx(float(result.singular_values[0]) ** 2, rel=1e-10)


class TestSupportTrim:
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(
        sigma_p=st.floats(0.5, 2.0),
        gamma_hat=st.floats(0.3, 3.0),
        padding=st.floats(1.0, 1.5),
    )
    @example(sigma_p=1.0, gamma_hat=0.3, padding=1.0)
    @example(sigma_p=0.5, gamma_hat=3.0, padding=1.5)
    def test_matches_full_svd(self, sigma_p, gamma_hat, padding):
        jta = padded_single_pulse_jta(sigma_p, gamma_hat, padding)
        result = schmidt_decompose(jta, k_max=8)
        assert 0.0 < result.purity <= 1.0
        assert abs(result.purity - closed_form_purity(gamma_hat)) <= 1e-3
        assert_matches_full_svd(jta, result, k_max=8)

    def test_trim_removes_most_signal_columns(self):
        # The first explicit example above: the SVD sees under half the columns.
        values = padded_single_pulse_jta(1.0, 0.3, 1.0).values
        _, cols = support(values)
        assert 2 * (cols.stop - cols.start) <= values.shape[1]

    def test_zero_border(self):
        values = np.zeros((8, 8))
        values[1:5, 3:7] = np.eye(4)
        jta = unit_grid_jta(values)
        assert support(values) == (slice(1, 5), slice(3, 7))

        result = schmidt_decompose(jta, k_max=16)
        assert np.allclose(result.singular_values, [0.5] * 4 + [0.0] * 4, rtol=0.0, atol=1e-15)
        assert result.tail_mass == 0.0
        assert result.signal_modes.shape[0] == 4
        assert not result.signal_modes[:, [0, 1, 2, 7]].any()
        assert not result.idler_modes[:, [0, 5, 6, 7]].any()
        assert np.allclose(result.signal_modes @ result.signal_modes.T, np.eye(4), atol=1e-12)
        assert np.allclose(result.idler_modes @ result.idler_modes.T, np.eye(4), atol=1e-12)
        scale = math.sqrt(jta.norm_squared)
        rebuilt = np.einsum(
            "k,ki,ks->is", scale * result.singular_values[:4], result.idler_modes, result.signal_modes
        )
        assert np.abs(rebuilt - values).max() <= 1e-12


def centrosymmetric(shape, seed, complex_values=False):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=shape)
    if complex_values:
        values = values + 1j * rng.normal(size=shape)
    return values + values[::-1, ::-1]


class TestParityFold:
    def decompose_recording_svd(self, monkeypatch, jta, k_max):
        # The shapes np.linalg.svd sees during one decomposition.
        shapes = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            shapes.append(a.shape)
            return svd(a, *args, **kwargs)

        with monkeypatch.context() as patch:
            patch.setattr(np.linalg, "svd", recording)
            result = schmidt_decompose(jta, k_max=k_max)
        return result, shapes

    def assert_folded(self, jta, shapes):
        rows, cols = support(jta.values)
        m, n = rows.stop - rows.start, cols.stop - cols.start
        assert len(shapes) == 2
        assert all(a <= -(-m // 2) and b <= -(-n // 2) for a, b in shapes), (shapes, m, n)

    def test_even_single_pulse_matches_full_svd(self, monkeypatch):
        grid = midpoint_grid_of_count(96, 1.0 / 16.0)
        train = PulseTrainSpec(sigma_p=1.0, period=10.0, n_side_pulses=0)
        jta = assemble_gated_jta(train, GaussianFilterSpec(gamma=0.8), grid_i=grid, grid_s=grid)
        result, shapes = self.decompose_recording_svd(monkeypatch, jta, 8)
        self.assert_folded(jta, shapes)
        assert_matches_full_svd(jta, result, k_max=8)

    def test_gated_train_with_centred_gate_matches_full_svd(self, monkeypatch):
        # M = 3 side pulses, period 4: the grid is the gate [-2, 2], its
        # outermost nodes half a step inside the edges, and the side pulses'
        # tails reach into it.
        grid = midpoint_grid_of_count(32, 1.0 / 16.0)
        train = PulseTrainSpec(sigma_p=1.0, period=4.0, n_side_pulses=3)
        filt = GaussianFilterSpec(gamma=0.6)
        jta = assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)
        result, shapes = self.decompose_recording_svd(monkeypatch, jta, 8)
        self.assert_folded(jta, shapes)
        assert_matches_full_svd(jta, result, k_max=8)

    @pytest.mark.parametrize("shape", [(12, 12), (9, 14), (15, 7)])
    def test_complex_centrosymmetric_matches_full_svd(self, monkeypatch, shape):
        values = centrosymmetric(shape, seed=17, complex_values=True)
        jta = JointAmplitude(values, TimeGrid(shape[0], -1.0, 1.0), TimeGrid(shape[1], 0.0, 2.0))
        result, shapes = self.decompose_recording_svd(monkeypatch, jta, 6)
        self.assert_folded(jta, shapes)
        assert_matches_full_svd(jta, result, k_max=6)

    @pytest.mark.parametrize("factor, folded", [(0.9, True), (1.1, False)])
    def test_perturbation_at_the_budget(self, monkeypatch, factor, folded):
        # Adding d to one corner gives ||B - EBE||_F = sqrt(2) d.
        values = centrosymmetric((16, 20), seed=23)
        corner = factor * FOLD_BUDGET * np.finfo(float).eps * np.linalg.norm(values) / math.sqrt(2.0)
        values[0, 0] += corner
        jta = unit_grid_jta(values)
        result, shapes = self.decompose_recording_svd(monkeypatch, jta, 8)
        if folded:
            self.assert_folded(jta, shapes)
        else:
            assert shapes == [(16, 20)]
        assert_matches_full_svd(jta, result, k_max=8)


class TestValidationAndSerialization:
    def test_zero_norm_raises(self):
        with pytest.raises(ParameterError):
            schmidt_decompose(unit_grid_jta(np.zeros((4, 4))))

    def test_bad_k_max_raises(self):
        with pytest.raises(ParameterError):
            schmidt_decompose(unit_grid_jta(np.eye(3)), k_max=0)

    @pytest.mark.parametrize("k_max", [2.5, 2.0, True, False, "2", None])
    def test_non_integer_k_max_raises_at_the_call(self, k_max):
        with pytest.raises(ParameterError, match="k_max"):
            schmidt_decompose(unit_grid_jta(np.eye(3)), k_max=k_max)

    @pytest.mark.parametrize("k_max", [np.int64(2), np.int32(2), np.uint8(2)])
    def test_numpy_integer_k_max_is_accepted(self, k_max):
        result = schmidt_decompose(double_gaussian_jta(0.8), k_max=k_max)
        assert result.signal_modes.shape[0] == 2
        assert result.tail_mass == schmidt_decompose(double_gaussian_jta(0.8), k_max=2).tail_mass


def scale_inputs():
    # A symmetric amplitude on a symmetric lattice (the folded route) and a
    # random matrix (one SVD).
    rng = np.random.default_rng(29)
    return {"folded": double_gaussian_jta(0.8), "unfolded": unit_grid_jta(rng.normal(size=(18, 25)))}


class TestScale:
    @pytest.mark.parametrize("name", ["folded", "unfolded"])
    @pytest.mark.parametrize("factor", [1e-170, 1e-300, 1e200, 1e300])
    def test_scaled_amplitude_gives_the_same_decomposition(self, name, factor):
        # The scaled values are rounded, so the results agree to round-off;
        # 1e-300 also makes the amplitude's far tails subnormal.
        jta = scale_inputs()[name]
        scaled = JointAmplitude(jta.values * factor, jta.axis_i, jta.axis_s)
        expected = schmidt_decompose(jta, k_max=4)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = schmidt_decompose(scaled, k_max=4)
            signal, idler = result.signal_modes, result.idler_modes
        assert np.abs(result.singular_values - expected.singular_values).max() <= 1e-14
        assert result.purity == pytest.approx(expected.purity, rel=1e-13, abs=0.0)
        assert result.tail_mass == pytest.approx(expected.tail_mass, rel=1e-9, abs=1e-15)
        for k in np.flatnonzero(expected.singular_values[:4] ** 2 >= 1e-6):
            assert np.abs(signal[k] - expected.signal_modes[k]).max() <= 1e-9
            assert np.abs(idler[k] - expected.idler_modes[k]).max() <= 1e-9

    @pytest.mark.parametrize("name", ["folded", "unfolded"])
    @pytest.mark.parametrize("exponent", [-360, 1000])
    def test_power_of_two_scale_is_exact(self, name, exponent):
        # The folded input's smallest entry is 2e-196, so no scaled entry is
        # subnormal and the scaled values are exact.
        jta = scale_inputs()[name]
        scaled = JointAmplitude(np.ldexp(jta.values, exponent), jta.axis_i, jta.axis_s)
        expected, result = schmidt_decompose(jta, k_max=4), schmidt_decompose(scaled, k_max=4)
        assert np.array_equal(result.singular_values, expected.singular_values)
        assert result.purity == expected.purity
        assert np.array_equal(result.signal_modes, expected.signal_modes)
        assert np.array_equal(result.idler_modes, expected.idler_modes)


class TestLazyModes:
    def svd_calls(self, monkeypatch):
        # The compute_uv flag of every np.linalg.svd call from now on.
        calls = []
        svd = np.linalg.svd

        def recording(a, *args, **kwargs):
            calls.append(kwargs.get("compute_uv", True))
            return svd(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", recording)
        return calls

    @pytest.mark.parametrize("name, spectrum_calls", [("folded", 2), ("unfolded", 1)])
    def test_decompose_takes_singular_values_alone(self, monkeypatch, name, spectrum_calls):
        # The folded route's spectrum is one SVD per parity block.
        jta = scale_inputs()[name]
        calls = self.svd_calls(monkeypatch)
        schmidt_decompose(jta, k_max=4)
        assert calls == [False] * spectrum_calls

    @pytest.mark.parametrize("name, spectrum_calls", [("folded", 2), ("unfolded", 1)])
    @pytest.mark.parametrize("first", ["signal_modes", "idler_modes", "fundamental_kernel"])
    def test_first_read_decomposes_once(self, monkeypatch, name, spectrum_calls, first):
        # On either route the modes come from one SVD of the whole block.
        jta = scale_inputs()[name]
        calls = self.svd_calls(monkeypatch)
        result = schmidt_decompose(jta, k_max=4)
        if first == "fundamental_kernel":
            fundamental_kernel(result)
        else:
            getattr(result, first)
        assert calls == [False] * spectrum_calls + [True]
        result.signal_modes, result.idler_modes, fundamental_kernel(result)
        assert len(calls) == spectrum_calls + 1

    def test_modes_ignore_later_writes_to_the_amplitude(self):
        jta = double_gaussian_jta(0.8)
        expected = schmidt_decompose(JointAmplitude(jta.values.copy(), jta.axis_i, jta.axis_s), k_max=4)
        result = schmidt_decompose(jta, k_max=4)
        jta.values[:] = np.random.default_rng(31).normal(size=jta.values.shape)
        assert np.array_equal(result.signal_modes, expected.signal_modes)
        assert np.array_equal(result.idler_modes, expected.idler_modes)

    def test_concurrent_first_reads_agree(self):
        # Four threads read the modes of one fresh result at once, with a
        # short switch interval so that several may run the decomposition.
        jta = double_gaussian_jta(0.8)
        expected = schmidt_decompose(jta, k_max=8).signal_modes
        result = schmidt_decompose(jta, k_max=8)
        barrier = threading.Barrier(4)
        modes = [None] * 4

        def read(slot):
            barrier.wait(timeout=60)
            modes[slot] = result.signal_modes

        threads = [threading.Thread(target=read, args=(slot,)) for slot in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert all(np.array_equal(mode, expected) for mode in modes)
