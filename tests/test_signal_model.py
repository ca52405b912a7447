import math

import numpy as np
import pytest

from conftest import half_maximum_width

from biphoton.errors import ParameterError
from biphoton.signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGrid,
    filter_fwhm_from_gamma,
    gamma_from_filter_fwhm,
    sigma_p_from_pump_fwhm,
    train_amplitude,
)


class TestTimeGrid:
    def test_points_and_step(self):
        grid = TimeGrid(5, -2.0, 2.0)
        assert grid.step == pytest.approx(1.0)
        assert np.allclose(grid.points, [-2, -1, 0, 1, 2])

    def test_validation(self):
        with pytest.raises(ParameterError):
            TimeGrid(1, 0.0, 1.0)
        with pytest.raises(ParameterError):
            TimeGrid(8, 1.0, 1.0)
        with pytest.raises(ParameterError):
            TimeGrid(8, 0.0, math.inf)


class TestSpecs:
    def test_train_validation(self):
        with pytest.raises(ParameterError):
            PulseTrainSpec(sigma_p=0.0, period=1.0)
        with pytest.raises(ParameterError):
            PulseTrainSpec(sigma_p=1.0, period=-2.0)
        with pytest.raises(ParameterError):
            PulseTrainSpec(sigma_p=1.0, period=1.0, n_side_pulses=-1)
        # An integer beyond float range is refused at construction.
        with pytest.raises(ParameterError, match="n_side_pulses must convert to a finite float"):
            PulseTrainSpec(1.0, 4.0, 10**400)

    def test_filter_fwhm_properties(self):
        filt = GaussianFilterSpec.from_amplitude_fwhm(1.4)
        assert filt.amplitude_fwhm == pytest.approx(1.4, rel=1e-12)


class TestPumpTrain:
    def test_direct_sum_oracle(self):
        # Sum over j in [-3, 3] of exp(-(t - 2j)^2) at t = 1, sigma_p = 1.
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=3)
        grid = TimeGrid(23, -11.0, 11.0)
        values = train_amplitude(train, grid.points)
        t = 1.0
        expected = sum(math.exp(-((t - 2.0 * j) ** 2)) for j in range(-3, 4))
        index = int(np.argmin(np.abs(grid.points - t)))
        assert values[index] == pytest.approx(expected, rel=1e-14)

    def test_single_pulse_matches_m_zero(self):
        grid = TimeGrid(101, -5.0, 5.0)
        single = train_amplitude(PulseTrainSpec(1.0, 7.0, n_side_pulses=0), grid.points)
        assert np.allclose(single, np.exp(-grid.points**2), rtol=0, atol=1e-15)

    def test_envelopes_non_negative_and_bounded(self):
        train = PulseTrainSpec(sigma_p=1.0, period=2.0, n_side_pulses=3)
        grid = TimeGrid(401, -12.0, 12.0)
        values = train_amplitude(train, grid.points)
        assert (values >= 0).all()
        peak_bound = sum(math.exp(-((2.0 * j) ** 2)) for j in range(-3, 4))
        assert values.max() <= peak_bound * (1 + 1e-12)

    def test_matches_sum_over_every_pulse(self):
        # Skipping the pulses out of reach of the times changes no bit.
        rng = np.random.default_rng(17)
        for _ in range(300):
            sigma_p = 10 ** rng.uniform(-2.0, 1.0)
            period = sigma_p * 10 ** rng.uniform(-1.5, 2.0)
            train = PulseTrainSpec(sigma_p, period, int(rng.integers(0, 40)))
            t = rng.uniform(-1.5, 1.5, int(rng.integers(1, 200))) * (train.n_side_pulses + 1) * period
            assert np.array_equal(train_amplitude(train, t), full_train_sum(train, t))

    def test_far_side_pulses_allocate_nothing(self):
        t = TimeGrid(64, -6.0, 6.0).points
        far = train_amplitude(PulseTrainSpec(1.0, 11.0, n_side_pulses=10**15), t)
        assert np.array_equal(far, train_amplitude(PulseTrainSpec(1.0, 11.0, n_side_pulses=3), t))

    def test_tiny_period_keeps_every_pulse(self):
        # The index bounds overflow to +/-inf; all 2M + 1 pulses sit at t ~ 0.
        train = PulseTrainSpec(1.0, 1e-320, n_side_pulses=3)
        t = TimeGrid(33, -5.0, 5.0).points
        assert np.array_equal(train_amplitude(train, t), full_train_sum(train, t))


def full_train_sum(train, t):
    """The train amplitude summed over all 2M + 1 pulses."""
    centers = np.arange(-train.n_side_pulses, train.n_side_pulses + 1) * train.period
    return np.exp(-(((t[None, :] - centers[:, None]) / train.sigma_p) ** 2)).sum(axis=0)


class TestConversions:
    def test_pump_roundtrip_and_anchor(self):
        sigma = sigma_p_from_pump_fwhm(1.3)
        assert sigma == pytest.approx(0.288293269, rel=1e-8)
        # Intensity spectrum FWHM of exp(-t^2 / sigma^2): sqrt(2 ln 2) / (pi sigma).
        assert math.sqrt(2.0 * math.log(2.0)) / (math.pi * sigma) == pytest.approx(1.3, rel=1e-12)

    def test_filter_roundtrip_and_anchor(self):
        gamma = gamma_from_filter_fwhm(1.4)
        assert gamma == pytest.approx(2.64140613, rel=1e-8)
        assert filter_fwhm_from_gamma(gamma) == pytest.approx(1.4, rel=1e-12)

    def test_time_bandwidth_product(self):
        # Gaussian intensity FWHM product: duration * bandwidth = 2 ln 2 / pi,
        # with the duration FWHM sigma_p sqrt(2 ln 2) of exp(-t^2 / sigma_p^2).
        bandwidth = 2.7
        duration = sigma_p_from_pump_fwhm(bandwidth) * math.sqrt(2.0 * math.log(2.0))
        assert duration * bandwidth == pytest.approx(2.0 * math.log(2.0) / math.pi, rel=1e-12)

    @pytest.mark.parametrize(
        "func",
        [
            sigma_p_from_pump_fwhm,
            gamma_from_filter_fwhm,
            filter_fwhm_from_gamma,
        ],
    )
    def test_conversions_reject_non_positive(self, func):
        with pytest.raises(ParameterError):
            func(0.0)
        with pytest.raises(ParameterError):
            func(-1.0)


class TestHalfMaximumWidth:
    def test_gaussian_fwhm(self):
        sigma = 0.8
        x = np.linspace(-6, 6, 4001)
        y = np.exp(-(x**2) / sigma**2)
        expected = sigma * 2.0 * math.sqrt(math.log(2.0))
        assert half_maximum_width(x, y) == pytest.approx(expected, rel=1e-6)

    def test_unbracketed_peak_raises(self):
        x = np.linspace(0, 1, 50)
        y = np.exp(-(x**2))  # peak at the left edge, no left crossing
        with pytest.raises(ValueError):
            half_maximum_width(x, y)

    def test_no_positive_peak_raises(self):
        x = np.linspace(0, 1, 10)
        with pytest.raises(ValueError):
            half_maximum_width(x, np.full_like(x, -1.0))
