"""Sampling grids and elementary field envelopes of a pulsed SPDC source.

The model works in one consistent time unit; nanoseconds for physical
studies, or units of the pump width ``sigma_p`` for dimensionless design
scans.  Frequencies are ordinary frequencies in cycles per time unit
(GHz when time is in ns).

FWHM bookkeeping follows two fixed conventions.  Quoted pump bandwidths
are intensity-spectrum FWHM values (the usual laser datasheet number);
quoted filter bandwidths are amplitude-transmission FWHM values.  The
conversion helpers below make each convention explicit in their names.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CoverageWarning, ParameterError

SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))
SQRT_LN2 = math.sqrt(math.log(2.0))

# A uniform grid resolves a pump pulse when it places at least this many
# samples per sigma_p.
RESOLUTION_POINTS_PER_SIGMA = 16


def _require_positive(name: str, value: float) -> None:
    if not math.isfinite(value) or value <= 0:
        raise ParameterError(f"{name} must be positive and finite, got {value!r}")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform sampling axis.  Also used for frequency axes."""

    n_points: int
    t_min: float
    t_max: float

    def __post_init__(self) -> None:
        if self.n_points < 2:
            raise ParameterError("grid needs at least 2 points")
        if not (math.isfinite(self.t_min) and math.isfinite(self.t_max)):
            raise ParameterError("grid edges must be finite")
        if not self.t_max > self.t_min:
            raise ParameterError("grid upper edge must exceed the lower edge")

    @property
    def step(self) -> float:
        return (self.t_max - self.t_min) / (self.n_points - 1)

    @property
    def span(self) -> float:
        return self.t_max - self.t_min

    @property
    def points(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_points)

    def resolves(self, sigma_p: float) -> bool:
        """True when the step resolves a pulse of width ``sigma_p``."""
        _require_positive("sigma_p", sigma_p)
        limit = sigma_p / RESOLUTION_POINTS_PER_SIGMA
        return self.step <= limit * (1.0 + 1e-12)


# Frequency axes carry the same structure as time axes.
FrequencyGrid = TimeGrid


@dataclass(frozen=True)
class PulseTrainSpec:
    """Train of Gaussian pump pulses ``amplitude * exp(-(t - j*period)^2 / sigma_p^2)``.

    ``sigma_p`` is the amplitude 1/e half-width of a single pulse and the
    train runs over pulse indices ``j in [-n_side_pulses, n_side_pulses]``.
    """

    sigma_p: float
    period: float
    n_side_pulses: int = 3
    amplitude: float = 1.0

    def __post_init__(self) -> None:
        _require_positive("sigma_p", self.sigma_p)
        _require_positive("period", self.period)
        if self.n_side_pulses < 0:
            raise ParameterError("n_side_pulses must be non-negative")
        if not math.isfinite(self.amplitude):
            raise ParameterError("amplitude must be finite")

    @property
    def t_hat(self) -> float:
        """Pulse period in units of sigma_p."""
        return self.period / self.sigma_p

    @property
    def span(self) -> float:
        """Half-width of the window carrying the train's amplitude support.

        Runs out to the outermost pulse centre plus five pump widths,
        beyond which the amplitude is below exp(-25).
        """
        return self.n_side_pulses * self.period + 5.0 * self.sigma_p


@dataclass(frozen=True)
class GaussianFilterSpec:
    """Gaussian spectral filter with time-domain amplitude response exp(-(gamma t)^2).

    ``gamma`` has units of inverse time.
    """

    gamma: float

    def __post_init__(self) -> None:
        _require_positive("gamma", self.gamma)

    @property
    def amplitude_fwhm(self) -> float:
        """FWHM of the amplitude transmission spectrum."""
        return filter_fwhm_from_gamma(self.gamma)

    @property
    def intensity_fwhm(self) -> float:
        """FWHM of the intensity transmission spectrum (amplitude FWHM / sqrt 2)."""
        return self.amplitude_fwhm / math.sqrt(2.0)

    @classmethod
    def from_amplitude_fwhm(cls, fwhm: float) -> "GaussianFilterSpec":
        return cls(gamma=gamma_from_filter_fwhm(fwhm))


@dataclass(frozen=True)
class TimeGateSpec:
    """Rectangular time bin, typically one pulse period wide and centred at zero.

    The gate is closed: samples exactly on the boundary are kept.
    """

    width: float
    center: float = 0.0

    def __post_init__(self) -> None:
        _require_positive("width", self.width)
        if not math.isfinite(self.center):
            raise ParameterError("center must be finite")

    @property
    def lower(self) -> float:
        return self.center - 0.5 * self.width

    @property
    def upper(self) -> float:
        return self.center + 0.5 * self.width


def _train_amplitude(spec: PulseTrainSpec, t: np.ndarray) -> np.ndarray:
    indices = np.arange(-spec.n_side_pulses, spec.n_side_pulses + 1)
    centers = indices * spec.period
    terms = np.exp(-(((t[None, :] - centers[:, None]) / spec.sigma_p) ** 2))
    return spec.amplitude * terms.sum(axis=0)


def sample_pump_train(spec: PulseTrainSpec, grid: TimeGrid, check_coverage: bool = True) -> np.ndarray:
    """Amplitude of the pump pulse train on ``grid``.

    Emits a :class:`CoverageWarning` when the grid does not span the full
    train window ``[-(M + 1/2) T, (M + 1/2) T]``; callers that crop on
    purpose (for example within a time gate) pass ``check_coverage=False``.
    """
    if check_coverage and (grid.t_min > -spec.span or grid.t_max < spec.span):
        warnings.warn(
            "grid does not span the full pulse train window; the sampled "
            "train is truncated",
            CoverageWarning,
            stacklevel=2,
        )
    return _train_amplitude(spec, grid.points)


def sample_filter_time(spec: GaussianFilterSpec, grid: TimeGrid) -> np.ndarray:
    """Filter time response exp(-(gamma t)^2) on ``grid``."""
    return np.exp(-((spec.gamma * grid.points) ** 2))


def sample_gate(spec: TimeGateSpec, grid: TimeGrid) -> np.ndarray:
    """Gate window on ``grid``: 1.0 inside the closed bin, 0.0 outside."""
    t = grid.points
    return np.where(np.abs(t - spec.center) <= 0.5 * spec.width, 1.0, 0.0)


# ---------------------------------------------------------------------------
# FWHM conversions.  For a Gaussian amplitude exp(-t^2 / sigma^2):
#   intensity duration FWHM          sigma * sqrt(2 ln 2)
#   intensity spectrum FWHM          sqrt(2 ln 2) / (pi sigma)
# and for a filter response exp(-(gamma t)^2) the amplitude transmission
# spectrum has FWHM 2 gamma sqrt(ln 2) / pi.
# ---------------------------------------------------------------------------

def sigma_p_from_pump_fwhm(delta_nu_p: float) -> float:
    """Pump width sigma_p from the pump intensity-spectrum FWHM."""
    _require_positive("pump bandwidth", delta_nu_p)
    return SQRT_2LN2 / (math.pi * delta_nu_p)


def pump_fwhm_from_sigma_p(sigma_p: float) -> float:
    """Pump intensity-spectrum FWHM from the width sigma_p."""
    _require_positive("sigma_p", sigma_p)
    return SQRT_2LN2 / (math.pi * sigma_p)


def gamma_from_filter_fwhm(delta_nu_f: float) -> float:
    """Filter constant gamma from the amplitude-transmission FWHM."""
    _require_positive("filter bandwidth", delta_nu_f)
    return math.pi * delta_nu_f / (2.0 * SQRT_LN2)


def filter_fwhm_from_gamma(gamma: float) -> float:
    """Amplitude-transmission FWHM of a filter with constant gamma."""
    _require_positive("gamma", gamma)
    return 2.0 * SQRT_LN2 * gamma / math.pi


def duration_fwhm_from_sigma_p(sigma_p: float) -> float:
    """Intensity duration FWHM of a pulse with amplitude width sigma_p."""
    _require_positive("sigma_p", sigma_p)
    return sigma_p * SQRT_2LN2


def sigma_p_from_duration_fwhm(fwhm: float) -> float:
    """Amplitude width sigma_p of a pulse with intensity duration FWHM ``fwhm``."""
    _require_positive("duration", fwhm)
    return fwhm / SQRT_2LN2


def half_maximum_width(x: np.ndarray, y: np.ndarray) -> float:
    """Full width at half maximum of a sampled curve.

    The crossings are located by linear interpolation between the
    bracketing samples on each side of the (unique, interior) peak.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.shape != y.shape:
        raise ParameterError("x and y must be 1-d arrays of equal length")
    k = int(np.argmax(y))
    peak = y[k]
    if peak <= 0:
        raise ParameterError("curve has no positive peak")
    half = 0.5 * peak

    below_left = np.nonzero(y[: k + 1] < half)[0]
    below_right = np.nonzero(y[k:] < half)[0]
    if below_left.size == 0 or below_right.size == 0:
        raise ParameterError("half maximum is not bracketed on both sides of the peak")

    i = below_left[-1]
    x_left = x[i] + (half - y[i]) * (x[i + 1] - x[i]) / (y[i + 1] - y[i])
    j = k + below_right[0]
    x_right = x[j - 1] + (half - y[j - 1]) * (x[j] - x[j - 1]) / (y[j] - y[j - 1])
    return float(x_right - x_left)


def default_time_grid(train: PulseTrainSpec, filt: GaussianFilterSpec, n_points: int = 1024) -> TimeGrid:
    """Symmetric time axis covering the pulse train and the filter response.

    The half-width is ``max(train.span, 4 / gamma)`` and ``n_points``
    grows when needed so the step stays at or below ``sigma_p / 16``.
    """
    if n_points < 2:
        raise ParameterError("n_points must be at least 2")
    half = max(train.span, 4.0 / filt.gamma)
    needed = math.ceil(2.0 * half * RESOLUTION_POINTS_PER_SIGMA / train.sigma_p) + 1
    return TimeGrid(max(n_points, needed), -half, half)
