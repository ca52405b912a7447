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
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError

SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))
SQRT_LN2 = math.sqrt(math.log(2.0))

# A pulse centred more than this many sigma_p from a time adds
# exp(-28^2) there, which underflows to exactly 0.0.
PULSE_REACH = 28.0


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
    def points(self) -> np.ndarray:
        return np.linspace(self.t_min, self.t_max, self.n_points)


@dataclass(frozen=True)
class PulseTrainSpec:
    """Train of Gaussian pump pulses ``exp(-(t - j*period)^2 / sigma_p^2)``.

    ``sigma_p`` is the amplitude 1/e half-width of a single pulse and the
    train runs over pulse indices ``j in [-n_side_pulses, n_side_pulses]``.
    """

    sigma_p: float
    period: float
    n_side_pulses: int = 3

    def __post_init__(self) -> None:
        _require_positive("sigma_p", self.sigma_p)
        _require_positive("period", self.period)
        if self.n_side_pulses < 0:
            raise ParameterError("n_side_pulses must be non-negative")


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

    @classmethod
    def from_amplitude_fwhm(cls, fwhm: float) -> "GaussianFilterSpec":
        return cls(gamma=gamma_from_filter_fwhm(fwhm))


def train_amplitude(spec: PulseTrainSpec, t: np.ndarray) -> np.ndarray:
    """Amplitude of the pump pulse train at the times ``t``.

    Only the pulses whose centres lie within ``PULSE_REACH`` sigma_p of
    the times are summed, so the cost does not grow with
    ``n_side_pulses``; every other pulse adds exactly 0.0.
    """
    reach = PULSE_REACH * spec.sigma_p
    # A pulse so far away that its centre or squared offset overflows
    # contributes exp(-inf) = 0, which is its value to double precision.
    # The index bounds overflow to +/-inf at a tiny period, so they are
    # clamped to +/-M before they become integers.
    with np.errstate(over="ignore"):
        first = max(-spec.n_side_pulses, float(np.ceil((t.min() - reach) / spec.period)))
        last = min(spec.n_side_pulses, float(np.floor((t.max() + reach) / spec.period)))
        centers = np.arange(int(first), int(last) + 1) * spec.period
        terms = np.exp(-(((t[None, :] - centers[:, None]) / spec.sigma_p) ** 2))
    return terms.sum(axis=0)


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


def gamma_from_filter_fwhm(delta_nu_f: float) -> float:
    """Filter constant gamma from the amplitude-transmission FWHM."""
    _require_positive("filter bandwidth", delta_nu_f)
    return math.pi * delta_nu_f / (2.0 * SQRT_LN2)


def filter_fwhm_from_gamma(gamma: float) -> float:
    """Amplitude-transmission FWHM of a filter with constant gamma."""
    _require_positive("gamma", gamma)
    return 2.0 * SQRT_LN2 * gamma / math.pi
