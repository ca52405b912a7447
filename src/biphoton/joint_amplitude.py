"""Joint amplitude of the filtered, time-gated biphoton state.

With flat phase matching the two-photon amplitude depends on the pump
envelope through the signal time alone, while the idler filter ties the
idler time to the signal time:

    f(t_i, t_s) = G(t_i) G(t_s) * T(t_i - t_s) * Omega_tot(t_s)

where ``T`` is the filter time response, ``Omega_tot`` the pump pulse
train and ``G`` an optional rectangular time gate.  Rows of the value
matrix run over the idler axis, columns over the signal axis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .formatting import write_csv
from .signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
    _require_positive,
    sample_gate,
    train_amplitude,
    warn_if_train_cropped,
)

TIME_DOMAIN = "time"
FREQUENCY_DOMAIN = "frequency"

# The marginal spectrum's axis: an odd count over +/-4 FWHM, so that the
# centre node sits at offset 0.0 exactly and the sampled peak is 1.
SPECTRUM_POINTS = 2049


@dataclass(frozen=True)
class JointAmplitude:
    """Two-photon amplitude sampled on an (idler axis) x (signal axis) grid.

    ``domain`` tags whether the axes are times or ordinary frequencies.
    The value matrix may be real or complex.
    """

    values: np.ndarray
    axis_i: TimeGrid
    axis_s: TimeGrid
    domain: str = TIME_DOMAIN

    def __post_init__(self) -> None:
        if self.domain not in (TIME_DOMAIN, FREQUENCY_DOMAIN):
            raise ParameterError(f"unknown domain {self.domain!r}")
        values = np.asarray(self.values)
        if values.ndim != 2:
            raise GridMismatchError("joint amplitude values must form a matrix")
        if values.shape != (self.axis_i.n_points, self.axis_s.n_points):
            raise GridMismatchError(
                f"value matrix shape {values.shape} does not match axes "
                f"({self.axis_i.n_points}, {self.axis_s.n_points})"
            )
        if not np.isfinite(values).all():
            raise ParameterError("joint amplitude contains non-finite entries")

    @property
    def norm_squared(self) -> float:
        """Quadrature norm: sum of |f|^2 times the cell area."""
        total = float((np.abs(self.values) ** 2).sum())
        return total * self.axis_i.step * self.axis_s.step


def assemble_gated_jta(
    train: PulseTrainSpec,
    filt: GaussianFilterSpec,
    gates: TimeGateSpec | None = None,
    *,
    grid_i: TimeGrid,
    grid_s: TimeGrid,
) -> JointAmplitude:
    """Assemble the (optionally gated) joint temporal amplitude on the idler and signal grids.

    ``gates=None`` leaves the state ungated.  Gated assembly skips the
    train-coverage warning because the gate crops the train on purpose.
    """
    values = np.subtract.outer(grid_i.points, grid_s.points)
    values *= filt.gamma
    np.square(values, out=values)
    np.negative(values, out=values)
    np.exp(values, out=values)
    values *= train_amplitude(train, grid_s.points)
    if gates is None:
        warn_if_train_cropped(train, grid_s)
    else:
        values *= sample_gate(gates, grid_s)
        values *= sample_gate(gates, grid_i)[:, None]
    return JointAmplitude(values, grid_i, grid_s, TIME_DOMAIN)


def to_frequency_domain(jta: JointAmplitude) -> JointAmplitude:
    """Continuum Fourier transform of a time-domain joint amplitude.

    Uses the convention F(nu_i, nu_s) = integral f(t_i, t_s)
    exp(-2 pi i (nu_i t_i + nu_s t_s)) dt_i dt_s, discretised with the
    grid cell area as quadrature weight, so Parseval's identity holds
    exactly between the two quadrature norms.
    """
    if jta.domain != TIME_DOMAIN:
        raise GridMismatchError("input joint amplitude must be in the time domain")

    n_i, n_s = jta.values.shape
    dt_i = jta.axis_i.step
    dt_s = jta.axis_s.step
    nu_i = np.fft.fftfreq(n_i, d=dt_i)
    nu_s = np.fft.fftfreq(n_s, d=dt_s)

    transformed = np.fft.fft2(jta.values)
    # fft2 assumes samples starting at t = 0; shift to the actual origins.
    phase_i = np.exp(-2j * np.pi * nu_i * jta.axis_i.t_min)
    phase_s = np.exp(-2j * np.pi * nu_s * jta.axis_s.t_min)
    transformed *= phase_i[:, None]
    transformed *= phase_s
    transformed *= dt_i * dt_s

    transformed = np.fft.fftshift(transformed)
    nu_i = np.fft.fftshift(nu_i)
    nu_s = np.fft.fftshift(nu_s)
    grid_i = TimeGrid(n_i, float(nu_i[0]), float(nu_i[-1]))
    grid_s = TimeGrid(n_s, float(nu_s[0]), float(nu_s[-1]))
    return JointAmplitude(transformed, grid_i, grid_s, FREQUENCY_DOMAIN)


@dataclass(frozen=True)
class MarginalSpectrum:
    """Normalized heralded-photon marginal spectrum with its extracted FWHM."""

    frequencies: np.ndarray
    intensity: np.ndarray
    fwhm: float

    def __post_init__(self) -> None:
        if self.frequencies.shape != self.intensity.shape or self.frequencies.ndim != 1:
            raise GridMismatchError("frequencies and intensity must be 1-d arrays of equal length")
        if (self.intensity < 0).any():
            raise ParameterError("marginal intensity must be non-negative")
        if not self.fwhm > 0:
            raise ParameterError("marginal FWHM must be positive")


def quadrature_marginal_fwhm(pump_fwhm: float, filter_amplitude_fwhm: float) -> float:
    """Closed-form marginal width: pump and filter intensity FWHMs in quadrature."""
    return math.hypot(pump_fwhm, filter_amplitude_fwhm / math.sqrt(2.0))


def marginal_signal_spectrum(
    pump_fwhm: float,
    filter_amplitude_fwhm: float,
    filter_center: float = 0.0,
) -> MarginalSpectrum:
    """Marginal spectrum of the heralded signal photon.

    The signal marginal is the pump intensity spectrum smeared by the
    idler filter intensity line,

        S(nu_s) = integral |T(nu_i - filter_center)|^2 |pump(nu_s + nu_i)|^2 dnu_i,

    a product of two Gaussians in nu_i whose integral is the Gaussian
    exp(-4 ln 2 (nu_s + filter_center)^2 / Q^2) of FWHM Q =
    `quadrature_marginal_fwhm`, which is the reported width.  The curve
    is sampled on ``SPECTRUM_POINTS`` offsets spanning +/-4 Q about its
    centre -filter_center; the middle offset is 0.0 exactly, so the
    sampled peak is 1.  ``pump_fwhm`` is the pump intensity-spectrum
    FWHM and ``filter_amplitude_fwhm`` the filter amplitude-transmission
    FWHM, both in the same frequency unit as the output axis.

    Raises :class:`ParameterError` for a width that is not positive and
    finite, for a Q whose axis overflows float64 or whose step underflows
    it, and for a centre so far out that float64 cannot tell the axis
    points apart.
    """
    _require_positive("pump_fwhm", pump_fwhm)
    _require_positive("filter_amplitude_fwhm", filter_amplitude_fwhm)
    if not math.isfinite(filter_center):
        raise ParameterError("filter_center must be finite")

    fwhm = quadrature_marginal_fwhm(pump_fwhm, filter_amplitude_fwhm)
    with np.errstate(over="ignore", invalid="ignore"):  # an axis out of float64 range is refused below
        offsets = np.linspace(-4.0 * fwhm, 4.0 * fwhm, SPECTRUM_POINTS)
        nu_s = offsets - filter_center
    if not (offsets[1:] > offsets[:-1]).all():
        limit = "overflows" if fwhm > 1.0 else "underflows"
        raise ParameterError(f"marginal FWHM {fwhm:g} is out of range: its +/-4-FWHM axis {limit} float64")
    if not (nu_s[1:] > nu_s[:-1]).all():
        raise ParameterError(
            f"filter centre {filter_center:g} is too far out for a frequency axis of step "
            f"{offsets[1] - offsets[0]:g}: float64 cannot resolve it there"
        )
    intensity = np.exp(-4.0 * math.log(2.0) * (offsets / fwhm) ** 2)
    return MarginalSpectrum(frequencies=nu_s, intensity=intensity, fwhm=fwhm)


def write_marginal_spectrum_csv(spectrum: MarginalSpectrum, path: str) -> None:
    """Write a marginal spectrum as CSV rows (frequency, intensity)."""
    write_csv(path, ["frequency_GHz", "intensity"], zip(spectrum.frequencies, spectrum.intensity))
