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

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import GridMismatchError, ParameterError
from .formatting import fmt
from .signal_model import (
    FrequencyGrid,
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
    default_time_grid,
    half_maximum_width,
    sample_gate,
    sample_pump_train,
)

TIME_DOMAIN = "time"
FREQUENCY_DOMAIN = "frequency"


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
    grid_i: TimeGrid | None = None,
    grid_s: TimeGrid | None = None,
) -> JointAmplitude:
    """Assemble the (optionally gated) joint temporal amplitude.

    ``gates=None`` leaves the state ungated.  When no grids are given the
    shared default time axis of `default_time_grid` is used for both
    photons.  Gated assembly skips the train-coverage warning because the
    gate crops the train on purpose.
    """
    if grid_i is None and grid_s is None:
        grid_i = grid_s = default_time_grid(train, filt)
    elif grid_i is None or grid_s is None:
        raise GridMismatchError("provide both grids or neither")

    t_i = grid_i.points
    t_s = grid_s.points
    omega = sample_pump_train(train, grid_s, check_coverage=gates is None)
    response = np.exp(-((filt.gamma * (t_i[:, None] - t_s[None, :])) ** 2))
    values = response * omega[None, :]
    if gates is not None:
        gate_i = sample_gate(gates, grid_i)
        gate_s = sample_gate(gates, grid_s)
        values = values * (gate_i[:, None] * gate_s[None, :])
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
    transformed = transformed * phase_i[:, None] * phase_s[None, :] * (dt_i * dt_s)

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
    grid: FrequencyGrid | None = None,
    filter_center: float = 0.0,
) -> MarginalSpectrum:
    """Marginal spectrum of the heralded signal photon.

    The signal marginal is the pump intensity spectrum smeared by the
    idler filter intensity line,

        S(nu_s) = integral |T(nu_i - filter_center)|^2 |pump(nu_s + nu_i)|^2 dnu_i,

    a product of two Gaussians in nu_i.  With the exponents a (filter)
    and b (pump) the integral is the Gaussian
    exp(-a b / (a + b) (nu_s + filter_center)^2), whose FWHM is
    `quadrature_marginal_fwhm`; it is sampled on the grid and normalized
    to unit sampled peak.  ``pump_fwhm`` is the pump intensity-spectrum
    FWHM and ``filter_amplitude_fwhm`` the filter amplitude-transmission
    FWHM, both in the same frequency unit as the output axis.

    Raises :class:`GridMismatchError` when a supplied grid is too coarse
    to resolve the expected line (fewer than 8 samples per FWHM).
    """
    if pump_fwhm <= 0 or filter_amplitude_fwhm <= 0:
        raise ParameterError("pump and filter FWHM values must be positive")
    if not math.isfinite(filter_center):
        raise ParameterError("filter_center must be finite")

    filter_intensity_fwhm = filter_amplitude_fwhm / math.sqrt(2.0)
    expected_fwhm = quadrature_marginal_fwhm(pump_fwhm, filter_amplitude_fwhm)
    if grid is None:
        half = 4.0 * expected_fwhm
        grid = TimeGrid(2049, -filter_center - half, -filter_center + half)
    if expected_fwhm < 8.0 * grid.step:
        raise GridMismatchError(
            "frequency grid too coarse: fewer than 8 samples across the expected FWHM"
        )

    nu_s = grid.points
    # Gaussian exponents of the two intensity profiles.
    a = 4.0 * math.log(2.0) / filter_intensity_fwhm**2
    b = 4.0 * math.log(2.0) / pump_fwhm**2
    intensity = np.exp(-a * b / (a + b) * (nu_s + filter_center) ** 2)

    peak = intensity.max()
    if peak <= 0:
        raise ParameterError("marginal spectrum vanished on the supplied grid")
    intensity = intensity / peak
    fwhm = half_maximum_width(nu_s, intensity)
    return MarginalSpectrum(frequencies=nu_s, intensity=intensity, fwhm=fwhm)


def gating_loss(gated: JointAmplitude, reference: JointAmplitude) -> float:
    """Fraction of the reference norm squared surviving in the gated state."""
    if gated.domain != reference.domain:
        raise GridMismatchError("gated and reference amplitudes live in different domains")
    if gated.axis_i != reference.axis_i or gated.axis_s != reference.axis_s:
        raise GridMismatchError("gated and reference amplitudes use different grids")
    denom = reference.norm_squared
    if denom <= 0:
        raise ParameterError("reference amplitude has zero norm")
    return gated.norm_squared / denom


def write_joint_amplitude_csv(jta: JointAmplitude, path: str) -> None:
    """Write the sampled amplitude as CSV rows (axis_i, axis_s, re, im)."""
    if jta.domain == TIME_DOMAIN:
        header = ["t_i", "t_s", "re", "im"]
    else:
        header = ["nu_i", "nu_s", "re", "im"]
    x_i = jta.axis_i.points
    x_s = jta.axis_s.points
    values = np.asarray(jta.values, dtype=complex)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(header)
        for row, xi in enumerate(x_i):
            for col, xs in enumerate(x_s):
                val = values[row, col]
                writer.writerow([fmt(xi), fmt(xs), fmt(val.real), fmt(val.imag)])


def write_marginal_spectrum_csv(spectrum: MarginalSpectrum, path: str) -> None:
    """Write a marginal spectrum as CSV rows (frequency, intensity)."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["frequency_GHz", "intensity"])
        for nu, val in zip(spectrum.frequencies, spectrum.intensity):
            writer.writerow([fmt(nu), fmt(val)])
