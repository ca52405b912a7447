"""Joint amplitude of the filtered, time-gated biphoton state.

With flat phase matching the two-photon amplitude depends on the pump
envelope through the signal time alone, while the idler filter ties the
idler time to the signal time:

    f(t_i, t_s) = G(t_i) G(t_s) * T(t_i - t_s) * Omega_tot(t_s)

where ``T`` is the filter time response, ``Omega_tot`` the pump pulse
train and ``G`` the rectangular time gate.  The grids are the gate: they
span the time bin, so ``G`` is one on every node.  Rows of the value
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
    TimeGrid,
    _require_positive,
    train_amplitude,
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
        total = float(np.vdot(self.values, self.values).real)
        return total * self.axis_i.step * self.axis_s.step


def assemble_gated_jta(
    train: PulseTrainSpec,
    filt: GaussianFilterSpec,
    *,
    grid_i: TimeGrid,
    grid_s: TimeGrid,
) -> JointAmplitude:
    """Assemble the joint temporal amplitude on the idler and signal grids.

    The grids are the gate: the amplitude is gated to the time bin they
    span, and grids that cover the train's support give the ungated state.
    """
    values = np.subtract.outer(grid_i.points, grid_s.points)
    values *= filt.gamma
    np.square(values, out=values)
    np.negative(values, out=values)
    np.exp(values, out=values)
    values *= train_amplitude(train, grid_s.points)
    return JointAmplitude(values, grid_i, grid_s, TIME_DOMAIN)


def _shifted_real_fft2(values: np.ndarray, grid_i: TimeGrid, grid_s: TimeGrid) -> np.ndarray:
    """``fftshift(fft2(values))`` of a real matrix, phased as in `to_frequency_domain`, from its half spectrum.

    half[k, l] is the DFT at idler index k and signal index l <= n_s // 2,
    phased in place; as P(-nu) = conj P(nu), the other signal indices
    follow from F(-nu) = conj F(nu).  Output row r holds idler index
    (r - n_i // 2) mod n_i, whose mirror (n_i // 2 - r) mod n_i runs down
    from n_i // 2 and then from n_i - 1; an even n_i's row 0 is its own
    mirror, at -nu, so its negative half takes P^2 to turn conj P into P.
    The slices are views, so the output and the half spectrum are the
    only n_i x n_s-sized allocations.
    """
    n_i, n_s = values.shape
    m_i, m_s = n_i // 2, n_s // 2
    half = np.fft.fft(np.fft.rfft(values, axis=1), axis=0)
    phase_i = np.exp(-2j * np.pi * np.fft.fftfreq(n_i, d=grid_i.step) * grid_i.t_min)
    half *= phase_i[:, None]
    half *= np.exp(-2j * np.pi * np.fft.rfftfreq(n_s, d=grid_s.step) * grid_s.t_min) * (grid_i.step * grid_s.step)
    shifted = np.empty((n_i, n_s), dtype=half.dtype)
    shifted[m_i:, m_s:] = half[: n_i - m_i, : n_s - m_s]
    shifted[:m_i, m_s:] = half[n_i - m_i :, : n_s - m_s]
    # In place on the contiguous half, the conjugate needs no ufunc buffer.
    np.conjugate(half, out=half)
    shifted[: m_i + 1, :m_s] = half[m_i::-1, m_s:0:-1]
    shifted[m_i + 1 :, :m_s] = half[:m_i:-1, m_s:0:-1]
    if n_i % 2 == 0:
        shifted[0, :m_s] *= phase_i[m_i] ** 2
    return shifted


def to_frequency_domain(jta: JointAmplitude) -> JointAmplitude:
    """Continuum Fourier transform of a time-domain joint amplitude.

    Uses the convention F(nu_i, nu_s) = integral f(t_i, t_s)
    exp(-2 pi i (nu_i t_i + nu_s t_s)) dt_i dt_s, discretised with the
    grid cell area as quadrature weight, so Parseval's identity holds
    exactly between the two quadrature norms.

    Real values take the half spectrum: an ``rfft`` over the signal axis
    and an ``fft`` over the idler axis, phased on that half alone, and the
    negative signal frequencies from the mirror F(-nu) = conj F(nu),
    written straight into the shifted output; the call peaks at about 1.5
    n_i n_s complex values beyond its input.  Complex values take
    ``fft2`` and a shifted copy, which peaks at about 2.0.
    """
    if jta.domain != TIME_DOMAIN:
        raise GridMismatchError("input joint amplitude must be in the time domain")

    values = jta.values
    n_i, n_s = values.shape
    dt_i = jta.axis_i.step
    dt_s = jta.axis_s.step
    nu_i = np.fft.fftshift(np.fft.fftfreq(n_i, d=dt_i))
    nu_s = np.fft.fftshift(np.fft.fftfreq(n_s, d=dt_s))

    # The DFT assumes samples starting at t = 0; shift to the actual origins.
    if np.iscomplexobj(values):
        transformed = np.fft.fftshift(np.fft.fft2(values))
        transformed *= np.exp(-2j * np.pi * nu_i * jta.axis_i.t_min)[:, None]
        transformed *= np.exp(-2j * np.pi * nu_s * jta.axis_s.t_min) * (dt_i * dt_s)
    else:
        transformed = _shifted_real_fft2(values, jta.axis_i, jta.axis_s)

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
