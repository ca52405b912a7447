"""Detector count-rate reduction and spectral sweep fitting.

Rates are understood as Poisson-sampled counts divided by the
integration time, so every propagated uncertainty below uses
sqrt(N)/tau count statistics plus any systematic error carried by the
optical path calibration.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import MISSING, dataclass, fields
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .errors import FitConvergenceError, ParameterError
from .formatting import write_csv
from .signal_model import GaussianFilterSpec, SQRT_LN2

# Narrowest photon bandwidth the sweep fit resolves, as a fraction of the
# scan line FWHM; fits at or below it are flagged resolution-limited.
RESOLUTION_FLOOR_PER_KERNEL_FWHM = 1.0 / 16.0


@dataclass(frozen=True)
class Measurement:
    """A value with a one-sigma uncertainty."""

    value: float
    err: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.value):
            raise ParameterError("measurement value must be finite")
        if not (math.isfinite(self.err) and self.err >= 0):
            raise ParameterError("measurement error must be finite and non-negative")


@dataclass(frozen=True)
class OpticalPath:
    """Heralding-path calibration: fibre/optics transmission and detector efficiency.

    Both numbers must be supplied explicitly; the detector efficiency in
    particular is never defaulted because it rescales every heralding
    efficiency linearly.
    """

    transmission: float
    detector_efficiency: float
    transmission_err: float = 0.0

    def __post_init__(self) -> None:
        for name, value in (
            ("transmission", self.transmission),
            ("detector_efficiency", self.detector_efficiency),
        ):
            if not (0.0 < value <= 1.0):
                raise ParameterError(f"{name} must lie in (0, 1], got {value!r}")
        if not (math.isfinite(self.transmission_err) and self.transmission_err >= 0):
            raise ParameterError("transmission_err must be finite and non-negative")


@dataclass(frozen=True)
class CountRecord:
    """One acquisition of trigger, heralded and triple coincidence rates.

    All rates are in counts per second; ``integration_time_s`` is the
    wall-clock accumulation time used for Poisson error estimates.
    ``c_h``/``c_v`` are the signal singles behind the two output ports,
    the ``*_given_t`` rates are conditioned on a trigger detection and
    ``acc_s_given_t`` is the accidental-coincidence estimate; triples and
    accidentals default to zero.  Every field must be finite and
    non-negative.
    """

    pump_power_mw: float
    c_t: float
    c_h: float
    c_v: float
    c_h_given_t: float
    c_v_given_t: float
    c_hv_given_t: float = 0.0
    acc_s_given_t: float = 0.0
    integration_time_s: float = 1.0

    def __post_init__(self) -> None:
        # Not vars(self): a materialised instance __dict__ slows every later
        # attribute read, by 17% on the heralding/g2 reduction.
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ParameterError(f"{name} must be finite and non-negative, got {value!r}")
        if self.integration_time_s <= 0:
            raise ParameterError("integration time must be positive")
        if self.c_hv_given_t > min(self.c_h_given_t, self.c_v_given_t) * (1.0 + 1e-12):
            raise ParameterError(
                "triple coincidences cannot exceed either conditioned singles rate"
            )

    @property
    def c_s_given_t(self) -> float:
        """Total heralded signal rate over both ports."""
        return self.c_h_given_t + self.c_v_given_t

    @property
    def c_signal_total(self) -> float:
        """Unconditioned signal singles over both ports."""
        return self.c_h + self.c_v


@dataclass(frozen=True)
class SweepPoint:
    """One point of a filter-detuning sweep: detuning and normalized rate."""

    detuning_ghz: float
    normalized_rate: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.detuning_ghz):
            raise ParameterError("detuning must be finite")
        if not (math.isfinite(self.normalized_rate) and self.normalized_rate >= -0.5):
            raise ParameterError("normalized rate out of range")


class NetRate(NamedTuple):
    value: float
    clipped: bool


def subtract_accidentals(record: CountRecord) -> NetRate:
    """Accidental-corrected heralded rate, floored at zero.

    ``clipped`` flags records whose accidental estimate exceeded the raw
    coincidence rate; those yield a zero net rate instead of a negative
    one.
    """
    net = record.c_s_given_t - record.acc_s_given_t
    if net < 0:
        return NetRate(0.0, True)
    return NetRate(net, False)


def _poisson_rate_err(rate: float, tau: float) -> float:
    """One-sigma error of a rate estimated from Poisson counts over tau.

    The count is floored at one, so a rate of zero counts (no triples at
    low pump power) still carries the error 1/tau of a single count
    instead of none.
    """
    return math.sqrt(max(rate, 1.0 / tau) / tau)


def heralding_efficiency(record: CountRecord, path: OpticalPath) -> Measurement:
    """Heralding efficiency corrected for path transmission and detector efficiency.

    eta_her = (c_s|T - acc) / (c_T * transmission * detector_efficiency),
    with Poisson errors on all rates and the transmission systematic
    propagated to first order.
    """
    if record.c_t <= 0:
        raise ParameterError("trigger rate must be positive to normalize")
    tau = record.integration_time_s
    net = subtract_accidentals(record).value
    denom = record.c_t * path.transmission * path.detector_efficiency
    eta = net / denom

    err_net = math.sqrt(
        _poisson_rate_err(record.c_s_given_t, tau) ** 2
        + _poisson_rate_err(record.acc_s_given_t, tau) ** 2
    )
    d_net = 1.0 / denom
    d_ct = -eta / record.c_t
    d_ts = -eta / path.transmission
    err = math.sqrt(
        (d_net * err_net) ** 2
        + (d_ct * _poisson_rate_err(record.c_t, tau)) ** 2
        + (d_ts * path.transmission_err) ** 2
    )
    return Measurement(eta, err)


def heralded_g2(record: CountRecord) -> Measurement:
    """Heralded second-order correlation g2(0) = c_HV|T c_T / (c_H|T c_V|T).

    Scale-invariant in the rates; zero triples give exactly zero and a
    coherent 50/50 split gives one.
    """
    if record.c_h_given_t <= 0 or record.c_v_given_t <= 0:
        raise ParameterError("heralded g2 undefined without counts in both ports")
    if record.c_t <= 0:
        raise ParameterError("heralded g2 undefined without triggers")
    tau = record.integration_time_s
    g2 = record.c_hv_given_t * record.c_t / (record.c_h_given_t * record.c_v_given_t)

    d_hv = record.c_t / (record.c_h_given_t * record.c_v_given_t)
    d_ct = record.c_hv_given_t / (record.c_h_given_t * record.c_v_given_t)
    d_h = -g2 / record.c_h_given_t
    d_v = -g2 / record.c_v_given_t
    err = math.sqrt(
        (d_hv * _poisson_rate_err(record.c_hv_given_t, tau)) ** 2
        + (d_ct * _poisson_rate_err(record.c_t, tau)) ** 2
        + (d_h * _poisson_rate_err(record.c_h_given_t, tau)) ** 2
        + (d_v * _poisson_rate_err(record.c_v_given_t, tau)) ** 2
    )
    return Measurement(g2, err)


@dataclass(frozen=True)
class LinearFit:
    """Least-squares line through rate-versus-power data."""

    slope: float
    intercept: float
    residuals: np.ndarray


def linear_rate_fit(records: Sequence[CountRecord], channel: str) -> LinearFit:
    """Fit rate = slope * pump_power + intercept for one channel.

    ``channel`` is a field or property name of :class:`CountRecord`
    (e.g. ``"c_t"`` or ``"c_s_given_t"``).
    """
    if len(records) < 3:
        raise ParameterError("need at least 3 records for a rate fit")
    powers = np.array([rec.pump_power_mw for rec in records], dtype=float)
    if np.unique(powers).size < 2:
        raise ParameterError("pump powers are all equal; the fit is rank deficient")
    rates = np.array([getattr(rec, channel) for rec in records], dtype=float)
    slope, intercept = np.polyfit(powers, rates, 1)
    residuals = rates - (slope * powers + intercept)
    return LinearFit(slope=float(slope), intercept=float(intercept), residuals=residuals)


def mode_match_ratio(eta_hsp: Measurement, eta_coherent: Measurement) -> Measurement:
    """Ratio of heralded-photon to coherent-pulse memory efficiency.

    The ratio isolates the mode-matching penalty of the broadband
    heralded photon relative to a shaped coherent reference pulse.
    """
    if eta_coherent.value <= 0:
        raise ParameterError("coherent reference efficiency must be positive")
    ratio = eta_hsp.value / eta_coherent.value
    d_hsp = 1.0 / eta_coherent.value
    d_coh = -ratio / eta_coherent.value
    err = math.sqrt((d_hsp * eta_hsp.err) ** 2 + (d_coh * eta_coherent.err) ** 2)
    return Measurement(ratio, err)


@dataclass(frozen=True)
class BandwidthFit:
    """Result of the filter-sweep bandwidth fit."""

    delta_t_ns: float
    delta_t_err_ns: float
    delta_nu_ghz: float
    delta_nu_err_ghz: float
    center_ghz: float
    scale: float
    residuals: np.ndarray
    resolution_limited: bool


def fit_hsp_bandwidth(
    points: Sequence[SweepPoint],
    signal_filter: GaussianFilterSpec,
    transmission: str = "intensity",
) -> BandwidthFit:
    """Fit the heralded-photon bandwidth from a filter-detuning sweep.

    The model is the peak-normalized convolution of the Gaussian
    scanning filter line (FWHM ``kernel``) with a Gaussian photon
    spectrum exp(-4 pi^2 delta_t^2 nu^2) (FWHM ``photon``), which is the
    Gaussian of FWHM^2 = kernel^2 + photon^2 in closed form; the fitted
    duration parameter ``delta_t`` maps to the intensity FWHM bandwidth
    delta_nu = photon = sqrt(ln 2) / (pi delta_t).  Widths below
    kernel/16 are flagged ``resolution_limited``.

    Parameters
    ----------
    points:
        At least five sweep points spanning one filter FWHM or more.
    signal_filter:
        The scanning filter; its gamma sets the line shape.
    transmission:
        ``"intensity"`` (default) scans with the intensity line
        |T(nu)|^2; ``"amplitude"`` scans with the amplitude line, for
        setups where the sweep is normalized field-wise.

    Raises
    ------
    FitConvergenceError
        When the least-squares optimizer does not converge.
    """
    if transmission not in ("intensity", "amplitude"):
        raise ParameterError(f"unknown transmission convention {transmission!r}")
    if len(points) < 5:
        raise ParameterError("need at least 5 sweep points for a bandwidth fit")
    detunings = np.array([p.detuning_ghz for p in points], dtype=float)
    rates = np.array([p.normalized_rate for p in points], dtype=float)
    span = float(detunings.max() - detunings.min())
    filter_fwhm = signal_filter.amplitude_fwhm
    if span < filter_fwhm:
        raise ParameterError("sweep must span at least one filter FWHM")

    exponent = 2.0 if transmission == "intensity" else 1.0
    kernel_fwhm = filter_fwhm / math.sqrt(exponent)
    nu_floor = kernel_fwhm * RESOLUTION_FLOOR_PER_KERNEL_FWHM
    dt_max = SQRT_LN2 / (math.pi * nu_floor)

    def model(x: np.ndarray, delta_t: float, center: float, scale: float) -> np.ndarray:
        photon_fwhm = SQRT_LN2 / (math.pi * delta_t)
        fwhm_sq = kernel_fwhm**2 + photon_fwhm**2
        return scale * np.exp(-4.0 * math.log(2.0) * (x - center) ** 2 / fwhm_sq)

    scale0 = float(rates.max())
    if scale0 <= 0:
        raise ParameterError("sweep rates are all non-positive")
    weights = np.clip(rates, 0.0, None)
    total = weights.sum()
    center0 = float((detunings * weights).sum() / total)
    variance = float((weights * (detunings - center0) ** 2).sum() / total)
    total_fwhm = max(2.355 * math.sqrt(max(variance, 0.0)), kernel_fwhm)
    nu0_sq = max(total_fwhm**2 - kernel_fwhm**2, (2.0 * nu_floor) ** 2)
    dt0 = SQRT_LN2 / (math.pi * math.sqrt(nu0_sq))
    dt0 = min(dt0, 0.9 * dt_max)

    # Imported here, not at module level: scipy.optimize costs about 0.5 s, and only this fit needs it.
    from scipy.optimize import curve_fit

    try:
        popt, pcov = curve_fit(
            model,
            detunings,
            rates,
            p0=[dt0, center0, scale0],
            bounds=([1e-6, detunings.min(), 1e-6], [dt_max, detunings.max(), 10.0 * scale0]),
            maxfev=20000,
        )
    except (RuntimeError, ValueError) as exc:
        raise FitConvergenceError(f"bandwidth fit did not converge: {exc}") from exc

    delta_t, center, scale = (float(v) for v in popt)
    perr = np.sqrt(np.clip(np.diag(pcov), 0.0, None))
    delta_nu = SQRT_LN2 / (math.pi * delta_t)
    delta_nu_err = delta_nu * float(perr[0]) / delta_t
    residuals = rates - model(detunings, *popt)
    resolution_limited = delta_nu <= nu_floor * 1.05 or delta_t >= 0.95 * dt_max

    return BandwidthFit(
        delta_t_ns=delta_t,
        delta_t_err_ns=float(perr[0]),
        delta_nu_ghz=delta_nu,
        delta_nu_err_ghz=delta_nu_err,
        center_ghz=center,
        scale=scale,
        residuals=residuals,
        resolution_limited=resolution_limited,
    )


# CSV column -> CountRecord field.  A column whose field has a default
# may be absent, and a blank cell in it reads as that default.
COUNT_COLUMNS = {
    "pump_power_mW": "pump_power_mw",
    "c_T": "c_t",
    "c_H": "c_h",
    "c_V": "c_v",
    "c_H_given_T": "c_h_given_t",
    "c_V_given_T": "c_v_given_t",
    "c_HV_given_T": "c_hv_given_t",
    "acc_s_given_T": "acc_s_given_t",
    "integration_time_s": "integration_time_s",
}

# CSV column -> SweepPoint field.
SWEEP_COLUMNS = {"detuning_GHz": "detuning_ghz", "normalized_coincidences": "normalized_rate"}


def _read_csv(
    path: str, kind: str, required: Iterable[str], parse: Callable[[dict], object], skip_bad_rows: bool
) -> tuple[list, list[str], list[str]]:
    """``parse(row)`` of every data row, the ``"line N: reason"`` of each skipped row, and the header.

    A row that ``parse`` rejects is skipped when ``skip_bad_rows`` and
    raises with its line number otherwise.  A missing ``required`` column
    or a file without a parsed row raises :class:`ParameterError`.
    """
    items, issues = [], []
    with open(path, newline="") as handle:
        reader = csv.DictReader(handle)
        header = reader.fieldnames or []
        missing = [col for col in required if col not in header]
        if missing:
            raise ParameterError(f"{kind} CSV is missing required columns: {', '.join(missing)}")
        for line_number, row in enumerate(reader, start=2):
            try:
                items.append(parse(row))
            except (TypeError, ValueError, ParameterError) as exc:
                if not skip_bad_rows:
                    raise ParameterError(f"{kind} CSV line {line_number}: {exc}") from exc
                issues.append(f"line {line_number}: {exc}")
    if not items:
        raise ParameterError(f"no usable rows in {kind} CSV {path!r}")
    return items, issues, header


def read_counts_csv(path: str) -> tuple[list[CountRecord], list[str]]:
    """Read count records from a CSV with the columns of `COUNT_COLUMNS`.

    Returns the records and the issues of the skipped rows (see
    `_read_csv`).  Missing triple-coincidence/accidental columns read as
    zero with a warning, a missing integration time as 1 s.
    """
    defaults = {item.name: item.default for item in fields(CountRecord)}
    required = [col for col, name in COUNT_COLUMNS.items() if defaults[name] is MISSING]

    def parse(row: dict) -> CountRecord:
        return CountRecord(**{
            name: float(cell)
            for col, name in COUNT_COLUMNS.items()
            if (cell := row.get(col)) not in (None, "") or col in required
        })

    records, issues, header = _read_csv(path, "counts", required, parse, skip_bad_rows=True)
    defaulted = [
        col for col, name in COUNT_COLUMNS.items() if col not in header and defaults[name] == 0.0
    ]
    if defaulted:
        message = f"counts CSV lacks {', '.join(defaulted)}; treating those rates as zero"
        warnings.warn(message, UserWarning, stacklevel=2)
    return records, issues


def read_sweep_csv(path: str) -> list[SweepPoint]:
    """Read a detuning sweep from a CSV with the columns of `SWEEP_COLUMNS`."""

    def parse(row: dict) -> SweepPoint:
        return SweepPoint(**{name: float(row[col]) for col, name in SWEEP_COLUMNS.items()})

    points, _, _ = _read_csv(path, "sweep", SWEEP_COLUMNS, parse, skip_bad_rows=False)
    return points


def write_sweep_csv(points: Sequence[SweepPoint], path: str) -> None:
    """Write a detuning sweep in the canonical CSV layout."""
    rows = ([getattr(point, name) for name in SWEEP_COLUMNS.values()] for point in points)
    write_csv(path, SWEEP_COLUMNS, rows)
