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

    err = math.hypot(
        _poisson_rate_err(record.c_s_given_t, tau) / denom,
        _poisson_rate_err(record.acc_s_given_t, tau) / denom,
        eta / record.c_t * _poisson_rate_err(record.c_t, tau),
        eta / path.transmission * path.transmission_err,
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
    # Quotients before products, and hypot for the error: no intermediate overflows.
    g2 = record.c_hv_given_t / record.c_h_given_t * (record.c_t / record.c_v_given_t)
    err = math.hypot(
        record.c_t / record.c_v_given_t / record.c_h_given_t * _poisson_rate_err(record.c_hv_given_t, tau),
        record.c_hv_given_t / record.c_h_given_t / record.c_v_given_t * _poisson_rate_err(record.c_t, tau),
        g2 / record.c_h_given_t * _poisson_rate_err(record.c_h_given_t, tau),
        g2 / record.c_v_given_t * _poisson_rate_err(record.c_v_given_t, tau),
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
    return Measurement(ratio, math.hypot(eta_hsp.err, ratio * eta_coherent.err) / eta_coherent.value)


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

    Least squares by variable projection, in units of the span and the
    peak rate: with the scale solved in closed form, a grid of centres on
    (up to 128 of) the samples and 16 log-spaced FWHM^2 from kernel^2 +
    (kernel/16)^2 to (2 span)^2 gives the start; damped Gauss-Newton steps
    on (scale, centre, FWHM^2), the centre inside the sweep and photon >=
    kernel/16, refine it until a step moves no parameter by 1e-10 (photon^2
    relative) or could lower the sum of squared residuals (SSR) by 1e-12
    of it.  Errors: the diagonal of (J^T J)^-1 SSR / (n - 3) at the end.

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
        When 100 steps miss the tolerance, or no damped step lowers the SSR.
    """
    if transmission not in ("intensity", "amplitude"):
        raise ParameterError(f"unknown transmission convention {transmission!r}")
    if len(points) < 5:
        raise ParameterError("need at least 5 sweep points for a bandwidth fit")
    detunings = np.array([p.detuning_ghz for p in points], dtype=float)
    rates = np.array([p.normalized_rate for p in points], dtype=float)
    # Python floats: a span past the float maximum is inf, with no numpy warning.
    low = float(detunings.min())
    span = float(detunings.max()) - low
    filter_fwhm = signal_filter.amplitude_fwhm
    if span < filter_fwhm:
        raise ParameterError("sweep must span at least one filter FWHM")
    if not math.isfinite(span * span):
        raise ParameterError(f"sweep spans {span:g} GHz, whose square overflows a float64")

    kernel_fwhm = filter_fwhm / math.sqrt(2.0 if transmission == "intensity" else 1.0)
    nu_floor = kernel_fwhm * RESOLUTION_FLOOR_PER_KERNEL_FWHM
    dt_max = SQRT_LN2 / (math.pi * nu_floor)
    # Squared widths over the span squared: the scan line's, and the floor on the photon's.
    kernel_sq, floor_sq = (kernel_fwhm / span) ** 2, (nu_floor / span) ** 2
    if not floor_sq >= np.finfo(float).tiny:
        raise ParameterError(f"sweep spans {span / nu_floor:g} resolution floors, too many for a float64")
    peak = float(rates.max())
    if not peak >= np.finfo(float).tiny:
        raise ParameterError(f"sweep rates must peak at a positive normal float64, not {peak:g}")
    # In units of the span and the peak rate, the grid, bounds and tolerances are scale-free.
    u, y = (detunings - low) / span, rates / peak
    a = 4.0 * math.log(2.0)

    # Grid centres on (up to 128 of) the samples, the peak among them, so each line has g.g >= 1.
    stride = -(-len(u) // 128)
    keep = slice(int(np.argmax(y)) % stride, None, stride)
    uk = u[keep]
    # 16 FWHM^2 in geometric steps from kernel^2 + floor^2 to 4, and one (16, k, k)
    # buffer that holds the lines, then their squares.
    first = kernel_sq + floor_sq
    widths = first * (4.0 / first) ** (np.arange(16) / 15.0)
    g = np.multiply.outer(-a / widths, np.square(uk[:, None] - uk))
    gy = np.exp(g, out=g) @ y[keep]
    gg = np.square(g, out=g).sum(axis=2)
    i, j = np.unravel_index(np.argmax(gy * gy / gg), gy.shape)
    s, c, q = float(gy[i, j] / gg[i, j]), float(uk[j]), float(widths[i]) - kernel_sq

    def residual(s: float, c: float, q: float) -> tuple[np.ndarray, np.ndarray]:
        line = np.exp(-a * (u - c) ** 2 / (kernel_sq + q))
        return y - s * line, line

    # Python floats and one Jacobian buffer: at tens of points a step's cost is numpy call
    # overhead, not arithmetic.
    r, line = residual(s, c, q)
    rr = float(r @ r)
    jac = np.empty((3, len(u))).T
    halvings = [0.5**k for k in range(30)]
    for _ in range(100):
        d = (u - c) / (kernel_sq + q)
        jac[:, 0] = line
        np.multiply(line, 2.0 * a * s, out=jac[:, 1])
        jac[:, 1] *= d
        np.multiply(line, a * s, out=jac[:, 2])
        jac[:, 2] *= d
        jac[:, 2] *= d
        # A parameter on a bound that the SSR gradient pushes outward stays
        # there: its column is zeroed, so the least-norm step leaves it.
        lhs = jac
        if c <= 0.0 or c >= 1.0 or q <= floor_sq:
            grad = jac.T @ r
            lhs = jac * [True, not (c <= 0.0 and grad[1] < 0 or c >= 1.0 and grad[1] > 0),
                         not (q <= floor_sq and grad[2] < 0)]
        step = np.linalg.lstsq(lhs, r, rcond=None)[0]
        ds, dc, dq = step.tolist()
        if max(abs(ds), abs(dc), abs(dq) / q) <= 1e-10 or np.sum((jac @ step) ** 2) <= 1e-12 * rr:
            break
        for t in halvings:
            trial = s + t * ds, min(max(c + t * dc, 0.0), 1.0), max(q + t * dq, floor_sq)
            r_trial, line_trial = residual(*trial)
            rr_trial = float(r_trial @ r_trial)
            if rr_trial < rr:
                (s, c, q), r, line, rr = trial, r_trial, line_trial, rr_trial
                break
        else:
            raise FitConvergenceError("bandwidth fit did not converge: no step lowers the residual")
    else:
        raise FitConvergenceError("bandwidth fit did not converge within 100 Gauss-Newton steps")

    var_q = float((np.linalg.pinv(jac)[2] ** 2).sum()) * rr / (len(u) - 3)
    # delta_nu = span sqrt(q), so d(delta_nu) = span dq / (2 sqrt(q)); delta_t ~ 1 / delta_nu.
    delta_nu, delta_nu_err = span * math.sqrt(q), span * math.sqrt(var_q / q) / 2.0
    delta_t = SQRT_LN2 / (math.pi * delta_nu)
    return BandwidthFit(
        delta_t_ns=delta_t, delta_t_err_ns=delta_t * delta_nu_err / delta_nu,
        delta_nu_ghz=delta_nu, delta_nu_err_ghz=delta_nu_err,
        center_ghz=low + c * span, scale=s * peak, residuals=r * peak,
        resolution_limited=delta_nu <= nu_floor * 1.05 or delta_t >= 0.95 * dt_max,
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

    ``N`` is the row's physical line in the file, blank lines counted.  A
    row that ``parse`` rejects is skipped when ``skip_bad_rows`` and
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
        for row in reader:
            try:
                items.append(parse(row))
            except (TypeError, ValueError, ParameterError) as exc:
                if not skip_bad_rows:
                    raise ParameterError(f"{kind} CSV line {reader.line_num}: {exc}") from exc
                issues.append(f"line {reader.line_num}: {exc}")
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
