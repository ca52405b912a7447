"""Seeded input generators for the benchmark workloads.

Everything here uses only the standard library (``random.Random``), so
the same seed gives the same inputs whatever numpy version is installed.
The program under test only ever sees what these functions write or
return: design points, count CSVs and detuning-sweep CSVs.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

SQRT_LN2 = math.sqrt(math.log(2.0))
SQRT_2LN2 = math.sqrt(2.0 * math.log(2.0))

COUNT_COLUMNS = (
    "pump_power_mW",
    "c_T",
    "c_H",
    "c_V",
    "c_H_given_T",
    "c_V_given_T",
    "c_HV_given_T",
    "acc_s_given_T",
    "integration_time_s",
)
# Columns read_counts_csv treats as optional.
OPTIONAL_COUNT_COLUMNS = ("c_HV_given_T", "acc_s_given_T")

# Relative multiplicative noise of generated detuning sweeps, the level of
# acceptance criterion 6.
SWEEP_NOISE = 0.02
# Sweeps cover 2.5-3 line FWHMs, and the photon bandwidth is 1.5-3 filter
# FWHMs.  There 2% noise moves the fitted bandwidth by under 0.8% (one
# sigma, 21 points), so the 5% recovery check of criterion 6 holds with a
# margin of more than six sigma.  With photon and filter widths equal, or a
# sweep reaching far into the noisy line wings, one fit in about 20,000
# misses 5%.
SPAN_LOW, SPAN_HIGH = 2.5, 3.0
RATIO_LOW, RATIO_HIGH = 1.5, 3.0


def rng_for(seed: int, *stream: object) -> random.Random:
    """Independent generator for one named input stream of one seed."""
    return random.Random(repr((seed,) + stream))


GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def strata(rng: random.Random, low: float, high: float, count: int, pass_index: int) -> list[float]:
    """One value inside each of ``count`` equal strata of [low, high], in stratum order.

    Within stratum k the position is frac(offset_k + pass_index * golden
    ratio), with seeded offsets: every pass gets new values, and over the
    passes of a run each stratum fills evenly.  That keeps the cost mix of
    a run, and so its percentiles, nearly the same from seed to seed.
    """
    width = (high - low) / count
    offsets = [rng.random() for _ in range(count)]
    return [low + (k + (offsets[k] + pass_index * GOLDEN) % 1.0) * width for k in range(count)]


# --------------------------------------------------------------------------
# Design points (mode_analysis)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ModePoint:
    """One mode_analysis operation: a design point plus a single-pulse source.

    ``pump_fwhm_ghz`` and ``filter_fwhm_ghz`` describe the single-pulse
    source whose JTA is decomposed; ``single_gamma_hat`` is its
    dimensionless filter ratio, which fixes the closed-form purity.
    """

    t_hat: float
    gamma_hat: float
    pump_fwhm_ghz: float
    filter_fwhm_ghz: float
    single_gamma_hat: float


def mode_points(seed: int, pass_index: int, count: int) -> list[ModePoint]:
    """Fresh design points for one pass of mode_analysis.

    t_hat in [2, 12], gamma_hat in [0.2, 3]; the single-pulse source has a
    pump FWHM in [0.8, 2] GHz and a filter chosen so that its gamma_hat
    lies in [0.3, 3], the range acceptance criterion 3 covers.  Low
    gamma_hat means a large lattice, so the design gamma_hat strata are
    paired with the single-pulse strata in reverse order: each point gets
    one expensive part at most.
    """
    rng = rng_for(seed, "mode")
    t_values = strata(rng, 2.0, 12.0, count, pass_index)
    gamma_values = strata(rng, 0.2, 3.0, count, pass_index)
    single_values = strata(rng, 0.3, 3.0, count, pass_index)[::-1]
    order = rng_for(seed, "mode", pass_index)
    order.shuffle(t_values)
    points = []
    for t_hat, gamma_hat, single in zip(t_values, gamma_values, single_values):
        pump = order.uniform(0.8, 2.0)
        sigma_p = SQRT_2LN2 / (math.pi * pump)
        gamma = single / sigma_p
        filter_fwhm = 2.0 * SQRT_LN2 * gamma / math.pi
        points.append(ModePoint(t_hat, gamma_hat, pump, filter_fwhm, single))
    order.shuffle(points)
    return points


# --------------------------------------------------------------------------
# Count records (lab_reduction, cli_session)
# --------------------------------------------------------------------------

# Kinds of malformed rows; read_counts_csv must skip each one.
MALFORMED_KINDS = (
    "text",  # a rate that is not a number
    "blank",  # a required cell left empty
    "negative",  # a negative rate
    "triples",  # triple coincidences above a conditioned singles rate
    "tau",  # zero integration time
    "short",  # a truncated row
)


def _count_row(rng: random.Random) -> dict[str, float]:
    power = rng.uniform(1.0, 50.0)
    tau = rng.choice((1.0, 2.0, 5.0))
    c_t = (800.0 * power + 50.0) * rng.gauss(1.0, 0.01)
    c_h = (4000.0 * power + 300.0) * rng.gauss(1.0, 0.01)
    c_v = (3900.0 * power + 280.0) * rng.gauss(1.0, 0.01)
    c_h_t = c_t * 0.07 * rng.gauss(1.0, 0.02)
    c_v_t = c_t * 0.065 * rng.gauss(1.0, 0.02)
    c_hv_t = min(c_h_t, c_v_t) * 0.01 * rng.uniform(0.5, 1.5)
    acc = (c_h_t + c_v_t) * 0.02 * rng.uniform(0.5, 1.5)
    return {
        "pump_power_mW": power,
        "c_T": c_t,
        "c_H": c_h,
        "c_V": c_v,
        "c_H_given_T": c_h_t,
        "c_V_given_T": c_v_t,
        "c_HV_given_T": c_hv_t,
        "acc_s_given_T": acc,
        "integration_time_s": tau,
    }


def _malformed(cells: list[str], columns: tuple[str, ...], kind: str) -> list[str]:
    index = {name: k for k, name in enumerate(columns)}
    cells = list(cells)
    if kind == "text":
        cells[index["c_T"]] = "n/a"
    elif kind == "blank":
        cells[index["c_H_given_T"]] = ""
    elif kind == "negative":
        cells[index["c_V"]] = "-12.5"
    elif kind == "triples" and "c_HV_given_T" in index:
        cells[index["c_HV_given_T"]] = repr(10.0 * float(cells[index["c_H_given_T"]]))
    elif kind == "tau":
        cells[index["integration_time_s"]] = "0"
    else:
        cells = cells[:3]
    return cells


def write_counts_csv(
    path: str,
    seed: int,
    name: str,
    rows: int,
    malformed: int,
    optional_columns: bool = True,
) -> int:
    """Write a seeded count CSV; return the number of malformed rows in it.

    ``rows`` counts every data row, ``malformed`` of them spread at seeded
    positions.  Without ``optional_columns`` the file lacks the triple and
    accidental columns, which read_counts_csv then defaults to zero.
    """
    rng = rng_for(seed, "counts", name)
    columns = tuple(
        col for col in COUNT_COLUMNS if optional_columns or col not in OPTIONAL_COUNT_COLUMNS
    )
    bad_rows = set(rng.sample(range(rows), malformed))
    kinds = [kind for kind in MALFORMED_KINDS if optional_columns or kind != "triples"]
    lines = [",".join(columns)]
    for k in range(rows):
        values = _count_row(rng)
        cells = [repr(values[col]) for col in columns]
        if k in bad_rows:
            cells = _malformed(cells, columns, kinds[k % len(kinds)])
        lines.append(",".join(cells))
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")
    return len(bad_rows)


# --------------------------------------------------------------------------
# Detuning sweeps (lab_reduction, cli_session)
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class SweepCase:
    """A noisy filter-detuning sweep with its generating parameters."""

    filter_fwhm_ghz: float
    photon_fwhm_ghz: float
    center_ghz: float
    transmission: str
    detunings: tuple[float, ...]
    rates: tuple[float, ...]


def sweep_case(
    rng: random.Random,
    transmission: str,
    points: int | None = None,
    filter_fwhm: float | None = None,
    ratio: float | None = None,
    span: float | None = None,
) -> SweepCase:
    """Draw one noisy sweep: the photon line seen through the scanning filter.

    The photon intensity line (FWHM ``ratio`` times the filter FWHM)
    convolved with the filter's intensity or amplitude line is a Gaussian
    whose FWHM adds in quadrature; the sweep covers ``span`` times that
    FWHM, and samples carry 2% multiplicative noise.  Parameters left None
    are drawn from ``rng``.
    """
    filter_fwhm = rng.uniform(0.8, 2.0) if filter_fwhm is None else filter_fwhm
    ratio = rng.uniform(RATIO_LOW, RATIO_HIGH) if ratio is None else ratio
    photon_fwhm = filter_fwhm * ratio
    points = rng.randint(21, 81) if points is None else points
    kernel_fwhm = filter_fwhm / math.sqrt(2.0) if transmission == "intensity" else filter_fwhm
    total_fwhm = math.hypot(kernel_fwhm, photon_fwhm)
    center = rng.uniform(-0.3, 0.3) * filter_fwhm
    span = rng.uniform(SPAN_LOW, SPAN_HIGH) if span is None else span
    half_span = 0.5 * span * total_fwhm
    scale = rng.uniform(0.5, 2.0)
    detunings = [-half_span + 2.0 * half_span * k / (points - 1) for k in range(points)]
    rates = [
        scale
        * math.exp(-4.0 * math.log(2.0) * ((x - center) / total_fwhm) ** 2)
        * rng.gauss(1.0, SWEEP_NOISE)
        for x in detunings
    ]
    return SweepCase(filter_fwhm, photon_fwhm, center, transmission, tuple(detunings), tuple(rates))


# Additive recurrence of the plastic number (the R2 sequence): consecutive
# terms cover the unit square evenly, and so does any run of them.
PLASTIC = 1.324717957244746
R2_STEP = (1.0 / PLASTIC, 1.0 / PLASTIC**2)


def lab_sweep_cases(seed: int, session: int, count: int) -> list[SweepCase]:
    """The ``count`` sweeps of one lab_reduction session, transmissions alternating.

    A fit's cost rises with the photon/filter ratio and the sweep span, and
    the slowest fits (intensity convention) have both near their upper
    ends.  So (ratio, span) follow the R2 sequence over the run's fits of
    each transmission, from seeded offsets: every run, and every stretch of
    consecutive sessions in it, meets the slow corner equally often, and
    the fit-time tail does not depend on how many slow cases a seed drew.
    The other parameters and the noise are drawn from (seed, session).
    """
    start = rng_for(seed, "lab-r2")
    offsets = {t: (start.random(), start.random()) for t in ("intensity", "amplitude")}
    rng = rng_for(seed, "lab", session)
    cases = []
    for k in range(count):
        transmission = ("intensity", "amplitude")[k % 2]
        n = session * ((count + 1) // 2) + k // 2
        u, v = ((offsets[transmission][d] + n * R2_STEP[d]) % 1.0 for d in (0, 1))
        cases.append(sweep_case(
            rng, transmission,
            ratio=RATIO_LOW + u * (RATIO_HIGH - RATIO_LOW),
            span=SPAN_LOW + v * (SPAN_HIGH - SPAN_LOW),
        ))
    return cases


def write_sweep_case(case: SweepCase, path: str) -> None:
    """Write a sweep in the layout read_sweep_csv reads."""
    lines = ["detuning_GHz,normalized_coincidences"]
    lines += [f"{x!r},{y!r}" for x, y in zip(case.detunings, case.rates)]
    with open(path, "w", newline="") as handle:
        handle.write("\n".join(lines) + "\n")


def spectrum_pairs(rng: random.Random, count: int) -> list[tuple[float, float, float]]:
    """Seeded (pump FWHM, filter amplitude FWHM, filter centre) triples in GHz."""
    return [
        (rng.uniform(0.8, 2.5), rng.uniform(0.8, 2.5), rng.uniform(-1.0, 1.0))
        for _ in range(count)
    ]
