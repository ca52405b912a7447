"""Memory read-in efficiency of the gated heralded photon and design sweeps.

Everything here works in dimensionless units: times in units of the pump
width sigma_p, so a design point is fixed by the gate/period ratio
``t_hat = T / sigma_p`` and the filter ratio ``gamma_hat = gamma * sigma_p``.

The read-in efficiency is the weight of the fundamental temporal mode in
the gated biphoton state, referred to the norm of the single-pulse,
ungated, filtered state:

    eta_in = lambda_1^2(gated) / N,     N = ||f_single-pulse, ungated||^2 = pi / (2 gamma_hat)

so it folds together the gating loss and the modal purity of what
survives the gate.  A memory whose acceptance mode matches the
fundamental mode absorbs exactly this fraction of heralded photons.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import DecompositionError, GridMismatchError, ParameterError
from .formatting import fmt
from .joint_amplitude import JointAmplitude, assemble_gated_jta
from .signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
)

# Half-width, in units of the relevant scale, beyond which Gaussian
# envelopes are treated as having no support (exp(-25) ~ 1e-11 in
# amplitude, 1e-22 in norm).
SUPPORT_HALF_WIDTH = 5.0

ENV_THREADS = "BIPHOTON_THREADS"


@dataclass(frozen=True)
class DesignPoint:
    """One dimensionless source/memory operating point.

    ``n_side_pulses`` truncates the pump train to pulse indices
    [-M, M]; ``points_per_sigma`` sets the sampling density of all
    lattices (at least 16, the resolution floor of the discretisation).
    """

    t_hat: float
    gamma_hat: float
    n_side_pulses: int = 3
    points_per_sigma: int = 16

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_hat) and self.t_hat > 0):
            raise ParameterError("t_hat must be positive and finite")
        if not (math.isfinite(self.gamma_hat) and self.gamma_hat > 0):
            raise ParameterError("gamma_hat must be positive and finite")
        if self.n_side_pulses < 0:
            raise ParameterError("n_side_pulses must be non-negative")
        if self.points_per_sigma < 16:
            raise ParameterError("points_per_sigma below the resolution floor of 16")


@dataclass(frozen=True)
class DesignReport:
    """Full numerical characterisation of one design point."""

    point: DesignPoint
    eta_in: float
    purity: float
    schmidt_number: float
    gating_loss: float
    top_mode_weight: float
    lambda_sq_head: tuple[float, ...]
    norm_gated: float
    norm_reference: float
    include_gates: bool
    kernel: str


def _midpoint_grid(half_width: float, step: float) -> TimeGrid:
    """Symmetric lattice with nodes at +/-(j + 1/2) step.

    Midpoint placement keeps gate edges exactly between nodes, which
    restores second-order convergence of gated quadratures; an edge node
    at full weight would bias the effective gate width by half a step.
    """
    count = max(1, math.ceil(half_width / step - 0.5))
    edge = (count - 0.5) * step
    return TimeGrid(2 * count, -edge, edge)


def _local_half_width(gamma_hat: float) -> float:
    """Support half-width of the single-pulse filtered amplitude."""
    return SUPPORT_HALF_WIDTH * (1.0 + 1.0 / gamma_hat)


def evaluate_design(
    point: DesignPoint,
    include_gates: bool = True,
    kernel: str = "gated",
) -> DesignReport:
    """Evaluate the read-in efficiency and mode structure at one design point.

    Parameters
    ----------
    point:
        Dimensionless operating point.
    include_gates:
        With gates (the default) both photons are restricted to the
        central time bin of width ``t_hat``.  Without gates the full
        train amplitude is kept (diagnostic mode).
    kernel:
        ``"gated"`` projects on the fundamental mode of the gated state
        itself; ``"ungated"`` projects on the fundamental mode of the
        single-pulse ungated state, quantifying how much a memory tuned
        to the intrinsic source mode loses on the gated photon.
    """
    if kernel not in ("gated", "ungated"):
        raise ParameterError(f"unknown kernel {kernel!r}")

    period = point.t_hat
    gamma = point.gamma_hat
    step = 1.0 / point.points_per_sigma
    train = PulseTrainSpec(sigma_p=1.0, period=period, n_side_pulses=point.n_side_pulses)
    filt = GaussianFilterSpec(gamma=gamma)
    local = _local_half_width(gamma)

    if include_gates:
        # The gated amplitude lives on the gate block; outside
        # min(T/2, local support) it is zero or below double precision,
        # so the SVD of the cropped block is exact for all practical
        # purposes (dropped rows/columns are zero rows/columns).
        grid = _midpoint_grid(min(0.5 * period, local), step)
        gates = TimeGateSpec(width=period, center=0.0)
        jta = assemble_gated_jta(train, filt, gates, grid, grid)
    else:
        grid = _midpoint_grid(point.n_side_pulses * period + local, step)
        jta = assemble_gated_jta(train, filt, None, grid, grid)

    values = np.asarray(jta.values)
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real
    try:
        singulars = np.linalg.svd(values, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value decomposition failed: {exc}") from exc

    weights = singulars**2 * (grid.step * grid.step)
    total = float(weights.sum())
    if total <= 0:
        raise ParameterError("joint amplitude vanished at this design point")
    lambda_sq = weights / total
    purity = float((lambda_sq**2).sum())

    # Integral of exp(-2 gamma^2 (t_i - t_s)^2) exp(-2 t_s^2) over the plane.
    reference = math.pi / (2.0 * gamma)
    if kernel == "gated":
        numerator = float(weights[0])
    else:
        numerator = _ungated_kernel_overlap(jta, gamma)

    return DesignReport(
        point=point,
        eta_in=numerator / reference,
        purity=purity,
        schmidt_number=1.0 / purity,
        gating_loss=total / reference,
        top_mode_weight=float(lambda_sq[0]),
        lambda_sq_head=tuple(float(w) for w in lambda_sq[:8]),
        norm_gated=total,
        norm_reference=reference,
        include_gates=include_gates,
        kernel=kernel,
    )


def _ungated_kernel_overlap(jta: JointAmplitude, gamma_hat: float) -> float:
    """Overlap <K| rho_s |K> with K the single-pulse ungated fundamental mode.

    The single-pulse state is a bivariate Gaussian, so its Schmidt modes
    are Hermite-Gaussians (Mehler kernel; Law, Walmsley & Eberly, PRL 84,
    5304 (2000)) and the signal fundamental is
    K(t) = (2 alpha / pi)^(1/4) exp(-alpha t^2) with alpha = sqrt(1 + gamma_hat^2).
    """
    alpha = math.sqrt(1.0 + gamma_hat**2)
    kernel = (2.0 * alpha / math.pi) ** 0.25 * np.exp(-alpha * jta.axis_s.points**2)
    projected = np.asarray(jta.values) @ kernel * jta.axis_s.step
    return float((np.abs(projected) ** 2).sum() * jta.axis_i.step)


def read_in_efficiency(
    point: DesignPoint,
    include_gates: bool = True,
    kernel: str = "gated",
) -> float:
    """Read-in efficiency eta_in at one design point.  See `evaluate_design`."""
    return evaluate_design(point, include_gates=include_gates, kernel=kernel).eta_in


@dataclass(frozen=True)
class EfficiencyMap:
    """Read-in efficiency over a (t_hat, gamma_hat) design grid.

    ``eta_in[i, j]`` belongs to ``t_values[i]`` and ``gamma_values[j]``;
    failed cells hold NaN and their coordinates appear in ``failures``.
    ``gamma_opt``/``eta_opt`` hold the per-row optimum, refined by a
    parabolic fit through the best grid cell and its neighbours.
    """

    t_values: np.ndarray
    gamma_values: np.ndarray
    eta_in: np.ndarray
    gamma_opt: np.ndarray
    eta_opt: np.ndarray
    failures: tuple[tuple[float, float, str], ...] = ()
    controls: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.eta_in.shape != (self.t_values.size, self.gamma_values.size):
            raise GridMismatchError("efficiency matrix does not match axis lengths")
        finite = self.eta_in[np.isfinite(self.eta_in)]
        if finite.size and (finite.min() < -1e-6 or finite.max() > 1.0 + 1e-6):
            raise ParameterError("efficiencies must lie in [0, 1] within tolerance")

    def row_optimum_consistent(self) -> bool:
        """Re-scan check: each refined optimum is at least the row's best cell."""
        for row, eta_row in enumerate(self.eta_in):
            finite = np.isfinite(eta_row)
            if not finite.any():
                continue
            if self.eta_opt[row] < np.nanmax(eta_row) - 1e-12:
                return False
        return True


def _refine_row_maximum(gammas: np.ndarray, etas: np.ndarray) -> tuple[float, float]:
    """Best gamma of one sweep row, parabola-refined around the best cell."""
    finite = np.isfinite(etas)
    if not finite.any():
        return math.nan, math.nan
    best = int(np.nanargmax(etas))
    if not (0 < best < etas.size - 1 and finite[best - 1] and finite[best + 1]):
        return float(gammas[best]), float(etas[best])
    y0, y1, y2 = etas[best - 1], etas[best], etas[best + 1]
    curvature = y0 - 2.0 * y1 + y2
    if curvature >= 0:
        return float(gammas[best]), float(etas[best])
    shift = 0.5 * (y0 - y2) / curvature
    shift = min(max(shift, -1.0), 1.0)
    step = gammas[best] - gammas[best - 1]
    gamma_best = float(gammas[best] + shift * step)
    eta_best = float(y1 + 0.5 * (y2 - y0) * shift + 0.5 * curvature * shift**2)
    # The vertex estimate can overshoot on coarse rows; pin it between the
    # best sampled cell and the physical ceiling.
    eta_best = min(eta_best, max(1.0, float(y1)))
    return gamma_best, max(eta_best, float(y1))


def _worker_count(requested: int | None) -> int:
    """Resolve the sweep worker count; the environment caps it when unset."""
    if requested is None:
        raw = os.environ.get(ENV_THREADS, "").strip()
        if raw:
            try:
                requested = int(raw)
            except ValueError as exc:
                raise ParameterError(f"{ENV_THREADS} must be an integer, got {raw!r}") from exc
        else:
            requested = 0
    if requested < 0:
        raise ParameterError("worker count must be non-negative")
    if requested == 0:
        return max(1, os.cpu_count() or 1)
    return requested


def sweep_design_space(
    t_range: tuple[float, float],
    gamma_range: tuple[float, float],
    resolution: tuple[int, int],
    n_side_pulses: int = 3,
    points_per_sigma: int = 16,
    workers: int | None = None,
) -> EfficiencyMap:
    """Map the read-in efficiency over a rectangle of design points.

    Parameters
    ----------
    t_range, gamma_range:
        Inclusive (min, max) bounds of ``t_hat`` and ``gamma_hat``.
    resolution:
        Number of grid values per axis (t axis, gamma axis).
    workers:
        Thread count for cell evaluation.  ``None`` defers to the
        ``BIPHOTON_THREADS`` environment variable, where 0 (or an unset
        variable) means one thread per CPU.  Results are assembled by
        cell index, so the outcome does not depend on the worker count.

    Cell evaluations that fail numerically are recorded with their
    coordinates in ``failures`` and leave a NaN cell instead of
    aborting the sweep.
    """
    n_t, n_gamma = resolution
    if n_t < 1 or n_gamma < 1:
        raise ParameterError("resolution must be at least 1 cell per axis")
    for name, (low, high) in (("t_range", t_range), ("gamma_range", gamma_range)):
        if not (math.isfinite(low) and math.isfinite(high) and 0 < low <= high):
            raise ParameterError(f"{name} must satisfy 0 < min <= max")

    t_values = np.linspace(t_range[0], t_range[1], n_t)
    gamma_values = np.linspace(gamma_range[0], gamma_range[1], n_gamma)

    eta = np.full((n_t, n_gamma), math.nan)
    failures: list[tuple[float, float, str]] = []

    def cell(index: tuple[int, int]) -> tuple[int, int, float, str | None]:
        row, col = index
        point = DesignPoint(
            t_hat=float(t_values[row]),
            gamma_hat=float(gamma_values[col]),
            n_side_pulses=n_side_pulses,
            points_per_sigma=points_per_sigma,
        )
        try:
            return row, col, read_in_efficiency(point), None
        except (ParameterError, DecompositionError, GridMismatchError) as exc:
            return row, col, math.nan, str(exc)

    jobs = [(row, col) for row in range(n_t) for col in range(n_gamma)]
    count = _worker_count(workers)
    if count > 1:
        with ThreadPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(cell, jobs))
    else:
        results = [cell(job) for job in jobs]

    for row, col, value, error in results:
        eta[row, col] = value
        if error is not None:
            failures.append((float(t_values[row]), float(gamma_values[col]), error))

    gamma_opt = np.empty(n_t)
    eta_opt = np.empty(n_t)
    for row in range(n_t):
        gamma_opt[row], eta_opt[row] = _refine_row_maximum(gamma_values, eta[row])

    return EfficiencyMap(
        t_values=t_values,
        gamma_values=gamma_values,
        eta_in=eta,
        gamma_opt=gamma_opt,
        eta_opt=eta_opt,
        failures=tuple(failures),
        controls={
            "n_side_pulses": n_side_pulses,
            "points_per_sigma": points_per_sigma,
        },
    )


def total_memory_efficiency(eta_in: float, eta_ret: float) -> float:
    """Combined write/read efficiency of the memory interface."""
    for name, value in (("eta_in", eta_in), ("eta_ret", eta_ret)):
        if not (0.0 <= value <= 1.0 + 1e-6):
            raise ParameterError(f"{name} must lie in [0, 1], got {value!r}")
    return eta_in * eta_ret


def write_efficiency_map_csv(emap: EfficiencyMap, path: str) -> None:
    """Write the sweep as CSV rows (t_hat, gamma_hat, eta_in) in row-major order."""
    with open(path, "w", newline="") as handle:
        handle.write("t_hat,gamma_hat,eta_in\n")
        for row, t_hat in enumerate(emap.t_values):
            for col, gamma_hat in enumerate(emap.gamma_values):
                handle.write(f"{fmt(t_hat)},{fmt(gamma_hat)},{fmt(emap.eta_in[row, col])}\n")


def efficiency_map_summary(emap: EfficiencyMap) -> dict:
    """JSON-friendly sweep summary: per-row optima and failures."""
    return {
        "t_hat": [float(v) for v in emap.t_values],
        "gamma_opt": [float(v) for v in emap.gamma_opt],
        "eta_opt": [float(v) for v in emap.eta_opt],
        "gamma_range": [float(emap.gamma_values[0]), float(emap.gamma_values[-1])],
        "n_gamma": int(emap.gamma_values.size),
        "failures": [
            {"t_hat": t, "gamma_hat": g, "error": msg} for t, g, msg in emap.failures
        ],
        "controls": dict(emap.controls),
    }
