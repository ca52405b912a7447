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
from .formatting import write_csv
from .joint_amplitude import gated_jta_stack
from .schmidt import support
from .signal_model import (
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
)

# Half-width, in units of the relevant scale, beyond which Gaussian
# envelopes are treated as having no support (exp(-25) ~ 1e-11 in
# amplitude, 1e-22 in norm).
SUPPORT_HALF_WIDTH = 5.0

ENV_THREADS = "BIPHOTON_THREADS"

# Largest lattice, in points per axis, that a design point may ask for: a
# value matrix and its Gram matrix then take 2 * 8 * 4096^2 B = 268 MB.
# The gated acceptance rectangle needs at most 192 points; t_hat = 1e4 at
# gamma_hat = 0.01 would ask for 16160.
MAX_LATTICE_POINTS = 4096

# Byte budget of one stack of value matrices in a sweep batch.  Larger
# stacks buy no speed (4 MB runs as fast as 1 MB) and raise the peak
# memory of the pool; one matrix per batch gives the batching gain back.
BATCH_BYTES = 1 << 20


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


def _lattice(point: DesignPoint, include_gates: bool = True) -> TimeGrid:
    """Shared idler/signal lattice of a design point, bounded before allocation.

    With gates the amplitude lives on the gate block; outside
    min(T/2, local support) it is zero or below double precision, so
    cropping to it drops only zero rows and columns.  Without gates the
    lattice spans the whole train.  Raises :class:`ParameterError` when
    the step 1/points_per_sigma does not resolve the filter response
    exp(-(gamma_hat t)^2), that is for gamma_hat > points_per_sigma / 2,
    and, with the size estimate, when the lattice exceeds
    ``MAX_LATTICE_POINTS``.
    """
    if point.gamma_hat > 0.5 * point.points_per_sigma:
        raise ParameterError(
            f"gamma_hat = {point.gamma_hat:g} exceeds points_per_sigma / 2 = "
            f"{0.5 * point.points_per_sigma:g}, above which the lattice does not resolve the filter"
        )
    local = _local_half_width(point.gamma_hat)
    if include_gates:
        half_width = min(0.5 * point.t_hat, local)
    else:
        half_width = point.n_side_pulses * point.t_hat + local
    grid = _midpoint_grid(half_width, 1.0 / point.points_per_sigma)
    if grid.n_points > MAX_LATTICE_POINTS:
        gigabytes = 2 * 8 * float(grid.n_points) ** 2 / 1e9
        raise ParameterError(
            f"lattice of {grid.n_points} x {grid.n_points} points ({gigabytes:.3g} GB for "
            f"the amplitude and its Gram matrix) exceeds the cap of {MAX_LATTICE_POINTS} "
            "points per axis"
        )
    return grid


def _schmidt_weights(values: np.ndarray, step: float) -> np.ndarray:
    """Descending Schmidt weights of each matrix in a stack ``(k, n_i, n_s)``.

    The weights are the eigenvalues of J^H J, the squared singular values
    of J, clipped at zero (the Gram matrix puts round-off of order
    eps * lambda_1 on the vanishing ones) and scaled by the cell area
    ``step**2``.  J^H J is formed on the `support` block of the stack, and
    each row of weights is padded with zeros to ``n_s`` entries.
    """
    rows, cols = support(values)
    block = values[:, rows, cols]
    gram = block.conj().swapaxes(-1, -2) @ block
    try:
        eigenvalues = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue decomposition failed: {exc}") from exc
    weights = np.zeros((values.shape[0], values.shape[2]))
    weights[:, : gram.shape[-1]] = np.clip(eigenvalues[..., ::-1], 0.0, None) * (step * step)
    return weights


def _evaluate_batch(
    points: list[DesignPoint], include_gates: bool = True
) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """Lattice, value stack and Schmidt weights of points that share a lattice.

    The points must differ in ``gamma_hat`` only and have lattices of one
    size, which makes them one lattice: the grid is fixed by its size and
    step.  Raises :class:`ParameterError` when any amplitude vanishes.
    """
    first = points[0]
    grid = _lattice(first, include_gates)
    train = PulseTrainSpec(sigma_p=1.0, period=first.t_hat, n_side_pulses=first.n_side_pulses)
    gates = TimeGateSpec(width=first.t_hat, center=0.0) if include_gates else None
    gammas = np.array([p.gamma_hat for p in points])
    values = gated_jta_stack(train, gammas, gates, grid, grid)
    weights = _schmidt_weights(values, grid.step)
    if (weights.sum(axis=1) <= 0).any():
        raise ParameterError("joint amplitude vanished at this design point")
    return grid, values, weights


def _single_pulse_norm(gamma_hat):
    """Norm of the single-pulse ungated state, ``gamma_hat`` a float or an array.

    The integral of exp(-2 gamma^2 (t_i - t_s)^2) exp(-2 t_s^2) over the plane.
    """
    return math.pi / (2.0 * gamma_hat)


def evaluate_design(
    point: DesignPoint,
    include_gates: bool = True,
    kernel: str = "gated",
) -> DesignReport:
    """Evaluate the read-in efficiency and mode structure at one design point.

    The Schmidt weights are the eigenvalues of J^T J (``eigvalsh``) for
    the value matrix J on the point's lattice, which is bounded by
    ``MAX_LATTICE_POINTS`` before anything is allocated.

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

    grid, values, weights = _evaluate_batch([point], include_gates)
    weights = weights[0]
    total = float(weights.sum())
    lambda_sq = weights / total
    purity = float((lambda_sq**2).sum())

    reference = _single_pulse_norm(point.gamma_hat)
    if kernel == "gated":
        numerator = float(weights[0])
    else:
        numerator = _ungated_kernel_overlap(values[0], grid, point.gamma_hat)

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


def _ungated_kernel_overlap(values: np.ndarray, grid: TimeGrid, gamma_hat: float) -> float:
    """Overlap <K| rho_s |K> with K the single-pulse ungated fundamental mode.

    The single-pulse state is a bivariate Gaussian, so its Schmidt modes
    are Hermite-Gaussians (Mehler kernel; Law, Walmsley & Eberly, PRL 84,
    5304 (2000)) and the signal fundamental is
    K(t) = (2 alpha / pi)^(1/4) exp(-alpha t^2) with alpha = sqrt(1 + gamma_hat^2).
    """
    alpha = math.sqrt(1.0 + gamma_hat**2)
    kernel = (2.0 * alpha / math.pi) ** 0.25 * np.exp(-alpha * grid.points**2)
    projected = values @ kernel * grid.step
    return float((np.abs(projected) ** 2).sum() * grid.step)


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
        Thread count of the pool that evaluates the batches.  ``None``
        defers to the ``BIPHOTON_THREADS`` environment variable, where 0
        (or an unset variable) means one thread per CPU.  The batches do
        not depend on the worker count and results are assembled by cell
        index, so the map is the same bit for bit on any pool.

    The cells of one row whose lattices have one size share one lattice.
    They are evaluated in batches of at most ``BATCH_BYTES`` of value
    matrices: one stacked Gram matrix J^T J and one batched ``eigvalsh``
    per batch, so that a pool job does enough work in LAPACK to run
    beside the others.  On the 32x64 acceptance sweep (2 CPUs,
    ``OPENBLAS_NUM_THREADS=1``, medians of ten benchmark runs) this takes
    the pool of two from 4.1 s to 1.2 s, and the serial sweep
    (``workers=1``) from 3.1 s to 2.1 s.

    Cell evaluations that fail numerically are recorded with their
    coordinates in ``failures`` and leave a NaN cell instead of
    aborting the sweep: a batch that raises is evaluated again cell by
    cell through `read_in_efficiency`, and a cell whose lattice exceeds
    ``MAX_LATTICE_POINTS`` fails before anything is allocated.
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
    errors: dict[tuple[int, int], str] = {}

    # Batch jobs: the cells of one row whose lattices have one size, in
    # stacks of at most BATCH_BYTES of value matrices.
    jobs: list[tuple[int, list[int], list[DesignPoint]]] = []
    for row, t_hat in enumerate(t_values):
        points = [
            DesignPoint(float(t_hat), float(gamma), n_side_pulses, points_per_sigma)
            for gamma in gamma_values
        ]
        groups: dict[int, list[int]] = {}
        for col, point in enumerate(points):
            try:
                groups.setdefault(_lattice(point).n_points, []).append(col)
            except ParameterError as exc:
                errors[row, col] = str(exc)
        for size, cols in groups.items():
            per_stack = max(1, BATCH_BYTES // (8 * size * size))
            for start in range(0, len(cols), per_stack):
                stack = cols[start : start + per_stack]
                jobs.append((row, stack, [points[col] for col in stack]))

    def cell(point: DesignPoint) -> tuple[float, str | None]:
        try:
            return read_in_efficiency(point), None
        except (ParameterError, DecompositionError, GridMismatchError) as exc:
            return math.nan, str(exc)

    def run(points: list[DesignPoint]) -> list[tuple[float, str | None]]:
        try:
            _, _, weights = _evaluate_batch(points)
        except (ParameterError, DecompositionError, GridMismatchError):
            # Only the failing cell is lost, with its own message.
            return [cell(point) for point in points]
        gammas = np.array([point.gamma_hat for point in points])
        return [(float(value), None) for value in weights[:, 0] / _single_pulse_norm(gammas)]

    batches = [points for _, _, points in jobs]
    count = _worker_count(workers)
    if count > 1:
        with ThreadPoolExecutor(max_workers=count) as pool:
            results = list(pool.map(run, batches))
    else:
        results = [run(points) for points in batches]

    for (row, cols, _), batch in zip(jobs, results):
        for col, (value, error) in zip(cols, batch):
            eta[row, col] = value
            if error is not None:
                errors[row, col] = error
    failures = [
        (float(t_values[row]), float(gamma_values[col]), errors[row, col])
        for row, col in sorted(errors)
    ]

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
    t_hat, gamma_hat = np.meshgrid(emap.t_values, emap.gamma_values, indexing="ij")
    rows = np.column_stack([t_hat.ravel(), gamma_hat.ravel(), emap.eta_in.ravel()])
    write_csv(path, ["t_hat", "gamma_hat", "eta_in"], rows)


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
