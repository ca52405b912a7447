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

from .errors import BiphotonError, DecompositionError, GridMismatchError, ParameterError
from .formatting import write_csv
from .joint_amplitude import jta_stack
from .schmidt import support
from .signal_model import RESOLUTION_POINTS_PER_SIGMA, PulseTrainSpec, TimeGrid

# Half-width, in units of the relevant scale, beyond which Gaussian
# envelopes are treated as having no support (exp(-25) ~ 1e-11 in
# amplitude, 1e-22 in norm).
SUPPORT_HALF_WIDTH = 5.0

ENV_THREADS = "BIPHOTON_THREADS"

# Largest lattice, in points per axis, that a design point may ask for: the
# upper half of a value matrix, its two folded blocks and their Gram
# matrices then take 3 * 4 * 4096^2 B = 201 MB.
# The gated acceptance rectangle needs at most 192 points; t_hat = 1e4 at
# gamma_hat = 0.01 would ask for 16160.
MAX_LATTICE_POINTS = 4096

# Byte budget of one stack of folded value matrices in a sweep batch.  Larger
# stacks buy no speed (4 MB runs as fast as 1 MB) and raise the peak
# memory of the pool; one matrix per batch gives the batching gain back.
BATCH_BYTES = 1 << 20


@dataclass(frozen=True)
class DesignPoint:
    """One dimensionless source/memory operating point.

    ``n_side_pulses`` truncates the pump train to pulse indices
    [-M, M]; ``points_per_sigma`` sets the sampling density of all
    lattices (at least ``RESOLUTION_POINTS_PER_SIGMA``, the resolution
    floor of the discretisation).
    """

    t_hat: float
    gamma_hat: float
    n_side_pulses: int = 3
    points_per_sigma: int = RESOLUTION_POINTS_PER_SIGMA

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_hat) and self.t_hat > 0):
            raise ParameterError("t_hat must be positive and finite")
        if not (math.isfinite(self.gamma_hat) and self.gamma_hat > 0):
            raise ParameterError("gamma_hat must be positive and finite")
        if self.n_side_pulses < 0:
            raise ParameterError("n_side_pulses must be non-negative")
        if self.points_per_sigma < RESOLUTION_POINTS_PER_SIGMA:
            raise ParameterError(f"points_per_sigma below the resolution floor of {RESOLUTION_POINTS_PER_SIGMA}")


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
    """Symmetric lattice with nodes at +/-(j + 1/2) step, at least one per side.

    Midpoint placement keeps gate edges exactly between nodes, which
    restores second-order convergence of gated quadratures; an edge node
    at full weight would bias the effective gate width by half a step.
    The node count is even, so the lattice folds into two mirrored halves
    (see `_schmidt_weights`).  A count above ``MAX_LATTICE_POINTS``, an
    infinite one included, raises :class:`ParameterError` before the
    grid is built.
    """
    count = max(1.0, float(np.ceil(half_width / step - 0.5)))
    n_points = 2 * count
    if not n_points <= MAX_LATTICE_POINTS:
        gigabytes = 3 * 4 * n_points * n_points / 1e9
        raise ParameterError(
            f"lattice of {n_points:.12g} x {n_points:.12g} points ({gigabytes:.3g} GB for "
            f"the folded amplitude and its Gram matrices) exceeds the cap of {MAX_LATTICE_POINTS} "
            "points per axis"
        )
    edge = (count - 0.5) * step
    return TimeGrid(int(n_points), -edge, edge)


def _local_half_width(gamma_hat: float) -> float:
    """Support half-width of the single-pulse filtered amplitude."""
    return SUPPORT_HALF_WIDTH * (1.0 + 1.0 / gamma_hat)


def _lattice(point: DesignPoint, include_gates: bool = True) -> TimeGrid:
    """Shared idler/signal lattice of a design point, bounded before allocation.

    With gates the lattice is the gate: outside min(T/2, local support)
    the gated amplitude is zero or below double precision, so the lattice
    spans that block and nothing else.  Its outermost node lies at
    (count - 1/2) h <= T/2 for the step h = 1/points_per_sigma, with
    equality only at T = h, so every node is inside the closed gate and
    no gate mask is needed.  A gate narrower than one step holds no node
    and is refused.  Without gates the lattice spans the whole train.

    Raises :class:`ParameterError` when the step does not resolve the
    filter response exp(-(gamma_hat t)^2), that is for gamma_hat >
    points_per_sigma / 2; with gates, when t_hat < h; and, from
    `_midpoint_grid`, when the lattice exceeds ``MAX_LATTICE_POINTS``.
    """
    if point.gamma_hat > 0.5 * point.points_per_sigma:
        raise ParameterError(
            f"gamma_hat = {point.gamma_hat:g} exceeds points_per_sigma / 2 = "
            f"{0.5 * point.points_per_sigma:g}, above which the lattice does not resolve the filter"
        )
    step = 1.0 / point.points_per_sigma
    local = _local_half_width(point.gamma_hat)
    if include_gates:
        if point.t_hat < step:
            raise ParameterError(
                f"t_hat = {point.t_hat:g} is below the lattice step 1/points_per_sigma = "
                f"{step:g}: the gate holds no node"
            )
        half_width = min(0.5 * point.t_hat, local)
    else:
        half_width = point.n_side_pulses * point.t_hat + local
    return _midpoint_grid(half_width, step)


def _schmidt_weights(values: np.ndarray, step: float) -> np.ndarray:
    """Descending Schmidt weights of each amplitude in a stack of upper halves.

    ``values`` is ``(k, h, n)``: the rows t_i < 0 of value matrices J on a
    symmetric lattice of n = 2h nodes.  The amplitude must be even under
    (t_i, t_s) -> (-t_i, -t_s), which holds for a symmetric pump train, a
    centred gate (or none) and a filter that depends on t_i - t_s.  Then J
    is orthogonally similar to diag(J+, J-) with J+- = A +- B R, where
    [A B] are the upper rows and R reverses the columns of B, so that
    J+-[i, j] = f(t_i, t_j) +- f(t_i, -t_j); the singular values of J are
    those of J+ and J- together (time-reversal parity of the Schmidt
    modes; Law, Walmsley & Eberly, PRL 84, 5304 (2000)).

    The weights are the eigenvalues of J+-^H J+-, clipped at zero (the
    Gram matrix puts round-off of order eps * lambda_1 on the vanishing
    ones) and scaled by the cell area ``step**2``.  The Gram matrices of
    the ``(2k, h, h)`` stack of J+ and J- are formed on its `support`
    block; each amplitude's two rows of weights are merged in descending
    order and padded with zeros to ``n`` entries.
    """
    count, half, size = values.shape
    upper = values[..., :half]
    mirrored = values[..., : half - 1 : -1]
    folded = np.empty((2, count, half, half))
    np.add(upper, mirrored, out=folded[0])
    np.subtract(upper, mirrored, out=folded[1])
    folded = folded.reshape(2 * count, half, half)
    rows, cols = support(folded)
    block = folded[:, rows, cols]
    gram = block.conj().swapaxes(-1, -2) @ block
    try:
        eigenvalues = np.linalg.eigvalsh(gram)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue decomposition failed: {exc}") from exc
    merged = np.sort(np.hstack(eigenvalues.reshape(2, count, -1)), axis=1)[:, ::-1]
    weights = np.zeros((count, size))
    weights[:, : merged.shape[1]] = np.clip(merged, 0.0, None) * (step * step)
    return weights


def _evaluate_batch(
    points: list[DesignPoint], include_gates: bool = True
) -> tuple[TimeGrid, np.ndarray, np.ndarray]:
    """Lattice, upper-half value stack and Schmidt weights of points that share a lattice.

    The points must differ in ``gamma_hat`` only and have lattices of one
    size, which makes them one lattice: the grid is fixed by its size and
    step.  Only the rows t_i < 0 of each value matrix are built, shape
    ``(k, n/2, n)``; the train is symmetric and the lattice symmetric
    with an even node count, as `_schmidt_weights` requires.  The gate
    is the lattice itself (see `_lattice`): every node of a gated
    lattice lies inside the closed gate, so the gated amplitude is the
    ungated kernel on its nodes and no mask is applied.  Raises
    :class:`ParameterError` when any amplitude vanishes.
    """
    first = points[0]
    grid = _lattice(first, include_gates)
    upper = np.linspace(grid.t_min, -grid.step / 2, grid.n_points // 2)
    train = PulseTrainSpec(sigma_p=1.0, period=first.t_hat, n_side_pulses=first.n_side_pulses)
    gammas = np.array([p.gamma_hat for p in points])
    values = jta_stack(train, gammas, upper, grid.points)
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

    The Schmidt weights are the eigenvalues (``eigvalsh``) of the Gram
    matrices of the even and odd halves J+ and J- of the value matrix J
    on the point's lattice (see `_schmidt_weights`); the lattice is
    bounded by ``MAX_LATTICE_POINTS`` before anything is allocated.

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
    ``values`` holds the rows t_i < 0 of the value matrix J on ``grid``;
    K is even and J is even under (t_i, t_s) -> (-t_i, -t_s), so the rows
    t_i > 0 of J K mirror them and ||J K||^2 is twice their share.
    """
    alpha = math.sqrt(1.0 + gamma_hat**2)
    kernel = (2.0 * alpha / math.pi) ** 0.25 * np.exp(-alpha * grid.points**2)
    projected = values @ kernel * grid.step
    return float(2.0 * (np.abs(projected) ** 2).sum() * grid.step)


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
    points_per_sigma: int = RESOLUTION_POINTS_PER_SIGMA,
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
    They are evaluated in batches of at most ``BATCH_BYTES`` of folded
    value matrices J+ and J-: one stacked Gram product and one batched
    ``eigvalsh`` per batch, so that a pool job does enough work in
    LAPACK to run beside the others.  On the 32x64 acceptance sweep
    (2 CPUs, ``OPENBLAS_NUM_THREADS=1``, medians of ten benchmark runs)
    the pool of two takes 0.66 s and the serial sweep (``workers=1``)
    1.14 s, against 1.00 s and 1.87 s on the full n x n Gram matrices.

    Cell evaluations that fail numerically are recorded with their
    coordinates in ``failures`` and leave a NaN cell instead of
    aborting the sweep: a batch that raises is evaluated again cell by
    cell, and a cell whose lattice is refused (see `_lattice`) fails
    before anything is allocated.
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
            per_stack = max(1, BATCH_BYTES // (4 * size * size))
            for start in range(0, len(cols), per_stack):
                stack = cols[start : start + per_stack]
                jobs.append((row, stack, [points[col] for col in stack]))

    def run(points: list[DesignPoint]) -> list[tuple[float, str | None]]:
        try:
            _, _, weights = _evaluate_batch(points)
        except BiphotonError as exc:
            if len(points) == 1:
                return [(math.nan, str(exc))]
            # Only the failing cell is lost, with its own message.
            return [result for point in points for result in run([point])]
        gammas = np.array([point.gamma_hat for point in points])
        return [(float(value), None) for value in weights[:, 0] / _single_pulse_norm(gammas)]

    with ThreadPoolExecutor(max_workers=_worker_count(workers)) as pool:
        results = list(pool.map(run, (points for _, _, points in jobs)))

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
