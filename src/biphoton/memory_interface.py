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

import functools
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import BiphotonError, DecompositionError, GridMismatchError, ParameterError
from .formatting import write_csv
from .schmidt import merge_descending
from .signal_model import PulseTrainSpec, train_amplitude

# Lattice points per sigma_p that resolve a pump pulse; a narrow filter refines them (see `_lattice`).
RESOLUTION_POINTS_PER_SIGMA = 16

# Half-width, in units of the relevant scale, beyond which Gaussian
# envelopes are treated as having no support (exp(-25) ~ 1e-11 in
# amplitude, 1e-22 in norm).
SUPPORT_HALF_WIDTH = 5.0

# Largest lattice, in points per axis, that a design point may ask for:
# design evaluation then holds the two (n/2) x (n/2) parity blocks of the
# value matrix and the SVD's copy of one, 3 * 8 * 2048^2 B = 101 MB, so a
# process evaluating it stays under 160 MB; a sweep builds the even block
# alone, one cell per stack at this size.  The step rule admits the cap
# itself, at (256, 0.04): there `efficiency` peaks at 130 MB RSS and takes
# 9.4 s, a one-cell `sweep` 63 MB and 0.3 s; at (12, 200), n = 4020,
# `efficiency` peaks at 126 MB and takes 7.0 s (one BLAS thread, 2-CPU
# host).  The gated acceptance rectangle needs at most 192 points; t_hat =
# 1e4 at gamma_hat = 0.01 would ask for 16160.
MAX_LATTICE_POINTS = 4096

# Byte budget of one stack of (n/2) x (n/2) even blocks in a sweep batch.
# With the power iteration of `_top_eigenvalue` the 32x64 sweep takes 0.19 /
# 0.11 / 0.11 s serially and 0.25 / 0.11 / 0.09 s on a pool of two at 256 KB
# / 1 MB / 4 MB (medians of 15, shuffled, one BLAS thread, 2-CPU host):
# smaller stacks pay more Python steps per cell.  Each worker holds one
# stack, so 4 MB (or 8 MB, a tie) would cut the pool's time by a fifth for
# 6.5 MB more peak RSS over the 37 MB of a process running the sweep.
BATCH_BYTES = 1 << 20

# Relative residual tau = POWER_TOLERANCE that ends the power iteration of
# `_top_eigenvalue`, ||K^T K x - theta x|| <= tau theta: by Kato-Temple theta is
# then within tau^2 / (1 - rho) of lambda_1, relative, rho = lambda_2 / lambda_1.
# A cell that converges within POWER_STEPS has rho <= tau^(1/32) = 0.56, so that
# is at most 2.3e-16, about one unit in the last place of eta_in.
POWER_TOLERANCE = 1e-8

# Power steps before a cell falls back to the SVD: the residual shrinks by
# lambda_2 / lambda_1 per step, so 32 steps reach POWER_TOLERANCE for ratios
# up to 1e-8^(1/32) = 0.56, against at most 0.173 (10 steps) on the
# acceptance rectangle.
POWER_STEPS = 32


@dataclass(frozen=True)
class DesignPoint:
    """One dimensionless source/memory operating point.

    ``n_side_pulses`` truncates the pump train to pulse indices
    [-M, M].  The lattice density follows from ``gamma_hat`` (see
    `_lattice`).
    """

    t_hat: float
    gamma_hat: float
    n_side_pulses: int = 3

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_hat) and self.t_hat > 0):
            raise ParameterError("t_hat must be positive and finite")
        if not (math.isfinite(self.gamma_hat) and self.gamma_hat > 0):
            raise ParameterError("gamma_hat must be positive and finite")
        PulseTrainSpec(1.0, self.t_hat, self.n_side_pulses)  # raises on an invalid n_side_pulses


@dataclass(frozen=True)
class DesignReport:
    """Full numerical characterisation of one design point.

    ``lambda_sq_head`` holds the eight largest Schmidt weights over their
    sum.
    """

    eta_in: float
    purity: float
    schmidt_number: float
    gating_loss: float
    top_mode_weight: float
    lambda_sq_head: tuple[float, ...]
    norm_gated: float
    norm_reference: float


def _lattice(point: DesignPoint) -> tuple[int, float]:
    """Nodes per side and step of a design point's idler/signal lattice, bounded before allocation.

    The step is h = 1 / (16 ceil(gamma_hat / 8)): the coarsest multiple
    of ``RESOLUTION_POINTS_PER_SIGMA`` points per sigma_p with gamma_hat
    <= density / 2, which resolves the filter response exp(-(gamma_hat
    t)^2).  At t_hat = 4 and 11, eta_in moves by at most 1.8e-16 against
    four times that density for gamma_hat in {8.5, 12, 16, 24, 40}.

    The lattice is the gate: outside min(T/2, local support) the gated
    amplitude is zero or below double precision, so the nodes +/-(j +
    1/2) h, j < half, at least one per side, span that block and nothing
    else, and fold into two mirrored halves (see `_parity_spectra`).  The
    outermost node lies at (half - 1/2) h <= T/2, with equality only at T
    = h, so every node is inside the closed gate and no gate mask is
    needed; a gate narrower than one step holds no node and is refused.
    When T/2 is a multiple of h the gate edges fall between nodes and
    gated quadratures converge at second order; otherwise the outer cell
    keeps its full weight and the error is O(h), not falling under
    refinement: at t_hat = 2.3226, gamma_hat = 0.4317 eta_in is off the
    exact value by +1.68e-2 / -3.2e-3 / -3.2e-3 / +1.8e-3 at 16 / 32 / 64
    / 128 points per sigma (see the ROADMAP item "Exact gated evaluation").

    Raises :class:`ParameterError` when pi / (2 gamma_hat) is not finite,
    before any lattice arithmetic, when t_hat < h, when the node count,
    an infinite one included, exceeds ``MAX_LATTICE_POINTS``, and when the
    cell area h^2, which scales every Schmidt weight, is not a normal
    float64 (gamma_hat above about 3.4e153): a subnormal h^2 loses digits
    and a zero one makes every weight vanish.
    """
    if not math.isfinite(_single_pulse_norm(point.gamma_hat)):
        raise ParameterError(f"gamma_hat = {point.gamma_hat:g} is too small: the norm pi / (2 gamma_hat) overflows")
    # In Python floats the step stays positive up to the largest gamma_hat,
    # whose lattice then exceeds the cap; the density itself would overflow.
    refinement = float(np.ceil(point.gamma_hat / (0.5 * RESOLUTION_POINTS_PER_SIGMA)))
    step = 1.0 / RESOLUTION_POINTS_PER_SIGMA / refinement
    if point.t_hat < step:
        raise ParameterError(
            f"t_hat = {point.t_hat:g} is below the lattice step {step:g}: the gate holds no node"
        )
    local = SUPPORT_HALF_WIDTH * (1.0 + 1.0 / point.gamma_hat)
    half = max(1.0, float(np.ceil(min(0.5 * point.t_hat, local) / step - 0.5)))
    n_points = 2 * half
    if not n_points <= MAX_LATTICE_POINTS:
        gigabytes = 8 * n_points * n_points / 1e9
        raise ParameterError(
            f"lattice of {n_points:.12g} x {n_points:.12g} points ({gigabytes:.3g} GB for "
            f"its value matrix) exceeds the cap of {MAX_LATTICE_POINTS} points per axis"
        )
    if step * step < sys.float_info.min:
        raise ParameterError(
            f"gamma_hat = {point.gamma_hat:g} is too large: the lattice cell area h^2 = {step * step:g} "
            "is below the smallest normal float64"
        )
    return int(half), step


def _parity_spectra(points: list[DesignPoint], odd: bool = True) -> tuple[np.ndarray, float, np.ndarray, np.ndarray]:
    """Schmidt weights of points that share a lattice, from the parity blocks of the value matrix.

    The points must differ in ``gamma_hat`` only and share one lattice.
    Idler and signal share its nodes t_p = (p - n/2 + 1/2) h, and the
    gate is the lattice (see `_lattice`), so with w(r) = exp(-(gamma_hat h
    r)^2) the gated amplitude is the value matrix J[i, p] = w(i - p) Omega_p.

    J is even under (i, p) -> (n-1-i, n-1-p), so its singular values are
    those of the two parity blocks over the idler rows i < n/2,

        K+-[i, q] = J[i, q] +- J[i, n-1-q] = Omega_q (w(i - q) +- w(i + q - (n - 1))),

    whose Gram matrices K+-^T K+- are the diagonal blocks of the signal
    Gram matrix J^T J in the even/odd basis: the even and odd Schmidt
    modes (Law, Walmsley & Eberly, PRL 84, 5304 (2000)).  Both blocks are
    windows of one table of w over |r| < n.  J^T J is entrywise positive,
    so by Perron-Frobenius its top eigenvector is positive, hence even:
    K+ holds the top weight lambda_1, which `_top_eigenvalue` finds by
    power iteration from the Hermite-Gauss fundamental exp(-sqrt(1 +
    gamma_hat^2) t^2) of the single-pulse state.  With ``odd=True`` both
    blocks also go through the SVD, and the even block's top is replaced
    by the power iteration's value, so a sweep cell and `evaluate_design`
    report the same lambda_1 bit for bit; with ``odd=False`` nothing is
    decomposed.

    Returns the nodes t_p for p < n/2, h, the blocks ``(2, k, n/2, n/2)``
    (even first; one block with ``odd=False``) and the weights ``(k, n)``:
    lambda_1 first, then the other squared singular values in descending
    order (zeros with ``odd=False``), scaled by the cell area.  Raises
    :class:`ParameterError` when any amplitude vanishes.
    """
    half, step = _lattice(points[0])
    n = 2 * half
    t = (np.arange(half) + 0.5 - half) * step
    gammas = np.array([p.gamma_hat for p in points])
    train = PulseTrainSpec(sigma_p=1.0, period=points[0].t_hat, n_side_pulses=points[0].n_side_pulses)
    omega = train_amplitude(train, t)

    # w[:, n - 1 + r] = w(r) for |r| < n; windows[:, s, q] = w[:, s + q].  w is even, so
    # w(i - q) = w(q - i) sits in window n - 1 - i, and w(i + q - (n - 1)) in window i.
    w = np.exp(-np.square(np.multiply.outer(gammas, np.arange(1 - n, n) * step)))
    windows = sliding_window_view(w, half, axis=-1)
    direct, mirror = windows[:, n - 1 : half - 1 : -1], windows[:, :half]
    blocks = np.empty((2 if odd else 1, len(points), half, half))
    np.add(direct, mirror, out=blocks[0])
    if odd:
        np.subtract(direct, mirror, out=blocks[1])
    blocks *= omega
    start = _signal_fundamental(gammas[:, None], t)
    weights = np.zeros((len(points), n))
    try:
        weights[:, 0] = _top_eigenvalue(blocks[0], start)
        if odd:
            even, odd_spectrum = np.square(np.linalg.svd(blocks, compute_uv=False))
            # lambda_1 is the even block's top, which the routine's value replaces.
            weights[:, 1:] = merge_descending(even[:, 1:], odd_spectrum)[0]
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value decomposition failed: {exc}") from exc
    weights *= step * step
    if (weights[:, 0] <= 0).any():
        raise ParameterError("joint amplitude vanished at this design point")
    return t, step, blocks, weights


def _signal_fundamental(gamma_hat, t: np.ndarray) -> np.ndarray:
    """Normalised signal fundamental of the single-pulse ungated state at nodes ``t``.

    (2 alpha / pi)^(1/4) exp(-alpha t^2), alpha = sqrt(1 + gamma_hat^2): the
    Hermite-Gaussian of the Mehler kernel (Law, Walmsley & Eberly, PRL 84,
    5304 (2000)), even and positive.  ``gamma_hat`` is a float or a column;
    `_lattice` admits none whose square overflows.
    """
    alpha = np.sqrt(1.0 + np.square(gamma_hat))
    return (2.0 * alpha / math.pi) ** 0.25 * np.exp(-alpha * np.square(t))


def _rowwise_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot products of the rows of two ``(k, m)`` arrays, each through its own matmul."""
    return np.matmul(a[:, None, :], b[:, :, None])[:, 0, 0]


def _top_eigenvalue(blocks: np.ndarray, start: np.ndarray) -> np.ndarray:
    """Top eigenvalue of K^T K for each entrywise-positive block K of a ``(k, r, m)`` stack.

    Batched power iteration x -> K^T (K x) from the positive ``(k, m)``
    start vectors, which never forms K^T K: the result is the Rayleigh
    quotient theta of each cell at the first step whose residual ||K^T K x
    - theta x|| is at most ``POWER_TOLERANCE`` theta, so each cell stops on
    its own.  Every product and reduction is a per-slice matmul, so a
    cell's value does not depend on the other cells of its stack.  Cells
    not converged after ``POWER_STEPS`` steps, where lambda_2 / lambda_1 is
    near one, take the square of K's top singular value.
    """
    top = np.empty(len(blocks))
    todo = np.arange(len(blocks))
    x = start / np.sqrt(_rowwise_dot(start, start))[:, None]
    for _ in range(POWER_STEPS):
        y = np.matmul(np.matmul(blocks, x[:, :, None]).transpose(0, 2, 1), blocks)[:, 0]
        theta = _rowwise_dot(x, y)
        residual = y - theta[:, None] * x
        done = np.sqrt(_rowwise_dot(residual, residual)) <= POWER_TOLERANCE * theta
        if done.any():
            top[todo[done]] = theta[done]
            if done.all():
                return top
            todo, blocks, y = todo[~done], blocks[~done], y[~done]
        x = y / np.sqrt(_rowwise_dot(y, y))[:, None]
    top[todo] = np.square(np.linalg.svd(blocks, compute_uv=False)[:, 0])
    return top


def _single_pulse_norm(gamma_hat):
    """Norm of the single-pulse ungated state, ``gamma_hat`` a float or an array.

    The integral of exp(-2 gamma^2 (t_i - t_s)^2) exp(-2 t_s^2) over the plane.
    """
    return math.pi / (2.0 * gamma_hat)


def evaluate_design(point: DesignPoint, kernel: str = "gated") -> DesignReport:
    """Evaluate the read-in efficiency and mode structure at one design point.

    The Schmidt weights are the squared singular values of the even and
    odd parity blocks of the value matrix J on the point's lattice, the
    top weight the power iteration's value that a sweep reports (see
    `_parity_spectra`); the lattice is bounded by ``MAX_LATTICE_POINTS``
    before anything is allocated.  A one-entry memo keyed by the point
    (`_design_terms`) holds both kernels' terms, so both kernels at one
    point cost one evaluation; a point that raises is not kept.

    Parameters
    ----------
    point:
        Dimensionless operating point; both photons are restricted to
        the central time bin of width ``t_hat``.
    kernel:
        ``"gated"`` projects on the fundamental mode of the gated state
        itself; ``"ungated"`` projects on the fundamental mode of the
        single-pulse ungated state, quantifying how much a memory tuned
        to the intrinsic source mode loses on the gated photon.
    """
    if kernel not in ("gated", "ungated"):
        raise ParameterError(f"unknown kernel {kernel!r}")
    report, ungated = _design_terms(point)
    return report if kernel == "gated" else replace(report, eta_in=ungated / report.norm_reference)


@functools.lru_cache(maxsize=1)
def _design_terms(point: DesignPoint) -> tuple[DesignReport, float]:
    """The gated report at a design point and the ungated numerator of eta_in, floats and tuples only."""
    t, step, blocks, weights = _parity_spectra([point])
    weights = weights[0]
    total = float(weights.sum())
    lambda_sq = weights / total
    purity = float((lambda_sq**2).sum())

    reference = _single_pulse_norm(point.gamma_hat)
    # <K| rho |K> = 2 ||K+ K_u||^2 for the even single-pulse signal fundamental.
    projected = blocks[0, 0] @ _signal_fundamental(point.gamma_hat, t)
    ungated = float(2.0 * (projected @ projected) * step**3)

    return DesignReport(
        eta_in=float(weights[0]) / reference,
        purity=purity,
        schmidt_number=1.0 / purity,
        gating_loss=total / reference,
        top_mode_weight=float(lambda_sq[0]),
        lambda_sq_head=tuple(float(w) for w in lambda_sq[:8]),
        norm_gated=total,
        norm_reference=reference,
    ), ungated


def read_in_efficiency(point: DesignPoint, kernel: str = "gated") -> float:
    """Read-in efficiency eta_in at one design point.  See `evaluate_design`."""
    return evaluate_design(point, kernel=kernel).eta_in


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


def sweep_design_space(
    t_range: tuple[float, float],
    gamma_range: tuple[float, float],
    resolution: tuple[int, int],
    n_side_pulses: int = 3,
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
        Thread count of the pool that evaluates the batches, at least 1.
        ``None`` means one thread per CPU the process may run on (its CPU
        affinity, which ``taskset`` caps).  The batches do not depend on
        the worker count and results are assembled by cell index, so the
        map is the same bit for bit on any pool.

    The cells of one row that share a lattice (see `_lattice`: its step
    follows from gamma_hat, so two cells may share a node count but not a
    step) are evaluated in batches of at most ``BATCH_BYTES`` of even
    parity blocks K+ of the value matrix (see `_parity_spectra`): a cell
    reports only the top weight, which K+ holds, so a batch is one batched
    power iteration (`_top_eigenvalue`) in which each cell stops on its
    own residual and falls back to the SVD only when it does not
    converge.

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
    if workers is None:
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    elif workers < 1:
        raise ParameterError("workers must be at least 1")

    t_values = np.linspace(t_range[0], t_range[1], n_t)
    gamma_values = np.linspace(gamma_range[0], gamma_range[1], n_gamma)

    eta = np.full((n_t, n_gamma), math.nan)
    errors: dict[tuple[int, int], str] = {}

    # Batch jobs: the cells of one row that share a lattice, in stacks of
    # at most BATCH_BYTES of even blocks.
    jobs: list[tuple[int, list[int], list[DesignPoint]]] = []
    for row, t_hat in enumerate(t_values):
        points = [DesignPoint(float(t_hat), float(gamma), n_side_pulses) for gamma in gamma_values]
        groups: dict[tuple[int, float], list[int]] = {}
        for col, point in enumerate(points):
            try:
                groups.setdefault(_lattice(point), []).append(col)
            except ParameterError as exc:
                errors[row, col] = str(exc)
        for (half, _), cols in groups.items():
            per_stack = max(1, BATCH_BYTES // (8 * half**2))
            for start in range(0, len(cols), per_stack):
                stack = cols[start : start + per_stack]
                jobs.append((row, stack, [points[col] for col in stack]))

    def run(points: list[DesignPoint]) -> list[tuple[float, str | None]]:
        try:
            weights = _parity_spectra(points, odd=False)[-1]
        except BiphotonError as exc:
            if len(points) == 1:
                return [(math.nan, str(exc))]
            # Only the failing cell is lost, with its own message.
            return [result for point in points for result in run([point])]
        gammas = np.array([point.gamma_hat for point in points])
        return [(float(value), None) for value in weights[:, 0] / _single_pulse_norm(gammas)]

    with ThreadPoolExecutor(max_workers=workers) as pool:
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
    }
