"""Schmidt decomposition of a sampled joint amplitude.

The continuum decomposition f(t_i, t_s) = sum_k lambda_k zeta_k(t_i)
xi_k(t_s) is obtained from the singular value decomposition of the
quadrature-weighted value matrix.  Singular values are normalized so the
squared coefficients sum to one; the heralded single-photon purity is
then P = sum_k lambda_k^4 and the Schmidt number its reciprocal.
"""

from __future__ import annotations

import math
import operator
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DecompositionError, DegenerateModeWarning, ParameterError
from .joint_amplitude import JointAmplitude
from .signal_model import TimeGrid

DEGENERACY_TOLERANCE = 1e-12

# Relative skew ||B - EBE||_F <= FOLD_BUDGET eps ||B||_F (E the reversal, eps
# the float64 machine epsilon) under which `schmidt_decompose` takes the SVD
# of B's symmetric part through its parity blocks: B differs from that part
# by (B - EBE) / 2, so by Weyl's inequality no singular value moves by more
# than 32 eps ||B||_F, the order of the backward error of the SVD itself on
# the blocks of a few hundred rows the mode analysis decomposes.
FOLD_BUDGET = 64


@dataclass(frozen=True)
class SchmidtResult:
    """Normalized Schmidt spectrum and the leading mode functions.

    ``singular_values`` holds the full normalized spectrum (sum of
    squares equal to one); only the first ``len(signal_modes)`` mode
    functions are kept.  Mode rows are orthonormal under the grid
    quadrature and carry the phase convention that the first component of
    each signal mode within a relative 1e-8 of its largest magnitude is
    positive real.

    The spectrum and the fields derived from it (``singular_values``,
    ``purity``, ``schmidt_number``, ``tail_mass``) are computed by
    `schmidt_decompose` itself, from singular values alone.
    ``signal_modes`` and ``idler_modes`` are computed on their first read,
    both at once, from one SVD of the read-only weighted support block the
    result holds; later reads return the same arrays.
    """

    singular_values: np.ndarray
    purity: float
    schmidt_number: float
    tail_mass: float
    axis_i: TimeGrid
    axis_s: TimeGrid
    _block: np.ndarray = field(repr=False, compare=False)
    _support: tuple[slice, slice] = field(repr=False, compare=False)
    _mode_count: int = field(repr=False, compare=False)

    def __post_init__(self) -> None:
        total = float((self.singular_values**2).sum())
        if abs(total - 1.0) > 1e-9:
            raise ParameterError("normalized Schmidt coefficients must have unit square sum")

    @property
    def signal_modes(self) -> np.ndarray:
        return self._modes[0]

    @property
    def idler_modes(self) -> np.ndarray:
        return self._modes[1]

    @cached_property
    def _modes(self) -> tuple[np.ndarray, np.ndarray]:
        # Without a lock (Python 3.12 dropped it) two threads may both run
        # this on a first read; each gets the same arrays, bit for bit.
        block, (rows, cols), k = self._block, self._support, self._mode_count
        try:
            u, _, vh = np.linalg.svd(block, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise DecompositionError(f"singular value decomposition failed: {exc}") from exc
        signal = np.zeros((k, self.axis_s.n_points), dtype=vh.dtype)
        signal[:, cols] = vh[:k] / math.sqrt(self.axis_s.step)
        idler = np.zeros((k, self.axis_i.n_points), dtype=u.dtype)
        idler[:, rows] = u[:, :k].T / math.sqrt(self.axis_i.step)
        # The pivot is the first component within a relative 1e-8 of the
        # largest magnitude, not argmax: the mirror pair of a mode of a
        # symmetric amplitude has magnitudes equal up to round-off.
        magnitude = np.abs(signal)
        near_peak = magnitude >= (1.0 - 1e-8) * magnitude.max(axis=1, keepdims=True)
        pivot = np.take_along_axis(signal, np.argmax(near_peak, axis=1)[:, None], axis=1)
        magnitude = np.abs(pivot)
        rotation = np.divide(np.conj(pivot), magnitude, out=np.ones_like(pivot), where=magnitude > 0)
        signal *= rotation
        idler *= np.conj(rotation)
        return signal, idler


def support(values: np.ndarray) -> tuple[slice, slice]:
    """Row and column slices of a value matrix J that hold its norm.

    Leading and trailing rows and columns are dropped while their squared
    magnitude totals less than eps^2 ||J||_F^2, a quarter of that per edge
    (eps the float64 machine epsilon).  By Weyl's inequality no singular
    value then moves by more than eps ||J||_F, which is inside the
    backward error of the SVD itself.

    Raises :class:`ParameterError` when ||J||_F^2 is zero: there is no
    norm to hold.
    """
    mass = (values.conj() * values).real if np.iscomplexobj(values) else np.square(values)
    row_mass = mass.sum(axis=1)
    total = row_mass.sum()
    if not total > 0:
        raise ParameterError("cannot decompose a joint amplitude with zero norm")
    budget = 0.25 * np.finfo(float).eps ** 2 * total
    slices = []
    for line in (row_mass, mass.sum(axis=0)):
        head, tail = np.cumsum(line), np.cumsum(line[::-1])
        slices.append(slice(int(np.searchsorted(head, budget)), line.size - int(np.searchsorted(tail, budget))))
    return slices[0], slices[1]


def merge_descending(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """Even and odd parity spectra merged in descending order along the last axis."""
    return -np.sort(-np.concatenate([even, odd], axis=-1), axis=-1)


def _parity_blocks(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Parity blocks K+ and K- of the symmetric part (B + EBE) / 2 of an m x n block B.

    As in `biphoton.memory_interface._parity_spectra`, the upper rows
    give K+- = top +- top reversed along columns, K+ over ceil(m/2) x
    ceil(n/2) and K- over floor(m/2) x floor(n/2); on an odd dimension
    the middle row and column of K+ carry a factor 1/sqrt(2), since the
    middle node is its own mirror.  Their singular values together are
    those of the symmetric part (Law, Walmsley & Eberly, PRL 84, 5304
    (2000)).
    """
    m, n = block.shape
    low_m, low_n = m // 2, n // 2
    top = 0.5 * (block[: m - low_m] + block[::-1, ::-1][: m - low_m])
    mirror = top[:, ::-1]
    plus = top[:, : n - low_n] + mirror[:, : n - low_n]
    minus = top[:low_m, :low_n] - mirror[:low_m, :low_n]
    if m % 2:
        plus[low_m] *= math.sqrt(0.5)
    if n % 2:
        plus[:, low_n] *= math.sqrt(0.5)
    return plus, minus


def _is_centrosymmetric(block: np.ndarray) -> bool:
    """Whether ||B - EBE||_F <= FOLD_BUDGET eps ||B||_F.

    A block of one row or column, whose odd block would be empty, does not fold.
    """
    if min(block.shape) < 2:
        return False
    skew = block - block[::-1, ::-1]
    budget = (FOLD_BUDGET * np.finfo(float).eps) ** 2 * np.vdot(block, block).real
    return bool(np.vdot(skew, skew).real <= budget)


def schmidt_decompose(jta: JointAmplitude, k_max: int = 16) -> SchmidtResult:
    """Decompose a joint amplitude into its Schmidt modes.

    Parameters
    ----------
    jta:
        Joint amplitude in either domain.  Must have nonzero norm.
    k_max:
        Number of mode functions to keep, an integer of at least 1.  The
        Schmidt spectrum itself is always computed in full, so ``purity``
        never depends on ``k_max``.

    The values are first scaled by the power of two that brings their
    largest magnitude into [1/2, 1), which is exact and makes the result
    independent of the amplitude's scale.  The SVD runs on the `support`
    block of the values.  The spectrum is padded with zeros to
    ``min(n_i, n_s)`` coefficients; at most ``min(k_max, min(block.shape))``
    modes are kept, zero outside the block.  This call takes singular
    values alone: those of a block that is centrosymmetric within
    ``FOLD_BUDGET`` (a symmetric amplitude on a symmetric lattice) from its
    two half-size `_parity_blocks`, those of any other block from one SVD.
    The mode functions come from one SVD of the block itself, on the first
    read of ``signal_modes`` or ``idler_modes``.
    """
    if isinstance(k_max, bool):
        raise ParameterError("k_max must be an integer, not a bool")
    try:
        k_max = operator.index(k_max)
    except TypeError:
        raise ParameterError(f"k_max must be an integer, not {k_max!r}") from None
    if k_max < 1:
        raise ParameterError("k_max must be at least 1")
    values = np.asarray(jta.values)
    if np.iscomplexobj(values) and not values.imag.any():
        values = values.real

    # The squared magnitudes would underflow near 1e-162 and overflow near
    # 1e154.  2**1023 is the largest finite power of two; a subnormal peak
    # scaled by it is still far from underflow.  Real values find their
    # peak without the temporary of np.abs.
    if np.iscomplexobj(values):
        peak = float(np.abs(values).max())
    else:
        peak = max(float(values.max()), -float(values.min()))
    exponent = math.frexp(peak)[1]
    if exponent:
        values = values * math.ldexp(1.0, min(-exponent, 1023))
    rows, cols = support(values)
    weighted = values[rows, cols] * math.sqrt(jta.axis_i.step * jta.axis_s.step)
    weighted.flags.writeable = False
    try:
        if _is_centrosymmetric(weighted):
            s = merge_descending(*(np.linalg.svd(b, compute_uv=False) for b in _parity_blocks(weighted)))
        else:
            s = np.linalg.svd(weighted, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"singular value decomposition failed: {exc}") from exc

    scale = math.sqrt(float((s**2).sum()))
    coeffs = np.zeros(min(values.shape))
    coeffs[: s.size] = s / scale
    purity = float((coeffs**4).sum())
    k = min(k_max, s.size)
    return SchmidtResult(
        singular_values=coeffs,
        purity=purity,
        schmidt_number=1.0 / purity,
        tail_mass=float((coeffs[k:] ** 2).sum()),
        axis_i=jta.axis_i,
        axis_s=jta.axis_s,
        _block=weighted,
        _support=(rows, cols),
        _mode_count=k,
    )


def fundamental_kernel(result: SchmidtResult) -> np.ndarray:
    """Signal-side fundamental mode, the natural memory read-in kernel.

    When the two leading coefficients are degenerate within 1e-12 the
    choice of fundamental mode is arbitrary; the lower index is returned
    and a :class:`DegenerateModeWarning` is emitted.
    """
    coeffs = result.singular_values
    if coeffs.size >= 2 and abs(float(coeffs[0]) - float(coeffs[1])) < DEGENERACY_TOLERANCE:
        warnings.warn(
            "leading Schmidt coefficients are degenerate; returning the lower mode index",
            DegenerateModeWarning,
            stacklevel=2,
        )
    return result.signal_modes[0]
