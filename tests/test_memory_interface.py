import dataclasses
import math
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import midpoint_grid

import biphoton.memory_interface as mi
from biphoton.errors import ParameterError
from biphoton.joint_amplitude import assemble_gated_jta
from biphoton.memory_interface import (
    DesignPoint,
    EfficiencyMap,
    efficiency_map_summary,
    evaluate_design,
    read_in_efficiency,
    sweep_design_space,
    write_efficiency_map_csv,
)
from biphoton.schmidt import schmidt_decompose
from biphoton.signal_model import GaussianFilterSpec, PulseTrainSpec, train_amplitude


REFERENCE_DIR = Path(__file__).resolve().parents[1] / "bench" / "reference"


def closed_form_top_weight(gamma_hat):
    # For the single-pulse filtered double Gaussian the Schmidt spectrum is
    # geometric; the top weight is lambda_1^2 = 2P / (1 + P) with
    # P = 1 / sqrt(1 + gamma_hat^2).
    purity = 1.0 / math.sqrt(1.0 + gamma_hat**2)
    return 2.0 * purity / (1.0 + purity)


def reference_norm_lattice_sum(gamma_hat, step):
    # Midpoint-rule sum of exp(-2 gamma^2 (t_i - t_s)^2) exp(-2 t_s^2) over
    # the single pulse's support; spectrally accurate for this Gaussian
    # integrand.  Accumulated in row blocks to bound memory.
    t = midpoint_grid(5.0 * (1.0 + 1.0 / gamma_hat), step).points
    pump_sq = np.exp(-2.0 * t**2)
    total = 0.0
    for start in range(0, t.size, 512):
        t_i = t[start : start + 512]
        response_sq = np.exp(-2.0 * (gamma_hat * (t_i[:, None] - t[None, :])) ** 2)
        total += float((response_sq * pump_sq[None, :]).sum())
    return total * step * step


def lattice_step(point):
    """The lattice step the library derives for a point: 1 / (16 ceil(gamma_hat / 8))."""
    return 1.0 / (16 * math.ceil(point.gamma_hat / 8))


def assembled_jta(point, step=None):
    """The point's amplitude assembled on its full lattice (the library's step by default), which is its gate."""
    step = lattice_step(point) if step is None else step
    local = 5.0 * (1.0 + 1.0 / point.gamma_hat)
    train = PulseTrainSpec(sigma_p=1.0, period=point.t_hat, n_side_pulses=point.n_side_pulses)
    filt = GaussianFilterSpec(gamma=point.gamma_hat)
    grid = midpoint_grid(min(0.5 * point.t_hat, local), step)
    return assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)


def ungated_kernel_eta_by_svd(point, step=None):
    """eta_in with the ungated kernel, the kernel taken from an SVD.

    The kernel is the signal fundamental of the single-pulse ungated
    amplitude, decomposed on a lattice wide enough to hold the evaluated
    block, which is a centred slice of it.
    """
    step = lattice_step(point) if step is None else step
    local = 5.0 * (1.0 + 1.0 / point.gamma_hat)
    filt = GaussianFilterSpec(gamma=point.gamma_hat)
    jta = assembled_jta(point, step)
    grid = jta.axis_s

    wide = midpoint_grid(max(local, grid.t_max + 0.5 * step), step)
    single = PulseTrainSpec(sigma_p=1.0, period=point.t_hat, n_side_pulses=0)
    mode = schmidt_decompose(assemble_gated_jta(single, filt, grid_i=wide, grid_s=wide), k_max=1).signal_modes[0]
    offset = (wide.n_points - grid.n_points) // 2
    assert np.allclose(wide.points[offset : offset + grid.n_points], grid.points, rtol=0.0, atol=1e-12)
    kernel = mode[offset : offset + grid.n_points]
    projected = jta.values @ kernel * step
    overlap = float((np.abs(projected) ** 2).sum() * step)
    return overlap / reference_norm_lattice_sum(point.gamma_hat, step)


def svd_report(point, kernel="gated", step=None):
    """eta_in, purity, gating loss and lambda^2 head from the whole assembled block.

    Without the library's parity fold: the squared singular values of the
    assembled block J, taken as the eigenvalues of J^T J by ``eigvalsh``,
    scaled by the cell area, against the lattice-sum reference norm.  On
    the library's lattice by default; ``step`` picks another.
    """
    step = lattice_step(point) if step is None else step
    values = assembled_jta(point, step).values
    # A row or column of exact zeros carries no singular value.
    values = values[np.ix_(values.any(axis=1), values.any(axis=0))]
    weights = np.linalg.eigvalsh(values.T @ values)[::-1] * step * step
    reference = reference_norm_lattice_sum(point.gamma_hat, step)
    lambda_sq = weights / weights.sum()
    if kernel == "gated":
        eta = weights[0] / reference
    else:
        eta = ungated_kernel_eta_by_svd(point, step)
    return {
        "eta_in": eta,
        "purity": float((lambda_sq**2).sum()),
        "gating_loss": weights.sum() / reference,
        "lambda_sq_head": lambda_sq[:8],
    }


def gauss_legendre_eta(point, n):
    """Gated eta_in from an SVD on n Gauss-Legendre nodes per axis: no lattice involved.

    J[i, p] = sqrt(w_i w_p) exp(-(gamma_hat (t_i - t_p))^2) Omega(t_p) on the
    nodes of [-h, h], h = min(T/2, 5 (1 + 1/gamma_hat)), where the gated
    amplitude is smooth, so the quadrature converges spectrally; then
    sigma_1^2 / (pi / 2 gamma_hat).  Not converged at large h gamma_hat
    (1.6e-2 off at (11, 16) with n = 160), so draw gamma_hat <= 3.
    """
    half = min(0.5 * point.t_hat, 5.0 * (1.0 + 1.0 / point.gamma_hat))
    x, w = np.polynomial.legendre.leggauss(n)
    t, root = half * x, np.sqrt(half * w)
    omega = train_amplitude(PulseTrainSpec(1.0, point.t_hat, point.n_side_pulses), t)
    values = np.exp(-np.square(point.gamma_hat * np.subtract.outer(t, t))) * np.outer(root, root * omega)
    return np.linalg.svd(values, compute_uv=False)[0] ** 2 / (math.pi / (2.0 * point.gamma_hat))


def assert_matches_svd_oracle(point, kernel, step=None):
    report = evaluate_design(point, kernel=kernel)
    oracle = svd_report(point, kernel, step)
    assert abs(report.eta_in - oracle["eta_in"]) <= 1e-12
    assert abs(report.purity - oracle["purity"]) <= 1e-12
    assert abs(report.gating_loss - oracle["gating_loss"]) <= 1e-12
    head = np.array(report.lambda_sq_head)
    assert head.size == oracle["lambda_sq_head"].size
    assert np.abs(head - oracle["lambda_sq_head"]).max() <= 1e-12


# t_hat in [14, 30], gamma_hat in [0.5, 3]: every row holds 3 to 9 lattice sizes.
MIXED_LATTICE_RECT = ((14.0, 30.0), (0.5, 3.0), (5, 9))


class TestDesignPoint:
    def test_validation(self):
        with pytest.raises(ParameterError):
            DesignPoint(t_hat=0.0, gamma_hat=1.0)
        with pytest.raises(ParameterError):
            DesignPoint(t_hat=2.0, gamma_hat=-1.0)
        with pytest.raises(ParameterError):
            DesignPoint(t_hat=2.0, gamma_hat=1.0, n_side_pulses=-1)
        # An integer beyond float range evaluates, as the train of 10**6 side pulses.
        huge = evaluate_design(DesignPoint(t_hat=2.0, gamma_hat=1.0, n_side_pulses=10**400))
        assert huge == evaluate_design(DesignPoint(t_hat=2.0, gamma_hat=1.0, n_side_pulses=10**6))


class TestMidpointLattice:
    def test_nodes_straddle_gate_edges(self):
        point = DesignPoint(t_hat=2.0, gamma_hat=0.9)
        assert mi._lattice(2.0, 0.9) == (16, 1.0 / 16.0)
        t, step, _, _ = mi._parity_spectra([point])
        assert step == 1.0 / 16.0
        # The nodes of the lower half; the upper half is their mirror image.
        assert t.size == 16
        assert np.allclose(np.diff(t), 1.0 / 16.0)
        # Outermost node sits half a step inside the half-width, innermost half a step from zero.
        assert t[0] == pytest.approx(-(1.0 - 0.5 / 16.0), abs=1e-12)
        assert t[-1] == pytest.approx(-0.5 / 16.0, abs=1e-12)

    def test_narrow_gate_keeps_two_nodes_per_side(self):
        # A gate narrower than three steps holds one node per side.
        assert mi._lattice(0.1, 0.9) == (1, 1.0 / 16.0)
        eta = read_in_efficiency(DesignPoint(t_hat=0.1, gamma_hat=0.9))
        assert eta == pytest.approx(0.4034206208633296, rel=1e-12)

    @pytest.mark.parametrize("kernel", ["gated", "ungated"])
    @pytest.mark.parametrize("t_hat", [1.0 / 16.0, 0.1, 0.125, 3.0 / 16.0, 0.25])
    def test_narrow_gate_matches_svd_oracle(self, t_hat, kernel):
        # Down to t_hat = step, where the outer nodes sit on the gate edge.
        assert_matches_svd_oracle(DesignPoint(t_hat, 0.9), kernel)

    def test_gate_without_nodes_refused(self):
        refusal = r"t_hat = 0\.05 is below the lattice step 0\.0625"
        with pytest.raises(ParameterError, match=refusal):
            evaluate_design(DesignPoint(t_hat=0.05, gamma_hat=0.9))
        emap = sweep_design_space((0.04, 0.09), (0.5, 0.9), (2, 2))
        assert np.isnan(emap.eta_in[0]).all() and np.isfinite(emap.eta_in[1]).all()
        assert [(t, g) for t, g, _ in emap.failures] == [(0.04, 0.5), (0.04, 0.9)]
        assert all("is below the lattice step" in message for _, _, message in emap.failures)

    def test_reference_norm_matches_closed_form(self):
        for gamma_hat in (0.3, 0.85, 2.0):
            numeric = reference_norm_lattice_sum(gamma_hat, 1.0 / 16.0)
            closed = evaluate_design(DesignPoint(t_hat=3.0, gamma_hat=gamma_hat)).norm_reference
            assert closed == pytest.approx(numeric, rel=1e-12)


class TestReadInEfficiency:
    def test_flagship_point_value(self):
        eta = read_in_efficiency(DesignPoint(t_hat=11.0, gamma_hat=0.85))
        assert eta == pytest.approx(0.864887, abs=1e-4)
        assert 0.70 <= eta <= 0.90

    def test_wide_gate_reaches_single_pulse_weight(self):
        # At t_hat = 11 the gate clips nothing measurable, so eta_in is the
        # closed-form top Schmidt weight of the single-pulse state.
        eta = read_in_efficiency(DesignPoint(t_hat=11.0, gamma_hat=0.85))
        assert eta == pytest.approx(closed_form_top_weight(0.85), abs=5e-4)

    def test_huge_gate_fast_and_exact(self):
        eta = read_in_efficiency(DesignPoint(t_hat=1e9, gamma_hat=0.2))
        assert eta == pytest.approx(closed_form_top_weight(0.2), abs=5e-4)

    def test_far_side_pulses_change_nothing(self):
        # Pulses beyond the lattice's reach are skipped, not allocated.
        far = evaluate_design(DesignPoint(t_hat=11.0, gamma_hat=0.85, n_side_pulses=10**15))
        near = evaluate_design(DesignPoint(t_hat=11.0, gamma_hat=0.85, n_side_pulses=3))
        assert far == near

    def test_gated_kernel_bounds_ungated_kernel(self):
        for t_hat, gamma_hat in ((2.0, 0.9), (6.0, 0.5), (11.0, 0.85)):
            point = DesignPoint(t_hat=t_hat, gamma_hat=gamma_hat)
            gated = read_in_efficiency(point, kernel="gated")
            ungated = read_in_efficiency(point, kernel="ungated")
            assert ungated <= gated + 1e-12
            assert ungated > 0.25 * gated

    @pytest.mark.parametrize(
        "t_hat,gamma_hat",
        # The first three gates clip the single-pulse support; the last does not.
        [(2.0, 0.9), (6.0, 0.5), (11.0, 0.85), (40.0, 1.5)],
    )
    def test_ungated_kernel_matches_svd_oracle(self, t_hat, gamma_hat):
        point = DesignPoint(t_hat=t_hat, gamma_hat=gamma_hat)
        eta = read_in_efficiency(point, kernel="ungated")
        assert abs(eta - ungated_kernel_eta_by_svd(point)) <= 1e-12

    @pytest.mark.parametrize(
        "t_hat,gamma_hat,side_pulses,kernel",
        [
            (12.0, 0.1, 3, "gated"),
            (11.0, 0.85, 3, "gated"),
            (2.0, 0.9268, 3, "gated"),
            (6.0, 0.5, 3, "ungated"),
            (11.0, 0.85, 3, "ungated"),
        ],
    )
    def test_eigen_route_matches_svd_oracle(self, t_hat, gamma_hat, side_pulses, kernel):
        assert_matches_svd_oracle(DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses), kernel)

    def test_wide_gate_block_matches_svd_oracle(self):
        # A gate much wider than the pump pulse at a narrow filter: the lattice
        # spans the gate, while the signal axis holds only the central pump
        # pulse, and the parity blocks keep every row and column of the upper
        # half.
        point = DesignPoint(t_hat=40.0, gamma_hat=0.1)
        _, _, blocks, _ = mi._parity_spectra([point])
        assert blocks.shape == (2, 1, 320, 320)
        assert_matches_svd_oracle(point, "gated")

    def test_small_weights_match_svd_of_assembled_amplitude(self):
        # The weights are squared singular values, so small ones are not
        # floored at eps * lambda_1 as eigenvalues of J^T J would be: entries
        # 5-7 are 6.07e-18, 9.08e-22 and 1.16e-25 here.
        point = DesignPoint(12.0, 0.1, n_side_pulses=3)
        weights = np.square(np.linalg.svd(assembled_jta(point).values, compute_uv=False))
        expected = weights[:8] / weights.sum()
        head = np.array(evaluate_design(point).lambda_sq_head)
        assert (np.abs(head - expected) <= 1e-4 * expected).all()

    def test_report_consistency(self):
        report = evaluate_design(DesignPoint(t_hat=3.0, gamma_hat=0.9))
        assert report.eta_in == pytest.approx(report.gating_loss * report.top_mode_weight, rel=1e-12)
        assert report.purity <= 1.0 + 1e-12
        assert report.schmidt_number == pytest.approx(1.0 / report.purity, rel=1e-12)
        assert abs(sum(report.lambda_sq_head) - 1.0) < 0.05  # head carries nearly all weight
        assert report.norm_gated <= report.norm_reference * (1.0 + 1e-9)

    def test_lattice_bounded_before_allocation(self):
        # n = 2 ceil(16 min(T/2, 5 (1 + 1/gamma_hat)) - 1/2) = 16160 here: a
        # 2.1 GB value matrix, refused from the estimate alone.
        point = DesignPoint(t_hat=1e4, gamma_hat=0.01)
        assert midpoint_grid(min(5e3, 5.0 * 101.0), 1.0 / 16.0).n_points == 16160
        start = time.perf_counter()
        with pytest.raises(ParameterError, match="16160"):
            evaluate_design(point)
        # A node count that overflows to infinity meets the cap as well.
        with pytest.raises(ParameterError, match="lattice of inf x inf points"):
            evaluate_design(DesignPoint(t_hat=1e308, gamma_hat=1e-308))
        # The step shrinks with gamma_hat and stays positive up to the float
        # maximum, so an extreme filter meets the cap (and, with RuntimeWarning
        # an error in this suite, raises no overflow warning on the way).
        for gamma_hat in (1e300, 1e308, 1.7976931348623157e308):
            with pytest.raises(ParameterError, match="exceeds the cap"):
                evaluate_design(DesignPoint(t_hat=4.0, gamma_hat=gamma_hat))
        assert time.perf_counter() - start < 1.0
        half, _ = mi._lattice(12.0, 0.1)
        assert 2 * half == 192 <= mi.MAX_LATTICE_POINTS // 16

    def test_subnormal_filter_refused(self):
        # pi / (2 gamma_hat) overflows below gamma_hat ~ 8.7e-309: the
        # refinement ceil(gamma_hat / 8) would underflow to zero.
        for gamma_hat in (5e-324, 8e-309):
            with pytest.raises(ParameterError, match="gamma_hat = .* the norm pi"):
                evaluate_design(DesignPoint(t_hat=5.0, gamma_hat=gamma_hat))

    def test_filter_whose_square_overflows_warns_nothing(self):
        # A RuntimeWarning is an error in this suite.  The cell area h^2
        # underflows, so the lattice is refused before any weight is formed.
        with pytest.raises(ParameterError, match=r"gamma_hat = 1e\+300 .* h\^2 = 0 is below the smallest normal"):
            evaluate_design(DesignPoint(t_hat=1e-300, gamma_hat=1e300))

    def test_filter_beyond_base_density_refines_lattice(self):
        # The filter response exp(-(gamma_hat t)^2) decays on a scale of
        # 1/gamma_hat, so the step is 1 / (16 ceil(gamma_hat / 8)): 1/16 up to
        # gamma_hat = 8, finer beyond.  eta_in agrees with an SVD at half that step.
        for gamma_hat in (8.0, 8.5, 12.0, 16.0, 24.0):
            point = DesignPoint(4.0, gamma_hat)
            assert mi._lattice(4.0, gamma_hat)[1] == pytest.approx(lattice_step(point), rel=1e-12)
            fine = svd_report(point, step=0.5 * lattice_step(point))["eta_in"]
            assert abs(read_in_efficiency(point) - fine) <= 1e-12

    def test_unknown_kernel_rejected(self):
        with pytest.raises(ParameterError):
            read_in_efficiency(DesignPoint(t_hat=2.0, gamma_hat=0.9), kernel="diabolical")

    @pytest.mark.parametrize("t_hat,gamma_hat", [(2.0, 0.9268), (11.0, 0.85)])
    def test_side_pulse_convergence(self, t_hat, gamma_hat):
        three = read_in_efficiency(DesignPoint(t_hat, gamma_hat, n_side_pulses=3))
        four = read_in_efficiency(DesignPoint(t_hat, gamma_hat, n_side_pulses=4))
        assert abs(three - four) < 1e-6

    @pytest.mark.parametrize("t_hat,gamma_hat", [(2.0, 0.9268), (6.0, 0.5), (11.0, 0.85)])
    def test_grid_doubling_convergence(self, t_hat, gamma_hat):
        point = DesignPoint(t_hat, gamma_hat)
        fine = svd_report(point, step=0.5 * lattice_step(point))["eta_in"]
        assert abs(read_in_efficiency(point) - fine) < 1e-3


# Continuous t_hat draws land off the lattice; both kernels.
DESIGN_DRAWS = given(
    t_hat=st.floats(2.0, 12.0),
    gamma_hat=st.floats(0.1, 3.0),
    side_pulses=st.integers(0, 3),
    kernel=st.sampled_from(["gated", "ungated"]),
)


def report_bits(report):
    """Every float of a design report in hex, so that equal lists mean equal bits."""
    fields = dataclasses.astuple(report)
    return [float(v).hex() for value in fields for v in (value if isinstance(value, tuple) else (value,))]


class TestDesignMemo:
    @pytest.mark.parametrize("first, second", [("gated", "ungated"), ("ungated", "gated")])
    def test_warm_report_equals_cold_report(self, first, second):
        point = DesignPoint(11.0, 0.85)
        cold = {}
        for kernel in (first, second):
            mi._design_terms.cache_clear()
            cold[kernel] = report_bits(evaluate_design(point, kernel))
        mi._design_terms.cache_clear()
        warm_first = report_bits(evaluate_design(point, first))
        warm_second = report_bits(evaluate_design(point, second))
        assert mi._design_terms.cache_info().hits == 1
        assert warm_first == cold[first]
        assert warm_second == cold[second]
        assert cold["gated"] != cold["ungated"]

    def test_refused_point_raises_every_time(self):
        evaluate_design(DesignPoint(4.0, 0.85))
        refused = DesignPoint(1e-3, 0.85)  # t_hat below the lattice step: the gate holds no node
        for _ in range(3):
            with pytest.raises(ParameterError, match="holds no node"):
                evaluate_design(refused)
        assert mi._design_terms.cache_info().misses == 4

    def test_memo_holds_one_entry(self):
        for t_hat in (4.0, 5.0, 4.0, 4.0):
            evaluate_design(DesignPoint(t_hat, 0.85))
        info = mi._design_terms.cache_info()
        assert (info.maxsize, info.currsize, info.hits, info.misses) == (1, 1, 1, 3)


def folded_value_oracle(point):
    """Parity blocks K+- of J's upper idler rows, with J assembled on the full lattice."""
    values = assembled_jta(point).values
    half = values.shape[1] // 2
    upper, mirrored = values[:half, :half], values[:half, : half - 1 : -1]
    return upper + mirrored, upper - mirrored


def folded_gram_oracle(point):
    """Parity blocks G+- of J^T J, with J assembled on the full lattice."""
    values = assembled_jta(point).values
    half = values.shape[1] // 2
    rows = values.T[:half] @ values  # rho[p, :] for the upper nodes p
    upper, mirrored = rows[:, :half], rows[:, : half - 1 : -1]
    return upper + mirrored, upper - mirrored


class TestParityFold:
    def test_no_full_lattice_matrix_is_formed(self, monkeypatch):
        shapes = {"top": [], "svd": []}
        real_top, real_svd = mi._top_eigenvalue, np.linalg.svd

        def spy_top(tables, omega, start):
            shapes["top"].append(tables.shape)
            return real_top(tables, omega, start)

        def spy_svd(matrices, *args, **kwargs):
            shapes["svd"].append(matrices.shape)
            return real_svd(matrices, *args, **kwargs)

        monkeypatch.setattr(mi, "_top_eigenvalue", spy_top)
        monkeypatch.setattr(np.linalg, "svd", spy_svd)
        # Both cells have the 192-node lattice, so they make one batch.
        sweep_design_space((12.0, 12.0), (0.1, 0.2), (1, 2), workers=1)
        # The sweep hands the even fold tables only to the power iteration,
        # k matrices of at most n/2 rows and columns, and decomposes nothing.
        assert len(shapes["top"]) == 1 and shapes["top"][0][0] == 2 and max(shapes["top"][0][1:]) <= 96
        assert shapes["svd"] == []
        evaluate_design(DesignPoint(12.0, 0.1))
        assert len(shapes["top"]) == 2 and shapes["top"][1][0] == 1 and max(shapes["top"][1][1:]) <= 96
        assert len(shapes["svd"]) == 1 and shapes["svd"][0][:2] == (2, 1)
        assert max(shapes["svd"][0][2:]) <= 96

    def test_trailing_view_equals_table_at_own_half(self):
        # A sweep builds a chunk's tables at the largest half any row asks
        # for and runs each row's cells on the trailing view.
        gammas = np.linspace(0.1, 12.0, 7)
        for step in (1.0 / 16.0, 1.0 / 32.0):
            large = mi._fold_tables(gammas, 320, step)
            for half in (1, 2, 17, 96, 319):
                assert np.array_equal(large[:, -half:, -half:], mi._fold_tables(gammas, half, step))

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @DESIGN_DRAWS
    def test_blocks_match_folded_gram_of_assembled_amplitude(self, t_hat, gamma_hat, side_pulses, kernel):
        point = DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses)
        _, _, blocks, _ = mi._parity_spectra([point])
        plus, minus = folded_value_oracle(point)
        scale = np.abs(plus).max()
        assert np.abs(blocks[0, 0] - plus).max() <= 1e-13 * scale
        assert np.abs(blocks[1, 0] - minus).max() <= 1e-13 * scale
        # K+-^T K+- are the parity blocks of the signal Gram matrix J^T J.
        even, odd = folded_gram_oracle(point)
        scale = np.abs(even).max()
        assert np.abs(blocks[0, 0].T @ blocks[0, 0] - even).max() <= 1e-13 * scale
        assert np.abs(blocks[1, 0].T @ blocks[1, 0] - odd).max() <= 1e-13 * scale
        # Perron-Frobenius: the top weight lies in the even block, the only
        # one a sweep decomposes.  Where the parities are degenerate the
        # two tops agree to within eigvalsh's backward error, m eps ||G+||_2
        # for blocks of order m.
        top_even, top_odd = np.linalg.eigvalsh(even)[-1], np.linalg.eigvalsh(odd)[-1]
        assert top_even >= top_odd - even.shape[0] * np.finfo(float).eps * top_even

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @DESIGN_DRAWS
    # A single pulse has Hermite-Gauss modes of alternating parity, and the
    # gate at t_hat = 12 keeps that order: the second Schmidt weight comes
    # from the odd block.
    @example(t_hat=12.0, gamma_hat=0.1, side_pulses=0, kernel="gated")
    def test_folded_evaluation_matches_full_lattice_oracle(self, t_hat, gamma_hat, side_pulses, kernel):
        assert_matches_svd_oracle(DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses), kernel)

    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @DESIGN_DRAWS
    def test_power_iteration_matches_eigvalsh(self, t_hat, gamma_hat, side_pulses, kernel):
        point = DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses)
        t, step, blocks, weights = mi._parity_spectra([point])
        even = blocks[0]
        expected = np.linalg.eigvalsh(even.transpose(0, 2, 1) @ even)[:, -1]
        # The library's Hermite-Gauss start vector, and a flat one.
        assert abs(weights[0, 0] / step**2 - expected[0]) <= 1e-13 * expected[0]
        tables = mi._fold_tables(np.array([gamma_hat]), t.size, step)
        omega = train_amplitude(PulseTrainSpec(1.0, t_hat, side_pulses), t)
        flat = mi._top_eigenvalue(tables, omega, np.ones(t.shape)[None])
        assert abs(flat[0] - expected[0]) <= 1e-13 * expected[0]

    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @DESIGN_DRAWS
    def test_efficiency_bounds(self, t_hat, gamma_hat, side_pulses, kernel):
        point = DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses)
        gated = read_in_efficiency(point, kernel="gated")
        ungated = read_in_efficiency(point, kernel="ungated")
        assert ungated <= gated + 1e-12
        if side_pulses == 0:
            # With side pulses the single-pulse bound does not hold.
            assert 0.0 <= ungated and gated <= closed_form_top_weight(gamma_hat) + 1e-12


class TestGaussLegendreOracle:
    @settings(derandomize=True, database=None, max_examples=20, deadline=None)
    @given(t_hat=st.floats(2.0, 12.0), gamma_hat=st.floats(0.1, 3.0))
    def test_oracle_self_converges(self, t_hat, gamma_hat):
        # 3.9e-14 at most over 200 random draws of this rectangle.
        point = DesignPoint(t_hat, gamma_hat)
        assert abs(gauss_legendre_eta(point, 160) - gauss_legendre_eta(point, 224)) <= 1e-13

    @pytest.mark.parametrize("t_hat,gamma_hat", [(2.0, 0.93), (6.0, 0.5), (11.0, 0.85), (11.0, 0.25)])
    def test_lattice_matches_oracle_at_on_grid_gates(self, t_hat, gamma_hat):
        # T/2 is a whole number of steps, so the gate edges fall between
        # nodes: 2.5e-4, 5.6e-6, 5.8e-15 and 2.1e-6 off.  Off the grid the
        # lattice is O(h) off: +1.68e-2 at (2.3226, 0.4317).
        point = DesignPoint(t_hat, gamma_hat)
        assert abs(read_in_efficiency(point) - gauss_legendre_eta(point, 160)) <= 1e-3


class TestTopEigenvalue:
    def test_cell_alone_equals_cell_in_stack(self):
        # The 64 cells of the acceptance row at t_hat = 12 share the
        # 192-node lattice and stop after different numbers of steps.
        gammas = np.linspace(0.1, 2.0, 64)
        half, step = mi._lattice(12.0, 0.1)
        tables = mi._fold_tables(gammas, half, step)
        omega = train_amplitude(PulseTrainSpec(1.0, 12.0, 3), (np.arange(half) + 0.5 - half) * step)
        start = np.random.default_rng(5).uniform(0.5, 1.0, (gammas.size, half))
        stacked = mi._top_eigenvalue(tables, omega, start)
        for cell in range(gammas.size):
            alone = mi._top_eigenvalue(tables[cell : cell + 1].copy(), omega, start[cell : cell + 1].copy())
            assert alone[0] == stacked[cell]

    def test_map_cells_match_svd_within_kato_temple(self):
        # By Kato-Temple a relative residual tau = POWER_TOLERANCE puts the
        # Rayleigh quotient within tau^2 / (1 - rho) of lambda_1, relative,
        # rho = lambda_2 / lambda_1.  Every cell here converges within
        # POWER_STEPS (rho <= 0.173, at t_hat = 2.32, gamma_hat = 2 of the
        # 32x64 map), and any cell that does has rho <= tau^(1/32), so that
        # term is at most 2.3e-16.  The rest is the round-off of theta and of
        # the SVD's sigma_1^2, a few eps each on blocks of at most 96 rows
        # (1.4e-15 at most over the whole 32x64 map), so 1e-14 holds both.
        tau = mi.POWER_TOLERANCE
        assert tau**2 / (1.0 - tau ** (1.0 / mi.POWER_STEPS)) <= 2.3e-16
        four_by_eight = [(t, g) for t in np.linspace(2.0, 5.0, 4) for g in np.linspace(0.2, 1.6, 8)]
        # Every sixth row from the second and every seventh column: 60 cells, the largest rho among them.
        acceptance = [(t, g) for t in np.linspace(2.0, 12.0, 32)[1::6] for g in np.linspace(0.1, 2.0, 64)[::7]]
        for t_hat, gamma_hat in four_by_eight + acceptance:
            _, step, blocks, weights = mi._parity_spectra([DesignPoint(float(t_hat), float(gamma_hat))])
            singular = np.linalg.svd(blocks[0, 0], compute_uv=False)
            assert (singular[1] / singular[0]) ** 2 <= tau ** (1.0 / mi.POWER_STEPS)
            expected = singular[0] ** 2
            assert abs(weights[0, 0] / step**2 - expected) <= 1e-14 * expected, (t_hat, gamma_hat)

    def test_near_degenerate_cell_falls_back_to_svd(self, monkeypatch):
        # The table is the symmetric square root of K^T K, with a flat pump.
        # A well-separated cell converges; in the second lambda_2 / lambda_1
        # ~ 0.998, so 32 power steps shrink the residual by only ~7%.
        grams = np.array([[[2.0, 0.1], [0.1, 0.5]], [[1.0, 1e-3], [1e-3, 0.999]]])
        values, vectors = np.linalg.eigh(grams)
        blocks = (vectors * np.sqrt(values)[:, None, :]) @ vectors.transpose(0, 2, 1)
        expected = values[:, -1]
        calls = []
        real = np.linalg.svd

        def spy(matrices, *args, **kwargs):
            calls.append(real(matrices, *args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(np.linalg, "svd", spy)
        top = mi._top_eigenvalue(blocks, np.ones(2), np.ones((2, 2)))
        assert [singular.shape for singular in calls] == [(1, 2)]
        assert top[1] == calls[0][0, 0] ** 2
        assert (np.abs(top - expected) <= 1e-13 * expected).all()


class TestSweep:
    def test_small_sweep_shape_and_ranges(self):
        emap = sweep_design_space((2.0, 12.0), (0.1, 2.0), (4, 8))
        assert emap.eta_in.shape == (4, 8)
        finite = emap.eta_in[np.isfinite(emap.eta_in)]
        assert finite.size == 32
        assert finite.min() >= 0.0 and finite.max() <= 1.0 + 1e-6
        assert (emap.eta_opt >= np.nanmax(emap.eta_in, axis=1)).all()
        assert (emap.gamma_opt >= 0.1).all() and (emap.gamma_opt <= 2.0).all()

    def test_failures_isolated_per_cell(self, monkeypatch):
        real = mi._top_weights
        failing_batches = []

        def flaky(tables, gammas, t_hat, *args):
            if abs(t_hat - 2.0) < 1e-9 and (np.abs(gammas - 0.1) < 1e-9).any():
                failing_batches.append(gammas)
                raise ParameterError("synthetic failure")
            return real(tables, gammas, t_hat, *args)

        monkeypatch.setattr(mi, "_top_weights", flaky)
        emap = sweep_design_space((2.0, 4.0), (0.1, 1.0), (2, 3))
        assert math.isnan(emap.eta_in[0, 0])
        assert np.isfinite(emap.eta_in).sum() == 5
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (2.0, 0.1)
        assert "synthetic failure" in message
        # The rest of the failing batch is evaluated cell by cell.
        others = [g for g in failing_batches[0].tolist() if g != 0.1]
        assert others
        for gamma_hat in others:
            col = int(np.flatnonzero(emap.gamma_values == gamma_hat)[0])
            assert emap.eta_in[0, col] == read_in_efficiency(DesignPoint(2.0, gamma_hat))

    def test_single_cell_sweep(self):
        emap = sweep_design_space((3.0, 3.0), (0.9, 0.9), (1, 1))
        assert emap.eta_in.shape == (1, 1)
        assert emap.gamma_opt[0] == pytest.approx(0.9)
        assert emap.eta_opt[0] == pytest.approx(emap.eta_in[0, 0])

    def test_thread_count_does_not_change_results(self):
        for rect in (((2.0, 6.0), (0.3, 1.5), (2, 4)), MIXED_LATTICE_RECT):
            serial = sweep_design_space(*rect, workers=1)
            threaded = sweep_design_space(*rect, workers=3)
            assert np.array_equal(serial.eta_in, threaded.eta_in)
            assert np.array_equal(serial.gamma_opt, threaded.gamma_opt)

    def test_cells_match_single_point_evaluation(self):
        # Rows of the mixed rectangle hold cells on several lattice sizes.
        mixed = sweep_design_space(*MIXED_LATTICE_RECT)
        sizes = [
            {midpoint_grid(min(0.5 * t, 5.0 * (1.0 + 1.0 / g)), 1.0 / 16.0).n_points for g in mixed.gamma_values}
            for t in mixed.t_values
        ]
        assert min(len(s) for s in sizes) >= 3 and max(len(s) for s in sizes) == 9
        # At t_hat = 24 the cells at gamma_hat = 0.82 and 9 both have 356
        # nodes, at steps 1/16 and 1/32: one count, two lattices.
        shared = [mi._lattice(24.0, g) for g in (0.82, 9.0)]
        assert {2 * half for half, _ in shared} == {356} and shared[0] != shared[1]
        for emap in (mixed, sweep_design_space((24.0, 24.0), (0.82, 9.0), (1, 2))):
            assert emap.failures == ()
            for row, t_hat in enumerate(emap.t_values):
                for col, gamma_hat in enumerate(emap.gamma_values):
                    expected = read_in_efficiency(DesignPoint(float(t_hat), float(gamma_hat)))
                    assert emap.eta_in[row, col] == expected

    def test_chunked_map_matches_single_point_evaluation(self, monkeypatch):
        # A budget of three tables at the rectangle's largest half, 240:
        # its nine columns split into chunks, each built at its own largest half.
        built = []
        real = mi._fold_tables

        def spy(gammas, half, step):
            built.append((gammas.size, half))
            return real(gammas, half, step)

        monkeypatch.setattr(mi, "_fold_tables", spy)
        monkeypatch.setattr(mi, "TABLE_BYTES", 3 * 8 * 240**2)
        emap = sweep_design_space(*MIXED_LATTICE_RECT, workers=2)
        assert len(built) >= 2 and sum(k for k, _ in built) == emap.gamma_values.size
        assert built[0][1] == 240 and all(8 * k * half**2 <= mi.TABLE_BYTES for k, half in built)
        assert emap.failures == ()
        for row, t_hat in enumerate(emap.t_values):
            for col, gamma_hat in enumerate(emap.gamma_values):
                assert emap.eta_in[row, col] == read_in_efficiency(DesignPoint(float(t_hat), float(gamma_hat)))

    def test_cell_over_lattice_cap_is_a_failure(self):
        emap = sweep_design_space((1e4, 1e4), (0.01, 1.0), (1, 2))
        assert math.isnan(emap.eta_in[0, 0])
        assert np.isfinite(emap.eta_in[0, 1])
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (1e4, 0.01)
        assert "16160" in message

    def test_cell_with_overflowing_lattice_is_a_failure(self):
        emap = sweep_design_space((1e300, 1e300), (1e-300, 1.0), (1, 2))
        assert math.isnan(emap.eta_in[0, 0])
        assert emap.eta_in[0, 1] == read_in_efficiency(DesignPoint(1e300, 1.0))
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (1e300, 1e-300)
        assert message.startswith("lattice of ") and "exceeds the cap" in message

    def test_cells_beyond_base_density_are_evaluated(self):
        # gamma_hat = 12 gets a lattice of 32 points per sigma_p, the others 16.
        emap = sweep_design_space((4.0, 4.0), (2.0, 12.0), (1, 3))
        assert emap.failures == ()
        for col, gamma_hat in enumerate(emap.gamma_values):
            assert emap.eta_in[0, col] == read_in_efficiency(DesignPoint(4.0, float(gamma_hat)))

    def test_pool_sized_by_cpu_affinity(self, monkeypatch):
        sizes = []
        real = mi.ThreadPoolExecutor

        def spy(max_workers):
            sizes.append(max_workers)
            return real(max_workers=max_workers)

        monkeypatch.setattr(mi, "ThreadPoolExecutor", spy)
        monkeypatch.setattr(mi.os, "sched_getaffinity", lambda pid: {0, 2, 5}, raising=False)
        rect = ((3.0, 3.0), (0.9, 0.9), (1, 1))
        sweep_design_space(*rect)
        sweep_design_space(*rect, workers=1)
        assert sizes == [3, 1]
        # Where the affinity call does not exist, the CPU count.
        monkeypatch.delattr(mi.os, "sched_getaffinity")
        monkeypatch.setattr(mi.os, "cpu_count", lambda: 4)
        sweep_design_space(*rect)
        assert sizes == [3, 1, 4]
        for workers in (0, -2):
            with pytest.raises(ParameterError, match="workers must be at least 1"):
                sweep_design_space(*rect, workers=workers)
        assert sizes == [3, 1, 4]

    def test_invalid_ranges_rejected(self):
        with pytest.raises(ParameterError):
            sweep_design_space((0.0, 2.0), (0.1, 1.0), (2, 2))
        with pytest.raises(ParameterError):
            sweep_design_space((2.0, 1.0), (0.1, 1.0), (2, 2))
        with pytest.raises(ParameterError):
            sweep_design_space((2.0, 3.0), (0.1, 1.0), (0, 2))

    def test_map_validation(self):
        with pytest.raises(ParameterError):
            EfficiencyMap(
                t_values=np.array([2.0]),
                gamma_values=np.array([0.5]),
                eta_in=np.array([[1.5]]),
                gamma_opt=np.array([0.5]),
                eta_opt=np.array([1.5]),
            )


class TestSerializationAndComposition:
    def test_csv_layout_and_determinism(self, tmp_path):
        emap = sweep_design_space((2.0, 3.0), (0.4, 1.2), (2, 3))
        first = tmp_path / "map1.csv"
        second = tmp_path / "map2.csv"
        write_efficiency_map_csv(emap, str(first))
        write_efficiency_map_csv(emap, str(second))
        assert first.read_bytes() == second.read_bytes()
        lines = first.read_text().strip().splitlines()
        assert lines[0] == "t_hat,gamma_hat,eta_in"
        assert len(lines) == 1 + 6
        assert lines[1].startswith("2,0.4,")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_sweep_csv_matches_reference_map(self, tmp_path, workers):
        # The bytes the CLI's --output-csv writes for bench/reference's 4x8 rectangle.
        emap = sweep_design_space((2.0, 5.0), (0.2, 1.6), (4, 8), workers=workers)
        written = tmp_path / "sweep.csv"
        write_efficiency_map_csv(emap, str(written))
        assert written.read_bytes() == (REFERENCE_DIR / "design_sweep_4x8.csv").read_bytes()

    def test_summary_payload(self):
        emap = sweep_design_space((2.0, 3.0), (0.4, 1.2), (2, 3))
        payload = efficiency_map_summary(emap)
        assert payload["t_hat"] == [2.0, 3.0]
        assert len(payload["gamma_opt"]) == 2
        assert payload["failures"] == []
        # The lattice controls are inputs; the sweep command's config carries them.
        assert set(payload) == {"t_hat", "gamma_opt", "eta_opt", "gamma_range", "n_gamma", "failures"}
