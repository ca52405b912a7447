import math
import time

import numpy as np
import pytest

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
    total_memory_efficiency,
    write_efficiency_map_csv,
)
from biphoton.schmidt import schmidt_decompose, support
from biphoton.signal_model import GaussianFilterSpec, PulseTrainSpec, TimeGateSpec, TimeGrid


def closed_form_top_weight(gamma_hat):
    # For the single-pulse filtered double Gaussian the Schmidt spectrum is
    # geometric; the top weight is lambda_1^2 = 2P / (1 + P) with
    # P = 1 / sqrt(1 + gamma_hat^2).
    purity = 1.0 / math.sqrt(1.0 + gamma_hat**2)
    return 2.0 * purity / (1.0 + purity)


def midpoint_grid(half_width, step):
    count = max(1, math.ceil(half_width / step - 0.5))
    edge = (count - 0.5) * step
    return TimeGrid(2 * count, -edge, edge)


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


def ungated_kernel_eta_by_svd(point, include_gates=True):
    """eta_in with the ungated kernel, the kernel taken from an SVD.

    The kernel is the signal fundamental of the single-pulse ungated
    amplitude, decomposed on a lattice wide enough to hold the evaluated
    block, which is a centred slice of it.
    """
    step = 1.0 / point.points_per_sigma
    local = 5.0 * (1.0 + 1.0 / point.gamma_hat)
    train = PulseTrainSpec(sigma_p=1.0, period=point.t_hat, n_side_pulses=point.n_side_pulses)
    filt = GaussianFilterSpec(gamma=point.gamma_hat)
    if include_gates:
        grid = midpoint_grid(min(0.5 * point.t_hat, local), step)
        gates = TimeGateSpec(width=point.t_hat)
    else:
        grid = midpoint_grid(point.n_side_pulses * point.t_hat + local, step)
        gates = None
    jta = assemble_gated_jta(train, filt, gates, grid, grid)

    wide = midpoint_grid(max(local, grid.t_max + 0.5 * step), step)
    single = PulseTrainSpec(sigma_p=1.0, period=point.t_hat, n_side_pulses=0)
    mode = schmidt_decompose(assemble_gated_jta(single, filt, None, wide, wide), k_max=1).signal_modes[0]
    offset = (wide.n_points - grid.n_points) // 2
    assert np.allclose(wide.points[offset : offset + grid.n_points], grid.points, rtol=0.0, atol=1e-12)
    kernel = mode[offset : offset + grid.n_points]
    projected = jta.values @ kernel * step
    overlap = float((np.abs(projected) ** 2).sum() * step)
    return overlap / reference_norm_lattice_sum(point.gamma_hat, step)


def svd_report(point, include_gates=True, kernel="gated"):
    """eta_in, purity, gating loss and lambda^2 head by an SVD of the block.

    The route the library took before its weights came from eigvalsh of
    the Gram matrix: singular values of the assembled block, squared and
    scaled by the cell area, against the lattice-sum reference norm.
    """
    step = 1.0 / point.points_per_sigma
    local = 5.0 * (1.0 + 1.0 / point.gamma_hat)
    train = PulseTrainSpec(sigma_p=1.0, period=point.t_hat, n_side_pulses=point.n_side_pulses)
    filt = GaussianFilterSpec(gamma=point.gamma_hat)
    if include_gates:
        grid = midpoint_grid(min(0.5 * point.t_hat, local), step)
        jta = assemble_gated_jta(train, filt, TimeGateSpec(width=point.t_hat), grid, grid)
    else:
        grid = midpoint_grid(point.n_side_pulses * point.t_hat + local, step)
        jta = assemble_gated_jta(train, filt, None, grid, grid)
    weights = np.linalg.svd(jta.values, compute_uv=False) ** 2 * step * step
    reference = reference_norm_lattice_sum(point.gamma_hat, step)
    lambda_sq = weights / weights.sum()
    if kernel == "gated":
        eta = weights[0] / reference
    else:
        eta = ungated_kernel_eta_by_svd(point, include_gates)
    return {
        "eta_in": eta,
        "purity": float((lambda_sq**2).sum()),
        "gating_loss": weights.sum() / reference,
        "lambda_sq_head": lambda_sq[:8],
    }


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
        with pytest.raises(ParameterError):
            DesignPoint(t_hat=2.0, gamma_hat=1.0, points_per_sigma=8)


class TestMidpointLattice:
    def test_nodes_straddle_gate_edges(self):
        grid = mi._midpoint_grid(1.0, 1.0 / 16.0)
        t = grid.points
        assert t.size == 32
        assert np.allclose(np.diff(t), 1.0 / 16.0)
        # Largest node sits half a step inside the half-width.
        assert t[-1] == pytest.approx(1.0 - 0.5 / 16.0, abs=1e-12)
        assert np.allclose(t, -t[::-1], atol=1e-12)

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

    def test_gates_disabled_single_pulse_identity(self):
        point = DesignPoint(t_hat=4.0, gamma_hat=0.7, n_side_pulses=0)
        eta = read_in_efficiency(point, include_gates=False)
        assert eta == pytest.approx(closed_form_top_weight(0.7), abs=5e-4)

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

    def test_ungated_kernel_without_gates_spans_the_train(self):
        # The evaluated lattice holds all side pulses, so it is wider than the
        # single pulse's own support.
        point = DesignPoint(t_hat=4.0, gamma_hat=0.85, n_side_pulses=3)
        ungated = read_in_efficiency(point, include_gates=False, kernel="ungated")
        gated = read_in_efficiency(point, include_gates=False, kernel="gated")
        assert ungated <= gated + 1e-12
        assert abs(ungated - ungated_kernel_eta_by_svd(point, include_gates=False)) <= 1e-12

    @pytest.mark.parametrize(
        "t_hat,gamma_hat,side_pulses,include_gates,kernel",
        [
            (12.0, 0.1, 3, True, "gated"),
            (11.0, 0.85, 3, True, "gated"),
            (2.0, 0.9268, 3, True, "gated"),
            (6.0, 0.5, 3, True, "ungated"),
            (11.0, 0.85, 3, True, "ungated"),
            (4.0, 0.7, 0, False, "gated"),
            (4.0, 0.85, 3, False, "gated"),
            (4.0, 0.85, 3, False, "ungated"),
        ],
    )
    def test_eigen_route_matches_svd_oracle(self, t_hat, gamma_hat, side_pulses, include_gates, kernel):
        point = DesignPoint(t_hat, gamma_hat, n_side_pulses=side_pulses)
        report = evaluate_design(point, include_gates=include_gates, kernel=kernel)
        oracle = svd_report(point, include_gates, kernel)
        assert abs(report.eta_in - oracle["eta_in"]) <= 1e-12
        assert abs(report.purity - oracle["purity"]) <= 1e-12
        assert abs(report.gating_loss - oracle["gating_loss"]) <= 1e-12
        head = np.array(report.lambda_sq_head)
        assert head.size == oracle["lambda_sq_head"].size
        assert np.abs(head - oracle["lambda_sq_head"]).max() <= 1e-12

    def test_trimmed_no_gates_block_matches_svd_oracle(self):
        # Without gates the lattice spans the filter tails of the whole train,
        # while the signal axis holds only the pump pulses: the Gram matrix is
        # formed on fewer columns than the lattice has.
        point = DesignPoint(t_hat=4.0, gamma_hat=0.5, n_side_pulses=1)
        _, values, _ = mi._evaluate_batch([point], include_gates=False)
        _, cols = support(values)
        assert cols.stop - cols.start < values.shape[2]

        report = evaluate_design(point, include_gates=False)
        oracle = svd_report(point, include_gates=False)
        assert abs(report.eta_in - oracle["eta_in"]) <= 1e-12
        assert abs(report.purity - oracle["purity"]) <= 1e-12
        assert abs(report.gating_loss - oracle["gating_loss"]) <= 1e-12
        assert np.abs(np.array(report.lambda_sq_head) - oracle["lambda_sq_head"]).max() <= 1e-12

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
        with pytest.raises(ParameterError, match="exceeds the cap"):
            evaluate_design(DesignPoint(t_hat=1e9, gamma_hat=1.0), include_gates=False)
        assert time.perf_counter() - start < 1.0
        largest_gated = mi._lattice(DesignPoint(t_hat=12.0, gamma_hat=0.1)).n_points
        assert largest_gated == 192 <= mi.MAX_LATTICE_POINTS // 16

    def test_filter_beyond_lattice_resolution_refused(self):
        # The filter response exp(-(gamma_hat t)^2) decays on a scale of
        # 1/gamma_hat against a lattice step of 1/points_per_sigma.  At
        # gamma_hat = points_per_sigma / 2 the lattice has converged
        # (t_hat = 4, against 64 points per sigma: 1.4e-16 measured);
        # beyond it the point is refused.
        for gamma_hat, density in ((8.0, 16), (16.0, 32)):
            coarse = read_in_efficiency(DesignPoint(4.0, gamma_hat, points_per_sigma=density))
            fine = read_in_efficiency(DesignPoint(4.0, gamma_hat, points_per_sigma=64))
            assert abs(coarse - fine) <= 1e-12
        with pytest.raises(ParameterError, match=r"gamma_hat = 8\.5 exceeds points_per_sigma / 2 = 8"):
            evaluate_design(DesignPoint(t_hat=4.0, gamma_hat=8.5))
        with pytest.raises(ParameterError, match=r"gamma_hat = 1e\+300"):
            evaluate_design(DesignPoint(t_hat=2.0, gamma_hat=1e300))

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
        coarse = read_in_efficiency(DesignPoint(t_hat, gamma_hat, points_per_sigma=16))
        fine = read_in_efficiency(DesignPoint(t_hat, gamma_hat, points_per_sigma=32))
        assert abs(coarse - fine) < 1e-3


class TestSweep:
    def test_small_sweep_shape_and_ranges(self):
        emap = sweep_design_space((2.0, 12.0), (0.1, 2.0), (4, 8))
        assert emap.eta_in.shape == (4, 8)
        finite = emap.eta_in[np.isfinite(emap.eta_in)]
        assert finite.size == 32
        assert finite.min() >= 0.0 and finite.max() <= 1.0 + 1e-6
        assert emap.row_optimum_consistent()
        assert emap.controls == {"n_side_pulses": 3, "points_per_sigma": 16}
        assert (emap.gamma_opt >= 0.1).all() and (emap.gamma_opt <= 2.0).all()

    def test_failures_isolated_per_cell(self, monkeypatch):
        real = mi._evaluate_batch
        failing_batches = []

        def flaky(points, *args, **kwargs):
            if any(abs(p.gamma_hat - 0.1) < 1e-9 and abs(p.t_hat - 2.0) < 1e-9 for p in points):
                failing_batches.append(points)
                raise ParameterError("synthetic failure")
            return real(points, *args, **kwargs)

        monkeypatch.setattr(mi, "_evaluate_batch", flaky)
        emap = sweep_design_space((2.0, 4.0), (0.1, 1.0), (2, 3))
        assert math.isnan(emap.eta_in[0, 0])
        assert np.isfinite(emap.eta_in).sum() == 5
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (2.0, 0.1)
        assert "synthetic failure" in message
        # The rest of the failing batch is evaluated cell by cell.
        others = [p for p in failing_batches[0] if p.gamma_hat != 0.1]
        assert others
        for point in others:
            col = int(np.flatnonzero(emap.gamma_values == point.gamma_hat)[0])
            assert emap.eta_in[0, col] == read_in_efficiency(point)

    def test_single_cell_sweep(self):
        emap = sweep_design_space((3.0, 3.0), (0.9, 0.9), (1, 1))
        assert emap.eta_in.shape == (1, 1)
        assert emap.gamma_opt[0] == pytest.approx(0.9)
        assert emap.eta_opt[0] == pytest.approx(emap.eta_in[0, 0])

    def test_thread_count_does_not_change_results(self, monkeypatch):
        monkeypatch.delenv(mi.ENV_THREADS, raising=False)
        for rect in (((2.0, 6.0), (0.3, 1.5), (2, 4)), MIXED_LATTICE_RECT):
            serial = sweep_design_space(*rect, workers=1)
            threaded = sweep_design_space(*rect, workers=3)
            assert np.array_equal(serial.eta_in, threaded.eta_in)
            assert np.array_equal(serial.gamma_opt, threaded.gamma_opt)

    def test_cells_match_single_point_evaluation(self):
        # Rows of this rectangle hold cells on several lattice sizes.
        emap = sweep_design_space(*MIXED_LATTICE_RECT)
        sizes = [
            {midpoint_grid(min(0.5 * t, 5.0 * (1.0 + 1.0 / g)), 1.0 / 16.0).n_points for g in emap.gamma_values}
            for t in emap.t_values
        ]
        assert min(len(s) for s in sizes) >= 3 and max(len(s) for s in sizes) == 9
        assert emap.failures == ()
        for row, t_hat in enumerate(emap.t_values):
            for col, gamma_hat in enumerate(emap.gamma_values):
                expected = read_in_efficiency(DesignPoint(float(t_hat), float(gamma_hat)))
                assert abs(emap.eta_in[row, col] - expected) <= 1e-14

    def test_cell_over_lattice_cap_is_a_failure(self):
        emap = sweep_design_space((1e4, 1e4), (0.01, 1.0), (1, 2))
        assert math.isnan(emap.eta_in[0, 0])
        assert np.isfinite(emap.eta_in[0, 1])
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (1e4, 0.01)
        assert "16160" in message

    def test_cell_beyond_lattice_resolution_is_a_failure(self):
        emap = sweep_design_space((4.0, 4.0), (2.0, 12.0), (1, 3))
        assert np.isfinite(emap.eta_in[0, :2]).all() and math.isnan(emap.eta_in[0, 2])
        assert len(emap.failures) == 1
        t_fail, g_fail, message = emap.failures[0]
        assert (t_fail, g_fail) == (4.0, 12.0)
        assert "gamma_hat = 12 exceeds points_per_sigma / 2 = 8" in message

    def test_env_variable_controls_workers(self, monkeypatch):
        monkeypatch.setenv(mi.ENV_THREADS, "2")
        assert mi._worker_count(None) == 2
        monkeypatch.setenv(mi.ENV_THREADS, "0")
        assert mi._worker_count(None) >= 1
        monkeypatch.setenv(mi.ENV_THREADS, "three")
        with pytest.raises(ParameterError):
            mi._worker_count(None)
        with pytest.raises(ParameterError):
            mi._worker_count(-2)

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

    def test_summary_payload(self):
        emap = sweep_design_space((2.0, 3.0), (0.4, 1.2), (2, 3))
        payload = efficiency_map_summary(emap)
        assert payload["t_hat"] == [2.0, 3.0]
        assert len(payload["gamma_opt"]) == 2
        assert payload["failures"] == []
        assert payload["controls"]["points_per_sigma"] == 16

    def test_total_memory_efficiency(self):
        assert total_memory_efficiency(0.8, 0.5) == pytest.approx(0.4)
        with pytest.raises(ParameterError):
            total_memory_efficiency(1.2, 0.5)
        with pytest.raises(ParameterError):
            total_memory_efficiency(0.5, -0.1)
