"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and
emits a single PASS/FAIL line (replayed in the "acceptance criteria"
section of the terminal summary).  Tolerances are pinned here and must
not be loosened without revisiting the design record.
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import half_maximum_width, record_criterion
from test_counting import synthetic_sweep
from test_joint_amplitude import marginal_by_quadrature
from test_memory_interface import REFERENCE_DIR, lattice_step, svd_report

from biphoton.cli import main as cli_main
from biphoton.counting import (
    CountRecord,
    OpticalPath,
    SweepPoint,
    fit_hsp_bandwidth,
    heralded_g2,
    heralding_efficiency,
)
from biphoton.joint_amplitude import (
    assemble_gated_jta,
    marginal_signal_spectrum,
    quadrature_marginal_fwhm,
    to_frequency_domain,
)
from biphoton.memory_interface import (
    DesignPoint,
    evaluate_design,
    read_in_efficiency,
    sweep_design_space,
    write_efficiency_map_csv,
)
from biphoton.schmidt import schmidt_decompose
from biphoton.signal_model import (
    GaussianFilterSpec,
    PulseTrainSpec,
    TimeGateSpec,
    TimeGrid,
    gamma_from_filter_fwhm,
    sigma_p_from_pump_fwhm,
)

PUMP_FWHM_GHZ = 1.3
FILTER_FWHM_GHZ = 1.4
EXPERIMENT = DesignPoint(t_hat=11.0, gamma_hat=0.85)


def report(number, ok, detail):
    line = record_criterion(number, ok, detail)
    assert ok, line


def midpoint_grid(half_width, step):
    count = max(1, math.ceil(half_width / step - 0.5))
    edge = (count - 0.5) * step
    return TimeGrid(2 * count, -edge, edge)


def single_pulse_jta(sigma_p, gamma, points_per_sigma=16):
    """Ungated filtered single-pulse joint amplitude on a covering grid."""
    train = PulseTrainSpec(sigma_p=sigma_p, period=1.0, n_side_pulses=0)
    filt = GaussianFilterSpec(gamma=gamma)
    grid = midpoint_grid(5.0 * sigma_p + 5.0 / gamma, sigma_p / points_per_sigma)
    return assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)


@pytest.fixture(scope="module")
def design_sweep():
    start = time.perf_counter()
    emap = sweep_design_space((2.0, 12.0), (0.1, 2.0), (32, 64))
    return emap, time.perf_counter() - start


def test_criterion_1_design_space_landmarks(design_sweep):
    emap, elapsed = design_sweep
    gamma_step = (2.0 - 0.1) / 63
    gamma_at_2 = float(emap.gamma_opt[0])
    tail = emap.gamma_opt[emap.t_values >= 10.0]
    increases = np.diff(emap.gamma_opt)
    ok = (
        elapsed < 300.0
        and abs(gamma_at_2 - 0.9) <= 0.15
        and bool(np.all((tail >= 0.15) & (tail <= 0.35)))
        and bool(np.all(increases <= gamma_step + 1e-12))
    )
    report(
        1,
        ok,
        f"32x64 sweep in {elapsed:.1f} s (<300); gamma_opt(t=2)={gamma_at_2:.4f} "
        f"vs 0.9+/-0.15; gamma_opt(t>=10) in [{tail.min():.4f},{tail.max():.4f}] "
        f"vs [0.15,0.35]; largest increase {increases.max():+.2e} <= step {gamma_step:.4f}",
    )


def test_acceptance_map_matches_reference_csv(design_sweep, tmp_path):
    # The bytes the CLI's --output-csv writes for the acceptance rectangle.
    written = tmp_path / "sweep_32x64.csv"
    write_efficiency_map_csv(design_sweep[0], str(written))
    assert written.read_bytes() == (REFERENCE_DIR / "design_sweep_32x64.csv").read_bytes()


def test_criterion_2_experimental_design_point():
    eta = read_in_efficiency(EXPERIMENT)
    measured, measured_err = 0.76, 0.10
    sigmas = abs(eta - measured) / measured_err
    ok = 0.70 <= eta <= 0.90 and sigmas < 2.0
    report(
        2,
        ok,
        f"eta_in(11, 0.85)={eta:.4f} in [0.70, 0.90]; "
        f"{sigmas:.2f} sigma from the measured ratio {measured}+/-{measured_err}",
    )


def test_criterion_3_purity():
    sigma_p = sigma_p_from_pump_fwhm(PUMP_FWHM_GHZ)
    gamma = gamma_from_filter_fwhm(FILTER_FWHM_GHZ)
    purity = schmidt_decompose(single_pulse_jta(sigma_p, gamma), k_max=1).purity

    worst = 0.0
    for gamma_hat in (0.3, 0.7615, 1.0, 2.0, 3.0):
        svd = schmidt_decompose(single_pulse_jta(1.0, gamma_hat), k_max=1).purity
        closed = 1.0 / math.sqrt(1.0 + gamma_hat**2)
        worst = max(worst, abs(svd - closed))

    ok = abs(purity - 0.77) <= 0.03 and worst <= 1e-3
    report(
        3,
        ok,
        f"purity(1.3 GHz pump, 1.4 GHz filter)={purity:.4f} vs 0.77+/-0.03; "
        f"max |SVD - closed form|={worst:.2e} <= 1e-3 over gamma_hat in [0.3, 3]",
    )


def test_criterion_4_marginal_bandwidth():
    result = marginal_signal_spectrum(PUMP_FWHM_GHZ, FILTER_FWHM_GHZ)
    quadrature = quadrature_marginal_fwhm(PUMP_FWHM_GHZ, FILTER_FWHM_GHZ)
    rel = abs(result.fwhm - quadrature) / quadrature
    # Independent route: the nu_i-marginal integrated numerically.
    curve = marginal_by_quadrature(result.frequencies, PUMP_FWHM_GHZ, FILTER_FWHM_GHZ)
    numerical = half_maximum_width(result.frequencies, curve)
    rel_numerical = abs(result.fwhm - numerical) / numerical
    ok = 1.56 <= result.fwhm <= 1.68 and rel <= 1e-3 and rel_numerical <= 1e-3
    report(
        4,
        ok,
        f"marginal FWHM={result.fwhm:.5f} GHz in [1.56, 1.68]; "
        f"vs quadrature {quadrature:.5f} GHz, relative gap {rel:.2e} <= 1e-3; "
        f"vs numerical nu_i-marginal {numerical:.5f} GHz, relative gap {rel_numerical:.2e} <= 1e-3",
    )


def test_criterion_5_counting_formulas():
    record = CountRecord(
        pump_power_mw=10.0,
        c_t=10000.0,
        c_h=5000.0,
        c_v=5000.0,
        c_h_given_t=70.0,
        c_v_given_t=65.0,
        c_hv_given_t=0.5,
        acc_s_given_t=10.0,
        integration_time_s=2.0,
    )
    path = OpticalPath(transmission=0.10, detector_efficiency=0.5, transmission_err=0.01)
    eta = heralding_efficiency(record, path)
    hand_err = math.sqrt(
        (math.sqrt(145.0 / 2.0) / 500.0) ** 2
        + (0.25 * math.sqrt(10000.0 / 2.0) / 10000.0) ** 2
        + (0.25 * 0.01 / 0.10) ** 2
    )

    coherent = CountRecord(
        pump_power_mw=10.0,
        c_t=1000.0,
        c_h=500.0,
        c_v=500.0,
        c_h_given_t=100.0,
        c_v_given_t=100.0,
        c_hv_given_t=10.0,
        acc_s_given_t=0.0,
    )
    scaled = CountRecord(
        pump_power_mw=10.0,
        c_t=7000.0,
        c_h=3500.0,
        c_v=3500.0,
        c_h_given_t=700.0,
        c_v_given_t=700.0,
        c_hv_given_t=70.0,
        acc_s_given_t=0.0,
    )
    g2_zero = heralded_g2(
        CountRecord(
            pump_power_mw=10.0,
            c_t=10000.0,
            c_h=5000.0,
            c_v=5000.0,
            c_h_given_t=70.0,
            c_v_given_t=65.0,
            c_hv_given_t=0.0,
            acc_s_given_t=10.0,
        )
    ).value
    g2_one = heralded_g2(coherent).value
    g2_drift = abs(heralded_g2(coherent).value - heralded_g2(scaled).value)

    ok = (
        abs(eta.value - 0.25) <= 1e-12
        and abs(eta.err - hand_err) <= 1e-12
        and abs(eta.err - 0.03) <= 0.002
        and g2_zero == 0.0
        and abs(g2_one - 1.0) <= 1e-12
        and g2_drift <= 1e-12
    )
    report(
        5,
        ok,
        f"eta_her={eta.value:.4f}+/-{eta.err:.4f} vs 0.25+/-0.03; "
        f"g2: zero-triples={g2_zero}, coherent={g2_one:.12f}, "
        f"scale drift={g2_drift:.1e} <= 1e-12",
    )


def test_criterion_6_spectral_fit_round_trip():
    filt = GaussianFilterSpec.from_amplitude_fwhm(1.1)
    noiseless_errs = {}
    for truth in (0.8, 1.78, 3.0):
        fit = fit_hsp_bandwidth(synthetic_sweep(truth, 1.1), filt)
        noiseless_errs[truth] = abs(fit.delta_nu_ghz - truth) / truth

    rng = np.random.default_rng(20260815)
    noisy = [
        SweepPoint(p.detuning_ghz, p.normalized_rate * rng.normal(1.0, 0.02))
        for p in synthetic_sweep(1.78, 1.1)
    ]
    noisy_err = abs(fit_hsp_bandwidth(noisy, filt).delta_nu_ghz - 1.78) / 1.78

    ok = max(noiseless_errs.values()) <= 0.01 and noisy_err <= 0.05
    detail = ", ".join(f"{k}->{v:.2%}" for k, v in noiseless_errs.items())
    report(
        6,
        ok,
        f"noiseless recovery errors ({detail}) <= 1%; "
        f"2% multiplicative noise (fixed seed) -> {noisy_err:.2%} <= 5%",
    )


def test_criterion_7_numerical_hygiene(design_sweep):
    emap, _ = design_sweep

    # Parseval and Schmidt-weight closure on the gated experimental JTA.
    step = 1.0 / 16.0
    half = EXPERIMENT.t_hat / 2.0
    grid = midpoint_grid(half, step)
    train = PulseTrainSpec(sigma_p=1.0, period=EXPERIMENT.t_hat)
    filt = GaussianFilterSpec(gamma=EXPERIMENT.gamma_hat)
    gates = TimeGateSpec(width=EXPERIMENT.t_hat)
    jta = assemble_gated_jta(train, filt, gates=gates, grid_i=grid, grid_s=grid)
    parseval = abs(to_frequency_domain(jta).norm_squared - jta.norm_squared) / jta.norm_squared
    decomposition = schmidt_decompose(jta, k_max=8)
    weight_closure = abs(float(np.sum(decomposition.singular_values**2)) - 1.0)

    finite = emap.eta_in[np.isfinite(emap.eta_in)]
    eta_bounds_ok = finite.size == emap.eta_in.size and -1e-6 <= finite.min() and finite.max() <= 1.0 + 1e-6

    anchors = [EXPERIMENT, DesignPoint(t_hat=2.0, gamma_hat=0.93)]
    m_conv = max(
        abs(
            read_in_efficiency(DesignPoint(p.t_hat, p.gamma_hat, n_side_pulses=3))
            - read_in_efficiency(DesignPoint(p.t_hat, p.gamma_hat, n_side_pulses=4))
        )
        for p in anchors
    )
    grid_conv = max(
        abs(read_in_efficiency(p) - svd_report(p, step=0.5 * lattice_step(p))["eta_in"]) for p in anchors
    )

    ok = (
        parseval <= 1e-9
        and weight_closure <= 1e-9
        and eta_bounds_ok
        and not emap.failures
        and m_conv < 1e-6
        and grid_conv < 1e-3
    )
    report(
        7,
        ok,
        f"Parseval {parseval:.1e} <= 1e-9; sum(lambda^2)-1 = {weight_closure:.1e} <= 1e-9; "
        f"eta_in in [{finite.min():.1e}, {finite.max():.6f}] with {len(emap.failures)} failures; "
        f"M-convergence {m_conv:.1e} < 1e-6; grid-doubling {grid_conv:.1e} < 1e-3",
    )


def test_criterion_8_determinism(tmp_path):
    runner = CliRunner()
    args = [
        "sweep",
        "--t-min", "2", "--t-max", "5", "--t-steps", "4",
        "--gamma-min", "0.2", "--gamma-max", "1.6", "--gamma-steps", "8",
    ]
    first = tmp_path / "first.csv"
    second = tmp_path / "second.csv"
    for target in (first, second):
        result = runner.invoke(cli_main, args + ["--output-csv", str(target)])
        assert result.exit_code == 0, result.output
    identical = first.read_bytes() == second.read_bytes()
    report(
        8,
        identical,
        f"repeated sweep CSVs byte-identical: {identical} "
        f"({first.stat().st_size} bytes each)",
    )
