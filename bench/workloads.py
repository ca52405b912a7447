"""The four benchmark workloads; one worker process runs one of them.

run.py starts this file with the thread environment already set
(``OPENBLAS_NUM_THREADS=1``, ``BIPHOTON_THREADS=nproc``) and
``PYTHONPATH`` pointing at the checkout's ``src``:

    python bench/workloads.py --workload NAME --seed N --seconds S \
        --trace 0|1 --mode setup|run --tmp DIR [--smoke]

The worker imports the toolkit, generates its seeded inputs and makes one
warm-up call per entry point, then prints ``READY``.  In ``setup`` mode it
exits there; run.py times several such processes for ``setup_s``.  In
``run`` mode it drives the workload as a closed loop (one client, the
next operation starts when the previous one returns), checks every output
and prints one JSON line.

Each workload runs in groups of operations (a pool/serial sweep pair, a
pass over fresh design points, a lab session, a cycle over the CLI
commands).  A run makes a fixed number of groups, sized so that at the
seed commit they take about ``--seconds`` (``GROUP_SECONDS``): every run
of every commit does the same work, so counts and totals compare across
commits.  With ``--trace 1`` groups alternate between untraced and
traced; the per-layer numbers come from the traced groups and
``trace.overhead_ratio`` from comparing the two kinds.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import warnings
from pathlib import Path

import inputs
from tracer import Tracer, layer_metrics, load_spans

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent

# Tolerances.  None is looser than the acceptance test that covers the
# same quantity (criteria 1, 3, 4, 6 and 7).
MAP_TOLERANCE = 1e-8  # |eta - reference| per sweep cell; the reference holds 9 digits
ETA_BOUND_SLACK = 1e-6  # eta_in must lie in [-1e-6, 1 + 1e-6] (criterion 7)
WEIGHT_CLOSURE = 1e-9  # |sum lambda^2 - 1| (criterion 7)
PARSEVAL = 1e-9  # relative norm change under to_frequency_domain (criterion 7)
PURITY_TOLERANCE = 1e-3  # |P - 1/sqrt(1 + gamma_hat^2)| (criterion 3)
KERNEL_ROUNDOFF = 1e-12  # ungated eta may exceed gated eta by round-off only
SPECTRUM_TOLERANCE = 1e-3  # relative FWHM gap to quadrature_marginal_fwhm (criterion 4)
FIT_TOLERANCE = 0.05  # relative bandwidth error on 2%-noise sweeps (criterion 6)

# Seconds one group of operations takes at the seed commit on a 2-CPU
# Xeon VM; a run makes round(--seconds / GROUP_SECONDS) groups.
GROUP_SECONDS = {
    "design_sweep": 11.5,
    "mode_analysis": 0.9,
    "lab_reduction": 0.22,
    "cli_session": 5.0,
}
# A commit this many times slower than the seed stops starting groups
# after this many times --seconds, so that a run still ends in time.
STOP_FACTOR = 3.0
# Candidate tail percentiles; the tail is the highest with at least ten
# samples beyond it, else the maximum.
TAIL_CANDIDATES = (99.0, 95.0, 90.0, 75.0, 50.0)

# The shared host's CPUs change speed by up to about 1.5x in phases of
# seconds to minutes, and every timing of a run moves with them.  So the
# worker times a fixed pure-Python loop (best of three) before and after
# every group of operations, and reported times (all but design_sweep's,
# see DesignSweep.scaled) are scaled to the
# speed at which that loop takes CALIBRATION_REFERENCE_S: a sample is
# multiplied by the reference over the mean of the calibrations around
# it.  The reference is the loop's time in the fast phase of the 2-CPU
# Xeon VM the benchmark was written on, so there scaled and measured
# times agree.  The loop runs while the program is idle and does not use
# it, so a slower program reads slower at any machine speed.
CALIBRATION_LOOP = 30000
CALIBRATION_REFERENCE_S = 1.8e-3

OPTICAL_PATH = {"transmission": 0.10, "detector_efficiency": 0.5, "transmission_err": 0.01}


def sig9(value: float) -> float:
    """Nine significant digits, the precision of every CLI artifact.

    Kept apart from ``biphoton.formatting`` so that the CLI check does not
    trust the rounding it checks.
    """
    return float(f"{float(value):.9g}")


def percentile(values: list[float], pct: float) -> float:
    """Linear-interpolation percentile, as numpy's default method."""
    ordered = sorted(values)
    position = (len(ordered) - 1) * pct / 100.0
    low = math.floor(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def tail_percentile(samples: int) -> float:
    """The highest candidate percentile with at least ten samples beyond it."""
    for pct in TAIL_CANDIDATES:
        if samples * (1.0 - pct / 100.0) >= 10.0:
            return pct
    return 100.0


def tail(values: list[float]) -> tuple[float, float]:
    """(tail percentile, its value) of a list of samples."""
    pct = tail_percentile(len(values))
    return pct, percentile(values, pct)


def calibrate() -> float:
    """Seconds the calibration loop takes now, best of three."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        total = 0
        for k in range(CALIBRATION_LOOP):
            total += k * k
        best = min(best, time.perf_counter() - start)
    return best


def option(args: list[str], flag: str, default: str | None = None) -> str | None:
    """The value that follows ``flag`` in a CLI argument list."""
    return args[args.index(flag) + 1] if flag in args else default


def run_cli(args: list[str]) -> int:
    """Run one ``biphoton`` command in this process; return its exit code."""
    import click
    from biphoton import cli

    try:
        cli.main(args=args, prog_name="biphoton", standalone_mode=False)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    except click.ClickException as exc:
        return exc.exit_code
    return 0


def cli_expected(command: str, args: list[str]) -> dict:
    """The JSON fields one CLI call must print, computed with the public API."""
    from biphoton import counting, joint_amplitude, memory_interface, signal_model

    if command == "efficiency":
        config = option(args, "--config")
        if config is not None:
            with open(config) as handle:
                values = json.load(handle)
            t_hat, gamma_hat = values["t_hat"], values["gamma_hat"]
        else:
            t_hat, gamma_hat = float(option(args, "--t-hat")), float(option(args, "--gamma-hat"))
        report = memory_interface.evaluate_design(memory_interface.DesignPoint(t_hat, gamma_hat))
        fields = {
            name: sig9(getattr(report, name))
            for name in ("eta_in", "purity", "schmidt_number", "gating_loss",
                         "top_mode_weight", "norm_gated", "norm_reference")
        }
        return {**fields, "lambda_sq_head": [sig9(v) for v in report.lambda_sq_head]}
    if command == "spectrum":
        pump, filt = float(option(args, "--pump-fwhm-ghz")), float(option(args, "--filter-fwhm-ghz"))
        center = float(option(args, "--filter-center-ghz", "0"))
        result = joint_amplitude.marginal_signal_spectrum(pump, filt, filter_center=center)
        peak = max(range(len(result.intensity)), key=lambda k: result.intensity[k])
        return {
            "fwhm_GHz": sig9(result.fwhm),
            "quadrature_fwhm_GHz": sig9(joint_amplitude.quadrature_marginal_fwhm(pump, filt)),
            "peak_frequency_GHz": sig9(result.frequencies[peak]),
        }
    if command == "analyze":
        records, issues = counting.read_counts_csv(option(args, "--counts-csv"))
        path = counting.OpticalPath(**OPTICAL_PATH)
        rows = []
        for record in records:
            eta = counting.heralding_efficiency(record, path)
            net = counting.subtract_accidentals(record)
            g2 = counting.heralded_g2(record)
            rows.append({
                "pump_power_mW": sig9(record.pump_power_mw),
                "eta_her": sig9(eta.value), "eta_her_err": sig9(eta.err),
                "net_rate": sig9(net.value), "net_rate_clipped": net.clipped,
                "g2": sig9(g2.value), "g2_err": sig9(g2.err),
            })
        fits = {}
        for label, channel in (("c_T", "c_t"), ("c_s_given_T", "c_s_given_t"),
                               ("signal_singles", "c_signal_total")):
            fit = counting.linear_rate_fit(records, channel)
            rms = math.sqrt(sum(r * r for r in fit.residuals.tolist()) / len(records))
            fits[label] = {"slope": sig9(fit.slope), "intercept": sig9(fit.intercept),
                           "residual_rms": sig9(rms)}
        return {"records": rows, "fits": fits, "skipped_rows": issues}
    if command == "fit-spectrum":
        points = counting.read_sweep_csv(option(args, "--sweep-csv"))
        filt = signal_model.GaussianFilterSpec.from_amplitude_fwhm(float(option(args, "--filter-fwhm-ghz")))
        model = option(args, "--transmission-model", "intensity")
        fit = counting.fit_hsp_bandwidth(points, filt, transmission=model)
        return {
            "delta_t_ns": sig9(fit.delta_t_ns), "delta_nu_GHz": sig9(fit.delta_nu_ghz),
            "center_GHz": sig9(fit.center_ghz), "scale": sig9(fit.scale),
            "resolution_limited": fit.resolution_limited, "n_points": len(points),
        }
    if command == "sweep":
        rect = (
            (float(option(args, "--t-min")), float(option(args, "--t-max"))),
            (float(option(args, "--gamma-min")), float(option(args, "--gamma-max"))),
            (int(option(args, "--t-steps")), int(option(args, "--gamma-steps"))),
        )
        emap = memory_interface.sweep_design_space(*rect)
        return {
            "gamma_opt": [sig9(v) for v in emap.gamma_opt.tolist()],
            "eta_opt": [sig9(v) for v in emap.eta_opt.tolist()],
            "failures": [],
        }
    raise ValueError(f"no expected fields for command {command!r}")


def payload_problems(payload: dict, want: dict) -> list[str]:
    """Fields of a CLI JSON payload that differ from the API values."""
    return [
        f"{field} = {payload.get(field)!r}, API gives {value!r}"
        for field, value in want.items()
        if payload.get(field) != value
    ][:5]


def read_map_csv(path: Path) -> list[tuple[str, str, float]]:
    """Rows (t_hat text, gamma_hat text, eta_in) of a sweep CSV."""
    with open(path) as handle:
        lines = handle.read().splitlines()
    if lines[0] != "t_hat,gamma_hat,eta_in":
        raise ValueError(f"{path.name}: unexpected header {lines[0]!r}")
    rows = []
    for line in lines[1:]:
        t_hat, gamma_hat, eta = line.split(",")
        rows.append((t_hat, gamma_hat, float(eta)))
    return rows


def compare_maps(written: Path, reference: Path) -> list[str]:
    """Problems found comparing a written sweep CSV with a committed reference."""
    got, want = read_map_csv(written), read_map_csv(reference)
    if len(got) != len(want):
        return [f"sweep CSV has {len(got)} cells, reference {len(want)}"]
    problems = []
    worst = 0.0
    for (t_got, g_got, eta_got), (t_want, g_want, eta_want) in zip(got, want):
        if (t_got, g_got) != (t_want, g_want):
            return [f"sweep CSV axes differ from the reference at ({t_got}, {g_got})"]
        gap = abs(eta_got - eta_want) if math.isfinite(eta_got) else math.inf
        worst = max(worst, gap)
    if worst > MAP_TOLERANCE:
        problems.append(f"sweep map differs from {reference.name} by {worst:.3e} > {MAP_TOLERANCE}")
    return problems


class Context:
    def __init__(self, args: argparse.Namespace) -> None:
        self.seed = args.seed
        self.smoke = args.smoke
        self.tmp = Path(args.tmp)
        self.tmp.mkdir(parents=True, exist_ok=True)


class Workload:
    """Shared bookkeeping: timed samples, calibrations, attempts and failures."""

    name = ""
    # Whether the workload's times are scaled to the reference speed.
    scaled = True

    def __init__(self, ctx: Context) -> None:
        self.ctx = ctx
        # key -> [(seconds, index of the calibration taken just before)]
        self.samples: dict[str, list[tuple[float, int]]] = {}
        self.ticks: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []
        self.nonzero_exits = 0

    def tick(self) -> None:
        """Time the calibration loop; measure() calls it around every group."""
        self.ticks.append(calibrate())

    def record(self, key: str, seconds: float, traced: bool) -> float:
        """Keep a timed sample; traced groups and warm-up calls pass traced=True."""
        if not traced:
            self.samples.setdefault(key, []).append((seconds, len(self.ticks) - 1))
        return seconds

    def values(self, key: str, scaled: bool = True) -> list[float]:
        """The untraced samples of ``key``, scaled to the reference speed or as measured."""
        if not (scaled and self.scaled):
            return [seconds for seconds, _ in self.samples.get(key, [])]
        return [
            seconds * CALIBRATION_REFERENCE_S / statistics.mean(self.ticks[i : i + 2])
            for seconds, i in self.samples.get(key, [])
        ]

    def attempt(self, label: str, action) -> float:
        """Run one operation; an exception or a failed check counts it as failed.

        ``action`` returns (timed seconds, list of problems).
        """
        self.attempted += 1
        try:
            seconds, problems = action()
        except Exception as exc:  # the benchmark must keep going and report it
            self.failures.append(f"{label}: {type(exc).__name__}: {exc}")
            return 0.0
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))
        return seconds

    def call_cli(self, command: str, args: list[str], traced: bool) -> tuple[float, dict | None]:
        """Run one CLI command in this process, time it and load its JSON output.

        ``args`` must name the JSON output path last.  Returns (seconds,
        payload), with payload None when the command exits non-zero.
        """
        start = time.perf_counter()
        code = run_cli(args)
        seconds = self.record(f"cli:{command}", time.perf_counter() - start, traced)
        if code != 0:
            self.nonzero_exits += 1
            return seconds, None
        with open(args[-1]) as handle:
            return seconds, json.load(handle)

    def finish(self) -> None:
        """Checks that need the whole run; runs after measuring."""

    def trace_extra(self, spans: list[tuple]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics only the workload knows; no fits here, so ratio 0."""
        return {"counting.fit_recovered_ratio": (0.0, "ratio")}


# --------------------------------------------------------------------------


class DesignSweep(Workload):
    """The acceptance 32x64 sweep, on the pool and with workers=1.

    The pool sweep runs as the CLI's ``sweep`` command in this process
    (``BIPHOTON_THREADS`` sets its pool), so ``sweep_s`` covers argument
    parsing, the handler and the CSV and JSON output as a user meets them.
    The serial sweep calls the API, which is the only way to pass
    ``workers=1``.  Each group also runs the ``efficiency`` command at the
    two design points of the CLI acceptance checks.
    """

    name = "design_sweep"
    # The pool sweep runs on every CPU, whose speeds change independently,
    # and the one-thread calibration loop does not describe that: scaled,
    # the sweep times spread twice as much over five seeds (19% against
    # 10%).  A group's sweeps also take seconds each, long enough to span
    # the host's phases.  So design_sweep reports its times as measured.
    scaled = False

    def setup(self) -> None:
        from biphoton import formatting, memory_interface

        self.mi = memory_interface
        self.formatting = formatting
        if self.ctx.smoke:
            self.rect = ((2.0, 5.0), (0.2, 1.6), (4, 8))
            self.reference = BENCH_DIR / "reference" / "design_sweep_4x8.csv"
        else:
            self.rect = ((2.0, 12.0), (0.1, 2.0), (32, 64))
            self.reference = BENCH_DIR / "reference" / "design_sweep_32x64.csv"
        read_map_csv(self.reference)
        self.config = self.ctx.tmp / "efficiency.json"
        with open(self.config, "w") as handle:
            json.dump({"schema": "1", "t_hat": 11.0, "gamma_hat": 0.85}, handle)
        self.efficiency_args = [
            ["efficiency", "--config", str(self.config)],
            ["efficiency", "--t-hat", "12", "--gamma-hat", "0.1"],
        ]
        self.expected = {}
        # Warm-up: the CLI sweep (pool), the API sweep and the efficiency command.
        warm = ((2.0, 2.0), (0.5, 1.0), (1, 2))
        run_cli(self.sweep_args(warm, "warmup"))
        self.write_outputs(memory_interface.sweep_design_space(*warm, workers=1), "warmup")
        run_cli(["efficiency", "--t-hat", "2", "--gamma-hat", "1", "--output", str(self.ctx.tmp / "warmup.json")])

    def sweep_args(self, rect, tag: str) -> list[str]:
        (t_min, t_max), (g_min, g_max), (t_steps, g_steps) = rect
        return [
            "sweep", "--t-min", repr(t_min), "--t-max", repr(t_max), "--t-steps", str(t_steps),
            "--gamma-min", repr(g_min), "--gamma-max", repr(g_max), "--gamma-steps", str(g_steps),
            "--output-csv", str(self.ctx.tmp / f"sweep-{tag}.csv"),
            "--output-json", str(self.ctx.tmp / f"sweep-{tag}.json"),
        ]

    def write_outputs(self, emap, tag: str) -> tuple[Path, dict]:
        csv_path = self.ctx.tmp / f"sweep-{tag}.csv"
        self.mi.write_efficiency_map_csv(emap, str(csv_path))
        summary = self.formatting.json_sanitize(self.mi.efficiency_map_summary(emap))
        with open(self.ctx.tmp / f"sweep-{tag}.json", "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
        return csv_path, summary

    def pool_sweep(self, traced: bool):
        seconds, summary = self.call_cli("sweep", self.sweep_args(self.rect, "pool"), traced)
        self.record("sweep_s", seconds, traced)
        if summary is None:
            return seconds, ["sweep command exited non-zero"]
        return seconds, self.check(self.ctx.tmp / "sweep-pool.csv", summary)

    def serial_sweep(self, traced: bool):
        start = time.perf_counter()
        emap = self.mi.sweep_design_space(*self.rect, workers=1)
        csv_path, summary = self.write_outputs(emap, "serial")
        seconds = self.record("sweep_serial_s", time.perf_counter() - start, traced)
        return seconds, self.check(csv_path, summary)

    def check(self, csv_path: Path, summary: dict) -> list[str]:
        problems = []
        if summary["failures"]:
            problems.append(f"{len(summary['failures'])} failed cells")
        problems += compare_maps(csv_path, self.reference)
        if not all(-ETA_BOUND_SLACK <= eta <= 1.0 + ETA_BOUND_SLACK for _, _, eta in read_map_csv(csv_path)):
            problems.append("eta_in outside [0, 1]")
        if not self.ctx.smoke:
            problems += self.landmarks(summary)
        return problems

    @staticmethod
    def landmarks(summary: dict) -> list[str]:
        """Acceptance criterion 1 on the sweep summary."""
        t_hat, gamma_opt = summary["t_hat"], summary["gamma_opt"]
        gamma_step = (2.0 - 0.1) / 63
        problems = []
        if abs(gamma_opt[0] - 0.9) > 0.15:
            problems.append(f"gamma_opt(t=2) = {gamma_opt[0]:.4f}, not 0.9 +/- 0.15")
        tail = [g for t, g in zip(t_hat, gamma_opt) if t >= 10.0]
        if not all(0.15 <= g <= 0.35 for g in tail):
            problems.append("gamma_opt(t >= 10) leaves [0.15, 0.35]")
        if any(b - a > gamma_step + 1e-12 for a, b in zip(gamma_opt, gamma_opt[1:])):
            problems.append("gamma_opt increases by more than one grid step")
        return problems

    def efficiency(self, args: list[str], traced: bool):
        args = args + ["--output", str(self.ctx.tmp / "efficiency-out.json")]
        seconds, payload = self.call_cli("efficiency", args, traced)
        if payload is None:
            return seconds, ["efficiency command exited non-zero"]
        key = tuple(args)
        if key not in self.expected:
            self.expected[key] = cli_expected("efficiency", args)
        return seconds, payload_problems(payload, self.expected[key])

    def group(self, index: int, traced: bool) -> float:
        total = self.attempt(f"sweep_s #{index}", lambda: self.pool_sweep(traced))
        total += self.attempt(f"sweep_serial_s #{index}", lambda: self.serial_sweep(traced))
        for args in self.efficiency_args:
            total += self.attempt(f"{' '.join(args)} #{index}", lambda: self.efficiency(args, traced))
        return total

    def end_to_end(self, scaled: bool = True) -> dict:
        pool, serial = self.values("sweep_s", scaled), self.values("sweep_serial_s", scaled)
        cells = self.rect[2][0] * self.rect[2][1]
        throughput = cells * (len(pool) + len(serial)) / (sum(pool) + sum(serial))
        pct, pool_tail = tail(pool)
        detail = {
            "sweep_s": (statistics.median(pool), "s"),
            "sweep_serial_s": (statistics.median(serial), "s"),
        }
        generic = {
            "op_p50_ms": statistics.median(pool) * 1e3,
            "op_tail_ms": pool_tail * 1e3,
            "throughput_per_s": throughput,
            "op2_p50_ms": statistics.median(serial) * 1e3,
        }
        return {"detail": detail, "generic": generic, "tail_percentile": pct, "tail_samples": len(pool)}


# --------------------------------------------------------------------------


class ModeAnalysis(Workload):
    """Fresh seeded design points, full mode analysis one point at a time."""

    name = "mode_analysis"

    def setup(self) -> None:
        from biphoton import joint_amplitude, memory_interface, schmidt, signal_model

        self.mi = memory_interface
        self.ja = joint_amplitude
        self.schmidt = schmidt
        self.sm = signal_model
        self.per_pass = 4 if self.ctx.smoke else 16
        self.analyse(inputs.ModePoint(6.0, 1.5, 1.3, 1.4, 0.83), traced=True)  # warm-up

    def single_pulse_jta(self, point: inputs.ModePoint):
        """Ungated single-pulse JTA on a grid covering pump and filter support."""
        sm = self.sm
        sigma_p = sm.sigma_p_from_pump_fwhm(point.pump_fwhm_ghz)
        gamma = sm.gamma_from_filter_fwhm(point.filter_fwhm_ghz)
        step = sigma_p / 16.0
        count = max(1, math.ceil((5.0 * sigma_p + 5.0 / gamma) / step - 0.5))
        edge = (count - 0.5) * step
        grid = sm.TimeGrid(2 * count, -edge, edge)
        train = sm.PulseTrainSpec(sigma_p=sigma_p, period=1.0, n_side_pulses=0)
        filt = sm.GaussianFilterSpec(gamma=gamma)
        return self.ja.assemble_gated_jta(train, filt, grid_i=grid, grid_s=grid)

    def analyse(self, point: inputs.ModePoint, traced: bool):
        start = time.perf_counter()
        design = self.mi.DesignPoint(t_hat=point.t_hat, gamma_hat=point.gamma_hat)
        ungated = self.mi.evaluate_design(design, kernel="ungated")
        gated = self.mi.evaluate_design(design, kernel="gated")
        jta = self.single_pulse_jta(point)
        decompose_start = time.perf_counter()
        result = self.schmidt.schmidt_decompose(jta, k_max=16)
        decompose_end = time.perf_counter()
        spectrum = self.ja.to_frequency_domain(jta)
        end = time.perf_counter()
        self.record("schmidt_s", decompose_end - decompose_start, traced)
        seconds = self.record("point_s", end - start, traced)

        problems = []
        closure = abs(float((result.singular_values**2).sum()) - 1.0)
        if closure > WEIGHT_CLOSURE:
            problems.append(f"sum lambda^2 - 1 = {closure:.2e}")
        if ungated.eta_in > gated.eta_in + KERNEL_ROUNDOFF:
            problems.append(f"ungated eta {ungated.eta_in} exceeds gated eta {gated.eta_in}")
        for report in (ungated, gated):
            if not -ETA_BOUND_SLACK <= report.eta_in <= 1.0 + ETA_BOUND_SLACK:
                problems.append(f"eta_in {report.eta_in} outside [0, 1]")
        closed = 1.0 / math.sqrt(1.0 + point.single_gamma_hat**2)
        if abs(result.purity - closed) > PURITY_TOLERANCE:
            problems.append(f"purity {result.purity:.6f} vs closed form {closed:.6f}")
        norm = jta.norm_squared
        parseval = abs(spectrum.norm_squared - norm) / norm
        if parseval > PARSEVAL:
            problems.append(f"Parseval gap {parseval:.2e}")
        return seconds, problems

    def group(self, index: int, traced: bool) -> float:
        total = 0.0
        for k, point in enumerate(inputs.mode_points(self.ctx.seed, index, self.per_pass)):
            total += self.attempt(
                f"point {index}.{k} (t_hat={point.t_hat:.3f}, gamma_hat={point.gamma_hat:.3f})",
                lambda: self.analyse(point, traced),
            )
        return total

    def end_to_end(self, scaled: bool = True) -> dict:
        points, decompose = self.values("point_s", scaled), self.values("schmidt_s", scaled)
        pct, point_tail = tail(points)
        detail = {
            "point_p50_ms": (statistics.median(points) * 1e3, "ms"),
            "point_tail_ms": (point_tail * 1e3, "ms"),
            "points_per_s": (len(points) / sum(points), "1/s"),
        }
        generic = {
            "op_p50_ms": detail["point_p50_ms"][0],
            "op_tail_ms": detail["point_tail_ms"][0],
            "throughput_per_s": detail["points_per_s"][0],
            "op2_p50_ms": statistics.median(decompose) * 1e3,
        }
        return {"detail": detail, "generic": generic, "tail_percentile": pct, "tail_samples": len(points)}


# --------------------------------------------------------------------------


class LabReduction(Workload):
    """Count-record reduction, bandwidth fits and marginal spectra.

    Each session also runs the CLI's ``analyze``, ``fit-spectrum`` and
    ``spectrum`` commands in this process on the session's inputs.
    """

    name = "lab_reduction"
    fits_per_session = 8
    spectra_per_session = 4
    records_read = 0

    def setup(self) -> None:
        from biphoton import counting, joint_amplitude, signal_model

        self.counting = counting
        self.ja = joint_amplitude
        self.sm = signal_model
        self.path = counting.OpticalPath(**OPTICAL_PATH)
        rows, extra_rows = (200, 100) if self.ctx.smoke else (2000, 500)
        self.count_files = []
        for k in range(4):
            path = self.ctx.tmp / f"counts-{k}.csv"
            bad = inputs.write_counts_csv(str(path), self.ctx.seed, f"main{k}", rows, rows // 50)
            self.count_files.append((path, bad))
        self.bare_file = self.ctx.tmp / "counts-bare.csv"
        self.bare_bad = inputs.write_counts_csv(
            str(self.bare_file), self.ctx.seed, "bare", extra_rows, extra_rows // 50,
            optional_columns=False,
        )
        self.cli_counts = self.ctx.tmp / "cli-counts.csv"
        self.cli_counts_bad = inputs.write_counts_csv(str(self.cli_counts), self.ctx.seed, "cli", 100, 2)
        self.analyze_expected = None
        self.fit_recovered = self.fit_attempted = 0
        self.session(-1, traced=True)  # warm-up
        self.fit_recovered = self.fit_attempted = 0

    def read_and_reduce(self, path: Path, injected: int, traced: bool):
        """Read one count CSV and reduce every record; return (records, seconds, problems)."""
        counting = self.counting
        problems = []
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            records, issues = counting.read_counts_csv(str(path))
        read_end = time.perf_counter()
        for record in records:
            counting.subtract_accidentals(record)
            counting.heralding_efficiency(record, self.path)
            counting.heralded_g2(record)
        end = time.perf_counter()
        self.record("read_s", read_end - start, traced)
        self.record("reduce_s", end - read_end, traced)
        if not traced:
            self.records_read += len(records)
        if len(issues) != injected:
            problems.append(f"{path.name}: {len(issues)} skipped rows, {injected} injected")
        defaulted = any("lacks" in str(w.message) for w in caught)
        if defaulted != (path == self.bare_file):
            problems.append(f"{path.name}: defaulted-column warning wrong ({defaulted})")
        return records, end - start, problems

    def session(self, index: int, traced: bool):
        """One lab session; inputs are drawn fresh from (seed, session index)."""
        counting = self.counting
        main_file, injected = self.count_files[index % len(self.count_files)]
        cases = inputs.lab_sweep_cases(self.ctx.seed, index, self.fits_per_session)
        sweep_paths = []
        for k, case in enumerate(cases):
            path = self.ctx.tmp / f"sweep-{k}.csv"
            inputs.write_sweep_case(case, str(path))
            sweep_paths.append(path)
        rng = inputs.rng_for(self.ctx.seed, "lab-spectra", index)
        pairs = inputs.spectrum_pairs(rng, self.spectra_per_session)

        records, timed, problems = self.read_and_reduce(main_file, injected, traced)
        _, seconds, more = self.read_and_reduce(self.bare_file, self.bare_bad, traced)
        timed += seconds
        problems += more
        start = time.perf_counter()
        for channel in ("c_t", "c_s_given_t", "c_signal_total"):
            counting.linear_rate_fit(records, channel)
        timed += self.record("rate_fit_s", time.perf_counter() - start, traced)

        for case, path in zip(cases, sweep_paths):
            points = counting.read_sweep_csv(str(path))
            filt = self.sm.GaussianFilterSpec.from_amplitude_fwhm(case.filter_fwhm_ghz)
            self.fit_attempted += 1
            start = time.perf_counter()
            try:
                fit = counting.fit_hsp_bandwidth(points, filt, transmission=case.transmission)
            finally:
                timed += self.record("fit_s", time.perf_counter() - start, traced)
            error = abs(fit.delta_nu_ghz - case.photon_fwhm_ghz) / case.photon_fwhm_ghz
            if error <= FIT_TOLERANCE and not fit.resolution_limited:
                self.fit_recovered += 1
            else:
                problems.append(
                    f"fit recovered {fit.delta_nu_ghz:.4f} GHz for {case.photon_fwhm_ghz:.4f} GHz"
                )

        for pump, filt_fwhm, center in pairs:
            start = time.perf_counter()
            spectrum = self.ja.marginal_signal_spectrum(pump, filt_fwhm, filter_center=center)
            timed += self.record("spectrum_s", time.perf_counter() - start, traced)
            quadrature = self.ja.quadrature_marginal_fwhm(pump, filt_fwhm)
            gap = abs(spectrum.fwhm - quadrature) / quadrature
            if gap > SPECTRUM_TOLERANCE:
                problems.append(f"spectrum FWHM gap {gap:.2e} at ({pump:.3f}, {filt_fwhm:.3f})")

        seconds, more = self.cli_commands(cases[0], sweep_paths[0], pairs[0], traced)
        return timed + seconds, problems + more

    def cli_commands(self, case, sweep_path: Path, pair, traced: bool):
        """The session's first sweep and spectrum pair, and a small count file, through the CLI."""
        tmp = self.ctx.tmp
        pump, filt_fwhm, center = pair
        calls = [
            ("analyze", [
                "analyze", "--counts-csv", str(self.cli_counts),
                "--transmission", repr(OPTICAL_PATH["transmission"]),
                "--transmission-err", repr(OPTICAL_PATH["transmission_err"]),
                "--detector-efficiency", repr(OPTICAL_PATH["detector_efficiency"]),
                "--output", str(tmp / "cli-analyze.json"),
            ]),
            ("fit-spectrum", [
                "fit-spectrum", "--sweep-csv", str(sweep_path),
                "--filter-fwhm-ghz", repr(case.filter_fwhm_ghz),
                "--transmission-model", case.transmission, "--output", str(tmp / "cli-fit.json"),
            ]),
            ("spectrum", [
                "spectrum", "--pump-fwhm-ghz", repr(pump), "--filter-fwhm-ghz", repr(filt_fwhm),
                "--filter-center-ghz", repr(center), "--output-json", str(tmp / "cli-spectrum.json"),
            ]),
        ]
        timed, problems = 0.0, []
        for command, args in calls:
            seconds, payload = self.call_cli(command, args, traced)
            timed += seconds
            if payload is None:
                problems.append(f"{command} command exited non-zero")
                continue
            if command == "analyze":
                if self.analyze_expected is None:
                    self.analyze_expected = cli_expected(command, args)
                want = self.analyze_expected
                if len(want["skipped_rows"]) != self.cli_counts_bad:
                    problems.append(f"analyze: skipped rows differ from the {self.cli_counts_bad} injected")
            else:
                want = cli_expected(command, args)
            problems += [f"{command}: {p}" for p in payload_problems(payload, want)]
        return timed, problems

    def group(self, index: int, traced: bool) -> float:
        return self.attempt(f"session {index}", lambda: self.session(index, traced))

    def trace_extra(self, spans: list[tuple]) -> dict[str, tuple[float, str]]:
        ratio = self.fit_recovered / self.fit_attempted if self.fit_attempted else 0.0
        return {"counting.fit_recovered_ratio": (ratio, "ratio")}

    def end_to_end(self, scaled: bool = True) -> dict:
        fits, spectra = self.values("fit_s", scaled), self.values("spectrum_s", scaled)
        busy = sum(self.values("read_s", scaled)) + sum(self.values("reduce_s", scaled))
        pct, fit_tail = tail(fits)
        detail = {
            "fit_p50_ms": (statistics.median(fits) * 1e3, "ms"),
            "fit_tail_ms": (fit_tail * 1e3, "ms"),
            "records_per_s": (self.records_read / busy, "1/s"),
            "spectrum_p50_ms": (statistics.median(spectra) * 1e3, "ms"),
        }
        generic = {
            "op_p50_ms": detail["fit_p50_ms"][0],
            "op_tail_ms": detail["fit_tail_ms"][0],
            "throughput_per_s": detail["records_per_s"][0],
            "op2_p50_ms": detail["spectrum_p50_ms"][0],
        }
        return {"detail": detail, "generic": generic, "tail_percentile": pct, "tail_samples": len(fits)}


# --------------------------------------------------------------------------


class CliSession(Workload):
    """Fresh ``python -m biphoton.cli`` processes cycling over every command."""

    name = "cli_session"

    def setup(self) -> None:
        """Input generation only: this process never imports the toolkit to measure."""
        self.generate()
        self.outputs: list[tuple[str, int, dict]] = []
        self.span_files: list[str] = []
        self.fits_recovered: list[bool] = []
        self.env = dict(os.environ)

    def generate(self) -> None:
        tmp = self.ctx.tmp
        self.counts_csv = tmp / "cli-counts.csv"
        self.counts_bad = inputs.write_counts_csv(str(self.counts_csv), self.ctx.seed, "cli", 100, 2)
        rng = inputs.rng_for(self.ctx.seed, "cli-sweep")
        self.sweep_case = inputs.sweep_case(rng, "intensity", points=41)
        self.sweep_csv = tmp / "cli-sweep.csv"
        inputs.write_sweep_case(self.sweep_case, str(self.sweep_csv))
        self.amplitude_case = inputs.sweep_case(
            rng, "amplitude", points=41, filter_fwhm=self.sweep_case.filter_fwhm_ghz
        )
        self.amplitude_csv = tmp / "cli-sweep-amplitude.csv"
        inputs.write_sweep_case(self.amplitude_case, str(self.amplitude_csv))
        self.config = tmp / "cli-efficiency.json"
        with open(self.config, "w") as handle:
            json.dump({"schema": "1", "t_hat": 11.0, "gamma_hat": 0.85}, handle)

    def commands(self) -> list[tuple[str, list[str]]]:
        fwhm = repr(self.sweep_case.filter_fwhm_ghz)
        return [
            ("efficiency", ["efficiency", "--config", str(self.config)]),
            ("efficiency", ["efficiency", "--t-hat", "12", "--gamma-hat", "0.1"]),
            ("spectrum", ["spectrum", "--pump-fwhm-ghz", "1.3", "--filter-fwhm-ghz", "1.4"]),
            ("analyze", [
                "analyze", "--counts-csv", str(self.counts_csv),
                "--transmission", "0.1", "--transmission-err", "0.01",
                "--detector-efficiency", "0.5",
            ]),
            ("fit-spectrum", ["fit-spectrum", "--sweep-csv", str(self.sweep_csv), "--filter-fwhm-ghz", fwhm]),
            ("fit-spectrum", [
                "fit-spectrum", "--sweep-csv", str(self.amplitude_csv), "--filter-fwhm-ghz", fwhm,
                "--transmission-model", "amplitude",
            ]),
            ("sweep", [
                "sweep", "--t-min", "2", "--t-max", "5", "--t-steps", "4",
                "--gamma-min", "0.2", "--gamma-max", "1.6", "--gamma-steps", "8",
            ]),
        ]

    def call(self, index: int, command: str, args: list[str], traced: bool):
        out = self.ctx.tmp / f"cli-{index}"
        if command == "sweep":
            outputs = ["--output-csv", f"{out}.csv", "--output-json", f"{out}.json"]
        elif command == "spectrum":
            outputs = ["--output-json", f"{out}.json"]
        else:
            outputs = ["--output", f"{out}.json"]
        if traced:
            spans = self.ctx.tmp / f"spans-{index}.json"
            argv = [sys.executable, str(BENCH_DIR / "cli_traced.py"), str(spans), str(index), "--"]
            self.span_files.append(str(spans))
        else:
            argv = [sys.executable, "-m", "biphoton.cli"]
        start = time.perf_counter()
        proc = subprocess.run(
            argv + args + outputs, env=self.env, stdout=subprocess.PIPE,
            stderr=subprocess.PIPE, text=True, timeout=120,
        )
        seconds = time.perf_counter() - start
        self.record("call_s", seconds, traced)
        self.record(f"cli:{command}", seconds, traced)
        if proc.returncode != 0:
            self.nonzero_exits += 1
            return seconds, [f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        self.outputs.append((command, index, {"json": f"{out}.json", "csv": f"{out}.csv", "args": args}))
        return seconds, []

    def group(self, index: int, traced: bool) -> float:
        total = 0.0
        for k, (command, args) in enumerate(self.commands()):
            call_index = index * 100 + k
            total += self.attempt(
                f"{command} call {call_index}",
                lambda: self.call(call_index, command, args, traced),
            )
        return total

    def finish(self) -> None:
        """Compare every CLI output with the in-process API at nine digits."""
        expected: dict[tuple, dict | str] = {}
        for command, args in self.commands():
            try:
                want = cli_expected(command, args)
            except Exception as exc:  # a failing API call fails every call it checks
                want = f"API raised {type(exc).__name__}: {exc}"
            expected[(command, tuple(args))] = want
            if command == "fit-spectrum" and isinstance(want, dict):
                case = self.amplitude_case if "--transmission-model" in args else self.sweep_case
                error = abs(want["delta_nu_GHz"] - case.photon_fwhm_ghz) / case.photon_fwhm_ghz
                self.fits_recovered.append(error <= FIT_TOLERANCE and not want["resolution_limited"])
        for command, index, files in self.outputs:
            want = expected[(command, tuple(files["args"]))]
            if isinstance(want, str):
                self.failures.append(f"{command} call {index}: {want}")
                continue
            with open(files["json"]) as handle:
                problems = payload_problems(json.load(handle), want)
            if command == "sweep":
                problems += compare_maps(Path(files["csv"]), BENCH_DIR / "reference" / "design_sweep_4x8.csv")
            if command == "analyze" and len(want["skipped_rows"]) != self.counts_bad:
                problems.append(f"skipped rows differ from the {self.counts_bad} injected")
            if problems:
                self.failures.append(f"{command} call {index}: " + "; ".join(problems))

    def trace_extra(self, spans: list[tuple]) -> dict[str, tuple[float, str]]:
        """Share of the session's fit inputs whose bandwidth the fit recovers."""
        ratio = sum(self.fits_recovered) / len(self.fits_recovered) if self.fits_recovered else 0.0
        return {"counting.fit_recovered_ratio": (ratio, "ratio")}

    def end_to_end(self, scaled: bool = True) -> dict:
        calls = self.values("call_s", scaled)
        pct, call_tail = tail(calls)
        detail = {
            "cli_p50_ms": (statistics.median(calls) * 1e3, "ms"),
            "cli_tail_ms": (call_tail * 1e3, "ms"),
        }
        generic = {
            "op_p50_ms": detail["cli_p50_ms"][0],
            "op_tail_ms": detail["cli_tail_ms"][0],
            "throughput_per_s": len(calls) / sum(calls),
            "op2_p50_ms": statistics.median(self.values("cli:fit-spectrum", scaled)) * 1e3,
        }
        return {"detail": detail, "generic": generic, "tail_percentile": pct, "tail_samples": len(calls)}


WORKLOADS = {cls.name: cls for cls in (DesignSweep, ModeAnalysis, LabReduction, CliSession)}
CLI_COMMANDS = ("efficiency", "sweep", "spectrum", "analyze", "fit-spectrum")


# --------------------------------------------------------------------------


def import_probe(env: dict, repeats: int = 3) -> float:
    """Median wall time of ``python -c "import biphoton.cli"``."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import biphoton.cli"], env=env, check=True, timeout=60)
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def software_context() -> dict:
    """Package versions and the BLAS numpy was built against."""
    from importlib import metadata

    import numpy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    versions = {}
    for package in ("numpy", "scipy", "click"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {
        "python": sys.version.split()[0],
        **versions,
        "blas_name": blas.get("name"),
        "blas_version": blas.get("version"),
    }


def group_count(workload: Workload, seconds: float, trace: bool, smoke: bool) -> int:
    """Groups per run: fixed by --seconds, never by how fast the commit is."""
    least = 2 if trace else 1  # a traced run needs an untraced and a traced group
    if smoke:
        return least
    return max(least, round(seconds / GROUP_SECONDS[workload.name]))


def measure(workload: Workload, seconds: float, trace: bool, smoke: bool) -> dict:
    """Run the run's groups one after another; then check and sum up."""
    tracer = Tracer() if trace else None
    timed: dict[bool, list[float]] = {False: [], True: []}
    start = time.perf_counter()
    groups = group_count(workload, seconds, trace, smoke)
    index = 0
    workload.tick()
    while index < groups:
        traced = trace and index % 2 == 1
        if traced:
            tracer.op_id = index
            tracer.install()
        try:
            timed[traced].append(workload.group(index, traced))
        finally:
            if traced:
                tracer.uninstall()
        workload.tick()
        index += 1
        if index >= 2 and time.perf_counter() - start > STOP_FACTOR * seconds:
            break  # far slower than the seed commit: end the run in time
    workload.finish()

    result = {
        "groups": index,
        "calibration_ms": [tick * 1e3 for tick in workload.ticks],
        "ready_scale": CALIBRATION_REFERENCE_S / workload.ticks[0],
    }
    if trace:
        spans = list(tracer.spans)
        if isinstance(workload, CliSession):
            spans += load_spans([p for p in workload.span_files if os.path.exists(p)])
        per_layer = layer_metrics(spans)
        per_layer.update(workload.trace_extra(spans))
        per_layer.update(cli_layer_metrics(workload))
        per_layer["cli.import_s"] = (import_probe(dict(os.environ)), "s")
        overhead = statistics.mean(timed[True]) / statistics.mean(timed[False]) - 1.0
        per_layer["trace.overhead_ratio"] = (overhead, "ratio")
        result["per_layer"] = per_layer
        result["spans"] = len(spans)
    else:
        result["end_to_end"] = workload.end_to_end()
        result["end_to_end_measured"] = workload.end_to_end(scaled=False)["generic"]
    return result


def cli_layer_metrics(workload: Workload) -> dict[str, tuple[float, str]]:
    """Per-command CLI wall times (untraced calls; 0 without calls) and non-zero exits."""
    metrics = {}
    for command in CLI_COMMANDS:
        calls = workload.values(f"cli:{command}", scaled=False)
        metrics[f"cli.{command}_ms"] = (statistics.median(calls) * 1e3 if calls else 0.0, "ms")
    metrics["cli.nonzero_exits"] = (workload.nonzero_exits, "count")
    return metrics


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--mode", choices=("setup", "run"), required=True)
    parser.add_argument("--tmp", required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](Context(args))
    workload.setup()
    print("READY", flush=True)
    if args.mode == "setup":
        # The factor that scales this process's set-up time to the reference speed.
        print(json.dumps({"ready_scale": CALIBRATION_REFERENCE_S / calibrate()}), flush=True)
        return 0

    result = measure(workload, args.seconds, bool(args.trace), args.smoke)
    usage = resource.getrusage(
        resource.RUSAGE_CHILDREN if isinstance(workload, CliSession) else resource.RUSAGE_SELF
    )
    result.update(
        attempted=workload.attempted,
        failed=len(workload.failures),
        failures=workload.failures[:20],
        peak_rss_mb=usage.ru_maxrss / 1024.0,
        software=software_context(),
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
