"""Smoke tests of the benchmark itself.

    python3 bench/selftest.py

Runs every workload at tiny size, untraced with seed 1 and traced with
seed 2, and checks that:
  * the last line is the result object and names every end-to-end (or
    per-layer) metric of BENCHMARK.json exactly once, with its unit;
  * the detail line names the workload's own metrics with their units;
  * no operation fails at this commit;
  * the traced run separates the layers (no Schmidt decomposition on
    design_sweep, some on mode_analysis, no design evaluation on
    lab_reduction);
  * a corrupted reference map makes the check fail and the exit code
    non-zero;
  * a directory holding only BENCHMARK.json and bench/ makes the
    benchmark exit non-zero without printing a result.
Exits non-zero on the first failed expectation.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

WORKLOAD_METRICS = {
    "design_sweep": {"sweep_s": "s", "sweep_serial_s": "s"},
    "mode_analysis": {"point_p50_ms": "ms", "point_tail_ms": "ms", "points_per_s": "1/s"},
    "lab_reduction": {
        "fit_p50_ms": "ms", "fit_tail_ms": "ms", "records_per_s": "1/s", "spectrum_p50_ms": "ms",
    },
    "cli_session": {"cli_p50_ms": "ms", "cli_tail_ms": "ms"},
}
SHARED_METRICS = {"setup_s": "s", "peak_rss_mb": "MB", "failed_ratio": "ratio"}


class Failure(Exception):
    pass


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise Failure(message)


def no_duplicates(pairs: list[tuple]) -> dict:
    keys = [key for key, _ in pairs]
    duplicated = sorted({key for key in keys if keys.count(key) > 1})
    if duplicated:
        raise Failure(f"metric printed more than once: {duplicated}")
    return dict(pairs)


def run(args: list[str], cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "bench" / "run.py")] + args,
        cwd=str(cwd), capture_output=True, text=True, timeout=600,
    )


def check_units(printed: dict, wanted: dict, where: str) -> None:
    expect(set(printed) == set(wanted), f"{where}: metrics {sorted(set(printed) ^ set(wanted))} differ")
    for name, unit in wanted.items():
        expect(printed[name]["unit"] == unit, f"{where}: {name} has unit {printed[name]['unit']}")
        expect(isinstance(printed[name]["value"], (int, float)), f"{where}: {name} is not a number")


def smoke(workload: str, seed: int, trace: int) -> dict:
    proc = run(["--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke"])
    where = f"{workload} trace={trace}"
    expect(proc.returncode == 0, f"{where}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[0], object_pairs_hook=no_duplicates)
    final = json.loads(lines[-1], object_pairs_hook=no_duplicates)
    expect(set(final) == {"correct", "attempted", "failed", "metrics"}, f"{where}: result keys {sorted(final)}")
    expect(final["correct"] is True and final["failed"] == 0, f"{where}: failures {detail['failures']}")
    expect(final["attempted"] >= 1, f"{where}: nothing attempted")
    expect(detail["seed"] == seed, f"{where}: seed not recorded")
    for key in ("nproc", "cpu_count", "cpu_model", "python", "numpy", "scipy", "click",
                "blas_name", "blas_version", "OPENBLAS_NUM_THREADS", "BIPHOTON_THREADS",
                "commit", "dirty"):
        expect(key in detail["machine"], f"{where}: machine context lacks {key}")
    kind = "per_layer" if trace else "end_to_end"
    check_units(final["metrics"], {m["name"]: m["unit"] for m in SPEC[kind]}, f"{where} result")
    if not trace:
        check_units(detail["metrics"], {**SHARED_METRICS, **WORKLOAD_METRICS[workload]}, f"{where} detail")
        expect(detail["metrics"]["failed_ratio"]["value"] == 0, f"{where}: failed_ratio not 0")
    return {name: entry["value"] for name, entry in final["metrics"].items()}


def copy_benchmark(scratch: Path) -> None:
    """A fresh directory holding only BENCHMARK.json and a copy of bench/."""
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    shutil.copy(ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(BENCH_DIR, scratch / "bench", ignore=shutil.ignore_patterns("__pycache__"))


def corrupted_reference() -> None:
    """A copy of the checkout whose 4x8 reference map is off by 1e-6 in one cell."""
    scratch = ROOT / ".bench_tmp" / "selftest-reference"
    copy_benchmark(scratch)
    (scratch / "src").symlink_to(ROOT / "src", target_is_directory=True)
    path = scratch / "bench" / "reference" / "design_sweep_4x8.csv"
    lines = path.read_text().splitlines()
    t_hat, gamma_hat, eta = lines[5].split(",")
    lines[5] = f"{t_hat},{gamma_hat},{float(eta) + 1e-6:.9g}"
    path.write_text("\n".join(lines) + "\n")
    try:
        proc = run(["--workload", "design_sweep", "--seed", "1", "--seconds", "1", "--smoke"], cwd=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expect(proc.returncode != 0, "a corrupted reference map still exits 0")
    final = json.loads(proc.stdout.strip().splitlines()[-1])
    expect(final["correct"] is False and final["failed"] > 0, "a corrupted reference map still passes")


def bare_directory() -> None:
    scratch = ROOT / ".bench_tmp" / "selftest-bare"
    copy_benchmark(scratch)
    try:
        proc = run(["--workload", "mode_analysis", "--seed", "1", "--seconds", "1"], cwd=scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    expect(proc.returncode != 0, "the benchmark exits 0 without the package")
    expect(proc.stdout.strip() == "", "the benchmark printed a result without the package")


def main() -> int:
    try:
        # cli_session is not in BENCHMARK.json (README), but is tested the same way.
        workloads = [w["name"] for w in SPEC["workloads"]] + ["cli_session"]
        for workload in workloads:
            smoke(workload, seed=1, trace=0)
        layers = {workload: smoke(workload, seed=2, trace=1) for workload in workloads}
        expect(layers["design_sweep"]["schmidt.decompose_calls"] == 0,
               "design_sweep decomposes with modes")
        expect(layers["mode_analysis"]["schmidt.decompose_calls"] > 0,
               "mode_analysis never reaches schmidt")
        expect(layers["lab_reduction"]["memory_interface.evaluate_calls"] == 0,
               "lab_reduction evaluates design points")
        corrupted_reference()
        bare_directory()
    except Failure as exc:
        print(f"FAIL: {exc}")
        return 1
    finally:
        try:
            (ROOT / ".bench_tmp").rmdir()
        except OSError:
            pass  # absent, or still used by another run
    print("benchmark self-test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
