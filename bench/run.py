"""Benchmark of the biphoton toolkit, driven from outside the package.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S   # every workload

Run from anywhere; the checkout is the parent of this directory and the
package is imported from its ``src``.  Each workload runs in a worker
process (bench/workloads.py) whose environment pins
``OPENBLAS_NUM_THREADS=1`` and ``BIPHOTON_THREADS=nproc``, so the program
runs at most nproc compute threads.

For each workload the script prints one detail line (the workload's own
metric names, the seed, the machine context and any failures) and, as
the last line, the result object
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end metrics, with ``--trace 1`` the per-layer
metrics of a traced run.  The exit code is non-zero when any correctness
check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import CALIBRATION_REFERENCE_S

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("design_sweep", "mode_analysis", "lab_reduction", "cli_session")

# Fresh processes timed from start to ready per run; setup_s is their
# median.  Half of them start before the measuring worker and half after
# it, so that the median spans the whole run and not only its first
# seconds: the shared machine's speed drifts on that time scale.
SETUP_PROCESSES = 7
# A hung worker is killed after SETUP_TIMEOUT_S in set-up, and every worker
# of a workload once RUN_LIMIT_S have passed since its first one started,
# so that a run ends within 180 s.
SETUP_TIMEOUT_S = 15.0
RUN_LIMIT_S = 170.0
# End-to-end metrics each workload maps onto its own operations (README).
GENERIC_UNITS = {"op_p50_ms": "ms", "op_tail_ms": "ms", "throughput_per_s": "1/s", "op2_p50_ms": "ms"}


class BenchmarkError(RuntimeError):
    """The benchmark could not run; no result is printed."""


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def worker_env() -> dict:
    env = dict(os.environ)
    env["OPENBLAS_NUM_THREADS"] = "1"
    env["BIPHOTON_THREADS"] = str(nproc())
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def git_state() -> dict:
    """Commit and dirty flag of the checkout, or nulls outside a git work tree."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            env=env, capture_output=True, text=True, timeout=30,
        )
        if commit.returncode != 0:
            return {"commit": None, "dirty": None}
        status = subprocess.run(
            ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
            env=env, capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return {"commit": None, "dirty": None}
    return {"commit": commit.stdout.strip(), "dirty": bool(status.stdout.strip())}


def machine_context(env: dict) -> dict:
    return {
        "nproc": nproc(),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu_model(),
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "BIPHOTON_THREADS": env["BIPHOTON_THREADS"],
        **git_state(),
    }


def check_checkout() -> None:
    if not (ROOT / "src" / "biphoton" / "__init__.py").is_file():
        raise BenchmarkError(f"no biphoton package under {ROOT / 'src'}; run from a full checkout")
    # Byte-compile once, so the first timed process does not pay for it.
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(BENCH_DIR)],
        check=True, timeout=120, stdout=subprocess.DEVNULL,
    )


class Worker:
    """One workloads.py process; times it from start to READY."""

    def __init__(self, argv: list[str], env: dict, deadline: float) -> None:
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, env=env, stdout=subprocess.PIPE, text=True, cwd=str(ROOT)
        )
        # Kill the worker if it overruns, so a hang cannot outlive the run.
        self.watchdog = threading.Timer(deadline, self.proc.kill)
        self.watchdog.daemon = True
        self.watchdog.start()

    def wait_ready(self) -> float:
        line = self.proc.stdout.readline()
        ready = time.perf_counter() - self.started
        if line.strip() != "READY":
            self.finish()
            raise BenchmarkError(f"worker failed during set-up (exit {self.proc.returncode})")
        return ready

    def finish(self) -> str:
        try:
            rest = self.proc.stdout.read()
            self.proc.wait()
        finally:
            self.watchdog.cancel()
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
        return rest


def set_up_once(argv: list[str], env: dict, limit: float) -> tuple[float, float]:
    """Seconds one fresh set-up-only worker takes to become ready, and its scale factor."""
    worker = Worker(argv, env, min(SETUP_TIMEOUT_S, limit - time.perf_counter()))
    try:
        ready = worker.wait_ready()
    finally:
        rest = worker.finish()
    if worker.proc.returncode != 0:
        raise BenchmarkError(f"set-up process exited {worker.proc.returncode}")
    return ready, json.loads(rest)["ready_scale"]


def run_workload(args: argparse.Namespace, name: str, env: dict, tmp: Path) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "workloads.py"),
        "--workload", name, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace), "--tmp", str(tmp / name),
    ] + (["--smoke"] if args.smoke else [])

    limit = time.perf_counter() + RUN_LIMIT_S
    setup_argv = argv + ["--mode", "setup"]
    before = (SETUP_PROCESSES - 1) // 2
    setups = [set_up_once(setup_argv, env, limit) for _ in range(before)]

    worker = Worker(argv + ["--mode", "run"], env, limit - time.perf_counter())
    try:
        ready = worker.wait_ready()
    finally:
        output = worker.finish()
    if worker.proc.returncode != 0:
        raise BenchmarkError(f"{name} worker exited {worker.proc.returncode}")
    result = json.loads(output.strip().splitlines()[-1])
    setups.append((ready, result["ready_scale"]))
    setups += [set_up_once(setup_argv, env, limit) for _ in range(SETUP_PROCESSES - 1 - before)]
    result["setups"] = setups
    return result


def compose(args: argparse.Namespace, name: str, result: dict, machine: dict) -> tuple[dict, dict]:
    """The detail record and the result object for one workload."""
    attempted, failed = result["attempted"], result["failed"]
    correct = failed == 0 and attempted > 0
    # Set-up times scaled to the reference speed (workloads.py), and as measured.
    setup_s = statistics.median(ready * scale for ready, scale in result["setups"])
    setup_measured_s = statistics.median(ready for ready, _ in result["setups"])
    ticks = result["calibration_ms"]
    detail = {
        "workload": name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted if attempted else 1.0,
        "failures": result["failures"],
        "groups": result["groups"],
        "setup_samples_s": [ready for ready, _ in result["setups"]],
        "calibration": {
            "reference_ms": CALIBRATION_REFERENCE_S * 1e3,
            "median_ms": statistics.median(ticks),
            "min_ms": min(ticks),
            "max_ms": max(ticks),
            "count": len(ticks),
        },
        "machine": {**machine, **result["software"]},
    }
    if args.trace:
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in result["per_layer"].items()}
        detail["spans"] = result["spans"]
        detail["metrics"] = metrics
    else:
        e2e = result["end_to_end"]
        shared = {"setup_s": (setup_s, "s"), "peak_rss_mb": (result["peak_rss_mb"], "MB")}
        generic = {**shared, **{key: (e2e["generic"][key], unit) for key, unit in GENERIC_UNITS.items()}}
        named = {**shared, **e2e["detail"], "failed_ratio": (detail["failed_ratio"], "ratio")}
        metrics = {key: {"value": value, "unit": unit} for key, (value, unit) in generic.items()}
        detail["metrics"] = {key: {"value": value, "unit": unit} for key, (value, unit) in named.items()}
        detail["measured"] = {"setup_s": setup_measured_s, **result["end_to_end_measured"]}
        detail["tail"] = {
            "percentile": e2e["tail_percentile"],
            "samples": e2e["tail_samples"],
            "beyond": e2e["tail_samples"] * (1.0 - e2e["tail_percentile"] / 100.0),
        }
    summary = {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}
    return detail, summary


def main() -> int:
    parser = argparse.ArgumentParser(description="biphoton toolkit benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, one group per workload")
    args = parser.parse_args()

    try:
        check_checkout()
    except BenchmarkError as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 2
    env = worker_env()
    machine = machine_context(env)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    summaries = []
    try:
        for name in names:
            try:
                result = run_workload(args, name, env, tmp)
            except (BenchmarkError, json.JSONDecodeError, KeyError, IndexError) as exc:
                print(f"benchmark cannot run {name}: {exc}", file=sys.stderr)
                return 2
            detail, summary = compose(args, name, result, machine)
            print(json.dumps(detail), flush=True)
            summaries.append(summary)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    if len(summaries) == 1:
        final = summaries[0]
    else:
        final = {
            "correct": all(s["correct"] for s in summaries),
            "attempted": sum(s["attempted"] for s in summaries),
            "failed": sum(s["failed"] for s in summaries),
            "metrics": {},
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
