"""Command-line front end for source design and count analysis.

Every command accepts ``--config FILE`` pointing at a JSON object whose
keys mirror the command's flags (underscores for dashes).  Flags given
on the command line override file values.  All outputs are deterministic:
floats are rounded to nine significant digits and JSON keys are sorted,
so identical configurations reproduce artifacts byte for byte.

Exit codes: 0 success, 2 configuration error, 3 I/O error, 4 numerical
failure.
"""

from __future__ import annotations

import dataclasses
import functools
import json
import math
import sys

import click
import numpy as np
from click.core import ParameterSource

from .counting import (
    OpticalPath,
    fit_hsp_bandwidth,
    heralded_g2,
    heralding_efficiency,
    linear_rate_fit,
    read_counts_csv,
    read_sweep_csv,
    subtract_accidentals,
)
from .errors import (
    DecompositionError,
    FitConvergenceError,
    GridMismatchError,
    ParameterError,
)
from .formatting import json_sanitize
from .joint_amplitude import (
    marginal_signal_spectrum,
    quadrature_marginal_fwhm,
    write_marginal_spectrum_csv,
)
from .memory_interface import (
    DesignPoint,
    efficiency_map_summary,
    evaluate_design,
    sweep_design_space,
    write_efficiency_map_csv,
)
from .signal_model import GaussianFilterSpec, TimeGrid

SCHEMA_VERSION = "1"


def _load_config_file(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except OSError as exc:
        raise click.UsageError(f"cannot read config file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise click.UsageError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise click.UsageError("config file must hold a JSON object")
    schema = str(data.pop("schema", SCHEMA_VERSION))
    if schema != SCHEMA_VERSION:
        raise click.UsageError(f"unsupported config schema {schema!r}; expected {SCHEMA_VERSION!r}")
    return data


def _resolve_config(ctx: click.Context, required: tuple[str, ...]) -> dict:
    """Merge ``--config`` file values under command-line flags.

    The config names are the command's options other than ``--config``.
    A file value is converted by its option's own click type, from the
    text the command line would carry for it (JSON ``true`` is the text
    ``true``), so a file accepts and rejects exactly what a flag does.
    A JSON ``null`` leaves the option at its default.  Every ``required``
    name must resolve to a value.
    """
    params = {param.name: param for param in ctx.command.params if param.name != "config_path"}
    config_path = ctx.params["config_path"]
    file_values = _load_config_file(config_path) if config_path else {}
    unknown = sorted(set(file_values) - set(params))
    if unknown:
        raise click.UsageError(f"unknown config keys: {', '.join(unknown)}")
    resolved = {}
    for name, param in params.items():
        source = ctx.get_parameter_source(name)
        value = file_values.get(name)
        if value is None or source not in (None, ParameterSource.DEFAULT):
            resolved[name] = ctx.params[name]
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        resolved[name] = param.type.convert(text, param, ctx)
    missing = [name for name in required if resolved[name] is None]
    if missing:
        raise click.UsageError("missing required parameter(s): " + ", ".join(missing))
    return resolved


def _emit_json(payload: dict, path: str | None) -> None:
    text = json.dumps(json_sanitize(payload), indent=2, sort_keys=True) + "\n"
    if path is None:
        click.echo(text, nl=False)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _tool_errors(func):
    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        try:
            return func(*args, **kwargs)
        except click.ClickException:
            raise
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        except (ParameterError, GridMismatchError, DecompositionError, FitConvergenceError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (MemoryError, ValueError, np.linalg.LinAlgError) as exc:
            detail = " ".join(str(exc).split()) or "no detail"
            click.echo(f"error: {type(exc).__name__}: {detail}", err=True)
            sys.exit(4)

    return wrapper


@click.group()
def main() -> None:
    """Design and analysis tools for pulsed heralded single-photon sources."""


def _command(name: str, *required: str, json_output: str = "output"):
    """Register ``body(cfg) -> results`` as the ``biphoton`` command ``name``.

    The command gains ``--config`` (see `_resolve_config`) and the exit
    codes of `_tool_errors`.  Its JSON, written to the ``json_output``
    option or stdout, holds ``schema``, ``command``, the resolved
    ``config`` without the output paths (options named ``output*``) and
    the results.
    """

    def register(body):
        @functools.wraps(body)
        def run(ctx: click.Context, **_: object) -> None:
            cfg = _resolve_config(ctx, required)
            results = body(cfg)
            config = {key: value for key, value in cfg.items() if not key.startswith("output")}
            _emit_json({"schema": SCHEMA_VERSION, "command": name, "config": config, **results}, cfg[json_output])

        command = main.command(name=name)(click.pass_context(_tool_errors(run)))
        command.params.append(
            click.Option(["--config", "config_path"], type=click.Path(dir_okay=False), help="JSON config file.")
        )
        return command

    return register


@_command("efficiency", "t_hat", "gamma_hat")
@click.option("--t-hat", type=float, default=None, help="Gate/period in units of sigma_p.")
@click.option("--gamma-hat", type=float, default=None, help="Filter constant times sigma_p.")
@click.option("--side-pulses", type=click.IntRange(min=0), default=3, show_default=True, help="Train truncation M.")
@click.option("--points-per-sigma", type=click.IntRange(min=16), default=16, show_default=True, help="Lattice density.")
@click.option(
    "--kernel",
    type=click.Choice(["gated", "ungated"]),
    default="gated",
    show_default=True,
    help="Projection kernel: fundamental mode of the gated or the single-pulse state.",
)
@click.option("--gates/--no-gates", "use_gates", default=True, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON output path (stdout when omitted).")
def efficiency(cfg: dict) -> dict:
    """Read-in efficiency and mode structure at one design point."""
    point = DesignPoint(cfg["t_hat"], cfg["gamma_hat"], cfg["side_pulses"], cfg["points_per_sigma"])
    inputs = {"point": point, "include_gates": cfg["use_gates"], "kernel": cfg["kernel"]}
    # The report echoes its inputs, which the config already carries.
    report = dataclasses.asdict(evaluate_design(**inputs))
    return {name: value for name, value in report.items() if name not in inputs}


@_command("sweep", "t_min", "t_max", "gamma_min", "gamma_max", json_output="output_json")
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--t-steps", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--gamma-min", type=float, default=None)
@click.option("--gamma-max", type=float, default=None)
@click.option("--gamma-steps", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--side-pulses", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--points-per-sigma", type=click.IntRange(min=16), default=16, show_default=True)
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Cell-by-cell efficiency CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
def sweep(cfg: dict) -> dict:
    """Sweep the design rectangle and report per-row optima.

    Cells of a row that share a lattice are evaluated in batches, one
    batched eigvalsh of J^T J each, on a thread pool sized by the
    BIPHOTON_THREADS environment variable (0 or unset: one thread per
    CPU); results do not depend on the thread count.
    """
    emap = sweep_design_space(
        (cfg["t_min"], cfg["t_max"]),
        (cfg["gamma_min"], cfg["gamma_max"]),
        (cfg["t_steps"], cfg["gamma_steps"]),
        n_side_pulses=cfg["side_pulses"],
        points_per_sigma=cfg["points_per_sigma"],
    )
    if cfg["output_csv"] is not None:
        write_efficiency_map_csv(emap, cfg["output_csv"])
    return efficiency_map_summary(emap)


@_command("spectrum", "pump_fwhm_ghz", "filter_fwhm_ghz", json_output="output_json")
@click.option("--pump-fwhm-ghz", type=float, default=None, help="Pump intensity-spectrum FWHM.")
@click.option("--filter-fwhm-ghz", type=float, default=None, help="Idler filter amplitude FWHM.")
@click.option("--filter-center-ghz", type=float, default=0.0, show_default=True)
@click.option("--points", type=click.IntRange(min=16), default=2049, show_default=True, help="Frequency axis length.")
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Spectrum curve CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
def spectrum(cfg: dict) -> dict:
    """Marginal spectrum of the heralded signal photon."""
    quadrature = quadrature_marginal_fwhm(cfg["pump_fwhm_ghz"], cfg["filter_fwhm_ghz"])
    center = -cfg["filter_center_ghz"]
    half = 4.0 * quadrature
    grid = TimeGrid(cfg["points"], center - half, center + half)
    result = marginal_signal_spectrum(
        cfg["pump_fwhm_ghz"],
        cfg["filter_fwhm_ghz"],
        grid=grid,
        filter_center=cfg["filter_center_ghz"],
    )
    if cfg["output_csv"] is not None:
        write_marginal_spectrum_csv(result, cfg["output_csv"])
    return {
        "fwhm_GHz": result.fwhm,
        "quadrature_fwhm_GHz": quadrature,
        "peak_frequency_GHz": float(result.frequencies[int(np.argmax(result.intensity))]),
    }


@_command("analyze", "counts_csv", "transmission", "detector_efficiency")
@click.option("--counts-csv", type=click.Path(dir_okay=False), default=None, help="Input count records.")
@click.option("--transmission", type=float, default=None, help="Heralding path transmission T_s.")
@click.option("--transmission-err", type=float, default=0.0, show_default=True)
@click.option("--detector-efficiency", type=float, default=None, help="Trigger detector efficiency.")
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON output path (stdout when omitted).")
def analyze(cfg: dict) -> dict:
    """Reduce count records to heralding efficiencies, g2 and rate fits."""
    path = OpticalPath(
        transmission=cfg["transmission"],
        detector_efficiency=cfg["detector_efficiency"],
        transmission_err=cfg["transmission_err"],
    )
    records, issues = read_counts_csv(cfg["counts_csv"])

    def measured(reduction, *args):
        # Null for a record without triggers (for g2 also without counts in
        # a port); such a record stays out of the aggregate.
        try:
            return reduction(*args)
        except ParameterError:
            return None

    rows, eta_values, g2_values = [], [], []
    for record in records:
        net = subtract_accidentals(record)
        row = {"pump_power_mW": record.pump_power_mw, "net_rate": net.value, "net_rate_clipped": net.clipped}
        for key, values, result in (
            ("eta_her", eta_values, measured(heralding_efficiency, record, path)),
            ("g2", g2_values, measured(heralded_g2, record)),
        ):
            row[key] = row[f"{key}_err"] = None
            if result is not None:
                row[key], row[f"{key}_err"] = result.value, result.err
                values.append(result)
        rows.append(row)

    def aggregate(values):
        if not values:
            return None, None
        if all(m.err > 0 for m in values):
            weights = [1.0 / m.err**2 for m in values]
            mean = sum(w * m.value for w, m in zip(weights, values)) / sum(weights)
            return mean, math.sqrt(1.0 / sum(weights))
        mean = sum(m.value for m in values) / len(values)
        return mean, math.sqrt(sum(m.err**2 for m in values)) / len(values)

    eta_mean, eta_err = aggregate(eta_values)
    g2_mean, g2_err = aggregate(g2_values)

    fits = {}
    if len(records) >= 3 and np.unique([r.pump_power_mw for r in records]).size >= 2:
        for label, channel in (
            ("c_T", "c_t"),
            ("c_s_given_T", "c_s_given_t"),
            ("signal_singles", "c_signal_total"),
        ):
            fit = linear_rate_fit(records, channel)
            fits[label] = {
                "slope": fit.slope,
                "intercept": fit.intercept,
                "residual_rms": float(np.sqrt(np.mean(fit.residuals**2))),
            }

    return {
        "records": rows,
        "aggregate": {
            "eta_her": eta_mean,
            "eta_her_err": eta_err,
            "g2": g2_mean,
            "g2_err": g2_err,
        },
        "fits": fits,
        "skipped_rows": issues,
    }


@_command("fit-spectrum", "sweep_csv", "filter_fwhm_ghz")
@click.option("--sweep-csv", type=click.Path(dir_okay=False), default=None, help="Detuning sweep CSV.")
@click.option("--filter-fwhm-ghz", type=float, default=None, help="Scanning filter amplitude FWHM.")
@click.option(
    "--transmission-model",
    type=click.Choice(["intensity", "amplitude"]),
    default="intensity",
    show_default=True,
    help="Whether the sweep is normalized against the intensity or amplitude line.",
)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON output path (stdout when omitted).")
def fit_spectrum(cfg: dict) -> dict:
    """Fit the heralded-photon bandwidth from a filter-detuning sweep."""
    points = read_sweep_csv(cfg["sweep_csv"])
    filt = GaussianFilterSpec.from_amplitude_fwhm(cfg["filter_fwhm_ghz"])
    fit = fit_hsp_bandwidth(points, filt, transmission=cfg["transmission_model"])
    return {
        "delta_t_ns": fit.delta_t_ns,
        "delta_t_err_ns": fit.delta_t_err_ns,
        "delta_nu_GHz": fit.delta_nu_ghz,
        "delta_nu_err_GHz": fit.delta_nu_err_ghz,
        "center_GHz": fit.center_ghz,
        "scale": fit.scale,
        "resolution_limited": fit.resolution_limited,
        "residual_rms": float(np.sqrt(np.mean(fit.residuals**2))),
        "n_points": len(points),
    }


if __name__ == "__main__":
    main()
