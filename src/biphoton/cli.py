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


def _resolve_config(ctx: click.Context, config_path: str | None, names: tuple[str, ...]) -> dict:
    """Merge config file values under command-line flags.

    A file value is converted by its option's own click type, from the
    text the command line would carry for it (JSON ``true`` is the text
    ``true``), so a file accepts and rejects exactly what a flag does.
    A JSON ``null`` leaves the option at its default.
    """
    file_values = _load_config_file(config_path) if config_path else {}
    unknown = sorted(set(file_values) - set(names))
    if unknown:
        raise click.UsageError(f"unknown config keys: {', '.join(unknown)}")
    params = {param.name: param for param in ctx.command.params}
    resolved = {}
    for name in names:
        source = ctx.get_parameter_source(name)
        value = file_values.get(name)
        if value is None or source not in (None, ParameterSource.DEFAULT):
            resolved[name] = ctx.params[name]
            continue
        text = value if isinstance(value, str) else json.dumps(value)
        resolved[name] = params[name].type.convert(text, params[name], ctx)
    return resolved


def _require(resolved: dict, *names: str) -> None:
    missing = [name for name in names if resolved.get(name) is None]
    if missing:
        raise click.UsageError("missing required parameter(s): " + ", ".join(missing))


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

    return wrapper


@click.group()
def main() -> None:
    """Design and analysis tools for pulsed heralded single-photon sources."""


@main.command()
@click.option("--t-hat", type=float, default=None, help="Gate/period in units of sigma_p.")
@click.option("--gamma-hat", type=float, default=None, help="Filter constant times sigma_p.")
@click.option("--side-pulses", type=int, default=3, show_default=True, help="Train truncation M.")
@click.option("--points-per-sigma", type=int, default=16, show_default=True, help="Lattice density.")
@click.option(
    "--kernel",
    type=click.Choice(["gated", "ungated"]),
    default="gated",
    show_default=True,
    help="Projection kernel: fundamental mode of the gated or the single-pulse state.",
)
@click.option("--gates/--no-gates", "use_gates", default=True, show_default=True)
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON output path (stdout when omitted).")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="JSON config file.")
@click.pass_context
@_tool_errors
def efficiency(ctx: click.Context, **_: object) -> None:
    """Read-in efficiency and mode structure at one design point."""
    names = ("t_hat", "gamma_hat", "side_pulses", "points_per_sigma", "kernel", "use_gates", "output")
    cfg = _resolve_config(ctx, ctx.params["config_path"], names)
    _require(cfg, "t_hat", "gamma_hat")

    point = DesignPoint(
        t_hat=cfg["t_hat"],
        gamma_hat=cfg["gamma_hat"],
        n_side_pulses=cfg["side_pulses"],
        points_per_sigma=cfg["points_per_sigma"],
    )
    report = evaluate_design(point, include_gates=cfg["use_gates"], kernel=cfg["kernel"])
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "efficiency",
        "config": {key: cfg[key] for key in names if key != "output"},
        "eta_in": report.eta_in,
        "purity": report.purity,
        "schmidt_number": report.schmidt_number,
        "gating_loss": report.gating_loss,
        "top_mode_weight": report.top_mode_weight,
        "lambda_sq_head": list(report.lambda_sq_head),
        "norm_gated": report.norm_gated,
        "norm_reference": report.norm_reference,
    }
    _emit_json(payload, cfg["output"])


@main.command()
@click.option("--t-min", type=float, default=None)
@click.option("--t-max", type=float, default=None)
@click.option("--t-steps", type=int, default=32, show_default=True)
@click.option("--gamma-min", type=float, default=None)
@click.option("--gamma-max", type=float, default=None)
@click.option("--gamma-steps", type=int, default=64, show_default=True)
@click.option("--side-pulses", type=int, default=3, show_default=True)
@click.option("--points-per-sigma", type=int, default=16, show_default=True)
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Cell-by-cell efficiency CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="JSON config file.")
@click.pass_context
@_tool_errors
def sweep(ctx: click.Context, **_: object) -> None:
    """Sweep the design rectangle and report per-row optima.

    Parallelism is controlled by the BIPHOTON_THREADS environment
    variable (0 or unset: one thread per CPU); results do not depend on
    the thread count.
    """
    names = (
        "t_min", "t_max", "t_steps",
        "gamma_min", "gamma_max", "gamma_steps",
        "side_pulses", "points_per_sigma", "output_csv", "output_json",
    )
    cfg = _resolve_config(ctx, ctx.params["config_path"], names)
    _require(cfg, "t_min", "t_max", "gamma_min", "gamma_max")

    emap = sweep_design_space(
        (cfg["t_min"], cfg["t_max"]),
        (cfg["gamma_min"], cfg["gamma_max"]),
        (cfg["t_steps"], cfg["gamma_steps"]),
        n_side_pulses=cfg["side_pulses"],
        points_per_sigma=cfg["points_per_sigma"],
    )
    if cfg["output_csv"] is not None:
        write_efficiency_map_csv(emap, cfg["output_csv"])
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "sweep",
        "config": {key: cfg[key] for key in names if key not in ("output_csv", "output_json")},
        **efficiency_map_summary(emap),
    }
    _emit_json(payload, cfg["output_json"])


@main.command()
@click.option("--pump-fwhm-ghz", type=float, default=None, help="Pump intensity-spectrum FWHM.")
@click.option("--filter-fwhm-ghz", type=float, default=None, help="Idler filter amplitude FWHM.")
@click.option("--filter-center-ghz", type=float, default=0.0, show_default=True)
@click.option("--points", type=click.IntRange(min=16), default=2049, show_default=True, help="Frequency axis length.")
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Spectrum curve CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="JSON config file.")
@click.pass_context
@_tool_errors
def spectrum(ctx: click.Context, **_: object) -> None:
    """Marginal spectrum of the heralded signal photon."""
    names = ("pump_fwhm_ghz", "filter_fwhm_ghz", "filter_center_ghz", "points", "output_csv", "output_json")
    cfg = _resolve_config(ctx, ctx.params["config_path"], names)
    _require(cfg, "pump_fwhm_ghz", "filter_fwhm_ghz")

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
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "spectrum",
        "config": {key: cfg[key] for key in names if key not in ("output_csv", "output_json")},
        "fwhm_GHz": result.fwhm,
        "quadrature_fwhm_GHz": quadrature,
        "peak_frequency_GHz": float(result.frequencies[int(np.argmax(result.intensity))]),
    }
    _emit_json(payload, cfg["output_json"])


@main.command()
@click.option("--counts-csv", type=click.Path(dir_okay=False), default=None, help="Input count records.")
@click.option("--transmission", type=float, default=None, help="Heralding path transmission T_s.")
@click.option("--transmission-err", type=float, default=0.0, show_default=True)
@click.option("--detector-efficiency", type=float, default=None, help="Trigger detector efficiency.")
@click.option("--output", type=click.Path(dir_okay=False), default=None, help="JSON output path (stdout when omitted).")
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="JSON config file.")
@click.pass_context
@_tool_errors
def analyze(ctx: click.Context, **_: object) -> None:
    """Reduce count records to heralding efficiencies, g2 and rate fits."""
    names = ("counts_csv", "transmission", "transmission_err", "detector_efficiency", "output")
    cfg = _resolve_config(ctx, ctx.params["config_path"], names)
    _require(cfg, "counts_csv", "transmission", "detector_efficiency")

    path = OpticalPath(
        transmission=cfg["transmission"],
        detector_efficiency=cfg["detector_efficiency"],
        transmission_err=cfg["transmission_err"],
    )
    records, issues = read_counts_csv(cfg["counts_csv"])

    rows = []
    eta_values = []
    g2_values = []
    for record in records:
        eta = heralding_efficiency(record, path)
        eta_values.append(eta)
        net = subtract_accidentals(record)
        row = {
            "pump_power_mW": record.pump_power_mw,
            "eta_her": eta.value,
            "eta_her_err": eta.err,
            "net_rate": net.value,
            "net_rate_clipped": net.clipped,
            "g2": None,
            "g2_err": None,
        }
        try:
            g2 = heralded_g2(record)
        except ParameterError:
            g2 = None
        if g2 is not None:
            row["g2"] = g2.value
            row["g2_err"] = g2.err
            g2_values.append(g2)
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

    payload = {
        "schema": SCHEMA_VERSION,
        "command": "analyze",
        "config": {key: cfg[key] for key in names if key != "output"},
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
    _emit_json(payload, cfg["output"])


@main.command(name="fit-spectrum")
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
@click.option("--config", "config_path", type=click.Path(dir_okay=False), default=None, help="JSON config file.")
@click.pass_context
@_tool_errors
def fit_spectrum(ctx: click.Context, **_: object) -> None:
    """Fit the heralded-photon bandwidth from a filter-detuning sweep."""
    names = ("sweep_csv", "filter_fwhm_ghz", "transmission_model", "output")
    cfg = _resolve_config(ctx, ctx.params["config_path"], names)
    _require(cfg, "sweep_csv", "filter_fwhm_ghz")

    points = read_sweep_csv(cfg["sweep_csv"])
    filt = GaussianFilterSpec.from_amplitude_fwhm(cfg["filter_fwhm_ghz"])
    fit = fit_hsp_bandwidth(points, filt, transmission=cfg["transmission_model"])
    payload = {
        "schema": SCHEMA_VERSION,
        "command": "fit-spectrum",
        "config": {key: cfg[key] for key in names if key != "output"},
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
    _emit_json(payload, cfg["output"])


if __name__ == "__main__":
    main()
