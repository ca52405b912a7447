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
from .errors import BiphotonError, ParameterError
from .formatting import json_sanitize
from .joint_amplitude import marginal_signal_spectrum, write_marginal_spectrum_csv
from .memory_interface import (
    DesignPoint,
    efficiency_map_summary,
    evaluate_design,
    sweep_design_space,
    write_efficiency_map_csv,
)
from .signal_model import GaussianFilterSpec

SCHEMA_VERSION = "1"


def _load_config(ctx: click.Context, param: click.Parameter, path: str | None) -> None:
    """Load the ``--config`` file, keyed by the command's other options, as its default map.

    A value is stored as the text a flag would carry (JSON ``true`` is
    ``true``), so click converts and checks it as a flag, a flag overrides
    it and it may supply a required option; ``null`` keeps the default.
    """
    if path is None:
        return
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
    unknown = sorted(set(data) - {option.name for option in ctx.command.params if option is not param})
    if unknown:
        raise click.UsageError(f"unknown config keys: {', '.join(unknown)}")
    ctx.default_map = {
        name: value if isinstance(value, str) else json.dumps(value)
        for name, value in data.items()
        if value is not None
    }


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
        except OSError as exc:
            click.echo(f"i/o error: {exc}", err=True)
            sys.exit(3)
        except BiphotonError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(4)
        except (MemoryError, OverflowError, ValueError, np.linalg.LinAlgError) as exc:
            detail = " ".join(str(exc).split()) or "no detail"
            click.echo(f"error: {type(exc).__name__}: {detail}", err=True)
            sys.exit(4)

    return wrapper


@click.group()
def main() -> None:
    """Design and analysis tools for pulsed heralded single-photon sources."""


def _command(name: str, json_output: str = "output"):
    """Register ``body(cfg) -> results`` as the ``biphoton`` command ``name``.

    ``cfg`` maps the command's options to their values.  The command gains
    ``--config`` (see `_load_config`) and the exit codes of `_tool_errors`.
    Its JSON, written to the ``json_output`` option or stdout, holds
    ``schema``, ``command``, the ``config`` without the output paths
    (options named ``output*``) and the results.
    """

    def register(body):
        @functools.wraps(body)
        def run(**cfg: object) -> None:
            results = body(cfg)
            config = {key: value for key, value in cfg.items() if not key.startswith("output")}
            _emit_json({"schema": SCHEMA_VERSION, "command": name, "config": config, **results}, cfg[json_output])

        command = main.command(name=name)(_tool_errors(run))
        command.params.append(
            click.Option(
                ["--config", "config_path"],
                type=click.Path(dir_okay=False),
                is_eager=True,
                expose_value=False,
                callback=_load_config,
                help="JSON config file.",
            )
        )
        return command

    return register


@_command("efficiency")
@click.option("--t-hat", type=float, required=True, help="Gate/period in units of sigma_p.")
@click.option("--gamma-hat", type=float, required=True, help="Filter constant times sigma_p.")
@click.option("--side-pulses", type=click.IntRange(min=0), default=3, show_default=True, help="Train truncation M.")
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
    point = DesignPoint(cfg["t_hat"], cfg["gamma_hat"], cfg["side_pulses"])
    return dataclasses.asdict(evaluate_design(point, include_gates=cfg["use_gates"], kernel=cfg["kernel"]))


@_command("sweep", json_output="output_json")
@click.option("--t-min", type=float, required=True)
@click.option("--t-max", type=float, required=True)
@click.option("--t-steps", type=click.IntRange(min=1), default=32, show_default=True)
@click.option("--gamma-min", type=float, required=True)
@click.option("--gamma-max", type=float, required=True)
@click.option("--gamma-steps", type=click.IntRange(min=1), default=64, show_default=True)
@click.option("--side-pulses", type=click.IntRange(min=0), default=3, show_default=True)
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Cell-by-cell efficiency CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
def sweep(cfg: dict) -> dict:
    """Sweep the design rectangle and report per-row optima.

    Cells of a row that share a lattice are evaluated in batches, one
    batched power iteration for the top eigenvalue of their even signal
    Gram blocks each, on a thread pool of one thread per CPU the process
    may run on (taskset caps it); results do not depend on the thread
    count.
    """
    emap = sweep_design_space(
        (cfg["t_min"], cfg["t_max"]),
        (cfg["gamma_min"], cfg["gamma_max"]),
        (cfg["t_steps"], cfg["gamma_steps"]),
        n_side_pulses=cfg["side_pulses"],
    )
    if cfg["output_csv"] is not None:
        write_efficiency_map_csv(emap, cfg["output_csv"])
    return efficiency_map_summary(emap)


@_command("spectrum", json_output="output_json")
@click.option("--pump-fwhm-ghz", type=float, required=True, help="Pump intensity-spectrum FWHM.")
@click.option("--filter-fwhm-ghz", type=float, required=True, help="Idler filter amplitude FWHM.")
@click.option("--filter-center-ghz", type=float, default=0.0, show_default=True)
@click.option("--output-csv", type=click.Path(dir_okay=False), default=None, help="Spectrum curve CSV.")
@click.option("--output-json", type=click.Path(dir_okay=False), default=None, help="Summary JSON (stdout when omitted).")
def spectrum(cfg: dict) -> dict:
    """Marginal spectrum of the heralded signal photon, on 2049 points over +/-4 FWHM."""
    pump, filt = cfg["pump_fwhm_ghz"], cfg["filter_fwhm_ghz"]
    result = marginal_signal_spectrum(pump, filt, filter_center=cfg["filter_center_ghz"])
    if cfg["output_csv"] is not None:
        write_marginal_spectrum_csv(result, cfg["output_csv"])
    return {
        "fwhm_GHz": result.fwhm,
        "quadrature_fwhm_GHz": result.fwhm,
        "peak_frequency_GHz": float(result.frequencies[int(np.argmax(result.intensity))]),
    }


@_command("analyze")
@click.option("--counts-csv", type=click.Path(dir_okay=False), required=True, help="Input count records.")
@click.option("--transmission", type=float, required=True, help="Heralding path transmission T_s.")
@click.option("--transmission-err", type=float, default=0.0, show_default=True)
@click.option("--detector-efficiency", type=float, required=True, help="Trigger detector efficiency.")
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
        # a port), which stays out of the aggregate, and for a rate fit with
        # under three records or a single pump power, which is left out.
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
    for label, channel in (
        ("c_T", "c_t"),
        ("c_s_given_T", "c_s_given_t"),
        ("signal_singles", "c_signal_total"),
    ):
        fit = measured(linear_rate_fit, records, channel)
        if fit is not None:
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


@_command("fit-spectrum")
@click.option("--sweep-csv", type=click.Path(dir_okay=False), required=True, help="Detuning sweep CSV.")
@click.option("--filter-fwhm-ghz", type=float, required=True, help="Scanning filter amplitude FWHM.")
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
