"""Command-line entry point.

    sled-oam rates|dm|fidelity --config <path-or-preset> [--out DIR]
             [--format csv,json,svg] [--threads N] [--log-scale]
             [--set section.key=value]...

Exit codes: 0 success, 1 the config is valid but no state can be formed
(e.g. an annulus of zero area), 2 configuration error, 3 numerical-convergence
error, 4 I/O error.  Errors are reported as a one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__, outputs, pair_state, spectral
from .config import PRESET_NAMES, RunConfig, load_config
from .errors import ConfigError, ConvergenceError, SledOamError
from .metrics import fidelity_curve


def _num_token(value: float) -> str:
    return f"{value:g}"


def _pair_label(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def cmd_rates(config: RunConfig) -> dict:
    """Rate surfaces for both channels: rates_cp.csv, rates_bqp.csv (+ heatmaps)."""
    cp, bqp = spectral.rate_surfaces(config.grid, config.junction, workers=config.threads)
    written = {}
    temps = config.grid.temperatures
    detunings = config.grid.detunings
    for surface, name in ((cp, "rates_cp"), (bqp, "rates_bqp")):
        rows = [
            (t, d, surface.values[i, j])
            for i, t in enumerate(temps)
            for j, d in enumerate(detunings)
        ]
        written[f"{name}.csv"] = outputs.write_csv(
            os.path.join(config.out_dir, f"{name}.csv"),
            "t_over_tc,detuning_over_delta0,rate_normalized",
            rows,
        )
        if "svg" in config.formats:
            svg = outputs.svg_heatmap(
                surface.values,
                [_num_token(d) for d in detunings],
                [_num_token(t) for t in temps],
                f"{surface.channel} two-photon rate (normalized)",
                "detuning / delta0",
                "T / Tc",
                vmax=1.0,
                log_scale=config.log_scale,
            )
            written[f"{name}.svg"] = outputs.write_text(
                os.path.join(config.out_dir, f"{name}.svg"), *svg
            )
    return written


def cmd_dm(config: RunConfig) -> dict:
    """Density matrices for every (temperature, enhancement): dm_{t}_{enh}.json."""
    _check_file_tokens("grid.temperatures", config.grid.temperatures)
    _check_file_tokens("emission.enhancements", config.enhancements)
    basis = config.basis()
    if config.qubit is not None:
        coherent = pair_state.rho_superposition(
            config.qubit, config.winding, basis, config.geometry
        )
    else:
        coherent = pair_state.rho_cp(config.winding, basis, config.geometry)
    written = {}
    for t, enh, rho in pair_state.mixtures(
        coherent,
        pair_state.rho_bqp(basis, config.geometry),
        config.detuning_for_dm,
        config.grid.temperatures,
        config.enhancements,
        config.junction,
        config.grid.k_integration,
    ):
        stem = f"dm_{_num_token(t)}_{_num_token(enh)}"
        written[f"{stem}.json"] = outputs.write_json(
            os.path.join(config.out_dir, f"{stem}.json"), rho.basis.pairs, rho.entries
        )
        if "svg" in config.formats:
            written[f"{stem}.svg"] = _write_matrix_svg(config, rho, stem, t, enh)
    return written


def _check_file_tokens(key: str, values) -> None:
    """Distinct values that print alike would overwrite each other's dm files."""
    first = {}
    for value in values:
        token = _num_token(value)
        if first.setdefault(token, value) != value:
            raise ConfigError(f"{key}: {first[token]!r} and {value!r} share file token {token!r}")


def _write_matrix_svg(config: RunConfig, rho, stem: str, t: float, enh: float) -> str:
    """Write {stem}.svg, the heatmap of |rho| over the populated pairs; return its digest.

    Its large temporaries die on return.
    """
    magnitudes = abs(rho.entries)
    populated = np.flatnonzero(magnitudes.max(axis=1, initial=0.0) > 1e-15)
    labels = [_pair_label(rho.basis.pairs[i]) for i in populated]
    svg = outputs.svg_matrix(
        magnitudes[populated][:, populated],
        labels,
        f"|rho| at T/Tc={_num_token(t)}, enhancement={_num_token(enh)}",
    )
    return outputs.write_text(os.path.join(config.out_dir, f"{stem}.svg"), *svg)


def cmd_fidelity(config: RunConfig) -> dict:
    """Bell-state fidelity versus temperature per enhancement: fidelity.csv."""
    table = fidelity_curve(
        config.grid.temperatures,
        config.enhancements,
        config.winding,
        config.basis(),
        config.geometry,
        config.detuning_for_dm,
        config.junction,
        quad=config.grid.k_integration,
    )
    rows = [
        (t, enh, table.values[i, j])
        for i, t in enumerate(table.temperatures)
        for j, enh in enumerate(table.enhancements)
    ]
    written = {
        "fidelity.csv": outputs.write_csv(
            os.path.join(config.out_dir, "fidelity.csv"), "t_over_tc,enhancement,fidelity", rows
        )
    }
    if "svg" in config.formats:
        series = {
            f"L/L_phi = {_num_token(enh)}": table.values[:, j]
            for j, enh in enumerate(table.enhancements)
        }
        svg = outputs.svg_lines(
            table.temperatures,
            series,
            "Bell-state fidelity of the emitted pair",
            "T / Tc",
            "fidelity",
        )
        written["fidelity.svg"] = outputs.write_text(
            os.path.join(config.out_dir, "fidelity.svg"), *svg
        )
    return written


# each command returns the SHA-256 digest of every file it wrote, by file name
_COMMANDS = {"rates": cmd_rates, "dm": cmd_dm, "fidelity": cmd_fidelity}
# the format of the data files each command always writes
_DATA_FORMATS = {"rates": "csv", "dm": "json", "fidelity": "csv"}


def _check_data_format(command: str, formats) -> None:
    """A format list without the command's data format would be ignored, not obeyed."""
    needed = _DATA_FORMATS[command]
    if needed not in formats:
        raise ConfigError(
            f"output.formats: {command} writes {needed} data files, so the list must "
            f"include {needed!r}, got {','.join(formats)!r}"
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sled-oam",
        description="Two-photon OAM emission simulator for a ring-contact superconducting LED",
    )
    parser.add_argument("--version", action="version", version=f"sled-oam {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    helps = {
        "rates": "rate surfaces over the detuning/temperature grid",
        "dm": "pair density matrices per (temperature, enhancement)",
        "fidelity": "Bell-state fidelity versus temperature",
    }
    for name, text in helps.items():
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument(
            "--config",
            required=True,
            help=f"config file path or built-in preset ({', '.join(PRESET_NAMES)})",
        )
        cmd.add_argument("--out", help="output directory (overrides output.directory)")
        cmd.add_argument("--format", help="comma list of csv,json,svg (overrides output.formats)")
        cmd.add_argument(
            "--threads", type=int, help="worker threads, 0 = auto (overrides output.threads)"
        )
        cmd.add_argument(
            "--log-scale",
            action="store_const",
            const=True,
            help="logarithmic color scale in rate-surface SVG heatmaps (dm matrices stay linear)",
        )
        cmd.add_argument(
            "--set",
            dest="overrides",
            action="append",
            default=[],
            metavar="SECTION.KEY=VALUE",
            help="override any config key (repeatable; flag wins over file)",
        )
    return parser


def _flag_overrides(args: argparse.Namespace) -> list:
    overrides = list(args.overrides)
    if args.out is not None:
        overrides.append(f"output.directory={args.out}")
    if args.format is not None:
        overrides.append(f"output.formats={args.format}")
    if args.threads is not None:
        overrides.append(f"output.threads={args.threads}")
    if args.log_scale is not None:
        overrides.append("output.log_scale=true")
    return overrides


def _error_record(exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        config = load_config(args.config, _flag_overrides(args))
        _check_data_format(args.command, config.formats)
        os.makedirs(config.out_dir, exist_ok=True)
        written = _COMMANDS[args.command](config)
        outputs.write_manifest(
            config.out_dir,
            config.resolved,
            config.defaulted,
            __version__,
            time.monotonic() - started,
            written,
        )
    except ConfigError as exc:
        _error_record(exc)
        return 2
    except ConvergenceError as exc:
        _error_record(exc)
        return 3
    except OSError as exc:
        _error_record(exc)
        return 4
    except SledOamError as exc:
        _error_record(exc)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
