"""Command-line entry point.

    sled-oam rates|dm|fidelity --config <path-or-preset> [--out DIR]
             [--log-scale] [--set section.key=value]...

``rates`` and ``fidelity`` write CSV, ``dm`` writes JSON; ``output.svg`` adds
the plots.

Exit codes: 0 success, 1 the config is valid but no state can be formed
(e.g. an annulus of zero area), 2 configuration error (including a setting
outside the range that ``config`` bounds it to, which would overflow the
rates), 3 numerical-convergence error, 4 I/O error.  Errors are reported as
a one-line JSON record on stderr.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from itertools import product

import numpy as np

from . import __version__, outputs, pair_state, spectral
from .config import PRESET_NAMES, RunConfig, load_config
from .errors import ConfigError, ConvergenceError, SledOamError
from .metrics import fidelity_curve


def _num_token(value: float) -> str:
    return f"{value:g}"


def _pair_label(pair) -> str:
    return f"({pair[0]},{pair[1]})"


def _table_rows(temperatures, columns, values):
    """The (t, column, value) CSV rows of a temperature x column table, row by row.

    A generator: the rows are gone once written.
    """
    return (
        (t, c, values[i, j]) for i, t in enumerate(temperatures) for j, c in enumerate(columns)
    )


def cmd_rates(config: RunConfig) -> dict:
    """Rate surfaces for both channels: rates_cp.csv, rates_bqp.csv (+ heatmaps)."""
    cp, bqp = spectral.rate_surfaces(config.grid, config.junction)
    written = {}
    temps = config.grid.temperatures
    detunings = config.grid.detunings
    for surface, name in ((cp, "rates_cp"), (bqp, "rates_bqp")):
        written[f"{name}.csv"] = outputs.write_csv(
            os.path.join(config.out_dir, f"{name}.csv"),
            "t_over_tc,detuning_over_delta0,rate_normalized",
            _table_rows(temps, detunings, surface.values),
        )
        if config.svg:
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
                os.path.join(config.out_dir, f"{name}.svg"), svg
            )
    return written


def cmd_dm(config: RunConfig) -> dict:
    """Density matrices for every (temperature, enhancement): dm_{t}_{enh}.json."""
    _check_tokens("grid.temperatures", config.grid.temperatures)
    _check_tokens("emission.enhancements", config.enhancements)
    basis = config.basis
    # no target block: each point is mixed, checked and written only where
    # psi psi^H or the diagonal can be nonzero
    cells, mixtures, error = pair_state.mixture_sweep(
        config.qubit,
        config.winding,
        basis,
        config.geometry,
        (),
        config.detuning_for_dm,
        config.grid.temperatures,
        config.enhancements,
        config.junction,
        config.grid.k_integration,
    )
    labels = [_pair_label(pair) for pair in basis.pairs]
    written = {}
    for values, (t, enh) in zip(mixtures, product(config.grid.temperatures, config.enhancements)):
        stem = f"dm_{_num_token(t)}_{_num_token(enh)}"
        written[f"{stem}.json"] = outputs.write_json(
            os.path.join(config.out_dir, f"{stem}.json"), basis.pairs, cells, values
        )
        if config.svg:
            written[f"{stem}.svg"] = _write_matrix_svg(config, labels, cells, values, stem, t, enh)
    # a failing point's error is raised once the files of the points before it are written
    if error is not None:
        raise error
    return written


def _check_tokens(key: str, values) -> None:
    """Distinct values that print alike would overwrite each other's dm files or fidelity curves."""
    first = {}
    for value in values:
        token = _num_token(value)
        if first.setdefault(token, value) != value:
            raise ConfigError(f"{key}: {first[token]!r} and {value!r} print alike, as {token!r}")


def _write_matrix_svg(
    config: RunConfig, labels, flat, values, stem: str, t: float, enh: float
) -> str:
    """Write {stem}.svg, the heatmap of |rho| over the populated pairs; return its digest.

    rho holds ``values`` at ascending row-major ``flat``, +0.0 elsewhere; a pair
    is populated where its row holds a magnitude above 1e-15.  ``labels`` names
    every pair of the basis.
    """
    n, magnitudes = len(labels), abs(values)
    rows, cols = np.divmod(flat, n)
    populated = np.bincount(rows[magnitudes > 1e-15], minlength=n) > 0
    sub = np.cumsum(populated) - 1  # each populated pair's index among them
    kept = populated[rows] & populated[cols]
    shown = [label for label, on in zip(labels, populated.tolist()) if on]
    m, title = len(shown), f"|rho| at T/Tc={_num_token(t)}, enhancement={_num_token(enh)}"
    svg = outputs.svg_matrix(
        m, sub[rows[kept]] * m + sub[cols[kept]], magnitudes[kept], shown, title
    )
    return outputs.write_text(os.path.join(config.out_dir, f"{stem}.svg"), svg)


def cmd_fidelity(config: RunConfig) -> dict:
    """Bell-state fidelity versus temperature per enhancement: fidelity.csv (+ one curve each)."""
    if config.svg:  # the curves are labelled by their enhancement's token
        _check_tokens("emission.enhancements", config.enhancements)
    table = fidelity_curve(
        config.grid.temperatures,
        config.enhancements,
        config.winding,
        config.basis,
        config.geometry,
        config.detuning_for_dm,
        config.junction,
        quad=config.grid.k_integration,
        qubit=config.qubit,
    )
    written = {
        "fidelity.csv": outputs.write_csv(
            os.path.join(config.out_dir, "fidelity.csv"),
            "t_over_tc,enhancement,fidelity",
            _table_rows(table.temperatures, table.enhancements, table.values),
        )
    }
    if config.svg:
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
            os.path.join(config.out_dir, "fidelity.svg"), svg
        )
    return written


# each command returns the SHA-256 digest of every file it wrote, by file name
_COMMANDS = {"rates": cmd_rates, "dm": cmd_dm, "fidelity": cmd_fidelity}


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
        # accepted and ignored, as every run is on one thread: the benchmark's
        # workload command lines pass --threads 1, and ROADMAP item 1 removes
        # the flag together with those command lines
        cmd.add_argument("--threads", type=int, choices=(1,), help=argparse.SUPPRESS)
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
