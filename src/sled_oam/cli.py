"""Command-line entry point.

    sled-oam rates|dm|fidelity --config <path-or-preset> [--out DIR]
             [--log-scale] [--set section.key=value]... [-h]
    sled-oam -h | --version

``rates`` and ``fidelity`` write CSV, ``dm`` writes JSON; ``output.svg`` adds
the plots.

The command line is read in one plain pass (``_parse``).  Options may come in
any order after the command, as ``--opt value`` or ``--opt=value``; the last
``--config`` and ``--out`` win and each ``--set`` applies in turn.  Options
are spelled out in full: an abbreviation such as ``--conf`` is an
unrecognized argument.

Exit codes: 0 success (also for ``-h`` and ``--version``, which print to
stdout), 1 the config is valid but no state can be formed (e.g. an annulus
of zero area), 2 usage or configuration error (including a setting outside
the range that ``config`` bounds it to, which would overflow the rates),
3 numerical-convergence error, 4 I/O error.  A usage error prints a usage
line and a plain-text ``sled-oam <command>: error: <message>`` line on
stderr; every other error is reported as a one-line JSON record on stderr.
"""

from __future__ import annotations

import json
import os
import sys
import time
from itertools import product
from typing import NoReturn

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
    cp, bqp = spectral.rate_surfaces(config.grid, config.junction)
    written = {}
    temps = config.grid.temperatures
    detunings = config.grid.detunings
    for surface, name in ((cp, "rates_cp"), (bqp, "rates_bqp")):
        written[f"{name}.csv"] = outputs.write_csv(
            os.path.join(config.out_dir, f"{name}.csv"),
            "t_over_tc,detuning_over_delta0,rate_normalized",
            temps,
            detunings,
            surface.values,
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
    # each point is mixed, checked and written only where it can be nonzero
    cells, mixtures, error = pair_state.mixture_sweep(
        config.qubit,
        config.winding,
        basis,
        config.geometry,
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
            table.temperatures,
            table.enhancements,
            table.values,
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
_USAGE = "usage: sled-oam [-h] [--version] {rates,dm,fidelity} ..."
_HELP = f"""{_USAGE}

Two-photon OAM emission simulator for a ring-contact superconducting LED

commands:
  rates     rate surfaces over the detuning/temperature grid
  dm        pair density matrices per (temperature, enhancement)
  fidelity  Bell-state fidelity versus temperature

options:
  -h, --help  show this help message and exit
  --version   show the version and exit"""
_COMMAND_OPTIONS = f"""options:
  -h, --help               show this help message and exit
  --config CONFIG          config file path or built-in preset ({", ".join(PRESET_NAMES)})
  --out DIR                output directory (overrides output.directory)
  --log-scale              logarithmic color scale in rate-surface SVG heatmaps
                           (dm matrices stay linear)
  --set SECTION.KEY=VALUE  override any config key (repeatable; flag wins over file)"""
# the options of a command that take a value, besides the flag --log-scale.
# --threads is accepted and ignored, as every run is on one thread: the
# benchmark's workload command lines pass --threads 1, and ROADMAP item 1
# removes the flag together with those command lines; the help omits it
_VALUE_OPTIONS = ("--config", "--out", "--set", "--threads")


def _usage(command) -> str:
    if command is None:
        return _USAGE
    return (
        f"usage: sled-oam {command} [-h] --config CONFIG [--out DIR] [--log-scale]"
        " [--set SECTION.KEY=VALUE]..."
    )


def _usage_error(command, message: str) -> NoReturn:
    prog = "sled-oam" if command is None else f"sled-oam {command}"
    print(_usage(command), f"{prog}: error: {message}", sep="\n", file=sys.stderr)
    raise SystemExit(2)


def _parse(argv) -> tuple:
    """The (command, config, overrides) of a command line, read in one pass.

    Help and the version print to stdout and exit 0; a usage error prints to
    stderr and exits 2.  Options are spelled out in full, as ``--opt value`` or
    ``--opt=value``; a value that starts with "-" needs the second form.
    """
    command, given, overrides, extra = None, {}, [], []
    tokens = iter(argv)
    for token in tokens:
        name, eq, value = token.partition("=") if token.startswith("--") else (token, "", "")
        if name in ("-h", "--help"):
            print(_HELP if command is None else f"{_usage(command)}\n\n{_COMMAND_OPTIONS}")
            raise SystemExit(0)
        if command is None:
            if name == "--version":
                print(f"sled-oam {__version__}")
                raise SystemExit(0)
            if token.startswith("-"):
                extra.append(token)
                continue
            if token not in _COMMANDS:
                choices = ", ".join(map(repr, _COMMANDS))
                _usage_error(
                    None, f"argument command: invalid choice: {token!r} (choose from {choices})"
                )
            command = token
        elif name == "--log-scale":
            if eq:
                _usage_error(command, f"argument {name}: ignored explicit argument {value!r}")
            given[name] = True
        elif name not in _VALUE_OPTIONS:
            extra.append(token)
        else:
            if not eq:
                value = next(tokens, None)
                if value is None or value.startswith("-"):
                    _usage_error(command, f"argument {name}: expected one argument")
            if name == "--set":
                overrides.append(value)
            elif name != "--threads":
                given[name] = value
            else:
                try:
                    threads = int(value)
                except ValueError:
                    _usage_error(command, f"argument --threads: invalid int value: {value!r}")
                if threads != 1:
                    _usage_error(
                        command, f"argument --threads: invalid choice: {threads} (choose from 1)"
                    )
    if command is None:
        _usage_error(None, "the following arguments are required: command")
    if "--config" not in given:
        _usage_error(command, "the following arguments are required: --config")
    if extra:
        _usage_error(command, f"unrecognized arguments: {' '.join(extra)}")
    if "--out" in given:
        overrides.append(f"output.directory={given['--out']}")
    if "--log-scale" in given:
        overrides.append("output.log_scale=true")
    return command, given["--config"], overrides


def _error_record(exc: BaseException) -> None:
    record = {"error": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record), file=sys.stderr)


def main(argv=None) -> int:
    command, config_path, overrides = _parse(sys.argv[1:] if argv is None else argv)
    started = time.monotonic()
    try:
        config = load_config(config_path, overrides)
        os.makedirs(config.out_dir, exist_ok=True)
        written = _COMMANDS[command](config)
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
