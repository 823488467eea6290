"""Run-configuration parsing and validation.

Configs are flat INI-style files with ``key = value`` lines grouped into
sections.  Every key has a documented default, so an empty file is a complete
config; unknown sections or keys are rejected by name.  An empty value unsets
an optional key (one whose default is ``None``) and is an error for any other
key.  Built-in figure presets (``fig2`` .. ``fig5``) ship with the package and
can be passed anywhere a config path is accepted.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass
from functools import partial
from importlib import resources

import numpy as np

from .bcs import JunctionParams, gaas_nb_junction
from .errors import ConfigError, DomainError
from .modes import MAX_OAM, AnnulusGeometry
from .pair_state import CLOCKWISE, OamPairBasis, QubitState, sector_pairs
from .spectral import KQuadrature, SpectralGrid

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

# Every range below is closed, [lo, hi]; an open lower end at zero is written
# as the smallest positive double.
_ABOVE_ZERO = math.nextafter(0.0, 1.0)
# Ranges that keep the rate arithmetic finite.  A cutoff of 1e200 gap units
# overflows the squared coherent amplitude.  The broadening hbar / tau is
# infinite below 3.7e-306 fs, and where a node sits on a resonance (d = 0 at
# the Fermi level) the squared rates overflow once tau passes about 1e156 fs.
CUTOFF_DELTA0_RANGE = (_ABOVE_ZERO, 1e6)
DEPHASING_FS_RANGE = (1e-12, 1e12)
# Effective masses, in electron masses.  Below about 1e-300 the Fermi level's
# denominator underflows to zero, and an electron mass above about 1e150
# overflows the band tables; real bands lie within 0.01-10, and every pair of
# masses in this range gives finite rates at the ends of the two ranges above.
EFFECTIVE_MASS_RANGE = (1e-3, 1e3)
# The zero-temperature gap, meV (1 ueV to 1 eV).  Below about 1e-137 meV the
# coherent maximum is so small that the incoherent rates divided by it
# overflow; above about 1e306 the energy cutoff overflows.
DELTA0_MEV_RANGE = (1e-3, 1e3)
# Areal carrier densities, cm^-2 (1e16 is about one carrier per atom of a
# monolayer).  Above about 1e305 a Fermi level overflows to inf.
DENSITY_CM2_RANGE = (1e6, 1e16)
# The per-band gap multipliers.  Below about 1e-154 the normalized incoherent
# rates overflow as for a tiny gap, above about 1e307 the pair weights do.
GAP_SCALE_RANGE = (1e-3, 1e3)
# The largest detuning, in gap units, like the cutoff; at 1.7e308 the
# detuning grid itself overflows.  Zero would give no increasing grid.
DETUNING_MAX_RANGE = (_ABOVE_ZERO, 1e6)
# The critical temperature, K.  Known superconductors lie between a fraction
# of a millikelvin and a few hundred kelvin.  No large value breaks the
# arithmetic, but at 1e-320 K the thermal energy k_B T at t = 0.001
# underflows to zero and the occupations divide by it.
TC_K_RANGE = (1e-4, 1e3)
# Annulus radii, um.  Ring contacts are microns to tens of microns across and
# a ring 1 cm across bounds any device on a chip; r_inner = 0 is a full disc
# and an outer radius below 10 nm is no contact.  The overlaps fail far
# outside: with the derived waist the squared radii overflow and the overlap
# estimate turns NaN between r_outer = 1e154 and 1e155.
R_INNER_UM_RANGE = (0.0, 5e3)
R_OUTER_UM_RANGE = (1e-2, 5e3)
# A beam waist, um, from 1 nm (far below any optical focus) to 1 cm.  Every
# pair of radii above derives a waist (r_inner + r_outer)/sqrt(2) in
# [7.1e-3, 7.1e3], inside this range, so an echoed config loads again.  With
# r_inner = 0 the overlap estimate turns NaN for a waist at or below 1e-160.
WAIST_UM_RANGE = (1e-3, 1e4)
# Grid sizes, which set array lengths: past these the arrays grow until an
# allocation fails.  The quadrature needs 64 nodes, and at 2^17 + 1 its band
# tables hold about 47 MB (7 float64 and 19 complex128 arrays, 360 B per
# node); verification reads the same tables and adds two weight arrays of 8 B
# per node.  No preset uses more than 121 detunings; 10 001 leave 80 times
# that, and a rates CSV of 19 temperatures then holds about 5.5 MB.
QUADRATURE_NODES_RANGE = (64, 2**17 + 1)
DETUNING_POINTS_RANGE = (2, 10_001)

_DEFAULT_TEMPS = ", ".join(f"{0.05 * i:g}" for i in range(1, 20))


def _parse_float(raw: str, where: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected a number, got {raw!r}") from exc
    if not math.isfinite(value):
        raise ConfigError(f"{where}: value must be finite, got {raw!r}")
    return value


def _parse_int(raw: str, where: str) -> int:
    try:
        return int(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: expected an integer, got {raw!r}") from exc


def _parse_bool(raw: str, where: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ConfigError(f"{where}: expected a boolean, got {raw!r}")


def _parse_list(raw: str, where: str, item_parser):
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ConfigError(f"{where}: expected a comma-separated list, got {raw!r}")
    return tuple(item_parser(s, where) for s in items)


def _parse_pair(raw: str, where: str):
    parts = [s.strip() for s in raw.split(",")]
    if len(parts) != 2:
        raise ConfigError(f"{where}: expected 'magnitude, phase', got {raw!r}")
    return _parse_float(parts[0], where), _parse_float(parts[1], where)


_floats = partial(_parse_list, item_parser=_parse_float)
_ints = partial(_parse_list, item_parser=_parse_int)

# section -> key -> (default string, parser, range [lo, hi] or None).  A
# default of None marks an optional key; a range bounds each item of a list.
_SCHEMA = {
    "material": {
        "delta0_mev": ("1.4", _parse_float, DELTA0_MEV_RANGE),
        "tc_k": ("9.2", _parse_float, TC_K_RANGE),
        "electron_mass": ("0.067", _parse_float, EFFECTIVE_MASS_RANGE),
        "hole_mass": ("0.45", _parse_float, EFFECTIVE_MASS_RANGE),
        "electron_density_cm2": ("1e12", _parse_float, DENSITY_CM2_RANGE),
        "hole_density_cm2": ("1e12", _parse_float, DENSITY_CM2_RANGE),
        "dephasing_time_fs": ("1000.0", _parse_float, DEPHASING_FS_RANGE),
        "gap_scale_conduction": ("1.0", _parse_float, GAP_SCALE_RANGE),
        "gap_scale_valence": ("1.0", _parse_float, GAP_SCALE_RANGE),
    },
    "geometry": {
        "r_inner_um": ("4.0", _parse_float, R_INNER_UM_RANGE),
        "r_outer_um": ("5.0", _parse_float, R_OUTER_UM_RANGE),
        # default derived: (r_inner + r_outer)/sqrt(2)
        "waist_um": (None, _parse_float, WAIST_UM_RANGE),
    },
    "grid": {
        "detuning_max": ("6.0", _parse_float, DETUNING_MAX_RANGE),
        "detuning_points": ("121", _parse_int, DETUNING_POINTS_RANGE),
        "temperatures": (_DEFAULT_TEMPS, _floats, None),
        "quadrature_nodes": ("4096", _parse_int, QUADRATURE_NODES_RANGE),
        "cutoff_delta0": ("40.0", _parse_float, CUTOFF_DELTA0_RANGE),
        "patch_area_um2": ("0.1", _parse_float, None),
        "verify_quadrature": ("false", _parse_bool, None),
    },
    "emission": {
        "winding": ("2", _parse_int, None),
        "l_max": ("3", _parse_int, (0, MAX_OAM)),
        # optional restriction of detected OAM values
        "l_values": (None, _ints, None),
        "detuning_for_dm": ("5.0", _parse_float, None),
        "enhancements": ("10, 100", _floats, (1.0, math.inf)),
        # "magnitude, phase"; both qubit keys or neither
        "qubit_a": (None, _parse_pair, None),
        "qubit_b": (None, _parse_pair, None),
    },
    "output": {
        "directory": ("out", lambda raw, where: raw, None),
        "svg": ("false", _parse_bool, None),
        "log_scale": ("false", _parse_bool, None),
    },
}


@dataclass
class RunConfig:
    """Fully resolved and validated run parameters."""

    junction: JunctionParams
    geometry: AnnulusGeometry
    grid: SpectralGrid
    winding: int
    basis: OamPairBasis
    detuning_for_dm: float
    enhancements: tuple
    qubit: QubitState
    out_dir: str
    svg: bool
    log_scale: bool
    resolved: dict
    defaulted: tuple


def _resolve_source(path_or_preset: str) -> str:
    if os.path.exists(path_or_preset):
        with open(path_or_preset, encoding="utf-8") as fh:
            try:
                return fh.read()
            except UnicodeDecodeError as exc:
                raise ConfigError(f"config {path_or_preset!r} is not UTF-8 text: {exc}") from exc
    if path_or_preset in PRESET_NAMES:
        ref = resources.files("sled_oam").joinpath(f"presets/{path_or_preset}.conf")
        return ref.read_text(encoding="utf-8")
    raise ConfigError(
        f"config {path_or_preset!r} is neither an existing file nor one of the "
        f"built-in presets {', '.join(PRESET_NAMES)}"
    )


def _apply_overrides(parser: configparser.ConfigParser, overrides) -> None:
    for item in overrides:
        if "=" not in item:
            raise ConfigError(f"override {item!r} must look like section.key=value")
        target, _, value = item.partition("=")
        section, _, key = target.strip().partition(".")
        key = key.strip()
        if not section or not key:  # so also without a dot
            raise ConfigError(f"override target {target!r} must look like section.key")
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())


def load_config(path_or_preset: str, overrides=()) -> RunConfig:
    """Parse, validate and default a run configuration.

    ``overrides`` are ``section.key=value`` strings applied on top of the file
    (command-line ``--set`` entries); they are validated like file content.
    """
    text = _resolve_source(path_or_preset)
    # no header spells the empty name, so [DEFAULT] is an unknown section like any other
    parser = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#", ";"), default_section=""
    )
    try:
        parser.read_string(text, source=str(path_or_preset))
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}") from exc
    _apply_overrides(parser, overrides)

    for section in parser.sections():
        if section not in _SCHEMA:
            raise ConfigError(f"unknown config section [{section}]")
        for key in parser[section]:
            if key not in _SCHEMA[section]:
                raise ConfigError(f"unknown config key {section}.{key}")

    resolved: dict = {}
    defaulted: list = []
    v: dict = {}  # "section.key" -> parsed value, None for an unset optional key
    for section, rows in _SCHEMA.items():
        for key, (default, parse, limits) in rows.items():
            where = f"{section}.{key}"
            raw = parser.get(section, key, fallback="").strip()
            if not raw and default is not None:
                if parser.has_option(section, key):
                    raise ConfigError(f"{where}: empty value; only optional keys can be unset")
                raw = default
                defaulted.append(where)
            if not raw:  # an optional key stays unset
                v[where] = None
                continue
            resolved[where] = raw
            value = v[where] = parse(raw, where)
            if limits is not None:
                lo, hi = limits
                for item in value if isinstance(value, tuple) else (value,):
                    if not lo <= item <= hi:
                        raise ConfigError(f"{where}: must lie in [{lo:g}, {hi:g}], got {item!r}")

    try:
        junction = gaas_nb_junction(
            delta0=v["material.delta0_mev"],
            tc=v["material.tc_k"],
            electron_mass=v["material.electron_mass"],
            hole_mass=v["material.hole_mass"],
            electron_density_cm2=v["material.electron_density_cm2"],
            hole_density_cm2=v["material.hole_density_cm2"],
            dephasing_time=v["material.dephasing_time_fs"],
            gap_scale_conduction=v["material.gap_scale_conduction"],
            gap_scale_valence=v["material.gap_scale_valence"],
        )
    except DomainError as exc:
        raise ConfigError(f"material: {exc}") from exc

    r_inner, r_outer = v["geometry.r_inner_um"], v["geometry.r_outer_um"]
    waist = v["geometry.waist_um"]
    if waist is None:
        waist = (r_inner + r_outer) / math.sqrt(2.0)
        resolved["geometry.waist_um"] = repr(waist)
        defaulted.append("geometry.waist_um")
    try:
        geometry = AnnulusGeometry(r_inner=r_inner, r_outer=r_outer, waist=waist)
    except DomainError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    d_max, d_points = v["grid.detuning_max"], v["grid.detuning_points"]
    # steps 1-n, 3-n, ..., n-1 and one rounding per point: d[i] == -d[n-1-i]
    # exactly, so each |d| is evaluated once
    steps = np.arange(1 - d_points, d_points, 2)
    detunings = d_max * steps / (d_points - 1)
    if np.any(np.diff(detunings) <= 0):  # the spacing underflows
        raise ConfigError(
            f"grid.detuning_max: {d_max!r} is too small for {d_points} strictly "
            "increasing detunings (grid.detuning_points)"
        )
    try:
        quad = KQuadrature(
            nodes=v["grid.quadrature_nodes"],
            cutoff_delta0=v["grid.cutoff_delta0"],
            patch_area_um2=v["grid.patch_area_um2"],
            verify=v["grid.verify_quadrature"],
        )
        grid = SpectralGrid(
            detunings=tuple(detunings),
            temperatures=v["grid.temperatures"],
            k_integration=quad,
        )
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    l_max, l_values = v["emission.l_max"], v["emission.l_values"]
    if l_values is not None and any(abs(x) > l_max for x in l_values):
        raise ConfigError("emission.l_values: entries must satisfy |l| <= l_max")
    basis = OamPairBasis.full(l_max) if l_values is None else OamPairBasis.from_l_values(l_values)
    qubit_a, qubit_b = v["emission.qubit_a"], v["emission.qubit_b"]
    if (qubit_a is None) != (qubit_b is None):
        raise ConfigError("emission.qubit_a and emission.qubit_b must be given together")
    qubit = CLOCKWISE
    if qubit_a is not None:
        try:
            qubit = QubitState.from_polar(*qubit_a, *qubit_b)
        except DomainError as exc:
            raise ConfigError(f"emission.qubit_a/qubit_b: {exc}") from exc

    # the clockwise amplitude and bell_target need the +winding sector; a
    # counterclockwise amplitude also needs the -winding one
    winding = v["emission.winding"]
    for ls in (winding, -winding) if qubit.b != 0 else (winding,):
        if not sector_pairs(basis, ls):
            raise ConfigError(
                f"emission.winding: no detected pair has total OAM {ls} "
                f"(|l| <= {basis.l_max} over {len(basis)} pairs)"
            )
    return RunConfig(
        junction=junction,
        geometry=geometry,
        grid=grid,
        winding=winding,
        basis=basis,
        detuning_for_dm=v["emission.detuning_for_dm"],
        enhancements=v["emission.enhancements"],
        qubit=qubit,
        out_dir=v["output.directory"],
        svg=v["output.svg"],
        log_scale=v["output.log_scale"],
        resolved=resolved,
        defaulted=tuple(defaulted),
    )
