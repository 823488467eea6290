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
from importlib import resources

import numpy as np

from .bcs import JunctionParams, gaas_nb_junction
from .errors import ConfigError, DomainError
from .modes import MAX_OAM, AnnulusGeometry
from .pair_state import OamPairBasis, QubitState, sector_pairs
from .spectral import KQuadrature, SpectralGrid

PRESET_NAMES = ("fig2", "fig3", "fig4", "fig5")

# Ranges that keep the rate arithmetic finite.  A cutoff of 1e200 gap units
# overflows the squared coherent amplitude.  The broadening hbar / tau is
# infinite below 3.7e-306 fs, and where a node sits on a resonance (d = 0 at
# the Fermi level) the squared rates overflow once tau passes about 1e156 fs.
MAX_CUTOFF_DELTA0 = 1e6
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
# detuning grid itself overflows.
MAX_DETUNING_DELTA0 = 1e6
# The critical temperature, K.  Known superconductors lie between a fraction
# of a millikelvin and a few hundred kelvin.  No large value breaks the
# arithmetic, but at 1e-320 K the thermal energy k_B T at t = 0.001
# underflows to zero and the occupations divide by it.
TC_K_RANGE = (1e-4, 1e3)

_DEFAULT_TEMPS = ", ".join(f"{0.05 * i:g}" for i in range(1, 20))

# section -> key -> default string; None marks "no default, optional key"
_SCHEMA = {
    "material": {
        "delta0_mev": "1.4",
        "tc_k": "9.2",
        "electron_mass": "0.067",
        "hole_mass": "0.45",
        "electron_density_cm2": "1e12",
        "hole_density_cm2": "1e12",
        "dephasing_time_fs": "1000.0",
        "gap_scale_conduction": "1.0",
        "gap_scale_valence": "1.0",
    },
    "geometry": {
        "r_inner_um": "4.0",
        "r_outer_um": "5.0",
        "waist_um": None,  # default derived: (r_inner + r_outer)/sqrt(2)
    },
    "grid": {
        "detuning_max": "6.0",
        "detuning_points": "121",
        "temperatures": _DEFAULT_TEMPS,
        "quadrature_nodes": "4096",
        "cutoff_delta0": "40.0",
        "patch_area_um2": "0.1",
        "verify_quadrature": "false",
    },
    "emission": {
        "winding": "2",
        "l_max": "3",
        "l_values": None,  # optional restriction of detected OAM values
        "detuning_for_dm": "5.0",
        "enhancements": "10, 100",
        "qubit_a": None,  # "magnitude, phase"; both qubit keys or neither
        "qubit_b": None,
    },
    "output": {
        "directory": "out",
        "svg": "false",
        "threads": "0",
        "log_scale": "false",
    },
}


@dataclass
class RunConfig:
    """Fully resolved and validated run parameters."""

    junction: JunctionParams
    geometry: AnnulusGeometry
    grid: SpectralGrid
    winding: int
    l_max: int
    l_values: tuple | None
    detuning_for_dm: float
    enhancements: tuple
    qubit: QubitState | None
    out_dir: str
    svg: bool
    threads: int
    log_scale: bool
    resolved: dict
    defaulted: tuple

    def basis(self) -> OamPairBasis:
        if self.l_values is not None:
            return OamPairBasis.from_l_values(self.l_values)
        return OamPairBasis.full(self.l_max)


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


def _resolve_source(path_or_preset: str) -> str:
    if os.path.exists(path_or_preset):
        with open(path_or_preset, encoding="utf-8") as fh:
            return fh.read()
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
        if "." not in target:
            raise ConfigError(f"override target {target!r} must look like section.key")
        section, _, key = target.strip().partition(".")
        key = key.strip()
        if not parser.has_section(section):
            parser.add_section(section)
        parser.set(section, key, value.strip())


def load_config(path_or_preset: str, overrides=()) -> RunConfig:
    """Parse, validate and default a run configuration.

    ``overrides`` are ``section.key=value`` strings applied on top of the file
    (command-line ``--set`` entries); they are validated like file content.
    """
    text = _resolve_source(path_or_preset)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
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

    def raw(section: str, key: str) -> str | None:
        default = _SCHEMA[section][key]
        value = parser.get(section, key, fallback="").strip()
        if value:
            resolved[f"{section}.{key}"] = value
            return value
        if default is None:
            return None  # absent or empty: an optional key stays unset
        if parser.has_option(section, key):
            raise ConfigError(f"{section}.{key}: empty value; only optional keys can be unset")
        resolved[f"{section}.{key}"] = default
        defaulted.append(f"{section}.{key}")
        return default

    def floatval(section, key):
        return _parse_float(raw(section, key), f"{section}.{key}")

    def intval(section, key):
        return _parse_int(raw(section, key), f"{section}.{key}")

    def bounded(section, key, limits):
        lo, hi = limits
        value = floatval(section, key)
        if not lo <= value <= hi:
            raise ConfigError(f"{section}.{key}: must lie in [{lo:g}, {hi:g}], got {value!r}")
        return value

    # material
    try:
        junction = gaas_nb_junction(
            delta0=bounded("material", "delta0_mev", DELTA0_MEV_RANGE),
            tc=bounded("material", "tc_k", TC_K_RANGE),
            electron_mass=bounded("material", "electron_mass", EFFECTIVE_MASS_RANGE),
            hole_mass=bounded("material", "hole_mass", EFFECTIVE_MASS_RANGE),
            electron_density_cm2=bounded("material", "electron_density_cm2", DENSITY_CM2_RANGE),
            hole_density_cm2=bounded("material", "hole_density_cm2", DENSITY_CM2_RANGE),
            dephasing_time=bounded("material", "dephasing_time_fs", DEPHASING_FS_RANGE),
            gap_scale_conduction=bounded("material", "gap_scale_conduction", GAP_SCALE_RANGE),
            gap_scale_valence=bounded("material", "gap_scale_valence", GAP_SCALE_RANGE),
        )
    except DomainError as exc:
        raise ConfigError(f"material: {exc}") from exc

    # geometry
    r_inner = floatval("geometry", "r_inner_um")
    r_outer = floatval("geometry", "r_outer_um")
    waist_raw = raw("geometry", "waist_um")
    if waist_raw is None:
        waist = (r_inner + r_outer) / math.sqrt(2.0)
        resolved["geometry.waist_um"] = repr(waist)
        defaulted.append("geometry.waist_um")
    else:
        waist = _parse_float(waist_raw, "geometry.waist_um")
    try:
        geometry = AnnulusGeometry(r_inner=r_inner, r_outer=r_outer, waist=waist)
    except DomainError as exc:
        raise ConfigError(f"geometry: {exc}") from exc

    # grid
    d_max = floatval("grid", "detuning_max")
    if not d_max > 0:
        raise ConfigError(
            f"grid.detuning_max: must be > 0 for strictly increasing detunings, got {d_max!r}"
        )
    if not d_max <= MAX_DETUNING_DELTA0:
        raise ConfigError(
            f"grid.detuning_max: must lie in (0, {MAX_DETUNING_DELTA0:g}], got {d_max!r}"
        )
    d_points = intval("grid", "detuning_points")
    if d_points < 2:
        raise ConfigError("grid.detuning_points: need at least 2 points")
    temps = _parse_list(raw("grid", "temperatures"), "grid.temperatures", _parse_float)
    # steps 1-n, 3-n, ..., n-1 and one rounding per point: d[i] == -d[n-1-i]
    # exactly, so each |d| is evaluated once
    steps = np.arange(1 - d_points, d_points, 2)
    detunings = d_max * steps / (d_points - 1)
    if np.any(np.diff(detunings) <= 0):  # the spacing underflows
        raise ConfigError(
            f"grid.detuning_max: {d_max!r} is too small for {d_points} strictly "
            "increasing detunings (grid.detuning_points)"
        )
    cutoff = floatval("grid", "cutoff_delta0")
    if not 0 < cutoff <= MAX_CUTOFF_DELTA0:
        raise ConfigError(
            f"grid.cutoff_delta0: must lie in (0, {MAX_CUTOFF_DELTA0:g}], got {cutoff!r}"
        )
    try:
        quad = KQuadrature(
            nodes=intval("grid", "quadrature_nodes"),
            cutoff_delta0=cutoff,
            patch_area_um2=floatval("grid", "patch_area_um2"),
            verify=_parse_bool(raw("grid", "verify_quadrature"), "grid.verify_quadrature"),
        )
        grid = SpectralGrid(
            detunings=tuple(detunings),
            temperatures=temps,
            k_integration=quad,
        )
    except DomainError as exc:
        raise ConfigError(f"grid: {exc}") from exc

    # emission
    winding = intval("emission", "winding")
    l_max = intval("emission", "l_max")
    if not 0 <= l_max <= MAX_OAM:
        raise ConfigError(f"emission.l_max: must lie in [0, {MAX_OAM}], got {l_max}")
    l_values_raw = raw("emission", "l_values")
    l_values = (
        _parse_list(l_values_raw, "emission.l_values", _parse_int)
        if l_values_raw is not None
        else None
    )
    if l_values is not None and any(abs(v) > l_max for v in l_values):
        raise ConfigError("emission.l_values: entries must satisfy |l| <= l_max")
    detuning_for_dm = floatval("emission", "detuning_for_dm")
    enhancements = _parse_list(raw("emission", "enhancements"), "emission.enhancements", _parse_float)
    if any(e < 1.0 for e in enhancements):
        raise ConfigError("emission.enhancements: every enhancement must be >= 1")
    qubit_a_raw = raw("emission", "qubit_a")
    qubit_b_raw = raw("emission", "qubit_b")
    if (qubit_a_raw is None) != (qubit_b_raw is None):
        raise ConfigError("emission.qubit_a and emission.qubit_b must be given together")
    qubit = None
    if qubit_a_raw is not None:
        mag_a, phase_a = _parse_pair(qubit_a_raw, "emission.qubit_a")
        mag_b, phase_b = _parse_pair(qubit_b_raw, "emission.qubit_b")
        try:
            qubit = QubitState.from_polar(mag_a, phase_a, mag_b, phase_b)
        except DomainError as exc:
            raise ConfigError(f"emission.qubit_a/qubit_b: {exc}") from exc

    # output
    out_dir = raw("output", "directory")
    svg = _parse_bool(raw("output", "svg"), "output.svg")
    threads = intval("output", "threads")
    if threads < 0:
        raise ConfigError("output.threads: must be >= 0 (0 means auto)")
    log_scale = _parse_bool(raw("output", "log_scale"), "output.log_scale")

    config = RunConfig(
        junction=junction,
        geometry=geometry,
        grid=grid,
        winding=winding,
        l_max=l_max,
        l_values=l_values,
        detuning_for_dm=detuning_for_dm,
        enhancements=enhancements,
        qubit=qubit,
        out_dir=out_dir,
        svg=svg,
        threads=threads,
        log_scale=log_scale,
        resolved=resolved,
        defaulted=tuple(defaulted),
    )
    # rho_cp and bell_target need the +winding sector; a counterclockwise amplitude also
    # needs the -winding one
    basis = config.basis()
    for ls in (winding, -winding) if qubit is not None and qubit.b != 0 else (winding,):
        if not sector_pairs(basis, ls):
            raise ConfigError(
                f"emission.winding: no detected pair has total OAM {ls} "
                f"(|l| <= {basis.l_max} over {len(basis)} pairs)"
            )
    return config
