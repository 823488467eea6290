"""BCS scalar primitives for the junction bands.

Implements the temperature-dependent induced gap, quasiparticle dispersions,
coherence factors and Fermi occupations that every spectral formula builds on,
with the physical constants and the 2D band formulas (Fermi level, density of
states) they take.

Units and conventions
---------------------
- Energies in meV, temperatures in K, times in fs, lengths in um.
- Areal carrier densities are quoted in cm^-2 at the API boundary.
- CODATA 2018 constants; k_B and the elementary charge are exact by definition.
- ``delta0`` is the zero-temperature induced gap; the same gap magnitude is
  used in the conduction and valence bands unless overridden per band.
- Quasi Fermi levels are measured from the respective band edge and are
  positive for degenerate carrier populations.
- Gaps, critical temperatures, masses, Fermi levels and gap scales are positive
  and finite, temperatures non-negative; else ``DomainError`` (NaN fails too).

All functions accept numpy arrays where that is meaningful and are pure;
they are safe to call concurrently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_positive

KB_MEV_PER_K = 0.08617333262145178  # Boltzmann constant, meV/K (1.380649e-23 J/K, exact)
HBAR_JS = 1.054571817e-34  # reduced Planck constant
HBAR_MEV_FS = 658.2119565476075
ELECTRON_MASS_KG = 9.1093837015e-31
MEV_J = 1.602176634e-22  # one meV in joules (elementary charge 1.602176634e-19 C, exact)


@dataclass(frozen=True)
class SuperconductorParams:
    """Induced superconductor: zero-temperature gap (meV) and critical temperature (K)."""

    delta0: float
    tc: float

    def __post_init__(self):
        require_positive("delta0", self.delta0)
        require_positive("tc", self.tc)


@dataclass(frozen=True)
class BandParams:
    """One semiconductor band: effective mass (m_e multiples) and quasi Fermi level (meV).

    ``gap_scale`` multiplies the shared induced gap in this band; the default
    of 1 keeps both bands at the same gap, nonunity values support
    sensitivity studies.
    """

    effective_mass: float
    quasi_fermi_level: float
    gap_scale: float = 1.0

    def __post_init__(self):
        require_positive("effective_mass", self.effective_mass)
        require_positive("quasi_fermi_level", self.quasi_fermi_level)
        require_positive("gap_scale", self.gap_scale)


@dataclass(frozen=True)
class JunctionParams:
    """Full electronic description of the emitting p-n junction.

    ``dephasing_time`` sets the resonance broadening ``HBAR_MEV_FS / dephasing_time``.
    """

    sc: SuperconductorParams
    conduction: BandParams
    valence: BandParams
    dephasing_time: float

    def __post_init__(self):
        if not self.dephasing_time > 0 or not math.isfinite(self.dephasing_time):
            raise DomainError(
                f"dephasing_time must be positive and finite, got {self.dephasing_time}"
            )

    @property
    def broadening(self) -> float:
        """Resonance broadening energy Gamma = hbar / dephasing_time, meV."""
        return HBAR_MEV_FS / self.dephasing_time


def gap_at_temperature(sc: SuperconductorParams, t: float) -> float:
    """Temperature-dependent gap delta0 * tanh(1.74 sqrt(Tc/T - 1)).

    Parameters
    ----------
    sc
        Superconductor parameters (delta0, Tc).
    t
        Temperature in kelvin, t >= 0.

    Returns
    -------
    float
        Gap in meV: delta0 at t = 0, zero at and above Tc.
    """
    if not t >= 0:  # NaN fails too
        raise DomainError(f"temperature must be non-negative, got {t}")
    if t == 0:
        return sc.delta0
    if t >= sc.tc:
        return 0.0
    return sc.delta0 * math.tanh(1.74 * math.sqrt(sc.tc / t - 1.0))


def quasiparticle_energy(xi, delta, out=None):
    """Bogoliubov quasiparticle energy sqrt(delta^2 + xi^2), meV, written to ``out`` if given.

    Accepts scalars or arrays; ``delta`` must be non-negative (a NaN passes).
    """
    # a float gap, as every band-table refill passes, needs no array for its check
    negative = delta < 0 if isinstance(delta, float) else np.any(np.asarray(delta) < 0)
    if negative:
        raise DomainError("delta must be non-negative")
    return np.hypot(xi, delta, out=out)


def coherence_factors(xi, delta):
    """BCS coherence factors (u^2, v^2) = ([1 +- xi/E]/2).

    Parameters
    ----------
    xi
        Kinetic energy measured from the quasi Fermi level, meV.
    delta
        Gap magnitude, meV, >= 0.

    Returns
    -------
    (u_sq, v_sq)
        Particle and hole weights; u_sq + v_sq = 1.
    """
    e = quasiparticle_energy(xi, delta)
    if np.any(np.asarray(e) == 0):
        raise DomainError("coherence factors are singular at xi = delta = 0")
    ratio = np.asarray(xi) / e
    u_sq = 0.5 * (1.0 + ratio)
    v_sq = 0.5 * (1.0 - ratio)
    if np.isscalar(xi) or np.ndim(xi) == 0:
        return float(u_sq), float(v_sq)
    return u_sq, v_sq


def fermi_occupation(e, t: float, out=None):
    """Fermi-Dirac occupation 1/(1 + exp(e / k_B t)) for energy in meV, t in K.

    At t = 0 the step limit is returned: 1 below, 1/2 at, 0 above zero energy.
    With ``out`` every step is written there (``out`` may be ``e`` itself).
    """
    if not t >= 0:  # NaN fails too
        raise DomainError(f"temperature must be non-negative, got {t}")
    e = np.asarray(e, dtype=float)
    if t == 0:
        occ = np.where(e < 0, 1.0, np.where(e == 0, 0.5, 0.0))
        if out is not None:
            out[...] = occ
            occ = out
    else:
        with np.errstate(over="ignore"):
            occ = np.divide(e, KB_MEV_PER_K * t, out=out)
            occ = np.exp(occ, out=out)
            occ = np.add(1.0, occ, out=out)
            occ = np.divide(1.0, occ, out=out)
    if occ.ndim == 0:
        return float(occ)
    return occ


def fermi_level_from_density(density_cm2: float, mass: float) -> float:
    """Quasi Fermi level of a spin-degenerate 2D band, meV.

    mu = pi hbar^2 n / (m m_e), with n the areal density in cm^-2 and m the
    effective-mass multiple.
    """
    require_positive("density", density_cm2)
    require_positive("mass", mass)
    n_m2 = density_cm2 * 1e4
    return math.pi * HBAR_JS**2 * n_m2 / (mass * ELECTRON_MASS_KG) / MEV_J


def dos_2d_per_mev_um2(mass: float) -> float:
    """Single-spin 2D density of states m m_e / (2 pi hbar^2), in 1/(meV um^2)."""
    return mass * ELECTRON_MASS_KG * MEV_J * 1e-12 / (2.0 * math.pi * HBAR_JS**2)


def gaas_nb_junction(
    delta0: float = 1.4,
    tc: float = 9.2,
    electron_mass: float = 0.067,
    hole_mass: float = 0.45,
    electron_density_cm2: float = 1e12,
    hole_density_cm2: float = 1e12,
    dephasing_time: float = 1000.0,
    gap_scale_conduction: float = 1.0,
    gap_scale_valence: float = 1.0,
) -> JunctionParams:
    """Illustrative GaAs quantum well with Nb contacts.

    Default gap and critical temperature correspond to Nb-induced
    superconductivity; carrier densities of 1e12 cm^-2 per band give quasi
    Fermi levels of roughly 35.7 meV (electrons) and 5.3 meV (heavy holes).
    Every number is overridable through the run configuration.
    """
    conduction = BandParams(
        effective_mass=electron_mass,
        quasi_fermi_level=fermi_level_from_density(electron_density_cm2, electron_mass),
        gap_scale=gap_scale_conduction,
    )
    valence = BandParams(
        effective_mass=hole_mass,
        quasi_fermi_level=fermi_level_from_density(hole_density_cm2, hole_mass),
        gap_scale=gap_scale_valence,
    )
    sc = SuperconductorParams(delta0=delta0, tc=tc)
    return JunctionParams(sc, conduction, valence, dephasing_time)

