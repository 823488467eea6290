"""Desk-scale simulator of OAM-entangled two-photon emission from a
superconducting LED with a circulating supercurrent."""

__version__ = "0.1.0"

from .bcs import (
    BandParams,
    JunctionParams,
    SuperconductorParams,
    coherence_factors,
    fermi_level_from_density,
    fermi_occupation,
    gaas_nb_junction,
    gap_at_temperature,
    quasiparticle_energy,
)
from .errors import (
    ConfigError,
    ContractError,
    ConvergenceError,
    DegenerateMixtureError,
    DomainError,
    EmptySectorError,
    SledOamError,
)
from .metrics import (
    HermitianEigen,
    TargetState,
    bell_target,
    eigh,
    fidelity,
    fidelity_curve,
    sqrtm_psd,
)
from .modes import AnnulusGeometry, kappa, lg_radial
from .pair_state import (
    OamPairBasis,
    PairDensityMatrix,
    QubitState,
    rho_bqp,
    rho_cp,
    rho_superposition,
    rho_total,
    rho_total_superposition,
    sector_pairs,
)
from .spectral import (
    CoherenceParams,
    KQuadrature,
    RateSurface,
    SpectralGrid,
    mixing_rates,
    rate_surfaces,
)

__all__ = [
    "__version__",
    "AnnulusGeometry",
    "BandParams",
    "CoherenceParams",
    "ConfigError",
    "ContractError",
    "ConvergenceError",
    "DegenerateMixtureError",
    "DomainError",
    "EmptySectorError",
    "HermitianEigen",
    "JunctionParams",
    "KQuadrature",
    "OamPairBasis",
    "PairDensityMatrix",
    "QubitState",
    "RateSurface",
    "SledOamError",
    "SpectralGrid",
    "SuperconductorParams",
    "TargetState",
    "bell_target",
    "coherence_factors",
    "eigh",
    "fermi_level_from_density",
    "fermi_occupation",
    "fidelity",
    "fidelity_curve",
    "gaas_nb_junction",
    "gap_at_temperature",
    "kappa",
    "lg_radial",
    "mixing_rates",
    "quasiparticle_energy",
    "rate_surfaces",
    "rho_bqp",
    "rho_cp",
    "rho_superposition",
    "rho_total",
    "rho_total_superposition",
    "sector_pairs",
    "sqrtm_psd",
]
