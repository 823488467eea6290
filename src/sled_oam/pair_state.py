"""Photon-pair OAM density matrices.

A pair state lives on an ordered basis of (l1, l2) OAM labels (radial index
fixed at zero).  The coherent channel populates only pairs whose total OAM
equals the supercurrent winding number; the incoherent channel contributes a
diagonal background.  Mixtures are weighted by the spectral rates evaluated
at a fixed detuning; ``mixtures`` sweeps them over (temperature, enhancement)
from channel matrices built once, and every mixture of the package is formed
there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import spectral
from .bcs import JunctionParams
from .errors import ContractError, DegenerateMixtureError, DomainError, EmptySectorError, at_point
from .modes import AnnulusGeometry, ModeIndex, kappa

HERMITICITY_TOL = 1e-12


@dataclass(frozen=True)
class QubitState:
    """Complex amplitudes of the clockwise/counterclockwise current superposition.

    The clockwise component maps to the +ls total-OAM sector, the
    counterclockwise one to -ls.
    """

    a: complex
    b: complex

    def __post_init__(self):
        norm = abs(self.a) ** 2 + abs(self.b) ** 2
        if abs(norm - 1.0) > 1e-12:
            raise DomainError(f"|a|^2 + |b|^2 must be 1, got {norm}")

    @classmethod
    def from_polar(cls, mag_a, phase_a, mag_b, phase_b) -> "QubitState":
        return cls(
            a=mag_a * complex(np.cos(phase_a), np.sin(phase_a)),
            b=mag_b * complex(np.cos(phase_b), np.sin(phase_b)),
        )


class OamPairBasis:
    """Lexicographically ordered set of (l1, l2) pair labels with |l| <= l_max."""

    def __init__(self, pairs, l_max: int):
        pairs = [(int(l1), int(l2)) for l1, l2 in pairs]
        if len(set(pairs)) != len(pairs):
            raise DomainError("pair basis contains duplicates")
        if any(abs(l1) > l_max or abs(l2) > l_max for l1, l2 in pairs):
            raise DomainError(f"pair label outside |l| <= {l_max}")
        if not pairs:
            raise DomainError("pair basis is empty")
        self.pairs = tuple(sorted(pairs))
        self.l_max = int(l_max)
        self._index = {p: i for i, p in enumerate(self.pairs)}

    @classmethod
    def full(cls, l_max: int) -> "OamPairBasis":
        values = range(-l_max, l_max + 1)
        return cls(list(product(values, values)), l_max)

    @classmethod
    def from_l_values(cls, l_values) -> "OamPairBasis":
        values = sorted(set(int(v) for v in l_values))
        l_max = max((abs(v) for v in values), default=0)
        return cls(list(product(values, values)), l_max)

    def index(self, pair) -> int:
        return self._index[tuple(pair)]

    def __len__(self) -> int:
        return len(self.pairs)

    def __eq__(self, other) -> bool:
        return isinstance(other, OamPairBasis) and self.pairs == other.pairs

    def __hash__(self):
        return hash(self.pairs)

    def __repr__(self) -> str:
        return f"OamPairBasis({len(self.pairs)} pairs, l_max={self.l_max})"


def sector_pairs(basis: OamPairBasis, ls: int):
    """Pairs of the basis whose total OAM equals ls."""
    return [p for p in basis.pairs if p[0] + p[1] == ls]


class PairDensityMatrix:
    """Hermitian matrix over an OAM pair basis."""

    def __init__(self, basis: OamPairBasis, entries: np.ndarray):
        entries = np.asarray(entries, dtype=complex)
        n = len(basis)
        if entries.shape != (n, n):
            raise ContractError(f"entries shape {entries.shape} does not match basis size {n}")
        scale = max(1.0, float(np.abs(entries).max()) if entries.size else 1.0)
        if not float(np.abs(entries - entries.conj().T).max()) <= HERMITICITY_TOL * scale:
            raise ContractError("matrix is not Hermitian within tolerance")
        self.basis = basis
        self.entries = entries

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def normalize(self) -> "PairDensityMatrix":
        tr = self.trace()
        if tr <= 0:
            raise ContractError(f"cannot normalize matrix with trace {tr}")
        return PairDensityMatrix(self.basis, self.entries / tr)

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()

    def to_json_dict(self) -> dict:
        return {
            "basis": [[l1, l2] for l1, l2 in self.basis.pairs],
            "re": self.entries.real.tolist(),
            "im": self.entries.imag.tolist(),
        }

    @classmethod
    def from_json_dict(cls, payload: dict) -> "PairDensityMatrix":
        pairs = [tuple(p) for p in payload["basis"]]
        l_max = max((max(abs(l1), abs(l2)) for l1, l2 in pairs), default=0)
        basis = OamPairBasis(pairs, l_max)
        entries = np.asarray(payload["re"], dtype=float) + 1j * np.asarray(
            payload["im"], dtype=float
        )
        return cls(basis, entries)


@lru_cache(maxsize=16)
def _overlap_table(geom: AnnulusGeometry, magnitudes: tuple) -> np.ndarray:
    """kappa by (|l1|, |l2|) at m = 0: one integral per unordered pair of ``magnitudes``."""
    table = np.zeros((magnitudes[-1] + 1,) * 2)
    for i, l1 in enumerate(magnitudes):
        for l2 in magnitudes[i:]:
            table[l1, l2] = table[l2, l1] = kappa(ModeIndex(0, l1), ModeIndex(0, l2), geom)
    table.flags.writeable = False  # every caller of the cache gets this one array
    return table


def _overlaps(basis: OamPairBasis, geom: AnnulusGeometry) -> np.ndarray:
    """kappa of each basis pair, read from the table shared by every basis on its |l| values."""
    l1, l2 = np.abs(np.array(basis.pairs)).T
    # a Python set, since np.unique would import numpy.ma (about 1 MB) on first use
    return _overlap_table(geom, tuple(sorted({*l1.tolist(), *l2.tolist()})))[l1, l2]


def _sector_mask(basis: OamPairBasis, ls: int) -> np.ndarray:
    """Which basis pairs have total OAM ls; raises when none has."""
    mask = np.array([l1 + l2 == ls for l1, l2 in basis.pairs])
    if not mask.any():
        raise EmptySectorError(f"no pair in the basis has total OAM {ls} (l_max={basis.l_max})")
    return mask


def rho_cp(ls, basis: OamPairBasis, geom: AnnulusGeometry) -> PairDensityMatrix:
    """Unnormalized coherent-channel matrix: overlap outer product on the ls sector."""
    v = _sector_mask(basis, int(ls)) * _overlaps(basis, geom)
    return PairDensityMatrix(basis, np.outer(v, v).astype(complex))


def rho_bqp(basis: OamPairBasis, geom: AnnulusGeometry) -> PairDensityMatrix:
    """Unnormalized incoherent-channel matrix: diagonal of squared overlaps."""
    v = _overlaps(basis, geom)
    return PairDensityMatrix(basis, np.diag(v * v).astype(complex))


def rho_superposition(
    q: QubitState, ls, basis: OamPairBasis, geom: AnnulusGeometry
) -> PairDensityMatrix:
    """Unnormalized pure-state matrix for a qubit superposition of current directions.

    The emitted state is a |+ls sector> + b |-ls sector>, each sector carrying
    its overlap amplitudes; the matrix is the corresponding outer product.
    A sector is only required to be populated when its amplitude is nonzero.
    """
    psi = np.zeros(len(basis), dtype=complex)
    for amplitude, sector in ((q.a, int(ls)), (q.b, -int(ls))):
        if amplitude != 0:
            psi += amplitude * (_sector_mask(basis, sector) * _overlaps(basis, geom))
    return PairDensityMatrix(basis, np.outer(psi, psi.conj()))


def mixture(
    coherent: PairDensityMatrix, incoherent: PairDensityMatrix, r_cp: float, r_bqp: float
) -> PairDensityMatrix:
    """Trace-1 mixture of the two unnormalized channel matrices weighted by their rates."""
    tr_cp = coherent.trace()
    tr_bqp = incoherent.trace()
    if tr_cp <= 0 or tr_bqp <= 0:
        raise DegenerateMixtureError(
            f"component traces must be positive, got cp={tr_cp}, bqp={tr_bqp}"
        )
    total = r_cp + r_bqp
    if total <= 0:
        raise DegenerateMixtureError(f"total rate vanished (r_cp={r_cp}, r_bqp={r_bqp})")
    if not math.isfinite(total):
        raise DegenerateMixtureError(f"total rate is not finite (r_cp={r_cp}, r_bqp={r_bqp})")
    entries = (r_cp / total) * (coherent.entries / tr_cp) + (r_bqp / total) * (
        incoherent.entries / tr_bqp
    )
    return PairDensityMatrix(coherent.basis, entries).normalize()


def mixtures(coherent, incoherent, d, temperatures, enhancements, jp, quad=spectral.KQuadrature()):
    """Yield (t, enhancement, trace-1 mixture) of two channel matrices over a grid.

    Temperature-major and one at a time, so a caller can write or reduce each
    mixture before the next is formed.  Rate errors pass through unchanged;
    mixture errors gain the (t, enhancement) point.
    """
    for t in temperatures:
        # unit enhancement gives the raw channel rates, re-weighted per enhancement below
        s_cp, s_bqp = spectral.mixing_rates(d, t, jp, spectral.CoherenceParams(1.0), quad)
        for enh in enhancements:
            with at_point(t, enh):
                r_cp = spectral.CoherenceParams(enh).enhancement * s_cp
                rho = mixture(coherent, incoherent, r_cp, s_bqp)
            yield t, enh, rho


def rho_total(
    ls,
    basis: OamPairBasis,
    geom: AnnulusGeometry,
    d: float,
    t: float,
    jp: JunctionParams,
    coh: spectral.CoherenceParams,
    quad: spectral.KQuadrature = spectral.KQuadrature(),
) -> PairDensityMatrix:
    """Trace-1 rate-weighted mixture of the coherent and incoherent channels."""
    coherent = rho_cp(ls, basis, geom)
    [(_, _, rho)] = mixtures(coherent, rho_bqp(basis, geom), d, (t,), (coh.enhancement,), jp, quad)
    return rho


def rho_total_superposition(
    q: QubitState,
    ls,
    basis: OamPairBasis,
    geom: AnnulusGeometry,
    d: float,
    t: float,
    jp: JunctionParams,
    coh: spectral.CoherenceParams,
    quad: spectral.KQuadrature = spectral.KQuadrature(),
) -> PairDensityMatrix:
    """Trace-1 mixture with the coherent channel carrying a qubit superposition."""
    coherent = rho_superposition(q, ls, basis, geom)
    [(_, _, rho)] = mixtures(coherent, rho_bqp(basis, geom), d, (t,), (coh.enhancement,), jp, quad)
    return rho
