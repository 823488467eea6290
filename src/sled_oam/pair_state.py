"""Photon-pair OAM density matrices.

A pair state lives on an ordered basis of (l1, l2) OAM labels (radial index
fixed at zero).  The coherent channel populates only pairs whose total OAM
equals the supercurrent winding number; the incoherent channel contributes a
diagonal background, so every mixture is rank one plus diagonal.  Mixtures
are weighted by the spectral rates evaluated at a fixed detuning.
``mixture_sweep`` forms every mixture: over (temperature, enhancement) in one
pass, each point held at the same cells for ``dm`` and ``fidelity_curve``,
those where it can be nonzero (279 of 28 561 at l_max = 6), and +0.0 at
every other, a failing point named by ``locate``.  ``rho_total_superposition``
is its one-point sweep on the full matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from itertools import product

import numpy as np

from . import spectral
from .bcs import JunctionParams
from .errors import (
    ContractError,
    DegenerateMixtureError,
    DomainError,
    EmptySectorError,
    SledOamError,
    locate,
    require_whole,
)
from .modes import AnnulusGeometry, kappa

HERMITICITY_TOL = 1e-12
_NOT_HERMITIAN = "matrix is not Hermitian within tolerance"
_UNTRACEABLE = "cannot normalize matrix with trace {}"


def check_hermitian(a) -> np.ndarray:
    """``a`` as complex; raises unless it is a Hermitian matrix or a stack ``(..., n, n)`` of them.

    Each needs max |a - a^H| <= ``HERMITICITY_TOL`` * max(1, max |a|); NaN fails.
    """
    a = np.asarray(a, dtype=complex)
    if a.ndim < 2 or a.shape[-2] != a.shape[-1]:
        raise ContractError(f"expected a square matrix or a stack of them, got shape {a.shape}")
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    skew = np.abs(a - a.swapaxes(-2, -1).conj()).max(axis=(-2, -1), initial=0.0)
    if not np.all(skew <= HERMITICITY_TOL * scale):
        raise ContractError(_NOT_HERMITIAN)
    return a


@dataclass(frozen=True)
class QubitState:
    """Complex amplitudes of the clockwise/counterclockwise current superposition.

    The clockwise component maps to the +ls total-OAM sector, the
    counterclockwise one to -ls.
    """

    a: complex
    b: complex

    def __post_init__(self):
        try:
            norm = abs(self.a) ** 2 + abs(self.b) ** 2
        except OverflowError:  # a magnitude above about 1e154
            norm = math.inf
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise DomainError(f"|a|^2 + |b|^2 must be 1, got {norm}")

    @classmethod
    def from_polar(cls, mag_a, phase_a, mag_b, phase_b) -> "QubitState":
        return cls(
            a=mag_a * complex(np.cos(phase_a), np.sin(phase_a)),
            b=mag_b * complex(np.cos(phase_b), np.sin(phase_b)),
        )


# the current of ``rho_cp``, ``rho_total`` and a config without qubit keys
CLOCKWISE = QubitState(1.0, 0.0)


class OamPairBasis:
    """Lexicographically ordered set of (l1, l2) pair labels with |l| <= l_max."""

    def __init__(self, pairs, l_max: int):
        l_max = require_whole("l_max", l_max)
        pairs = [tuple(require_whole("pair label", l) for l in pair) for pair in pairs]
        if len(set(pairs)) != len(pairs):
            raise DomainError("pair basis contains duplicates")
        if any(abs(l1) > l_max or abs(l2) > l_max for l1, l2 in pairs):
            raise DomainError(f"pair label outside |l| <= {l_max}")
        if not pairs:
            raise DomainError("pair basis is empty")
        self.pairs = tuple(sorted(pairs))
        self.l_max = l_max
        self._index = {p: i for i, p in enumerate(self.pairs)}

    @classmethod
    def full(cls, l_max: int) -> "OamPairBasis":
        l_max = require_whole("l_max", l_max)
        return cls.from_l_values(range(-l_max, l_max + 1))

    @classmethod
    def from_l_values(cls, l_values) -> "OamPairBasis":
        values = sorted(set(require_whole("l value", v) for v in l_values))
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
        check_hermitian(entries)
        self.basis = basis
        self.entries = entries

    def trace(self) -> float:
        return float(np.trace(self.entries).real)

    def normalize(self) -> "PairDensityMatrix":
        tr = self.trace()
        if tr <= 0:
            raise ContractError(_UNTRACEABLE.format(tr))
        return PairDensityMatrix(self.basis, self.entries / tr)

    def diagonal(self) -> np.ndarray:
        return self.entries.diagonal().real.copy()


@lru_cache(maxsize=16)
def _overlap_table(geom: AnnulusGeometry, magnitudes: tuple) -> np.ndarray:
    """kappa by (|l1|, |l2|): one call integrating each unordered pair of ``magnitudes`` once."""
    l1, l2 = np.array(magnitudes)[np.array(np.triu_indices(len(magnitudes)))]
    table = np.zeros((magnitudes[-1] + 1,) * 2)
    table[l1, l2] = table[l2, l1] = kappa(l1, l2, geom)
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
    """Unnormalized coherent-channel matrix: ``rho_superposition`` of the clockwise current."""
    return rho_superposition(CLOCKWISE, ls, basis, geom)


def rho_bqp(basis: OamPairBasis, geom: AnnulusGeometry) -> PairDensityMatrix:
    """Unnormalized incoherent-channel matrix: diagonal of squared overlaps."""
    v = _overlaps(basis, geom)
    return PairDensityMatrix(basis, np.diag(v * v).astype(complex))


def _pair_vector(q: QubitState, ls, basis: OamPairBasis, geom: AnnulusGeometry) -> np.ndarray:
    """The coherent channel's vector: a times the +ls sector's overlaps plus b times the -ls one's.

    A sector is only required to be populated when its amplitude is nonzero.
    """
    ls = require_whole("winding", ls)
    psi = np.zeros(len(basis), dtype=complex)
    for amplitude, sector in ((q.a, ls), (q.b, -ls)):
        if amplitude != 0:
            psi += amplitude * (_sector_mask(basis, sector) * _overlaps(basis, geom))
    return psi


def rho_superposition(
    q: QubitState, ls, basis: OamPairBasis, geom: AnnulusGeometry
) -> PairDensityMatrix:
    """Unnormalized pure-state matrix for a qubit superposition of current directions.

    The emitted state is a |+ls sector> + b |-ls sector>, each sector carrying
    its overlap amplitudes (``_pair_vector``); the matrix is its outer product,
    with the diagonal formed as |psi|^2 in real arithmetic (``_norms``).
    """
    psi = _pair_vector(q, ls, basis, geom)
    rho = np.outer(psi, psi.conj())
    np.fill_diagonal(rho, _norms(psi))
    return PairDensityMatrix(basis, rho)


def _norms(psi: np.ndarray) -> np.ndarray:
    """|psi_i|^2 as re^2 + im^2: psi_i times its conjugate in numpy's complex
    product, which may fuse a multiply and an add, can keep an imaginary
    residue of about 1e-18.  For a real psi both give the same bits."""
    return psi.real**2 + psi.imag**2


def _weights(tr_cp: float, tr_bqp: float, r_cp: float, r_bqp: float) -> tuple:
    """Each channel's share a, b of the total rate; raises where no mixture can be formed.

    ``mixture_sweep`` mixes a (cp / tr_cp) + b (bqp / tr_bqp).  Both shares
    must lie in [0, 1], which also makes them finite.
    """
    if tr_cp <= 0 or tr_bqp <= 0:
        raise DegenerateMixtureError(
            f"component traces must be positive, got cp={tr_cp}, bqp={tr_bqp}"
        )
    total = r_cp + r_bqp
    if total <= 0:
        raise DegenerateMixtureError(f"total rate vanished (r_cp={r_cp}, r_bqp={r_bqp})")
    if not math.isfinite(total):
        raise DegenerateMixtureError(f"total rate is not finite (r_cp={r_cp}, r_bqp={r_bqp})")
    a, b = r_cp / total, r_bqp / total
    if not (0 <= a <= 1 and 0 <= b <= 1):  # NaN fails too
        raise DegenerateMixtureError(
            f"rate shares must lie in [0, 1], got {a} and {b} (r_cp={r_cp}, r_bqp={r_bqp})"
        )
    return a, b


def mixture_sweep(
    q: QubitState,
    ls,
    basis: OamPairBasis,
    geom: AnnulusGeometry,
    d: float,
    temperatures,
    enhancements,
    jp: JunctionParams,
    quad: spectral.KQuadrature = spectral.KQuadrature(),
) -> tuple:
    """Trace-1 mixtures of the emitted state over a (temperature, enhancement) grid.

    Returns ``(cells, mixtures, error)``.  The cells are ascending row-major
    indices of the matrix, the same for ``dm`` and ``fidelity_curve``: the
    nonzero cells of psi psi^H (psi the coherent channel's vector, as in
    ``rho_superposition``) and the diagonal, where the incoherent channel
    lies.  Every other entry of a mixture is a*0 + b*0 with +0.0 in both
    parts: an exact +0.0 for finite weights a, b >= 0, and so is its
    quotient by a positive trace.  A caller reads such a cell as +0.0.

    Row k of ``mixtures`` holds the k-th point, temperature-major, at the
    cells; ``rho_total_superposition`` is row 0 of a one-point sweep.  The rows
    stop before the first point whose weights fail ``_weights``; ``error``
    is that point's error, its point appended by ``locate``, or None.  The
    rates of all temperatures come from one ``spectral.mixing_rates`` call,
    and rate errors are raised unchanged.  Nothing after the weights can
    fail: a and b lie in [0, 1]; each unit cp / tr_cp, bqp / tr_bqp has
    trace 1 and entries of modulus at most 1 (|psi_i psi_j| <= (|psi_i|^2 +
    |psi_j|^2) / 2); so every row is finite and Hermitian, with a
    non-negative diagonal whose sum is within rounding of a + b = 1, and
    dividing by that sum is safe.
    """
    psi, w = _pair_vector(q, ls, basis, geom), _overlaps(basis, geom)
    n = len(basis)
    held = np.zeros((n, n), dtype=bool)
    on = psi != 0
    held[np.ix_(on, on)] = np.outer(psi[on], psi[on].conj()) != 0
    held.flat[:: n + 1] = True
    cells = np.flatnonzero(held)
    rates = spectral.mixing_rates(d, tuple(temperatures), jp, quad)
    rows, cols = np.divmod(cells, n)
    diagonal = np.flatnonzero(rows == cols)
    cp = psi[rows] * psi.conj()[cols]
    cp[diagonal] = _norms(psi)
    bqp = np.zeros(len(cells), dtype=complex)
    bqp[diagonal] = w * w
    # the traces sum the full diagonal as complex numbers, as ``np.trace`` does
    tr_cp, tr_bqp = (float(m.take(diagonal).sum().real) for m in (cp, bqp))
    points = [(t, enh, s) for t, s in zip(temperatures, rates) for enh in enhancements]
    weights, error = [], None
    for t, enh, (s_cp, s_bqp) in points:
        try:
            r_cp = spectral.CoherenceParams(enh).enhancement * s_cp
            weights.append(_weights(tr_cp, tr_bqp, r_cp, s_bqp))
        except SledOamError as exc:
            error = locate(exc, t, enh)
            break
    mixtures = np.zeros((0, len(cells)), dtype=complex)
    if weights:
        a, b = np.array(weights, dtype=float).T[:, :, None]
        mixtures = a * (cp / tr_cp)
        mixtures += b * (bqp / tr_bqp)  # in place: no third array of the stack's size
        mixtures /= mixtures.take(diagonal, axis=-1).sum(axis=-1).real[:, None]
    return cells, mixtures, error


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
    """Trace-1 rate-weighted mixture: ``rho_total_superposition`` of the clockwise current."""
    return rho_total_superposition(CLOCKWISE, ls, basis, geom, d, t, jp, coh, quad)


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
    """Trace-1 mixture with the coherent channel carrying a qubit superposition:
    ``mixture_sweep`` at the one point (t, enhancement), +0.0 off its cells."""
    cells, rows, error = mixture_sweep(q, ls, basis, geom, d, (t,), (coh.enhancement,), jp, quad)
    if error is not None:
        raise error
    entries = np.zeros(len(basis) ** 2, dtype=complex)
    entries[cells] = rows[0]
    return PairDensityMatrix(basis, entries.reshape(len(basis), -1))
