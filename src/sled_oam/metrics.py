"""Hermitian linear algebra and state fidelities.

The eigensolver is a cyclic Jacobi iteration for complex Hermitian matrices,
kept dependency-free and deterministic; matrix square roots and fidelities are
built on top of it.  Its sweeps visit only the rows coupled to another row,
which for a Bell target is its one total-OAM sector (5 of 49 rows for fig3);
the result is bit for bit that of visiting every pair (see ``eigh``).  The
general mixed-state fidelity is evaluated alongside the pure-target shortcut
<psi|rho|psi>, and the two must agree -- this cross-validates the whole
eigenvalue pipeline on every call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pair_state, spectral
from .bcs import JunctionParams
from .errors import ContractError, ConvergenceError, at_point
from .modes import AnnulusGeometry
from .pair_state import OamPairBasis, PairDensityMatrix

JACOBI_OFF_TOL = 1e-13
MAX_SWEEPS = 100
FIDELITY_XCHECK_TOL = 1e-9


@dataclass
class HermitianEigen:
    """Spectral decomposition: ascending eigenvalues, unitary eigenvector columns."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _check_hermitian(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ContractError(f"expected a square matrix, got shape {a.shape}")
    scale = float(np.abs(a).max(initial=0.0))
    if not float(np.abs(a - a.conj().T).max(initial=0.0)) <= 1e-10 * scale:
        raise ContractError("matrix is not Hermitian within 1e-10 of its magnitude")
    return a


def eigh(a: np.ndarray) -> HermitianEigen:
    """Full eigendecomposition of a complex Hermitian matrix by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm drops below 1e-13 of the
    matrix norm.  Returns ascending eigenvalues and the matching unitary.

    A sweep visits, in the usual lexicographic order, only the pairs (p, q)
    of rows that have a nonzero off-diagonal entry in the input.  That is
    exact: a rotation at (p, q) changes only rows and columns p and q, and an
    entry ``work[r, p]`` of an uncoupled row r becomes c*0 - s*conj(phase)*0,
    a signed zero, so every pair left out is one the full loop would skip as
    zero.  The rotations themselves still act on full-length rows and
    columns, and the convergence test on the whole matrix, so every bit of
    the result is that of the full loop.
    """
    a = _check_hermitian(a)
    n = a.shape[0]
    work = a.copy()
    vecs = np.eye(n, dtype=complex)
    norm = float(np.linalg.norm(a))
    if n == 1 or norm == 0.0:
        vals = work.diagonal().real.copy()
        order = np.argsort(vals, kind="stable")
        return HermitianEigen(vals[order], vecs[:, order])

    def off_norm() -> float:
        od = work.copy()
        np.fill_diagonal(od, 0.0)
        return float(np.linalg.norm(od))

    # the only rows a rotation can reach (see above)
    coupled = a != 0
    np.fill_diagonal(coupled, False)
    active = np.flatnonzero(coupled.any(axis=0) | coupled.any(axis=1)).tolist()
    converged = False
    for _ in range(MAX_SWEEPS):
        if off_norm() <= JACOBI_OFF_TOL * norm:
            converged = True
            break
        for i, p in enumerate(active):
            for q in active[i + 1 :]:
                apq = work[p, q]
                mag = abs(apq)
                if mag == 0.0:
                    continue
                phase = apq / mag
                diff = float(work[q, q].real - work[p, p].real)
                if abs(diff) > 2.0 * mag * 1e12:
                    t = mag / diff  # first-order angle; exact formula would overflow
                else:
                    # inner rotation (|angle| <= pi/4), required for cyclic convergence
                    tau = diff / (2.0 * mag)
                    if tau >= 0.0:
                        t = 1.0 / (tau + math.sqrt(1.0 + tau * tau))
                    else:
                        t = -1.0 / (-tau + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                s_phase = s * phase
                s_conj = s * np.conj(phase)
                # right-multiply by the rotation (columns), then left by its adjoint (rows)
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s_conj * col_q
                work[:, q] = s_phase * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s_phase * row_q
                work[q, :] = s_conj * row_p + c * row_q
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = work[p, p].real
                work[q, q] = work[q, q].real
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s_conj * vcol_q
                vecs[:, q] = s_phase * vcol_p + c * vcol_q
    if not converged:
        raise ConvergenceError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps", coarse=off_norm()
        )

    vals = work.diagonal().real.copy()
    order = np.argsort(vals, kind="stable")
    return HermitianEigen(vals[order], vecs[:, order])


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower is rejected.
    Eigenvalues below 1e-12 of the largest are rank noise and also treated as
    zero -- the square root would otherwise amplify them to ~1e-7 artifacts
    while they change S*S by less than the 1e-9 reconstruction tolerance.
    """
    decomp = eigh(a)
    vals = decomp.eigenvalues
    if vals.size and float(vals.min()) < -1e-10:
        raise ContractError(f"matrix is not PSD: min eigenvalue {float(vals.min())}")
    floor = 1e-12 * max(float(vals.max()), 0.0) if vals.size else 0.0
    vals = np.where(vals < floor, 0.0, vals)
    v = decomp.eigenvectors
    return (v * np.sqrt(vals)) @ v.conj().T


@dataclass
class TargetState:
    """Pure reference state over an OAM pair basis."""

    basis: OamPairBasis
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = np.asarray(self.coefficients, dtype=complex)
        if self.coefficients.shape != (len(self.basis),):
            raise ContractError(
                f"coefficient vector length {self.coefficients.shape} does not match basis"
            )
        norm = float(np.linalg.norm(self.coefficients))
        if abs(norm - 1.0) > 1e-12:
            raise ContractError(f"target state must have unit norm, got {norm}")

    @cached_property
    def root(self) -> np.ndarray:
        """Square root of the projector |psi><psi|, decomposed once per target."""
        return sqrtm_psd(np.outer(self.coefficients, self.coefficients.conj()))


def bell_target(basis: OamPairBasis, ls) -> TargetState:
    """Equal-amplitude superposition of all basis pairs with total OAM ls.

    For a winding of 1 detected with l in {0, 1} this is the symmetric
    two-photon Bell state (|0,1> + |1,0>)/sqrt(2).
    """
    ls = int(ls)
    members = pair_state.sector_pairs(basis, ls)
    if not members:
        raise ContractError(f"basis has no pairs with total OAM {ls}")
    coeff = np.zeros(len(basis), dtype=complex)
    for p in members:
        coeff[basis.index(p)] = 1.0
    coeff /= np.linalg.norm(coeff)
    return TargetState(basis, coeff)


def fidelity(rho: PairDensityMatrix, target: TargetState) -> float:
    """Fidelity (Tr sqrt(sqrt(rho_t) rho sqrt(rho_t)))^2 against a pure target.

    Both the general mixed-state form and the pure-target shortcut
    <psi|rho|psi> are evaluated; a disagreement beyond 1e-9 means the
    eigenvalue pipeline is broken and raises.
    """
    if rho.basis != target.basis:
        raise ContractError("density matrix and target state use different bases")
    tr = rho.trace()
    if abs(tr - 1.0) > 1e-9:
        raise ContractError(f"density matrix must have unit trace, got {tr}")
    psi = target.coefficients
    root = target.root
    inner = root @ rho.entries @ root
    inner = 0.5 * (inner + inner.conj().T)
    general = float(np.trace(sqrtm_psd(inner)).real) ** 2
    shortcut = float((psi.conj() @ rho.entries @ psi).real)
    if abs(general - shortcut) > FIDELITY_XCHECK_TOL:
        raise ContractError(
            f"fidelity cross-check failed: general {general} vs shortcut {shortcut}"
        )
    return general


@dataclass
class FidelityTable:
    """Fidelity values on a (reduced temperature) x (enhancement) grid."""

    temperatures: tuple
    enhancements: tuple
    values: np.ndarray = field(repr=False)  # shape (n_temperatures, n_enhancements)


def fidelity_curve(
    temps,
    enhancements,
    ls,
    basis: OamPairBasis,
    geom: AnnulusGeometry,
    d: float,
    jp: JunctionParams,
    quad: spectral.KQuadrature = spectral.KQuadrature(),
) -> FidelityTable:
    """Fidelity of the emitted mixture across (t, enhancement) against ``bell_target(basis, ls)``.

    That target is the equal-amplitude state on the +ls sector, which is the
    symmetric Bell state in the standard winding-1, l in {0, 1} configuration.
    """
    target = bell_target(basis, ls)
    temps = tuple(float(t) for t in temps)
    enhancements = tuple(float(e) for e in enhancements)
    coherent = pair_state.rho_cp(ls, basis, geom)
    values = []
    for t, enh, rho in pair_state.mixtures(
        coherent, pair_state.rho_bqp(basis, geom), d, temps, enhancements, jp, quad
    ):
        with at_point(t, enh):
            values.append(fidelity(rho, target))
    values = np.array(values).reshape(len(temps), len(enhancements))
    return FidelityTable(temps, enhancements, values)
