"""Hermitian linear algebra and state fidelities.

The eigensolver is a cyclic Jacobi iteration for complex Hermitian matrices,
kept dependency-free and deterministic; matrix square roots and fidelities are
built on top of it.  Each of them takes a whole stack of matrices in one call,
each bit for bit as if alone.  A fidelity sweep never forms a full-size
matrix: it takes all its mixtures, each rank one plus diagonal, in one
pass of ``pair_state.mixture_sweep``, held only where they can be nonzero
(the cells ``dm`` writes), reads from them the block of the target's
support, outside which the target's square root is zero, with +0.0 at a
cell not held, and decomposes the blocks of all its points in one call
(see ``_fidelities``, also for where this keeps the full-size bits).  The
general mixed-state fidelity is evaluated alongside the pure-target
shortcut <psi|rho|psi>, and the two must agree at every point -- this
cross-validates the whole eigenvalue pipeline on every call.  A check that
fails at a point of a sweep names the point through ``errors.locate``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from . import pair_state, spectral
from .bcs import JunctionParams
from .errors import ContractError, ConvergenceError, locate, require_whole
from .modes import AnnulusGeometry
from .pair_state import CLOCKWISE, OamPairBasis, PairDensityMatrix, QubitState

JACOBI_OFF_TOL = 1e-13
MAX_SWEEPS = 100
FIDELITY_XCHECK_TOL = 1e-9
_NOT_PSD = "matrix is not PSD: min eigenvalue {}"


@dataclass
class HermitianEigen:
    """Spectral decomposition: ascending eigenvalues, unitary eigenvector columns
    (per matrix, along the last axes, for a stack)."""

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _frobenius_norms(stack: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack ``(k, n, n)``; 0.0 for 0 x 0 matrices."""
    squares = np.square(stack.real).sum(axis=(-2, -1))
    squares += np.square(stack.imag).sum(axis=(-2, -1))
    return np.sqrt(squares)


def eigh(a: np.ndarray) -> HermitianEigen:
    """Eigendecomposition of a complex Hermitian matrix, or of a stack ``(..., n, n)``
    of them, by cyclic Jacobi rotations.

    Sweeps run until the off-diagonal Frobenius norm of a matrix drops below
    1e-13 of its norm.  Returns ascending eigenvalues ``(..., n)`` and the
    matching unitaries ``(..., n, n)``; a single matrix is a stack of one.

    The matrices of a stack are rotated together, but each one exactly as if
    it were decomposed alone: at each visited pair only the matrices whose
    entry there is nonzero and which have not yet converged are rotated, and
    their angles are computed elementwise with the scalar loop's operations
    in its order (``np.hypot`` of the parts is the scalar ``abs``, and
    broadcast complex products and complex-by-real quotients round as the
    scalar ones do).  The Frobenius norms of the convergence test are taken
    for the whole stack at once.
    """
    a = pair_state.check_hermitian(a)
    n = a.shape[-1]
    # the stack count given, as -1 is ambiguous for 0 x 0 matrices
    stack = a.reshape(int(np.prod(a.shape[:-2])), n, n)
    work = stack.copy()
    vecs = np.broadcast_to(np.eye(n, dtype=complex), work.shape).copy()
    tol = JACOBI_OFF_TOL * _frobenius_norms(stack)
    diagonal = np.arange(n)

    def off_norms(which: np.ndarray) -> np.ndarray:
        od = work[which]
        od[:, diagonal, diagonal] = 0.0
        return _frobenius_norms(od)

    pending = np.arange(len(stack))
    for _ in range(MAX_SWEEPS):
        pending = pending[~(off_norms(pending) <= tol[pending])]
        if not pending.size:
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = work[pending, p, q]
                mag = np.hypot(apq.real, apq.imag)
                rotated = mag != 0.0
                if not rotated.any():
                    continue
                k, apq, mag = pending[rotated], apq[rotated], mag[rotated]
                phase = apq / mag
                diff = work[k, q, q].real - work[k, p, p].real
                t = np.empty_like(mag)
                # first-order angle where the exact formula would overflow
                wide = np.abs(diff) > 2.0 * mag * 1e12
                t[wide] = mag[wide] / diff[wide]
                # inner rotation (|angle| <= pi/4), required for cyclic convergence;
                # -1/x rounds as -(1/x)
                tau = diff[~wide] / (2.0 * mag[~wide])
                inner = 1.0 / (np.abs(tau) + np.sqrt(1.0 + tau * tau))
                t[~wide] = np.where(tau >= 0.0, inner, -inner)
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                s_phase = (s * phase)[:, None]
                s_conj = (s * np.conj(phase))[:, None]
                c = c[:, None]
                # right-multiply by the rotation (columns), then left by its adjoint (rows)
                col_p = work[k, :, p]
                col_q = work[k, :, q]
                work[k, :, p] = c * col_p - s_conj * col_q
                work[k, :, q] = s_phase * col_p + c * col_q
                row_p = work[k, p, :]
                row_q = work[k, q, :]
                work[k, p, :] = c * row_p - s_phase * row_q
                work[k, q, :] = s_conj * row_p + c * row_q
                work[k, p, q] = 0.0
                work[k, q, p] = 0.0
                work[k, p, p] = work[k, p, p].real
                work[k, q, q] = work[k, q, q].real
                vcol_p = vecs[k, :, p]
                vcol_q = vecs[k, :, q]
                vecs[k, :, p] = c * vcol_p - s_conj * vcol_q
                vecs[k, :, q] = s_phase * vcol_p + c * vcol_q
    else:
        where = f" (matrix {pending[0]} of the stack)" if a.ndim > 2 else ""
        raise ConvergenceError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps{where}",
            coarse=float(off_norms(pending).max()),
        )

    vals = work.diagonal(axis1=1, axis2=2).real
    order = np.argsort(vals, axis=1, kind="stable")
    vals = np.take_along_axis(vals, order, axis=1)
    vecs = np.take_along_axis(vecs, order[:, None, :], axis=2)
    return HermitianEigen(vals.reshape(a.shape[:-1]), vecs.reshape(a.shape))


def _not_psd(vals: np.ndarray) -> np.ndarray:
    """Which matrices, given their eigenvalues along the last axis, have one below -1e-10."""
    return vals.min(axis=-1, initial=np.inf) < -1e-10


def _psd_root(decomp: HermitianEigen) -> np.ndarray:
    """``sqrtm_psd`` from the decomposition of a matrix or of a stack of them."""
    vals = decomp.eigenvalues
    failed = np.flatnonzero(_not_psd(vals))
    if failed.size:
        lowest = float(vals.min(axis=-1).flat[failed[0]])
        where = f" (matrix {failed[0]} of the stack)" if vals.ndim > 1 else ""
        raise ContractError(_NOT_PSD.format(lowest) + where)
    floor = 1e-12 * vals.max(axis=-1, keepdims=True, initial=0.0)
    vals = np.where(vals < floor, 0.0, vals)
    v = decomp.eigenvectors
    return (v * np.sqrt(vals)[..., None, :]) @ v.conj().swapaxes(-1, -2)


def sqrtm_psd(a: np.ndarray) -> np.ndarray:
    """Hermitian square root of a positive-semidefinite matrix, or of each of a stack.

    Eigenvalues in [-1e-10, 0) are clipped to zero; anything lower is rejected.
    Eigenvalues below 1e-12 of the largest of their matrix are rank noise and
    also treated as zero -- the square root would otherwise amplify them to
    ~1e-7 artifacts while they change S*S by less than the 1e-9 reconstruction
    tolerance.
    """
    return _psd_root(eigh(a))


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
        if not abs(norm - 1.0) <= 1e-12:  # NaN fails too
            raise ContractError(f"target state must have unit norm, got {norm}")

    @cached_property
    def support(self) -> np.ndarray:
        """Indices of the nonzero coefficients."""
        return np.flatnonzero(self.coefficients)

    @cached_property
    def root(self) -> np.ndarray:
        """Square root of |psi><psi| on the block ``support`` x ``support``, taken once.

        The full-size root is zero outside that block and equals it there bit
        for bit.
        """
        psi = self.coefficients[self.support]
        return sqrtm_psd(np.outer(psi, psi.conj()))


def bell_target(basis: OamPairBasis, ls) -> TargetState:
    """Equal-amplitude superposition of all basis pairs with total OAM ls.

    For a winding of 1 detected with l in {0, 1} this is the symmetric
    two-photon Bell state (|0,1> + |1,0>)/sqrt(2).
    """
    ls = require_whole("winding", ls)
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
    eigenvalue pipeline is broken and raises.  ``rho`` must have unit trace
    within 1e-9 (NaN fails).  This is the one-point case of the sweep in
    ``fidelity_curve``, and gives the same bits.
    """
    if rho.basis != target.basis:
        raise ContractError("density matrix and target state use different bases")
    trace = rho.trace()
    if not abs(trace - 1.0) <= 1e-9:
        raise ContractError(f"density matrix must have unit trace, got {trace}")
    block = rho.entries[np.ix_(target.support, target.support)]
    return _fidelities([None], block[None], target)[0]


def _passed(ok: np.ndarray) -> int:
    """How many leading entries of ``ok`` are True."""
    return len(ok) if ok.all() else int(np.argmin(ok))


def _fidelities(points: list, rho: np.ndarray, target: TargetState) -> list:
    """Cross-checked general fidelity against ``target`` of each mixture of a sweep.

    ``rho`` stacks the blocks S x S of trace-1 mixtures on the target's
    basis, S being the target's support (the nonzero entries of psi), and
    ``points[k]`` is the (t, enhancement) of block k, or None for a single
    matrix that has no point.  ``target.root`` is the square root on that
    block, and the full-size one is zero outside it, so ``inner`` and its
    square root are too.  Every step is stacked numpy that acts on each
    point as if alone, so each value has the bits that ``fidelity`` gives
    its mixture on its own.  Three passes:

    1. Form ``inner = root @ rho @ root`` on the block, one matrix product
       per point, and the shortcut <psi|rho|psi> on it.  Up to fig3's 49
       pairs (l_max 2-5) ``inner`` is bit for bit the block of the
       full-size product; at l_max = 6 (169 pairs) BLAS groups the
       full-size sums otherwise, and values move by at most 3.5e-15
       relative.
    2. Decompose the blocks of all points in one ``eigh`` call.  Every
       rotation is the one the full-size solve makes, since that one skips
       every pair outside S as zero.  Only its convergence test differs: the
       norms are summed over the block, the same nonzero terms grouped
       otherwise, so a result could move only if a sweep ended within
       rounding of the threshold.
    3. Take each block's square root from its own decomposition and sum its
       diagonal from a length-n row that is zero outside S.  The sum's
       grouping depends on the positions of the terms, so that row gives the
       bits of the full-size root's trace, at every basis size; a sum over
       the block's diagonal alone would not.

    Each point gets the PSD and 1e-9 cross-check tests, and NaN fails each.
    The error raised is that of the first point in sweep order that fails
    either, with that point appended by ``errors.locate``, and of the first
    test it fails.
    """
    psi, support, root = target.coefficients, target.support, target.root
    inner = root @ rho @ root
    shortcuts = ((psi[support].conj() @ rho) * psi[support]).sum(axis=-1).real
    inner = 0.5 * (inner + inner.conj().swapaxes(-1, -2))  # rebinding frees the product
    decomp = eigh(inner)
    del inner  # not held through the roots
    vals, vecs = decomp.eigenvalues, decomp.eigenvectors
    rooted = _passed(~_not_psd(vals))
    roots = _psd_root(HermitianEigen(vals[:rooted], vecs[:rooted]))
    diagonal = np.zeros((rooted, len(psi)), dtype=complex)
    diagonal[:, support] = roots.diagonal(axis1=-2, axis2=-1)
    values = [x**2 for x in diagonal.sum(axis=-1).real.tolist()]
    # the first failing point: its cross-check if it was rooted, else its PSD test
    agree = _passed(abs(np.array(values) - shortcuts[:rooted]) <= FIDELITY_XCHECK_TOL)
    if agree < len(rho):
        failed = ContractError(
            f"fidelity cross-check failed: general {values[agree]}"
            f" vs shortcut {float(shortcuts[agree])}"
            if agree < rooted
            else _NOT_PSD.format(float(vals[agree].min()))
        )
        raise failed if points[agree] is None else locate(failed, *points[agree])
    return values


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
    qubit: QubitState = CLOCKWISE,
) -> FidelityTable:
    """Fidelity of the emitted mixture across (t, enhancement) against ``bell_target(basis, ls)``.

    That target is the equal-amplitude state on the +ls sector, which is the
    symmetric Bell state in the standard winding-1, l in {0, 1} configuration.
    The coherent channel carries the current superposition ``qubit``, as in
    ``rho_total_superposition``.
    The mixtures come from ``pair_state.mixture_sweep``, held only on the
    nonzero cells of the coherent channel and the diagonal (69 of 2401 cells
    for fig3); a target block cell not held (for a counterclockwise current,
    the +ls block off its diagonal) reads +0.0, the full mixture's value
    there.  The general forms of all points share one stacked ``eigh`` call
    (see ``_fidelities``).  No density
    matrix is built, and each value is the one ``fidelity`` gives for the
    full mixture of its point, with the same checks and the same errors.
    Only the unit-trace check of ``fidelity`` is not repeated: each mixture
    has just been divided by the sum of its non-negative diagonal, so its
    trace is 1 within rounding, and a weight that could make it NaN fails
    the sweep's check that both weights lie in [0, 1].
    """
    target = bell_target(basis, ls)
    support = target.support
    temps = tuple(float(t) for t in temps)
    enhancements = tuple(float(e) for e in enhancements)
    cells, mixtures, error = pair_state.mixture_sweep(
        qubit, ls, basis, geom, d, temps, enhancements, jp, quad
    )
    # each target block cell, +0.0 where not held (``cells`` holds the diagonal)
    wanted = support[:, None] * len(basis) + support
    at = np.minimum(np.searchsorted(cells, wanted), len(cells) - 1)
    held = cells[at] == wanted
    blocks = np.zeros((len(mixtures), *wanted.shape), dtype=complex)
    blocks[:, held] = mixtures[:, at[held]]
    del mixtures  # only the blocks are kept past here
    values = np.array(_fidelities(list(product(temps, enhancements)), blocks, target))
    if error is not None:  # raised once the points before it have passed their checks
        raise error
    return FidelityTable(temps, enhancements, values.reshape(len(temps), len(enhancements)))
