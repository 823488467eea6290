"""The coupled-rows Jacobi sweep against a verbatim copy of the full-loop one.

``metrics.eigh`` visits only the pairs of rows coupled by a nonzero
off-diagonal entry.  Its eigenvalues and eigenvectors must equal, bit for bit,
those of the sweep over every pair, copied below as it was before the change,
on random Hermitian matrices with some rows and columns zeroed and on rank-1
projectors and projected states like the Bell target and ``inner`` of
``fidelity``.  The general fidelity, and with it its cross-check against the
pure-target shortcut, must still be evaluated at every point of a curve.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import (
    ContractError,
    ConvergenceError,
    HermitianEigen,
    KQuadrature,
    OamPairBasis,
    bell_target,
    eigh,
    fidelity_curve,
    pair_state,
)
from sled_oam import metrics
from sled_oam.config import load_config
from sled_oam.metrics import _check_hermitian

JACOBI_OFF_TOL = 1e-13
MAX_SWEEPS = 100


def full_loop_eigh(a: np.ndarray) -> HermitianEigen:
    """``metrics.eigh`` as it was when every sweep visited all n(n-1)/2 pairs."""
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

    converged = False
    for _ in range(MAX_SWEEPS):
        if off_norm() <= JACOBI_OFF_TOL * norm:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
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
                # right-multiply by the rotation (columns), then left by its adjoint (rows)
                col_p = work[:, p].copy()
                col_q = work[:, q].copy()
                work[:, p] = c * col_p - s * np.conj(phase) * col_q
                work[:, q] = s * phase * col_p + c * col_q
                row_p = work[p, :].copy()
                row_q = work[q, :].copy()
                work[p, :] = c * row_p - s * phase * row_q
                work[q, :] = s * np.conj(phase) * row_p + c * row_q
                work[p, q] = 0.0
                work[q, p] = 0.0
                work[p, p] = work[p, p].real
                work[q, q] = work[q, q].real
                vcol_p = vecs[:, p].copy()
                vcol_q = vecs[:, q].copy()
                vecs[:, p] = c * vcol_p - s * np.conj(phase) * vcol_q
                vecs[:, q] = s * phase * vcol_p + c * vcol_q
    if not converged:
        raise ConvergenceError(
            f"Jacobi iteration did not converge in {MAX_SWEEPS} sweeps", coarse=off_norm()
        )

    vals = work.diagonal().real.copy()
    order = np.argsort(vals, kind="stable")
    return HermitianEigen(vals[order], vecs[:, order])


def assert_same_decomposition(a):
    ours, oracle = eigh(a), full_loop_eigh(a)
    assert np.array_equal(ours.eigenvalues, oracle.eigenvalues)
    assert np.array_equal(ours.eigenvectors, oracle.eigenvectors)


def complex_normal(rng, shape):
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


@st.composite
def hermitian_cases(draw):
    """A Hermitian matrix, n <= 12, in one of the shapes ``fidelity`` decomposes."""
    n = draw(st.integers(1, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["zeroed", "projector", "projected"]))
    support = rng.random(n) < draw(st.floats(0.0, 1.0))
    if kind == "zeroed":
        # uncoupled rows: zero off the diagonal, some with a diagonal entry left
        g = complex_normal(rng, (n, n))
        a = 0.5 * (g + g.conj().T)
        a[~support, :] = 0.0
        a[:, ~support] = 0.0
        keep = ~support & (rng.random(n) < 0.5)
        a[keep, keep] = rng.normal(size=int(keep.sum()))
        return a
    # a state on the support: equal amplitudes like the Bell target, or random ones
    psi = np.where(support, 1.0 if draw(st.booleans()) else complex_normal(rng, n), 0.0)
    if not psi.any():
        psi[int(rng.integers(n))] = 1.0
    psi = psi / np.linalg.norm(psi)
    projector = np.outer(psi, psi.conj())
    if kind == "projector":
        return projector
    # P rho P of a random density matrix, symmetrized, as ``inner`` is formed
    g = complex_normal(rng, (n, int(rng.integers(1, n + 1))))
    rho = g @ g.conj().T
    inner = projector @ (rho / np.trace(rho).real) @ projector
    return 0.5 * (inner + inner.conj().T)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(a=hermitian_cases())
def test_coupled_rows_sweep_equals_the_full_loop(a):
    assert_same_decomposition(a)


@pytest.mark.parametrize("t", [0.01, 0.5, 0.95])
def test_fig3_fidelity_matrices_equal_the_full_loop(t):
    config = load_config("fig3", [f"grid.temperatures={t}", "emission.enhancements=10,100"])
    basis = config.basis()
    target = bell_target(basis, config.winding)
    projector = np.outer(target.coefficients, target.coefficients.conj())
    assert_same_decomposition(projector)
    root = target.root
    mixtures = pair_state.mixtures(
        pair_state.rho_cp(config.winding, basis, config.geometry),
        pair_state.rho_bqp(basis, config.geometry),
        config.detuning_for_dm,
        config.grid.temperatures,
        config.enhancements,
        config.junction,
        config.grid.k_integration,
    )
    for _, _, rho in mixtures:
        inner = root @ rho.entries @ root
        assert_same_decomposition(0.5 * (inner + inner.conj().T))


class TestCrossCheckRunsEveryCall:
    ARGS = ((0.2, 0.5, 0.8), (10.0, 100.0), 1)

    def curve(self, junction, geometry):
        basis = OamPairBasis.from_l_values([0, 1])
        return fidelity_curve(
            *self.ARGS, basis, geometry, 5.0, junction, quad=KQuadrature(nodes=256)
        )

    def test_general_fidelity_at_every_point(self, junction, geometry, monkeypatch):
        roots = []
        sqrtm_psd = metrics.sqrtm_psd

        def counting_sqrtm(a):
            roots.append(len(a))
            return sqrtm_psd(a)

        monkeypatch.setattr(metrics, "sqrtm_psd", counting_sqrtm)
        self.curve(junction, geometry)
        # the target's root once, then the general form at each of the 3 x 2 points
        assert len(roots) == 1 + 3 * 2

    def test_a_wrong_general_fidelity_at_the_last_point_raises(
        self, junction, geometry, monkeypatch
    ):
        calls = []
        sqrtm_psd = metrics.sqrtm_psd

        def skewed_last_sqrtm(a):
            calls.append(None)
            root = sqrtm_psd(a)
            return 1.01 * root if len(calls) == 1 + 3 * 2 else root

        monkeypatch.setattr(metrics, "sqrtm_psd", skewed_last_sqrtm)
        with pytest.raises(ContractError, match="cross-check"):
            self.curve(junction, geometry)
        assert len(calls) == 1 + 3 * 2
