"""The stacked Jacobi sweep against a verbatim copy of the one-matrix one.

``metrics.eigh`` decomposes a stack of matrices in one call.  Its
eigenvalues and eigenvectors must equal, bit for bit, those of the sweep over
every pair of one matrix, copied below as it was before stacking, applied
matrix by matrix: on random Hermitian matrices with some rows and columns
zeroed, on rank-1 projectors and projected states like the Bell target and
``inner`` of ``fidelity``, and on stacks mixing such matrices with zero,
diagonal and dense ones, which converge after different numbers of sweeps.
The target's square root, taken on the block of its support, must equal bit
for bit that block of the square root of the full-size projector, for every
Bell target of windings 1-3 on the full bases up to l_max = 12 and for a
random target on the whole basis.  The fidelity, which works only on the
target-support block of ``inner``, must equal bit for bit the fidelity from
the full-size root, product and square root, copied below as it was before,
on bases up to fig3's 49 pairs.
The general fidelity, and with it its cross-check against the pure-target
shortcut, must still be evaluated at every point of a curve.
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
    TargetState,
    bell_target,
    eigh,
    fidelity,
    fidelity_curve,
    mixing_rates,
    pair_state,
)
from sled_oam import metrics
from sled_oam.config import load_config
from sled_oam.metrics import sqrtm_psd
from sled_oam.pair_state import PairDensityMatrix, check_hermitian

JACOBI_OFF_TOL = 1e-13
MAX_SWEEPS = 100


def full_loop_eigh(a: np.ndarray) -> HermitianEigen:
    """``metrics.eigh`` on one matrix, as it was before it took stacks."""
    a = check_hermitian(a)
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
def hermitian_cases(draw, n=None):
    """A Hermitian matrix, n <= 12 if not given, in one of the shapes ``fidelity`` decomposes."""
    n = draw(st.integers(1, 12)) if n is None else n
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
def test_sweep_equals_the_full_loop(a):
    assert_same_decomposition(a)


@st.composite
def hermitian_stacks(draw):
    """A stack of 1-8 Hermitian n x n matrices, n <= 8, of mixed shapes and sweep counts."""
    n = draw(st.integers(1, 8))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = st.sampled_from(["case", "zero", "diagonal", "dense", "scaled"])
    kinds = draw(st.lists(kind, min_size=1, max_size=8))
    stack = []
    for kind in kinds:
        if kind == "zero":
            a = np.zeros((n, n), dtype=complex)  # converged before the first sweep
        elif kind == "diagonal":
            a = np.diag(rng.normal(size=n)).astype(complex)
        elif kind == "dense":
            g = complex_normal(rng, (n, n))  # several sweeps
            a = 0.5 * (g + g.conj().T)
        elif kind == "scaled":
            g = complex_normal(rng, (n, n))  # nearly diagonal: one or two sweeps
            a = np.diag(np.arange(n) * 10.0) + 1e-6 * (g + g.conj().T)
        else:
            a = draw(hermitian_cases(n))
        stack.append(a)
    return np.array(stack)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(stack=hermitian_stacks())
def test_stacked_sweep_equals_the_full_loop_per_matrix(stack):
    ours = eigh(stack)
    assert ours.eigenvalues.shape == stack.shape[:-1]
    assert ours.eigenvectors.shape == stack.shape
    for a, vals, vecs in zip(stack, ours.eigenvalues, ours.eigenvectors):
        oracle = full_loop_eigh(a)
        assert np.array_equal(vals, oracle.eigenvalues)
        assert np.array_equal(vecs, oracle.eigenvectors)


def test_stacks_of_any_leading_shape_decompose_per_matrix(rng):
    g = complex_normal(rng, (2, 3, 4, 4))
    stack = 0.5 * (g + g.conj().swapaxes(-2, -1))
    stack[1, 2] = 0.0
    ours = eigh(stack)
    assert ours.eigenvalues.shape == (2, 3, 4) and ours.eigenvectors.shape == (2, 3, 4, 4)
    for index in np.ndindex(2, 3):
        oracle = full_loop_eigh(stack[index])
        assert np.array_equal(ours.eigenvalues[index], oracle.eigenvalues)
        assert np.array_equal(ours.eigenvectors[index], oracle.eigenvectors)


def full_size_root(target):
    """``sqrtm_psd`` of the target's projector over the whole basis, decomposed by
    the full loop (which ``eigh`` equals bit for bit, and which skips the zero
    pairs of the 625-pair basis faster)."""
    projector = np.outer(target.coefficients, target.coefficients.conj())
    return metrics._psd_root(full_loop_eigh(projector))


def full_size_fidelity(rho, target):
    """``metrics.fidelity``'s general form as it was before the sweep kept only
    the target-support blocks: the square root of the whole ``inner``."""
    root = full_size_root(target)
    inner = root @ rho.entries @ root
    inner = 0.5 * (inner + inner.conj().T)
    return float(np.trace(sqrtm_psd(inner)).real) ** 2


@st.composite
def targeted_mixtures(draw):
    """A Bell target on a random small basis and a random density matrix on it."""
    l_values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=4, unique=True))
    basis = OamPairBasis.from_l_values(l_values)
    winding = draw(st.sampled_from(sorted({l1 + l2 for l1, l2 in basis.pairs})))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(basis)
    g = complex_normal(rng, (n, int(rng.integers(1, n + 1))))
    g[rng.random(n) < draw(st.floats(0.0, 0.8))] = 0.0  # rows the mixture does not reach
    rho = g @ g.conj().T
    if not np.trace(rho).real > 0:
        rho = np.eye(n, dtype=complex)
    return PairDensityMatrix(basis, rho / np.trace(rho).real), bell_target(basis, winding)


def assert_root_is_the_full_size_block(target):
    support = target.support
    assert np.array_equal(support, np.flatnonzero(target.coefficients))
    full = full_size_root(target)[np.ix_(support, support)]
    assert target.root.shape == (len(support), len(support))
    assert np.array_equal(target.root.view(np.uint64), full.view(np.uint64))


@pytest.mark.parametrize("l_max", range(1, 13))
def test_bell_target_root_is_the_block_of_the_full_size_root(l_max):
    basis = OamPairBasis.full(l_max)
    windings = [w for w in (1, 2, 3) if pair_state.sector_pairs(basis, w)]
    assert windings
    for winding in windings:
        assert_root_is_the_full_size_block(bell_target(basis, winding))


def test_full_support_target_root_is_the_full_size_root(rng):
    basis = OamPairBasis.full(2)
    psi = complex_normal(rng, len(basis))
    target = TargetState(basis, psi / np.linalg.norm(psi))
    assert len(target.support) == len(basis)
    assert_root_is_the_full_size_block(target)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(case=targeted_mixtures())
def test_block_fidelity_equals_the_full_size_square_root(case):
    rho, target = case
    assert fidelity(rho, target) == full_size_fidelity(rho, target)


@pytest.mark.parametrize("t", [0.01, 0.5, 0.95])
def test_fig3_fidelity_matrices_equal_the_full_loop(t):
    config = load_config("fig3", [f"grid.temperatures={t}", "emission.enhancements=10,100"])
    basis = config.basis
    target = bell_target(basis, config.winding)
    projector = np.outer(target.coefficients, target.coefficients.conj())
    assert_same_decomposition(projector)
    root = full_size_root(target)
    coherent = pair_state.rho_cp(config.winding, basis, config.geometry)
    incoherent = pair_state.rho_bqp(basis, config.geometry)
    [(s_cp, s_bqp)] = mixing_rates(
        config.detuning_for_dm, (t,), config.junction, config.grid.k_integration
    )
    for enh in config.enhancements:
        rho = pair_state.mixture(coherent, incoherent, enh * s_cp, s_bqp)
        inner = root @ rho.entries @ root
        assert_same_decomposition(0.5 * (inner + inner.conj().T))
        assert fidelity(rho, target) == full_size_fidelity(rho, target)


class TestCrossCheckRunsEveryCall:
    ARGS = ((0.2, 0.5, 0.8), (10.0, 100.0), 1)

    def curve(self, junction, geometry):
        basis = OamPairBasis.from_l_values([0, 1])
        return fidelity_curve(
            *self.ARGS, basis, geometry, 5.0, junction, quad=KQuadrature(nodes=512)
        )

    def test_general_fidelity_at_every_point(self, junction, geometry, monkeypatch):
        roots = []
        psd_root = metrics._psd_root

        def counting_root(decomp):
            # one entry per matrix rooted, whether alone or in a stack
            vecs = decomp.eigenvectors
            roots.extend([vecs.shape[-2:]] * int(np.prod(vecs.shape[:-2])))
            return psd_root(decomp)

        monkeypatch.setattr(metrics, "_psd_root", counting_root)
        self.curve(junction, geometry)
        # the target's root once, then the general form at each of the 3 x 2
        # points, all on the 2 x 2 support block
        assert roots == [(2, 2)] + [(2, 2)] * (3 * 2)

    @pytest.mark.parametrize("skewed", [0, 5])
    def test_a_wrong_general_fidelity_at_any_point_raises(
        self, junction, geometry, monkeypatch, skewed
    ):
        stacks = []
        decompose = metrics.eigh

        def skewed_eigh(a):
            decomp = decompose(a)
            if np.ndim(a) == 3:
                # one point's eigenvalues scaled by 1.01**2: its root, and so the
                # general form's trace, grows by 1.01
                stacks.append(len(a))
                decomp.eigenvalues[skewed] *= 1.01**2
            return decomp

        monkeypatch.setattr(metrics, "eigh", skewed_eigh)
        with pytest.raises(ContractError, match="cross-check") as failed:
            self.curve(junction, geometry)
        assert stacks == [3 * 2]
        temps, enhancements, _ = self.ARGS
        t, enh = temps[skewed // 2], enhancements[skewed % 2]
        assert str(failed.value).endswith(f" (at t={t}, enhancement={enh})")
