import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import (
    ContractError,
    ConvergenceError,
    DomainError,
    KQuadrature,
    OamPairBasis,
    PairDensityMatrix,
    TargetState,
    bell_target,
    eigh,
    fidelity,
    fidelity_curve,
    mixing_rates,
    sqrtm_psd,
)
from sled_oam import metrics, pair_state
from sled_oam.config import load_config
from test_modes import NOT_WHOLE, not_whole


def random_hermitian(rng, n):
    g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    return 0.5 * (g + g.conj().T)


def random_density(rng, n, rank=None):
    rank = rank or n
    g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(rng, n):
    psi = rng.normal(size=n) + 1j * rng.normal(size=n)
    return psi / np.linalg.norm(psi)


def line_basis(n):
    return OamPairBasis([(0, i) for i in range(n)], n)


class TestEigh:
    def test_diagonal_matrix(self):
        out = eigh(np.diag([1.0, 2.0, 3.0]).astype(complex))
        assert np.array_equal(out.eigenvalues, [1.0, 2.0, 3.0])
        assert np.array_equal(out.eigenvectors, np.eye(3))

    def test_pauli_x_spectrum(self):
        out = eigh(np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex))
        assert np.allclose(out.eigenvalues, [-1.0, 1.0], rtol=0, atol=1e-14)

    def test_random_reconstruction(self, rng):
        for n in (2, 5, 8):
            a = random_hermitian(rng, n)
            out = eigh(a)
            rebuilt = out.eigenvectors @ np.diag(out.eigenvalues) @ out.eigenvectors.conj().T
            scale = np.abs(a).max()
            assert np.abs(rebuilt - a).max() <= 1e-10 * scale
            unit = out.eigenvectors.conj().T @ out.eigenvectors
            assert np.abs(unit - np.eye(n)).max() <= 1e-10

    def test_against_lapack(self, rng):
        for _ in range(5):
            a = random_hermitian(rng, 8)
            ours = eigh(a).eigenvalues
            ref = np.linalg.eigvalsh(a)
            assert np.allclose(ours, ref, rtol=0, atol=1e-10 * max(1.0, np.abs(ref).max()))

    def test_non_hermitian_rejected(self, rng):
        a = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        with pytest.raises(ContractError):
            eigh(a)
        # one such matrix rejects a whole stack
        with pytest.raises(ContractError, match="not Hermitian"):
            eigh(np.array([random_hermitian(rng, 4), a]))

    @pytest.mark.parametrize("size, skew, hermitian", [(1e3, 1e-8, False), (1e-20, 1e-25, True)])
    def test_eigh_and_the_density_matrix_share_one_hermiticity_rule(self, size, skew, hermitian):
        """max |a - a^H| <= 1e-12 * max(1, max |a|) for each matrix, relative above
        entries of 1 and absolute below."""
        a = np.full((2, 2), size, dtype=complex)
        a[0, 1] += skew
        basis = line_basis(2)
        stack = np.array([np.eye(2), a])
        for check in (eigh, lambda m: PairDensityMatrix(basis, m), lambda m: eigh(stack)):
            if hermitian:
                check(a)
            else:
                with pytest.raises(ContractError, match=f"^{pair_state._NOT_HERMITIAN}$"):
                    check(a)

    def test_non_finite_entry_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ContractError):
            eigh(a)

    def test_non_square_rejected(self):
        for shape in ((2, 3), (3,), (2, 2, 3)):
            with pytest.raises(ContractError):
                eigh(np.zeros(shape))

    def test_zero_and_scalar_matrices(self):
        out = eigh(np.zeros((3, 3), dtype=complex))
        assert np.array_equal(out.eigenvalues, np.zeros(3))
        out1 = eigh(np.array([[2.5]], dtype=complex))
        assert out1.eigenvalues[0] == 2.5

    def test_stacked_norms_agree_with_one_norm_per_matrix(self, rng):
        stack = np.array([random_hermitian(rng, 5) * scale for scale in (1e-150, 1.0, 1e150)])
        expected = [np.linalg.norm(m) for m in stack]
        assert np.allclose(metrics._frobenius_norms(stack), expected, rtol=1e-15, atol=0.0)
        for shape in ((0, 3, 3), (2, 0, 0), (0, 0, 0)):
            norms = metrics._frobenius_norms(np.zeros(shape, dtype=complex))
            assert norms.shape == shape[:1] and not norms.any()

    def test_empty_matrices(self):
        for shape in ((0, 0), (2, 0, 0), (0, 3, 3)):
            out = eigh(np.zeros(shape, dtype=complex))
            assert out.eigenvalues.shape == shape[:-1]
            assert out.eigenvectors.shape == shape
            assert sqrtm_psd(np.zeros(shape, dtype=complex)).shape == shape

    def test_an_unconverged_stack_names_the_matrix(self, rng, monkeypatch):
        monkeypatch.setattr(metrics, "MAX_SWEEPS", 1)
        stack = np.array([np.eye(4), random_hermitian(rng, 4)])
        unconverged = r"in 1 sweeps \(matrix 1 of the stack\)$"
        with pytest.raises(ConvergenceError, match=unconverged) as err:
            eigh(stack)
        assert err.value.coarse > 0.0
        with pytest.raises(ConvergenceError, match=r"in 1 sweeps$"):
            eigh(stack[1])


class TestSqrtmPsd:
    def test_identity(self):
        assert np.array_equal(sqrtm_psd(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        out = sqrtm_psd(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(out, np.diag([2.0, 3.0]), rtol=0, atol=1e-14)

    def test_round_trip_random_psd(self, rng):
        for n in (3, 6, 10):
            a = random_density(rng, n) * float(rng.uniform(0.5, 20.0))
            s = sqrtm_psd(a)
            scale = np.abs(a).max()
            assert np.abs(s @ s - a).max() <= 1e-9 * scale

    def test_round_trip_rank_deficient(self, rng):
        a = random_density(rng, 8, rank=3)
        s = sqrtm_psd(a)
        assert np.abs(s @ s - a).max() <= 1e-9

    def test_against_scipy_sqrtm(self, rng):
        a = random_density(rng, 5)
        ours = sqrtm_psd(a)
        ref = scipy.linalg.sqrtm(a)
        assert np.abs(ours - ref).max() <= 1e-8

    def test_small_negative_clipped(self):
        a = np.diag([1.0, -5e-11]).astype(complex)
        out = sqrtm_psd(a)
        assert out[1, 1] == 0.0

    def test_not_psd_rejected(self):
        with pytest.raises(ContractError):
            sqrtm_psd(np.diag([1.0, -1e-8]).astype(complex))

    @settings(max_examples=10, deadline=None, derandomize=True, database=None)
    @given(count=st.integers(1, 300), n=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(count=300, n=5, seed=0)
    def test_a_stack_is_rooted_matrix_by_matrix(self, count, n, seed):
        """Bit for bit as alone, also at the 285 points a fidelity sweep roots at once."""
        rng = np.random.default_rng(seed)
        # with one floor for the stack, 1e-12 of A's largest eigenvalue, all of
        # B's eigenvalues would count as rank noise and B's root would be 0
        a = random_density(rng, 3, rank=2) * 7.0
        b = random_density(rng, 3) * 1e-14
        roots = sqrtm_psd(np.stack([a, b]))
        assert np.abs(roots[1]).max() > 0.0
        assert np.array_equal(roots[0], sqrtm_psd(a))
        assert np.array_equal(roots[1], sqrtm_psd(b))
        # drawn ranks, and scales 16 decades apart within one stack
        ranks, scales = rng.integers(1, n + 1, count), 10.0 ** rng.uniform(-14, 2, count)
        stack = np.array([random_density(rng, n, int(r)) * s for r, s in zip(ranks, scales)])
        roots = sqrtm_psd(stack)
        for root, m in zip(roots, stack, strict=True):
            assert root.tobytes() == sqrtm_psd(m).tobytes()

    def test_a_stack_names_its_first_matrix_that_is_not_psd(self):
        stack = np.stack([np.eye(2), np.diag([1.0, -1e-8]), np.diag([-1.0, 1.0])]).astype(complex)
        with pytest.raises(ContractError, match=r"-1e-08 \(matrix 1 of the stack\)$"):
            sqrtm_psd(stack)


class TestTargetState:
    def test_norm_enforced(self):
        basis = line_basis(3)
        with pytest.raises(ContractError):
            TargetState(basis, np.array([1.0, 1.0, 0.0]))

    def test_a_nan_coefficient_fails_the_norm_check(self):
        basis = OamPairBasis.from_l_values([0, 1])
        with pytest.raises(ContractError, match="unit norm, got nan"):
            TargetState(basis, [np.nan, 0.0, 0.0, 0.0])

    def test_a_coefficient_vector_of_the_wrong_length_is_rejected(self):
        basis = OamPairBasis.from_l_values([0, 1])
        with pytest.raises(ContractError, match=r"^coefficient vector length \(3,\) does not"):
            TargetState(basis, [1.0, 0.0, 0.0])

    def test_bell_target_on_standard_basis(self):
        basis = OamPairBasis.from_l_values([0, 1])
        target = bell_target(basis, 1)
        expected = np.zeros(4)
        expected[basis.index((0, 1))] = 1 / np.sqrt(2)
        expected[basis.index((1, 0))] = 1 / np.sqrt(2)
        assert np.allclose(target.coefficients, expected, rtol=0, atol=1e-15)

    def test_bell_target_requires_populated_sector(self):
        with pytest.raises(ContractError):
            bell_target(OamPairBasis.from_l_values([0, 1]), 5)

    @pytest.mark.parametrize("ls", NOT_WHOLE)
    def test_bell_target_rejects_a_winding_that_is_not_whole(self, ls):
        # 1.5 used to be taken as 1, NaN and inf to raise Python's own errors
        with pytest.raises(DomainError, match=not_whole("winding", ls)):
            bell_target(OamPairBasis.from_l_values([0, 1]), ls)

    @pytest.mark.parametrize("ls", NOT_WHOLE)
    def test_fidelity_curve_rejects_a_winding_that_is_not_whole(self, junction, geometry, ls):
        basis, quad = OamPairBasis.from_l_values([0, 1]), KQuadrature(nodes=512)
        with pytest.raises(DomainError, match=not_whole("winding", ls)):
            fidelity_curve((0.5,), (10.0,), ls, basis, geometry, 5.0, junction, quad)

    def test_a_whole_winding_of_any_type_is_an_int(self):
        basis = OamPairBasis.from_l_values([0, 1])
        expected = bell_target(basis, 1).coefficients.tobytes()
        for ls in (1.0, np.int64(1), np.float32(1.0)):
            assert bell_target(basis, ls).coefficients.tobytes() == expected


class TestFidelity:
    def test_self_fidelity_is_one(self, rng):
        basis = line_basis(4)
        psi = random_state(rng, 4)
        rho = PairDensityMatrix(basis, np.outer(psi, psi.conj()))
        assert fidelity(rho, TargetState(basis, psi)) == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_pure_states(self):
        basis = line_basis(2)
        rho = PairDensityMatrix(basis, np.diag([1.0, 0.0]).astype(complex))
        target = TargetState(basis, np.array([0.0, 1.0]))
        assert fidelity(rho, target) == pytest.approx(0.0, abs=1e-12)

    def test_maximally_mixed_sector_gives_half(self):
        basis = OamPairBasis.from_l_values([0, 1])
        entries = np.zeros((4, 4), dtype=complex)
        entries[basis.index((0, 1)), basis.index((0, 1))] = 0.5
        entries[basis.index((1, 0)), basis.index((1, 0))] = 0.5
        rho = PairDensityMatrix(basis, entries)
        assert fidelity(rho, bell_target(basis, 1)) == pytest.approx(0.5, abs=1e-12)

    def test_cross_check_on_random_inputs(self, rng):
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 12))
            basis = line_basis(n)
            rank = int(rng.integers(1, n + 1))
            m = random_density(rng, n, rank)
            psi = random_state(rng, n)
            f = fidelity(PairDensityMatrix(basis, m), TargetState(basis, psi))
            shortcut = float((psi.conj() @ m @ psi).real)
            worst = max(worst, abs(f - shortcut))
            assert -1e-12 <= f <= 1.0 + 1e-12
        assert worst < 1e-9

    def test_unitary_invariance(self, rng):
        for _ in range(5):
            n = 6
            basis = line_basis(n)
            m = random_density(rng, n)
            psi = random_state(rng, n)
            u = eigh(random_hermitian(rng, n)).eigenvectors
            f_base = fidelity(PairDensityMatrix(basis, m), TargetState(basis, psi))
            rotated = PairDensityMatrix(basis, u @ m @ u.conj().T)
            rotated_target = TargetState(basis, u @ psi)
            assert fidelity(rotated, rotated_target) == pytest.approx(f_base, abs=1e-9)

    def test_trace_contract(self):
        basis = line_basis(2)
        rho = PairDensityMatrix(basis, np.diag([0.7, 0.7]).astype(complex))
        with pytest.raises(ContractError):
            fidelity(rho, TargetState(basis, np.array([1.0, 0.0])))

    def test_a_trace_one_matrix_that_is_not_psd_is_rejected(self):
        basis = OamPairBasis.from_l_values([0, 1])
        rho = PairDensityMatrix(basis, np.diag([0.6, -0.05, -0.05, 0.5]).astype(complex))
        with pytest.raises(ContractError, match=r"^matrix is not PSD: min eigenvalue -0\.0499"):
            fidelity(rho, bell_target(basis, 1))

    def test_basis_mismatch(self):
        rho = PairDensityMatrix(line_basis(2), np.diag([1.0, 0.0]).astype(complex))
        other = OamPairBasis.from_l_values([0, 1])
        target = TargetState(other, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ContractError):
            fidelity(rho, target)


def uhlmann_fidelity(rho, psi):
    """(Tr sqrt(sqrt(P) rho sqrt(P)))^2 for the projector P = |psi><psi|, at full
    size, from ``scipy.linalg``'s LAPACK eigensolvers.  Eigenvalues below 1e-12
    of the largest are rank noise (exactly 0 for a projector and for the
    rank-1 inner matrix), whose square roots would otherwise add ~1e-8."""

    def kept(w):
        return np.where(w > 1e-12 * w.max(), w, 0.0)

    w, v = scipy.linalg.eigh(np.outer(psi, psi.conj()))
    root = (v * np.sqrt(kept(w))) @ v.conj().T
    inner = root @ rho @ root
    eigenvalues = scipy.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    return float(np.sqrt(kept(eigenvalues)).sum()) ** 2


class TestUhlmannOracle:
    """``fidelity`` against the full-size Uhlmann form, for targets whose support
    block is 1, 5 and 11 pairs and for one that covers the whole basis."""

    @staticmethod
    def check(rng, basis, target, draws=10):
        n = len(basis)
        for _ in range(draws):
            rho = random_density(rng, n, int(rng.integers(1, n + 1)))
            expected = uhlmann_fidelity(rho, target.coefficients)
            assert fidelity(PairDensityMatrix(basis, rho), target) == pytest.approx(
                expected, rel=1e-12, abs=0.0
            )

    def test_one_pair_support(self, rng):
        basis = OamPairBasis.from_l_values([0, 1])
        target = bell_target(basis, 0)
        assert np.count_nonzero(target.coefficients) == 1
        self.check(rng, basis, target)

    @pytest.mark.parametrize("l_max, support", [(3, 5), (6, 11)])
    def test_fig3_bell_target(self, rng, l_max, support):
        config = load_config("fig3", [f"emission.l_max={l_max}"])
        basis = config.basis
        target = bell_target(basis, config.winding)
        assert np.count_nonzero(target.coefficients) == support
        self.check(rng, basis, target)

    def test_full_support_target(self, rng):
        basis = load_config("fig3").basis
        target = TargetState(basis, random_state(rng, len(basis)))
        assert np.count_nonzero(target.coefficients) == len(basis)
        self.check(rng, basis, target, draws=5)


class TestFidelityCurve:
    def test_monotone_in_enhancement(self, junction, geometry):
        basis = OamPairBasis.from_l_values([0, 1])
        table = fidelity_curve(
            (0.2, 0.5, 0.8),
            (10.0, 100.0),
            1,
            basis,
            geometry,
            5.0,
            junction,
            quad=KQuadrature(nodes=512),
        )
        assert table.values.shape == (3, 2)
        assert np.all(table.values[:, 1] >= table.values[:, 0])
        assert np.all((table.values >= 0.0) & (table.values <= 1.0 + 1e-12))

    def test_target_root_is_decomposed_once_per_curve(self, junction, geometry, monkeypatch):
        calls = []

        def counting_eigh(a):
            calls.append(np.shape(a))
            return eigh(a)

        monkeypatch.setattr(metrics, "eigh", counting_eigh)
        basis = OamPairBasis.from_l_values([0, 1])
        args = ((0.2, 0.5, 0.8), (10.0, 100.0), 1, basis, geometry, 5.0, junction)
        fidelity_curve(*args, quad=KQuadrature(nodes=512))
        # the target's projector once, then the blocks of all 3 x 2 points, all on
        # the 2 x 2 support block
        assert calls == [(2, 2), (3 * 2, 2, 2)]

    def test_sweep_memory_stays_below_2_mb(self):
        # the benchmark's fidelity_scan grid: 95 temperatures x 3 enhancements on
        # fig3's 49 pairs; full-size matrices of all 285 points would take 11 MB
        temps = ",".join(f"{0.01 * i:g}" for i in range(1, 96))
        config = load_config(
            "fig3", [f"grid.temperatures={temps}", "emission.enhancements=10,30,100"]
        )
        args = (
            config.grid.temperatures,
            config.enhancements,
            config.winding,
            config.basis,
            config.geometry,
            config.detuning_for_dm,
            config.junction,
            config.grid.k_integration,
        )
        tracemalloc.start()
        try:
            table = fidelity_curve(*args)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.values.shape == (95, 3)
        assert peak < 2_000_000

    def test_rate_error_passes_through_with_its_estimates(self):
        config = load_config(
            "fig3", ["material.dephasing_time_fs=1e5", "grid.verify_quadrature=true"]
        )
        t, quad = config.grid.temperatures[0], config.grid.k_integration
        with pytest.raises(ConvergenceError) as direct:
            mixing_rates(config.detuning_for_dm, (t,), config.junction, quad)[0]
        with pytest.raises(ConvergenceError) as swept:
            fidelity_curve(
                config.grid.temperatures,
                config.enhancements,
                config.winding,
                config.basis,
                config.geometry,
                config.detuning_for_dm,
                config.junction,
                quad,
            )
        assert direct.value.coarse is not None and direct.value.refined is not None
        assert (swept.value.coarse, swept.value.refined) == (
            direct.value.coarse,
            direct.value.refined,
        )
        assert str(swept.value) == str(direct.value)
