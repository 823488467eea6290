import numpy as np
import pytest
import scipy.linalg

from sled_oam import (
    CoherenceParams,
    ContractError,
    ConvergenceError,
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
from sled_oam import metrics
from sled_oam.config import load_config


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

    def test_non_finite_entry_rejected(self):
        a = np.eye(3, dtype=complex)
        a[1, 1] = np.nan
        with pytest.raises(ContractError):
            eigh(a)

    def test_non_square_rejected(self):
        with pytest.raises(ContractError):
            eigh(np.zeros((2, 3)))

    def test_zero_and_scalar_matrices(self):
        out = eigh(np.zeros((3, 3), dtype=complex))
        assert np.array_equal(out.eigenvalues, np.zeros(3))
        out1 = eigh(np.array([[2.5]], dtype=complex))
        assert out1.eigenvalues[0] == 2.5


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


class TestTargetState:
    def test_norm_enforced(self):
        basis = line_basis(3)
        with pytest.raises(ContractError):
            TargetState(basis, np.array([1.0, 1.0, 0.0]))

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

    def test_basis_mismatch(self):
        rho = PairDensityMatrix(line_basis(2), np.diag([1.0, 0.0]).astype(complex))
        other = OamPairBasis.from_l_values([0, 1])
        target = TargetState(other, np.array([1.0, 0.0, 0.0, 0.0]))
        with pytest.raises(ContractError):
            fidelity(rho, target)


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
            calls.append(len(a))
            return eigh(a)

        monkeypatch.setattr(metrics, "eigh", counting_eigh)
        basis = OamPairBasis.from_l_values([0, 1])
        args = ((0.2, 0.5, 0.8), (10.0, 100.0), 1, basis, geometry, 5.0, junction)
        fidelity_curve(*args, quad=KQuadrature(nodes=256))
        assert len(calls) == 3 * 2 + 1

    def test_rate_error_passes_through_with_its_estimates(self):
        config = load_config(
            "fig3", ["material.dephasing_time_fs=1e5", "grid.verify_quadrature=true"]
        )
        t, quad = config.grid.temperatures[0], config.grid.k_integration
        with pytest.raises(ConvergenceError) as direct:
            mixing_rates(config.detuning_for_dm, t, config.junction, CoherenceParams(1.0), quad)
        with pytest.raises(ConvergenceError) as swept:
            fidelity_curve(
                config.grid.temperatures,
                config.enhancements,
                config.winding,
                config.basis(),
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
