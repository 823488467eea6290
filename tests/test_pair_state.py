import functools
import json

import numpy as np
import pytest

from sled_oam import (
    modes,
    pair_state,
    AnnulusGeometry,
    CoherenceParams,
    ContractError,
    DegenerateMixtureError,
    DomainError,
    EmptySectorError,
    KQuadrature,
    ModeIndex,
    OamPairBasis,
    PairDensityMatrix,
    QubitState,
    kappa,
    rho_bqp,
    rho_cp,
    rho_superposition,
    rho_total,
    rho_total_superposition,
    sector_pairs,
)

FUZZ_QUAD = KQuadrature(nodes=64, cutoff_delta0=10.0)


def sector_mask(basis, ls):
    return np.array([l1 + l2 == ls for l1, l2 in basis.pairs])


class TestBasis:
    def test_full_basis_is_lexicographic(self):
        basis = OamPairBasis.full(3)
        assert len(basis) == 49
        assert list(basis.pairs) == sorted(basis.pairs)
        assert basis.pairs[0] == (-3, -3)
        assert basis.pairs[-1] == (3, 3)

    def test_from_l_values(self):
        basis = OamPairBasis.from_l_values([0, 1])
        assert basis.pairs == ((0, 0), (0, 1), (1, 0), (1, 1))
        assert basis.l_max == 1

    def test_duplicates_rejected(self):
        with pytest.raises(DomainError):
            OamPairBasis([(0, 0), (0, 0)], 1)

    def test_out_of_range_rejected(self):
        with pytest.raises(DomainError):
            OamPairBasis([(0, 5)], 3)

    def test_empty_bases_raise_domain_error(self):
        with pytest.raises(DomainError, match="empty"):
            OamPairBasis.from_l_values([])
        with pytest.raises(DomainError, match="empty"):
            PairDensityMatrix.from_json_dict({"basis": [], "re": [], "im": []})

    def test_index_lookup(self):
        basis = OamPairBasis.full(2)
        for i, pair in enumerate(basis.pairs):
            assert basis.index(pair) == i


class TestQubitState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            QubitState(1.0, 1.0)

    def test_from_polar(self):
        q = QubitState.from_polar(1.0 / np.sqrt(2), 0.0, 1.0 / np.sqrt(2), np.pi)
        assert q.a == pytest.approx(1.0 / np.sqrt(2))
        assert q.b.real == pytest.approx(-1.0 / np.sqrt(2))
        assert abs(q.b.imag) < 1e-15


class TestRhoCp:
    def test_populated_pairs_winding_two(self, geometry):
        basis = OamPairBasis.full(3)
        rho = rho_cp(2, basis, geometry)
        populated = [
            basis.pairs[i] for i in range(len(basis)) if rho.entries[i, i].real > 0
        ]
        assert populated == [(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)]

    def test_populated_pairs_winding_zero(self, geometry):
        basis = OamPairBasis.full(1)
        rho = rho_cp(0, basis, geometry)
        populated = [
            basis.pairs[i] for i in range(len(basis)) if rho.entries[i, i].real > 0
        ]
        assert populated == [(-1, 1), (0, 0), (1, -1)]

    def test_selection_rule_exact_zeros(self, geometry):
        basis = OamPairBasis.full(3)
        rho = rho_cp(2, basis, geometry)
        in_sector = sector_mask(basis, 2)
        for i in range(len(basis)):
            for j in range(len(basis)):
                if not (in_sector[i] and in_sector[j]):
                    assert rho.entries[i, j] == 0.0

    def test_bell_projector_block(self, geometry):
        basis = OamPairBasis.from_l_values([0, 1])
        rho = rho_cp(1, basis, geometry)
        i01 = basis.index((0, 1))
        i10 = basis.index((1, 0))
        k01 = kappa(ModeIndex(0, 0), ModeIndex(0, 1), geometry)
        block = rho.entries[np.ix_([i01, i10], [i01, i10])].real
        assert np.allclose(block, k01 * k01, rtol=0, atol=1e-15)

    def test_empty_sector_raises(self, geometry):
        with pytest.raises(EmptySectorError):
            rho_cp(10, OamPairBasis.full(3), geometry)


class TestRhoBqp:
    def test_diagonal_only(self, geometry):
        basis = OamPairBasis.full(2)
        rho = rho_bqp(basis, geometry)
        off = rho.entries - np.diag(rho.entries.diagonal())
        assert np.all(off == 0.0)

    def test_full_plane_ground_pair_is_one(self):
        wide = AnnulusGeometry(0.0, 1e3, 2.0)
        basis = OamPairBasis.from_l_values([0])
        rho = rho_bqp(basis, wide)
        assert rho.entries[0, 0].real == pytest.approx(1.0, abs=1e-9)

    def test_diagonal_matches_k_factor(self, geometry):
        basis = OamPairBasis.full(2)
        rho = rho_bqp(basis, geometry)
        for i, (l1, l2) in enumerate(basis.pairs):
            a, b = ModeIndex(0, l1), ModeIndex(0, l2)
            assert rho.entries[i, i].real == pytest.approx(
                kappa(a, b, geometry) ** 2, rel=1e-12
            )


class TestRhoTotal:
    def test_trace_one(self, junction, geometry):
        rho = rho_total(2, OamPairBasis.full(3), geometry, 5.0, 0.5, junction,
                        CoherenceParams(100.0), FUZZ_QUAD)
        assert rho.trace() == pytest.approx(1.0, abs=1e-12)

    def test_limit_of_large_enhancement_is_pure_channel(self, junction, geometry):
        basis = OamPairBasis.full(2)
        rho = rho_total(2, basis, geometry, 5.0, 0.5, junction,
                        CoherenceParams(1e12), FUZZ_QUAD)
        pure = rho_cp(2, basis, geometry).normalize()
        assert np.max(np.abs(rho.entries - pure.entries)) < 1e-9

    def test_diagonal_background_grows_with_temperature(self, junction, geometry):
        basis = OamPairBasis.full(3)
        out = ~sector_mask(basis, 2)

        def background(t, enh):
            rho = rho_total(2, basis, geometry, 5.0, t, junction,
                            CoherenceParams(enh), KQuadrature(nodes=1024))
            return float(rho.diagonal()[out].sum())

        assert background(0.9, 10.0) > background(0.5, 10.0)

    def test_mixture_distance_monotone_in_incoherent_share(self, junction, geometry):
        basis = OamPairBasis.full(2)
        pure = rho_cp(2, basis, geometry).normalize()
        distances = []
        for enh in (1e6, 1e3, 100.0, 10.0, 1.0):
            rho = rho_total(2, basis, geometry, 5.0, 0.5, junction,
                            CoherenceParams(enh), FUZZ_QUAD)
            distances.append(float(np.linalg.norm(rho.entries - pure.entries)))
        assert all(a < b for a, b in zip(distances, distances[1:]))


class TestSuperposition:
    def test_pure_clockwise_reduces_to_single_sector(self, geometry):
        basis = OamPairBasis.full(3)
        lhs = rho_superposition(QubitState(1.0, 0.0), 2, basis, geometry)
        rhs = rho_cp(2, basis, geometry)
        assert np.array_equal(lhs.entries, rhs.entries)

    def test_sign_flip_touches_only_cross_blocks(self, geometry):
        basis = OamPairBasis.full(3)
        a = b = 1.0 / np.sqrt(2.0)
        plus = rho_superposition(QubitState(a, b), 2, basis, geometry).entries
        minus = rho_superposition(QubitState(a, -b), 2, basis, geometry).entries
        pos = sector_mask(basis, 2)
        neg = sector_mask(basis, -2)
        cross = np.outer(pos, neg) | np.outer(neg, pos)
        assert np.array_equal(minus[cross], -plus[cross])
        assert np.array_equal(minus[~cross], plus[~cross])

    def test_global_phase_invariance(self, geometry):
        basis = OamPairBasis.full(2)
        a = 0.6
        b = 0.8j
        phase = np.exp(0.7j)
        base = rho_superposition(QubitState(a, b), 1, basis, geometry).entries
        rotated = rho_superposition(QubitState(phase * a, phase * b), 1, basis, geometry).entries
        assert np.max(np.abs(base - rotated)) <= 1e-12

    def test_cross_blocks_cancel_in_sign_average(self, geometry):
        basis = OamPairBasis.full(3)
        a, b = 0.8, 0.6
        plus = rho_superposition(QubitState(a, b), 2, basis, geometry).entries
        minus = rho_superposition(QubitState(a, -b), 2, basis, geometry).entries
        p_pos = rho_cp(2, basis, geometry).entries
        p_neg = rho_cp(-2, basis, geometry).entries
        expected = 2.0 * (a * a * p_pos + b * b * p_neg)
        assert np.max(np.abs(plus + minus - expected)) <= 1e-12

    def test_missing_sector_raises_only_when_weighted(self, geometry):
        basis = OamPairBasis.from_l_values([0, 1])  # no pairs sum to -1
        rho_superposition(QubitState(1.0, 0.0), 1, basis, geometry)
        with pytest.raises(EmptySectorError):
            rho_superposition(QubitState(0.6, 0.8), 1, basis, geometry)

    def test_total_superposition_matches_total_for_trivial_qubit(self, junction, geometry):
        basis = OamPairBasis.full(2)
        args = (basis, geometry, 5.0, 0.5, junction, CoherenceParams(10.0), FUZZ_QUAD)
        lhs = rho_total_superposition(QubitState(1.0, 0.0), 2, *args)
        rhs = rho_total(2, *args)
        assert np.array_equal(lhs.entries, rhs.entries)

    def test_dominant_eigenvector_is_programmed_state(self, junction, geometry):
        basis = OamPairBasis.full(2)
        q = QubitState(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        rho = rho_total_superposition(q, 2, basis, geometry, 5.0, 0.3, junction,
                                      CoherenceParams(1e9), FUZZ_QUAD)
        vals, vecs = np.linalg.eigh(rho.entries)
        top = vecs[:, -1]
        pure = rho_superposition(q, 2, basis, geometry)
        psi = np.linalg.eigh(pure.entries)[1][:, -1]
        assert abs(np.vdot(top, psi)) == pytest.approx(1.0, abs=1e-6)

    def test_cross_block_magnitude_for_balanced_superposition(self, junction, geometry):
        basis = OamPairBasis.full(2)
        q = QubitState(1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0))
        rho = rho_total_superposition(q, 2, basis, geometry, 5.0, 0.5, junction,
                                      CoherenceParams(100.0), FUZZ_QUAD)
        pos = sector_mask(basis, 2)
        neg = sector_mask(basis, -2)
        cross = np.outer(pos, neg)
        assert np.abs(rho.entries[cross]).max() > 0.0


class TestNormalize:
    def test_identity(self):
        basis = OamPairBasis.from_l_values([0, 1])
        rho = PairDensityMatrix(basis, np.eye(4, dtype=complex))
        assert np.allclose(rho.normalize().entries, np.eye(4) / 4.0, rtol=0, atol=1e-16)

    def test_idempotent(self, geometry):
        rho = rho_cp(2, OamPairBasis.full(2), geometry).normalize()
        again = rho.normalize()
        assert np.max(np.abs(again.entries - rho.entries)) <= 1e-15

    def test_zero_trace_rejected(self):
        basis = OamPairBasis.from_l_values([0])
        rho = PairDensityMatrix(basis, np.zeros((1, 1), dtype=complex))
        with pytest.raises(ContractError):
            rho.normalize()


class TestMatrixContracts:
    def test_non_hermitian_rejected(self):
        basis = OamPairBasis.from_l_values([0, 1])
        bad = np.zeros((4, 4), dtype=complex)
        bad[0, 1] = 1.0
        with pytest.raises(ContractError):
            PairDensityMatrix(basis, bad)

    @pytest.mark.parametrize("value", [np.nan, complex(0.0, np.nan)])
    def test_non_finite_entry_rejected(self, value):
        basis = OamPairBasis.from_l_values([0, 1])
        bad = np.eye(4, dtype=complex)
        bad[2, 2] = value
        with pytest.raises(ContractError):
            PairDensityMatrix(basis, bad)

    def test_non_finite_total_rate_rejected(self, geometry):
        basis = OamPairBasis.full(1)
        coherent, incoherent = rho_cp(1, basis, geometry), rho_bqp(basis, geometry)
        for r_cp in (np.inf, np.nan):
            with pytest.raises(DegenerateMixtureError, match="total rate is not finite"):
                pair_state.mixture(coherent, incoherent, r_cp, 1.0)

    def test_shape_mismatch_rejected(self):
        basis = OamPairBasis.from_l_values([0, 1])
        with pytest.raises(ContractError):
            PairDensityMatrix(basis, np.eye(3, dtype=complex))

    def test_json_round_trip(self, junction, geometry):
        basis = OamPairBasis.full(2)
        q = QubitState.from_polar(1 / np.sqrt(2), 0.0, 1 / np.sqrt(2), 1.1)
        rho = rho_total_superposition(q, 1, basis, geometry, 5.0, 0.5, junction,
                                      CoherenceParams(50.0), FUZZ_QUAD)
        payload = json.loads(json.dumps(rho.to_json_dict()))
        back = PairDensityMatrix.from_json_dict(payload)
        assert back.basis == rho.basis
        assert np.array_equal(back.entries, rho.entries)


class TestFuzzedInvariants:
    def test_mixtures_hermitian_psd_trace_one(self, junction, rng):
        geometries = [
            AnnulusGeometry(4.0, 5.0, 6.4),
            AnnulusGeometry(1.0, 3.0, 2.0),
            AnnulusGeometry(0.0, 2.5, 1.5),
        ]
        for _ in range(1000):
            geom = geometries[int(rng.integers(0, len(geometries)))]
            l_max = int(rng.integers(1, 4))
            basis = OamPairBasis.full(l_max)
            ls = int(rng.integers(-l_max, l_max + 1))
            t = float(rng.uniform(0.05, 0.95))
            d = float(rng.uniform(-6.0, 6.0))
            enh = float(10.0 ** rng.uniform(0.0, 4.0))
            if rng.uniform() < 0.5:
                theta = float(rng.uniform(0.0, np.pi / 2.0))
                phase = float(rng.uniform(0.0, 2.0 * np.pi))
                q = QubitState.from_polar(np.cos(theta), 0.0, np.sin(theta), phase)
                rho = rho_total_superposition(q, ls, basis, geom, d, t, junction,
                                              CoherenceParams(enh), FUZZ_QUAD)
            else:
                rho = rho_total(ls, basis, geom, d, t, junction,
                                CoherenceParams(enh), FUZZ_QUAD)
            entries = rho.entries
            assert np.max(np.abs(entries - entries.conj().T)) <= 1e-12
            assert abs(np.trace(entries).real - 1.0) <= 1e-12
            assert float(np.linalg.eigvalsh(entries).min()) >= -1e-10


class TestSectorHelpers:
    def test_sector_pairs(self):
        basis = OamPairBasis.full(3)
        assert sector_pairs(basis, 2) == [(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)]
        assert sector_pairs(basis, 7) == []


# The per-pair construction the matrices had before they shared one |l| table,
# copied verbatim: an overlap cache keyed on the sorted signed modes and one
# overlap vector per matrix and sector.
@functools.lru_cache(maxsize=None)
def _old_kappa_cached(a, b, geom):
    return kappa(a, b, geom)


def _old_kappa(a, b, geom):
    lo_mode, hi_mode = sorted((a, b))
    return _old_kappa_cached(lo_mode, hi_mode, geom)


def _old_kappa_vector(basis, geom):
    return np.array(
        [_old_kappa(ModeIndex(0, l1), ModeIndex(0, l2), geom) for l1, l2 in basis.pairs]
    )


def _old_sector_vector(basis, geom, ls):
    mask = np.array([l1 + l2 == ls for l1, l2 in basis.pairs])
    if not mask.any():
        raise EmptySectorError(
            f"no pair in the basis has total OAM {ls} (l_max={basis.l_max})"
        )
    return _old_kappa_vector(basis, geom) * mask


def _old_rho_cp(ls, basis, geom):
    v = _old_sector_vector(basis, geom, int(ls))
    return np.outer(v, v).astype(complex)


def _old_rho_bqp(basis, geom):
    v = _old_kappa_vector(basis, geom)
    return np.diag(v * v).astype(complex)


def _old_rho_superposition(q, ls, basis, geom):
    ls = int(ls)
    n = len(basis)
    psi = np.zeros(n, dtype=complex)
    if q.a != 0:
        psi += q.a * _old_sector_vector(basis, geom, ls)
    if q.b != 0:
        psi += q.b * _old_sector_vector(basis, geom, -ls)
    return np.outer(psi, psi.conj())


def _same_outcome(new, old):
    """Both raise the same error class, or both return bit-identical entries."""
    try:
        expected = old()
    except EmptySectorError:
        with pytest.raises(EmptySectorError):
            new()
        return
    assert np.array_equal(new().entries, expected)


class TestSharedOverlapTable:
    BASES = [
        OamPairBasis.full(2),
        OamPairBasis.from_l_values([-3, 0, 2]),
        OamPairBasis.from_l_values([-4, -1, 1, 5]),
        OamPairBasis.from_l_values([6]),
        OamPairBasis([(-2, 1), (0, 0), (3, -3), (1, 2)], 3),
    ]
    GEOMETRIES = [AnnulusGeometry.default(), AnnulusGeometry(0.5, 3.0, 1.7)]

    @pytest.mark.parametrize("geom", GEOMETRIES)
    @pytest.mark.parametrize("basis", BASES, ids=repr)
    def test_matrices_equal_the_per_pair_construction(self, basis, geom):
        qubits = [
            QubitState(1.0, 0.0),
            QubitState(0.0, 1.0),
            QubitState.from_polar(0.6, 0.3, 0.8, -1.1),
        ]
        _same_outcome(lambda: rho_bqp(basis, geom), lambda: _old_rho_bqp(basis, geom))
        for ls in range(-2 * basis.l_max, 2 * basis.l_max + 1):
            _same_outcome(lambda: rho_cp(ls, basis, geom), lambda: _old_rho_cp(ls, basis, geom))
            for q in qubits:
                _same_outcome(
                    lambda: rho_superposition(q, ls, basis, geom),
                    lambda: _old_rho_superposition(q, ls, basis, geom),
                )

    def test_one_integral_per_unordered_magnitude_pair(self, monkeypatch):
        calls = []

        def counting_kappa(a, b, geom):
            calls.append((a, b))
            return kappa(a, b, geom)

        pair_state._overlap_table.cache_clear()
        monkeypatch.setattr(pair_state, "kappa", counting_kappa)
        geom = AnnulusGeometry(1.0, 4.0, 2.5)
        basis = OamPairBasis.from_l_values([-3, 0, 2, 3])
        rho_cp(-1, basis, geom)
        rho_bqp(basis, geom)
        rho_superposition(QubitState.from_polar(0.6, 0.0, 0.8, 0.0), 3, basis, geom)
        pairs = [(a.l, b.l) for a, b in calls]
        assert sorted(pairs) == [(0, 0), (0, 2), (0, 3), (2, 2), (2, 3), (3, 3)]


class TestSharedProfilePoints:
    """The overlaps of one table share the profile values their quadratures sample."""

    @pytest.mark.parametrize(
        "geom", [AnnulusGeometry.default(), AnnulusGeometry(0.0, 20.0, 3.0)], ids=repr
    )
    def test_table_entries_equal_standalone_overlaps(self, geom):
        magnitudes = tuple(range(7))
        pair_state._overlap_table.cache_clear()
        modes._profile_point.cache_clear()
        table = pair_state._overlap_table(geom, magnitudes)
        standalone = np.zeros_like(table)
        for i, l1 in enumerate(magnitudes):
            for l2 in magnitudes[i:]:
                modes._profile_point.cache_clear()
                value = kappa(ModeIndex(0, l1), ModeIndex(0, l2), geom)
                standalone[l1, l2] = standalone[l2, l1] = value
        assert np.array_equal(table, standalone)

    def test_l_max_6_table_evaluates_each_shared_point_once(self, monkeypatch):
        calls = []
        lg_radial = modes.lg_radial

        def counting_lg_radial(mode, waist, r):
            calls.append(mode)
            return lg_radial(mode, waist, r)

        monkeypatch.setattr(modes, "lg_radial", counting_lg_radial)
        pair_state._overlap_table.cache_clear()
        modes._profile_point.cache_clear()
        pair_state._overlap_table(AnnulusGeometry.default(), tuple(range(7)))
        # 6240 evaluations when each of the 28 overlaps sampled its own profiles
        assert len(calls) < 1300
