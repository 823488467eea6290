import functools
import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import (
    cli,
    modes,
    pair_state,
    AnnulusGeometry,
    CoherenceParams,
    ContractError,
    DegenerateMixtureError,
    DomainError,
    EmptySectorError,
    TargetState,
    KQuadrature,
    OamPairBasis,
    PairDensityMatrix,
    QubitState,
    bell_target,
    fidelity,
    kappa,
    rho_bqp,
    rho_cp,
    rho_superposition,
    rho_total,
    rho_total_superposition,
    sector_pairs,
    bcs,
)

from sled_oam.config import load_config
from sled_oam.spectral import mixing_rates
from dm_json import from_json_dict, to_json_dict
import test_modes
from test_modes import OracleMode, oracle_kappa, reference_lg_radial

FUZZ_QUAD = KQuadrature(nodes=512, cutoff_delta0=10.0)


def sector_mask(basis, ls):
    return np.array([l1 + l2 == ls for l1, l2 in basis.pairs])


def partial_transpose(rho: np.ndarray, basis) -> np.ndarray:
    """rho^T_B[(x, y), (u, v)] = rho[(x, v), (u, y)] on a product basis of pair labels."""
    index = {pair: i for i, pair in enumerate(basis.pairs)}
    return np.array([[rho[index[x, v], index[u, y]] for u, v in index] for x, y in index])


def negativity(rho: np.ndarray, basis) -> float:
    """Sum of |negative eigenvalues| of the partial transpose, from ``eigvalsh``."""
    values = np.linalg.eigvalsh(partial_transpose(rho, basis))
    return float(-values[values < 0].sum())


def one_sector_negativity(rho: np.ndarray, basis, sector: int) -> float:
    """The negativity of a mixture whose coherent part lies in one total-OAM sector.

    The partial transpose on photon B of p psi psi^H / |psi|^2 + (1 - p) diag
    moves the coherent cell [(l1, s - l1), (l1', s - l1')] to
    [(l1, s - l1'), (l1', s - l1)].  So it is diagonal but for 2 x 2 blocks
    on x = (l1, m), y = (s - m, s - l1), x != y, with diagonal A = rho[x, x],
    B = rho[y, y] and corner c = rho[(l1, s - l1), (s - m, m)] (0 where those
    pairs are not in the basis).  A block's smaller eigenvalue is
    (A + B)/2 - sqrt(((A - B)/2)^2 + |c|^2), and the negativity is the sum of
    max(0, -that) over the blocks.
    """
    index = {pair: i for i, pair in enumerate(basis.pairs)}
    total = 0.0
    for l1, m in basis.pairs:
        y = (sector - m, sector - l1)
        if y not in index or not (l1, m) < y:
            continue
        a, b = index[l1, m], index[y]
        corner_row, corner_col = (l1, sector - l1), (sector - m, m)
        c = 0.0
        if corner_row in index and corner_col in index:
            c = rho[index[corner_row], index[corner_col]]
        mean, half = (rho[a, a].real + rho[b, b].real) / 2, (rho[a, a].real - rho[b, b].real) / 2
        total += max(0.0, math.sqrt(half**2 + abs(c) ** 2) - mean)
    return total


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
            from_json_dict({"basis": [], "re": [], "im": []})

    def test_index_lookup(self):
        basis = OamPairBasis.full(2)
        for i, pair in enumerate(basis.pairs):
            assert basis.index(pair) == i


class TestQubitState:
    def test_norm_enforced(self):
        with pytest.raises(DomainError):
            QubitState(1.0, 1.0)

    @pytest.mark.parametrize("a", [1e155, 1.7e308, complex(1.7e308, 1.7e308)])
    def test_a_huge_magnitude_is_a_domain_error(self, a):
        # its square overflows, or its modulus does
        with pytest.raises(DomainError, match="must be 1, got inf"):
            QubitState(a, 0.0)

    @pytest.mark.parametrize("a", [np.nan, complex(0.0, np.nan)])
    def test_a_nan_amplitude_fails_the_norm_check(self, a):
        with pytest.raises(DomainError, match="must be 1, got nan"):
            QubitState(a, 0.0)

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
        k01 = kappa(0, 1, geometry)
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
            assert rho.entries[i, i].real == pytest.approx(
                kappa(l1, l2, geometry) ** 2, rel=1e-12
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
        payload = json.loads(json.dumps(to_json_dict(rho)))
        back = from_json_dict(payload)
        assert back.basis == rho.basis
        assert np.array_equal(back.entries, rho.entries)


class TestRateShares:
    """A rate source returning (-0.05, 1.0) at every temperature: at enhancement
    10 the coherent share is -1 and the incoherent one 2.  Both traces and the
    total rate pass, so only the check that each share lies in [0, 1] stops the
    matrix of trace 1 and smallest eigenvalue -0.93 that they would mix."""

    MESSAGE = "rate shares must lie in [0, 1], got -1.0 and 2.0 (r_cp=-0.5, r_bqp=1.0)"

    @pytest.fixture()
    def negative_rates(self, monkeypatch):
        monkeypatch.setattr(
            pair_state.spectral, "mixing_rates", lambda d, temps, *rest: [(-0.05, 1.0)] * len(temps)
        )

    def test_the_sweep_returns_no_rows_and_the_located_error(self, negative_rates, junction):
        basis, geom = OamPairBasis.full(3), AnnulusGeometry.default()
        cells, mixtures, error = pair_state.mixture_sweep(
            pair_state.CLOCKWISE, 2, basis, geom, 5.0, (0.5, 0.9), (10.0, 100.0), junction
        )
        assert mixtures.shape == (0, len(cells))
        assert isinstance(error, DegenerateMixtureError)
        assert str(error) == self.MESSAGE + " (at t=0.5, enhancement=10.0)"

    def test_the_one_shot_mixture_raises_it(self, geometry):
        basis = OamPairBasis.full(3)
        coherent, incoherent = rho_cp(2, basis, geometry), rho_bqp(basis, geometry)
        with pytest.raises(DegenerateMixtureError, match=rf"^{re.escape(self.MESSAGE)}$"):
            pair_state.mixture(coherent, incoherent, 10.0 * -0.05, 1.0)

    def test_dm_exits_1_and_writes_no_matrix(self, negative_rates, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["dm", "--config", "fig3", "--out", str(out), "--set", "output.svg=false"]
        assert cli.main(args) == 1
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "DegenerateMixtureError"
        assert record["message"] == self.MESSAGE + " (at t=0.5, enhancement=10.0)"
        assert not list(out.glob("dm_*"))


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
# copied verbatim but for the mode label, now the signed l: an overlap cache
# keyed on the sorted signed modes and one overlap vector per matrix and sector.
@functools.lru_cache(maxsize=None)
def _old_kappa_cached(a, b, geom):
    return kappa(a, b, geom)


def _old_kappa(a, b, geom):
    lo_mode, hi_mode = sorted((a, b))
    return _old_kappa_cached(lo_mode, hi_mode, geom)


def _old_kappa_vector(basis, geom):
    return np.array([_old_kappa(l1, l2, geom) for l1, l2 in basis.pairs])


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
    rho = np.outer(psi, psi.conj())
    # each diagonal entry is |psi_i|^2 with no imaginary rounding residue
    rho[np.diag_indices(n)] = [x.real * x.real + x.imag * x.imag for x in psi.tolist()]
    return rho


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
            calls.append(list(zip(np.ravel(a).tolist(), np.ravel(b).tolist())))
            return kappa(a, b, geom)

        pair_state._overlap_table.cache_clear()
        monkeypatch.setattr(pair_state, "kappa", counting_kappa)
        geom = AnnulusGeometry(1.0, 4.0, 2.5)
        basis = OamPairBasis.from_l_values([-3, 0, 2, 3])
        rho_cp(-1, basis, geom)
        rho_bqp(basis, geom)
        rho_superposition(QubitState.from_polar(0.6, 0.0, 0.8, 0.0), 3, basis, geom)
        # one batched call for all three matrices
        assert calls == [[(0, 0), (0, 2), (0, 3), (2, 2), (2, 3), (3, 3)]]


class TestSharedProfilePoints:
    """The overlaps of one table are integrated in one sweep, which samples
    the profiles at all their new radii at once."""

    @pytest.mark.parametrize(
        "geom", [AnnulusGeometry.default(), AnnulusGeometry(0.0, 20.0, 3.0)], ids=repr
    )
    def test_table_entries_equal_standalone_overlaps(self, geom):
        magnitudes = tuple(range(7))
        pair_state._overlap_table.cache_clear()
        table = pair_state._overlap_table(geom, magnitudes)
        standalone = np.zeros_like(table)
        for i, l1 in enumerate(magnitudes):
            for l2 in magnitudes[i:]:
                value = kappa(l1, l2, geom)
                standalone[l1, l2] = standalone[l2, l1] = value
        assert np.array_equal(table, standalone)

    @pytest.mark.parametrize(
        "geom", [AnnulusGeometry.default(), AnnulusGeometry(0.0, 20.0, 3.0)], ids=repr
    )
    def test_cold_l_max_6_table_equals_the_table_of_numpy_oracle_profiles(
        self, monkeypatch, geom
    ):
        magnitudes = tuple(range(7))
        pair_state._overlap_table.cache_clear()
        table = pair_state._overlap_table(geom, magnitudes)

        @functools.lru_cache(maxsize=None)
        def oracle_point(abs_l, waist, r):
            return reference_lg_radial(OracleMode(0, abs_l), waist, r)

        def oracle_profile(abs_l, waist, r):
            abs_l, r = np.broadcast_arrays(abs_l, r)
            points = zip(abs_l.ravel().tolist(), r.ravel().tolist())
            return np.reshape([oracle_point(l, waist, x) for l, x in points], r.shape)

        monkeypatch.setattr(modes, "_profile", oracle_profile)
        pair_state._overlap_table.cache_clear()
        reference = pair_state._overlap_table(geom, magnitudes)
        pair_state._overlap_table.cache_clear()
        assert oracle_point.cache_info().misses > 1000
        assert table.tobytes() == reference.tobytes()

    def test_l_max_6_table_samples_the_recursions_radii_in_few_calls(self, monkeypatch):
        recursion = []

        def recording_simpson(f, *args):
            return oracle_simpson(lambda r: recursion.append(r) or f(r), *args)

        oracle_simpson = test_modes.oracle_adaptive_simpson
        monkeypatch.setattr(test_modes, "oracle_adaptive_simpson", recording_simpson)
        geom = AnnulusGeometry.default()
        for a in range(7):
            for b in range(a, 7):
                oracle_kappa(a, b, geom)

        calls = []
        profile = modes._profile

        def recording_profile(abs_l, waist, r):
            calls.append(r.copy())
            return profile(abs_l, waist, r)

        monkeypatch.setattr(modes, "_profile", recording_profile)
        pair_state._overlap_table.cache_clear()
        pair_state._overlap_table(geom, tuple(range(7)))
        pair_state._overlap_table.cache_clear()
        # the 28 recursions sampled 3092 radii, one integrand call each
        assert len(recursion) == 3092
        assert np.sort(np.concatenate(calls)).tobytes() == np.sort(recursion).tobytes()
        assert len(calls) <= 10


class TestPurity:
    """Tr rho^2 of an emitted mixture in closed form.

    rho = p v v^H / |v|^2 + (1 - p) diag(w^2) / sum w^2, with w the overlap of
    each pair, v the coherent channel's vector (the qubit amplitudes times w
    on the two sectors) and p = r_cp / (r_cp + r_bqp), so
    Tr rho^2 = p^2 + 2 p (1 - p) sum |v_i|^2 w_i^2 / (|v|^2 sum w^2)
    + (1 - p)^2 sum w^4 / (sum w^2)^2.
    """

    @pytest.mark.parametrize(
        "preset, overrides",
        [
            ("fig3", []),
            ("fig5", []),
            ("fig3", ["emission.qubit_a=0.6, 0", "emission.qubit_b=0.8, 1.0"]),
        ],
    )
    def test_closed_form_equals_the_full_matrix(self, preset, overrides):
        config = load_config(preset, overrides)
        basis, geom, q, ls = config.basis, config.geometry, config.qubit, config.winding
        w = np.array([kappa(l1, l2, geom) for l1, l2 in basis.pairs])
        v = q.a * w * sector_mask(basis, ls) + q.b * w * sector_mask(basis, -ls)
        v2, w2 = np.abs(v) ** 2, w**2
        shared = np.sum(v2 * w2) / (np.sum(v2) * np.sum(w2))
        spread = np.sum(w2**2) / np.sum(w2) ** 2
        coherent = rho_superposition(q, ls, basis, geom)
        incoherent = rho_bqp(basis, geom)
        temperatures = config.grid.temperatures
        rates = mixing_rates(
            config.detuning_for_dm, temperatures, config.junction, config.grid.k_integration
        )
        checked = 0
        for s_cp, s_bqp in rates:
            for enh in config.enhancements:
                r_cp = enh * s_cp
                p = r_cp / (r_cp + s_bqp)
                closed = p**2 + 2 * p * (1 - p) * shared + (1 - p) ** 2 * spread
                rho = pair_state.mixture(coherent, incoherent, r_cp, s_bqp).entries
                assert closed == pytest.approx(np.vdot(rho, rho).real, rel=0, abs=1e-12)
                assert 0 < closed <= 1
                checked += 1
        assert checked == len(temperatures) * len(config.enhancements)


class TestQubitMapping:
    """A qubit a|cw> + b|ccw> maps onto the photon state a B+ + b B-, with B+ and B-
    the equal-amplitude states of the +ls and -ls sectors (the abstract's second
    claim).  kappa depends on |l| only, so on a basis symmetric under l -> -l
    the fidelity against the mapped target does not depend on (a, b).  On a
    gapped ``l_values`` list the sectors differ and it does: the regime of the
    invariant is the mirror-symmetric basis."""

    QUBITS = [
        QubitState(1.0, 0.0),
        QubitState(0.0, 1.0),
        QubitState.from_polar(0.6, 0.3, 0.8, 1.1),
        QubitState.from_polar(2**-0.5, 0.0, 2**-0.5, 2.0),
    ]

    def mapped_fidelities(self, overrides):
        """Fidelity at fig3's t = 0.5, enhancement 10, against each qubit's mapped target."""
        config = load_config("fig3", overrides)
        basis, ls = config.basis, config.winding
        plus, minus = (bell_target(basis, s).coefficients for s in (ls, -ls))
        values = []
        for q in self.QUBITS:
            rho = rho_total_superposition(
                q,
                ls,
                basis,
                config.geometry,
                config.detuning_for_dm,
                0.5,
                config.junction,
                CoherenceParams(10.0),
                config.grid.k_integration,
            )
            values.append(fidelity(rho, TargetState(basis, q.a * plus + q.b * minus)))
        return values

    def test_a_mirror_symmetric_basis_maps_every_qubit_alike(self):
        values = self.mapped_fidelities([])
        # 0.778699735563644, spread 4.9e-15
        assert max(values) - min(values) <= 1e-12

    def test_a_gapped_basis_does_not(self):
        # +1 sector (0,1), (1,0); -1 sector (-3,2), (2,-3): 0.71-0.87
        values = self.mapped_fidelities(["emission.l_values=-3,0,1,2"])
        assert max(values) - min(values) > 0.1


class TestPurityPlateau:
    """Recombination through thermally excited quasiparticles costs little purity
    (the abstract's third claim), in the regime where the model supports it.

    The incoherent channel does not vanish as T -> 0, so the claim is read as
    the purity lost from its low-temperature plateau.  On fig5 at enhancement
    100, Tr rho^2 stays within 0.03 of its t = 0.05 value for t <= 0.7
    (0.9821 falling to 0.9578, a drop of 0.024).  At enhancement 10 it drops
    by 0.149 over the same range, and the claim does not hold there.
    """

    def purities(self, enhancement):
        """Tr rho^2 at fig5's temperatures up to t = 0.7, from t = 0.05."""
        config = load_config("fig5")
        values = []
        for t in config.grid.temperatures:
            if t <= 0.7:
                rho = rho_total(
                    config.winding,
                    config.basis,
                    config.geometry,
                    config.detuning_for_dm,
                    t,
                    config.junction,
                    CoherenceParams(enhancement),
                    config.grid.k_integration,
                ).entries
                values.append(np.vdot(rho, rho).real)
        assert len(values) == 14
        return values

    def test_at_enhancement_100_the_purity_stays_on_its_plateau(self):
        values = self.purities(100.0)
        assert max(abs(value - values[0]) for value in values) <= 0.03

    def test_at_enhancement_10_it_does_not(self):
        values = self.purities(10.0)
        assert values[0] - values[-1] > 0.1


class TestEntanglementEdge:
    """Where the emitted state on fig5 stops being entangled (ROADMAP item 17).

    The PPT test on photon B: at enhancement 10 the partial transpose of
    rho_total has a negative eigenvalue at t = 0.90 (negativity 0.00723) and
    none at t = 0.91 (smallest eigenvalue +0.0251).  The bounds leave room for
    shifts of the rates of a few 1e-4.
    """

    def partial_transpose_eigenvalues(self, t):
        config = load_config("fig5")
        rho = rho_total(
            config.winding,
            config.basis,
            config.geometry,
            config.detuning_for_dm,
            t,
            config.junction,
            CoherenceParams(10.0),
            config.grid.k_integration,
        ).entries
        return np.linalg.eigvalsh(partial_transpose(rho, config.basis))

    def test_entangled_at_t_0_90(self):
        values = self.partial_transpose_eigenvalues(0.90)
        assert -values[values < 0].sum() > 0.005

    def test_separable_by_ppt_at_t_0_91(self):
        assert self.partial_transpose_eigenvalues(0.91).min() > 0.02


class TestNegativityClosedForm:
    """The one-sector closed form of the negativity against ``eigvalsh`` (ROADMAP item 17).

    Within 1e-13 relative on fig3 (49 pairs, ls = 2) and fig5 (4 pairs,
    ls = 1), measured at most 5.3e-15 (fig3 at t = 0.95, enhancement 10).
    The absolute 1e-15, of a unit trace, admits the rounding of either side
    where the negativity is 0 (fig5 at t = 0.95, enhancement 10) or small:
    over random annuli, bases, one-sector qubits and rates the two differ by
    at most 5.4e-17, which is 8.4e-14 of a negativity of 4.9e-4.
    """

    @pytest.mark.parametrize("preset", ["fig3", "fig5"])
    def test_presets_match_eigvalsh(self, preset):
        config = load_config(preset)
        for t in (0.05, 0.5, 0.7, 0.9, 0.95):
            for enhancement in (10.0, 100.0):
                rho = rho_total(
                    config.winding,
                    config.basis,
                    config.geometry,
                    config.detuning_for_dm,
                    t,
                    config.junction,
                    CoherenceParams(enhancement),
                    config.grid.k_integration,
                ).entries
                closed = one_sector_negativity(rho, config.basis, config.winding)
                assert closed == pytest.approx(negativity(rho, config.basis), rel=1e-13, abs=1e-15)

    @settings(max_examples=50, deadline=None, derandomize=True, database=None)
    @given(
        r_inner=st.floats(0.0, 6.0),
        width=st.floats(0.1, 4.0),
        waist=st.floats(1.0, 8.0),
        l_values=st.lists(st.integers(-4, 4), min_size=2, max_size=5, unique=True),
        picks=st.tuples(st.integers(0, 4), st.integers(0, 4)),
        clockwise=st.booleans(),
        phase=st.floats(0.0, 6.3),
        rates=st.tuples(st.floats(1e-3, 1e3), st.floats(1e-3, 1e3)),
    )
    def test_random_one_sector_mixtures_match_eigvalsh(
        self, r_inner, width, waist, l_values, picks, clockwise, phase, rates
    ):
        basis = OamPairBasis.from_l_values(l_values)
        geom = AnnulusGeometry(r_inner, r_inner + width, waist)
        sector = sum(l_values[k % len(l_values)] for k in picks)
        amplitude = complex(math.cos(phase), math.sin(phase))
        q = QubitState(amplitude, 0.0) if clockwise else QubitState(0.0, amplitude)
        ls = sector if clockwise else -sector
        coherent = rho_superposition(q, ls, basis, geom)
        rho = pair_state.mixture(coherent, rho_bqp(basis, geom), *rates).entries
        closed = one_sector_negativity(rho, basis, sector)
        assert closed == pytest.approx(negativity(rho, basis), rel=1e-13, abs=1e-15)


class TestThermalOccupation:
    """What the thermal quasiparticle occupation does to the fig5 mixture at d = 5.

    Setting f = 0 and fbar = 1 at the same gap (``bcs.fermi_occupation`` and
    ``fermi_occupation_complement`` patched) raises both rates at every
    temperature but t = 0.05, where they are the same bits: at t = 0.95 the
    incoherent rate goes 34.05 -> 50.80 and the coherent one 0.474 -> 1.834.
    So thermal occupation lowers the coherent share p = r_cp / (r_cp + r_bqp):
    p with the real occupations is at most p with f = 0, equal at t = 0.05,
    and at enhancement 10 it is 0.864 against 0.870 at t = 0.5 and 0.122
    against 0.265 at t = 0.95.  The occupation alone costs less than 1% of p
    for t <= 0.5 (0.66% at t = 0.5, enhancement 10), so the loss of purity
    there does not come from thermally excited quasiparticles; near Tc much
    of it does.
    """

    @staticmethod
    def rates(monkeypatch, unoccupied):
        config = load_config("fig5")
        if unoccupied:

            def empty(e, t, out=None):
                out[...] = 0.0
                return out

            def full(e, t, out=None):
                out[...] = 1.0
                return out

            monkeypatch.setattr(bcs, "fermi_occupation", empty)
            monkeypatch.setattr(bcs, "fermi_occupation_complement", full)
        temperatures = config.grid.temperatures
        rates = mixing_rates(
            config.detuning_for_dm, temperatures, config.junction, config.grid.k_integration
        )
        return config, dict(zip(temperatures, rates))

    def test_occupation_lowers_both_rates_and_the_coherent_share(self, monkeypatch):
        config, real = self.rates(monkeypatch, unoccupied=False)
        _, empty = self.rates(monkeypatch, unoccupied=True)
        assert len(real) == 19
        for t, (s_cp, s_bqp) in real.items():
            e_cp, e_bqp = empty[t]
            if t == 0.05:
                assert (s_cp, s_bqp) == (e_cp, e_bqp)
            else:
                assert s_cp < e_cp and s_bqp < e_bqp
            for enhancement in config.enhancements:
                p = enhancement * s_cp / (enhancement * s_cp + s_bqp)
                p_empty = enhancement * e_cp / (enhancement * e_cp + e_bqp)
                assert p <= p_empty
                if t <= 0.5:
                    assert p_empty - p < 0.01 * p_empty
        assert real[0.95] == pytest.approx((0.474, 34.05), rel=2e-3)
        assert empty[0.95] == pytest.approx((1.834, 50.80), rel=2e-3)
        shares = {
            t: [10 * cp / (10 * cp + bqp) for cp, bqp in (real[t], empty[t])] for t in (0.5, 0.95)
        }
        assert shares[0.5] == pytest.approx([0.864, 0.870], abs=1e-3)
        assert shares[0.95] == pytest.approx([0.122, 0.265], abs=1e-3)
