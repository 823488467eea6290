import json
import math
import os
import tracemalloc

import numpy as np
import pytest

from sled_oam import (
    CoherenceParams,
    DegenerateMixtureError,
    DomainError,
    KQuadrature,
    OamPairBasis,
    QubitState,
    SpectralGrid,
    bcs,
    gaas_nb_junction,
    mixing_rates,
    pair_state,
    rate_surfaces,
    spectral,
)
from sled_oam.config import load_config
from sled_oam.errors import ConvergenceError
from sled_oam.pair_state import CLOCKWISE
from sled_oam.spectral import _BandTables

SMALL_GRID = SpectralGrid(
    detunings=(-1.0, 0.0, 1.0),
    temperatures=(0.4, 0.8),
    k_integration=KQuadrature(nodes=256),
)


class TestValidation:
    def test_quadrature_bounds(self):
        with pytest.raises(DomainError):
            KQuadrature(nodes=32)
        with pytest.raises(DomainError):
            KQuadrature(cutoff_delta0=0.0)
        with pytest.raises(DomainError):
            KQuadrature(patch_area_um2=-1.0)

    def test_an_infinite_cutoff_or_patch_area_is_rejected(self):
        with pytest.raises(DomainError, match=r"^cutoff must be finite, got inf$"):
            KQuadrature(cutoff_delta0=math.inf)
        with pytest.raises(DomainError, match=r"^patch area must be finite, got inf$"):
            KQuadrature(patch_area_um2=math.inf)

    def test_grid_requires_increasing_detunings(self):
        with pytest.raises(DomainError):
            SpectralGrid(detunings=(1.0, 0.0, -1.0), temperatures=(0.5,))

    def test_grid_requires_symmetry(self):
        with pytest.raises(DomainError):
            SpectralGrid(detunings=(-2.0, 0.0, 1.0), temperatures=(0.5,))

    def test_grid_requires_open_temperature_interval(self):
        for bad in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(DomainError):
                SpectralGrid(detunings=(-1.0, 1.0), temperatures=(bad,))

    def test_temperature_domain_of_rates(self, junction, fast_quad):
        for bad in (0.0, 1.0, -0.5):
            with pytest.raises(DomainError):
                mixing_rates(1.0, (bad,), junction, fast_quad)[0][0]

    def test_vanished_gap_at_a_zero_kinetic_energy_node_is_singular(self, monkeypatch):
        # mu_n = 1 meV is exactly node 1 of the 64 nodes on [0, 63] meV
        sc = bcs.SuperconductorParams(delta0=1.0, tc=9.2)
        band = bcs.BandParams(effective_mass=0.067, quasi_fermi_level=1.0)
        jp = bcs.JunctionParams(sc, band, band, dephasing_time=1000.0)
        quad = KQuadrature(nodes=64, cutoff_delta0=62.0)
        monkeypatch.setattr(bcs, "gap_at_temperature", lambda sc, t: 0.0)
        with pytest.raises(DomainError, match="singular"):
            _BandTables(jp, quad).fill(0.5)

    def test_enhancement_bound(self):
        with pytest.raises(DomainError):
            CoherenceParams(0.5)

    @pytest.mark.parametrize("detunings", [(math.nan,), (-math.inf, math.inf)])
    def test_a_non_finite_detuning_is_a_domain_error_before_numpy_warns(
        self, junction, fast_quad, detunings
    ):
        # the grid accepts both; the rates reject them before building a band
        # table, where numpy would warn (an error under this suite's filters)
        grid = SpectralGrid(detunings, (0.5,), fast_quad)
        with pytest.raises(DomainError, match="^detunings must be finite, got "):
            rate_surfaces(grid, junction)
        with pytest.raises(DomainError, match="^detunings must be finite, got "):
            mixing_rates(detunings[-1], (0.5,), junction, fast_quad)


class TestDetuningSymmetry:
    def test_both_channels_exactly_even(self, junction, fast_quad):
        temps = (0.1, 0.5, 0.9)
        for d in (0.3, 1.7, 2.0, 4.9):
            assert mixing_rates(d, temps, junction, fast_quad) == mixing_rates(
                -d, temps, junction, fast_quad
            )

    def test_surfaces_mirror_symmetric(self, junction):
        grid = SpectralGrid(
            detunings=tuple(np.linspace(-3.0, 3.0, 13)),
            temperatures=(0.3, 0.9),
            k_integration=KQuadrature(nodes=512),
        )
        for surface in rate_surfaces(grid, junction):
            mirrored = surface.values[:, ::-1]
            assert np.abs(surface.values - mirrored).max() <= 1e-10 * surface.values.max()


class TestPositivity:
    def test_rates_nonnegative(self, junction, fast_quad):
        for d in np.linspace(-6, 6, 13):
            for r_cp, r_bqp in mixing_rates(d, (0.05, 0.5, 0.95), junction, fast_quad):
                assert r_cp >= 0.0 and r_bqp >= 0.0


class TestConvergence:
    def test_default_nodes_pass_the_error_estimate(self, junction):
        quad = KQuadrature(nodes=4096)
        for d in (0.0, 2.0, 5.0):
            mixing_rates(d, (0.1, 0.9), junction, quad)

    def test_sharp_resonance_on_coarse_grid_raises(self):
        # tiny broadening at minimal node count cannot resolve the resonance
        jp = gaas_nb_junction(dephasing_time=1e6)
        quad = KQuadrature(nodes=64)
        with pytest.raises(ConvergenceError) as err:
            mixing_rates(2.0, (0.1,), jp, quad)[0][0]
        assert err.value.coarse is not None and err.value.refined is not None

    def test_surface_error_carries_grid_point(self):
        jp = gaas_nb_junction(dephasing_time=1e6)
        grid = SpectralGrid(
            detunings=(-2.0, 0.0, 2.0),
            temperatures=(0.1,),
            k_integration=KQuadrature(nodes=64),
        )
        with pytest.raises(ConvergenceError) as err:
            rate_surfaces(grid, jp)[0]
        assert "t=0.1" in str(err.value) and "|d|=2.0" in str(err.value)


class TestFrozenBodyRates:
    """The 4096-node trapezoid rates against frozen body rates of the fig2 junction.

    tests/reference/rate_reference.json holds (coherent, incoherent) at
    1000 fs for t in {0.05, 0.5, 0.95} and |d| in {0, 2, 5, 6}: the package's
    own kernels at the default cutoff, integrated by Gregory's rule on 8193
    nodes, which agrees with the same rule on 16 385 nodes within 4.3e-16.
    Its generator, make_rate_reference.py, sits next to it.  Today's rates
    are within 1.35e-9 (coherent) and 7.7e-9 (incoherent) of them; the bound
    is 1e-8.  These are integrals to the cutoff only: the tail beyond it and
    the references at 1e4 and 1e5 fs are not frozen yet.
    """

    BOUND = 1e-8

    @staticmethod
    def references():
        path = os.path.join(os.path.dirname(__file__), "reference", "rate_reference.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_the_references_cover_the_fig2_grid_points(self):
        table = self.references()
        jp = load_config("fig2").junction
        assert jp == gaas_nb_junction(dephasing_time=table["dephasing_time_fs"])
        assert table["dephasing_time_fs"] == 1000.0
        assert sorted(table["rates"]) == sorted(
            f"{t!r},{d!r}" for t in (0.05, 0.5, 0.95) for d in (0.0, 2.0, 5.0, 6.0)
        )

    def test_default_rates_match_the_body_references(self):
        table = self.references()
        jp = gaas_nb_junction(dephasing_time=table["dephasing_time_fs"])
        keys = [tuple(map(float, key.split(","))) for key in table["rates"]]
        temperatures = sorted({t for t, _ in keys})
        for d in sorted({d for _, d in keys}):
            for t, rates in zip(temperatures, mixing_rates(d, temperatures, jp)):
                expected = table["rates"][f"{t!r},{d!r}"]
                for channel, value in zip(("coherent", "incoherent"), rates):
                    assert abs(value - expected[channel]) <= self.BOUND * expected[channel]


class TestNonFiniteRates:
    def test_an_infinite_rate_raises_before_the_error_estimate(self, junction):
        # an infinite rate's estimate would be inf - inf = NaN; it is named not finite first
        quad = KQuadrature(nodes=64, patch_area_um2=1e308)
        with pytest.raises(ConvergenceError, match=r"at \|d\|=2.0, t=0.5 is not finite"):
            mixing_rates(-2.0, (0.5,), junction, quad)[0][0]

    def test_a_vanished_coherent_maximum_raises(self, junction, monkeypatch):
        monkeypatch.setattr(
            spectral,
            "_channel_rates",
            lambda temps, jp, quad, detunings: [[(0.0, 1.0)] * len(detunings)] * len(temps),
        )
        with pytest.raises(ConvergenceError, match="coherent rate peaks at 0.0"):
            rate_surfaces(SMALL_GRID, junction)


def _bits_up_to_zero_signs(z: np.ndarray) -> bytes:
    # adding +0.0 turns -0.0 into +0.0 and leaves every other value as it is
    return (z + 0.0).tobytes()


class TestConjugateIdentities:
    """The two identities by which ``_BandTables.rates`` takes K(-d) from the
    denominators at +d, bit for bit up to the signs of zeros."""

    def test_each_denominator_at_minus_d_is_minus_the_conjugate_of_its_partner(self):
        rng = np.random.default_rng(0)
        gamma = 0.66
        e_n = np.append(rng.uniform(0.0, 60.0, 4000), 1.5)
        e_p = np.append(rng.uniform(0.0, 10.0, 4000), 2.0)
        for d in (0.0, 3.5, rng.uniform(0.0, 12.0)):
            # d = 0.0 makes -d = -0.0; d = 3.5 puts d - E^n - E^p at +0.0 on the last node
            plus, minus = (
                [
                    sign - e_n - e_p + 1j * gamma,
                    sign - e_n + e_p + 1j * gamma,
                    sign + e_n - e_p + 1j * gamma,
                    sign + e_n + e_p + 1j * gamma,
                ]
                for sign in (d, -d)
            )
            for den, partner in zip(minus, reversed(plus)):
                expected = np.negative(np.conjugate(partner))
                assert _bits_up_to_zero_signs(den) == _bits_up_to_zero_signs(expected)

    def test_a_real_weight_over_minus_the_conjugate_is_minus_the_conjugate_quotient(self):
        rng = np.random.default_rng(1)
        n = 20000
        gamma = np.exp(rng.uniform(-8.0, 5.0, n))
        # Re D from 1e-3 to 1e3 of Gamma, either sign, plus |Re D| = Gamma and Re D = 0
        real = gamma * np.exp(rng.uniform(-7.0, 7.0, n)) * rng.choice((-1.0, 1.0), n)
        real[:100] = gamma[:100]
        real[100:200] = 0.0
        den = real + 1j * gamma
        # real weights stored as complex, with zeros and tiny values among them
        w = np.zeros(n, dtype=complex)
        w.real = rng.normal(size=n) * np.exp(rng.uniform(-300.0, 300.0, n))
        w.real[::7] = 0.0
        first_branch = np.abs(den.real) >= np.abs(den.imag)
        assert first_branch.any() and not first_branch.all()
        lhs = w / np.negative(np.conjugate(den))
        rhs = np.negative(np.conjugate(w / den))
        assert _bits_up_to_zero_signs(lhs) == _bits_up_to_zero_signs(rhs)


class TestRateSurface:
    def test_shape_and_finiteness(self, junction):
        surface = rate_surfaces(SMALL_GRID, junction)[0]
        assert surface.values.shape == (2, 3)
        assert np.all(np.isfinite(surface.values))
        assert np.all(surface.values >= 0.0)

    def test_cp_max_exactly_one(self, junction):
        surface = rate_surfaces(SMALL_GRID, junction)[0]
        assert surface.values.max() == 1.0

    def test_bqp_normalized_by_cp_reference(self, junction):
        bqp_alone = rate_surfaces(SMALL_GRID, junction)[1]
        cp, bqp = rate_surfaces(SMALL_GRID, junction)
        assert np.array_equal(bqp_alone.values, bqp.values)
        assert bqp_alone.normalization == cp.normalization

    def test_gap_collapse_pulls_peak_inward(self, junction):
        grid = SpectralGrid(
            detunings=tuple(np.linspace(-6, 6, 61)),
            temperatures=(0.1, 0.95),
            k_integration=KQuadrature(nodes=1024),
        )
        surface = rate_surfaces(grid, junction)[0]
        ds = np.asarray(grid.detunings)
        argmax_cold = abs(ds[int(np.argmax(surface.values[0]))])
        argmax_hot = abs(ds[int(np.argmax(surface.values[1]))])
        assert argmax_hot < argmax_cold

    def test_cp_rate_decays_with_temperature_near_pair_peak(self, junction):
        grid = SpectralGrid(
            detunings=(-2.0, 0.0, 2.0),
            temperatures=(0.7, 0.8, 0.9, 0.95),
            k_integration=KQuadrature(nodes=1024),
        )
        surface = rate_surfaces(grid, junction)[0]
        col = surface.values[:, 2]
        assert all(a > b for a, b in zip(col, col[1:]))


class TestPerBandGapOverride:
    def test_unity_scales_match_default(self, junction, fast_quad):
        scaled = gaas_nb_junction(gap_scale_conduction=1.0, gap_scale_valence=1.0)
        assert mixing_rates(2.0, (0.3,), scaled, fast_quad)[0] == mixing_rates(
            2.0, (0.3,), junction, fast_quad
        )[0]

    def test_pair_peak_tracks_sum_of_band_gaps(self):
        jp = gaas_nb_junction(gap_scale_valence=0.5)
        quad = KQuadrature(nodes=2048)
        ds = np.linspace(0.5, 3.0, 126)
        vals = [mixing_rates(d, (0.1,), jp, quad)[0][0] for d in ds]
        peak = ds[int(np.argmax(vals))]
        assert peak == pytest.approx(1.5, abs=0.06)


class TestBroadening:
    @staticmethod
    def _fwhm(jp, quad):
        ds = np.linspace(0.5, 3.5, 301)
        vals = np.array([mixing_rates(d, (0.1,), jp, quad)[0][0] for d in ds])
        half = vals.max() / 2.0
        above = ds[vals >= half]
        return above[-1] - above[0]

    def test_longer_dephasing_sharpens_peak(self):
        quad = KQuadrature(nodes=2048)
        width_base = self._fwhm(gaas_nb_junction(dephasing_time=1000.0), quad)
        width_sharp = self._fwhm(gaas_nb_junction(dephasing_time=2000.0), quad)
        assert width_sharp < width_base


class TestMixingRates:
    @pytest.mark.parametrize(
        "qubit", [CLOCKWISE, QubitState.from_polar(0.6, 0.3, 0.8, 1.1)], ids=["real", "complex"]
    )
    def test_mixtures_scale_only_the_coherent_rate(self, junction, geometry, fast_quad, qubit):
        """Both channel matrices, a complex qubit's diagonal |psi_i|^2 included,
        are formed alike in the sweep and in ``rho_superposition``."""
        basis = OamPairBasis.full(1)
        coherent = pair_state.rho_superposition(qubit, 1, basis, geometry)
        incoherent = pair_state.rho_bqp(basis, geometry)
        r_cp, r_bqp = mixing_rates(5.0, (0.5,), junction, fast_quad)[0]
        cells, mixtures, error = pair_state.mixture_sweep(
            qubit, 1, basis, geometry, 5.0, (0.5,), (50.0, 100.0), junction, fast_quad
        )
        assert error is None and len(mixtures) == 2
        for values, enh in zip(mixtures, (50.0, 100.0)):
            expected = pair_state.mixture(coherent, incoherent, enh * r_cp, r_bqp).entries
            # bit for bit, the zeros' signs included, with +0.0 where nothing is held
            dense = np.zeros(expected.shape, dtype=complex)
            dense.flat[cells] = values
            assert dense.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("failing", [0, 1])
    def test_a_failing_point_returns_the_rows_before_it_and_its_located_error(
        self, junction, geometry, fast_quad, monkeypatch, failing
    ):
        """An infinite coherent rate at temperature ``failing``: the sweep returns
        the rows of the points before it, each its one-shot mixture, and that
        point's error with the point appended."""
        basis = OamPairBasis.full(1)
        temps, enhancements = (0.3, 0.7), (10.0, 100.0)
        rates = mixing_rates(5.0, temps, junction, fast_quad)
        rates[failing] = (math.inf, rates[failing][1])
        monkeypatch.setattr(spectral, "mixing_rates", lambda *args: rates)
        cells, mixtures, error = pair_state.mixture_sweep(
            CLOCKWISE, 1, basis, geometry, 5.0, temps, enhancements, junction, fast_quad
        )
        before = [(r, enh) for r in rates[:failing] for enh in enhancements]
        assert len(mixtures) == len(before)
        coherent = pair_state.rho_cp(1, basis, geometry)
        incoherent = pair_state.rho_bqp(basis, geometry)
        for values, ((s_cp, s_bqp), enh) in zip(mixtures, before):
            expected = pair_state.mixture(coherent, incoherent, enh * s_cp, s_bqp).entries
            assert values.tobytes() == expected.ravel()[cells].tobytes()
        assert isinstance(error, DegenerateMixtureError)
        assert str(error).startswith("total rate is not finite")
        assert str(error).endswith(f" (at t={temps[failing]}, enhancement=10.0)")

    def test_coherent_share_monotone_in_enhancement(self, junction, fast_quad):
        r_cp, r_bqp = mixing_rates(5.0, (0.5,), junction, fast_quad)[0]
        shares = []
        for enh in (1.0, 10.0, 100.0, 1000.0):
            weighted = CoherenceParams(enh).enhancement * r_cp
            shares.append(weighted / (weighted + r_bqp))
        assert all(a < b for a, b in zip(shares, shares[1:]))

    def test_both_rates_positive(self, junction, fast_quad):
        r_cp, r_bqp = mixing_rates(5.0, (0.3,), junction, fast_quad)[0]
        assert r_cp > 0 and r_bqp > 0


class TestBandTableLayout:
    """Band-table arrays start on pages and are allocated once per table; neither
    a refill for another temperature nor a detuning allocates an array of node
    length."""

    @pytest.mark.parametrize("nodes", [64, 257, 4096])
    def test_every_array_starts_on_a_page(self, junction, nodes):
        tables = _BandTables(junction, KQuadrature(nodes=nodes))
        tables.fill(0.5)
        arrays = [
            tables.e_n, tables.e_p, tables.half_dx, tables.uv, *tables.pair_weights, *tables.qp_weights
        ]
        assert all(a.ctypes.data % 4096 == 0 and a.shape == (nodes,) for a in arrays)

    def test_a_detuning_allocates_no_node_array(self, junction):
        nodes = 4096
        tables = _BandTables(junction, KQuadrature(nodes=nodes))
        tables.fill(0.5)
        tables.rates(1.0, junction.sc.delta0)
        tables.halved_rates()
        tracemalloc.start()
        try:
            tables.rates(1.5, junction.sc.delta0)
            tables.halved_rates()  # the error estimate every rate gets
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nodes * 8  # below one float64 array of node length

    def test_a_refill_allocates_no_node_array(self, junction):
        nodes = 4096
        tables = _BandTables(junction, KQuadrature(nodes=nodes))
        tables.fill(0.5)
        tracemalloc.start()
        try:
            tables.fill(0.7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nodes * 8  # below one float64 array of node length

    @pytest.mark.parametrize(
        "sweep, tables",
        [
            (lambda jp, temps: mixing_rates(2.0, temps, jp, KQuadrature(nodes=512)), 1),
            (lambda jp, temps: mixing_rates(5.0, temps, jp, KQuadrature(1024)), 1),
            (
                lambda jp, temps: rate_surfaces(
                    SpectralGrid((-1.0, 1.0), temps, KQuadrature(nodes=512)), jp
                ),
                1,
            ),
        ],
        ids=["one table", "verified sweep", "rate surface"],
    )
    def test_arrays_are_allocated_once_per_table_not_per_temperature(
        self, junction, monkeypatch, sweep, tables
    ):
        calls = []

        def counted(nodes, dtypes):
            calls.append(nodes)
            return aligned_arrays(nodes, dtypes)

        aligned_arrays = spectral._aligned_arrays
        monkeypatch.setattr(spectral, "_aligned_arrays", counted)
        sweep(junction, (0.1, 0.3, 0.5, 0.7, 0.9))
        assert len(calls) == tables
