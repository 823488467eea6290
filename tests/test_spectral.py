import tracemalloc

import numpy as np
import pytest

from sled_oam import (
    CoherenceParams,
    DomainError,
    KQuadrature,
    SpectralGrid,
    bcs,
    gaas_nb_junction,
    mixing_rates,
    rate_surfaces,
    s_bqp,
    s_cp,
    spectral,
)
from sled_oam.errors import ConvergenceError
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
                s_cp(1.0, bad, junction, fast_quad)

    def test_vanished_gap_at_a_zero_kinetic_energy_node_is_singular(self, monkeypatch):
        # mu_n = 1 meV is exactly node 1 of the 64 nodes on [0, 63] meV
        sc = bcs.SuperconductorParams(delta0=1.0, tc=9.2)
        band = bcs.BandParams(effective_mass=0.067, quasi_fermi_level=1.0)
        jp = bcs.JunctionParams(sc, band, band, dephasing_time=1000.0)
        quad = KQuadrature(nodes=64, cutoff_delta0=62.0)
        monkeypatch.setattr(bcs, "gap_at_temperature", lambda sc, t: 0.0)
        with pytest.raises(DomainError, match="singular"):
            _BandTables(0.5, jp, quad, quad.nodes)

    def test_enhancement_bound(self):
        with pytest.raises(DomainError):
            CoherenceParams(0.5)


class TestDetuningSymmetry:
    def test_both_channels_exactly_even(self, junction, fast_quad):
        for t in (0.1, 0.5, 0.9):
            for d in (0.3, 1.7, 2.0, 4.9):
                assert s_cp(d, t, junction, fast_quad) == s_cp(-d, t, junction, fast_quad)
                assert s_bqp(d, t, junction, fast_quad) == s_bqp(-d, t, junction, fast_quad)

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
        for t in (0.05, 0.5, 0.95):
            for d in np.linspace(-6, 6, 13):
                assert s_cp(d, t, junction, fast_quad) >= 0.0
                assert s_bqp(d, t, junction, fast_quad) >= 0.0


class TestConvergence:
    def test_default_nodes_pass_doubling_check(self, junction):
        quad = KQuadrature(nodes=4096, verify=True)
        for t in (0.1, 0.9):
            for d in (0.0, 2.0, 5.0):
                s_cp(d, t, junction, quad)
                s_bqp(d, t, junction, quad)

    def test_sharp_resonance_on_coarse_grid_raises(self):
        # tiny broadening at minimal node count cannot resolve the resonance
        jp = gaas_nb_junction(dephasing_time=1e6)
        quad = KQuadrature(nodes=64, verify=True)
        with pytest.raises(ConvergenceError) as err:
            s_cp(2.0, 0.1, jp, quad)
        assert err.value.coarse is not None and err.value.refined is not None

    def test_surface_error_carries_grid_point(self):
        jp = gaas_nb_junction(dephasing_time=1e6)
        grid = SpectralGrid(
            detunings=(-2.0, 0.0, 2.0),
            temperatures=(0.1,),
            k_integration=KQuadrature(nodes=64, verify=True),
        )
        with pytest.raises(ConvergenceError) as err:
            rate_surfaces(grid, jp)[0]
        assert "t=" in str(err.value) and "d=" in str(err.value)


class TestNonFiniteRates:
    def test_an_infinite_rate_raises_before_the_doubling_check(self, junction):
        # inf and its doubled-node inf differ by inf - inf = NaN, which no tolerance rejects
        quad = KQuadrature(nodes=64, patch_area_um2=1e308, verify=True)
        with pytest.raises(ConvergenceError, match=r"at \|d\|=2.0, t=0.5 is not finite"):
            s_cp(-2.0, 0.5, junction, quad)

    def test_a_vanished_coherent_maximum_raises(self, junction, monkeypatch):
        monkeypatch.setattr(
            spectral, "_channel_rates", lambda t, jp, quad, detunings: [(0.0, 1.0)] * len(detunings)
        )
        with pytest.raises(ConvergenceError, match="coherent rate peaks at 0.0"):
            rate_surfaces(SMALL_GRID, junction)


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

    def test_thread_count_does_not_change_bits(self, junction):
        grid = SpectralGrid(
            detunings=tuple(np.linspace(-3, 3, 7)),
            temperatures=(0.2, 0.5, 0.8),
            k_integration=KQuadrature(nodes=256),
        )
        seq = rate_surfaces(grid, junction, workers=1)[0]
        par = rate_surfaces(grid, junction, workers=4)[0]
        assert np.array_equal(seq.values, par.values)

    @pytest.mark.parametrize(
        "workers, cpus, expected",
        [(0, 2, [2]), (0, 8, [3]), (0, 1, []), (0, None, []), (4, 2, [4]), (1, 8, [])],
    )
    def test_auto_workers_are_capped_by_cores_and_temperatures(
        self, junction, monkeypatch, workers, cpus, expected
    ):
        requested = []

        class Spy(spectral.ThreadPoolExecutor):
            def __init__(self, max_workers=None):
                requested.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(spectral, "ThreadPoolExecutor", Spy)
        monkeypatch.setattr(spectral.os, "cpu_count", lambda: cpus)
        grid = SpectralGrid(
            detunings=(-1.0, 0.0, 1.0),
            temperatures=(0.2, 0.5, 0.8),
            k_integration=KQuadrature(nodes=64),
        )
        rate_surfaces(grid, junction, workers=workers)
        assert requested == expected

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
        assert s_cp(2.0, 0.3, scaled, fast_quad) == s_cp(2.0, 0.3, junction, fast_quad)

    def test_pair_peak_tracks_sum_of_band_gaps(self):
        jp = gaas_nb_junction(gap_scale_valence=0.5)
        quad = KQuadrature(nodes=2048)
        ds = np.linspace(0.5, 3.0, 126)
        vals = [s_cp(d, 0.1, jp, quad) for d in ds]
        peak = ds[int(np.argmax(vals))]
        assert peak == pytest.approx(1.5, abs=0.06)


class TestBroadening:
    @staticmethod
    def _fwhm(jp, quad):
        ds = np.linspace(0.5, 3.5, 301)
        vals = np.array([s_cp(d, 0.1, jp, quad) for d in ds])
        half = vals.max() / 2.0
        above = ds[vals >= half]
        return above[-1] - above[0]

    def test_longer_dephasing_sharpens_peak(self):
        quad = KQuadrature(nodes=2048)
        width_base = self._fwhm(gaas_nb_junction(dephasing_time=1000.0), quad)
        width_sharp = self._fwhm(gaas_nb_junction(dephasing_time=2000.0), quad)
        assert width_sharp < width_base


class TestMixingRates:
    def test_enhancement_scales_only_coherent_channel(self, junction, fast_quad):
        r_cp_1, r_bqp_1 = mixing_rates(5.0, 0.5, junction, CoherenceParams(50.0), fast_quad)
        r_cp_2, r_bqp_2 = mixing_rates(5.0, 0.5, junction, CoherenceParams(100.0), fast_quad)
        assert r_cp_2 == 2.0 * r_cp_1
        assert r_bqp_2 == r_bqp_1

    def test_coherent_share_monotone_in_enhancement(self, junction, fast_quad):
        shares = []
        for enh in (1.0, 10.0, 100.0, 1000.0):
            r_cp, r_bqp = mixing_rates(5.0, 0.5, junction, CoherenceParams(enh), fast_quad)
            shares.append(r_cp / (r_cp + r_bqp))
        assert all(a < b for a, b in zip(shares, shares[1:]))

    def test_both_rates_positive(self, junction, fast_quad):
        r_cp, r_bqp = mixing_rates(5.0, 0.3, junction, CoherenceParams(100.0), fast_quad)
        assert r_cp > 0 and r_bqp > 0


class TestBandTableLayout:
    """Band-table arrays start on pages, and evaluating a detuning allocates no
    array of node length."""

    @pytest.mark.parametrize("nodes", [64, 257, 4096])
    def test_every_array_starts_on_a_page(self, junction, nodes):
        tables = _BandTables(0.5, junction, KQuadrature(nodes=nodes), nodes)
        arrays = [
            tables.e_n, tables.e_p, tables.half_dx, tables.uv, *tables.pair_weights, *tables.qp_weights
        ]
        assert all(a.ctypes.data % 4096 == 0 and a.shape == (nodes,) for a in arrays)

    def test_a_detuning_allocates_no_node_array(self, junction):
        nodes = 4096
        tables = _BandTables(0.5, junction, KQuadrature(nodes=nodes), nodes)
        tables.rates(1.0, junction.sc.delta0)
        tracemalloc.start()
        try:
            tables.rates(1.5, junction.sc.delta0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < nodes * 8  # below one float64 array of node length
