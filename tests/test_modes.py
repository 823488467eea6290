import numpy as np
import pytest
import scipy.integrate
import scipy.special

from sled_oam import AnnulusGeometry, DomainError, ModeIndex, kappa, lg_radial
from sled_oam.errors import ConvergenceError
from sled_oam.modes import _adaptive_simpson, generalized_laguerre

FULL_PLANE = AnnulusGeometry(r_inner=0.0, r_outer=1e3, waist=2.0)


def riemann_kappa(a, b, geom, nodes=1_000_000):
    """Midpoint-rule overlap on the annulus; the independent oracle."""
    edges = np.linspace(geom.r_inner, geom.r_outer, nodes + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (geom.r_outer - geom.r_inner) / nodes
    vals = lg_radial(a, geom.waist, mids) * lg_radial(b, geom.waist, mids) * mids
    return float(np.sum(vals) * h)


class TestLaguerre:
    def test_against_scipy(self):
        x = np.linspace(0.0, 80.0, 161)
        for m in range(0, 9):
            for alpha in range(0, 13):
                ours = generalized_laguerre(m, alpha, x)
                ref = scipy.special.eval_genlaguerre(m, alpha, x)
                scale = np.max(np.abs(ref))
                assert np.max(np.abs(ours - ref)) <= 1e-9 * scale


class TestLgRadial:
    def test_vortex_core_vanishes(self):
        for l in (1, -2, 3):
            assert lg_radial(ModeIndex(0, l), 2.0, 0.0) == 0.0

    def test_gaussian_peaks_at_axis(self):
        r = np.linspace(0.0, 10.0, 500)
        intensity = lg_radial(ModeIndex(0, 0), 2.0, r) ** 2
        assert np.argmax(intensity) == 0

    def test_normalization(self):
        # adaptive Gauss-Kronrod quadrature is the independent check here
        w = 2.0
        for mode in (ModeIndex(0, 0), ModeIndex(0, 2), ModeIndex(2, 1), ModeIndex(1, 3)):
            integral, _ = scipy.integrate.quad(
                lambda r: lg_radial(mode, w, r) ** 2 * r, 0.0, 12.0 * w, limit=200
            )
            assert integral == pytest.approx(1.0, abs=1e-10)

    def test_mode_bounds(self):
        with pytest.raises(DomainError):
            ModeIndex(-1, 0)
        with pytest.raises(DomainError):
            ModeIndex(9, 0)
        with pytest.raises(DomainError):
            ModeIndex(0, 13)

    def test_negative_radius_rejected(self):
        with pytest.raises(DomainError):
            lg_radial(ModeIndex(0, 0), 2.0, -1.0)


class TestKappa:
    def test_full_plane_diagonal_is_one(self):
        modes = (ModeIndex(0, 0), ModeIndex(0, 1), ModeIndex(0, 3), ModeIndex(1, 1), ModeIndex(2, 2))
        for mode in modes:
            assert kappa(mode, mode, FULL_PLANE) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_exactly(self, rng):
        geom = AnnulusGeometry(3.0, 5.5, 4.0)
        for _ in range(10):
            a = ModeIndex(int(rng.integers(0, 3)), int(rng.integers(-5, 6)))
            b = ModeIndex(int(rng.integers(0, 3)), int(rng.integers(-5, 6)))
            assert kappa(a, b, geom) == kappa(b, a, geom)

    def test_diagonal_dominance_full_plane(self):
        modes = [ModeIndex(0, l) for l in range(-5, 6)]
        for a in modes:
            for b in modes:
                assert abs(kappa(a, b, FULL_PLANE)) <= 1.0 + 1e-10

    def test_scale_covariance(self):
        base = AnnulusGeometry(4.0, 5.0, 6.4)
        scaled = AnnulusGeometry(4.0 * 3.7, 5.0 * 3.7, 6.4 * 3.7)
        for a, b in (
            (ModeIndex(0, 0), ModeIndex(0, 1)),
            (ModeIndex(0, 2), ModeIndex(1, -1)),
            (ModeIndex(2, 3), ModeIndex(0, -3)),
        ):
            assert kappa(a, b, base) == pytest.approx(kappa(a, b, scaled), abs=1e-10)

    def test_reference_annulus_against_brute_force(self):
        geom = AnnulusGeometry(4.0, 5.0, 4.0)
        a, b = ModeIndex(0, 0), ModeIndex(0, 1)
        ours = kappa(a, b, geom)
        ref = riemann_kappa(a, b, geom)
        assert ours == pytest.approx(ref, rel=1e-8)

    def test_random_pairs_against_brute_force(self, rng):
        for _ in range(20):
            r_in = float(rng.uniform(0.0, 6.0))
            geom = AnnulusGeometry(
                r_inner=r_in,
                r_outer=r_in + float(rng.uniform(0.5, 4.0)),
                waist=float(rng.uniform(1.0, 5.0)),
            )
            a = ModeIndex(int(rng.integers(0, 4)), int(rng.integers(-5, 6)))
            b = ModeIndex(int(rng.integers(0, 4)), int(rng.integers(-5, 6)))
            ours = kappa(a, b, geom)
            ref = riemann_kappa(a, b, geom)
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-12)

    def test_empty_annulus_is_zero(self):
        for geom in (AnnulusGeometry(4.0, 4.0, 2.0), AnnulusGeometry(2.0, 2.0, 1.0)):
            assert kappa(ModeIndex(0, 0), ModeIndex(0, 1), geom) == 0.0

    def test_unreachable_tolerance_raises(self):
        a, b = ModeIndex(0, 2), ModeIndex(1, 1)

        def integrand(r):
            return lg_radial(a, 2.5, r) * lg_radial(b, 2.5, r) * r

        with pytest.raises(ConvergenceError):
            _adaptive_simpson(integrand, 1.0, 9.0, abs_tol=1e-30)


class TestGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            AnnulusGeometry(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            AnnulusGeometry(3.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            AnnulusGeometry(1.0, 2.0, 0.0)

    def test_default_waist_centers_first_vortex_ring(self):
        geom = AnnulusGeometry.default()
        r = np.linspace(3.0, 6.0, 30_001)
        intensity = lg_radial(ModeIndex(0, 1), geom.waist, r) ** 2
        peak = r[np.argmax(intensity)]
        assert peak == pytest.approx(0.5 * (geom.r_inner + geom.r_outer), abs=1e-3)
