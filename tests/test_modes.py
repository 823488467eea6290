import math

import numpy as np
import pytest
import scipy.integrate
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import AnnulusGeometry, DomainError, ModeIndex, kappa, lg_radial
from sled_oam.errors import ConvergenceError
from sled_oam.modes import _adaptive_simpson, generalized_laguerre

FULL_PLANE = AnnulusGeometry(r_inner=0.0, r_outer=1e3, waist=2.0)


def reference_generalized_laguerre(n: int, alpha: float, x):
    """``generalized_laguerre`` as written before scalars took float arithmetic,
    kept verbatim as the bit-identity oracle."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def reference_lg_radial(mode: ModeIndex, waist: float, r):
    """``lg_radial`` as written before scalars took float arithmetic, verbatim."""
    if np.any(np.asarray(r) < 0):
        raise DomainError("radius must be non-negative")
    la = abs(mode.l)
    norm = (2.0 / waist) * math.sqrt(
        math.factorial(mode.m) / math.factorial(mode.m + la)
    )
    r = np.asarray(r, dtype=float)
    x = 2.0 * r * r / (waist * waist)
    val = norm * (math.sqrt(2.0) * r / waist) ** la * np.exp(-x / 2.0) * reference_generalized_laguerre(
        mode.m, la, x
    )
    if val.ndim == 0:
        return float(val)
    return val


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

    @pytest.mark.parametrize("r", [-1.0, -1, -5e-324, np.array([0.0, -1.0])])
    def test_negative_radius_rejected(self, r):
        with pytest.raises(DomainError):
            lg_radial(ModeIndex(0, 0), 2.0, r)


ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
any_mode = st.builds(ModeIndex, m=st.integers(0, 8), l=st.integers(-12, 12))
waists = st.floats(0.05, 100.0)
# up to 1e4 um: beyond r/w of about 1e25 the power overflows, where the numpy
# oracle warns and float ``**`` raises OverflowError
radii = st.one_of(st.just(0.0), st.integers(0, 1000), st.floats(0.0, 1e4))


def float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


class TestScalarProfileOracle:
    """A Python-number radius takes float arithmetic and gives the oracle's float."""

    @ORACLE_SETTINGS
    @given(mode=any_mode, waist=waists, r=radii)
    def test_scalar_profile_equals_the_numpy_oracle(self, mode, waist, r):
        value = lg_radial(mode, waist, r)
        assert type(value) is float
        assert float_bits(value) == float_bits(reference_lg_radial(mode, waist, r))

    @ORACLE_SETTINGS
    @given(mode=any_mode, waist=waists, r=st.lists(radii, min_size=1, max_size=8))
    def test_array_profile_equals_the_numpy_oracle(self, mode, waist, r):
        values = lg_radial(mode, waist, np.array(r, dtype=float))
        reference = reference_lg_radial(mode, waist, np.array(r, dtype=float))
        assert values.dtype == reference.dtype and values.tobytes() == reference.tobytes()

    @ORACLE_SETTINGS
    @given(n=st.integers(0, 8), alpha=st.integers(0, 12), x=radii)
    def test_scalar_laguerre_equals_the_numpy_oracle(self, n, alpha, x):
        value = generalized_laguerre(n, alpha, x)
        assert type(value) is float
        assert float_bits(value) == float_bits(reference_generalized_laguerre(n, alpha, x))

    def test_numpy_scalar_radius_gives_a_float(self):
        mode = ModeIndex(1, -3)
        for r in (np.float64(1.25), np.float32(1.25), np.asarray(1.25)):
            value = lg_radial(mode, 2.0, r)
            assert type(value) is float
            assert value == reference_lg_radial(mode, 2.0, r)

    def test_laguerre_array_keeps_its_shape_at_order_zero(self):
        ones = generalized_laguerre(0, 2, np.zeros((2, 3)))
        assert ones.shape == (2, 3) and np.all(ones == 1.0)


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

    def test_nan_integrand_raises_at_the_depth_limit(self):
        # a NaN error estimate never meets the tolerance; the rule must stop at
        # its first leaf at the depth limit, not walk all 2^32 of them
        calls = []

        def integrand(r):
            calls.append(r)
            return math.nan

        with pytest.raises(ConvergenceError):
            _adaptive_simpson(integrand, 1.0, 9.0, abs_tol=1e-10)
        assert len(calls) < 100

    def test_overflowing_waist_raises(self):
        # w * w overflows, so the estimate, the tolerance and the integrand are NaN
        geom = AnnulusGeometry(4.0, 1e300, 7e299)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError):
            kappa(ModeIndex(0, 1), ModeIndex(0, 1), geom)


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
