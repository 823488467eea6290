import functools
import json
import math
import os
import re
from collections import namedtuple

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import AnnulusGeometry, DomainError, kappa, lg_radial
from sled_oam.errors import ConvergenceError
from sled_oam.modes import KAPPA_REL_TOL, MAX_OAM, _adaptive_simpson, _envelope_radius, _profile

FULL_PLANE = AnnulusGeometry(r_inner=0.0, r_outer=1e3, waist=2.0)
# integer inputs that are not whole numbers, each a DomainError at every entry point
NOT_WHOLE = [1.5, math.nan, math.inf, -math.inf]


def not_whole(name: str, value) -> str:
    """The ``match`` pattern of the ``DomainError`` for ``value`` given as ``name``."""
    return rf"^{name} must be a whole number, got {re.escape(str(value))}$"


# the label the oracle below reads: m radial nodes, OAM l
OracleMode = namedtuple("OracleMode", "m l")


def reference_generalized_laguerre(n: int, alpha: float, x):
    """The Laguerre polynomial as written before scalars took float
    arithmetic, kept verbatim as the bit-identity oracle."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def reference_lg_radial(mode: OracleMode, waist: float, r):
    """``lg_radial`` as written before scalars took float arithmetic and
    before modes lost their radial index, verbatim; ``lg_radial(l, w, r)``
    must equal it at m = 0."""
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


def float_bits(value: float) -> bytes:
    return np.float64(value).tobytes()


@functools.lru_cache(maxsize=8192)
def oracle_profile_point(abs_l: int, waist: float, r: float) -> float:
    return reference_lg_radial(OracleMode(0, abs_l), waist, r)


def oracle_adaptive_simpson(f, lo: float, hi: float, abs_tol: float, max_depth: int = 32):
    """The recursive rule that the batched sweep replaced, verbatim: the
    bit-identity and error oracle of ``_adaptive_simpson``."""

    def simpson(x0, x2, f0, f1, f2):
        return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)

    def recurse(x0, x2, f0, f1, f2, whole, tol, depth):
        xm = 0.5 * (x0 + x2)
        xl = 0.5 * (x0 + xm)
        xr = 0.5 * (xm + x2)
        fl = f(xl)
        fr = f(xr)
        left = simpson(x0, xm, f0, fl, f1)
        right = simpson(xm, x2, f1, fr, f2)
        err = (left + right - whole) / 15.0
        if abs(err) <= tol:
            return left + right + err
        if depth >= max_depth:  # also where err or tol is NaN, which no refinement settles
            raise ConvergenceError(
                f"adaptive quadrature stalled on [{x0}, {x2}]",
                coarse=whole,
                refined=left + right + err,
            )
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1
        )

    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = f(lo), f(mid), f(hi)
    whole = simpson(lo, hi, f_lo, f_mid, f_hi)
    return recurse(lo, hi, f_lo, f_mid, f_hi, whole, abs_tol, 0)


def oracle_kappa(l_a: int, l_b: int, geom: AnnulusGeometry) -> float:
    """``kappa`` of one pair as the recursion computed it, verbatim but for
    its profiles, which are the numpy oracle's (scalar ones through a cache,
    as the shared profile cache served them)."""
    la, lb, waist = abs(l_a), abs(l_b), geom.waist
    if max(la, lb) > MAX_OAM:  # checked here, as an empty annulus samples no profile
        raise DomainError(f"OAM {max(la, lb)} outside supported range |l| <= {MAX_OAM}")
    lo = geom.r_inner
    hi = min(geom.r_outer, math.hypot(lo, _envelope_radius(la, lb, waist)))
    if hi <= lo:
        return 0.0

    def integrand(r: float) -> float:
        return oracle_profile_point(la, waist, r) * oracle_profile_point(lb, waist, r) * r

    sample = np.linspace(lo, hi, 513)
    profiles = reference_lg_radial(OracleMode(0, la), waist, sample) * reference_lg_radial(
        OracleMode(0, lb), waist, sample
    )
    l1 = float(np.trapezoid(np.abs(profiles) * sample, sample))
    return oracle_adaptive_simpson(integrand, lo, hi, KAPPA_REL_TOL * l1)


def outcome(compute):
    """The floats ``compute()`` returns, or the type, message and estimates of
    the error it raises, as comparable bits."""
    try:
        return np.asarray(compute(), dtype=float).tobytes()
    except ConvergenceError as exc:
        return type(exc), str(exc), float_bits(exc.coarse), float_bits(exc.refined)


def riemann_kappa(a, b, geom, nodes=1_000_000):
    """Midpoint-rule overlap on the annulus; the independent oracle."""
    edges = np.linspace(geom.r_inner, geom.r_outer, nodes + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    h = (geom.r_outer - geom.r_inner) / nodes
    vals = lg_radial(a, geom.waist, mids) * lg_radial(b, geom.waist, mids) * mids
    return float(np.sum(vals) * h)


class TestLgRadial:
    def test_vortex_core_vanishes(self):
        for l in (1, -2, 3):
            assert lg_radial(l, 2.0, 0.0) == 0.0

    def test_gaussian_peaks_at_axis(self):
        r = np.linspace(0.0, 10.0, 500)
        intensity = lg_radial(0, 2.0, r) ** 2
        assert np.argmax(intensity) == 0

    def test_normalization(self):
        # adaptive Gauss-Kronrod quadrature is the independent check here
        w = 2.0
        for l in (0, 2, -5, 12):
            integral, _ = scipy.integrate.quad(
                lambda r: lg_radial(l, w, r) ** 2 * r, 0.0, 12.0 * w, limit=200
            )
            assert integral == pytest.approx(1.0, abs=1e-10)

    def test_mode_bounds(self):
        for l in (13, -13):
            with pytest.raises(DomainError, match=r"\|l\| <= 12"):
                lg_radial(l, 2.0, 1.0)
            # on a non-empty annulus and on an empty one, which samples no profile
            for geom in (FULL_PLANE, AnnulusGeometry(4.0, 4.0, 2.0)):
                with pytest.raises(DomainError, match=r"\|l\| <= 12"):
                    kappa(0, l, geom)
                with pytest.raises(DomainError, match=r"\|l\| <= 12"):
                    kappa(l, 0, geom)
        assert kappa(12, 0, AnnulusGeometry(4.0, 4.0, 2.0)) == 0.0

    @pytest.mark.parametrize(
        "l, waist, r", [(1, 2.0, math.inf), (2, 1.0, 1e200), (6, 1.0, 1e60), (-12, 1.0, 1e30)]
    )
    def test_the_profile_is_zero_where_the_gaussian_underflows(self, l, waist, r):
        # the power is inf there, and inf * 0 would be NaN (and warn, an error here)
        assert lg_radial(l, waist, r) == 0.0
        values = lg_radial(l, waist, np.array([1.0, r]))
        assert values[1] == 0.0 and values[0] == lg_radial(l, waist, np.array([1.0]))[0] > 0.0

    @pytest.mark.parametrize("r", [-1.0, -1, -5e-324, np.array([0.0, -1.0])])
    def test_negative_radius_rejected(self, r):
        with pytest.raises(DomainError):
            lg_radial(0, 2.0, r)


ORACLE_SETTINGS = settings(max_examples=300, deadline=None, derandomize=True, database=None)
any_l = st.integers(-12, 12)
waists = st.floats(0.05, 100.0)
# up to 1e4 um: beyond r/w of about 1e25 the power overflows, where the numpy
# oracle warns and float ``**`` raises OverflowError
radii = st.one_of(st.just(0.0), st.integers(0, 1000), st.floats(0.0, 1e4))


class TestScalarProfileOracle:
    """A profile equals the oracle's at m = 0 bit for bit: a Python-number
    radius takes float arithmetic and gives the oracle's float, an array the
    oracle's array."""

    @ORACLE_SETTINGS
    @given(l=any_l, waist=waists, r=radii)
    def test_scalar_profile_equals_the_numpy_oracle(self, l, waist, r):
        value = lg_radial(l, waist, r)
        assert type(value) is float
        assert float_bits(value) == float_bits(reference_lg_radial(OracleMode(0, l), waist, r))

    @ORACLE_SETTINGS
    @given(l=any_l, waist=waists, r=st.lists(radii, min_size=1, max_size=8))
    def test_array_profile_equals_the_numpy_oracle(self, l, waist, r):
        values = lg_radial(l, waist, np.array(r, dtype=float))
        reference = reference_lg_radial(OracleMode(0, l), waist, np.array(r, dtype=float))
        assert values.dtype == reference.dtype and values.tobytes() == reference.tobytes()

    def test_every_supported_l_equals_the_oracle(self):
        # numpy's array power may round differently from its scalar power, so
        # each path is held to the oracle on the same kind of radius
        r = np.linspace(0.0, 30.0, 61)
        for l in range(-12, 13):
            mode = OracleMode(0, l)
            assert lg_radial(l, 2.5, r).tobytes() == reference_lg_radial(mode, 2.5, r).tobytes()
            for point in r.tolist():
                value = reference_lg_radial(mode, 2.5, point)
                assert float_bits(lg_radial(l, 2.5, point)) == float_bits(value)

    def test_numpy_scalar_radius_gives_a_float(self):
        for r in (np.float64(1.25), np.float32(1.25), np.asarray(1.25)):
            value = lg_radial(-3, 2.0, r)
            assert type(value) is float
            assert value == reference_lg_radial(OracleMode(0, -3), 2.0, r)


class TestKappa:
    def test_full_plane_diagonal_is_one(self):
        for l in (0, 1, 3, -4, 12):
            assert kappa(l, l, FULL_PLANE) == pytest.approx(1.0, abs=1e-10)

    def test_symmetric_exactly(self, rng):
        geom = AnnulusGeometry(3.0, 5.5, 4.0)
        for _ in range(10):
            a, b = (int(l) for l in rng.integers(-5, 6, size=2))
            assert kappa(a, b, geom) == kappa(b, a, geom)

    def test_diagonal_dominance_full_plane(self):
        for a in range(-5, 6):
            for b in range(-5, 6):
                assert abs(kappa(a, b, FULL_PLANE)) <= 1.0 + 1e-10

    def test_scale_covariance(self):
        base = AnnulusGeometry(4.0, 5.0, 6.4)
        scaled = AnnulusGeometry(4.0 * 3.7, 5.0 * 3.7, 6.4 * 3.7)
        for a, b in ((0, 1), (2, -1), (3, -3)):
            assert kappa(a, b, base) == pytest.approx(kappa(a, b, scaled), abs=1e-10)

    def test_reference_annulus_against_brute_force(self):
        geom = AnnulusGeometry(4.0, 5.0, 4.0)
        a, b = 0, 1
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
            a, b = (int(l) for l in rng.integers(-5, 6, size=2))
            ours = kappa(a, b, geom)
            ref = riemann_kappa(a, b, geom)
            assert ours == pytest.approx(ref, rel=1e-8, abs=1e-12)

    # Exact overlaps on a 10 nm disc, where they are tiny: with x = 2 r^2 / w^2
    # and s = (|l_a| + |l_b|) / 2,
    #   kappa = [gamma(s + 1, x_out) - gamma(s + 1, x_in)] / sqrt(|l_a|! |l_b|!),
    # gamma the lower incomplete gamma function.  Frozen from mpmath 1.3 by
    #   mpmath.mp.dps = 40
    #   s = mpmath.mpf(abs(la) + abs(lb)) / 2
    #   x_in, x_out = (2 * mpmath.mpf(r) ** 2 / mpmath.mpf(w) ** 2 for r in (r_in, r_out))
    #   exact = mpmath.gammainc(s + 1, x_in, x_out) / mpmath.sqrt(
    #       mpmath.factorial(abs(la)) * mpmath.factorial(abs(lb)))
    #   print(mpmath.nstr(exact, 17))
    @pytest.mark.parametrize(
        "waist, la, lb, exact",
        [
            (10.0, 0, 0, 1.9999980000013334e-6),
            (10.0, 0, 1, 1.8856158204240433e-9),
            (10.0, 6, 6, 2.5396780952420466e-44),
            (10.0, -2, 12, 1.0338695068953424e-51),
            (10.0, 7, -7, 6.3491950617385559e-51),
            (10.0, 12, 12, 1.3155544279376613e-84),
            (1e4, 0, 0, 1.9999999999980001e-12),
            (1e4, 0, -1, 1.8856180831618641e-18),
            (1e4, 6, 6, 2.539682539678096e-86),
            (1e4, 2, 12, 1.0338713448853522e-99),
            (1e4, 7, 7, 6.3492063491950638e-99),
            (1e4, 12, -12, 1.3155568711099842e-162),
        ],
    )
    def test_tiny_overlaps_against_the_incomplete_gamma_function(self, waist, la, lb, exact):
        # the adaptive rule's tolerance scales with the overlap, with no floor
        value = kappa(la, lb, AnnulusGeometry(0.0, 0.01, waist))
        assert value == pytest.approx(exact, rel=1e-9, abs=0.0)

    # Exact overlaps on five annuli, |l| up to 12: the default ring, a disc
    # wider than every envelope, a waist narrower than the ring, a 10 nm ring
    # and a ring wholly past the envelope radius (overlaps of 1e-87 to 1e-68).
    # Frozen by the snippet above, with (r_in, r_out, w) the row's geometry.
    @pytest.mark.parametrize(
        "geom, la, lb, exact",
        [
            (AnnulusGeometry.default(), 0, 0, 0.16282830965491913),
            (AnnulusGeometry.default(), 1, 2, 0.1151404911696517),
            (AnnulusGeometry.default(), -3, 5, 0.0065696148861751665),
            (AnnulusGeometry.default(), 6, 6, 0.00027819812485940296),
            (AnnulusGeometry.default(), 0, 12, 9.152046389293681e-6),
            (AnnulusGeometry.default(), -12, 12, 7.8902957986207875e-10),
            (AnnulusGeometry(0.0, 20.0, 3.0), 0, 0, 1.0),
            (AnnulusGeometry(0.0, 20.0, 3.0), 1, 2, 0.93998560298662519),
            (AnnulusGeometry(0.0, 20.0, 3.0), -3, 5, 0.89442719099991588),
            (AnnulusGeometry(0.0, 20.0, 3.0), 6, 6, 1.0),
            (AnnulusGeometry(0.0, 20.0, 3.0), 0, 12, 0.032897584747988449),
            (AnnulusGeometry(0.0, 20.0, 3.0), -12, 12, 1.0),
            (AnnulusGeometry(1.0, 2.5, 1.2), 0, 0, 0.24918235210073476),
            (AnnulusGeometry(1.0, 2.5, 1.2), 1, 2, 0.68650521341814161),
            (AnnulusGeometry(1.0, 2.5, 1.2), -3, 5, 0.82236769010526914),
            (AnnulusGeometry(1.0, 2.5, 1.2), 6, 6, 0.7619613773994773),
            (AnnulusGeometry(1.0, 2.5, 1.2), 0, 12, 0.025066688987693315),
            (AnnulusGeometry(1.0, 2.5, 1.2), -12, 12, 0.1022318782737674),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), 0, 0, 0.0017914412758165051),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), 1, 2, 0.00089301320311317107),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), -3, 5, 2.6282195680393106e-5),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), 6, 6, 6.1455883906896059e-7),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), 0, 12, 2.0217501490896526e-8),
            (AnnulusGeometry(4.0, 4.01, 9.0 / math.sqrt(2.0)), -12, 12, 2.2818383782144441e-13),
            (AnnulusGeometry(30.0, 40.0, 3.0), 0, 0, 1.3838965267367375e-87),
            (AnnulusGeometry(30.0, 40.0, 3.0), 1, 2, 2.7886032687150767e-84),
            (AnnulusGeometry(30.0, 40.0, 3.0), -3, 5, 8.4195043137362414e-80),
            (AnnulusGeometry(30.0, 40.0, 3.0), 6, 6, 1.2679754825669758e-76),
            (AnnulusGeometry(30.0, 40.0, 3.0), 0, 12, 4.1713330896118638e-78),
            (AnnulusGeometry(30.0, 40.0, 3.0), -12, 12, 1.2584992537722151e-68),
        ],
    )
    def test_overlaps_against_frozen_incomplete_gamma_values(self, geom, la, lb, exact):
        assert kappa(la, lb, geom) == pytest.approx(exact, rel=1e-9, abs=0.0)

    def test_empty_annulus_is_zero(self):
        for geom in (AnnulusGeometry(4.0, 4.0, 2.0), AnnulusGeometry(2.0, 2.0, 1.0)):
            assert kappa(0, 1, geom) == 0.0

    def test_unreachable_tolerance_raises(self):
        # the same stall as the recursion's, with its message and estimates
        def integrand(r):
            return lg_radial(2, 2.5, r) * lg_radial(1, 2.5, r) * r

        def batched(which, r):
            pa, pb = _profile(np.array([[2], [1]]), 2.5, r)
            return pa * pb * r

        expected = outcome(lambda: oracle_adaptive_simpson(integrand, 1.0, 9.0, abs_tol=1e-30))
        assert expected[0] is ConvergenceError
        batched_outcome = outcome(
            lambda: _adaptive_simpson(batched, 1.0, np.array([9.0]), np.array([1e-30]))
        )
        assert batched_outcome == expected

    def test_nan_integrand_raises_at_the_depth_limit(self):
        # a NaN error estimate never meets the tolerance; the rule must stop at
        # its first leaf at the depth limit, not walk all 2^32 of them
        calls = []

        def integrand(which, r):
            calls.extend(r.tolist())
            return np.full(len(r), math.nan)

        expected = outcome(lambda: oracle_adaptive_simpson(lambda r: math.nan, 1.0, 9.0, 1e-10))
        assert expected[0] is ConvergenceError
        batched_outcome = outcome(
            lambda: _adaptive_simpson(integrand, 1.0, np.array([9.0]), np.array([1e-10]))
        )
        assert batched_outcome == expected
        assert len(calls) < 100

    def test_overflowing_waist_raises(self):
        # w * w overflows, so the estimate, the tolerance and the integrand are NaN
        geom = AnnulusGeometry(4.0, 1e300, 7e299)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ConvergenceError):
            kappa(1, 1, geom)


@st.composite
def annuli_and_pairs(draw):
    """A random annulus of one of five kinds, and a list of |l| pairs."""
    kind = draw(st.sampled_from(["thin", "wide", "past the envelope", "empty", "overflowing"]))
    waist = draw(st.floats(0.05, 20.0))
    if kind == "thin":
        r_inner = draw(st.floats(0.0, 8.0)) * waist
        r_outer = r_inner + draw(st.floats(1e-9, 0.05)) * waist
    elif kind == "wide":
        r_inner = draw(st.floats(0.0, 1.0)) * waist
        r_outer = r_inner + draw(st.floats(2.0, 12.0)) * waist
    elif kind == "past the envelope":
        r_inner = draw(st.floats(7.0, 15.0)) * waist
        r_outer = r_inner + draw(st.floats(0.1, 5.0)) * waist
    elif kind == "empty":
        r_inner = r_outer = draw(st.floats(0.0, 10.0)) * waist
    else:
        # w * w overflows, and so does r * r past about 1.34e154, where the
        # profiles turn NaN: the pairs whose quadrature reaches that far stall
        waist = draw(st.floats(1.4e154, 1e300))
        r_inner = draw(st.floats(0.0, 1e154))
        r_outer = r_inner + draw(st.floats(1e153, 1e300))
    pairs = draw(st.lists(st.tuples(any_l, any_l), min_size=1, max_size=6))
    return AnnulusGeometry(r_inner, r_outer, waist), pairs


class TestFrozenReferences:
    """``kappa`` of every |l| <= 12 pair against closed-form values from mpmath.

    tests/reference/kappa_reference.json holds them at 40 digits; its generator,
    make_kappa_reference.py, sits next to it.  The bound on each annulus is the
    largest relative error measured, rounded up about threefold: on the 0-20 um
    disc the adaptive rule's 1e-10 relative tolerance shows (1.3e-10 at
    |l| = 12, 12), elsewhere the error is near rounding.
    """

    BOUNDS = {
        "default": 1e-13,  # measured 3.6e-14
        "disc_0_20_w3": 4e-10,  # measured 1.3e-10
        "ring_1_2.5_w1.2": 1e-12,  # measured 3.2e-13
        "thin_4_4.01": 1e-14,  # measured 3.7e-15
    }

    @staticmethod
    def references():
        path = os.path.join(os.path.dirname(__file__), "reference", "kappa_reference.json")
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)

    def test_every_annulus_and_pair_is_covered(self):
        table = self.references()
        assert sorted(table) == sorted(self.BOUNDS)
        pairs = {f"{a},{b}" for a in range(MAX_OAM + 1) for b in range(a, MAX_OAM + 1)}
        assert all(set(entry["kappa"]) == pairs for entry in table.values())

    @pytest.mark.parametrize("name", sorted(BOUNDS))
    def test_batched_kappa_matches_the_references(self, name):
        entry = self.references()[name]
        geom = AnnulusGeometry(entry["r_inner"], entry["r_outer"], entry["waist"])
        if name == "default":
            assert geom == AnnulusGeometry.default()
        pairs = [tuple(map(int, key.split(","))) for key in entry["kappa"]]
        expected = np.array([float(value) for value in entry["kappa"].values()])
        la, lb = np.array(pairs).T
        for got in (kappa(la, lb, geom), kappa(lb, -la, geom)):
            assert np.max(np.abs(got - expected) / expected) < self.BOUNDS[name]


class TestBatchedOverlaps:
    """One ``kappa`` call on many pairs gives, pair by pair, the recursion's
    floats, or the error of the first pair in order that fails."""

    @settings(ORACLE_SETTINGS, max_examples=60)
    @given(case=annuli_and_pairs())
    @example(case=(AnnulusGeometry.default(), [(0, 0), (1, -2), (12, 12), (6, 0)]))
    @example(case=(AnnulusGeometry(4.0, 1e300, 7e299), [(1, 1), (0, 3)]))
    @example(case=(AnnulusGeometry(0.0, 20.0, 3.0), [(12, 12), (0, 0), (-5, 7)]))
    def test_a_batch_equals_the_recursion_pair_by_pair(self, case):
        geom, pairs = case
        l_a, l_b = np.array(pairs).T
        # profiles that overflow warn in numpy and pass silently in float arithmetic
        with np.errstate(over="ignore", invalid="ignore"):
            expected = outcome(lambda: [oracle_kappa(a, b, geom) for a, b in pairs])
            assert outcome(lambda: kappa(l_a, l_b, geom)) == expected
        if geom.waist < 1e154:
            assert type(expected) is bytes  # no sane annulus stalls

    def test_scalars_give_a_float_and_arrays_an_array(self):
        geom = AnnulusGeometry.default()
        assert type(kappa(1, 2, geom)) is float
        values = kappa(np.array([1, 0]), np.array([2, 0]), geom)
        assert values.shape == (2,) and values.tolist() == [kappa(1, 2, geom), kappa(0, 0, geom)]
        with pytest.raises(ValueError):
            kappa(np.array([1, 0]), np.array([2]), geom)

    @pytest.mark.parametrize(
        "first_fails", [False, True], ids=["second stalls", "first stalls later"]
    )
    def test_the_first_stall_in_order_is_raised_once_the_intervals_before_it_close(
        self, first_fails
    ):
        # integrand 1 is NaN from its first samples on, so it must stall while
        # integrand 0 still refines.  The sweep finishes integrand 0 first, as
        # the recursion did, and raises integrand 1's stall after it; unless
        # integrand 0 meets a NaN deeper down (at r = 1, sampled by its second
        # refinement), whose stall the recursion reached first
        def scalar(which):
            def integrand(r):
                sampled[which].append(r)
                if which == 1 or (first_fails and r == 1.0):
                    return math.nan
                return float(np.exp(-r) * r)

            return integrand

        def batched(which, r):
            for i, x in zip(which.tolist(), r.tolist()):
                sampled[i].append(x)
            values = np.exp(-r) * r
            values[(which == 1) | (first_fails & (r == 1.0))] = math.nan
            return values

        sampled = [[], []]
        expected = outcome(
            lambda: [oracle_adaptive_simpson(scalar(i), 0.0, 8.0, 1e-13) for i in (0, 1)]
        )
        recursion = sampled
        sampled = [[], []]
        assert outcome(
            lambda: _adaptive_simpson(batched, 0.0, np.array([8.0, 8.0]), np.array([1e-13, 1e-13]))
        ) == expected
        assert expected[0] is ConvergenceError
        if not first_fails:
            assert sorted(sampled[0]) == sorted(recursion[0])  # integrand 0 was finished
            assert len(recursion[0]) > 50 and len(sampled[1]) < 100


class TestGeometry:
    def test_validation(self):
        with pytest.raises(DomainError):
            AnnulusGeometry(-1.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            AnnulusGeometry(3.0, 2.0, 1.0)
        with pytest.raises(DomainError):
            AnnulusGeometry(1.0, 2.0, 0.0)

    @pytest.mark.parametrize("radii", [(math.nan, 5.0), (4.0, math.nan), (math.nan, math.nan)])
    def test_a_nan_radius_is_rejected(self, radii):
        # a domain error at construction, not a stalled quadrature (a
        # ConvergenceError) once kappa integrates up to a NaN limit
        with pytest.raises(DomainError, match=r"need 0 <= r_inner <= r_outer, got \[.*nan"):
            AnnulusGeometry(*radii, 3.0)

    @pytest.mark.parametrize(
        "geometry, message",
        [
            ((4.0, 5.0, math.inf), r"^waist must be finite, got inf$"),
            ((math.inf, math.inf, 3.0), r"^r_inner must be finite, got inf$"),
        ],
        ids=["infinite waist", "infinite inner radius"],
    )
    def test_an_infinite_waist_or_inner_radius_is_rejected(self, geometry, message):
        # both used to construct, and kappa(1, 1) then read 0.0
        with pytest.raises(DomainError, match=message):
            AnnulusGeometry(*geometry)

    @pytest.mark.parametrize("waist", [0.0, -1.0, math.nan, math.inf])
    def test_lg_radial_rejects_a_waist_that_is_not_positive_and_finite(self, waist):
        # 0.0 used to raise ZeroDivisionError, -1.0 to give 1.040520190045778
        # here, NaN and inf to give NaN and 0.0
        with pytest.raises(DomainError, match=r"^waist must be"):
            lg_radial(1, waist, 1.0)

    @pytest.mark.parametrize("l", NOT_WHOLE)
    def test_lg_radial_rejects_an_l_that_is_not_whole(self, l):
        # 1.5 and NaN used to raise numpy's IndexError, inf the range error
        with pytest.raises(DomainError, match=not_whole("OAM", l)):
            lg_radial(l, 2.0, 1.0)

    @pytest.mark.parametrize(
        "l_a, l_b, bad",
        [
            (1.5, 2, 1.5),
            (2, math.nan, math.nan),
            (np.array([0, 1]), np.array([1, math.inf]), math.inf),
            (np.array([-math.inf]), np.array([0]), -math.inf),
        ],
        ids=["1.5", "nan", "inf in an array", "-inf in an array"],
    )
    def test_kappa_rejects_an_l_that_is_not_whole(self, l_a, l_b, bad):
        with pytest.raises(DomainError, match=not_whole("OAM", bad)):
            kappa(l_a, l_b, AnnulusGeometry.default())

    def test_whole_numbers_of_any_type_are_ints(self):
        geom = AnnulusGeometry.default()
        for l in (2.0, np.int64(2), np.float32(-2.0)):
            assert lg_radial(l, 2.0, 1.0) == lg_radial(2, 2.0, 1.0)
        floats = kappa(np.array([0.0, 1.0, 2.0]), np.array([2.0, -1.0, 0.0]), geom)
        assert floats.tobytes() == kappa(np.array([0, 1, 2]), np.array([2, -1, 0]), geom).tobytes()

    @pytest.mark.parametrize("r", [math.nan, np.array([1.0, math.nan])], ids=["scalar", "array"])
    def test_lg_radial_rejects_a_nan_radius(self, r):
        with pytest.raises(DomainError, match=r"^radius must be non-negative$"):
            lg_radial(1, 2.0, r)

    def test_an_infinite_outer_radius_is_the_full_plane_tail(self):
        # the l = 1 intensity past a carries exp(-2a^2/w^2) (1 + 2a^2/w^2) of the norm
        x = 2 * 4.0**2 / 3.0**2
        assert kappa(1, 1, AnnulusGeometry(4.0, math.inf, 3.0)) == pytest.approx(
            math.exp(-x) * (1 + x), rel=1e-8
        )

    def test_default_waist_centers_first_vortex_ring(self):
        geom = AnnulusGeometry.default()
        r = np.linspace(3.0, 6.0, 30_001)
        intensity = lg_radial(1, geom.waist, r) ** 2
        peak = r[np.argmax(intensity)]
        assert peak == pytest.approx(0.5 * (geom.r_inner + geom.r_outer), abs=1e-3)
