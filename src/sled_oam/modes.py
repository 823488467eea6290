"""Laguerre-Gaussian radial profiles and annulus overlap integrals.

The emitting region is an annulus between the two superconducting contacts.
Each detected photon mode is a Laguerre-Gaussian beam; the geometry enters
the pair density matrix only through radial overlaps of pairs of mode
profiles integrated over the annulus.

A mode is labelled by its OAM number l alone: the emitted modes have no
radial nodes, so the Laguerre polynomial of the profile is 1.  Profiles are
normalized so that the full-plane overlap of a mode with itself is exactly 1
(the azimuthal 2*pi is factored out throughout).  A profile, and so every
overlap, depends on l only through |l|, bit for bit.
``kappa`` keeps no cache of overlaps: each call integrates afresh, and a
caller that needs many overlaps (``pair_state``) computes each distinct one
once.  The profile values its integrand samples are shared, though, through
a bounded cache keyed by (|l|, waist, r), so the overlaps of one table
evaluate each profile once at every point their quadratures have in common.

The quadrature samples one radius at a time, so ``lg_radial`` evaluates a
Python-number radius in plain float arithmetic (only the exponential goes
through numpy), with the operations and operand order of its array path:
each value is the float that 0-d numpy arithmetic gives, without the 0-d
arrays, which cost several times the formula itself.  The cache still pays:
without it an l_max = 6 table would evaluate about five times as many
points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_OAM = 12
KAPPA_REL_TOL = 1e-10
# profile values kept for reuse across overlaps: an l_max = 6 table samples
# 1147 distinct points, an l_max = 12 one 4681 on the default annulus
PROFILE_CACHE_POINTS = 8192


@dataclass(frozen=True)
class AnnulusGeometry:
    """Emitting annulus radii and beam waist, all in um.

    ``r_inner == r_outer`` is allowed and describes an empty emitting region
    (all overlaps vanish).
    """

    r_inner: float
    r_outer: float
    waist: float

    def __post_init__(self):
        if self.r_inner < 0 or self.r_outer < self.r_inner:
            raise DomainError(
                f"need 0 <= r_inner <= r_outer, got [{self.r_inner}, {self.r_outer}]"
            )
        if not self.waist > 0:
            raise DomainError(f"waist must be positive, got {self.waist}")

    @classmethod
    def default(cls) -> "AnnulusGeometry":
        # waist such that the l=1 intensity peak (r = w/sqrt(2)) sits mid-annulus
        return cls(r_inner=4.0, r_outer=5.0, waist=9.0 / math.sqrt(2.0))


def lg_radial(l: int, waist: float, r):
    """Normalized Laguerre-Gaussian radial amplitude of OAM l, units 1/um.

    u(r) = (2/w) sqrt(1/|l|!) (sqrt(2) r/w)^|l| exp(-r^2/w^2),
    which satisfies the radial normalization  integral |u|^2 r dr = 1 on [0, inf).
    A Python-number radius gives a float, computed in plain float arithmetic
    with ``np.exp`` the one numpy call; arrays take the same formula in numpy.
    """
    la = abs(l)
    if la > MAX_OAM:
        raise DomainError(f"OAM {l} outside supported range |l| <= {MAX_OAM}")
    if isinstance(r, (int, float)):  # numpy's float64 is a float
        r = float(r)
        negative = r < 0
    else:
        r = np.asarray(r, dtype=float)
        negative = np.any(r < 0)
    if negative:
        raise DomainError("radius must be non-negative")
    norm = (2.0 / waist) * math.sqrt(1 / math.factorial(la))
    x = 2.0 * r * r / (waist * waist)
    val = norm * (math.sqrt(2.0) * r / waist) ** la * np.exp(-x / 2.0)
    # a float radius (or a 0-d array) leaves a numpy float64 here
    return val if isinstance(val, np.ndarray) else float(val)


@lru_cache(maxsize=PROFILE_CACHE_POINTS)
def _profile_point(abs_l: int, waist: float, r: float) -> float:
    """``lg_radial`` at one radius, shared by every overlap that samples it."""
    return lg_radial(abs_l, waist, r)


def _envelope_radius(abs_la: int, abs_lb: int, waist: float) -> float:
    """Radius beyond which the profile product is negligible (< ~1e-16 of peak).

    The Gaussian envelope alone dies at r = w sqrt(38); the power r^|l| of
    high-order modes pushes the support out, so the cut grows with the total
    polynomial degree.
    """
    degree = (abs_la + abs_lb) / 2.0
    return waist * math.sqrt(38.0 + 2.0 * degree)


def _adaptive_simpson(f, lo: float, hi: float, abs_tol: float, max_depth: int = 32):
    """Recursive adaptive Simpson rule with Richardson correction."""

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


def kappa(l_a: int, l_b: int, geom: AnnulusGeometry) -> float:
    """Radial overlap of the profiles of OAM l_a and l_b over the annulus.

    Symmetric in the two modes bit for bit, since the integrand's product
    commutes; equals 1 on the diagonal when the annulus covers the full plane.
    The integrand reads its profile values through the shared
    ``_profile_point`` cache; a cached value is the very float ``lg_radial``
    returns, so the result does not depend on what the cache holds.
    """
    la, lb, waist = abs(l_a), abs(l_b), geom.waist
    if max(la, lb) > MAX_OAM:  # checked here, as an empty annulus samples no profile
        raise DomainError(f"OAM {max(la, lb)} outside supported range |l| <= {MAX_OAM}")
    lo = geom.r_inner
    # the envelope's margin, measured from r_inner: the Gaussian falls by the
    # same factor over r^2 - r_inner^2 = envelope^2, so an annulus that lies
    # wholly past the envelope radius keeps its (tiny) overlap
    hi = min(geom.r_outer, math.hypot(lo, _envelope_radius(la, lb, waist)))
    if hi <= lo:
        return 0.0

    def integrand(r: float) -> float:
        return _profile_point(la, waist, r) * _profile_point(lb, waist, r) * r

    # scale the absolute tolerance by the L1 mass of the integrand, with no
    # floor, so that an overlap however small is resolved to KAPPA_REL_TOL
    sample = np.linspace(lo, hi, 513)
    profiles = lg_radial(la, waist, sample) * lg_radial(lb, waist, sample)
    l1 = float(np.trapezoid(np.abs(profiles) * sample, sample))
    return _adaptive_simpson(integrand, lo, hi, KAPPA_REL_TOL * l1)
