"""Laguerre-Gaussian radial profiles and annulus overlap integrals.

The emitting region is an annulus between the two superconducting contacts.
Each detected photon mode is a Laguerre-Gaussian beam; the geometry enters
the pair density matrix only through radial overlaps of pairs of mode
profiles integrated over the annulus.

Profiles are normalized so that the full-plane overlap of a mode with itself
is exactly 1 (the azimuthal 2*pi is factored out throughout).  A profile,
and so every overlap, depends on l only through |l|, bit for bit.
``kappa`` keeps no cache: each call integrates afresh, and a caller that
needs many overlaps (``pair_state``) computes each distinct one once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError

MAX_RADIAL_NODES = 8
MAX_OAM = 12
KAPPA_REL_TOL = 1e-10


@dataclass(frozen=True, order=True)
class ModeIndex:
    """Laguerre-Gaussian mode label: m radial nodes, OAM quantum number l."""

    m: int
    l: int

    def __post_init__(self):
        if self.m < 0:
            raise DomainError(f"radial index m must be non-negative, got {self.m}")
        if self.m > MAX_RADIAL_NODES or abs(self.l) > MAX_OAM:
            raise DomainError(
                f"mode ({self.m}, {self.l}) outside supported range "
                f"m <= {MAX_RADIAL_NODES}, |l| <= {MAX_OAM}"
            )


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


def generalized_laguerre(n: int, alpha: float, x):
    """L_n^alpha(x) by upward three-term recurrence; x may be an array."""
    x = np.asarray(x, dtype=float)
    prev = np.ones_like(x)
    if n == 0:
        return prev
    cur = 1.0 + alpha - x
    for k in range(1, n):
        prev, cur = cur, ((2 * k + 1 + alpha - x) * cur - (k + alpha) * prev) / (k + 1)
    return cur


def lg_radial(mode: ModeIndex, waist: float, r):
    """Normalized Laguerre-Gaussian radial amplitude, units 1/um.

    u(r) = (2/w) sqrt(m!/(m+|l|)!) (sqrt(2) r/w)^|l| exp(-r^2/w^2) L_m^|l|(2 r^2/w^2),
    which satisfies the radial normalization  integral |u|^2 r dr = 1 on [0, inf).
    """
    if np.any(np.asarray(r) < 0):
        raise DomainError("radius must be non-negative")
    la = abs(mode.l)
    norm = (2.0 / waist) * math.sqrt(
        math.factorial(mode.m) / math.factorial(mode.m + la)
    )
    r = np.asarray(r, dtype=float)
    x = 2.0 * r * r / (waist * waist)
    val = norm * (math.sqrt(2.0) * r / waist) ** la * np.exp(-x / 2.0) * generalized_laguerre(
        mode.m, la, x
    )
    if val.ndim == 0:
        return float(val)
    return val


def _envelope_radius(a: ModeIndex, b: ModeIndex, waist: float) -> float:
    """Radius beyond which the profile product is negligible (< ~1e-16 of peak).

    The Gaussian envelope alone dies at r = w sqrt(38); the polynomial part of
    high-order modes pushes the support out, so the cut grows with the total
    polynomial degree.
    """
    degree = a.m + b.m + (abs(a.l) + abs(b.l)) / 2.0
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
        if abs(err) <= tol or depth >= max_depth:
            if depth >= max_depth and abs(err) > tol:
                raise ConvergenceError(
                    f"adaptive quadrature stalled on [{x0}, {x2}]",
                    coarse=whole,
                    refined=left + right + err,
                )
            return left + right + err
        return recurse(x0, xm, f0, fl, f1, left, tol / 2.0, depth + 1) + recurse(
            xm, x2, f1, fr, f2, right, tol / 2.0, depth + 1
        )

    if hi <= lo:
        return 0.0
    mid = 0.5 * (lo + hi)
    f_lo, f_mid, f_hi = f(lo), f(mid), f(hi)
    whole = simpson(lo, hi, f_lo, f_mid, f_hi)
    return recurse(lo, hi, f_lo, f_mid, f_hi, whole, abs_tol, 0)


def kappa(a: ModeIndex, b: ModeIndex, geom: AnnulusGeometry) -> float:
    """Radial overlap of two mode profiles over the annulus.

    Symmetric in the two modes bit for bit, since the integrand's product
    commutes; equals 1 on the diagonal when the annulus covers the full plane.
    """
    lo = geom.r_inner
    hi = min(geom.r_outer, _envelope_radius(a, b, geom.waist))
    if hi <= lo:
        return 0.0

    def integrand(r: float) -> float:
        return lg_radial(a, geom.waist, r) * lg_radial(b, geom.waist, r) * r

    # scale the absolute tolerance by the L1 mass of the integrand so that
    # near-cancelling oscillatory products still resolve correctly
    sample = np.linspace(lo, hi, 513)
    profiles = lg_radial(a, geom.waist, sample) * lg_radial(b, geom.waist, sample)
    l1 = float(np.trapezoid(np.abs(profiles) * sample, sample))
    return _adaptive_simpson(integrand, lo, hi, KAPPA_REL_TOL * max(l1, 1e-30))
