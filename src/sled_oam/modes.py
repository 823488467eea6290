"""Laguerre-Gaussian radial profiles and annulus overlap integrals.

The emitting region is an annulus between the two superconducting contacts.
Each detected photon mode is a Laguerre-Gaussian beam; the geometry enters
the pair density matrix only through radial overlaps of pairs of mode
profiles integrated over the annulus.

A mode is labelled by its OAM number l alone: the emitted modes have no
radial nodes, so the Laguerre polynomial of the profile is 1.  Profiles are
normalized so that the full-plane overlap of a mode with itself is exactly 1
(the azimuthal 2*pi is factored out throughout).  A profile, and so every
overlap, depends on l only through |l|, bit for bit.  ``AnnulusGeometry``,
``lg_radial`` and ``kappa`` reject every input outside this domain as
``DomainError``, an l that is not a whole number included.

``kappa`` keeps no cache: each call integrates afresh, and a caller that
needs many overlaps (``pair_state``) passes all its |l| pairs in one call.
They are integrated together, in one adaptive Simpson sweep whose intervals
each take the recursive rule's operations in their order, so each overlap,
and each error, is the one the recursion gives for its pair alone.

The quadrature's profiles come from ``_profile``, which gives each value as
the float that plain float arithmetic gives for ``lg_radial``'s formula.
The power goes through Python's ``**`` (the C library's ``pow``), since
numpy's array power may round differently; the rest is numpy array
arithmetic, whose exponential equals its scalar one.  ``lg_radial`` has the
one numpy formula: at a scalar radius its power is numpy's scalar power,
which is the same ``pow``, so it gives ``_profile``'s float there too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, DomainError, require_positive, require_whole

MAX_OAM = 12
KAPPA_REL_TOL = 1e-10
# open intervals refined per sweep step: an l_max = 6 table on the default
# annulus refines at most 534 at once, wider annuli and larger tables more
SWEEP_BATCH = 1024
# sqrt(1/|l|!) of the profile normalization, by |l|
_ROOT_INV_FACTORIALS = np.array([math.sqrt(1 / math.factorial(l)) for l in range(MAX_OAM + 1)])
# the rows of a sweep's frontier, which has one column per open interval
_WHICH, _X0, _X2, _F0, _F1, _F2, _WHOLE, _TOL, _DEPTH, _NODE = range(10)


@dataclass(frozen=True)
class AnnulusGeometry:
    """Emitting annulus radii and beam waist, all in um.

    ``r_inner == r_outer`` is allowed and describes an empty emitting region
    (all overlaps vanish); ``r_outer = inf`` is the full plane past
    ``r_inner``, which must be finite, and the waist is positive and finite.
    """

    r_inner: float
    r_outer: float
    waist: float

    def __post_init__(self):
        if not 0 <= self.r_inner <= self.r_outer:  # NaN fails; r_outer = inf is the full plane
            raise DomainError(
                f"need 0 <= r_inner <= r_outer, got [{self.r_inner}, {self.r_outer}]"
            )
        if self.r_inner == math.inf:
            raise DomainError(f"r_inner must be finite, got {self.r_inner}")
        require_positive("waist", self.waist)

    @classmethod
    def default(cls) -> "AnnulusGeometry":
        # waist such that the l=1 intensity peak (r = w/sqrt(2)) sits mid-annulus
        return cls(r_inner=4.0, r_outer=5.0, waist=9.0 / math.sqrt(2.0))


def lg_radial(l: int, waist: float, r):
    """Normalized Laguerre-Gaussian radial amplitude of OAM l, units 1/um.

    u(r) = (2/w) sqrt(1/|l|!) (sqrt(2) r/w)^|l| exp(-r^2/w^2),
    which satisfies the radial normalization  integral |u|^2 r dr = 1 on [0, inf).
    An array radius gives an array; a scalar one gives a float, which is
    ``_profile``'s float, since numpy's scalar power is the C library's ``pow``.
    Where exp(-r^2/w^2) underflows to 0 the profile is 0.0, also where the
    power overflows (at |l| <= 12 it is finite wherever the exponential is
    not).  l must be a whole number of at most ``MAX_OAM`` in modulus, the
    waist positive and finite and each radius non-negative (NaN fails both),
    else ``DomainError``.
    """
    la = abs(require_whole("OAM", l))
    if la > MAX_OAM:
        raise DomainError(f"OAM {l} outside supported range |l| <= {MAX_OAM}")
    require_positive("waist", waist)
    r = np.asarray(r, dtype=float)
    if not np.all(r >= 0):
        raise DomainError("radius must be non-negative")
    norm = (2.0 / waist) * _ROOT_INV_FACTORIALS[la]
    with np.errstate(over="ignore", invalid="ignore"):  # inf * 0 is NaN, replaced below
        x = 2.0 * r * r / (waist * waist)
        gauss = np.exp(-x / 2.0)
        val = np.where(gauss == 0.0, 0.0, norm * (math.sqrt(2.0) * r / waist) ** la * gauss)
    return val if val.ndim else float(val)


def _profile(abs_l, waist: float, r: np.ndarray) -> np.ndarray:
    """Profiles of the magnitudes ``abs_l`` at the radii ``r``, broadcast together.

    Each value is the float that plain float arithmetic gives for
    ``lg_radial``'s formula: the power takes Python's ``**`` per element and
    the rest numpy arrays, under an ``errstate`` that lets overflow and NaN
    pass silently, as float arithmetic does.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        x = 2.0 * r * r / (waist * waist)
        abs_l, base = np.broadcast_arrays(abs_l, math.sqrt(2.0) * r / waist)
        power = map(pow, base.ravel().tolist(), abs_l.ravel().tolist())
        norm = (2.0 / waist) * _ROOT_INV_FACTORIALS[abs_l]
        return (norm * np.fromiter(power, float, base.size).reshape(base.shape)) * np.exp(-x / 2.0)


def _envelope_radius(abs_la: int, abs_lb: int, waist: float) -> float:
    """Radius beyond which the profile product is negligible (< ~1e-16 of peak).

    The Gaussian envelope alone dies at r = w sqrt(38); the power r^|l| of
    high-order modes pushes the support out, so the cut grows with the total
    polynomial degree.
    """
    degree = (abs_la + abs_lb) / 2.0
    return waist * math.sqrt(38.0 + 2.0 * degree)


def _simpson(x0, x2, f0, f1, f2):
    return (x2 - x0) / 6.0 * (f0 + 4.0 * f1 + f2)


def _cut(front: np.ndarray) -> np.ndarray:
    """``front`` up to its first interval that holds a non-finite sample.

    Such an interval's error estimate is not finite, and neither is that of
    any descendant through the sample, so unless the tolerance is infinite
    the rule stalls inside it before it reaches anything to its right.
    """
    bad = ~np.isfinite(front[_F0 : _F2 + 1]).all(axis=0) & (front[_TOL] != np.inf)
    return front[:, : bad.argmax() + 1] if bad.any() else front


def _adaptive_simpson(f, lo: float, hi: np.ndarray, abs_tol: np.ndarray, max_depth: int = 32):
    """Adaptive Simpson rule with Richardson correction for integrand i on [lo, hi[i]].

    ``f(which, r)`` gives integrand ``which[j]`` at radius ``r[j]``.  Needs
    ``not hi <= lo``.  The open intervals of all integrands form one
    frontier in depth-first order (by integrand, then by radius), and each
    step refines the leftmost ``SWEEP_BATCH`` of them with one call of ``f``
    at all their new radii.  Each interval is settled as the recursive rule
    settles it: an error estimate within tolerance closes it with the
    corrected sum, a failed one splits it in place with half the tolerance,
    and at the depth limit (also where the estimate or the tolerance is
    NaN) it stalls.  Each integral is the sum over its tree, reduced as the
    recursion adds, and the error raised is the recursion's: the first
    interval that must stall cuts the frontier (``_cut``), and when it
    stalls no interval before it is open.
    """
    n = len(hi)
    which = np.arange(n)
    with np.errstate(over="ignore", invalid="ignore"):  # as float arithmetic
        ends = np.full(n, lo)
        mid = 0.5 * (lo + hi)
        f0, f1, f2 = f(np.tile(which, 3), np.concatenate([ends, mid, hi])).reshape(3, n)
        whole = _simpson(ends, hi, f0, f1, f2)
        front = _cut(np.stack([which, ends, hi, f0, f1, f2, whole, abs_tol, np.zeros(n), which]))
        # the tree of intervals, by node number: the closed leaves with their
        # values, and each split node with its depth and the first of its two
        # consecutive children
        nodes, leaves, leaf_values, parents, children, depths = n, [], [], [], [], []
        while front.shape[1]:
            batch, rest = front[:, :SWEEP_BATCH], front[:, SWEEP_BATCH:]
            which, x0, x2, f0, f1, f2, whole, tol, depth, node = batch
            xm = 0.5 * (x0 + x2)
            xl = 0.5 * (x0 + xm)
            xr = 0.5 * (xm + x2)
            fl, fr = f(np.tile(which.astype(int), 2), np.concatenate([xl, xr])).reshape(2, -1)
            left = _simpson(x0, xm, f0, fl, f1)
            right = _simpson(xm, x2, f1, fr, f2)
            err = (left + right - whole) / 15.0
            refined = left + right + err
            done = abs(err) <= tol
            split = ~done & (depth < max_depth)
            stalled = ~(done | split)
            if stalled.any():
                # Nothing open precedes the first stall: each interval before
                # it was refined whenever an ancestor of the stall was, so it
                # too is at the depth limit, and has closed or stalled first.
                j = stalled.argmax()
                raise ConvergenceError(
                    f"adaptive quadrature stalled on [{float(x0[j])}, {float(x2[j])}]",
                    coarse=float(whole[j]),
                    refined=float(refined[j]),
                )
            leaves.append(node[done])
            leaf_values.append(refined[done])
            halves, deeper = tol / 2.0, depth + 1
            kids = np.stack(
                [
                    [which, x0, xm, f0, fl, f1, left, halves, deeper, node],
                    [which, xm, x2, f1, fr, f2, right, halves, deeper, node],
                ],
                axis=-1,
            )[:, split].reshape(10, -1)
            kids[_NODE] = nodes + np.arange(kids.shape[1])
            nodes += kids.shape[1]
            parents.append(node[split])
            children.append(kids[_NODE, ::2])
            depths.append(depth[split])
            front = _cut(np.concatenate([kids, rest], axis=1))
    value = np.empty(nodes)
    value[np.concatenate(leaves).astype(int)] = np.concatenate(leaf_values)
    parents, children = (np.concatenate(a).astype(int) for a in (parents, children))
    depths = np.concatenate(depths)
    for d in range(int(depths.max(initial=-1)), -1, -1):  # bottom-up, one level at a time
        at = depths == d
        value[parents[at]] = value[children[at]] + value[children[at] + 1]
    return value[:n]


def kappa(l_a, l_b, geom: AnnulusGeometry):
    """Radial overlap of the profiles of OAM l_a and l_b over the annulus.

    Two whole numbers give a float.  Two equal-length arrays of them give the
    array of their pairs' overlaps, integrated in one sweep, each the float a
    call on its pair alone gives; the first pair in order that fails raises.
    Symmetric in the two modes bit for bit, since the integrand's product
    commutes; equals 1 on the diagonal when the annulus covers the full plane.
    """
    pairs = [
        (abs(require_whole("OAM", a)), abs(require_whole("OAM", b)))
        for a, b in zip(np.ravel(l_a).tolist(), np.ravel(l_b).tolist(), strict=True)
    ]
    for la, lb in pairs:  # checked first, as an empty annulus samples no profile
        if max(la, lb) > MAX_OAM:
            raise DomainError(f"OAM {max(la, lb)} outside supported range |l| <= {MAX_OAM}")
    lo, waist = geom.r_inner, geom.waist
    # the envelope's margin, measured from r_inner: the Gaussian falls by the
    # same factor over r^2 - r_inner^2 = envelope^2, so an annulus that lies
    # wholly past the envelope radius keeps its (tiny) overlap
    hi = np.array(
        [min(geom.r_outer, math.hypot(lo, _envelope_radius(la, lb, waist))) for la, lb in pairs]
    )
    values = np.zeros(len(pairs))
    live = ~(hi <= lo)  # a NaN upper limit integrates
    if live.any():
        la, lb = np.array(pairs)[live].T
        hi = hi[live]
        # scale each absolute tolerance by the L1 mass of its integrand on 513
        # points, with no floor, so that an overlap however small is resolved
        # to KAPPA_REL_TOL; one grid and one profile per |l| for each upper limit
        grids, profiles, samples, products = {}, {}, [], []
        for h, a, b in zip(hi.tolist(), la.tolist(), lb.tolist()):
            if h not in grids:
                grids[h] = np.linspace(lo, h, 513)
            for l in (a, b):
                if (h, l) not in profiles:
                    profiles[h, l] = lg_radial(l, waist, grids[h])
            samples.append(grids[h])
            products.append(profiles[h, a] * profiles[h, b])
        samples = np.stack(samples)
        l1 = np.trapezoid(np.abs(np.stack(products)) * samples, samples, axis=-1)

        def integrand(which, r):
            pa, pb = _profile(np.stack([la[which], lb[which]]), waist, r)
            return pa * pb * r

        values[live] = _adaptive_simpson(integrand, lo, hi, KAPPA_REL_TOL * l1)
    return values if np.ndim(l_a) else float(values[0])
