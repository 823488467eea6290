"""Two-photon spectral rates for the coherent (pair) and incoherent (quasiparticle) channels.

The photon pair is parametrized by a single detuning d (units of the
zero-temperature gap): one photon at offset +d from the emission center, the
other at -d.  The momentum sum over the quantum well is realized as a
constant-density-of-states integral over the electron kinetic energy, with
the valence-band dispersion tied to the conduction-band one through the mass
ratio (vertical transitions).

Channel construction
--------------------
Both channels share the same four resonance denominators
``d -+ E^n -+ E^p + i*Gamma`` arising from the intermediate states of the
second-order emission.  They differ in how the band propagators weight the
poles and in how the momentum sum is taken:

* coherent channel: every momentum state feeds the *same* final state (the
  condensate is unchanged), so amplitudes add before squaring.  Each band
  contributes its pair (anomalous) propagator, whose negative-frequency pole
  carries weight ``u v (1 - f)`` and whose positive-frequency pole carries
  ``-u v f``.
* incoherent channel: each recombination leaves a distinct quasiparticle
  configuration behind, so squared amplitudes add.  Each band contributes its
  normal propagator with pole weights ``v^2 (1 - f)`` and ``u^2 f``.

The relative scale of the two channels is set by the number of band states
within one quasiparticle coherence patch (``patch_area_um2`` times the 2D
density of states); the coherent amplitude is proportional to that state
count, the incoherent rate to its first power.

Both channels come from one evaluator, ``_channel_rates``: per reduced
temperature it builds the band tables once and returns the raw rates of both
channels for a tuple of detunings.  Each kernel is built as K(d) + K(-d), so
both rates are exactly even in d and each |d| is evaluated only once.  The
evaluator also holds the only doubled-node ``verify`` check.  ``s_cp``,
``s_bqp``, ``mixing_rates`` and the rate surfaces are thin callers of it.

Every factor of the kernels that does not depend on the detuning (the pair
weight, the four occupation products, the four quasiparticle numerators) is
built once per band table, so a detuning costs only the four denominators and
eight divisions per sign.  Those factors keep the operand order of the full
per-detuning expressions on purpose: the rates stay bit for bit what the
unhoisted kernels give, which ``tests/test_properties.py`` checks against a
verbatim copy of them.  The kernels and both trapezoid sums run in place in
work arrays of the band table, which like the factors start on pages, so no
detuning allocates and the kernel time does not depend on where the
process's earlier allocations left numpy's buffers.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import bcs
from .constants import dos_2d_per_mev_um2
from .errors import ConvergenceError, DomainError

CONVERGENCE_RTOL = 1e-3


@dataclass(frozen=True)
class KQuadrature:
    """Trapezoidal momentum-integral settings.

    ``nodes`` kinetic-energy samples on [0, mu^n + cutoff_delta0 * delta0];
    ``patch_area_um2`` is the coherence-patch area fixing the state count that
    calibrates the coherent/incoherent ratio.  With ``verify`` set, every rate
    is re-evaluated at doubled node count and a relative shift above 0.1%
    raises ConvergenceError.
    """

    nodes: int = 4096
    cutoff_delta0: float = 40.0
    patch_area_um2: float = 0.1
    verify: bool = False

    def __post_init__(self):
        if self.nodes < 64:
            raise DomainError(f"need at least 64 quadrature nodes, got {self.nodes}")
        if not self.cutoff_delta0 > 0:
            raise DomainError(f"cutoff must be positive, got {self.cutoff_delta0}")
        if not self.patch_area_um2 > 0:
            raise DomainError(f"patch area must be positive, got {self.patch_area_um2}")


@dataclass(frozen=True)
class SpectralGrid:
    """Detuning x reduced-temperature lattice for rate surfaces.

    Detunings are in units of delta0, strictly increasing and symmetric about
    zero; temperatures are T/Tc values strictly inside (0, 1).
    """

    detunings: tuple
    temperatures: tuple
    k_integration: KQuadrature = KQuadrature()

    def __post_init__(self):
        object.__setattr__(self, "detunings", tuple(float(d) for d in self.detunings))
        object.__setattr__(self, "temperatures", tuple(float(t) for t in self.temperatures))
        d = self.detunings
        if len(d) == 0 or len(self.temperatures) == 0:
            raise DomainError("grid must contain at least one detuning and one temperature")
        if any(d[i] >= d[i + 1] for i in range(len(d) - 1)):
            raise DomainError("detunings must be strictly increasing")
        scale = max(abs(d[0]), abs(d[-1]), 1.0)
        if any(abs(d[i] + d[len(d) - 1 - i]) > 1e-9 * scale for i in range(len(d))):
            raise DomainError("detuning grid must be symmetric about zero")
        if any(not 0.0 < t < 1.0 for t in self.temperatures):
            raise DomainError("reduced temperatures must lie strictly inside (0, 1)")


@dataclass(frozen=True)
class CoherenceParams:
    """Coherent-rate enhancement: emitting circumference over dephasing length."""

    enhancement: float

    def __post_init__(self):
        if not self.enhancement >= 1.0:
            raise DomainError(f"enhancement must be >= 1, got {self.enhancement}")


@dataclass(frozen=True)
class RateSurface:
    """Evaluated rate values on a grid, normalized to the coherent-channel maximum."""

    grid: SpectralGrid
    values: np.ndarray  # shape (n_temperatures, n_detunings)
    channel: str
    normalization: float


# Every band-table array starts on a page.  Numpy's own buffers are only
# 16-byte aligned, at addresses set by whatever the process allocated before,
# and the kernel time followed them: up to 25% from one process to the next
# on AVX-512 hardware, which loads whole cache lines.
_PAGE = 4096

# The four poles d -+ E^n -+ E^p + i Gamma (mm, mp, pm, pp): how each builds
# its denominator from the two band energies and how its pair term joins the
# running pair sum (the first term starts it).
_POLES = (
    (np.subtract, np.subtract, None),
    (np.subtract, np.add, np.subtract),
    (np.add, np.subtract, np.subtract),
    (np.add, np.add, np.add),
)


def _aligned_arrays(nodes: int, dtypes) -> list:
    """One uninitialized array of ``nodes`` elements per dtype, each starting on a page.

    Each array is its own allocation, so at 4096 nodes none reaches the
    128 KiB at which malloc maps memory instead of reusing its heap; freeing
    such a mapping would raise that threshold and keep later, larger
    allocations resident after they are freed.
    """
    arrays = []
    for dt in dtypes:
        size = nodes * np.dtype(dt).itemsize
        raw = np.empty(size + _PAGE, np.uint8)
        offset = -raw.ctypes.data % _PAGE
        arrays.append(raw[offset : offset + size].view(dt))
    return arrays


class _BandTables:
    """Per-temperature arrays shared by every detuning evaluation.

    Everything in the two kernels that does not depend on the detuning is
    built here once: the pair weight ``u_n v_n u_p v_p``, the four occupation
    products that weight the pair-propagator poles and the four
    quasiparticle numerators.  The coherence factors u^2, v^2 are built from
    the stored energies as ``bcs.coherence_factors`` builds them, so each band
    takes one ``hypot``, not two.  Each factor keeps the operand order of the
    original per-detuning expression and is stored as complex128, the exact
    cast numpy applies to it in every real/complex operation anyway.  The
    kernels and the trapezoid sums run in place in work arrays held here, one
    ufunc call per operation of the full expressions, in their order (the
    trapezoid's exact halving is folded into the stored step), so the rates
    are bit for bit those of evaluating the full expressions at every
    detuning with ``np.trapezoid``.  No call casts an array, so none needs a
    buffer of its own.  Every one of these arrays starts on a page (see
    ``_aligned_arrays``); a table is for one thread at a time.
    """

    def __init__(self, t: float, jp: bcs.JunctionParams, quad: KQuadrature, nodes: int):
        if not 0.0 < t < 1.0:
            raise DomainError(f"reduced temperature must lie in (0, 1), got {t}")
        mu_n = jp.conduction.quasi_fermi_level
        mu_p = jp.valence.quasi_fermi_level
        mass_ratio = jp.conduction.effective_mass / jp.valence.effective_mass
        delta = bcs.gap_at_temperature(jp.sc, t * jp.sc.tc)
        delta_n = delta * jp.conduction.gap_scale
        delta_p = delta * jp.valence.gap_scale
        t_kelvin = t * jp.sc.tc

        factors = _aligned_arrays(nodes, (np.float64,) * 3 + (np.complex128,) * 10)
        self.e_n, self.e_p, self.half_dx, self.uv, self._half_dx_complex = factors[:5]
        self.pair_weights = tuple(factors[5:9])
        self.qp_weights = tuple(factors[9:])

        eps = np.linspace(0.0, mu_n + quad.cutoff_delta0 * jp.sc.delta0, nodes)
        xi_n = eps - mu_n
        xi_p = mass_ratio * eps - mu_p
        self.e_n[:] = bcs.quasiparticle_energy(xi_n, delta_n)
        self.e_p[:] = bcs.quasiparticle_energy(xi_p, delta_p)
        # E = hypot(xi, delta) vanishes only where a vanished gap meets xi = 0
        for e, delta in ((self.e_n, delta_n), (self.e_p, delta_p)):
            if delta == 0.0 and not e.all():
                raise DomainError("coherence factors are singular at xi = delta = 0")
        f_n = bcs.fermi_occupation(self.e_n, t_kelvin)
        f_p = bcs.fermi_occupation(self.e_p, t_kelvin)
        fb_n = bcs.fermi_occupation_complement(self.e_n, t_kelvin)
        fb_p = bcs.fermi_occupation_complement(self.e_p, t_kelvin)
        # pair (anomalous) weight u v = delta / 2E per band
        self.uv[:] = (delta_n / (2.0 * self.e_n)) * (delta_p / (2.0 * self.e_p))
        # pole weights, one per denominator d -+ E^n -+ E^p (mm, mp, pm, pp)
        for slot, (a, b) in zip(
            self.pair_weights, ((fb_n, fb_p), (fb_n, f_p), (f_n, fb_p), (f_n, f_p))
        ):
            slot[:] = a * b
        # u^2, v^2 = (1 +- xi/E)/2 as bcs.coherence_factors gives them, from the
        # energies above instead of a second hypot per band
        ratio = xi_n / self.e_n
        u2_n, v2_n = 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)
        ratio = xi_p / self.e_p
        u2_p, v2_p = 0.5 * (1.0 + ratio), 0.5 * (1.0 - ratio)
        for slot, (a, b, c, e) in zip(
            self.qp_weights,
            (
                (v2_n, v2_p, fb_n, fb_p),
                (v2_n, u2_p, fb_n, f_p),
                (u2_n, v2_p, f_n, fb_p),
                (u2_n, u2_p, f_n, f_p),
            ),
        ):
            slot[:] = a * b * c * e
        # half the node spacing: diff(eps) as np.trapezoid computes it, halved
        np.subtract(eps[1:], eps[:-1], out=self.half_dx[:-1])
        np.divide(self.half_dx[:-1], 2.0, out=self.half_dx[:-1])
        self._half_dx_complex[:-1] = self.half_dx[:-1]
        # the work arrays come after the temporaries above are gone, so the
        # two never hold memory at the same time
        del eps, xi_n, xi_p, f_n, f_p, fb_n, fb_p, ratio, u2_n, v2_n, u2_p, v2_p, a, b, c, e
        work = _aligned_arrays(nodes, (np.float64,) * 2 + (np.complex128,) * 6)
        self._near, self._mag, self._den, self._term = work[:4]
        self._sums = work[4:]
        self.gamma = jp.broadening
        # den = near + i Gamma adds the imaginary parts 0.0 (near cast to
        # complex) and Gamma at every node and detuning, so they are set once
        self._den.imag = 0.0 + (1j * self.gamma).imag
        self.patch_states = dos_2d_per_mev_um2(jp.conduction.effective_mass) * quad.patch_area_um2

    def _kernels(self, d_mev: float, pair: np.ndarray, quasiparticle: np.ndarray) -> None:
        """Pair and quasiparticle kernels at one signed detuning (meV), written in place.

        Term by term ``uv * (w_mm/den_mm - w_mp/den_mp - w_pm/den_pm + w_pp/den_pp)``
        and ``q_mm/den_mm + q_mp/den_mp + q_pm/den_pm + q_pp/den_pp``, summed left
        to right, with ``den = d -+ E^n -+ E^p + i Gamma``.
        """
        ig_real = (1j * self.gamma).real
        near, den, term = self._near, self._den, self._term
        poles = zip(_POLES, self.pair_weights, self.qp_weights)
        for (op_n, op_p, join), w, q in poles:
            op_n(d_mev, self.e_n, out=near)
            op_p(near, self.e_p, out=near)
            np.add(near, ig_real, out=den.real)
            if join is None:
                np.divide(w, den, out=pair)
                np.divide(q, den, out=quasiparticle)
            else:
                np.divide(w, den, out=term)
                join(pair, term, out=pair)
                np.divide(q, den, out=term)
                np.add(quasiparticle, term, out=quasiparticle)
        np.multiply(self.uv, pair, out=pair)

    @staticmethod
    def _trapezoid(y: np.ndarray, half_dx: np.ndarray, scratch: np.ndarray):
        """``np.trapezoid(y, eps)``, bit for bit, in ``scratch``; ``half_dx`` = diff(eps) / 2.

        np.trapezoid sums ``dx * (y[1:] + y[:-1]) / 2.0``; halving is an exact
        scaling while the terms stay normal (dx is about 0.02 meV), so the
        stored half step gives the same terms without a division per node.
        """
        s = scratch[:-1]
        np.add(y[1:], y[:-1], out=s)
        np.multiply(half_dx[:-1], s, out=s)
        return s.sum()

    def rates(self, d_delta0: float, delta0: float) -> "tuple[float, float]":
        """Raw (coherent, incoherent) rates; each kernel is K(d) + K(-d), so even in d."""
        d = d_delta0 * delta0
        pair, qp, pair_minus, qp_minus = self._sums
        self._kernels(d, pair, qp)
        self._kernels(-d, pair_minus, qp_minus)
        np.add(pair, pair_minus, out=pair)
        amp = self.patch_states * self._trapezoid(pair, self._half_dx_complex, self._term)
        np.add(qp, qp_minus, out=qp)
        np.abs(qp, out=self._mag)
        np.square(self._mag, out=self._mag)
        incoherent = self.patch_states * self._trapezoid(self._mag, self.half_dx, self._near)
        return float(abs(amp) ** 2), float(incoherent)


def _channel_rates(t: float, jp: bcs.JunctionParams, quad: KQuadrature, detunings) -> list:
    """Raw (coherent, incoherent) rate pairs at reduced temperature t, one per detuning.

    One band table serves both channels and every detuning; each |d| is
    evaluated once.  A rate that is not finite raises ConvergenceError.  With
    ``quad.verify`` every rate is re-evaluated on a second table at doubled
    node count.
    """
    magnitudes = [abs(d) for d in detunings]

    def evaluate(nodes: int) -> dict:
        tables = _BandTables(t, jp, quad, nodes)
        by_magnitude: dict = {}
        for m in magnitudes:
            if m not in by_magnitude:
                rates = tables.rates(m, jp.sc.delta0)
                if not all(map(math.isfinite, rates)):
                    raise ConvergenceError(
                        f"(coherent, incoherent) rate at |d|={m}, t={t} is not finite "
                        f"with {nodes} quadrature nodes: {rates}"
                    )
                by_magnitude[m] = rates
        return by_magnitude

    coarse = evaluate(quad.nodes)
    if quad.verify:
        for magnitude, refined_pair in evaluate(2 * quad.nodes).items():
            for channel, value, refined in zip(
                ("coherent", "incoherent"), coarse[magnitude], refined_pair
            ):
                scale = max(abs(value), abs(refined))
                if scale > 0 and abs(refined - value) > CONVERGENCE_RTOL * scale:
                    raise ConvergenceError(
                        f"{channel} rate at d={magnitude}, t={t} changed by more than "
                        f"0.1% when doubling quadrature nodes ({value} vs {refined})",
                        coarse=value,
                        refined=refined,
                    )
    return [coarse[m] for m in magnitudes]


def s_cp(d: float, t: float, jp: bcs.JunctionParams, quad: KQuadrature = KQuadrature()) -> float:
    """Coherent-channel spectral rate at detuning d (delta0 units), reduced temperature t."""
    return _channel_rates(t, jp, quad, (d,))[0][0]


def s_bqp(d: float, t: float, jp: bcs.JunctionParams, quad: KQuadrature = KQuadrature()) -> float:
    """Incoherent-channel spectral rate at detuning d (delta0 units), reduced temperature t."""
    return _channel_rates(t, jp, quad, (d,))[0][1]


def rate_surfaces(
    grid: SpectralGrid, jp: bcs.JunctionParams, workers: int = 1
) -> "tuple[RateSurface, RateSurface]":
    """Both channels on one grid, normalized to the coherent maximum, which must be > 0."""

    def row(t: float) -> list:
        return _channel_rates(t, jp, grid.k_integration, grid.detunings)

    # 0 = auto: one worker per core, never more than there are temperatures
    n = workers or min(os.cpu_count() or 1, len(grid.temperatures))
    if n == 1 or len(grid.temperatures) == 1:
        rows = [row(t) for t in grid.temperatures]
    else:
        with ThreadPoolExecutor(max_workers=n) as pool:
            rows = list(pool.map(row, grid.temperatures))
    raw = np.array(rows)  # (n_temperatures, n_detunings, channel)
    norm = float(raw[..., 0].max())
    if not norm > 0:
        raise ConvergenceError(f"the coherent rate peaks at {norm}, so it cannot normalize")
    return (
        RateSurface(grid, raw[..., 0] / norm, "cp", norm),
        RateSurface(grid, raw[..., 1] / norm, "bqp", norm),
    )


def mixing_rates(
    d: float,
    t: float,
    jp: bcs.JunctionParams,
    coh: CoherenceParams,
    quad: KQuadrature = KQuadrature(),
) -> "tuple[float, float]":
    """Channel weights entering the density-matrix mixture at one detuning.

    The coherent rate is multiplied by the circumference-to-dephasing-length
    enhancement; the incoherent rate is not.
    """
    coherent, incoherent = _channel_rates(t, jp, quad, (d,))[0]
    return coh.enhancement * coherent, incoherent
