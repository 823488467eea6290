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

Both channels come from one evaluator, ``_channel_rates``: for a sequence
of reduced temperatures it builds one band table, refills it in place for
each temperature and returns the raw rates of both channels for a tuple of
detunings.  Each kernel is built as K(d) + K(-d), so both rates are exactly
even in d and each |d| is evaluated only once.  Every rate it returns has
passed an error estimate from the same rule on every second node of the
kernel values already computed, which needs no kernel call and no second
table.  ``mixing_rates`` (one detuning over a temperature sweep)
and ``rate_surfaces`` (a grid) are thin callers of it, on one thread.

Every factor of the kernels that does not depend on the detuning (the pair
weight, the four occupation products, the four quasiparticle numerators) is
rebuilt once per temperature, in place, so a detuning costs only the four
denominators at +|d| and sixteen divisions: each denominator at -|d| is
minus the conjugate of one at +|d|, so K(-d) is read off the same four
arrays (see ``_BandTables``).  Those factors keep the operand
order of the full per-detuning expressions on purpose: the rates stay bit
for bit what the unhoisted kernels give, which ``tests/test_properties.py``
checks against a verbatim copy of them, for fresh and for refilled tables.
The kernels and both trapezoid sums run in place in work arrays of the band
table, which like the factors start on pages and are allocated once per
sweep, so neither a temperature nor a detuning allocates and the kernel time
does not depend on where the process's earlier allocations left numpy's
buffers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bcs
from .errors import ConvergenceError, DomainError, require_positive, require_whole

CONVERGENCE_RTOL = 1e-3


@dataclass(frozen=True)
class KQuadrature:
    """Trapezoidal momentum-integral settings.

    ``nodes`` kinetic-energy samples on [0, mu^n + cutoff_delta0 * delta0];
    ``patch_area_um2`` is the coherence-patch area fixing the state count that
    calibrates the coherent/incoherent ratio.  Every rate gets the error
    estimate |T_m - T_m/2| / 3 of the trapezoid T_m over nodes 0..m (m the
    largest even node index) against the same rule T_m/2 on every second
    node, and an estimate above 0.1% of the rate raises ConvergenceError, so
    a table too coarse for its resonances fails instead of returning.
    """

    nodes: int = 4096
    cutoff_delta0: float = 40.0
    patch_area_um2: float = 0.1

    def __post_init__(self):
        object.__setattr__(self, "nodes", require_whole("quadrature nodes", self.nodes))
        if self.nodes < 64:
            raise DomainError(f"need at least 64 quadrature nodes, got {self.nodes}")
        require_positive("cutoff", self.cutoff_delta0)
        require_positive("patch area", self.patch_area_um2)


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

# How the pair term of each pole (mm, mp, pm, pp) joins the running pair sum;
# the first term starts it.
_JOINS = (None, np.subtract, np.subtract, np.add)


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
    """Band arrays on the quadrature's nodes, refilled in place for each reduced temperature.

    The constructor allocates every array once and builds what does not
    depend on the temperature: xi_n and xi_p on the kinetic-energy grid, the
    halved trapezoid step (also as complex128), the imaginary parts of the
    denominators and of the stored weights, and the patch state count.
    ``fill(t)`` rewrites everything in the two kernels that does not depend
    on the detuning: the band energies, the pair weight ``u_n v_n u_p v_p``,
    the four occupation products that weight the pair-propagator poles and
    the four quasiparticle numerators.  The coherence factors u^2, v^2 are
    built from the stored energies as ``bcs.coherence_factors`` builds them,
    so each band takes one ``hypot``, not two.  Each factor keeps the operand
    order of the original per-detuning expression and is stored as
    complex128, the exact cast numpy applies to it in every real/complex
    operation anyway.  The kernels and the trapezoid sums run in place in
    work arrays held here, one ufunc call per operation of the full
    expressions, in their order (the trapezoid's exact halving is folded into
    the stored step, and K(-d) comes from K(d)'s denominators as below), so
    the rates are bit for bit those of evaluating the full expressions at
    every detuning with ``np.trapezoid``.  No call casts
    an array, so none needs a buffer of its own, and ``fill`` writes its
    intermediate arrays into float views of the kernels' work arrays, so
    neither a refill nor a detuning allocates.  Every array starts on a page
    (see ``_aligned_arrays``).  The table also holds the weights of the two
    rules whose sums ``rates`` returns beside the rates, as float64 and as
    complex128.

    ``rates`` writes the four denominators den_mm, den_mp, den_pm, den_pp =
    d -+ E^n -+ E^p + i Gamma at d into four work arrays and takes
    K(-d) from them by two identities, exact up to the signs of zeros:

    * den_i(-d) = -conj(den_si(d)), where s swaps mm with pp and mp with pm,
      since (-d) -+ E^n = -(d +- E^n) exactly;
    * w / (-conj D) = -conj(w / D) for a real w, in numpy's Smith division.

    Negation and conjugation pass unchanged through the left-to-right sums
    and the real ``uv`` product, so K(-d) is -conj of the kernels with the
    weights in mm, mp, pm, pp order over the denominators in pp, pm, mp, mm
    order, and K(d) + K(-d) = K(d) - conj of those.  No later step sees the
    sign of a zero: a zero term adds nothing and the rates square moduli.
    """

    def __init__(self, jp: bcs.JunctionParams, quad: KQuadrature):
        self._jp = jp
        nodes = quad.nodes
        arrays = _aligned_arrays(nodes, (np.float64,) * 7 + (np.complex128,) * 19)
        self.e_n, self.e_p, self.half_dx, self._xi_n, self._xi_p, self._near, self._mag = arrays[:7]
        self.uv, self._half_dx_complex, self._term = arrays[7:10]
        self.pair_weights = tuple(arrays[10:14])
        self.qp_weights = tuple(arrays[14:18])
        self._dens = tuple(arrays[18:22])
        self._sums = arrays[22:]

        mu_n = jp.conduction.quasi_fermi_level
        mu_p = jp.valence.quasi_fermi_level
        mass_ratio = jp.conduction.effective_mass / jp.valence.effective_mass
        eps = np.linspace(0.0, mu_n + quad.cutoff_delta0 * jp.sc.delta0, nodes)
        np.subtract(eps, mu_n, out=self._xi_n)
        np.multiply(mass_ratio, eps, out=self._xi_p)
        np.subtract(self._xi_p, mu_p, out=self._xi_p)
        # half the node spacing: diff(eps) as np.trapezoid computes it, halved
        np.subtract(eps[1:], eps[:-1], out=self.half_dx[:-1])
        np.divide(self.half_dx[:-1], 2.0, out=self.half_dx[:-1])
        self._half_dx_complex[:-1] = self.half_dx[:-1]
        # the weights are real: fill writes their real parts, the zero
        # imaginary parts of the cast to complex128 are set once
        for w in (self.uv, *self.pair_weights, *self.qp_weights):
            w.imag = 0.0
        self._uv_real = self.uv.real
        self._pair_real = [w.real for w in self.pair_weights]
        self._qp_real = [w.real for w in self.qp_weights]
        # fill's intermediates: float views of the work arrays that only the
        # kernels write, never of _dens, whose imaginary parts are set once below
        self._scratch = [
            half for w in (*self._sums, self._term) for half in w.view(np.float64).reshape(2, nodes)
        ]
        self.gamma = jp.broadening
        # den = near + i Gamma adds the imaginary parts 0.0 (near cast to
        # complex) and Gamma at every node and detuning, so they are set once
        for den in self._dens:
            den.imag = 0.0 + (1j * self.gamma).imag
        dos = bcs.dos_2d_per_mev_um2(jp.conduction.effective_mass)
        self.patch_states = dos * quad.patch_area_um2
        # trapezoid weights over nodes 0..m, m the largest even index, and those
        # of the same rule on every second node (zero on the odd ones); a complex
        # copy takes the pair kernel's sums in one matrix-vector product
        m = (nodes - 1) // 2 * 2
        self._rules = np.zeros((2, m + 1))
        for rule, step in zip(self._rules, (1, 2)):
            half = np.diff(eps[: m + 1 : step]) / 2.0
            rule[:m:step] += half
            rule[step::step] += half
        self._pair_rules = self._rules.astype(np.complex128)

    def fill(self, t: float) -> None:
        """Rewrite the band energies and every detuning-free factor for reduced temperature t."""
        if not 0.0 < t < 1.0:
            raise DomainError(f"reduced temperature must lie in (0, 1), got {t}")
        jp = self._jp
        delta = bcs.gap_at_temperature(jp.sc, t * jp.sc.tc)
        delta_n = delta * jp.conduction.gap_scale
        delta_p = delta * jp.valence.gap_scale
        t_kelvin = t * jp.sc.tc

        bcs.quasiparticle_energy(self._xi_n, delta_n, out=self.e_n)
        bcs.quasiparticle_energy(self._xi_p, delta_p, out=self.e_p)
        # E = hypot(xi, delta) vanishes only where a vanished gap meets xi = 0
        for e, delta in ((self.e_n, delta_n), (self.e_p, delta_p)):
            if delta == 0.0 and not e.all():
                raise DomainError("coherence factors are singular at xi = delta = 0")
        f_n, f_p, fb_n, fb_p, u2_n, v2_n, u2_p, v2_p, tmp_n, tmp_p = self._scratch
        bcs.fermi_occupation(self.e_n, t_kelvin, out=f_n)
        bcs.fermi_occupation(self.e_p, t_kelvin, out=f_p)
        # fbar = 1 - f as f(-E), free of the cancellation in 1 - f; f + fbar is
        # then 1 within 2**-52, not exactly: over 200 001 energies in [-50, 50] meV
        # the sum misses 1 at 368 of them at 0.1 K and at 29 746 at 8.7 K
        for fb, e in ((fb_n, self.e_n), (fb_p, self.e_p)):
            bcs.fermi_occupation(np.negative(e, out=fb), t_kelvin, out=fb)
        # pair (anomalous) weight u v = delta / 2E per band
        for uv, e, delta in ((tmp_n, self.e_n, delta_n), (tmp_p, self.e_p, delta_p)):
            np.multiply(2.0, e, out=uv)
            np.divide(delta, uv, out=uv)
        np.multiply(tmp_n, tmp_p, out=self._uv_real)
        # pole weights, one per denominator d -+ E^n -+ E^p (mm, mp, pm, pp)
        for slot, (a, b) in zip(
            self._pair_real, ((fb_n, fb_p), (fb_n, f_p), (f_n, fb_p), (f_n, f_p))
        ):
            np.multiply(a, b, out=slot)
        # u^2, v^2 = (1 +- xi/E)/2 as bcs.coherence_factors gives them, from the
        # energies above instead of a second hypot per band
        for xi, e, ratio, u2, v2 in (
            (self._xi_n, self.e_n, tmp_n, u2_n, v2_n),
            (self._xi_p, self.e_p, tmp_p, u2_p, v2_p),
        ):
            np.divide(xi, e, out=ratio)
            np.add(1.0, ratio, out=u2)
            np.multiply(0.5, u2, out=u2)
            np.subtract(1.0, ratio, out=v2)
            np.multiply(0.5, v2, out=v2)
        for slot, (a, b, c, e) in zip(
            self._qp_real,
            (
                (v2_n, v2_p, fb_n, fb_p),
                (v2_n, u2_p, fb_n, f_p),
                (u2_n, v2_p, f_n, fb_p),
                (u2_n, u2_p, f_n, f_p),
            ),
        ):
            # the products run contiguously; only the last one writes the strided real part
            np.multiply(a, b, out=self._near)
            np.multiply(self._near, c, out=self._near)
            np.multiply(self._near, e, out=slot)

    def _kernels(self, dens, pair: np.ndarray, quasiparticle: np.ndarray) -> None:
        """Pair and quasiparticle kernels over four denominators, written in place.

        Term by term ``uv * (w_mm/den_0 - w_mp/den_1 - w_pm/den_2 + w_pp/den_3)``
        and ``q_mm/den_0 + q_mp/den_1 + q_pm/den_2 + q_pp/den_3``, summed left to
        right.
        """
        term = self._term
        terms = zip(_JOINS, self.pair_weights, self.qp_weights, dens)
        for join, w, q, den in terms:
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

    def rates(self, d_delta0: float, delta0: float) -> "tuple[tuple, tuple]":
        """Raw (coherent, incoherent) rates, each kernel K(d) + K(-d), and their rules.

        K(-d) is -conj of the kernels over the same four denominators in
        reverse order (see the class docstring).  The rules give each channel
        [T_m, T_m/2] from the same kernels: the trapezoid over nodes 0..m (m the
        largest even node index) and the same rule on every second of those nodes.
        """
        d = d_delta0 * delta0
        pair, qp, pair_minus, qp_minus = self._sums
        mm, mp, pm, pp = self._dens
        # d - E^n and d + E^n, each shared by two poles; den's real part is
        # written directly, as near + 0.0 is near (E^p > 0, so near is never -0.0)
        near_minus, near_plus = self._near, self._mag
        np.subtract(d, self.e_n, out=near_minus)
        np.add(d, self.e_n, out=near_plus)
        np.subtract(near_minus, self.e_p, out=mm.real)
        np.add(near_minus, self.e_p, out=mp.real)
        np.subtract(near_plus, self.e_p, out=pm.real)
        np.add(near_plus, self.e_p, out=pp.real)
        self._kernels(self._dens, pair, qp)
        self._kernels(self._dens[::-1], pair_minus, qp_minus)
        np.conjugate(pair_minus, out=pair_minus)
        np.subtract(pair, pair_minus, out=pair)
        pair_sum = self._trapezoid(pair, self._half_dx_complex, self._term)
        np.conjugate(qp_minus, out=qp_minus)
        np.subtract(qp, qp_minus, out=qp)
        np.abs(qp, out=self._mag)
        np.square(self._mag, out=self._mag)
        qp_sum = self._trapezoid(self._mag, self.half_dx, self._near)
        head = self._rules.shape[1]  # the rules take nodes 0..m
        rules = np.dot(self._pair_rules, pair[:head]), np.dot(self._rules, self._mag[:head])
        return self._channel_values(pair_sum, qp_sum), self._channel_values(*rules)

    def _channel_values(self, pair_sum, qp_sum):
        """(coherent, incoherent) rates from pair and |qp|^2 sums: floats, or lists for arrays."""
        # an overflow leaves inf, which fails the caller's finite or estimate check
        with np.errstate(over="ignore"):
            coherent = abs(self.patch_states * pair_sum) ** 2
            incoherent = self.patch_states * qp_sum
        return coherent.tolist(), incoherent.tolist()


def _channel_rates(temperatures, jp: bcs.JunctionParams, quad: KQuadrature, detunings) -> list:
    """Raw (coherent, incoherent) rates: a row per reduced temperature, a pair per detuning.

    One band table serves every temperature, both channels and every
    detuning; it is refilled per temperature and freed on return, and each
    |d| is evaluated once per temperature.  A detuning that is not finite
    raises DomainError, a rate that is not finite ConvergenceError, and so
    does every rate whose error estimate |T_m - T_m/2| / 3 (from the rules
    ``_BandTables.rates`` returns with it) exceeds ``CONVERGENCE_RTOL`` of it;
    the error carries T_m/2 as ``coarse`` and the reported rate as ``refined``.
    """
    magnitudes = [abs(d) for d in detunings]
    if not all(map(math.isfinite, magnitudes)):  # before numpy would warn on them
        raise DomainError(f"detunings must be finite, got {tuple(detunings)}")
    tables = _BandTables(jp, quad)
    rows = []
    for t in temperatures:
        tables.fill(t)
        by_magnitude: dict = {}
        for m in magnitudes:
            if m in by_magnitude:
                continue
            rates, rules = tables.rates(m, jp.sc.delta0)
            if not all(map(math.isfinite, rates)):
                raise ConvergenceError(
                    f"(coherent, incoherent) rate at |d|={m}, t={t} is not finite "
                    f"with {quad.nodes} quadrature nodes: {rates}"
                )
            channels = zip(("coherent", "incoherent"), rates, rules)
            for channel, value, (full, half) in channels:
                estimate = abs(full - half) / 3
                if not estimate <= CONVERGENCE_RTOL * value:
                    raise ConvergenceError(
                        f"{channel} rate at |d|={m}, t={t} with {quad.nodes} quadrature "
                        f"nodes has the error estimate {estimate:.3g}, over "
                        f"{CONVERGENCE_RTOL:g} of the rate {value:.6g}",
                        coarse=half,
                        refined=value,
                    )
            by_magnitude[m] = rates
        rows.append([by_magnitude[m] for m in magnitudes])
    return rows


def rate_surfaces(
    grid: SpectralGrid, jp: bcs.JunctionParams
) -> "tuple[RateSurface, RateSurface]":
    """Both channels on one grid, normalized to the coherent maximum, which must be > 0."""
    # (n_temperatures, n_detunings, channel)
    raw = np.array(_channel_rates(grid.temperatures, jp, grid.k_integration, grid.detunings))
    norm = float(raw[..., 0].max())
    if not norm > 0:
        raise ConvergenceError(f"the coherent rate peaks at {norm}, so it cannot normalize")
    return (
        RateSurface(grid, raw[..., 0] / norm, "cp", norm),
        RateSurface(grid, raw[..., 1] / norm, "bqp", norm),
    )


def mixing_rates(
    d: float, temperatures, jp: bcs.JunctionParams, quad: KQuadrature = KQuadrature()
) -> list:
    """Raw (coherent, incoherent) rates at detuning d (delta0 units), one per reduced temperature.

    One band table serves the whole sweep.  The mixtures weight the coherent
    rate by the enhancement themselves.
    """
    return [row[0] for row in _channel_rates(temperatures, jp, quad, (d,))]
