"""Property tests for the invariants of the single spectral evaluation path.

Random small configurations (64-256 nodes, exactly symmetric detuning grids of
3-9 points, 1-3 temperatures, the doubled-node check on or off) must give
surfaces that are the per-point rates divided by one normalization, rows that
are exact mirror images, and fidelity curves equal to the one-shot mixture at
every point, all bit for bit.  The band-table rates must equal, bit for bit, a
verbatim copy of the kernels as they were before their per-temperature
factors were hoisted.  Small random ``dm`` and ``fidelity`` runs must write
Hermitian, positive semidefinite, trace-1 matrices, each equal bit for bit to
the one-shot mixture at its (temperature, enhancement), and fidelities in
[0, 1], and the mode overlap ``kappa`` must be symmetric in its two modes
and blind to the sign of l, bit for bit.
"""

import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import (
    AnnulusGeometry,
    CoherenceParams,
    ConvergenceError,
    KQuadrature,
    ModeIndex,
    OamPairBasis,
    PairDensityMatrix,
    SpectralGrid,
    bcs,
    bell_target,
    fidelity,
    fidelity_curve,
    gaas_nb_junction,
    kappa,
    rate_surfaces,
    rho_total,
    rho_total_superposition,
    s_bqp,
    s_cp,
)
from sled_oam.cli import main
from sled_oam.config import load_config
from sled_oam.constants import dos_2d_per_mev_um2
from sled_oam.spectral import _BandTables

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

quadratures = st.builds(KQuadrature, nodes=st.integers(64, 256), verify=st.booleans())
temperatures = st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3, unique=True).map(tuple)


@st.composite
def symmetric_detunings(draw):
    """3-9 strictly increasing detunings with d[i] == -d[-1 - i] exactly."""
    positive = draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4, unique=True))
    zero = (0.0,) if len(positive) == 1 else draw(st.sampled_from([(), (0.0,)]))
    positive = tuple(sorted(positive))
    return tuple(-d for d in reversed(positive)) + zero + positive


def fails_somewhere(evaluate, points) -> None:
    """The per-point callers hit the same doubled-node check the batch call failed."""
    with pytest.raises(ConvergenceError):
        for point in points:
            evaluate(*point)


@SETTINGS
@given(detunings=symmetric_detunings(), temps=temperatures, quad=quadratures)
def test_surfaces_are_normalized_point_rates_and_mirror_symmetric(
    junction, detunings, temps, quad
):
    grid = SpectralGrid(detunings=detunings, temperatures=temps, k_integration=quad)
    points = [(d, t) for t in temps for d in detunings]
    try:
        cp, bqp = rate_surfaces(grid, junction)
    except ConvergenceError:
        fails_somewhere(lambda d, t: s_cp(d, t, junction, quad), points)
        return
    assert cp.normalization == bqp.normalization
    for i, t in enumerate(temps):
        for j, d in enumerate(detunings):
            assert cp.values[i, j] == s_cp(d, t, junction, quad) / cp.normalization
            assert bqp.values[i, j] == s_bqp(d, t, junction, quad) / bqp.normalization
    for surface in (cp, bqp):
        assert np.array_equal(surface.values, surface.values[:, ::-1])


@st.composite
def pair_setups(draw):
    """A small detected-OAM basis and a winding whose sector it reaches."""
    l_values = draw(st.lists(st.integers(-2, 2), min_size=2, max_size=3, unique=True))
    basis = OamPairBasis.from_l_values(l_values)
    winding = draw(st.sampled_from(sorted({l1 + l2 for l1, l2 in basis.pairs})))
    return basis, winding


@SETTINGS
@given(
    setup=pair_setups(),
    temps=temperatures,
    enhancements=st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=3).map(tuple),
    d=st.floats(0.0, 6.0),
    quad=quadratures,
)
def test_fidelity_curve_equals_one_shot_mixture(
    junction, geometry, setup, temps, enhancements, d, quad
):
    basis, winding = setup
    target = bell_target(basis, winding)
    points = [(t, enh) for t in temps for enh in enhancements]

    def one_shot(t, enh):
        rho = rho_total(winding, basis, geometry, d, t, junction, CoherenceParams(enh), quad)
        return fidelity(rho, target)

    try:
        table = fidelity_curve(
            temps, enhancements, winding, basis, geometry, d, junction, quad, target
        )
    except ConvergenceError:
        fails_somewhere(one_shot, points)
        return
    for i, t in enumerate(temps):
        for j, enh in enumerate(enhancements):
            assert table.values[i, j] == one_shot(t, enh)


class _ReferenceTables:
    """The band tables and kernels as written before the per-table factors were
    hoisted, kept verbatim as the bit-identity oracle."""

    def __init__(self, t, jp, quad, nodes):
        mu_n = jp.conduction.quasi_fermi_level
        mu_p = jp.valence.quasi_fermi_level
        mass_ratio = jp.conduction.effective_mass / jp.valence.effective_mass
        delta = bcs.gap_at_temperature(jp.sc, t * jp.sc.tc)
        delta_n = delta * jp.conduction.gap_scale
        delta_p = delta * jp.valence.gap_scale
        t_kelvin = t * jp.sc.tc

        eps = np.linspace(0.0, mu_n + quad.cutoff_delta0 * jp.sc.delta0, nodes)
        xi_n = eps - mu_n
        xi_p = mass_ratio * eps - mu_p
        self.eps = eps
        self.e_n = bcs.quasiparticle_energy(xi_n, delta_n)
        self.e_p = bcs.quasiparticle_energy(xi_p, delta_p)
        self.f_n = bcs.fermi_occupation(self.e_n, t_kelvin)
        self.f_p = bcs.fermi_occupation(self.e_p, t_kelvin)
        self.fb_n = bcs.fermi_occupation_complement(self.e_n, t_kelvin)
        self.fb_p = bcs.fermi_occupation_complement(self.e_p, t_kelvin)
        self.uv_n = delta_n / (2.0 * self.e_n)
        self.uv_p = delta_p / (2.0 * self.e_p)
        u2_n, v2_n = bcs.coherence_factors(xi_n, delta_n)
        u2_p, v2_p = bcs.coherence_factors(xi_p, delta_p)
        self.u2_n, self.v2_n = u2_n, v2_n
        self.u2_p, self.v2_p = u2_p, v2_p
        self.gamma = jp.broadening
        self.patch_states = dos_2d_per_mev_um2(jp.conduction.effective_mass) * quad.patch_area_um2

    def _kernels(self, d_mev):
        ig = 1j * self.gamma
        den_mm = d_mev - self.e_n - self.e_p + ig
        den_mp = d_mev - self.e_n + self.e_p + ig
        den_pm = d_mev + self.e_n - self.e_p + ig
        den_pp = d_mev + self.e_n + self.e_p + ig
        pair = self.uv_n * self.uv_p * (
            self.fb_n * self.fb_p / den_mm
            - self.fb_n * self.f_p / den_mp
            - self.f_n * self.fb_p / den_pm
            + self.f_n * self.f_p / den_pp
        )
        quasiparticle = (
            self.v2_n * self.v2_p * self.fb_n * self.fb_p / den_mm
            + self.v2_n * self.u2_p * self.fb_n * self.f_p / den_mp
            + self.u2_n * self.v2_p * self.f_n * self.fb_p / den_pm
            + self.u2_n * self.u2_p * self.f_n * self.f_p / den_pp
        )
        return pair, quasiparticle

    def rates(self, d_delta0, delta0):
        d = d_delta0 * delta0
        pair_plus, qp_plus = self._kernels(d)
        pair_minus, qp_minus = self._kernels(-d)
        amp = self.patch_states * np.trapezoid(pair_plus + pair_minus, self.eps)
        incoherent = self.patch_states * np.trapezoid(np.abs(qp_plus + qp_minus) ** 2, self.eps)
        return float(abs(amp) ** 2), float(incoherent)


@settings(SETTINGS, max_examples=100)
@given(
    detunings=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
    t=st.floats(0.01, 0.99),
    gap_scales=st.tuples(st.floats(0.1, 2.0), st.floats(0.1, 2.0)),
    dephasing_time_fs=st.floats(10.0, 1e4),
    nodes=st.integers(64, 512),
)
def test_band_table_rates_equal_the_unhoisted_kernels(
    detunings, t, gap_scales, dephasing_time_fs, nodes
):
    jp = gaas_nb_junction(
        dephasing_time=dephasing_time_fs,
        gap_scale_conduction=gap_scales[0],
        gap_scale_valence=gap_scales[1],
    )
    quad = KQuadrature(nodes=nodes)
    tables = _BandTables(t, jp, quad, nodes)
    reference = _ReferenceTables(t, jp, quad, nodes)
    for d in detunings:
        assert tables.rates(d, jp.sc.delta0) == reference.rates(d, jp.sc.delta0)


@st.composite
def small_runs(draw):
    """``--set`` overrides of a small run: full basis, any winding it reaches.

    Radii come from a few values so that the adaptive overlaps, cached per
    geometry, keep the runs fast.
    """
    l_max = draw(st.integers(1, 2))
    r_inner = draw(st.sampled_from([0.0, 2.0, 4.0]))
    sets = {
        "geometry.r_inner_um": r_inner,
        "geometry.r_outer_um": r_inner + draw(st.sampled_from([0.5, 1.0, 3.0])),
        "material.dephasing_time_fs": draw(st.floats(100.0, 5000.0)),
        "grid.temperatures": ", ".join(map(repr, draw(temperatures))),
        "grid.quadrature_nodes": draw(st.integers(64, 256)),
        "emission.l_max": l_max,
        "emission.winding": draw(st.integers(-2 * l_max, 2 * l_max)),
        "emission.detuning_for_dm": draw(st.floats(0.0, 6.0)),
        "emission.enhancements": ", ".join(
            map(repr, draw(st.lists(st.floats(1.0, 1000.0), min_size=1, max_size=2)))
        ),
    }
    if draw(st.booleans()):
        theta = draw(st.floats(0.0, math.pi / 2))
        sets["emission.qubit_a"] = f"{math.cos(theta)!r}, 0"
        sets["emission.qubit_b"] = f"{math.sin(theta)!r}, {draw(st.floats(0.0, 2 * math.pi))!r}"
    return [arg for key, value in sets.items() for arg in ("--set", f"{key}={value}")]


@SETTINGS
@given(overrides=small_runs())
def test_every_dm_matrix_is_a_density_matrix(overrides):
    config = load_config("fig3", overrides[1::2])
    with tempfile.TemporaryDirectory() as out:
        assert main(["dm", "--config", "fig3", "--out", out, "--format", "json"] + overrides) == 0
        names = [name for name in os.listdir(out) if name.startswith("dm_")]
        assert names
        for name in names:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                rho = PairDensityMatrix.from_json_dict(json.load(fh)).entries
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert float(np.linalg.eigvalsh(rho).min()) >= -1e-10
        expected = {
            f"dm_{t:g}_{enh:g}.json": one_shot_dm(config, t, enh)
            for t in config.grid.temperatures
            for enh in config.enhancements
        }
        assert sorted(names) == sorted(expected)
        for name, rho in expected.items():
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                assert json.load(fh) == rho.to_json_dict()


def one_shot_dm(config, t, enh):
    """The matrix ``dm`` must write at (t, enh), formed by the one-shot mixture."""
    args = (config.winding, config.basis(), config.geometry, config.detuning_for_dm, t)
    args += (config.junction, CoherenceParams(enh), config.grid.k_integration)
    if config.qubit is None:
        return rho_total(*args)
    return rho_total_superposition(config.qubit, *args)


@SETTINGS
@given(overrides=small_runs())
def test_every_fidelity_lies_in_the_unit_interval(overrides):
    with tempfile.TemporaryDirectory() as out:
        args = ["fidelity", "--config", "fig3", "--out", out, "--format", "csv"]
        assert main(args + overrides) == 0
        path = os.path.join(out, "fidelity.csv")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]
        assert values.size
        assert np.all((values >= 0.0) & (values <= 1.0))


modes = st.builds(ModeIndex, m=st.integers(0, 2), l=st.integers(-6, 6))


@st.composite
def annuli(draw):
    r_inner = draw(st.floats(0.0, 6.0))
    r_outer = r_inner + draw(st.floats(0.0, 4.0))
    return AnnulusGeometry(r_inner, r_outer, draw(st.floats(1.0, 6.0)))


@SETTINGS
@given(a=modes, b=modes, geom=annuli())
def test_kappa_is_symmetric(a, b, geom):
    # bit for bit, which lets pair_state compute one overlap per unordered |l| pair
    value = kappa(a, b, geom)
    assert value == kappa(ModeIndex(a.m, -a.l), b, geom) == kappa(b, a, geom)
