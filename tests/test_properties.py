"""Property tests for the invariants of the single spectral evaluation path.

Random small configurations (256-1024 nodes, exactly symmetric detuning grids
of 3-9 points, 1-3 temperatures) must give surfaces that are the per-point
rates divided by one normalization, rows that are exact mirror images, and
fidelity curves equal to ``fidelity`` of ``rho_total`` at every point, all bit for
bit, or fail the quadrature error estimate at the same point.  The band-table
rates must equal, bit for bit, a verbatim copy of the kernels as they were
before their per-temperature factors were hoisted, so must every rate that
passes the error estimate, and a table refilled for a second temperature must
give the rates of a fresh table for it.  Small random ``dm`` and ``fidelity`` runs must write
Hermitian, positive semidefinite, trace-1 matrices, each equal bit for bit to
``rho_total_superposition`` at its (temperature, enhancement), and fidelities in
[0, 1], or exit 3 with a one-line error where a dephasing time outruns the
nodes' error estimate, and the mode overlap ``kappa`` must be symmetric in
its two modes and blind to the sign of l, bit for bit.  A ``rates`` run with any positive
cutoff and dephasing time, any positive effective masses, or any positive
value of the gap, a carrier density, a gap scale, the largest detuning or the
patch area must succeed or exit 2 or 3 with a one-line JSON error, without a
warning; at every corner of the ranges in the config schema its rates must be
finite: it succeeds, or fails only the error estimate.
A small ``dm`` run with any positive annulus radius or beam waist must
succeed or exit 1, 2 or 3 with a one-line JSON error, without a warning.
A small ``rates``, ``dm`` or ``fidelity`` run with SVG output, given any
finite temperatures, ``detuning_for_dm``, enhancements and qubit, any
``l_max`` and winding and any list of ``l_values`` within |l| <= 3, must
write files that match its manifest or exit 1, 2, 3 or 4 with a one-line
JSON error, without a warning.  Pinned ``dm`` and
``fidelity`` runs on the largest basis (l_max = 12) and on a gapped list of
l values must write theirs, the ``dm`` JSON equal to ``json.dumps`` of
``rho_total_superposition``.  That is the sweep's one point on the full
matrix, so these hold the writers and the stacked fidelity, and
``test_fidelity_sweep`` holds the mixing against the dense mixture of
``dense_mixture``.
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import (
    AnnulusGeometry,
    CoherenceParams,
    ConvergenceError,
    KQuadrature,
    OamPairBasis,
    SpectralGrid,
    bcs,
    bell_target,
    fidelity,
    fidelity_curve,
    gaas_nb_junction,
    kappa,
    mixing_rates,
    rate_surfaces,
    rho_total,
    rho_total_superposition,
)
from sled_oam.cli import main
from sled_oam.config import _SCHEMA, load_config
from sled_oam.bcs import dos_2d_per_mev_um2
from sled_oam.spectral import CONVERGENCE_RTOL, _BandTables

from dm_json import from_json_dict, to_json_dict

SETTINGS = settings(max_examples=30, deadline=None, derandomize=True, database=None)

# about one draw in twelve at the coarse end fails the error estimate somewhere
quadratures = st.builds(KQuadrature, nodes=st.integers(256, 1024))
temperatures = st.lists(st.floats(0.02, 0.98), min_size=1, max_size=3, unique=True).map(tuple)


@st.composite
def symmetric_detunings(draw):
    """3-9 strictly increasing detunings with d[i] == -d[-1 - i] exactly."""
    positive = draw(st.lists(st.floats(0.05, 6.0), min_size=1, max_size=4, unique=True))
    zero = (0.0,) if len(positive) == 1 else draw(st.sampled_from([(), (0.0,)]))
    positive = tuple(sorted(positive))
    return tuple(-d for d in reversed(positive)) + zero + positive


def fails_somewhere(evaluate, points) -> None:
    """The per-point callers hit the same error estimate the batch call failed."""
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
        fails_somewhere(lambda d, t: mixing_rates(d, (t,), junction, quad)[0], points)
        return
    assert cp.normalization == bqp.normalization
    for i, t in enumerate(temps):
        for j, d in enumerate(detunings):
            r_cp, r_bqp = mixing_rates(d, (t,), junction, quad)[0]
            assert cp.values[i, j] == r_cp / cp.normalization
            assert bqp.values[i, j] == r_bqp / bqp.normalization
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
            temps, enhancements, winding, basis, geometry, d, junction, quad
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
        self.fb_n = bcs.fermi_occupation(-self.e_n, t_kelvin)
        self.fb_p = bcs.fermi_occupation(-self.e_p, t_kelvin)
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
# the occupation products underflow to +0.0, so whole terms are zeros
@example(detunings=[2.0, -0.5], t=0.01, gap_scales=(1.0, 1.0), dephasing_time_fs=1000.0, nodes=4096)
# -d is -0.0
@example(detunings=[0.0], t=0.5, gap_scales=(1.0, 1.0), dephasing_time_fs=1000.0, nodes=4096)
# Gamma = 66 meV: |Re den| < Gamma at most nodes, so the division takes both branches
@example(detunings=[0.0, 3.0], t=0.3, gap_scales=(1.0, 1.0), dephasing_time_fs=10.0, nodes=4096)
def test_band_table_rates_equal_the_unhoisted_kernels(
    detunings, t, gap_scales, dephasing_time_fs, nodes
):
    jp = gaas_nb_junction(
        dephasing_time=dephasing_time_fs,
        gap_scale_conduction=gap_scales[0],
        gap_scale_valence=gap_scales[1],
    )
    quad = KQuadrature(nodes=nodes)
    tables = _BandTables(jp, quad)
    tables.fill(t)
    reference = _ReferenceTables(t, jp, quad, nodes)
    for d in detunings:
        assert tables.rates(d, jp.sc.delta0)[0] == reference.rates(d, jp.sc.delta0)


@SETTINGS
@given(
    temps=st.tuples(st.floats(0.01, 0.99), st.floats(0.01, 0.99)),
    detunings=st.lists(st.floats(-8.0, 8.0), min_size=1, max_size=4),
    dephasing_time_fs=st.floats(10.0, 1e4),
    nodes=st.sampled_from([64, 257]),
)
def test_a_refilled_band_table_equals_a_fresh_one(temps, detunings, dephasing_time_fs, nodes):
    jp = gaas_nb_junction(dephasing_time=dephasing_time_fs)
    quad = KQuadrature(nodes=nodes)
    refilled = _BandTables(jp, quad)
    refilled.fill(temps[0])
    for d in detunings:  # leaves the work arrays, fill's scratch, written
        refilled.rates(d, jp.sc.delta0)
    refilled.fill(temps[1])
    fresh = _BandTables(jp, quad)
    fresh.fill(temps[1])
    for d in detunings:
        assert refilled.rates(d, jp.sc.delta0) == fresh.rates(d, jp.sc.delta0)


def _first_estimate_failure(jp, quad, temperatures, detunings):
    """(channel, |d|, t, T_m/2) of the first rate, in the order the gate checks them,
    whose estimate |T_m - T_m/2| / 3 exceeds the tolerance, or None.

    T_m is ``np.trapezoid`` over nodes 0..m (m the largest even node index) of
    the unhoisted kernels, T_m/2 the same over every second of those nodes.
    """
    m = (quad.nodes - 1) // 2 * 2
    for t in temperatures:
        reference = _ReferenceTables(t, jp, quad, quad.nodes)
        eps = reference.eps[: m + 1]
        for magnitude in dict.fromkeys(abs(d) for d in detunings):
            d = magnitude * jp.sc.delta0
            pair_plus, qp_plus = reference._kernels(d)
            pair_minus, qp_minus = reference._kernels(-d)
            pair = (pair_plus + pair_minus)[: m + 1]
            qp = (np.abs(qp_plus + qp_minus) ** 2)[: m + 1]
            channels = (
                ("coherent", pair, lambda s: abs(reference.patch_states * s) ** 2),
                ("incoherent", qp, lambda s: reference.patch_states * s),
            )
            for (channel, y, rate), value in zip(channels, reference.rates(magnitude, jp.sc.delta0)):
                full = rate(np.trapezoid(y, eps))
                half = rate(np.trapezoid(y[::2], eps[::2]))
                if abs(full - half) / 3 > CONVERGENCE_RTOL * value:
                    return channel, magnitude, t, half
    return None


@pytest.mark.parametrize("nodes", [4096, 4097], ids=["even", "odd"])
@pytest.mark.parametrize(
    "sets, fails",
    [
        (["material.dephasing_time_fs=1e4"], False),
        (["material.dephasing_time_fs=1e5", "grid.temperatures=0.05"], True),
    ],
    ids=["1e4 fs", "1e5 fs at t=0.05"],
)
def test_the_error_estimate_fails_exactly_where_the_oracle_rule_does(nodes, sets, fails):
    config = load_config("fig2", [*sets, f"grid.quadrature_nodes={nodes}"])
    grid = config.grid
    expected = _first_estimate_failure(
        config.junction, grid.k_integration, grid.temperatures, grid.detunings
    )
    assert (expected is not None) == fails
    if expected is None:
        rate_surfaces(grid, config.junction)
        return
    channel, magnitude, t, half = expected
    with pytest.raises(ConvergenceError) as err:
        rate_surfaces(grid, config.junction)
    assert str(err.value).startswith(f"{channel} rate at |d|={magnitude}, t={t} with {nodes} ")
    assert err.value.coarse == pytest.approx(half, rel=1e-12)


@SETTINGS
@given(
    detunings=symmetric_detunings(),
    temps=temperatures,
    half_nodes=st.integers(64, 2048),
    odd=st.booleans(),
    dephasing_time_fs=st.sampled_from([1e2, 1e3, 1e4]),
)
def test_verification_never_changes_a_reported_rate(
    detunings, temps, half_nodes, odd, dephasing_time_fs
):
    # every rate that passes the estimate is the unhoisted kernels' np.trapezoid
    # rate, bit for bit, from both callers of the one evaluator
    jp = gaas_nb_junction(dephasing_time=dephasing_time_fs)
    nodes = 2 * half_nodes + odd
    quad = KQuadrature(nodes=nodes)
    references = [_ReferenceTables(t, jp, quad, nodes) for t in temps]
    expected = [[ref.rates(d, jp.sc.delta0) for d in detunings] for ref in references]
    for j, d in enumerate(detunings):
        try:
            checked = mixing_rates(d, temps, jp, quad)
        except ConvergenceError:
            continue
        assert checked == [row[j] for row in expected]
    try:
        cp, bqp = rate_surfaces(SpectralGrid(detunings, temps, quad), jp)
    except ConvergenceError:
        return
    raw = np.array(expected)
    norm = raw[..., 0].max()
    assert cp.normalization == bqp.normalization == norm
    assert np.array_equal(cp.values, raw[..., 0] / norm)
    assert np.array_equal(bqp.values, raw[..., 1] / norm)


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
        # dephasing times past about 2000 fs need more than 512 nodes
        "grid.quadrature_nodes": draw(st.integers(1024, 2048)),
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


def run_or_fail_the_estimate(args) -> bool:
    """Run ``main``: True on exit 0, False on exit 3 with one ConvergenceError line."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(args)
    if code == 0:
        assert err.getvalue() == ""
        return True
    assert code == 3
    [line] = err.getvalue().splitlines()
    assert json.loads(line)["error"] == "ConvergenceError"
    return False


@SETTINGS
@given(overrides=small_runs())
def test_every_dm_matrix_is_a_density_matrix(overrides):
    config = load_config("fig3", overrides[1::2])
    with tempfile.TemporaryDirectory() as out:
        args = ["dm", "--config", "fig3", "--out", out, "--set", "output.svg=false"]
        if not run_or_fail_the_estimate(args + overrides):
            return
        names = [name for name in os.listdir(out) if name.startswith("dm_")]
        assert names
        for name in names:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                rho = from_json_dict(json.load(fh)).entries
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
                assert json.load(fh) == to_json_dict(rho)


def one_shot_dm(config, t, enh):
    """The matrix ``dm`` must write at (t, enh): ``rho_total_superposition`` there."""
    args = (config.winding, config.basis, config.geometry, config.detuning_for_dm, t)
    args += (config.junction, CoherenceParams(enh), config.grid.k_integration)
    return rho_total_superposition(config.qubit, *args)


@SETTINGS
@given(overrides=small_runs())
def test_every_fidelity_lies_in_the_unit_interval(overrides):
    with tempfile.TemporaryDirectory() as out:
        args = ["fidelity", "--config", "fig3", "--out", out, "--set", "output.svg=false"]
        if not run_or_fail_the_estimate(args + overrides):
            return
        path = os.path.join(out, "fidelity.csv")
        values = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2]
        assert values.size
        assert np.all((values >= 0.0) & (values <= 1.0))


@SETTINGS
@given(
    log_cutoff=st.floats(-323.3, 308.25),  # log10 of the smallest and largest positive doubles
    log_tau=st.floats(-323.3, 308.25),
)
def test_any_positive_cutoff_and_dephasing_time_fail_cleanly(log_cutoff, log_tau):
    assert_small_run_fails_cleanly(
        f"grid.cutoff_delta0={10.0**log_cutoff!r}",
        f"material.dephasing_time_fs={10.0**log_tau!r}",
    )


@SETTINGS
@given(
    log_electron=st.floats(-323.3, 308.25),
    log_hole=st.floats(-323.3, 308.25),
)
# the corners of the accepted range, where the mass ratio is most extreme
@example(log_electron=-3.0, log_hole=3.0)
@example(log_electron=3.0, log_hole=-3.0)
@example(log_electron=-3.0, log_hole=-3.0)
@example(log_electron=3.0, log_hole=3.0)
def test_any_positive_effective_masses_fail_cleanly(log_electron, log_hole):
    assert_small_run_fails_cleanly(
        f"material.electron_mass={10.0**log_electron!r}",
        f"material.hole_mass={10.0**log_hole!r}",
    )


@pytest.mark.parametrize(
    "key",
    [
        "material.delta0_mev",
        "material.electron_density_cm2",
        "material.hole_density_cm2",
        "material.gap_scale_conduction",
        "material.gap_scale_valence",
        "material.tc_k",
        "grid.detuning_max",
        "grid.patch_area_um2",
    ],
)
@SETTINGS
@given(log_value=st.floats(-323.3, 308.25))
@example(log_value=math.log10(1.7e308))
@example(log_value=200.0)
def test_any_positive_material_or_grid_value_fails_cleanly(key, log_value):
    assert_small_run_fails_cleanly(f"{key}={10.0**log_value!r}")


@pytest.mark.parametrize("key", ["geometry.r_inner_um", "geometry.r_outer_um", "geometry.waist_um"])
@SETTINGS
@given(log_value=st.floats(-323.3, 308.25))
@example(log_value=300.0)  # the squared radii would overflow in the overlaps
@example(log_value=-300.0)
def test_any_positive_geometry_value_fails_cleanly(key, log_value):
    assert_small_run_fails_cleanly(f"{key}={10.0**log_value!r}", command="dm")


# the finite ends of every range that config bounds at load, read from its
# schema; the point count shapes the run, not the rates, and stays at the
# run's own 3 points (-max, 0, +max: d = 0 is the resonance)
SCHEMA_ENDS = {
    f"{section}.{key}": [end for end in limits if math.isfinite(end)]
    for section, rows in _SCHEMA.items()
    for key, (_, _, limits) in rows.items()
    if limits is not None and f"{section}.{key}" != "grid.detuning_points"
}
# the annulus needs r_inner <= r_outer, so the radii are drawn as ordered pairs
RADIUS_KEYS = ("geometry.r_inner_um", "geometry.r_outer_um")
ORDERED_RADII = [
    pair for pair in itertools.product(*(SCHEMA_ENDS.pop(k) for k in RADIUS_KEYS))
    if pair[0] <= pair[1]
]


def with_radii(rest, radii):
    return {**rest, **dict(zip(RADIUS_KEYS, radii))}


corners = st.builds(
    with_radii,
    st.fixed_dictionaries({k: st.sampled_from(v) for k, v in SCHEMA_ENDS.items()}),
    st.sampled_from(ORDERED_RADII),
)


@SETTINGS
@given(corner=corners)
@example(corner=with_radii({k: ends[0] for k, ends in SCHEMA_ENDS.items()}, ORDERED_RADII[0]))
@example(corner=with_radii({k: ends[-1] for k, ends in SCHEMA_ENDS.items()}, ORDERED_RADII[-1]))
def test_every_corner_of_the_bounded_ranges_gives_finite_rates(corner):
    # winding 0 is the one sector reached at the l_max = 0 corner
    settings = ["emission.winding=0", *(f"{k}={v!r}" for k, v in corner.items())]
    code = assert_small_run_fails_cleanly(*settings)
    if code == 0:
        return
    # a corner whose resonances the nodes cannot resolve (say 1e12 fs) fails the
    # error estimate; every rate of its grid is still finite, and the coherent
    # maximum positive, so it fails nothing else
    assert code == 3
    config = load_config("fig2", [*SMALL_RUN, *settings])
    jp, grid = config.junction, config.grid
    tables = _BandTables(jp, grid.k_integration)
    for t in grid.temperatures:
        tables.fill(t)
        rates = np.array([tables.rates(d, jp.sc.delta0)[0] for d in grid.detunings])
        assert np.isfinite(rates).all() and rates[:, 0].max() > 0


SMALL_RUN = ["grid.temperatures=0.5", "grid.detuning_points=3", "grid.quadrature_nodes=512"]


def assert_small_run_fails_cleanly(*settings, command="rates") -> int:
    """A small run succeeds or exits with one JSON line; warnings are errors in this suite.

    ``rates`` may exit 2 or 3.  ``dm`` may also exit 1: an annulus that the
    modes miss leaves no state to form.  Returns the exit code.
    """
    args = [command, "--config", "fig2"]
    base = list(SMALL_RUN)
    if command == "dm":
        base += ["emission.l_max=1", "emission.enhancements=10"]
    for setting in (*base, *settings):
        args += ["--set", setting]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main(args + ["--out", out])
    lines = err.getvalue().splitlines()
    if code == 0:
        assert lines == []
    else:
        assert code in ((2, 3) if command == "rates" else (1, 2, 3))
        assert len(lines) == 1 and "error" in json.loads(lines[0])
    return code


oam = st.integers(-6, 6)


@st.composite
def annuli(draw):
    r_inner = draw(st.floats(0.0, 6.0))
    r_outer = r_inner + draw(st.floats(0.0, 4.0))
    return AnnulusGeometry(r_inner, r_outer, draw(st.floats(1.0, 6.0)))


@SETTINGS
@given(a=oam, b=oam, geom=annuli())
def test_kappa_is_symmetric(a, b, geom):
    # bit for bit, which lets pair_state compute one overlap per unordered |l| pair
    value = kappa(a, b, geom)
    assert value == kappa(-a, b, geom) == kappa(b, a, geom)


# any finite double, with the ends and signs that break arithmetic drawn often
finite = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, -1.0, 1e-300, 1e300, 1.7e308, -1.7e308]),
)


@st.composite
def numeric_runs(draw):
    """A command and ``--set`` values of the temperature and emission keys, in and out of range.

    Temperatures, ``detuning_for_dm``, enhancements, ``l_max``, the qubit
    and the winding each take a typical value, or one time in four any
    value.  Half the runs also list ``l_values``: up to 4 values, within
    ``l_max`` when that is typical, or one time in four any |l| <= 3 (so
    also past ``l_max``, repeated, or none); a typical winding is then a
    total OAM of two listed values.  A small grid (512 nodes, 3
    detunings, 1-2 temperatures) and |l| <= 3 inside its range keep each
    run short.
    """

    def value(typical, wild):
        return draw(wild if draw(st.integers(0, 3)) == 0 else typical)

    def values(typical, wild):
        return [value(typical, wild) for _ in range(draw(st.integers(1, 2)))]

    command = draw(st.sampled_from(["rates", "dm", "fidelity"]))
    l_max = value(st.integers(1, 3), st.sampled_from([-1, 0, 13, 10**30]))
    sets = {
        "grid.temperatures": values(st.floats(0.01, 0.99), finite),
        "emission.detuning_for_dm": [value(st.floats(-8.0, 8.0), finite)],
        "emission.enhancements": values(st.floats(1.0, 1e3), finite),
        "emission.l_max": [l_max],
    }
    windings = st.integers(-2, 2)
    if draw(st.booleans()):
        bound = l_max if 1 <= l_max <= 3 else 3
        typical = st.lists(st.integers(-bound, bound), min_size=1, max_size=4, unique=True)
        l_values = value(typical, st.lists(st.integers(-3, 3), max_size=4))
        sets["emission.l_values"] = l_values
        if l_values:  # a typical winding is then one the listed values reach
            windings = st.sampled_from(sorted({a + b for a in l_values for b in l_values}))
    sets["emission.winding"] = [value(windings, st.sampled_from([-7, 7, 2**63]))]
    if draw(st.booleans()):
        theta = draw(st.floats(0.0, math.pi / 2))
        magnitudes = value(st.just((math.cos(theta), math.sin(theta))), st.tuples(finite, finite))
        for key, magnitude in zip(("emission.qubit_a", "emission.qubit_b"), magnitudes):
            sets[key] = [magnitude, value(st.floats(0.0, 2 * math.pi), finite)]
    overrides = [f"{key}={', '.join(map(repr, items))}" for key, items in sets.items()]
    return command, overrides


@settings(SETTINGS, max_examples=150)
@given(run=numeric_runs())
def test_any_numeric_emission_settings_write_their_files_or_fail_cleanly(run):
    """Under warnings as errors (this suite's setting), a run never ends in a traceback."""
    command, overrides = run
    args = [command, "--config", "fig3"]
    for setting in ("grid.detuning_points=3", "grid.quadrature_nodes=512", *overrides):
        args += ["--set", setting]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        code = main(args + ["--out", out])
        lines = err.getvalue().splitlines()
        if code == 0:
            assert lines == []
            with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
                listed = json.load(fh)["outputs"]
            assert sorted(os.listdir(out)) == sorted([*listed, "manifest.json"])
            for name, digest in listed.items():
                with open(os.path.join(out, name), "rb") as fh:
                    assert hashlib.sha256(fh.read()).hexdigest() == digest
        else:
            assert code in (1, 2, 3, 4)
            assert len(lines) == 1 and "error" in json.loads(lines[0])


@pytest.mark.parametrize(
    "basis",
    [
        ["emission.l_max=12"],  # 625 pairs, the largest basis
        ["emission.l_max=8", "emission.l_values=-6, -2, 1, 4, 8"],  # gapped, reaching winding 2
    ],
)
@pytest.mark.parametrize("command", ["dm", "fidelity"])
def test_the_widest_and_a_gapped_basis_write_their_files(command, basis):
    """Pinned runs past the fuzz's l_max <= 3, with SVG output and warnings as errors."""
    overrides = ["grid.temperatures=0.5", "emission.enhancements=10", "grid.quadrature_nodes=512"]
    overrides += basis
    args = [command, "--config", "fig3"]
    for setting in overrides:
        args += ["--set", setting]
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out, contextlib.redirect_stderr(err):
        assert main(args + ["--out", out]) == 0
        assert err.getvalue() == ""
        with open(os.path.join(out, "manifest.json"), encoding="utf-8") as fh:
            listed = json.load(fh)["outputs"]
        stem = "dm_0.5_10" if command == "dm" else "fidelity"
        data = f"{stem}.json" if command == "dm" else f"{stem}.csv"
        assert sorted(listed) == sorted([data, f"{stem}.svg"])
        assert sorted(os.listdir(out)) == sorted([*listed, "manifest.json"])
        for name, digest in listed.items():
            with open(os.path.join(out, name), "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest
        with open(os.path.join(out, data), encoding="utf-8", newline="") as fh:
            text = fh.read()
    if command == "dm":
        rho = one_shot_dm(load_config("fig3", overrides), 0.5, 10.0)
        assert text == json.dumps(to_json_dict(rho), indent=2) + "\n"
    else:
        [row] = text.splitlines()[1:]
        assert 0.0 <= float(row.split(",")[2]) <= 1.0
