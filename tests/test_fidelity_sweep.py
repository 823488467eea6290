"""The mixture sweep and the stacked fidelity sweep against the one-point route.

``pair_state.mixture_sweep`` forms each mixture only at the cells where it
can be nonzero, every point in one pass; each must equal, bit for bit, the
dense mixture of ``dense_mixture`` on the full matrix at that point.
``fidelity_curve`` takes their fidelities in stacked numpy.  Each value must
equal, bit for bit, ``fidelity`` of ``rho_total`` (the sweep at that one
point, on the full matrix), and the sweep must fail exactly where the
one-point route first fails, with the same error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import (
    CoherenceParams,
    ContractError,
    KQuadrature,
    OamPairBasis,
    PairDensityMatrix,
    QubitState,
    bell_target,
    fidelity,
    fidelity_curve,
    metrics,
    mixing_rates,
    pair_state,
    rho_total,
    spectral,
)
from sled_oam.config import load_config
from sled_oam.pair_state import CLOCKWISE
from dense_mixture import mixture

BASIS = OamPairBasis.from_l_values([0, 1, 2])
WINDING = 2
TEMPS = (0.2, 0.5, 0.8)
ENHANCEMENTS = (10.0, 100.0)
D = 5.0
QUAD = KQuadrature(nodes=512)


@pytest.mark.parametrize("l_max", [3, 6])
def test_fig3_sweep_equals_one_shot_fidelities(l_max):
    temps = ",".join(f"{0.07 * i:g}" for i in range(1, 14))
    config = load_config(
        "fig3",
        [f"emission.l_max={l_max}", f"grid.temperatures={temps}", "emission.enhancements=10,100"],
    )
    basis = config.basis
    args = (config.winding, basis, config.geometry, config.detuning_for_dm)
    table = fidelity_curve(
        config.grid.temperatures,
        config.enhancements,
        *args,
        config.junction,
        config.grid.k_integration,
    )
    target = bell_target(basis, config.winding)
    for i, t in enumerate(config.grid.temperatures):
        for j, enh in enumerate(config.enhancements):
            rho = rho_total(
                *args, t, config.junction, CoherenceParams(enh), config.grid.k_integration
            )
            assert table.values[i, j] == fidelity(rho, target)


@pytest.mark.parametrize("temps, enhancements", [((), ENHANCEMENTS), (TEMPS, ())])
def test_an_empty_sweep_has_no_rows_and_no_error(junction, geometry, temps, enhancements):
    table = fidelity_curve(temps, enhancements, WINDING, BASIS, geometry, D, junction, QUAD)
    assert table.values.shape == (len(temps), len(enhancements))
    cells, mixtures, error = pair_state.mixture_sweep(
        CLOCKWISE, WINDING, BASIS, geometry, D, temps, enhancements, junction, QUAD
    )
    assert mixtures.shape == (0, len(cells)) and error is None


def test_a_counterclockwise_target_block_off_the_held_cells_reads_zero(junction, geometry):
    """A pure counterclockwise current populates only the -ls sector, so the
    sweep holds the +ls target block on its diagonal alone; ``fidelity_curve``
    reads +0.0 at the rest, the full mixture's value there."""
    basis, q = OamPairBasis.full(2), QubitState(0, 1)
    support = bell_target(basis, WINDING).support
    cells, _, _ = pair_state.mixture_sweep(
        q, WINDING, basis, geometry, D, TEMPS[:1], ENHANCEMENTS[:1], junction, QUAD
    )
    block = (support[:, None] * len(basis) + support).ravel()
    assert set(block) & set(cells) == set(support * (len(basis) + 1))
    table = fidelity_curve(
        TEMPS, ENHANCEMENTS, WINDING, basis, geometry, D, junction, QUAD, qubit=q
    )
    target = bell_target(basis, WINDING)
    for i, t in enumerate(TEMPS):
        for j, enh in enumerate(ENHANCEMENTS):
            rho = pair_state.rho_total_superposition(
                q, WINDING, basis, geometry, D, t, junction, CoherenceParams(enh), QUAD
            )
            assert table.values[i, j] == fidelity(rho, target)


def test_the_sweep_builds_no_density_matrix(junction, geometry, monkeypatch):
    built = []
    init = PairDensityMatrix.__init__

    def counting_init(self, basis, entries):
        built.append(np.shape(entries))
        init(self, basis, entries)

    monkeypatch.setattr(PairDensityMatrix, "__init__", counting_init)
    fidelity_curve(TEMPS, ENHANCEMENTS, WINDING, BASIS, geometry, D, junction, QUAD)
    assert built == []


@st.composite
def emitted_states(draw):
    """A basis on an ``l_values`` list, a winding it populates and a qubit.

    The qubit has a -ls amplitude only where the basis populates -ls too.
    """
    values = draw(st.lists(st.integers(-3, 3), min_size=1, max_size=5, unique=True))
    basis = OamPairBasis.from_l_values(values)
    totals = sorted({l1 + l2 for l1, l2 in basis.pairs})
    ls = draw(st.sampled_from(totals))
    theta = 0.0
    if -ls in totals:
        theta = draw(st.sampled_from([0.0, math.pi / 2]) | st.floats(0.0, math.pi / 2))
    phases = draw(st.tuples(st.floats(0.0, 2 * math.pi), st.floats(0.0, 2 * math.pi)))
    q = QubitState.from_polar(math.cos(theta), phases[0], math.sin(theta), phases[1])
    return basis, ls, q


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(state=emitted_states(), enhancements=st.sampled_from([(10.0,), (1.0, 1e4)]))
def test_the_sweep_holds_the_full_mixture_at_its_cells(junction, geometry, state, enhancements):
    """Bit for bit, zero signs included, with +0.0 at every cell it does not hold.

    Each held value is the conjugate of its transpose within a few ulps of the
    largest (numpy's complex products may fuse a multiply and an add, so
    psi_i conj(psi_j) and the conjugate of psi_j conj(psi_i) can differ in
    their last bits), far inside ``HERMITICITY_TOL``: the full matrix's
    Hermitian checks cannot fail where the values are finite.  The diagonal,
    formed as re^2 + im^2, has no imaginary part at all.
    """
    basis, ls, q = state
    n = len(basis)
    cells, swept, error = pair_state.mixture_sweep(
        q, ls, basis, geometry, D, TEMPS, enhancements, junction, QUAD
    )
    assert error is None
    assert np.array_equal(cells, np.unique(cells))
    assert set(np.arange(n) * (n + 1)) <= set(cells)
    coherent = pair_state.rho_superposition(q, ls, basis, geometry)
    incoherent = pair_state.rho_bqp(basis, geometry)
    rates = mixing_rates(D, TEMPS, junction, QUAD)
    full = [
        mixture(coherent, incoherent, enh * s_cp, s_bqp).entries
        for s_cp, s_bqp in rates
        for enh in enhancements
    ]
    assert len(swept) == len(full)
    rows, cols = np.divmod(cells, n)
    transposed = np.searchsorted(cells, cols * n + rows)
    for values, expected in zip(swept, full):
        dense = np.zeros((n, n), dtype=complex)
        dense.flat[cells] = values
        assert dense.tobytes() == expected.tobytes()
        assert np.array_equal(dense.diagonal().imag, np.zeros(n))
        skew = np.abs(values - values[transposed].conj()).max()
        assert skew <= 2.0**-50 * np.abs(values).max()


def test_a_nan_trace_fails_the_unit_trace_check(junction, geometry):
    """The NaN lies at (1, 1), outside the target's support {(0, 1), (1, 0)}."""
    basis = OamPairBasis.from_l_values([0, 1])
    rho = rho_total(1, basis, geometry, D, 0.5, junction, CoherenceParams(10.0), QUAD)
    rho.entries[3, 3] = np.nan
    with pytest.raises(ContractError, match=r"unit trace, got nan$"):
        fidelity(rho, bell_target(basis, 1))


@pytest.mark.parametrize("point", [0, 4])
def test_a_nan_general_fidelity_fails_the_cross_check(junction, geometry, monkeypatch, point):
    decompose = metrics.eigh

    def nan_eigh(a):
        decomp = decompose(a)
        if np.ndim(a) == 3:
            decomp.eigenvalues[point] = np.nan
        return decomp

    monkeypatch.setattr(metrics, "eigh", nan_eigh)
    with pytest.raises(ContractError, match="cross-check failed: general nan") as failed:
        fidelity_curve(TEMPS, ENHANCEMENTS, WINDING, BASIS, geometry, D, junction, QUAD)
    t, enh = TEMPS[point // 2], ENHANCEMENTS[point % 2]
    assert str(failed.value).endswith(f" (at t={t}, enhancement={enh})")


def test_an_earlier_cross_check_failure_wins_over_a_later_mixture_failure(
    junction, geometry, monkeypatch
):
    """The last temperature's total rate is infinite, so the sweep raises when it
    reaches it; the cross-check of the points before it still comes first."""
    decompose = metrics.eigh

    def nan_eigh(a):
        decomp = decompose(a)
        if np.ndim(a) == 3:
            decomp.eigenvalues[1] = np.nan
        return decomp

    rates = mixing_rates(D, TEMPS, junction, QUAD)
    rates[-1] = (math.inf, rates[-1][1])
    monkeypatch.setattr(spectral, "mixing_rates", lambda *args: rates)
    monkeypatch.setattr(metrics, "eigh", nan_eigh)
    failed = r"^fidelity cross-check failed: general nan .* \(at t=0.2, enhancement=100.0\)$"
    with pytest.raises(ContractError, match=failed):
        fidelity_curve(TEMPS, ENHANCEMENTS, WINDING, BASIS, geometry, D, junction, QUAD)


# the fidelity_scan command's temperatures: 0.01, 0.02, ..., 0.95
SCAN_TEMPERATURES = ",".join(f"{k / 100:g}" for k in range(1, 96))


@pytest.mark.parametrize(
    "preset, overrides",
    [
        ("fig3", [f"grid.temperatures={SCAN_TEMPERATURES}", "emission.enhancements=10,30,100"]),
        ("fig5", []),
        ("fig3", ["emission.qubit_a=0.6,0.3", "emission.qubit_b=0.8,1.1"]),
        ("fig3", ["emission.qubit_a=0,0", "emission.qubit_b=1,0"]),
        ("fig3", ["emission.l_max=6"]),
    ],
    ids=["fidelity_scan", "fig5", "complex_qubit", "counterclockwise", "l_max_6"],
)
def test_the_closed_form_fidelity_equals_the_sweep(preset, overrides):
    """The emitted state is rank one plus diagonal, p v v^H/|v|^2 + (1 - p) diag(w^2)/sum w^2,
    so against a pure target psi its fidelity is

        F = p |psi^H v|^2/|v|^2 + (1 - p) sum |psi_i|^2 w_i^2 / sum w^2,

    p = e r_cp / (e r_cp + r_bqp) (ROADMAP item 8).  The sweep's eigensolver
    route gives it within 4.2e-15 relative at every point of these runs."""
    config = load_config(preset, overrides)
    basis, ls, geom, d = config.basis, config.winding, config.geometry, config.detuning_for_dm
    temps, enhancements = config.grid.temperatures, config.enhancements
    quad = config.grid.k_integration
    table = fidelity_curve(
        temps, enhancements, ls, basis, geom, d, config.junction, quad, config.qubit
    )
    psi = bell_target(basis, ls).coefficients
    v = pair_state._pair_vector(config.qubit, ls, basis, geom)
    w2 = pair_state._overlaps(basis, geom) ** 2
    pure = abs(np.vdot(psi, v)) ** 2 / np.vdot(v, v).real
    diagonal = np.sum(abs(psi) ** 2 * w2) / np.sum(w2)
    rates = mixing_rates(d, temps, config.junction, quad)
    for row, (s_cp, s_bqp) in zip(table.values, rates):
        for value, e in zip(row, enhancements):
            p = e * s_cp / (e * s_cp + s_bqp)
            assert abs(p * pure + (1 - p) * diagonal - value) <= 1e-12 * value
