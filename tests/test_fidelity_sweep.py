"""The stacked fidelity sweep against the one-point route, point by point.

``fidelity_curve`` forms its mixtures only at the positions where one can be
nonzero, a chunk of points at a time, and takes their fidelities in stacked
numpy.  Each value must equal, bit for bit, ``fidelity`` of the full
one-shot mixture at that point, and the sweep must fail exactly where the
one-shot route first fails, with the same error.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sled_oam import (
    CoherenceParams,
    ContractError,
    KQuadrature,
    OamPairBasis,
    PairDensityMatrix,
    SledOamError,
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
from sled_oam.errors import at_point

BASIS = OamPairBasis.from_l_values([0, 1, 2])
WINDING = 2
TEMPS = (0.2, 0.5, 0.8)
ENHANCEMENTS = (10.0, 100.0)
D = 5.0
QUAD = KQuadrature(nodes=256)


@pytest.mark.parametrize("l_max", [3, 6])
def test_fig3_sweep_equals_one_shot_fidelities(l_max):
    # 13 x 2 points: one full chunk and a chunk of two
    temps = ",".join(f"{0.07 * i:g}" for i in range(1, 14))
    config = load_config(
        "fig3",
        [f"emission.l_max={l_max}", f"grid.temperatures={temps}", "emission.enhancements=10,100"],
    )
    assert len(config.grid.temperatures) * len(config.enhancements) % pair_state.MIXTURE_CHUNK
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


def test_the_sweep_builds_no_density_matrix_but_its_channels(junction, geometry, monkeypatch):
    built = []
    init = PairDensityMatrix.__init__

    def counting_init(self, basis, entries):
        built.append(np.shape(entries))
        init(self, basis, entries)

    monkeypatch.setattr(PairDensityMatrix, "__init__", counting_init)
    fidelity_curve(TEMPS, ENHANCEMENTS, WINDING, BASIS, geometry, D, junction, QUAD)
    assert built == [(9, 9)] * 2


def outcome(run):
    """The values of ``run()``, or the type and message of the error it raised."""
    try:
        return run()
    except SledOamError as exc:
        return type(exc), str(exc)


SECTOR = [BASIS.index(p) for p in pair_state.sector_pairs(BASIS, WINDING)]
# the coherent weight grows along this sweep, from 0.34 to 0.89
SKEW_TEMPS = (0.9, 0.8, 0.65, 0.5, 0.35, 0.2)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    point=st.integers(0, len(SKEW_TEMPS) - 1),
    ulps=st.integers(-8, 8),
    entry=st.permutations(SECTOR).map(lambda p: tuple(p[:2])),
)
@example(point=5, ulps=8, entry=(SECTOR[0], SECTOR[1]))
@example(point=0, ulps=-8, entry=(SECTOR[1], SECTOR[2]))
def test_a_skewed_channel_fails_in_the_sweep_where_it_fails_alone(
    junction, geometry, point, ulps, entry
):
    """The mixture's Hermitian skew is put within a few ulps of HERMITICITY_TOL at
    ``point``; the points after it, with a larger coherent weight, lie outside it,
    the points before it inside."""
    s_cp, s_bqp = mixing_rates(D, SKEW_TEMPS, junction, QUAD)[point]
    weight = 10.0 * s_cp / (10.0 * s_cp + s_bqp)
    coherent = pair_state.rho_cp(WINDING, BASIS, geometry)
    skew = pair_state.HERMITICITY_TOL * coherent.trace() / weight * (1.0 + ulps * 2.0**-52)
    coherent.entries[entry] += 1j * skew  # beyond the constructor's check
    incoherent = pair_state.rho_bqp(BASIS, geometry)
    target = bell_target(BASIS, WINDING)

    def sweep():
        with mock.patch.object(pair_state, "rho_superposition", lambda *args: coherent):
            table = fidelity_curve(SKEW_TEMPS, (10.0,), WINDING, BASIS, geometry, D, junction, QUAD)
        return table.values.ravel().tolist()

    def one_shot():
        values = []
        for t in SKEW_TEMPS:
            [(s_cp, s_bqp)] = mixing_rates(D, (t,), junction, QUAD)
            with at_point(t, 10.0):
                rho = pair_state.mixture(coherent, incoherent, 10.0 * s_cp, s_bqp)
                values.append(fidelity(rho, target))
        return values

    assert outcome(sweep) == outcome(one_shot)


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
