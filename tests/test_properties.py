"""Property tests for the invariants of the single spectral evaluation path.

Random small configurations (64-256 nodes, exactly symmetric detuning grids of
3-9 points, 1-3 temperatures, the doubled-node check on or off) must give
surfaces that are the per-point rates divided by one normalization, rows that
are exact mirror images, and fidelity curves equal to the one-shot mixture at
every point, all bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sled_oam import (
    CoherenceParams,
    ConvergenceError,
    KQuadrature,
    OamPairBasis,
    SpectralGrid,
    bell_target,
    fidelity,
    fidelity_curve,
    rate_surfaces,
    rho_total,
    s_bqp,
    s_cp,
)

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
