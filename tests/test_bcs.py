import json
import math
import os

import numpy as np
import pytest
import scipy.constants

from sled_oam import (
    BandParams,
    DomainError,
    JunctionParams,
    SuperconductorParams,
    coherence_factors,
    fermi_level_from_density,
    fermi_occupation,
    gaas_nb_junction,
    gap_at_temperature,
    quasiparticle_energy,
)
from sled_oam.bcs import KB_MEV_PER_K

# frozen reference values, evaluated independently with mpmath at 30 digits
TANH_174 = 0.940226640392727532
SQRT2 = 1.41421356237309504880
U_SQ_11 = 0.853553390593273762
V_SQ_11 = 0.146446609406726238
INV_1_PLUS_E = 0.268941421369995121
MU_1E12_0067 = 35.7295874977696269


class TestGap:
    def test_at_tc_is_zero(self):
        sc = SuperconductorParams(delta0=1.0, tc=9.2)
        assert gap_at_temperature(sc, 9.2) == 0.0

    def test_at_zero_is_delta0(self):
        sc = SuperconductorParams(delta0=1.0, tc=9.2)
        assert gap_at_temperature(sc, 0.0) == 1.0

    def test_half_tc_value(self):
        sc = SuperconductorParams(delta0=1.0, tc=1.0)
        assert gap_at_temperature(sc, 0.5) == pytest.approx(TANH_174, rel=1e-14)

    def test_above_tc_is_zero(self):
        sc = SuperconductorParams(delta0=2.0, tc=5.0)
        assert gap_at_temperature(sc, 7.3) == 0.0

    def test_negative_temperature_rejected(self):
        sc = SuperconductorParams(delta0=1.0, tc=9.2)
        with pytest.raises(DomainError):
            gap_at_temperature(sc, -0.1)

    def test_a_nan_temperature_is_rejected(self):
        sc = SuperconductorParams(delta0=1.0, tc=9.2)
        with pytest.raises(DomainError, match="non-negative, got nan"):
            gap_at_temperature(sc, math.nan)

    def test_monotone_nonincreasing(self):
        sc = SuperconductorParams(delta0=1.4, tc=9.2)
        temps = np.linspace(0.0, 9.2, 200)
        gaps = [gap_at_temperature(sc, t) for t in temps]
        assert all(a >= b for a, b in zip(gaps, gaps[1:]))


def gap_deviations():
    """|gap/Delta0 / delta - 1| of the presets' junction at each t of gap_reference.json."""
    with open(os.path.join(os.path.dirname(__file__), "reference", "gap_reference.json")) as fh:
        reference = json.load(fh)
    sc = gaas_nb_junction().sc
    return [
        abs(gap_at_temperature(sc, float(t) * sc.tc) / sc.delta0 / delta - 1)
        for t, delta in reference.items()
    ]


class TestFrozenGap:
    """The gap against the weak-coupling BCS solution delta(t) = Delta(T)/Delta0
    that ``reference/make_gap_reference.py`` froze at 21 reduced temperatures.
    The tanh interpolation misses it by up to 1.9e-2 (at t = 0.6)."""

    def test_the_tanh_form_is_within_two_percent(self):
        assert max(gap_deviations()) <= 2e-2

    @pytest.mark.xfail(
        strict=True,
        reason="gap_at_temperature is the tanh interpolation, not the solution of the gap "
        "equation, until Delta(T) is solved from it (ROADMAP item 21)",
    )
    def test_the_gap_equals_the_frozen_solution(self):
        assert max(gap_deviations()) <= 1e-12


class TestQuasiparticleEnergy:
    def test_gap_edge(self):
        assert quasiparticle_energy(0.0, 1.0) == 1.0

    def test_normal_state(self):
        assert quasiparticle_energy(3.0, 0.0) == 3.0

    def test_diagonal(self):
        assert quasiparticle_energy(1.0, 1.0) == pytest.approx(SQRT2, rel=1e-15)

    def test_bounded_below_by_gap(self):
        for xi in np.logspace(-8, 2, 40):
            assert quasiparticle_energy(xi, 0.7) > 0.7
        assert quasiparticle_energy(0.0, 0.7) == 0.7

    def test_negative_delta_rejected(self):
        with pytest.raises(DomainError):
            quasiparticle_energy(1.0, -0.5)

    @pytest.mark.parametrize("delta", [np.float64(-0.5), -1, np.array([0.5, -0.5])], ids=repr)
    def test_a_negative_numpy_int_or_array_gap_is_rejected(self, delta):
        with pytest.raises(DomainError, match="non-negative"):
            quasiparticle_energy(np.array([1.0, 2.0]), delta)

    def test_a_nan_gap_passes_through(self):
        assert math.isnan(quasiparticle_energy(1.0, math.nan))
        energies = quasiparticle_energy(np.array([1.0, 1.0]), np.array([0.5, math.nan]))
        assert energies[0] == math.hypot(1.0, 0.5) and math.isnan(energies[1])


class TestCoherenceFactors:
    def test_symmetry_point(self):
        u, v = coherence_factors(0.0, 1.0)
        assert u == 0.5 and v == 0.5

    def test_normal_state_above_fermi(self):
        u, v = coherence_factors(1.0, 0.0)
        assert u == 1.0 and v == 0.0

    def test_diagonal_values(self):
        u, v = coherence_factors(1.0, 1.0)
        assert u == pytest.approx(U_SQ_11, rel=1e-14)
        assert v == pytest.approx(V_SQ_11, rel=1e-14)

    def test_singular_point_rejected(self):
        with pytest.raises(DomainError):
            coherence_factors(0.0, 0.0)

    def test_sum_to_one(self):
        xi = np.concatenate([-np.logspace(-6, 2, 50), np.logspace(-6, 2, 50)])
        for delta in (0.3, 1.4):
            u, v = coherence_factors(xi, delta)
            assert np.max(np.abs(u + v - 1.0)) <= 1e-14

    def test_particle_hole_symmetry(self):
        xi = np.logspace(-6, 2, 60)
        u_pos, _ = coherence_factors(xi, 1.1)
        _, v_neg = coherence_factors(-xi, 1.1)
        assert np.max(np.abs(u_pos - v_neg)) <= 1e-14


class TestFermiOccupation:
    def test_zero_energy(self):
        assert fermi_occupation(0.0, 4.0) == 0.5

    def test_step_limit(self):
        assert fermi_occupation(1.0, 0.0) == 0.0
        assert fermi_occupation(-1.0, 0.0) == 1.0
        assert fermi_occupation(0.0, 0.0) == 0.5

    def test_one_thermal_unit(self):
        t = 7.0
        e = KB_MEV_PER_K * t
        assert fermi_occupation(e, t) == pytest.approx(INV_1_PLUS_E, rel=1e-14)

    def test_complement_identity(self):
        # fbar = f(-e), as spectral's band tables take it: f + fbar = 1 within
        # one ulp of 1, not exactly
        t = 3.3
        energies = np.linspace(-40, 40, 101)
        f = fermi_occupation(energies, t)
        assert np.max(np.abs(f + fermi_occupation(-energies, t) - 1.0)) <= 2**-52
        energies = np.linspace(-50, 50, 200_001)
        for t in (0.1, 1.0, 4.6, 8.7):
            f = fermi_occupation(energies, t)
            fb = fermi_occupation(-energies, t)
            assert np.max(np.abs(f + fb - 1.0)) <= 2**-52

    def test_negative_temperature_rejected(self):
        with pytest.raises(DomainError):
            fermi_occupation(1.0, -2.0)

    def test_a_nan_temperature_is_rejected(self):
        with pytest.raises(DomainError, match="non-negative, got nan"):
            fermi_occupation(1.0, math.nan)


class TestFermiLevel:
    def test_reference_value(self):
        assert fermi_level_from_density(1e12, 0.067) == pytest.approx(
            MU_1E12_0067, rel=1e-12
        )

    def test_against_scipy_constants(self):
        # independent unit conversion straight from scipy's CODATA table
        n_m2 = 1e12 * 1e4
        mu_j = math.pi * scipy.constants.hbar**2 * n_m2 / (0.067 * scipy.constants.m_e)
        mu_mev = mu_j / scipy.constants.e * 1e3
        assert fermi_level_from_density(1e12, 0.067) == pytest.approx(mu_mev, rel=1e-9)

    def test_linear_in_density(self):
        assert fermi_level_from_density(2e12, 0.067) == pytest.approx(
            2.0 * fermi_level_from_density(1e12, 0.067), rel=1e-14
        )

    def test_inverse_in_mass(self):
        assert fermi_level_from_density(1e12, 0.134) == pytest.approx(
            0.5 * fermi_level_from_density(1e12, 0.067), rel=1e-12
        )

    def test_invalid_inputs(self):
        with pytest.raises(DomainError):
            fermi_level_from_density(-1e12, 0.067)
        with pytest.raises(DomainError):
            fermi_level_from_density(1e12, 0.0)


class TestJunctionParams:
    def test_broadening_from_dephasing(self):
        jp = gaas_nb_junction(dephasing_time=1000.0)
        assert jp.broadening == pytest.approx(0.6582119565476075, rel=1e-12)

    def test_invalid_parameters(self):
        sc = SuperconductorParams(1.4, 9.2)
        cb = BandParams(0.067, 35.7)
        vb = BandParams(0.45, 5.3)
        with pytest.raises(DomainError):
            JunctionParams(sc, cb, vb, dephasing_time=0.0)
        with pytest.raises(DomainError):
            BandParams(-0.1, 30.0)
        with pytest.raises(DomainError):
            SuperconductorParams(0.0, 9.2)

    @pytest.mark.parametrize(
        "build, name",
        [
            (lambda: SuperconductorParams(math.inf, 9.2), "delta0"),
            (lambda: SuperconductorParams(1.4, math.inf), "tc"),
            (lambda: BandParams(math.inf, 35.7), "effective_mass"),
            (lambda: BandParams(0.067, math.inf), "quasi_fermi_level"),
            (lambda: BandParams(0.067, 35.7, gap_scale=math.inf), "gap_scale"),
        ],
        ids=["delta0", "tc", "mass", "fermi_level", "gap_scale"],
    )
    def test_an_infinite_parameter_is_rejected(self, build, name):
        with pytest.raises(DomainError, match=rf"^{name} must be finite, got inf$"):
            build()

    def test_a_non_positive_parameter_keeps_its_message(self):
        with pytest.raises(DomainError, match=r"^tc must be positive, got nan$"):
            SuperconductorParams(1.4, math.nan)

    def test_preset_fermi_levels(self):
        jp = gaas_nb_junction()
        assert jp.conduction.quasi_fermi_level == pytest.approx(MU_1E12_0067, rel=1e-12)
        ratio = jp.conduction.effective_mass / jp.valence.effective_mass
        assert jp.valence.quasi_fermi_level == pytest.approx(
            MU_1E12_0067 * ratio, rel=1e-12
        )
