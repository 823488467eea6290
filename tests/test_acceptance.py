"""Acceptance suite.

Each test checks one release criterion at its stated tolerance and prints a
PASS line (run with ``pytest -s tests/test_acceptance.py`` to see them).
"""

import json
import os
import time

import numpy as np
import pytest

from sled_oam import (
    AnnulusGeometry,
    CoherenceParams,
    KQuadrature,
    OamPairBasis,
    PairDensityMatrix,
    QubitState,
    SpectralGrid,
    TargetState,
    bell_target,
    fidelity,
    fidelity_curve,
    gap_at_temperature,
    kappa,
    rate_surfaces,
    rho_cp,
    rho_superposition,
    rho_total,
    rho_total_superposition,
    sqrtm_psd,
)
from sled_oam.cli import main
from sled_oam.config import load_config

from dm_json import from_json_dict
from test_modes import riemann_kappa


def report(number, description):
    print(f"\nACCEPTANCE {number} PASS: {description}")


@pytest.fixture(scope="module")
def fig2():
    """Both rate surfaces on the full fig2 preset grid."""
    config = load_config("fig2")
    cp, bqp = rate_surfaces(config.grid, config.junction)
    return config, cp, bqp


def local_max_at_zero(surface, row):
    detunings = np.asarray(surface.grid.detunings)
    i0 = int(np.argmin(np.abs(detunings)))
    values = surface.values[row]
    return values[i0] > values[i0 - 1] and values[i0] > values[i0 + 1]


def test_criterion_1_cold_peaks_at_twice_the_gap():
    config = load_config("fig2")
    grid = SpectralGrid(
        detunings=tuple(np.linspace(-6.0, 6.0, 121)),
        temperatures=(0.1,),
        k_integration=KQuadrature(nodes=4096),
    )
    start = time.monotonic()
    cp, _ = rate_surfaces(grid, config.junction)
    elapsed = time.monotonic() - start
    detunings = np.asarray(grid.detunings)
    step = detunings[1] - detunings[0]
    sc = config.junction.sc
    target = 2.0 * gap_at_temperature(sc, 0.1 * sc.tc) / sc.delta0
    peak = abs(detunings[int(np.argmax(cp.values[0]))])
    assert abs(peak - target) <= step + 1e-12
    assert elapsed < 60.0
    report(1, f"cold-spectrum argmax |d|={peak:.3f} vs 2*gap={target:.4f} "
              f"(one step = {step:.2f}), {elapsed:.1f}s single-threaded")


def test_criterion_2_zero_detuning_peak_only_when_hot(fig2):
    config, cp, bqp = fig2
    temps = list(config.grid.temperatures)
    row_hot = temps.index(0.9)
    row_warm = temps.index(0.5)
    assert local_max_at_zero(cp, row_hot)
    assert local_max_at_zero(bqp, row_hot)
    assert not local_max_at_zero(cp, row_warm)
    assert not local_max_at_zero(bqp, row_warm)
    report(2, "zero-detuning local maximum present in both channels at t=0.9, "
              "absent in both at t=0.5")


def test_criterion_3_incoherent_channel_is_weaker(fig2):
    _, cp, bqp = fig2
    assert cp.values.max() == 1.0
    bqp_max = float(bqp.values.max())
    assert bqp_max < 1.0
    report(3, f"normalized incoherent surface maximum {bqp_max:.4f} < 1")


def test_criterion_4_selection_rule_is_exact(geometry):
    start = time.monotonic()
    basis = OamPairBasis.full(3)
    rho = rho_cp(2, basis, geometry)
    in_sector = np.array([l1 + l2 == 2 for l1, l2 in basis.pairs])
    outside = ~(np.outer(in_sector, in_sector))
    assert np.all(rho.entries[outside] == 0.0)
    populated = [basis.pairs[i] for i in np.flatnonzero(in_sector)]
    assert populated == [(-1, 3), (0, 2), (1, 1), (2, 0), (3, -1)]
    assert np.all(rho.entries.diagonal().real[in_sector] > 0.0)
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    report(4, f"winding-2 selection sector exact (5 pairs, {elapsed*1e3:.0f} ms)")


def test_criterion_5_diagonal_background_mixing_trend(junction, geometry):
    basis = OamPairBasis.full(3)
    out = ~np.array([l1 + l2 == 2 for l1, l2 in basis.pairs])
    quad = KQuadrature(nodes=4096)

    def background(t, enh):
        rho = rho_total(2, basis, geometry, 5.0, t, junction, CoherenceParams(enh), quad)
        return float(rho.diagonal()[out].sum())

    gap_small = background(0.9, 10.0) - background(0.5, 10.0)
    gap_large = background(0.9, 100.0) - background(0.5, 100.0)
    assert gap_small > 0.0
    assert gap_large < gap_small
    report(5, f"off-sector diagonal mass grows with t (gap {gap_small:.3f} at "
              f"enhancement 10) and the growth shrinks to {gap_large:.3f} at 100")


def test_criterion_6_superposition_transfer(geometry):
    basis = OamPairBasis.full(3)
    trivial = rho_superposition(QubitState(1.0, 0.0), 2, basis, geometry)
    reference = rho_cp(2, basis, geometry)
    assert np.array_equal(trivial.entries, reference.entries)

    a = b = 1.0 / np.sqrt(2.0)
    plus = rho_superposition(QubitState(a, b), 2, basis, geometry).entries
    minus = rho_superposition(QubitState(a, -b), 2, basis, geometry).entries
    pos = np.array([l1 + l2 == 2 for l1, l2 in basis.pairs])
    neg = np.array([l1 + l2 == -2 for l1, l2 in basis.pairs])
    cross = np.outer(pos, neg) | np.outer(neg, pos)
    assert np.array_equal(minus[cross], -plus[cross])
    assert np.array_equal(minus[~cross], plus[~cross])
    assert np.abs(plus[cross]).max() > 0.0

    phase = np.exp(1.3j)
    rotated = rho_superposition(QubitState(phase * a, phase * b), 2, basis, geometry).entries
    assert np.abs(rotated - plus).max() <= 1e-12
    report(6, "qubit amplitudes map onto sector blocks: trivial case entrywise "
              "equal, sign flip confined to cross blocks, global phase inert")


def test_criterion_7_fidelity_ordering_and_limits(junction, geometry):
    basis = OamPairBasis.from_l_values([0, 1])
    quad = KQuadrature(nodes=4096)
    temps = (0.1, 0.3, 0.5, 0.7, 0.9)
    table = fidelity_curve(temps, (10.0, 100.0), 1, basis, geometry, 5.0, junction, quad=quad)
    assert np.all(table.values[:, 1] >= table.values[:, 0])
    decline = table.values[1:, 0]  # t = 0.3 .. 0.9 at enhancement 10
    assert all(a > b for a, b in zip(decline, decline[1:]))
    rho = rho_total(1, basis, geometry, 5.0, 0.1, junction, CoherenceParams(1e6), quad)
    f_limit = fidelity(rho, bell_target(basis, 1))
    assert f_limit > 0.999
    report(7, f"fidelity ordered in enhancement, strictly decreasing in t at 10 "
              f"({', '.join(f'{v:.3f}' for v in decline)}), and {f_limit:.6f} at "
              f"enhancement 1e6")


def test_criterion_8_numerical_oracles(junction, rng):
    # general fidelity vs pure shortcut
    worst_fid = 0.0
    for _ in range(500):
        n = int(rng.integers(2, 12))
        basis = OamPairBasis([(0, i) for i in range(n)], n)
        rank = int(rng.integers(1, n + 1))
        g = rng.normal(size=(n, rank)) + 1j * rng.normal(size=(n, rank))
        m = g @ g.conj().T
        m /= np.trace(m).real
        psi = rng.normal(size=n) + 1j * rng.normal(size=n)
        psi /= np.linalg.norm(psi)
        f = fidelity(PairDensityMatrix(basis, m), TargetState(basis, psi))
        worst_fid = max(worst_fid, abs(f - float((psi.conj() @ m @ psi).real)))
    assert worst_fid < 1e-9

    # matrix square-root round trip
    worst_root = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 12))
        g = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        a = g @ g.conj().T
        s = sqrtm_psd(a)
        worst_root = max(worst_root, float(np.abs(s @ s - a).max() / np.abs(a).max()))
    assert worst_root < 1e-9

    # adaptive overlap quadrature vs brute force
    worst_kappa = 0.0
    for _ in range(20):
        r_in = float(rng.uniform(0.0, 6.0))
        geom = AnnulusGeometry(r_in, r_in + float(rng.uniform(0.5, 4.0)),
                               float(rng.uniform(1.0, 5.0)))
        a, b = int(rng.integers(-5, 6)), int(rng.integers(-5, 6))
        ours = kappa(a, b, geom)
        ref = riemann_kappa(a, b, geom)
        if abs(ref) > 1e-12:
            worst_kappa = max(worst_kappa, abs(ours - ref) / abs(ref))
        else:
            assert abs(ours) <= 1e-12
    assert worst_kappa < 1e-8

    # density-matrix structural invariants under fuzzing
    geom = AnnulusGeometry.default()
    quad = KQuadrature(nodes=64, cutoff_delta0=10.0)
    for _ in range(300):
        l_max = int(rng.integers(1, 4))
        basis = OamPairBasis.full(l_max)
        ls = int(rng.integers(-l_max, l_max + 1))
        t = float(rng.uniform(0.05, 0.95))
        d = float(rng.uniform(-6.0, 6.0))
        enh = float(10.0 ** rng.uniform(0.0, 4.0))
        if rng.uniform() < 0.5:
            theta = float(rng.uniform(0.0, np.pi / 2.0))
            q = QubitState.from_polar(
                np.cos(theta), 0.0, np.sin(theta), float(rng.uniform(0, 2 * np.pi))
            )
            rho = rho_total_superposition(q, ls, basis, geom, d, t, junction,
                                          CoherenceParams(enh), quad)
        else:
            rho = rho_total(ls, basis, geom, d, t, junction, CoherenceParams(enh), quad)
        assert np.abs(rho.entries - rho.entries.conj().T).max() <= 1e-12
        assert abs(rho.trace() - 1.0) <= 1e-12
        assert float(np.linalg.eigvalsh(rho.entries).min()) >= -1e-10

    report(8, f"oracles: fidelity cross-check {worst_fid:.2e}, sqrt round-trip "
              f"{worst_root:.2e}, overlap quadrature {worst_kappa:.2e}, 300 fuzzed "
              f"mixtures Hermitian/PSD/trace-1")


def _data_files(out):
    """Bytes of every data file a run wrote, by name; the manifest is telemetry."""
    files = {}
    for name in sorted(os.listdir(out)):
        if name != "manifest.json" and name.endswith((".csv", ".json")):
            with open(os.path.join(out, name), "rb") as fh:
                files[name] = fh.read()
    return files


def test_criterion_9_a_temperature_does_not_depend_on_the_rest_of_the_sweep(tmp_path):
    def run(command, name, temperatures=None):
        out = str(tmp_path / name)
        args = [command, "--config", "fig3", "--out", out, "--set", "output.svg=false"]
        if temperatures is not None:
            args += ["--set", f"grid.temperatures={temperatures}"]
        assert main(args) == 0
        return _data_files(out)

    # dm: the files of a subset of the temperatures are those of the full sweep
    dm_full = run("dm", "dm_full")
    dm_part = run("dm", "dm_part", "0.9")
    assert sorted(dm_part) == ["dm_0.9_10.json", "dm_0.9_100.json"]
    assert all(dm_part[name] == dm_full[name] for name in dm_part)

    # rates: the normalization spans the whole sweep, so the temperatures are
    # reversed rather than subset; each temperature's rows stay bit for bit
    def sorted_rows(files):
        return {name: sorted(data.decode().splitlines()[1:]) for name, data in files.items()}

    forward = run("rates", "rates_forward", "0.5, 0.9")
    backward = run("rates", "rates_backward", "0.9, 0.5")
    assert sorted(forward) == ["rates_bqp.csv", "rates_cp.csv"]
    assert sorted_rows(forward) == sorted_rows(backward)
    assert forward != backward  # the rows did come out in the other order

    rho = from_json_dict(json.loads(dm_full["dm_0.5_100.json"]))
    assert len(rho.basis) == 49
    for i, pi in enumerate(rho.basis.pairs):
        for j, pj in enumerate(rho.basis.pairs):
            if i != j and not (pi[0] + pi[1] == 2 and pj[0] + pj[1] == 2):
                assert rho.entries[i, j] == 0.0
    report(9, "a fig3 temperature's dm files are byte-identical when run alone and its "
              "rates rows bit-identical with the sweep reversed; dm JSON carries the "
              "full 49-pair basis with sector-only structure")
