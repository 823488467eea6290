"""Tests of the benchmark itself: span arithmetic, generator, output checks."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import check
import run
import tracing
import workloads


def _span(name, start, end, parent=-1, error=False, note=None):
    return [name, start, end, parent, "inv", error, note]


def test_self_times_subtract_children_once():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("spectral.rate_surfaces", 1.0, 4.0, parent=0),
        _span("bcs.gap_at_temperature", 2.0, 3.0, parent=1),
        _span("outputs.write_csv", 5.0, 9.0, parent=0),
    ]
    assert tracing.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_self_times_count_overlapping_children_as_their_union():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("spectral.rate_surfaces", 1.0, 5.0, parent=0),
        _span("spectral.rate_surfaces", 3.0, 7.0, parent=0),
        _span("outputs.write_csv", 9.0, 12.0, parent=0),
    ]
    assert tracing.self_times(spans)[0] == pytest.approx(10.0 - 6.0 - 1.0)


def test_layer_metrics_on_a_synthetic_tree():
    spans = [
        _span("cli.main", 0.0, 10.0),
        _span("pair_state.rho_total", 1.0, 6.0, parent=0),
        _span("modes.kappa", 1.5, 2.5, parent=1, note="a"),
        _span("modes.kappa", 3.0, 3.5, parent=1, note="a", error=True),
        _span("spectral.mixing_rates", 4.0, 6.0, parent=1),
        _span("bcs.gap_at_temperature", 4.5, 5.0, parent=4),
    ]
    m = run.layer_metrics(spans, temperatures=(0.5,))
    assert m["modes.kappa.calls"] == 2
    assert m["modes.kappa.distinct"] == 1
    assert m["modes.errors"] == 1
    assert m["pair_state.rho_total.self_s"] == pytest.approx(1.5)
    assert m["spectral.mixing_rates.self_s"] == pytest.approx(1.5)
    assert m["spectral.points_per_s"] == pytest.approx(2 / 1.5)
    assert m["spectral.band_table_reuse"] == pytest.approx(1.0)
    assert m["cli.self_s"] == pytest.approx(5.0)
    assert sum(m[f"{layer}.share"] for layer in run.LAYERS) == pytest.approx(1.0)


def test_every_declared_metric_is_computed():
    spans = [_span("cli.main", 0.0, 1.0)]
    result = {
        "invocation": workloads.generate("surface", 0),
        "runs": [
            {"traced": True, "spans": spans, "wall_s": 1.0, "bytes": 7},
            {"traced": False, "spans": [], "wall_s": 0.9, "setup_s": 0.2, "cpu_s": 0.9,
             "peak_rss_mb": 30.0, "bytes": 7, "calib_s": [0.04, 0.05]},
        ],
        "speedup": {"speedup": 0.95},
    }
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    layer = run.per_layer(result)
    assert {d["name"] for d in declared["per_layer"]} <= set(layer)
    assert layer["trace.overhead_s"] == pytest.approx(0.1)
    e2e, _ = run.end_to_end(result)
    assert {d["name"] for d in declared["end_to_end"]} | set(run.PRINTED_UNITS) <= set(e2e)
    assert e2e["wall_rel"] == pytest.approx(0.9 / 0.045)


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    value, pct = run.tail([float(i) for i in range(15, 0, -1)])
    assert value == 5.0  # ten samples (6..15) lie beyond it
    assert pct == pytest.approx(100 * 5 / 15)


def test_seed_zero_is_the_documented_command():
    temps = ",".join(f"{k / 100:g}" for k in range(1, 96))
    assert workloads.generate("surface", 0).argv == ("rates", "--config", "fig2", "--threads", "1")
    assert workloads.generate("dm_wide", 0).argv == (
        "dm", "--config", "fig3", "--threads", "1",
        "--set", "emission.l_max=6", "--set", "grid.verify_quadrature=true",
    )
    assert workloads.generate("fidelity_scan", 0).argv == (
        "fidelity", "--config", "fig3", "--threads", "1",
        "--set", f"grid.temperatures={temps}", "--set", "emission.enhancements=10,30,100",
    )


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_generator_is_deterministic_per_seed_and_keeps_work_size(name):
    spec = workloads.WORKLOADS[name]
    lo, hi = spec.temperature_range
    for seed in (1, 2, 17):
        first, again = workloads.generate(name, seed), workloads.generate(name, seed)
        assert first == again
        temps = first.temperatures
        assert len(temps) == len(set(temps)) == len(spec.seed0_temperatures)
        assert temps == tuple(sorted(temps)) and lo <= temps[0] and temps[-1] <= hi
        assert first.argv[: len(spec.base_argv)][:5] == spec.base_argv[:5]
    assert workloads.generate(name, 1).temperatures != workloads.generate(name, 2).temperatures


def test_tracer_wraps_every_binding_of_a_name():
    code = (
        "import numpy as np, sled_oam, sled_oam.cli as cli\n"
        "from sled_oam import metrics, modes, pair_state\n"
        "from tracing import Tracer\n"
        "t = Tracer('x'); t.install()\n"
        "assert pair_state.kappa is modes.kappa is sled_oam.kappa\n"
        "assert cli.fidelity_curve is metrics.fidelity_curve\n"
        "assert hasattr(metrics.eigh, '__wrapped__')\n"
        "metrics.sqrtm_psd(np.eye(3))\n"
        "print([s[0] for s in t.spans])\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([run.SRC, run.BENCH_DIR]))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "['metrics.eigh']"


@pytest.fixture(scope="module")
def fidelity_outputs(tmp_path_factory):
    inv = workloads.generate("fidelity_scan", 0)
    cwd = str(tmp_path_factory.mktemp("fidelity"))
    rec = run.invoke(inv, cwd)
    assert "problem" not in rec
    return inv, check.find_out_dir(cwd)


def test_output_check_accepts_the_reference_run(fidelity_outputs):
    inv, out_dir = fidelity_outputs
    data = check.check_outputs(inv, out_dir)
    assert check.compare_reference(data, check.load_reference(inv.workload), 1e-3) == 0.0


def test_output_check_rejects_a_file_perturbed_by_1e_2(fidelity_outputs, tmp_path):
    inv, out_dir = fidelity_outputs
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    lines = (copy / "fidelity.csv").read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    perturbed = [lines[0]] + [f"{t},{e},{float(f) * (1 - 1e-2)!r}" for t, e, f in rows]
    (copy / "fidelity.csv").write_text("\n".join(perturbed) + "\n")
    with pytest.raises(check.CheckFailed, match="SHA-256"):
        check.check_outputs(inv, str(copy))

    manifest = json.loads((copy / "manifest.json").read_text())
    manifest["outputs"]["fidelity.csv"] = check._sha256(str(copy / "fidelity.csv"))
    (copy / "manifest.json").write_text(json.dumps(manifest))
    reference = check.load_reference(inv.workload)
    with pytest.raises(check.CheckFailed, match="deviation 1.000e-02"):
        run.check_invocation(inv, str(tmp_path), reference, 1e-3)


def _fake_dm_outputs(tmp_path, rho):
    inv = workloads.generate("dm_wide", 0)
    out = tmp_path / "out_fig3"
    out.mkdir()
    listed = {}
    for name in inv.expected_files():
        payload = {"basis": [[0, 0], [0, 1], [1, 0]], "re": rho.real.tolist(), "im": rho.imag.tolist()}
        (out / name).write_text(json.dumps(payload) if name.endswith(".json") else "<svg/>")
        listed[name] = check._sha256(str(out / name))
    (out / "manifest.json").write_text(json.dumps({"outputs": listed}))
    return inv, str(out)


@pytest.mark.parametrize(
    "entries, reason",
    [
        ([[0.5, 0.0, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], None),
        ([[0.7, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, -0.1]], "not PSD"),
        ([[0.5, 0.0, 0.0], [0.0, 0.4, 0.0], [0.0, 0.0, 0.0]], "trace"),
        ([[0.5, 0.1, 0.0], [0.0, 0.5, 0.0], [0.0, 0.0, 0.0]], "not Hermitian"),
    ],
)
def test_output_check_enforces_density_matrix_invariants(tmp_path, entries, reason):
    inv, out_dir = _fake_dm_outputs(tmp_path, np.asarray(entries, dtype=complex))
    if reason is None:
        assert len(check.check_outputs(inv, out_dir)) == 4
    else:
        with pytest.raises(check.CheckFailed, match=reason):
            check.check_outputs(inv, out_dir)


def test_nonzero_exit_counts_as_failed(tmp_path):
    good = workloads.generate("fidelity_scan", 0)
    bad = workloads.Invocation(good.workload, 0, good.argv + ("--set", "grid.bogus=1"), good.temperatures)
    rec = run.invoke(bad, str(tmp_path / "bad"))
    assert rec["rc"] == 2
    assert rec["problem"].startswith("exit code 2")
    ok = {"traced": False, "wall_s": 1.0, "setup_s": 0.1, "cpu_s": 1.0, "peak_rss_mb": 9.0,
          "calib_s": [0.05, 0.05]}
    result = {"runs": [ok, dict(rec, traced=False)]}
    metrics, notes = run.end_to_end(result)
    assert metrics["failed_frac"] == notes["failed_frac"] == 0.5
