import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

from sled_oam import __version__, bell_target, cli, fidelity, kappa, pair_state, spectral
from sled_oam.cli import main
from sled_oam.config import load_config
from sled_oam.errors import DegenerateMixtureError
from sled_oam.pair_state import PairDensityMatrix
from dm_json import from_json_dict, to_json_dict
from test_outputs import assert_paints_like, painted, rects
from test_outputs import svg_heatmap as per_cell_svg_heatmap
from test_outputs import svg_matrix as per_cell_svg_matrix

FAST = """
[grid]
detuning_max = 2.0
detuning_points = 5
temperatures = 0.3, 0.7
quadrature_nodes = 512

[emission]
winding = 1
l_max = 1
enhancements = 10, 100

[output]
svg = true
"""


def write_config(tmp_path, text=FAST, name="fast.conf"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def read_csv(path):
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        rows = [tuple(float(v) for v in line.split(",")) for line in fh if line.strip()]
    return header, rows


def check_manifest(out_dir):
    with open(os.path.join(out_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    for name, digest in manifest["outputs"].items():
        path = os.path.join(out_dir, name)
        assert os.path.exists(path)
        with open(path, "rb") as fh:
            assert hashlib.sha256(fh.read()).hexdigest() == digest
    return manifest


def all_labels(config):
    """The label of every pair of the run's basis, as ``cmd_dm`` formats them once."""
    return [cli._pair_label(pair) for pair in config.basis.pairs]


class TestRates:
    def test_outputs_and_normalization(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["rates", "--config", write_config(tmp_path), "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "rates_cp.csv"))
        assert header == "t_over_tc,detuning_over_delta0,rate_normalized"
        assert len(rows) == 2 * 5
        assert max(r[2] for r in rows) == 1.0
        _, bqp_rows = read_csv(os.path.join(out, "rates_bqp.csv"))
        assert len(bqp_rows) == 2 * 5
        assert max(r[2] for r in bqp_rows) < 1.0
        assert os.path.exists(os.path.join(out, "rates_cp.svg"))
        manifest = check_manifest(out)
        assert manifest["version"]
        assert "grid.quadrature_nodes" in manifest["config"]

    def test_rows_in_grid_order(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["rates", "--config", write_config(tmp_path), "--out", out]) == 0
        _, rows = read_csv(os.path.join(out, "rates_cp.csv"))
        temps = [r[0] for r in rows]
        detunings = [r[1] for r in rows]
        assert temps == [0.3] * 5 + [0.7] * 5
        assert detunings[:5] == sorted(detunings[:5])


    def test_fig2_rows_are_exact_mirror_images(self, tmp_path, monkeypatch):
        evaluated = []
        rates = spectral._BandTables.rates
        monkeypatch.setattr(
            spectral._BandTables,
            "rates",
            lambda tables, d, delta0: evaluated.append(d) or rates(tables, d, delta0),
        )
        out = str(tmp_path / "out")
        args = ["rates", "--config", "fig2", "--out", out, "--threads", "1"]
        args += ["--set", "grid.quadrature_nodes=512", "--set", "grid.temperatures=0.3, 0.9"]
        assert main(args) == 0
        assert len(evaluated) == 2 * 61  # one evaluation per |d| and temperature
        for name in ("rates_cp.csv", "rates_bqp.csv"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()[1:]]
            assert len(rows) == 2 * 121
            for block in (rows[:121], rows[121:]):
                for row, mirror in zip(block, reversed(block)):
                    assert row[0] == mirror[0]
                    assert float(row[1]) == -float(mirror[1])
                    assert row[2] == mirror[2]


class TestDm:
    def test_files_round_trip(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        names = [f"dm_{t}_{e}.json" for t in ("0.3", "0.7") for e in ("10", "100")]
        for name in names:
            path = os.path.join(out, name)
            assert os.path.exists(path)
            with open(path, encoding="utf-8") as fh:
                rho = from_json_dict(json.load(fh))
            assert len(rho.basis) == 9
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            assert float(np.linalg.eigvalsh(rho.entries).min()) >= -1e-10
        check_manifest(out)

    def test_populated_entries_follow_selection_rule(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        with open(os.path.join(out, "dm_0.3_100.json"), encoding="utf-8") as fh:
            rho = from_json_dict(json.load(fh))
        pairs = rho.basis.pairs
        for i, pi in enumerate(pairs):
            for j, pj in enumerate(pairs):
                value = rho.entries[i, j]
                if i == j:
                    continue  # diagonal carries the incoherent background
                if not (pi[0] + pi[1] == 1 and pj[0] + pj[1] == 1):
                    assert value == 0.0

    def test_one_overlap_per_unordered_magnitude_pair(self, tmp_path, monkeypatch):
        calls = []

        def counting_kappa(a, b, geom):
            calls.append(list(zip(np.ravel(a).tolist(), np.ravel(b).tolist())))
            return kappa(a, b, geom)

        pair_state._overlap_table.cache_clear()
        monkeypatch.setattr(pair_state, "kappa", counting_kappa)
        out = str(tmp_path / "out")
        args = ["dm", "--config", write_config(tmp_path), "--out", out, "--set", "emission.l_max=6"]
        assert main(args) == 0
        # 7 values of |l| give 28 unordered pairs, integrated once, in one
        # batched call, for all matrices
        (pairs,) = calls
        assert len(pairs) == len(set(pairs)) == 28
        assert all(0 <= a <= b for a, b in pairs)

    def test_the_sweep_builds_no_density_matrix(self, tmp_path, monkeypatch):
        built = []
        init = PairDensityMatrix.__init__

        def counting_init(self, basis, entries):
            built.append(np.shape(entries))
            init(self, basis, entries)

        monkeypatch.setattr(PairDensityMatrix, "__init__", counting_init)
        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        assert len([name for name in os.listdir(out) if name.startswith("dm_")]) == 8
        assert built == []

    def test_the_pair_labels_are_formatted_once_per_run(self, tmp_path, monkeypatch):
        calls = []
        label = cli._pair_label
        monkeypatch.setattr(cli, "_pair_label", lambda pair: calls.append(pair) or label(pair))
        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        assert len([name for name in os.listdir(out) if name.endswith(".svg")]) == 4
        assert calls == list(load_config(write_config(tmp_path)).basis.pairs)

    def test_omitted_qubit_equals_trivial_qubit(self, tmp_path):
        base = write_config(tmp_path, name="plain.conf")
        out_a = str(tmp_path / "a")
        out_b = str(tmp_path / "b")
        assert main(["dm", "--config", base, "--out", out_a]) == 0
        assert (
            main(
                [
                    "dm",
                    "--config",
                    base,
                    "--out",
                    out_b,
                    "--set",
                    "emission.qubit_a=1, 0",
                    "--set",
                    "emission.qubit_b=0, 0",
                ]
            )
            == 0
        )
        for name in os.listdir(out_a):
            if name.endswith(".json") and name != "manifest.json":
                with open(os.path.join(out_a, name), "rb") as fh:
                    blob_a = fh.read()
                with open(os.path.join(out_b, name), "rb") as fh:
                    blob_b = fh.read()
                assert blob_a == blob_b

    def test_a_complex_qubit_writes_a_diagonal_without_imaginary_parts(self, tmp_path):
        """Each |psi_i|^2 is formed in real arithmetic: numpy's complex product
        psi_i conj(psi_i) could leave an imaginary residue of about 1e-18."""
        out = str(tmp_path / "out")
        qubit = ["--set", "emission.qubit_a=0.6,0.3", "--set", "emission.qubit_b=0.8,1.1"]
        assert main(["dm", "--config", "fig3", "--out", out, *qubit]) == 0
        names = sorted(name for name in os.listdir(out) if name.startswith("dm_"))
        assert len(names) == 8
        for name in names[::2]:
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                payload = json.load(fh)
            diagonal = [row[i] for i, row in enumerate(payload["im"])]
            assert [repr(v) for v in diagonal] == ["0.0"] * len(diagonal)
            # the qubit populates both sectors' cross blocks with complex values
            assert any(v != 0.0 for row in payload["im"] for v in row)

    def test_qubit_sign_flip_touches_cross_sector_entries_only(self, tmp_path):
        inv = repr(float(1.0 / np.sqrt(2.0)))
        path = write_config(tmp_path)
        out_plus = str(tmp_path / "plus")
        out_minus = str(tmp_path / "minus")
        common = ["dm", "--config", path, "--set", f"emission.qubit_a={inv}, 0"]
        assert main(common + ["--set", f"emission.qubit_b={inv}, 0", "--out", out_plus]) == 0
        pi = repr(np.pi)
        assert (
            main(common + ["--set", f"emission.qubit_b={inv}, {pi}", "--out", out_minus]) == 0
        )
        with open(os.path.join(out_plus, "dm_0.3_100.json"), encoding="utf-8") as fh:
            plus = from_json_dict(json.load(fh))
        with open(os.path.join(out_minus, "dm_0.3_100.json"), encoding="utf-8") as fh:
            minus = from_json_dict(json.load(fh))
        pos = np.array([p[0] + p[1] == 1 for p in plus.basis.pairs])
        neg = np.array([p[0] + p[1] == -1 for p in plus.basis.pairs])
        cross = np.outer(pos, neg) | np.outer(neg, pos)
        assert np.allclose(minus.entries[cross], -plus.entries[cross], rtol=0, atol=1e-12)
        assert np.allclose(minus.entries[~cross], plus.entries[~cross], rtol=0, atol=1e-12)
        assert np.abs(plus.entries[cross]).max() > 0


class TestFidelity:
    def test_table_shape_and_ordering(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fidelity", "--config", write_config(tmp_path), "--out", out]) == 0
        header, rows = read_csv(os.path.join(out, "fidelity.csv"))
        assert header == "t_over_tc,enhancement,fidelity"
        assert len(rows) == 2 * 2
        assert all(0.0 <= r[2] <= 1.0 for r in rows)
        by_temp = {}
        for t, enh, f in rows:
            by_temp.setdefault(t, {})[enh] = f
        for t, series in by_temp.items():
            assert series[100.0] >= series[10.0]
        assert os.path.exists(os.path.join(out, "fidelity.svg"))

    @pytest.mark.parametrize(
        "qubit_a, qubit_b",
        [("0, 0", "1, 0"), (f"{0.5**0.5!r}, 0", f"{0.5**0.5!r}, 0")],
        ids=["counterclockwise", "equal_superposition"],
    )
    def test_the_configured_current_sets_the_fidelity(self, tmp_path, qubit_a, qubit_b):
        overrides = [
            "grid.temperatures=0.5, 0.9",
            "grid.quadrature_nodes=512",
            f"emission.qubit_a={qubit_a}",
            f"emission.qubit_b={qubit_b}",
        ]
        out = str(tmp_path / "out")
        args = ["fidelity", "--config", "fig3", "--out", out]
        assert main(args + [item for key in overrides for item in ("--set", key)]) == 0
        _, rows = read_csv(os.path.join(out, "fidelity.csv"))
        config = load_config("fig3", overrides)
        basis = config.basis
        target = bell_target(basis, config.winding)
        expected = []
        for t in config.grid.temperatures:
            for enh in config.enhancements:
                rho = pair_state.rho_total_superposition(
                    config.qubit,
                    config.winding,
                    basis,
                    config.geometry,
                    config.detuning_for_dm,
                    t,
                    config.junction,
                    spectral.CoherenceParams(enh),
                    config.grid.k_integration,
                )
                expected.append((t, enh, fidelity(rho, target)))
        assert rows == expected
        if qubit_a == "0, 0":  # the target's sector holds only the incoherent background
            assert max(f for _, _, f in rows) < 0.05  # clockwise: 0.78 and 0.88 at t = 0.5


class TestErrorReporting:
    def test_config_error_exit_code_and_record(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.conf")
        assert main(["rates", "--config", missing]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "absent.conf" in record["message"]

    def test_validation_error_names_key(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["rates", "--config", path, "--set", "emission.l_max=-1"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "emission.l_max" in record["message"]


    @pytest.mark.parametrize(
        "content, overrides, message",
        [
            (FAST.encode(), ["DEFAULT.x=1"], "unknown config section [DEFAULT]"),
            (FAST.encode(), [".x=1"], "override target '.x' must look like section.key"),
            ((FAST + "# caf\u00e9\n").encode("latin-1"), [], "is not UTF-8 text"),
            (b"[DEFAULT]\nsvg = true\n", [], "unknown config section [DEFAULT]"),
        ],
        ids=["set-default", "set-empty-section", "latin-1-file", "default-section"],
    )
    def test_a_malformed_config_exits_2_without_a_traceback(
        self, tmp_path, capsys, content, overrides, message
    ):
        path = tmp_path / "run.conf"
        path.write_bytes(content)
        args = ["rates", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(args + [f"--set={item}" for item in overrides]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        record = json.loads(line)
        assert record["error"] == "ConfigError"
        assert message in record["message"]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "key", ["material.preset", "material.band_gap_mev", "grid.detuning_min"]
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key):
        args = ["rates", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", f"{key}=1"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "message": f"unknown config key {key}"}
        assert not os.path.exists(tmp_path / "out")

    def test_svg_is_the_only_output_choice(self, tmp_path, capsys):
        # each command writes one data format; output.svg only adds the plots
        data_files = {
            "rates": ["rates_bqp.csv", "rates_cp.csv"],
            "dm": [f"dm_{t}_{enh}.json" for t in ("0.3", "0.7") for enh in ("10", "100")],
            "fidelity": ["fidelity.csv"],
        }
        old = write_config(tmp_path, FAST + "formats = csv,json\n", name="old.conf")
        new = write_config(tmp_path)
        for command, names in data_files.items():
            out = tmp_path / command
            args = [command, "--out", str(out)]
            assert main(args + ["--config", old]) == 2
            record = json.loads(capsys.readouterr().err)
            assert record == {"error": "ConfigError", "message": "unknown config key output.formats"}
            with pytest.raises(SystemExit) as exc:
                main(args + ["--config", new, "--format", "csv"])
            assert exc.value.code == 2
            assert "unrecognized arguments: --format" in capsys.readouterr().err
            assert not os.path.exists(out)
            assert main(args + ["--config", new, "--set", "output.svg=false"]) == 0
            assert sorted(os.listdir(out)) == sorted(names + ["manifest.json"])

    @pytest.mark.parametrize("command", ["dm", "fidelity"])
    def test_unsupported_l_max_exits_2(self, tmp_path, capsys, command):
        args = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", "emission.l_max=13"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "emission.l_max" in record["message"]
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command, winding", [("dm", "7"), ("fidelity", "3")])
    def test_unreachable_winding_exits_2(self, tmp_path, capsys, command, winding):
        args = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", f"emission.winding={winding}"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "emission.winding" in record["message"]
        assert not os.path.exists(tmp_path / "out")

    def test_counterclockwise_amplitude_needs_the_negative_sector(self, tmp_path, capsys):
        args = ["dm", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        args += ["--set", "emission.l_values=0, 1"]  # reaches total OAM +1 but not -1
        clockwise = ["--set", "emission.qubit_a=1, 0", "--set", "emission.qubit_b=0, 0"]
        both = ["--set", "emission.qubit_a=0.8, 0", "--set", "emission.qubit_b=0.6, 0"]
        assert main(args + clockwise) == 0
        assert main(args + both) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "emission.winding" in record["message"] and "-1" in record["message"]

    def test_a_vanishing_outer_radius_exits_2_at_load(self, tmp_path, capsys):
        # the waist derived from it, about 7e-301 um, would turn the overlaps NaN
        args = ["dm", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        args += ["--set", "geometry.r_inner_um=0", "--set", "geometry.r_outer_um=1e-300"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err)["message"].startswith("geometry.r_outer_um: must lie in ")
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("magnitude", ["1e155", "1e200", "1.7e308"])
    def test_a_huge_qubit_magnitude_exits_2(self, tmp_path, capsys, magnitude):
        args = ["dm", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        args += ["--set", f"emission.qubit_a={magnitude}, 0", "--set", "emission.qubit_b=0, 0"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("emission.qubit_a/qubit_b: ")
        assert not os.path.exists(tmp_path / "out")

    def test_empty_value_unsets_an_optional_key(self, tmp_path):
        text = FAST.replace("l_max = 1\n", "l_max = 1\nl_values = 0, 1\n")
        restricted = write_config(tmp_path, text, name="restricted.conf")
        plain, unset = str(tmp_path / "plain"), str(tmp_path / "unset")
        assert main(["fidelity", "--config", write_config(tmp_path), "--out", plain]) == 0
        args = ["fidelity", "--config", restricted, "--out", unset]
        assert main(args + ["--set", "emission.l_values="]) == 0
        for name in ("fidelity.csv", "fidelity.svg"):
            blobs = []
            for out in (plain, unset):
                with open(os.path.join(out, name), "rb") as fh:
                    blobs.append(fh.read())
            assert blobs[0] == blobs[1]
        echoes = [check_manifest(out)["config"] for out in (plain, unset)]
        for echo in echoes:
            del echo["output.directory"]
        assert echoes[0] == echoes[1]
        assert "emission.l_values" not in echoes[1]

    def test_empty_value_for_a_key_with_default_exits_2(self, tmp_path, capsys):
        args = ["rates", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", "grid.detuning_max="]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "grid.detuning_max" in record["message"]

    def test_valid_config_without_a_formable_state_exits_1(self, tmp_path, capsys):
        # r_outer equal to the default r_inner leaves an annulus of zero area
        args = ["dm", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", "geometry.r_outer_um=4.0"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DegenerateMixtureError"
        assert "trace" in record["message"]

    @pytest.mark.parametrize(
        "key, values, token",
        [
            ("grid.temperatures", "0.1234567, 0.1234568", "0.123457"),
            ("emission.enhancements", "10, 10.000001", "10"),
        ],
    )
    def test_dm_values_that_print_alike_exit_2(self, tmp_path, capsys, key, values, token):
        out = tmp_path / "out"
        args = ["dm", "--config", write_config(tmp_path), "--out", str(out)]
        assert main(args + ["--set", f"{key}={values}"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert key in record["message"] and repr(token) in record["message"]
        assert os.listdir(out) == []

    # 10 and 10.000001 both print as 10, the label of their curve in fidelity.svg
    ALIKE = ["--set", "emission.enhancements=10,10.000001", "--set", "grid.temperatures=0.3,0.5"]

    def test_fidelity_curves_that_print_alike_exit_2(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["fidelity", "--config", "fig5", "--out", str(out)] + self.ALIKE) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "emission.enhancements: 10.0 and 10.000001 print alike, as '10'",
        }
        assert os.listdir(out) == []

    def test_without_svg_fidelity_writes_both_curves_to_its_csv(self, tmp_path):
        out = str(tmp_path / "out")
        no_svg = ["--set", "output.svg=false"]
        assert main(["fidelity", "--config", "fig5", "--out", out] + self.ALIKE + no_svg) == 0
        assert sorted(check_manifest(out)["outputs"]) == ["fidelity.csv"]
        _, rows = read_csv(os.path.join(out, "fidelity.csv"))
        for enh in (10.0, 10.000001):
            alone = str(tmp_path / f"alone_{enh}")
            args = ["fidelity", "--config", "fig5", "--out", alone, "--set", "output.svg=false"]
            args += ["--set", f"emission.enhancements={enh!r}", *self.ALIKE[2:]]
            assert main(args) == 0
            _, expected = read_csv(os.path.join(alone, "fidelity.csv"))
            assert [row for row in rows if row[1] == enh] == expected

    def test_a_narrow_waist_far_inside_the_annulus_forms_its_state(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["dm", "--config", write_config(tmp_path), "--out", str(out)]
        geometry = ["geometry.r_inner_um=30", "geometry.r_outer_um=40", "geometry.waist_um=3"]
        status = main(args + [item for key in geometry for item in ("--set", key)])
        assert status == 0, capsys.readouterr().err
        check_manifest(out)

    def test_dm_and_fidelity_report_a_mixture_error_alike(self, tmp_path, capsys):
        records = []
        for command in ("dm", "fidelity"):
            args = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / command)]
            assert main(args + ["--set", "geometry.r_outer_um=4.0"]) == 1
            records.append(json.loads(capsys.readouterr().err))
        assert records[0] == records[1]
        assert records[0]["message"].endswith(" (at t=0.3, enhancement=10.0)")


class TestNonFiniteResults:
    """Overflowing settings exit with a one-line JSON error and write no data file."""

    @pytest.mark.parametrize("svg", ["false", "true"])
    # 1e200 leaves the rates finite until the coherent amplitude is squared
    @pytest.mark.parametrize("area", ["1e308", "1e200"])
    def test_infinite_rates_exit_3(self, tmp_path, capsys, svg, area):
        out = tmp_path / "out"
        args = ["rates", "--config", "fig2", "--out", str(out), "--set", f"output.svg={svg}"]
        for setting in ("temperatures=0.5", "detuning_points=3", "quadrature_nodes=64"):
            args += ["--set", f"grid.{setting}"]
        assert main(args + ["--set", f"grid.patch_area_um2={area}"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConvergenceError"
        assert "|d|=6.0, t=0.5 is not finite" in record["message"]
        assert os.listdir(out) == []

    @pytest.mark.parametrize(
        "key, value",
        [
            ("grid.cutoff_delta0", "1e308"),
            ("grid.cutoff_delta0", "1e200"),
            ("material.dephasing_time_fs", "1e-320"),
            ("material.electron_mass", "1e-300"),
            ("material.hole_mass", "1e-300"),
            ("material.electron_mass", "1e200"),
            ("material.delta0_mev", "1.7e308"),
            ("material.electron_density_cm2", "1.7e308"),
            ("material.hole_density_cm2", "1.7e308"),
            ("material.gap_scale_conduction", "1.7e308"),
            ("material.gap_scale_valence", "1.7e308"),
            ("grid.detuning_max", "1.7e308"),
            ("grid.quadrature_nodes", "1000000000000000"),
            ("grid.detuning_points", "1000000000000000"),
            ("emission.detuning_for_dm", "1e300"),
        ],
    )
    def test_settings_that_would_overflow_exit_2_at_load(self, tmp_path, capsys, key, value):
        # before any arithmetic: numpy would warn (an error in this suite) and then
        # fail, a tiny mass would divide by zero, or an array would not fit in memory
        out = tmp_path / "out"
        args = ["rates", "--config", "fig2", "--out", str(out), "--set", "output.svg=false"]
        for setting in ("temperatures=0.5", "detuning_points=3", "quadrature_nodes=64"):
            args += ["--set", f"grid.{setting}"]
        assert main(args + ["--set", f"{key}={value}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"{key}: must lie in ")
        assert not os.path.exists(out)

    @pytest.mark.parametrize("command", ["dm", "fidelity"])
    def test_an_infinite_total_rate_exits_1(self, tmp_path, capsys, command):
        out = tmp_path / "out"
        args = [command, "--config", write_config(tmp_path), "--out", str(out)]
        assert main(args + ["--set", "emission.enhancements=1e308"]) == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "DegenerateMixtureError"
        assert record["message"].startswith("total rate is not finite")
        assert record["message"].endswith(" (at t=0.3, enhancement=1e+308)")
        assert os.listdir(out) == []


class TestConvergenceGate:
    """Every run estimates each rate's quadrature error; there is no way to skip it."""

    def test_unresolvable_resonance_exits_with_code_3(self, tmp_path, capsys):
        args = [
            "rates",
            "--config",
            write_config(tmp_path),
            "--out",
            str(tmp_path / "out"),
            "--set",
            "grid.quadrature_nodes=64",
            "--set",
            "material.dephasing_time_fs=1e6",
        ]
        assert main(args) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConvergenceError"

    @pytest.mark.parametrize("dephasing_time_fs, status", [("1e5", 3), ("1e4", 0)])
    def test_the_error_estimate_gates_fig2_at_a_long_dephasing_time(
        self, tmp_path, capsys, dephasing_time_fs, status
    ):
        out = tmp_path / "out"
        args = ["rates", "--config", "fig2", "--out", str(out)]
        for setting in ("grid.temperatures=0.05", f"material.dephasing_time_fs={dephasing_time_fs}"):
            args += ["--set", setting]
        assert main(args) == status
        err = capsys.readouterr().err
        if status == 0:
            assert err == ""
            return
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConvergenceError"
        assert record["message"].startswith(
            "coherent rate at |d|=6.0, t=0.05 with 4096 quadrature nodes "
            "has the error estimate 6.47, over 0.001 of the rate "
        )
        assert os.listdir(out) == []

    def test_default_resolution_passes_verification(self, tmp_path):
        args = [
            "rates",
            "--config",
            write_config(tmp_path),
            "--out",
            str(tmp_path / "out"),
            "--set",
            "grid.quadrature_nodes=4096",
        ]
        assert main(args) == 0

    def test_turning_the_estimate_off_exits_2_naming_the_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        args = ["rates", "--config", write_config(tmp_path), "--out", str(out)]
        assert main(args + ["--set", "grid.verify_quadrature=false"]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("grid.verify_quadrature: ")
        assert "every run" in record["message"]
        assert not os.path.exists(out)

    def test_the_benchmark_flag_changes_no_data_file(self, tmp_path):
        # dm_wide's command line; only the manifest's config echo may differ
        digests = []
        for flag in ([], ["--set", "grid.verify_quadrature=true"]):
            out = str(tmp_path / f"out{len(digests)}")
            args = ["dm", "--config", "fig3", "--out", out, "--set", "emission.l_max=6"]
            assert main(args + flag) == 0
            digests.append(check_manifest(out)["outputs"])
        assert digests[0] and digests[0] == digests[1]


class TestSvgOutputs:
    def test_svgs_are_well_formed_xml(self, tmp_path):
        import xml.etree.ElementTree as ET

        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        assert main(["fidelity", "--config", write_config(tmp_path), "--out", out]) == 0
        svgs = [n for n in os.listdir(out) if n.endswith(".svg")]
        assert svgs
        for name in svgs:
            root = ET.parse(os.path.join(out, name)).getroot()
            assert root.tag.endswith("svg")

    def _infinite_entry(self, config):
        """A density matrix whose |rho| / max scales one cell to inf / inf = NaN.

        The constructor rejects a non-finite entry, so it is put into a built matrix.
        """
        basis = config.basis
        rho = PairDensityMatrix(basis, np.eye(len(basis), dtype=complex) / len(basis))
        rho.entries[0, 0] = np.inf
        return rho

    def test_a_nan_cell_leaves_no_matrix_svg(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        rho = self._infinite_entry(config)
        with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
            flat = np.arange(rho.entries.size)
            labels = all_labels(config)
            cli._write_matrix_svg(config, labels, flat, rho.entries.ravel(), "dm_bad", 0.3, 10.0)
        assert not os.listdir(out)

    def test_a_nan_cell_stops_dm_before_its_svg_is_opened(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        out.mkdir()
        rho = self._infinite_entry(config)
        sweep = np.arange(rho.entries.size), rho.entries.reshape(1, -1), None
        monkeypatch.setattr(pair_state, "mixture_sweep", lambda *args: sweep)
        with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
            cli.cmd_dm(config)
        assert os.listdir(out) == ["dm_0.3_10.json"]

    def test_a_point_that_fails_its_mixture_leaves_the_earlier_points_files(
        self, tmp_path, monkeypatch
    ):
        """A non-finite total rate at the second temperature: the first temperature's
        matrices are written, each equal to its one-shot mixture, and the error names
        the failing point."""
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        out.mkdir()
        grid = config.grid
        rates = spectral.mixing_rates(
            config.detuning_for_dm, grid.temperatures, config.junction, grid.k_integration
        )
        rates[1] = (math.inf, rates[1][1])
        monkeypatch.setattr(spectral, "mixing_rates", lambda *args: rates)
        with pytest.raises(DegenerateMixtureError) as raised:
            cli.cmd_dm(config)
        message = f"total rate is not finite (r_cp=inf, r_bqp={rates[1][1]})"
        assert str(raised.value) == message + " (at t=0.7, enhancement=10.0)"
        stems = ["dm_0.3_10", "dm_0.3_100"]
        files = [stem + ext for stem in stems for ext in (".json", ".svg")]
        assert sorted(os.listdir(out)) == files
        basis = config.basis
        coherent = pair_state.rho_cp(config.winding, basis, config.geometry)
        incoherent = pair_state.rho_bqp(basis, config.geometry)
        for stem, enh in zip(stems, config.enhancements):
            rho = pair_state.mixture(coherent, incoherent, enh * rates[0][0], rates[0][1])
            with open(out / f"{stem}.json", encoding="utf-8") as fh:
                assert fh.read() == json.dumps(to_json_dict(rho), indent=2) + "\n"

    def test_the_l_max_6_matrix_svg_paints_like_the_per_cell_writer(self, tmp_path):
        """One 169-pair heatmap paints every cell as the per-cell writer does, in under
        100 KB (the per-cell document takes 2.1 MB) and under 1 MB of Python memory."""
        out = tmp_path / "out"
        out.mkdir()
        config = load_config("fig3", ["emission.l_max=6", f"output.directory={out}"])
        basis = config.basis
        rho = pair_state.rho_total(
            config.winding,
            basis,
            config.geometry,
            config.detuning_for_dm,
            0.5,
            config.junction,
            spectral.CoherenceParams(10.0),
            config.grid.k_integration,
        )
        flat = np.flatnonzero(rho.entries)
        values = rho.entries.take(flat)
        labels = all_labels(config)
        cli._write_matrix_svg(config, labels, flat, values, "warm", 0.5, 10.0)  # first-call caches
        tracemalloc.start()
        try:
            cli._write_matrix_svg(config, labels, flat, values, "dm", 0.5, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(out / "dm.svg", encoding="utf-8") as fh:
            text = fh.read()
        magnitudes = abs(rho.entries)
        populated = np.flatnonzero(magnitudes.max(axis=1) > 1e-15)
        assert len(populated) == len(basis) == 169
        labels = [f"({l1},{l2})" for l1, l2 in basis.pairs]
        oracle = per_cell_svg_matrix(magnitudes, labels, "|rho| at T/Tc=0.5, enhancement=10")
        assert_paints_like(text, oracle)
        assert len(text.encode("utf-8")) < 100e3
        assert peak < 1e6

    def test_the_matrix_svg_leaves_out_the_pairs_it_does_not_populate(self, tmp_path):
        """Pairs whose rows hold no magnitude above 1e-15 are dropped with their columns,
        held cells included; the rest paints like the per-cell writer's heatmap of the
        dense sub-matrix of the populated pairs."""
        out = tmp_path / "out"
        out.mkdir()
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        n = len(config.basis)
        entries = np.diag(np.linspace(0.05, 0.2, n)).astype(complex)
        entries[[2, 5, 7], [2, 5, 7]] = [0.0, 1e-16, -0.0]  # rows 2, 5 and 7 are not populated
        entries[0, 5], entries[5, 0] = 0.5, 1e-16  # column 5 goes with row 5
        entries[1, 3], entries[3, 1] = 0.3j, -0.3j
        flat = np.union1d(np.flatnonzero(entries), np.arange(0, n * n, n + 1))
        cli._write_matrix_svg(config, all_labels(config), flat, entries.take(flat), "dm", 0.3, 10.0)
        with open(out / "dm.svg", encoding="utf-8") as fh:
            text = fh.read()
        magnitudes = abs(entries)
        populated = [i for i in range(n) if i not in (2, 5, 7)]
        labels = [f"({l1},{l2})" for l1, l2 in np.array(config.basis.pairs)[populated]]
        sub = magnitudes[np.ix_(populated, populated)]
        oracle = per_cell_svg_matrix(sub, labels, "|rho| at T/Tc=0.3, enhancement=10")
        assert_paints_like(text, oracle)

    def test_log_scale_heatmaps_on_the_fig2_grid(self, tmp_path):
        fast = ["--set", "grid.quadrature_nodes=512"]
        linear, log = str(tmp_path / "linear"), str(tmp_path / "log")
        assert main(["rates", "--config", "fig2", "--out", linear] + fast) == 0
        assert main(["rates", "--config", "fig2", "--out", log, "--log-scale"] + fast) == 0
        assert check_manifest(log)["config"]["output.log_scale"] == "true"
        for name in ("rates_cp", "rates_bqp"):
            with open(os.path.join(linear, f"{name}.csv"), "rb") as a, open(
                os.path.join(log, f"{name}.csv"), "rb"
            ) as b:
                assert a.read() == b.read()
            _, rows = read_csv(os.path.join(linear, f"{name}.csv"))
            values = np.array([rate for _, _, rate in rows]).reshape(19, 121)
            maps = []
            for out, log_scale in ((linear, False), (log, True)):
                with open(os.path.join(out, f"{name}.svg"), encoding="utf-8") as fh:
                    text = fh.read()
                ticks = [""] * 121, [""] * 19
                oracle = per_cell_svg_heatmap(values, *ticks, "", "", "", 1.0, log_scale)
                cells = rects(oracle)
                assert len(cells) == 121 * 19
                maps.append(painted(text, cells))
                assert maps[-1] == [cell[4] for cell in cells]
            assert maps[0] != maps[1]

    def test_manifest_records_defaults(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fidelity", "--config", write_config(tmp_path), "--out", out]) == 0
        manifest = check_manifest(out)
        assert "emission.detuning_for_dm" in manifest["defaults_used"]


class TestThreadPlumbing:
    """Every run is on one thread; ``--threads 1`` is accepted and sets nothing."""

    def test_threads_1_runs_and_sets_no_key(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path)
        assert main(["rates", "--config", path, "--out", out, "--threads", "1"]) == 0
        assert "output.threads" not in check_manifest(out)["config"]

    @pytest.mark.parametrize("threads", ["8", "0", "2"])
    def test_any_other_thread_count_exits_2(self, tmp_path, capsys, threads):
        with pytest.raises(SystemExit) as exc:
            main(["rates", "--config", write_config(tmp_path), "--threads", threads])
        assert exc.value.code == 2
        assert "--threads" in capsys.readouterr().err

    def test_output_threads_is_an_unknown_key(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["rates", "--config", path, "--set", "output.threads=2"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": "unknown config key output.threads",
        }


class TestPresets:
    @pytest.mark.parametrize(
        "argv, expected",
        [
            (["dm", "--config", "fig4"], ["dm_0.5_100", "dm_0.9_100"]),
            (["fidelity", "--config", "fig5"], ["fidelity"]),
        ],
    )
    def test_preset_writes_its_file_set(self, tmp_path, argv, expected):
        out = str(tmp_path / "out")
        assert main(argv + ["--out", out]) == 0
        data = ".json" if argv[0] == "dm" else ".csv"
        files = sorted(stem + ext for stem in expected for ext in (data, ".svg"))
        assert sorted(check_manifest(out)["outputs"]) == files
        assert sorted(os.listdir(out)) == sorted(files + ["manifest.json"])


class TestCommandLine:
    """The command line is read in one plain pass; usage errors exit 2 in plain text."""

    CANONICAL = ["--set", "grid.temperatures=0.5", "--set", "output.svg=false", "--log-scale"]
    FORMS = {
        "equals": lambda path, out: [
            f"--config={path}",
            f"--out={out}",
            "--set=grid.temperatures=0.5",
            "--set=output.svg=false",
            "--log-scale",
        ],
        "any order": lambda path, out: [
            "--log-scale",
            "--set",
            "grid.temperatures=0.5",
            "--out",
            out,
            "--set",
            "output.svg=false",
            "--config",
            path,
        ],
        "last wins": lambda path, out: [
            "--config",
            "fig5",
            "--out",
            out + "_not",
            "--set",
            "grid.temperatures=0.9",
            "--config",
            path,
            "--out",
            out,
            "--set",
            "grid.temperatures=0.5",
            "--set",
            "output.svg=false",
            "--log-scale",
        ],
        "threads 1": lambda path, out: ["--config", path, "--out", out, "--threads", "1"]
        + TestCommandLine.CANONICAL,
        "threads=1": lambda path, out: ["--threads=1", "--config", path, "--out", out]
        + TestCommandLine.CANONICAL,
    }

    @pytest.mark.parametrize("form", sorted(FORMS))
    def test_each_accepted_form_echoes_the_canonical_config(self, tmp_path, form):
        path, out = write_config(tmp_path), str(tmp_path / "out")
        assert main(["rates", "--config", path, "--out", out] + self.CANONICAL) == 0
        canonical = check_manifest(out)["config"]
        assert canonical["grid.temperatures"] == "0.5"
        assert canonical["output.log_scale"] == "true"
        assert canonical["output.svg"] == "false"
        for name in os.listdir(out):
            os.remove(os.path.join(out, name))
        assert main(["rates"] + self.FORMS[form](path, out)) == 0
        assert check_manifest(out)["config"] == canonical
        assert not os.path.exists(out + "_not")

    @pytest.mark.parametrize(
        "argv, message",
        [
            ([], "sled-oam: error: the following arguments are required: command"),
            (
                ["bogus", "--config", "fig3", "--out", "OUT"],
                "sled-oam: error: argument command: invalid choice: 'bogus'"
                " (choose from 'rates', 'dm', 'fidelity')",
            ),
            (
                ["dm", "--out", "OUT"],
                "sled-oam dm: error: the following arguments are required: --config",
            ),
            (
                ["dm", "--out", "OUT", "--config"],
                "sled-oam dm: error: argument --config: expected one argument",
            ),
            (
                ["dm", "--config", "--out", "OUT"],
                "sled-oam dm: error: argument --config: expected one argument",
            ),
            (
                ["dm", "--config", "fig3", "--out", "OUT", "--threads", "8"],
                "sled-oam dm: error: argument --threads: invalid choice: 8 (choose from 1)",
            ),
            (
                ["rates", "--config", "fig2", "--out", "OUT", "--format", "csv"],
                "sled-oam rates: error: unrecognized arguments: --format csv",
            ),
            # options are spelled out in full: an abbreviation is not one of them
            (
                ["dm", "--conf", "fig3", "--config", "fig3", "--out", "OUT"],
                "sled-oam dm: error: unrecognized arguments: --conf fig3",
            ),
            (
                ["dm", "--config", "fig3", "--out", "OUT", "--log-scale=1"],
                "sled-oam dm: error: argument --log-scale: ignored explicit argument '1'",
            ),
        ],
    )
    def test_a_usage_error_exits_2_in_plain_text(self, tmp_path, capsys, argv, message):
        out = str(tmp_path / "out")
        with pytest.raises(SystemExit) as exc:
            main([out if token == "OUT" else token for token in argv])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        usage, error = captured.err.splitlines()
        assert usage.startswith("usage: sled-oam")
        assert error == message
        assert not os.path.exists(out)

    @pytest.mark.parametrize(
        "argv, shown",
        [
            (["--version"], [f"sled-oam {__version__}"]),
            (["-h"], ["usage: sled-oam", "--version", "rates", "dm", "fidelity"]),
            (["--help", "bogus"], ["usage: sled-oam", "--version"]),
            (
                ["dm", "--help"],
                ["usage: sled-oam dm", "--config", "fig2, fig3, fig4, fig5", "--set"],
            ),
            (["rates", "--config", "fig2", "-h"], ["usage: sled-oam rates", "--log-scale"]),
        ],
    )
    def test_help_and_version_exit_0_on_stdout(self, capsys, argv, shown):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        assert all(text in captured.out for text in shown)
        assert "--threads" not in captured.out

    def test_no_arguments_read_the_process_arguments(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "argv", ["sled-oam", "--version"])
        with pytest.raises(SystemExit) as exc:
            main()
        assert exc.value.code == 0
        assert capsys.readouterr().out == f"sled-oam {__version__}\n"

    def test_a_run_loads_neither_argparse_nor_gettext_nor_locale(self, tmp_path):
        # modules the interpreter loaded before the import are not the CLI's
        argv = ["rates", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            "import sled_oam.cli\n"
            f"assert sled_oam.cli.main({argv!r}) == 0\n"
            "print(sorted({'argparse', 'gettext', 'locale'} & (set(sys.modules) - before)))\n"
        )
        src = os.path.dirname(os.path.dirname(cli.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=dict(os.environ, PYTHONPATH=path),
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout == "[]\n"
        assert os.path.exists(tmp_path / "out" / "manifest.json")
