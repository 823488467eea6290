import hashlib
import json
import os
import tracemalloc

import numpy as np
import pytest

from sled_oam import cli, kappa, pair_state, spectral
from sled_oam.cli import main
from sled_oam.config import load_config
from sled_oam.pair_state import PairDensityMatrix

FAST = """
[grid]
detuning_max = 2.0
detuning_points = 5
temperatures = 0.3, 0.7
quadrature_nodes = 128

[emission]
winding = 1
l_max = 1
enhancements = 10, 100

[output]
formats = csv,json,svg
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
        args += ["--set", "grid.quadrature_nodes=256", "--set", "grid.temperatures=0.3, 0.9"]
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
                rho = PairDensityMatrix.from_json_dict(json.load(fh))
            assert len(rho.basis) == 9
            assert rho.trace() == pytest.approx(1.0, abs=1e-12)
            assert float(np.linalg.eigvalsh(rho.entries).min()) >= -1e-10
        check_manifest(out)

    def test_populated_entries_follow_selection_rule(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["dm", "--config", write_config(tmp_path), "--out", out]) == 0
        with open(os.path.join(out, "dm_0.3_100.json"), encoding="utf-8") as fh:
            rho = PairDensityMatrix.from_json_dict(json.load(fh))
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
            calls.append((a, b))
            return kappa(a, b, geom)

        pair_state._overlap_table.cache_clear()
        monkeypatch.setattr(pair_state, "kappa", counting_kappa)
        out = str(tmp_path / "out")
        args = ["dm", "--config", write_config(tmp_path), "--out", out, "--set", "emission.l_max=6"]
        assert main(args) == 0
        # 7 values of |l| give 28 unordered pairs, each integrated once for all matrices
        assert len(calls) == len(set(calls)) == 28
        assert all(a.m == b.m == 0 and 0 <= a.l <= b.l for a, b in calls)

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
            plus = PairDensityMatrix.from_json_dict(json.load(fh))
        with open(os.path.join(out_minus, "dm_0.3_100.json"), encoding="utf-8") as fh:
            minus = PairDensityMatrix.from_json_dict(json.load(fh))
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


class TestErrorReporting:
    def test_config_error_exit_code_and_record(self, tmp_path, capsys):
        missing = str(tmp_path / "absent.conf")
        assert main(["rates", "--config", missing]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert "absent.conf" in record["message"]

    def test_validation_error_names_key(self, tmp_path, capsys):
        path = write_config(tmp_path)
        assert main(["rates", "--config", path, "--set", "output.threads=-1"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert "threads" in record["message"]


    @pytest.mark.parametrize(
        "key", ["material.preset", "material.band_gap_mev", "grid.detuning_min"]
    )
    def test_removed_key_exits_2(self, tmp_path, capsys, key):
        args = ["rates", "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--set", f"{key}=1"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record == {"error": "ConfigError", "message": f"unknown config key {key}"}
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize(
        "command, formats, needed",
        [("rates", "json", "csv"), ("dm", "csv,svg", "json"), ("fidelity", "json,svg", "csv")],
    )
    def test_formats_without_the_data_format_exit_2(
        self, tmp_path, capsys, command, formats, needed
    ):
        args = [command, "--config", write_config(tmp_path), "--out", str(tmp_path / "out")]
        assert main(args + ["--format", formats]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert record["message"].startswith("output.formats:")
        assert repr(needed) in record["message"]
        assert not os.path.exists(tmp_path / "out")

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
    def test_dm_values_sharing_a_file_token_exit_2(self, tmp_path, capsys, key, values, token):
        out = tmp_path / "out"
        args = ["dm", "--config", write_config(tmp_path), "--out", str(out)]
        assert main(args + ["--set", f"{key}={values}"]) == 2
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConfigError"
        assert key in record["message"] and repr(token) in record["message"]
        assert os.listdir(out) == []

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

    @pytest.mark.parametrize("formats", ["csv", "csv,svg"])
    def test_infinite_rates_exit_3(self, tmp_path, capsys, formats):
        out = tmp_path / "out"
        args = ["rates", "--config", "fig2", "--out", str(out), "--format", formats]
        for setting in ("temperatures=0.5", "detuning_points=3", "quadrature_nodes=64"):
            args += ["--set", f"grid.{setting}"]
        assert main(args + ["--set", "grid.patch_area_um2=1e308"]) == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        record = json.loads(err)
        assert record["error"] == "ConvergenceError"
        assert "|d|=6.0, t=0.5 is not finite" in record["message"]
        assert os.listdir(out) == []

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
    def test_unresolvable_resonance_exits_with_code_3(self, tmp_path, capsys):
        args = [
            "rates",
            "--config",
            write_config(tmp_path),
            "--out",
            str(tmp_path / "out"),
            "--set",
            "grid.verify_quadrature=true",
            "--set",
            "grid.quadrature_nodes=64",
            "--set",
            "material.dephasing_time_fs=1e6",
        ]
        assert main(args) == 3
        record = json.loads(capsys.readouterr().err.strip())
        assert record["error"] == "ConvergenceError"

    def test_default_resolution_passes_verification(self, tmp_path):
        args = [
            "rates",
            "--config",
            write_config(tmp_path),
            "--out",
            str(tmp_path / "out"),
            "--set",
            "grid.verify_quadrature=true",
            "--set",
            "grid.quadrature_nodes=4096",
        ]
        assert main(args) == 0


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
        basis = config.basis()
        rho = PairDensityMatrix(basis, np.eye(len(basis), dtype=complex) / len(basis))
        rho.entries[0, 0] = np.inf
        return rho

    def test_a_nan_cell_leaves_no_matrix_svg(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        rho = self._infinite_entry(config)
        with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
            cli._write_matrix_svg(config, rho, "dm_bad", 0.3, 10.0)
        assert not os.listdir(out)

    def test_a_nan_cell_stops_dm_before_its_svg_is_opened(self, tmp_path, monkeypatch):
        out = tmp_path / "out"
        config = load_config(write_config(tmp_path), [f"output.directory={out}"])
        out.mkdir()
        rho = self._infinite_entry(config)
        monkeypatch.setattr(pair_state, "mixtures", lambda *args: iter([(0.3, 10.0, rho)]))
        with pytest.raises(ValueError, match="cannot colour NaN"), np.errstate(invalid="ignore"):
            cli.cmd_dm(config)
        assert os.listdir(out) == ["dm_0.3_10.json"]

    def test_the_l_max_6_matrix_svg_is_never_joined(self, tmp_path):
        """One 169-pair heatmap (2.0 MB of text) written through its parts peaks
        below 3.5 MB of Python memory; a joined copy of the document would not fit."""
        out = tmp_path / "out"
        out.mkdir()
        config = load_config("fig3", ["emission.l_max=6", f"output.directory={out}"])
        basis = config.basis()
        _, _, rho = next(
            pair_state.mixtures(
                pair_state.rho_cp(config.winding, basis, config.geometry),
                pair_state.rho_bqp(basis, config.geometry),
                config.detuning_for_dm,
                config.grid.temperatures,
                config.enhancements,
                config.junction,
                config.grid.k_integration,
            )
        )
        cli._write_matrix_svg(config, rho, "warm", 0.5, 10.0)  # first-call caches
        tracemalloc.start()
        try:
            cli._write_matrix_svg(config, rho, "dm", 0.5, 10.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        with open(out / "dm.svg", encoding="utf-8") as fh:
            text = fh.read()
        assert text.count("<rect ") == 169 * 169 and len(text) > 2e6
        assert peak < 3.5e6

    def test_log_scale_heatmaps_on_the_fig2_grid(self, tmp_path):
        import xml.etree.ElementTree as ET

        fast = ["--set", "grid.quadrature_nodes=256"]
        linear, log = str(tmp_path / "linear"), str(tmp_path / "log")
        assert main(["rates", "--config", "fig2", "--out", linear] + fast) == 0
        assert main(["rates", "--config", "fig2", "--out", log, "--log-scale"] + fast) == 0
        assert check_manifest(log)["config"]["output.log_scale"] == "true"
        for name in ("rates_cp", "rates_bqp"):
            with open(os.path.join(linear, f"{name}.csv"), "rb") as a, open(
                os.path.join(log, f"{name}.csv"), "rb"
            ) as b:
                assert a.read() == b.read()
            fills = []
            for out in (linear, log):
                root = ET.parse(os.path.join(out, f"{name}.svg")).getroot()
                fills.append([r.get("fill") for r in root.iter() if r.tag.endswith("rect")])
            assert len(fills[0]) == len(fills[1]) == 121 * 19
            assert fills[0] != fills[1]

    def test_manifest_records_defaults(self, tmp_path):
        out = str(tmp_path / "out")
        assert main(["fidelity", "--config", write_config(tmp_path), "--out", out]) == 0
        manifest = check_manifest(out)
        assert "emission.detuning_for_dm" in manifest["defaults_used"]


class TestThreadPlumbing:
    def test_threads_flag_is_recorded_as_output_threads(self, tmp_path):
        out = str(tmp_path / "out")
        path = write_config(tmp_path, FAST + "threads = 2\n")  # FAST ends in [output]
        assert main(["rates", "--config", path, "--out", out, "--threads", "1"]) == 0
        assert check_manifest(out)["config"]["output.threads"] == "1"


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
